"""Run configuration: file + flag parsing with strict key validation.

Also home to the two errors the CLI answers with exit status 2: a bad
config key (ConfigError) and a schedule whose ladder cannot be built
(LadderGrowthError, raised by `ladder`).
"""

import dataclasses
import json
import math
import os
import typing
from dataclasses import dataclass

MODES = (
    "ricci-check",
    "build-example",
    "orbit-growth",
    "capacity",
    "grushin-compare",
    "full-suite",
)


class ConfigError(ValueError):
    def __init__(self, key, reason):
        super().__init__(f"config key '{key}': {reason}")
        self.key = key
        self.reason = reason


class LadderGrowthError(ValueError):
    """Two consecutive junction radii of a ladder are less than 5x apart."""


@dataclass
class RunConfig:
    mode: str
    # model parameters
    alpha: float = 0.5
    beta: float | None = None
    A: float | None = None
    B: float | None = None
    R11: float = 100.0
    periods: int = 2
    k: int | None = None
    k_max: int | None = None
    # numerics
    r_min: float = 1e-3
    r_max: float = 1e6
    grid_points: int = 4000
    quad_rel_tol: float = 1e-9
    oracle_rel_tol: float = 1e-5
    radius_bound: float = 1e300
    # sampling
    seed: int = 12345
    lambda_ladder: tuple = (1e2, 1e3, 1e4)
    probe_pairs: int = 20
    # I/O
    outdir: str = "runs"
    cache_dir: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError("mode", f"unknown mode {self.mode!r}; choose from {MODES}")
        self.lambda_ladder = tuple(float(x) for x in self.lambda_ladder)
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            values = value if isinstance(value, tuple) else (value,)
            if any(isinstance(x, float) and not math.isfinite(x) for x in values):
                raise ConfigError(f.name, "must be finite")
        if self.alpha <= 0:
            raise ConfigError("alpha", "must be positive")
        # every harness stretch starts at the axis, where the factors that
        # fit it begin at 1, and a trend needs three different factors
        if len(set(self.lambda_ladder)) < 3 or min(self.lambda_ladder) < 1:
            raise ConfigError("lambda_ladder",
                              "need at least 3 distinct rescaling factors, each >= 1")
        for key in ("k", "k_max"):  # None picks the default
            if getattr(self, key) is not None and getattr(self, key) < 1:
                raise ConfigError(key, "sphere dimensions start at 1")
        # probe pair 0 is radial, where both metrics give 0: no error measured
        if self.probe_pairs < 2:
            raise ConfigError("probe_pairs", "need at least 2 probe pairs")
        if self.periods < 0:
            raise ConfigError("periods", "must be >= 0")
        if self.is_oscillating():
            if self.beta is None or self.A is None or self.B is None:
                raise ConfigError("beta", "oscillating model needs alpha, beta, A, B")
            if not (self.B > self.beta > self.alpha > self.A > 0):
                raise ConfigError("B", "need B > beta > alpha > A > 0")
            if self.R11 < 100:
                raise ConfigError("R11", "first junction radius must be >= 100")
            if self.periods < 1 and self.mode in ("build-example", "orbit-growth", "full-suite"):
                raise ConfigError("periods", "need at least one period for this mode")
        for key in ("r_min", "r_max", "quad_rel_tol", "oracle_rel_tol", "radius_bound"):
            if getattr(self, key) <= 0:
                raise ConfigError(key, "tolerances and ranges must be positive")
        if self.r_min >= self.r_max:
            raise ConfigError("r_min", "must be below r_max")
        if self.grid_points < 2:
            raise ConfigError("grid_points", "need at least 2 grid points")

    def is_oscillating(self) -> bool:
        return self.beta is not None or self.mode in ("build-example",)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["lambda_ladder"] = list(self.lambda_ladder)
        return d

    def to_file(self, path: str):
        try:
            with open(path, "w") as fh:
                json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as e:
            raise ConfigError("emit_config", f"cannot write {path}: {e.strerror}") from e


_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_WANT = {float: "a number", int: "an integer", str: "a string", tuple: "a list of numbers"}


def _fits(value, kind) -> bool:
    """A float field takes any number, an int field an int, neither a bool
    (JSON's true and false), and lambda_ladder a list of numbers."""
    if kind is tuple:
        return isinstance(value, (list, tuple)) and all(_fits(x, float) for x in value)
    if kind is str:
        return isinstance(value, str)
    return not isinstance(value, bool) and isinstance(value, int if kind is int else (int, float))


def config_from_dict(data: dict) -> RunConfig:
    unknown = set(data) - _FIELDS.keys()
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown key")
    if "mode" not in data:
        raise ConfigError("mode", "required")
    for key, value in data.items():
        # None only where the field is optional (X | None)
        kinds = typing.get_args(_FIELDS[key]) or (_FIELDS[key],)
        if not (type(None) in kinds if value is None else _fits(value, kinds[0])):
            raise ConfigError(key, f"must be {_WANT[kinds[0]]}, got {value!r}")
    return RunConfig(**data)


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Config from a JSON file, flag overrides on top; unknown keys rejected."""
    data = {}
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError("config", f"file not found: {path}")
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as e:  # a directory, or a file that cannot be read
            raise ConfigError("config", f"cannot read {path}: {e.strerror}") from e
        except ValueError as e:  # JSONDecodeError, or bytes that are not UTF-8
            raise ConfigError("config", f"invalid JSON: {e}") from e
        if not isinstance(data, dict):
            raise ConfigError("config", f"must hold a JSON object, got {type(data).__name__}")
    for key, val in (overrides or {}).items():
        if val is not None:
            data[key] = val
    return config_from_dict(data)
