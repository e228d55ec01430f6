"""Batch orchestration: run a configured pipeline, emit CSVs and a report.

CSV schemas are fixed (curves consumed by external tools):

    ricci curve      r, ric_radial, ric_circle, ric_sphere
    orbit distances  l, d_l
    growth curve     R, count, logR, logCount
    capacity         R, lambda, cap
    fit report       k_hat, c1_hat, c2_hat, residual
    rescaling        lambda, max_rel_err

Floats are written with repr (shortest round-trip), so identical configs
against a warm cache reproduce outputs byte for byte; wall-clock timings
live only in the JSON report.  Seeded samples come from
random.Random(cfg.seed): `random` is loaded before a run starts (numpy
imports it), where numpy.random would be imported mid-run for a few dozen
draws.

Each step imports the modules only it runs, inside the step, so a run
loads what its mode executes: `_run_ricci_check` imports `christoffel`,
the orbit-growth step `orbits`, the capacity step and the oscillating
model's growth windows (`_window_checks`) `dimension`, `_run_grushin`
`grushin`, and `_orbit_table`, which builds the orbit table for the first
step that reads a distance, imports `orbits`, with `cache` for the pure
model.  Every step counts on that table: an orbits.OrbitTable is the
orbit metric that `growth_slope` and `dimension`'s fits read.  The
construction modules (`ladder`, `piecewise`, `smoothing`,
`construction_io`) are imported only where a run builds the oscillating
model: in the beta branch of `_model_for` and in `_run_build_example`.  A
pure run never loads them, and no run loads mpmath: the construction is
carried in doubles and log-doubles.  A step's `from .module import name`
reads the module's attribute when the step runs, so a wrapper or spy set
on the module reaches the step.
"""

import functools
import json
import math
import os
import random
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import curvature as curv
from .config import RunConfig
from .halfplane import ArcBoundViolation, HalfplaneMetric, orbit_distance
from .warping import power_decay_h, standard_f


@dataclass
class Check:
    name: str
    status: str  # "pass" | "fail" | "flagged"
    margin: float = float("nan")
    details: str = ""


@dataclass
class RunReport:
    config: dict
    checks: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    certified_k: int | None = None  # from build-example, feeds ricci-check

    def add(self, name, ok, margin=float("nan"), details="", flagged=False):
        status = "flagged" if flagged else ("pass" if ok else "fail")
        self.checks.append(Check(name, status, margin, details))

    @property
    def failed(self):
        return [c for c in self.checks if c.status == "fail"]

    def to_dict(self):
        return {
            "config": self.config,
            "checks": [c.__dict__ for c in self.checks],
            "artifacts": self.artifacts,
            "timings": self.timings,
        }


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            # float.__repr__: a numpy float's repr would write np.float64(...)
            fh.write(",".join(float.__repr__(x) if isinstance(x, float) else str(x)
                              for x in row) + "\n")


def write_columns(path, header, columns):
    """write_csv's bytes for the rows of equal-length float64 columns: each
    chunk of 128 rows read as Python floats by tolist() and each row written
    by one %r format, so no numpy scalar is made per cell and at most 128
    rows of floats and text are alive at a time (about 50 KB at 4 columns;
    512-row chunks brought the suites' peak RSS near its 0.1 MB bound)."""
    row = ",".join(["%r"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for at in range(0, len(columns[0]), 128):
            cells = zip(*[c[at:at + 128].tolist() for c in columns])
            fh.write("".join([row % r for r in cells]))


def _model_for(cfg: RunConfig):
    """(ladder or None, h, table) of the configured model.  table() builds
    the model's orbit table at its first call, so only a step that reads
    distances builds one, and returns that table at every later call.  A
    pure model's h is power_decay_h(alpha), the h the pure-model oracles
    check."""
    if cfg.beta is None:
        ladder, h = None, power_decay_h(float(cfg.alpha))
    else:
        from .ladder import OscillationParams
        from .smoothing import build_oscillating_h

        p = OscillationParams(cfg.alpha, cfg.beta, cfg.A, cfg.B, cfg.R11, cfg.periods)
        ladder, h = build_oscillating_h(p, radius_bound=cfg.radius_bound)
    return ladder, h, functools.cache(lambda: _orbit_table(cfg, h))


def _orbit_table(cfg: RunConfig, h):
    """The orbit table of the model's h.  Only a pure model's table has a
    cache, keyed by what its metric reads: alpha and the arc tolerance."""
    from .orbits import OrbitTable

    if cfg.beta is not None:
        return OrbitTable(HalfplaneMetric.from_smoothed(h, rel_tol=cfg.quad_rel_tol))
    from .cache import OrbitCache

    key = {"alpha": float(cfg.alpha), "quad_rel_tol": float(cfg.quad_rel_tol)}
    return OrbitTable(HalfplaneMetric.from_warping(h, rel_tol=cfg.quad_rel_tol),
                      cache=OrbitCache.for_model(key, cfg.cache_dir))


def run(cfg: RunConfig) -> RunReport:
    os.makedirs(cfg.outdir, exist_ok=True)
    report = RunReport(config=cfg.to_dict())
    t_start = time.time()
    if cfg.mode == "full-suite":
        # build first so the certified sphere dimension can feed the
        # curvature curve when no k was configured
        steps = [_run_orbit_growth, _run_capacity, _run_grushin]
        steps.insert(0, _run_ricci_check)
        if cfg.beta is not None:
            steps.insert(0, _run_build_example)
    else:
        steps = {
            "ricci-check": [_run_ricci_check],
            "build-example": [_run_build_example],
            "orbit-growth": [_run_orbit_growth],
            "capacity": [_run_capacity],
            "grushin-compare": [_run_grushin],
        }[cfg.mode]
    model = _model_for(cfg)
    report.timings["_model_for"] = time.time() - t_start
    for step in steps:
        t0 = time.time()
        try:
            step(cfg, report, *model)
        except ArcBoundViolation as e:  # wrong arc integrals end the step, not the run
            report.add("arc-bounds", False, details=f"{step.__name__}: {e}")
        report.timings[step.__name__] = time.time() - t0
    report.timings["total"] = time.time() - t_start
    path = os.path.join(cfg.outdir, "report.json")
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    report.artifacts.append(path)
    return report


def _run_ricci_check(cfg: RunConfig, report: RunReport, ladder, h, table):
    from .christoffel import StepTooLarge, ricci_numeric_oracle

    k = cfg.k or report.certified_k or 8
    f = standard_f()
    m = curv.DoublyWarpedMetric(k, f, h)
    grid = curv.log_grid(cfg.r_min, cfg.r_max, cfg.grid_points)
    # ricci_report's bits at every radius, from one f and one h frame
    dirs, ok, worst = curv.ricci_grid(m, grid)
    path = os.path.join(cfg.outdir, "ricci_curve.csv")
    # a chunk of rows at a time: all 4,000 rows as Python floats (about
    # 0.5 MB) would be the osc suite's peak memory
    write_columns(path, ["r", "ric_radial", "ric_circle", "ric_sphere"], (grid, *dirs))
    report.artifacts.append(path)
    report.add(f"ricci-positive(k={k})", ok, margin=worst.min_value)

    # oracle cost grows like (k+2)^4, and the closed forms are affine in k,
    # so the cross-check of the formulas runs at a small sphere dimension
    k_oracle = min(k, 9)
    mo = curv.DoublyWarpedMetric(k_oracle, f, h)
    rng = random.Random(cfg.seed)
    log_lo, log_hi = math.log(0.2), math.log(min(cfg.r_max, 1e6))
    sample = [math.exp(rng.uniform(log_lo, log_hi)) for _ in range(16)]
    oracle = []  # the oracle's report at each radius, None where its step check refused
    for r in sample:
        try:
            oracle.append(ricci_numeric_oracle(mo, r))
        except StepTooLarge:
            oracle.append(None)
    refused = [r for r, o in zip(sample, oracle) if o is None]
    # the closed forms at all samples in one call, with ricci_report's bits
    closed = zip(*[c.tolist() for c in curv.ricci_components(mo, sample)])
    worst_rel = 0.0
    for o, c in zip(oracle, closed):
        if o is not None:
            for a, b in zip((o.ric_radial, o.ric_circle, o.ric_sphere), c):
                worst_rel = max(worst_rel, abs(a - b) / (1.0 + abs(b)))
    details = f"max rel err over {len(sample) - len(refused)} radii at k={k_oracle}"
    if refused:
        details += "; oracle refused (StepTooLarge) at r=" + ", ".join(map(repr, refused))
    report.add("ricci-oracle-agreement", not refused and worst_rel <= cfg.oracle_rel_tol,
               margin=worst_rel, details=details)


def _run_build_example(cfg: RunConfig, report: RunReport, ladder, sm, table):
    from .construction_io import save_construction
    from .smoothing import (
        NotCertified,
        certification_grid,
        certify_positive_ricci,
        construction_invariants,
        dimension_threshold,
        effective_exponent_max,
    )

    inv = construction_invariants(sm, cfg.r_min)
    worst_gap = max(inv.junction_gaps, default=0.0)  # a ladder cut before R12 has none
    report.add("junction-continuity", worst_gap <= 1e-10, margin=worst_gap,
               details=f"{len(inv.junction_gaps)} junctions")
    if ladder.truncated:
        report.add("ladder-truncated", True, flagged=True,
                   details=f"radius bound {cfg.radius_bound:g} reached")
    report.add("strictly-decreasing(1e5 samples)", inv.monotone)
    report.add("replacement-inequalities(all blends)", inv.blends_ok, margin=inv.worst_c,
               details=f"c>={inv.worst_c:.3g}, C<={inv.worst_C:.3g}")

    grid_c, labels = certification_grid(sm, r_min=cfg.r_min)
    p_eff = effective_exponent_max(sm, grid_c)
    cap = cfg.k_max or int(4 * dimension_threshold(p_eff))
    try:
        cert = certify_positive_ricci(sm, standard_f(), cap, grid_c, labels)
        report.add(f"certified-k<={cap}", True, margin=cert.worst().margin,
                   details=f"minimal k={cert.k}, effective exponent {p_eff:.3f}")
        report.certified_k = cert.k
    except NotCertified as e:
        report.add(f"certified-k<={cap}", False, details=str(e))

    path = os.path.join(cfg.outdir, "construction.json")
    save_construction(path, ladder, sm)
    report.artifacts.append(path)


def _run_orbit_growth(cfg: RunConfig, report: RunReport, ladder, sm, table):
    from .orbits import GrowthWindow, WindowOutOfRange, growth_slope

    if ladder is None:
        # pure model: distance sandwich on the asymptotic stretch plus a slope fit
        a = cfg.alpha
        ls = np.round(np.exp(np.linspace(math.log(81), math.log(1e5), 40))).astype(int)
        ls = sorted(set(ls.tolist()))  # np.unique would import numpy.ma, about 1 MB
        e = 1.0 / (1.0 + 2.0 * a)
        C_low = 2.0 * 9.0 ** (-1.0 / (2.0 * a))
        rows = []
        ok = True
        for l in ls:
            d = table().distance(int(l))
            lo = C_low * l**e - 2.0
            hi = 9.0 * l**e
            good = lo <= d <= hi
            ok = ok and good
            rows.append((int(l), d))
        path = os.path.join(cfg.outdir, "orbit_distances.csv")
        write_csv(path, ["l", "d_l"], rows)
        report.artifacts.append(path)
        report.add("distance-power-bounds", ok, details=f"{len(ls)} indices in [81, 1e5]")

        window = GrowthWindow(1e2, 1e4)
        fit = growth_slope(table(), window, samples=14)
        target = 1.0 + 2.0 * a
        report.add("growth-slope", abs(fit.slope - target) <= 0.15, margin=fit.slope,
                   details=f"expected {target} +- 0.15")
        _write_growth_csv(cfg, report, fit, "growth_curve.csv")
        return

    # oscillating model: a window at each controlling stretch, S = twice
    # the start of the second alpha piece and of the first beta piece, both
    # on one orbit table
    rows_csv = []
    stretches = ((cfg.alpha, _piece_starts(sm, cfg.alpha)[1:2], "alpha-window", "second alpha"),
                 (cfg.beta, _piece_starts(sm, cfg.beta)[:1], "beta-window", "beta"))
    for a, starts, tag, piece in stretches:
        if not starts:
            report.add(f"{tag}-unavailable", True, flagged=True,
                       details=f"no {piece} piece below radius bound {cfg.radius_bound:g}")
            continue
        try:
            _window_checks(cfg, report, table(), a, 2.0 * starts[0], tag, rows_csv)
        except WindowOutOfRange as e:
            report.add(f"{tag}-unavailable", True, flagged=True, details=str(e))
    if rows_csv:
        path = os.path.join(cfg.outdir, "orbit_distances.csv")
        write_csv(path, ["l", "d_l"], rows_csv)
        report.artifacts.append(path)


def _piece_starts(sm, a):
    """Start radii of the pure pieces of exponent a, in order."""
    return [s.r_lo for s in sm.segments if s.kind == "piece" and s.p == a]


def _window_checks(cfg, report, table, a, S, tag, rows_csv):
    from .dimension import growth_constants
    from .orbits import GrowthWindow, check_distance_sandwich, growth_slope, sandwich_constants

    ok, rows = check_distance_sandwich(table.distance, a, S, n_samples=12)
    rows_csv.extend((r[0], r[1]) for r in rows)
    C1, C2 = sandwich_constants(a)
    report.add(f"{tag}-distance-sandwich", ok,
               details=f"C1={C1:.4g}, C2={C2:.4g}, S={S:.4g}")
    window = GrowthWindow.for_stretch(a, S)
    fit = growth_slope(table, window, samples=12)
    target = 1.0 + 2.0 * a
    report.add(f"{tag}-growth-slope", abs(fit.slope - target) <= 0.3, margin=fit.slope,
               details=f"expected {target} +- 0.3")
    # from the slope fit's counts; DegenerateRange, not a failed check, on a
    # window under a decade or a zero or infinite constant
    c1, c2 = growth_constants(target, (window.lo, window.hi), fit.samples)
    lo, hi = 2.0 * C2**-target, 2.0 * C1**-target
    report.add(f"{tag}-count-constants", lo <= c1 and c2 <= hi, margin=c2 / c1,
               details=f"c1={c1:.4g}, c2={c2:.4g} within [2 C2^-k, 2 C1^-k] = "
                       f"[{lo:.4g}, {hi:.4g}], k = {target:g}: C1 l^(1/k) <= d_l <= C2 l^(1/k)"
                       " gives about 2 (R/C2)^k <= #(R) <= 2 (R/C1)^k")
    _write_growth_csv(cfg, report, fit, f"growth_{tag}.csv")


def _write_growth_csv(cfg, report, fit, name):
    path = os.path.join(cfg.outdir, name)
    write_csv(
        path,
        ["R", "count", "logR", "logCount"],
        [(R, c, math.log10(R), math.log10(c)) for R, c in fit.samples],
    )
    report.artifacts.append(path)


def _run_capacity(cfg: RunConfig, report: RunReport, ladder, h, table):
    from .dimension import (
        box_dimension_fit,
        build_capacity_profile,
        check_capacity_sandwich,
        fit_growth_constants,
        hausdorff_content,
    )

    if ladder is not None:  # capacity always runs the pure alpha model
        table = _model_for(replace(cfg, beta=None))[2]
    s = table()
    k = 1.0 + 2.0 * cfg.alpha

    R_values = np.geomspace(6e3, 6e4, 5)
    ratios = np.geomspace(3.0, 300.0, 10)
    profile = build_capacity_profile(s, R_values, ratios)
    path = os.path.join(cfg.outdir, "capacity.csv")
    write_csv(path, ["R", "lambda", "cap"], profile.samples)
    report.artifacts.append(path)
    report.add("capacity-monotone", profile.check_monotone())

    lam_min = float(min(R / q for R in R_values for q in ratios))
    c1, c2 = fit_growth_constants(s, k, (lam_min / 3.0, float(max(R_values)) * 4.0 / 3.0))
    sand = check_capacity_sandwich(profile, k, c1, c2)
    report.add("capacity-sandwich", sand.ok, margin=c2 / c1,
               details=f"{sand.violations} violations of {len(sand.rows)}")
    slope = box_dimension_fit(profile)
    report.add("box-dimension", abs(slope - k) <= 0.2, margin=slope,
               details=f"expected {k} +- 0.2")
    fit_path = os.path.join(cfg.outdir, "capacity_fit.csv")
    resid = abs(slope - k)
    write_csv(fit_path, ["k_hat", "c1_hat", "c2_hat", "residual"], [(slope, c1, c2, resid)])
    report.artifacts.append(fit_path)

    R0 = float(R_values[len(R_values) // 2])
    upper = 3.0 ** (k + 1) * c2 / c1 * R0**k
    lower = c1**2 / (3.0 ** (k + 1) * c2**2) * R0**k
    ok = True
    for delta in (R0 / 10, R0 / 30, R0 / 100, R0 / 300):
        content = hausdorff_content(s, k, R0, delta)
        ok = ok and (lower <= content <= upper)
    report.add("content-bounds", ok, details=f"R={R0:g}, four covering scales")


def _run_grushin(cfg: RunConfig, report: RunReport, ladder, h, table):
    from .grushin import (
        GrushinMetric,
        convergence_report,
        probe_pairs,
        regime_lambda_range,
        self_similarity_error,
    )

    try:
        target = GrushinMetric(cfg.alpha, cfg.quad_rel_tol)
    except ValueError as e:  # no Grushin target for decay exponents below 1/2
        report.add("grushin-unavailable", True, flagged=True, details=str(e))
        return
    exponent = cfg.alpha
    if ladder is None:
        stretch = (0.0, math.inf)
        lambdas = cfg.lambda_ladder
    else:
        stretch = (0.0, 0.8 * cfg.R11)
        lam_lo, lam_hi = regime_lambda_range(stretch)
        usable = [x for x in cfg.lambda_ladder if lam_lo <= x <= lam_hi]
        if len(set(usable)) >= 3:
            lambdas = usable
        else:
            lambdas = list(np.geomspace(max(lam_lo, 2.0), lam_hi, 3))
            report.add("rescaling-ladder-refit", True, flagged=True,
                       details=f"configured factors outside [{lam_lo:g}, {lam_hi:g}]")
    rep = convergence_report(h, exponent, stretch, lambdas, n_pairs=cfg.probe_pairs,
                             seed=cfg.seed, rel_tol=cfg.quad_rel_tol)
    path = os.path.join(cfg.outdir, "grushin_convergence.csv")
    write_csv(path, ["lambda", "max_rel_err"], list(zip(rep.lambdas, rep.max_rel_errors)))
    report.artifacts.append(path)
    # one comparison per factor and probe pair
    compared = len(rep.lambdas) * cfg.probe_pairs
    report.add("rescaling-error-final", rep.final_error() < 0.05, margin=rep.final_error(),
               details=f"{len(rep.excluded)} of {compared} pairs excluded")
    report.add("rescaling-trend", rep.trend_decreasing,
               details=f"errors {['%.2e' % e for e in rep.max_rel_errors]}")

    pairs = probe_pairs(random.Random(cfg.seed + 1), 10)
    err, excluded = self_similarity_error(target, pairs)
    # err is NaN, and the check fails, when every pair is excluded
    report.add("cone-self-similarity", err < 0.01, margin=err,
               details=f"{len(excluded)} of {len(pairs)} pairs excluded")
