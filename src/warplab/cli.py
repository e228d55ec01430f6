"""Command-line front door: one subcommand per run mode.

Flags override config-file keys.  The orbit cache lives in --cache-dir,
else the config's cache_dir key, else WARPLAB_CACHE_DIR, else
~/.cache/warplab.  Exit status is nonzero iff any non-flagged check fails; it is 2
for a config error or a schedule whose ladder cannot be built.
"""

import argparse
import sys

from .config import MODES, ConfigError, LadderGrowthError, parse_config
from .harness import run


def _common_flags():
    """The flags every mode takes, on one parser that each mode's parser
    copies through parents=."""
    sp = argparse.ArgumentParser(add_help=False)
    sp.add_argument("--config", help="JSON config file; flags override its keys")
    sp.add_argument("--alpha", type=float, help="decay exponent of the base model (default 0.5)")
    sp.add_argument("--beta", type=float, help="second decay exponent (oscillating models)")
    sp.add_argument("--A", dest="A", type=float, help="shallow bridge exponent, A < alpha")
    sp.add_argument("--B", dest="B", type=float, help="steep bridge exponent, B > beta")
    sp.add_argument("--R11", type=float, help="first junction radius (default 100)")
    sp.add_argument("--periods", type=int, help="oscillation periods to build (default 2)")
    sp.add_argument("--k", type=int, help="sphere dimension for curvature checks")
    sp.add_argument("--k-max", dest="k_max", type=int, help="certification search cap")
    sp.add_argument("--r-min", dest="r_min", type=float, help="grid start radius (default 1e-3)")
    sp.add_argument("--r-max", dest="r_max", type=float, help="grid end radius (default 1e6)")
    sp.add_argument("--grid-points", dest="grid_points", type=int,
                    help="log-grid sample count (default 4000)")
    sp.add_argument("--seed", type=int, help="probe sampling seed (default 12345)")
    sp.add_argument("--outdir", help="output directory (default runs/)")
    sp.add_argument("--cache-dir", dest="cache_dir",
                    help="orbit cache directory (default WARPLAB_CACHE_DIR or ~/.cache/warplab)")
    sp.add_argument("--radius-bound", dest="radius_bound", type=float,
                    help="ladder truncation bound (default 1e300)")
    sp.add_argument("--emit-config", dest="emit_config",
                    help="write the resolved config to this path and continue")
    return sp


def build_parser():
    ap = argparse.ArgumentParser(
        prog="warplab",
        description="Numerical laboratory for doubly warped product metrics: "
        "curvature certification, orbit growth, capacity dimension, Grushin limits.",
    )
    sub = ap.add_subparsers(dest="mode", required=True)
    descr = {
        "ricci-check": "evaluate Ricci curvature on a log grid and cross-check the oracle",
        "build-example": "build the oscillating warping, verify and certify it",
        "orbit-growth": "tabulate deck-orbit distances, counts and growth slopes",
        "capacity": "capacity profile, sandwich checks, box-dimension fit",
        "grushin-compare": "rescaling convergence toward the Grushin halfplane",
        "full-suite": "all of the above with the configured model",
    }
    common = [_common_flags()]
    for mode in MODES:
        sub.add_parser(mode, help=descr[mode], parents=common)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # every parsed dest but the two file options is a config key; parse_config drops None
    overrides = {k: v for k, v in vars(args).items() if k not in ("config", "emit_config")}
    try:
        cfg = parse_config(args.config, overrides)
        if args.emit_config:
            cfg.to_file(args.emit_config)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        report = run(cfg)
    except LadderGrowthError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    for c in report.checks:
        mark = {"pass": "PASS", "fail": "FAIL", "flagged": "FLAG"}[c.status]
        extra = f" margin={c.margin:.6g}" if c.margin == c.margin else ""
        detail = f" ({c.details})" if c.details else ""
        print(f"[{mark}] {c.name}{extra}{detail}")
    print(f"report: {report.artifacts[-1] if report.artifacts else '-'}")
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
