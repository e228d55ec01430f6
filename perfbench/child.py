"""One warplab run in its own process; run.py starts it and times it.

    python3 perfbench/child.py SPEC.json

SPEC gives the warplab source directory, either the CLI arguments or the
oracle inputs, whether to stop once set-up is done ("kind": "setup"),
whether to trace, and the result path.  The result file gets the moment set-up ended (the
process is about to make its first harness step or first layer call), the
peak resident set, the library versions and, when traced, the spans and
counters.  The exit status is the CLI's own.
"""

import json
import math
import os
import resource
import sys
import time

TWO_PI = 2.0 * math.pi
ORACLE_K = 8
GRID_NR = 160
GRID_R_HI_FACTOR = 2.2
GRID_REL_TOL = 0.02


class SetupDone(Exception):
    """Raised at the end of set-up by a run that measures only set-up."""


def _versions():
    import mpmath
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def run_cli(argv, marks, setup_only):
    """warplab's own CLI entry point, marked where it hands the parsed config
    to the harness."""
    import warplab.cli as cli

    harness_run = cli.run

    def marked_run(cfg):
        marks["setup"] = time.monotonic()
        if setup_only:
            raise SetupDone
        return harness_run(cfg)

    cli.run = marked_run
    return cli.main(argv)


def run_oracles(spec, marks, setup_only):
    """Clairaut distances against the grid oracle and closed-form Ricci
    against the Christoffel oracle, on the pure model; writes report.json
    and two CSVs into the output directory like the CLI does."""
    from warplab import christoffel, curvature, gridpath, halfplane
    from warplab.config import parse_config
    from warplab.harness import write_csv
    from warplab.warping import power_decay_h, standard_f

    cfg = parse_config(overrides={"mode": "ricci-check", "alpha": 0.5, "seed": spec["seed"],
                                  "outdir": spec["outdir"]})
    hm = halfplane.HalfplaneMetric.from_warping(power_decay_h(cfg.alpha))
    dm = curvature.DoublyWarpedMetric(ORACLE_K, standard_f(), power_decay_h(cfg.alpha))
    marks["setup"] = time.monotonic()
    if setup_only:
        raise SetupDone

    checks, dist_rows, ricci_rows = [], [], []
    for l in spec["indices"]:
        d_arc, sol = halfplane.orbit_distance(hm, l)
        res = gridpath.dijkstra_distance_oracle(
            hm, (0.0, 0.0), (0.0, TWO_PI * l), r_hi=GRID_R_HI_FACTOR * sol.r_max, nr=GRID_NR)
        rel = abs(d_arc - res.relaxed) / res.relaxed
        checks.append((f"grid-oracle(l={l})", rel <= GRID_REL_TOL, rel))
        dist_rows.append((l, d_arc, res.relaxed, res.refined))
    for r in spec["radii"]:
        c = curvature.ricci_report(dm, r)
        try:
            o = christoffel.ricci_numeric_oracle(dm, r)
        except christoffel.StepTooLarge:
            checks.append((f"ricci-oracle(r={r!r})", False, math.nan))
            continue
        pairs = ((o.ric_radial, c.ric_radial), (o.ric_circle, c.ric_circle),
                 (o.ric_sphere, c.ric_sphere))
        err = max(abs(a - b) / (1.0 + abs(b)) for a, b in pairs)
        checks.append((f"ricci-oracle(r={r!r})", err <= cfg.oracle_rel_tol, err))
        ricci_rows.append((r, *(a for a, _ in pairs), *(b for _, b in pairs)))

    os.makedirs(cfg.outdir, exist_ok=True)
    artifacts = [os.path.join(cfg.outdir, "oracle_distances.csv"),
                 os.path.join(cfg.outdir, "oracle_ricci.csv")]
    write_csv(artifacts[0], ["l", "d_clairaut", "d_grid_relaxed", "d_grid_refined"], dist_rows)
    write_csv(artifacts[1], ["r", "oracle_radial", "oracle_circle", "oracle_sphere",
                              "closed_radial", "closed_circle", "closed_sphere"], ricci_rows)
    report = {
        "checks": [{"name": n, "status": "pass" if ok else "fail", "margin": margin}
                   for n, ok, margin in checks],
        "artifacts": artifacts,
    }
    with open(os.path.join(cfg.outdir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2)
    return 0 if all(ok for _, ok, _ in checks) else 1


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import warplab  # noqa: F401  (set-up cost: imported before any probe)

    tracer = None
    if spec["trace"]:
        from spans import Tracer, install

        tracer = Tracer(spec["run_id"])
        install(tracer)

    marks = {}
    setup_only = spec["kind"] == "setup"
    try:
        if spec.get("oracles"):
            rc = run_oracles(spec, marks, setup_only)
        else:
            rc = run_cli(spec["argv"], marks, setup_only)
    except SetupDone:
        rc = 0
    result = {
        "setup_mark": marks.get("setup"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
        "trace": tracer.to_json() if tracer else None,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
