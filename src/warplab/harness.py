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
live only in the JSON report.
"""

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import curvature as curv
from .cache import OrbitCache
from .christoffel import StepTooLarge, ricci_numeric_oracle
from .config import RunConfig
from .construction_io import save_construction
from .dimension import (
    LinearOrbitMetric,
    box_dimension_fit,
    build_capacity_profile,
    check_capacity_sandwich,
    fit_growth_constants,
    hausdorff_content,
)
from .grushin import convergence_report, probe_pairs, self_similarity_error, GrushinMetric
from .halfplane import HalfplaneMetric, QuadSettings, orbit_distance
from .ladder import OscillationParams
from .orbits import (
    GrowthWindow,
    OrbitTable,
    check_distance_sandwich,
    fit_count_constants,
    growth_slope,
    sandwich_constants,
)
from .smoothing import (
    build_oscillating_h,
    certification_grid,
    certify_positive_ricci,
    construction_invariants,
    dimension_threshold,
    effective_exponent_max,
    pure_model_h,
    NotCertified,
)
from .warping import standard_f


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
            fh.write(",".join(repr(x) if isinstance(x, float) else str(x) for x in row) + "\n")


def _model_for(cfg: RunConfig):
    """(smoothed h, ladder or None) for the configured model."""
    if cfg.beta is not None:
        p = OscillationParams(cfg.alpha, cfg.beta, cfg.A, cfg.B, cfg.R11, cfg.periods)
        ladder, hp, sm = build_oscillating_h(p, radius_bound=cfg.radius_bound, check=False)
        return sm, ladder, p
    return pure_model_h(cfg.alpha), None, None


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
    for step in steps:
        t0 = time.time()
        step(cfg, report)
        report.timings[step.__name__] = time.time() - t0
    report.timings["total"] = time.time() - t_start
    path = os.path.join(cfg.outdir, "report.json")
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    report.artifacts.append(path)
    return report


def _run_ricci_check(cfg: RunConfig, report: RunReport):
    sm, ladder, params = _model_for(cfg)
    k = cfg.k or report.certified_k or 8
    f = standard_f()
    m = curv.DoublyWarpedMetric(k, f, sm.as_warping())
    grid = curv.log_grid(cfg.r_min, cfg.r_max, cfg.grid_points)
    # ricci_report's bits at every radius, from one f and one h frame
    rows = list(zip(grid.tolist(), *(c.tolist() for c in curv.ricci_components(m, grid))))
    ok, worst = curv.ricci_positive_on_grid(m, grid)
    path = os.path.join(cfg.outdir, "ricci_curve.csv")
    write_csv(path, ["r", "ric_radial", "ric_circle", "ric_sphere"], rows)
    report.artifacts.append(path)
    report.add(f"ricci-positive(k={k})", ok, margin=worst.min_value)

    # oracle cost grows like (k+2)^4, and the closed forms are affine in k,
    # so the cross-check of the formulas runs at a small sphere dimension
    k_oracle = min(k, 9)
    mo = curv.DoublyWarpedMetric(k_oracle, f, sm.as_warping())
    rng = np.random.default_rng(cfg.seed)
    sample = np.exp(rng.uniform(math.log(0.2), math.log(min(cfg.r_max, 1e6)), 16))
    worst_rel = 0.0
    refused = []  # radii where the oracle's step check refused an answer
    for r in sample:
        try:
            o = ricci_numeric_oracle(mo, float(r))
        except StepTooLarge:
            refused.append(float(r))
            continue
        c = curv.ricci_report(mo, float(r))
        for a, b in ((o.ric_radial, c.ric_radial), (o.ric_circle, c.ric_circle),
                     (o.ric_sphere, c.ric_sphere)):
            worst_rel = max(worst_rel, abs(a - b) / (1.0 + abs(b)))
    details = f"max rel err over {len(sample) - len(refused)} radii at k={k_oracle}"
    if refused:
        details += "; oracle refused (StepTooLarge) at r=" + ", ".join(map(repr, refused))
    report.add("ricci-oracle-agreement", not refused and worst_rel <= cfg.oracle_rel_tol,
               margin=worst_rel, details=details)


def _run_build_example(cfg: RunConfig, report: RunReport):
    p = OscillationParams(cfg.alpha, cfg.beta, cfg.A, cfg.B, cfg.R11, cfg.periods)
    ladder, hp, sm = build_oscillating_h(p, radius_bound=cfg.radius_bound, check=True)
    inv = construction_invariants(hp, sm, cfg.r_min)
    gaps = inv.junction_gaps
    report.add("junction-continuity", max(gaps) <= 1e-10, margin=max(gaps),
               details=f"{len(gaps)} junctions")
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
    save_construction(path, p, ladder, sm)
    report.artifacts.append(path)


def _pure_cache(cfg: RunConfig):
    """Orbit cache of the pure alpha model, keyed by the config with beta, A
    and B cleared: a pure config's own key, never an oscillating model's."""
    payload = {**cfg.model_payload(), "beta": None, "A": None, "B": None}
    return OrbitCache.for_model(payload, cfg.cache_dir)


def _run_orbit_growth(cfg: RunConfig, report: RunReport):
    sm, ladder, params = _model_for(cfg)
    metric = HalfplaneMetric.from_smoothed(sm)
    st = QuadSettings(rel_tol=cfg.quad_rel_tol)

    if ladder is None:
        # pure model: distance sandwich on the asymptotic stretch plus a slope fit
        table = OrbitTable(metric, cache=_pure_cache(cfg), settings=st)
        a = cfg.alpha
        ls = np.unique(np.round(np.exp(np.linspace(math.log(81), math.log(1e5), 40))).astype(int))
        e = 1.0 / (1.0 + 2.0 * a)
        C_low = 2.0 * 9.0 ** (-1.0 / (2.0 * a))
        rows = []
        ok = True
        for l in ls:
            d = table.distance(int(l))
            lo = C_low * l**e - 2.0
            hi = 9.0 * l**e
            good = lo <= d <= hi
            ok = ok and good
            rows.append((int(l), d))
        path = os.path.join(cfg.outdir, "orbit_distances.csv")
        write_csv(path, ["l", "d_l"], rows)
        report.artifacts.append(path)
        report.add("distance-power-bounds", ok, details=f"{len(ls)} indices in [81, 1e5]")

        window = GrowthWindow(1e2, 1e4, a, float("nan"))
        fit = growth_slope(metric, window, samples=14, settings=st)
        target = 1.0 + 2.0 * a
        report.add("growth-slope", abs(fit.slope - target) <= 0.15, margin=fit.slope,
                   details=f"expected {target} +- 0.15")
        _write_growth_csv(cfg, report, fit, "growth_curve.csv")
        return

    # oscillating model: a window at each controlling stretch, S = twice
    # the start of the period-2 alpha piece and of the first beta piece
    rows_csv = []
    alpha_starts = _piece_starts(sm, cfg.alpha)
    if cfg.periods >= 2 and len(alpha_starts) >= 2:
        S_a = 2.0 * float(alpha_starts[1])
        _window_checks(cfg, report, metric, st, cfg.alpha, S_a, "alpha-window", rows_csv)
    elif cfg.periods >= 2:
        report.add("alpha-window-unavailable", True, flagged=True,
                   details=f"no period-2 alpha piece below radius bound {cfg.radius_bound:g}")
    beta_starts = _piece_starts(sm, cfg.beta)
    if beta_starts:
        S_b = 2.0 * float(beta_starts[0])
        _window_checks(cfg, report, metric, st, cfg.beta, S_b, "beta-window", rows_csv)
    else:
        report.add("beta-window-unavailable", True, flagged=True,
                   details=f"no beta piece below radius bound {cfg.radius_bound:g}")
    if rows_csv:
        path = os.path.join(cfg.outdir, "orbit_distances.csv")
        write_csv(path, ["l", "d_l"], rows_csv)
        report.artifacts.append(path)


def _piece_starts(sm, a):
    """Start radii of the pure pieces of exponent a, in order."""
    return [s.r_lo for s in sm.base.segments if s.kind == "piece" and s.p == a]


def _window_checks(cfg, report, metric, st, a, S, tag, rows_csv):
    ok, rows = check_distance_sandwich(metric, a, S, n_samples=12, settings=st)
    rows_csv.extend((r[0], r[1]) for r in rows)
    C1, C2 = sandwich_constants(a)
    report.add(f"{tag}-distance-sandwich", ok,
               details=f"C1={C1:.4g}, C2={C2:.4g}, S={S:.4g}")
    window = GrowthWindow.for_stretch(a, S)
    fit = growth_slope(metric, window, samples=12, settings=st)
    target = 1.0 + 2.0 * a
    report.add(f"{tag}-growth-slope", abs(fit.slope - target) <= 0.3, margin=fit.slope,
               details=f"expected {target} +- 0.3")
    c1, c2 = fit_count_constants(metric, target, window.lo, window.hi, samples=12,
                                 settings=st)
    report.add(f"{tag}-count-constants", math.isfinite(c2 / c1) and c1 > 0,
               margin=c2 / c1, details=f"c1={c1:.4g}, c2={c2:.4g}")
    _write_growth_csv(cfg, report, fit, f"growth_{tag}.csv")


def _write_growth_csv(cfg, report, fit, name):
    path = os.path.join(cfg.outdir, name)
    write_csv(
        path,
        ["R", "count", "logR", "logCount"],
        [(R, c, math.log10(R), math.log10(c)) for R, c in fit.samples],
    )
    report.artifacts.append(path)


def _run_capacity(cfg: RunConfig, report: RunReport):
    # capacity always runs the pure alpha model
    metric = HalfplaneMetric.from_smoothed(pure_model_h(cfg.alpha))
    table = OrbitTable(metric, cache=_pure_cache(cfg),
                       settings=QuadSettings(rel_tol=cfg.quad_rel_tol))
    s = LinearOrbitMetric(lambda l: table.distance(l), scale=1.0)
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
    profile.k_hat, profile.c1_hat, profile.c2_hat = k, c1, c2
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
        est = hausdorff_content(s, k, R0, delta)
        ok = ok and (lower <= est.content <= upper)
    report.add("content-bounds", ok, details=f"R={R0:g}, four covering scales")


def _run_grushin(cfg: RunConfig, report: RunReport):
    try:
        target = GrushinMetric(cfg.alpha)
    except ValueError as e:  # no Grushin target for decay exponents below 1/2
        report.add("grushin-unavailable", True, flagged=True, details=str(e))
        return
    sm, ladder, params = _model_for(cfg)
    if ladder is None:
        stretch = (0.0, math.inf)
        exponent = cfg.alpha
        lambdas = cfg.lambda_ladder
    else:
        stretch = (0.0, 0.8 * cfg.R11)
        exponent = cfg.alpha
        from .grushin import regime_lambda_range

        lam_lo, lam_hi = regime_lambda_range(stretch)
        usable = [x for x in cfg.lambda_ladder if lam_lo <= x <= lam_hi]
        if len(usable) >= 3:
            lambdas = usable
        else:
            lambdas = list(np.geomspace(max(lam_lo, 2.0), lam_hi, 3))
            report.add("rescaling-ladder-refit", True, flagged=True,
                       details=f"configured factors outside [{lam_lo:g}, {lam_hi:g}]")
    st = QuadSettings(rel_tol=cfg.quad_rel_tol)
    rep = convergence_report(sm, exponent, stretch, lambdas,
                             n_pairs=cfg.probe_pairs, seed=cfg.seed, tol_settings=st)
    path = os.path.join(cfg.outdir, "grushin_convergence.csv")
    write_csv(path, ["lambda", "max_rel_err"], list(zip(rep.lambdas, rep.max_rel_errors)))
    report.artifacts.append(path)
    report.add("rescaling-error-final", rep.final_error() < 0.05, margin=rep.final_error())
    report.add("rescaling-trend", rep.trend_decreasing,
               details=f"errors {['%.2e' % e for e in rep.max_rel_errors]}")

    rng = np.random.default_rng(cfg.seed + 1)
    pairs = probe_pairs(rng, 10)
    err = self_similarity_error(target, pairs, settings=st)
    report.add("cone-self-similarity", err < 0.01, margin=err)
