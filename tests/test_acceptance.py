"""Acceptance criteria, one test per criterion, one printed verdict line each.

Tolerances are pinned here and nowhere else; every expected value is either
exact, derived from an independent oracle, or a stated finite-window bound.
Run `pytest tests/test_acceptance.py -v -s` to watch the verdict lines.
"""

import math

import numpy as np
import pytest

from warplab.christoffel import ricci_numeric_oracle
from warplab.config import parse_config
from warplab.curvature import DoublyWarpedMetric, log_grid, ricci_grid, ricci_report
from warplab.dimension import (
    LinearOrbitMetric,
    box_dimension_fit,
    build_capacity_profile,
    capacity,
    check_capacity_sandwich,
    fit_growth_constants,
    hausdorff_content,
)
from warplab.gridpath import dijkstra_distance_oracle
from warplab.grushin import GrushinMetric, convergence_report, probe_pairs, self_similarity_error
from warplab.halfplane import TWO_PI, orbit_distance
from warplab.harness import _model_for
from warplab.orbits import (
    GrowthWindow,
    OrbitTable,
    check_distance_sandwich,
    growth_slope,
)
from warplab.smoothing import (
    certification_grid,
    certify_positive_ricci,
    construction_invariants,
    dimension_threshold,
    effective_exponent_max,
)
from warplab.warping import constant_h, power_decay_h, sine_f, standard_f

from .oracles import capacity_exhaustive, capacity_sweep


def verdict(num, name, ok, details=""):
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}"
    if details:
        line += f"  [{details}]"
    print(line)
    return ok


def test_criterion_1_ricci_positivity_and_oracle():
    # pure model alpha=1/2 at k=8: positive in all three directions on a
    # 4000-point log grid over [1e-3, 1e6]; closed forms match the
    # divided-difference oracle within 1e-5 (1 + |value|) on sampled radii
    # (the documented oracle tolerance; bare relative error is meaningless
    # against its absolute floor once values decay below it)
    m = DoublyWarpedMetric(8, standard_f(), power_decay_h(0.5))
    grid = log_grid(1e-3, 1e6, 4000)
    _, ok_pos, worst = ricci_grid(m, grid)

    rng = np.random.default_rng(101)
    worst_rel = 0.0
    for r in np.exp(rng.uniform(math.log(0.2), math.log(1e6), 16)):
        o = ricci_numeric_oracle(m, float(r))
        c = ricci_report(m, float(r))
        for a, b in ((o.ric_radial, c.ric_radial), (o.ric_circle, c.ric_circle),
                     (o.ric_sphere, c.ric_sphere)):
            worst_rel = max(worst_rel, abs(a - b) / (1.0 + abs(b)))
    ok = ok_pos and worst_rel <= 1e-5
    assert verdict(1, "ricci positivity + oracle agreement", ok,
                   f"min ricci {worst.min_value:.3e}, oracle err {worst_rel:.2e}")


def test_criterion_2_round_sphere_calibration():
    m = DoublyWarpedMetric(2, sine_f(), constant_h())
    rep = ricci_numeric_oracle(m, math.pi / 2)
    ok = abs(rep.ric_radial - 2.0) <= 1e-5 and abs(rep.ric_sphere - 2.0) <= 1e-5
    assert verdict(2, "round-sphere oracle calibration", ok,
                   f"radial {rep.ric_radial:.8f}, sphere {rep.ric_sphere:.8f}")


def test_criterion_3_distance_power_bounds(pure_half_metric):
    # alpha = 1/2: for l in [81, 1e5], (2/9) sqrt(l) - 2 <= d_l <= 9 sqrt(l)
    ls = np.unique(np.round(np.exp(np.linspace(math.log(81), math.log(1e5), 40))).astype(int))
    ok = True
    worst = math.inf
    for l in ls:
        d, _ = orbit_distance(pure_half_metric, int(l))
        lo = (2.0 / 9.0) * math.sqrt(l) - 2.0
        hi = 9.0 * math.sqrt(l)
        ok = ok and (lo <= d <= hi)
        worst = min(worst, hi - d, d - lo)
    assert verdict(3, "orbit-distance sandwich (40 indices)", ok,
                   f"worst margin {worst:.3g}")


def test_criterion_4_grid_oracle_agreement(pure_half_metric):
    # Clairaut distance vs the grid shortest-path oracle within 2%.  The
    # oracle protocol: two resolutions, Richardson refinement, then descent
    # of the extracted path, which removes the 8-direction anisotropy the
    # raw grid value is known to carry (reported alongside).
    ok = True
    details = []
    for l in (3, 10, 30):
        d_arc, sol = orbit_distance(pure_half_metric, l)
        res = dijkstra_distance_oracle(
            pure_half_metric, (0.0, 0.0), (0.0, TWO_PI * l), r_hi=2.2 * sol.r_max, nr=160
        )
        rel = abs(d_arc - res.relaxed) / res.relaxed
        ok = ok and rel <= 0.02
        details.append(f"l={l}: {rel:.2%}")
    assert verdict(4, "clairaut vs grid oracle (2%)", ok, ", ".join(details))


@pytest.fixture(scope="module")
def osc_windows(osc_build, osc_metric):
    ladder, _ = osc_build
    S_alpha = 2.0 * float(ladder.junctions[3])  # R14, where period-2 alpha starts
    S_beta = 2.0 * float(ladder.junctions[1])  # R12, where the first beta starts
    return S_alpha, S_beta


def test_criterion_5_varying_growth_slopes(osc_metric, osc_windows):
    # two periods of the standard oscillating model: fitted growth order
    # 2.2 +- 0.3 in the window at the period-2 opening scale (the first
    # scale where the ladder relation R_{i,1} = 5 R_{i,0}^2 holds) and
    # 3.4 +- 0.3 at the period-1 middle-stretch scale; fitted count
    # constants stay finite
    S_alpha, S_beta = osc_windows
    s = OrbitTable(osc_metric)
    ok = True
    det = []
    for a, S, target in ((0.6, S_alpha, 2.2), (1.2, S_beta, 3.4)):
        w = GrowthWindow.for_stretch(a, S)
        fit = growth_slope(s, w, samples=12)
        c1, c2 = fit_growth_constants(s, target, (w.lo, w.hi), samples=10)
        good = abs(fit.slope - target) <= 0.3 and math.isfinite(c2 / c1) and c1 > 0
        ok = ok and good
        det.append(f"slope {fit.slope:.3f} (target {target}), c2/c1 {c2 / c1:.3f}")
    assert verdict(5, "varying growth order (two windows)", ok, "; ".join(det))


def test_criterion_6_window_distance_bounds(osc_metric, osc_windows):
    # inside each window's index range [rho1 S^(2a+1), rho2 S^(4a+2)] the
    # tabulated distances obey C1 l^(1/(2a+1)) <= d_l <= C2 l^(1/(2a+1))
    # with the closed-form window constants
    S_alpha, S_beta = osc_windows
    table = OrbitTable(osc_metric)
    ok = True
    det = []
    for a, S in ((0.6, S_alpha), (1.2, S_beta)):
        good, rows = check_distance_sandwich(table.distance, a, S, n_samples=12)
        ok = ok and good
        margin = min(min(r[3] - r[1], r[1] - r[2]) / r[1] for r in rows)
        det.append(f"a={a}: 12 indices, margin {margin:.2%}")
    assert verdict(6, "window distance power bounds", ok, "; ".join(det))


@pytest.fixture(scope="module")
def capacity_table(tmp_path_factory):
    """The orbit table the pure 1/2 `capacity` step counts on, built by the
    harness, with its cache in a fresh directory."""
    cfg = parse_config(None, {"mode": "capacity", "alpha": 0.5,
                              "cache_dir": str(tmp_path_factory.mktemp("cache"))})
    return _model_for(cfg)[2]()


def test_criterion_7_capacity_sandwich_and_box_fit(capacity_table):
    s = capacity_table
    k = 2.0
    R_values = np.geomspace(6e3, 6e4, 5)
    ratios = np.geomspace(3.0, 300.0, 10)  # two decades of R/lambda
    profile = build_capacity_profile(s, R_values, ratios)
    lam_min = min(R / q for R in R_values for q in ratios)
    c1, c2 = fit_growth_constants(s, k, (lam_min / 3.0, float(max(R_values)) * 4.0 / 3.0))
    sand = check_capacity_sandwich(profile, k, c1, c2)
    slope = box_dimension_fit(profile)

    # sweep capacity == exhaustive maximum on small balls across randomized
    # monotone-subadditive tables
    rng = np.random.default_rng(77)
    agree = True
    trials = 0
    while trials < 100:
        gaps = np.sort(rng.uniform(0.1, 1.0, 40))[::-1]
        d = np.concatenate([[0.0], np.cumsum(gaps)])
        t = LinearOrbitMetric(d)
        R = float(rng.uniform(d[6], d[12]))
        lam = float(rng.uniform(d[1] * 0.5, R * 0.9))
        if not (0 < lam < R):
            continue
        trials += 1
        agree = agree and (
            capacity(t, R, lam) == capacity_sweep(t, R, lam) == capacity_exhaustive(t, R, lam)
        )
    ok = sand.ok and abs(slope - k) <= 0.2 and agree and len(profile.samples) == 50
    assert verdict(7, "capacity sandwich + box fit + sweep exactness", ok,
                   f"{sand.violations} violations, box {slope:.3f}, sweep exact {agree}")


def test_criterion_8_content_bounds(capacity_table):
    s = capacity_table
    k = 2.0
    R = 2e4
    c1, c2 = fit_growth_constants(s, k, (20.0, R * 4.0 / 3.0))
    upper = 3.0 ** (k + 1) * c2 / c1 * R**k
    lower = c1**2 / (3.0 ** (k + 1) * c2**2) * R**k
    ok = True
    vals = []
    for delta in (R / 10, R / 30, R / 100, R / 300):
        content = hausdorff_content(s, k, R, delta)
        ok = ok and (lower <= content <= upper)
        vals.append(content / R**k)
    assert verdict(8, "covering content bounds (4 scales)", ok,
                   f"content/R^k in [{min(vals):.3g}, {max(vals):.3g}]")


def test_criterion_9_grushin_convergence():
    h = power_decay_h(0.5)
    rep = convergence_report(h, 0.5, (0.0, math.inf), [1e2, 1e3, 1e4], n_pairs=20, seed=2)
    rng = np.random.default_rng(8)
    sim_err, _ = self_similarity_error(GrushinMetric(0.5), probe_pairs(rng, 10))
    ok = rep.trend_decreasing and rep.final_error() < 0.05 and sim_err < 0.01
    assert verdict(9, "rescaling convergence + cone self-similarity", ok,
                   f"errors {['%.1e' % e for e in rep.max_rel_errors]}, self-sim {sim_err:.1e}")


def test_criterion_10_construction_invariants(osc_build):
    ladder, sm = osc_build
    inv = construction_invariants(sm)
    mism, mono, obs_ok = max(inv.junction_gaps), inv.monotone, inv.blends_ok

    cgrid, labels = certification_grid(sm)
    cap = int(4 * dimension_threshold(effective_exponent_max(sm, cgrid)))
    try:
        cert = certify_positive_ricci(sm, standard_f(), cap, cgrid, labels)
        k_ok, k_found = True, cert.k
    except Exception:
        k_ok, k_found = False, None

    ok = mism <= 1e-10 and mono and obs_ok and k_ok
    assert verdict(10, "construction invariants + certification", ok,
                   f"junction {mism:.1e}, monotone {mono}, blends {obs_ok}, k={k_found}<={cap}")
