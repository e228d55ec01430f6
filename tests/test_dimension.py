import math

import numpy as np
import pytest

from warplab.dimension import (
    DegenerateRange,
    LinearOrbitMetric,
    MetricInvariantViolation,
    box_dimension_fit,
    build_capacity_profile,
    capacity,
    capacity_exhaustive,
    capacity_sweep,
    check_capacity_sandwich,
    counting_chain_holds,
    fit_growth_constants,
    hausdorff_content,
)

UNIT = LinearOrbitMetric(np.arange(0, 400, dtype=float))


def random_monotone_subadditive(rng, n):
    """d_l = partial sums of nonincreasing positive gaps: monotone and
    subadditive by construction."""
    gaps = np.sort(rng.uniform(0.1, 1.0, n))[::-1]
    return np.concatenate([[0.0], np.cumsum(gaps)])


def test_unit_spacing_calibrations():
    assert capacity(UNIT, 10.0, 1.0) == 21
    assert capacity(UNIT, 10.0, 2.5) == 7
    assert capacity_sweep(UNIT, 10.0, 2.5) == 7
    assert capacity_exhaustive(UNIT, 10.0, 2.5) == 7


def test_capacity_argument_validation():
    with pytest.raises(ValueError):
        capacity(UNIT, 5.0, 5.0)
    with pytest.raises(ValueError):
        capacity(UNIT, 5.0, -1.0)


def test_sweep_equals_exhaustive_randomized():
    # 100 randomized monotone-subadditive tables, balls of <= 25 points:
    # stride formula == literal sweep == exhaustive maximum
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(100):
        d = random_monotone_subadditive(rng, 40)
        s = LinearOrbitMetric(d)
        R = float(rng.uniform(d[6], d[12]))  # ball of at most 25 points
        lam = float(rng.uniform(d[1] * 0.5, R * 0.9))
        if not 0 < lam < R:
            continue
        a = capacity(s, R, lam)
        b = capacity_sweep(s, R, lam)
        c = capacity_exhaustive(s, R, lam)
        assert a == b == c, (d[:8], R, lam, a, b, c)
        checked += 1
    assert checked >= 95


def test_invariant_checker_negative_control():
    d = np.arange(0, 50, dtype=float)
    d[20] = d[21] + 0.5  # break monotonicity
    with pytest.raises(MetricInvariantViolation):
        LinearOrbitMetric(d)
    with pytest.raises(MetricInvariantViolation):
        LinearOrbitMetric(np.concatenate([[1.0], np.arange(1, 30.0)]))  # d_0 != 0
    # subadditivity violation: convex growth
    d = np.concatenate([[0.0], np.cumsum(np.linspace(0.1, 5.0, 40))])
    with pytest.raises(MetricInvariantViolation):
        LinearOrbitMetric(d)


def test_scaled_metric():
    s = LinearOrbitMetric(np.arange(0, 100, dtype=float), scale=10.0)
    assert s.dist(30) == 3.0
    assert s.ball_index(2.0) == 20
    assert capacity(s, 1.0, 0.25) == pytest.approx(2 * 10 // 3 + 1)


def test_fit_growth_constants_unit():
    c1, c2 = fit_growth_constants(UNIT, 1.0, (1.0, 100.0))
    assert 1.0 <= c1 <= c2 <= 3.0
    with pytest.raises(DegenerateRange):
        fit_growth_constants(UNIT, 1.0, (10.0, 50.0))


def test_misfit_exponent_flagged_by_ratio():
    c1, c2 = fit_growth_constants(UNIT, 5.0, (1.0, 300.0))
    assert c2 / c1 > 1e6  # wildly wrong exponent explodes the ratio


def test_sandwich_unit_metric():
    c1, c2 = fit_growth_constants(UNIT, 1.0, (0.3, 150.0))
    prof = build_capacity_profile(UNIT, [30, 80, 150], [3, 6, 12, 25, 50])
    rep = check_capacity_sandwich(prof, 1.0, c1, c2)
    assert rep.ok
    # deliberately wrong exponent on the same data must violate
    bad = check_capacity_sandwich(prof, 2.5, c1, c2)
    assert bad.violations > 0


def test_profile_monotone_structure():
    prof = build_capacity_profile(UNIT, [40, 90, 180], [3, 9, 27, 81])
    assert prof.check_monotone()


def test_counting_chain():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = random_monotone_subadditive(rng, 120)
        s = LinearOrbitMetric(d)
        R = float(rng.uniform(d[20], d[50]))
        lam = float(rng.uniform(d[2], R / 2))
        if 0 < lam < R:
            assert counting_chain_holds(s, R, lam)


def test_content_interval_calibration():
    # unit-spaced points at scale delta: content within a factor 3 of R
    delta = 0.5
    s = LinearOrbitMetric(np.arange(0, 4000, dtype=float) * delta)
    R = 100.0
    est = hausdorff_content(s, 1.0, R, delta)
    assert est.direction == "upper"
    assert R / 3.0 <= est.content <= 3.0 * R


def test_content_k0_is_covering_number():
    est = hausdorff_content(UNIT, 0.0, 50.0, 5.0)
    assert est.content == capacity(UNIT, 50.0, 5.0)


def test_content_lower_direction_chain():
    c1, c2 = fit_growth_constants(UNIT, 1.0, (0.3, 150.0))
    est = hausdorff_content(UNIT, 1.0, 100.0, 10.0, direction="lower", fitted=(c1, c2))
    assert est.direction == "lower" and est.chain_ok


def test_box_dimension_unit():
    s = LinearOrbitMetric(lambda l: float(l))
    prof = build_capacity_profile(s, np.geomspace(3e4, 3e5, 4), np.geomspace(3, 300, 10))
    assert box_dimension_fit(prof) == pytest.approx(1.0, abs=0.05)
    with pytest.raises(DegenerateRange):
        box_dimension_fit(build_capacity_profile(s, [1e4], [3, 4, 5, 6, 7, 8, 9]))


def test_counting_chain_on_orbit_metric(pure_half_metric):
    from warplab.dimension import GeodesicOrbitMetric

    s = GeodesicOrbitMetric(pure_half_metric)
    for R, lam in ((300.0, 40.0), (1500.0, 90.0), (5000.0, 600.0)):
        assert counting_chain_holds(s, R, lam)


def test_box_dimension_beta_window(osc_metric, osc_build):
    # the oscillating orbit viewed at the middle-stretch scale fits the
    # steeper growth order 1 + 2*beta
    from warplab.dimension import GeodesicOrbitMetric
    from warplab.orbits import GrowthWindow

    ladder, _, _ = osc_build
    w = GrowthWindow.for_stretch(1.2, 2.0 * float(ladder.junctions[1]))  # R12
    s = GeodesicOrbitMetric(osc_metric)
    prof = build_capacity_profile(s, np.geomspace(w.lo * 3, w.hi / 3, 3), np.geomspace(3, 300, 6))
    slope = box_dimension_fit(prof)
    assert slope == pytest.approx(3.4, abs=0.3)
