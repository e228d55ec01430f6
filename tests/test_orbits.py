import math
import os

import numpy as np
import pytest

from warplab.cache import OrbitCache, model_hash
from warplab.halfplane import HalfplaneMetric
from warplab.orbits import (
    GrowthWindow,
    OrbitTable,
    WindowEmpty,
    check_distance_sandwich,
    fast_orbit_count,
    fit_count_constants,
    growth_slope,
    loop_cost_coefficient,
    orbit_count,
    sandwich_constants,
    window_index_bounds,
)
from warplab.warping import power_decay_h


def test_loop_coefficient_frozen():
    # C(a) = (2 + 1/a)(2 pi a)^(1/(2a+1)); a=1/2 collapses to 4 sqrt(pi)
    assert loop_cost_coefficient(0.5) == pytest.approx(4.0 * math.pi ** 0.5, rel=1e-12)
    assert loop_cost_coefficient(0.6) == pytest.approx(6.7025509003443, rel=1e-12)
    assert loop_cost_coefficient(1.2) == pytest.approx(5.132690268202743, rel=1e-12)


def test_window_bounds_and_constants():
    lo, hi = window_index_bounds(0.6, 1000.0)
    C = loop_cost_coefficient(0.6)
    assert lo == pytest.approx(C ** (2.2 / 1.2) * 1000.0**2.2, rel=1e-12)
    assert hi == pytest.approx(C**-2.2 * 1000.0**4.4, rel=1e-12)
    C1, C2 = sandwich_constants(0.6)
    assert C2 == pytest.approx(C)
    assert C1 == pytest.approx((2.0 * math.pi / C) ** (1.0 / 1.2), rel=1e-12)
    with pytest.raises(WindowEmpty):
        window_index_bounds(0.6, 1.2)  # scale too small: empty index window


def test_orbit_table_and_count(pure_half_metric):
    table = OrbitTable(pure_half_metric)
    d5 = table.distance(5)
    assert orbit_count(table, d5) == 11  # closed ball includes the boundary
    d1 = table.distance(1)
    assert orbit_count(table, 0.5 * d1) == 1
    assert orbit_count(table, -1.0) == 0
    # symmetric count at a generic radius
    R = 123.0
    n = table.max_index_within(R)
    assert table.distance(n) <= R < table.distance(n + 1)
    assert orbit_count(table, R) == 2 * n + 1


def test_fast_count_matches_table(pure_half_metric):
    table = OrbitTable(pure_half_metric)
    for R in (40.0, 123.0, 517.0):
        assert fast_orbit_count(pure_half_metric, R) == float(orbit_count(table, R))


def test_growth_slope_pure(pure_half_metric):
    fit = growth_slope(pure_half_metric, GrowthWindow(1e2, 1e4, 0.5, float("nan")), samples=12)
    assert fit.slope == pytest.approx(2.0, abs=0.15)
    assert fit.residual < 0.05
    with pytest.raises(ValueError):
        growth_slope(pure_half_metric, GrowthWindow(1e2, 1e4, 0.5, float("nan")), samples=8)


def test_fit_count_constants_linear_table():
    # d_l = l: counts 2 floor(R) + 1, so #(R)/R within [1, 3] on R >= 1
    from warplab.dimension import LinearOrbitMetric

    s = LinearOrbitMetric(lambda l: float(l))
    c1, c2 = (
        min((2 * s.ball_index(R) + 1) / R for R in np.geomspace(1, 100, 40)),
        max((2 * s.ball_index(R) + 1) / R for R in np.geomspace(1, 100, 40)),
    )
    assert 1.0 <= c1 <= c2 <= 3.0


def test_distance_sandwich_pure_large_l(pure_half_metric):
    # nonempty windows need S >= C(a)^2 ~ 50.3 for a = 1/2; power control
    # holds across the S = 200 window
    with pytest.raises(WindowEmpty):
        window_index_bounds(0.5, 30.0)
    ok, rows = check_distance_sandwich(pure_half_metric, 0.5, 200.0, n_samples=6)
    assert ok, rows


def test_cache_round_trip(pure_half_metric, cache_dir):
    payload = {"family": "test", "alpha": 0.5}
    cache = OrbitCache.for_model(payload, cache_dir)
    t1 = OrbitTable(pure_half_metric, cache=cache)
    vals = {l: t1.distance(l) for l in (1, 4, 9)}
    # a fresh table against the same cache reads identical values
    t2 = OrbitTable(pure_half_metric, cache=OrbitCache.for_model(payload, cache_dir))
    for l, d in vals.items():
        assert t2.entries[l][0] == d


def test_cache_hash_mismatch_ignored(pure_half_metric, cache_dir):
    c1 = OrbitCache.for_model({"family": "m1"}, cache_dir)
    t1 = OrbitTable(pure_half_metric, cache=c1)
    t1.distance(3)
    # same path, different model key: loader must refuse the records
    alien = OrbitCache(c1.path, model_hash({"family": "other"}))
    assert alien.load() == {}


def test_model_hash_stability():
    a = model_hash({"x": 1, "y": 2})
    b = model_hash({"y": 2, "x": 1})
    assert a == b and len(a) == 16
    assert model_hash({"x": 1, "y": 3}) != a


def test_oscillating_distances_monotone_subadditive(osc_metric):
    table = OrbitTable(osc_metric)
    ls = [1, 2, 3, 5, 8, 13]
    d = {l: table.distance(l) for l in ls}
    for a, b in zip(ls, ls[1:]):
        assert d[a] <= d[b] * (1 + 1e-9)
    for a, b in ((1, 2), (2, 3), (3, 5), (5, 8)):
        assert d[a + b] <= d[a] + d[b] + 1e-9 * (d[a] + d[b])


def test_axis_count_reads_d1_from_the_orbit_table(tmp_path, monkeypatch):
    # a table that loads d_1 from its cache hands it to axis counts on its
    # metric: no d_1 solve and no strict-decrease scan for it; a distance
    # from the domain start still runs the scan before its inversion
    from warplab import halfplane

    cache = OrbitCache.for_model({"family": "d1"}, str(tmp_path))
    solved = HalfplaneMetric.from_warping(power_decay_h(0.5))
    d1 = OrbitTable(solved, cache=cache).distance(1)
    counts = [halfplane.axis_count_at_radius(solved, R) for R in (5.0, 40.0, 517.0)]

    m = HalfplaneMetric.from_warping(power_decay_h(0.5))
    OrbitTable(m, cache=cache)
    calls = []
    real = halfplane.orbit_distance
    monkeypatch.setattr(halfplane, "orbit_distance",
                        lambda *a, **k: calls.append(a[1]) or real(*a, **k))
    assert [halfplane.axis_count_at_radius(m, R) for R in (5.0, 40.0, 517.0)] == counts
    assert counts[0] == 0 < counts[1] and d1 > 5.0
    assert calls == [] and m._scans == {}
    halfplane.orbit_distance(m, 50)
    assert len(m._scans) == 1
