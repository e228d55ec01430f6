import math
import os

import numpy as np
import pytest

from warplab.cache import OrbitCache, model_key
from warplab.dimension import LinearOrbitMetric, fit_growth_constants
from warplab.orbits import (
    GrowthWindow,
    OrbitTable,
    WindowEmpty,
    check_distance_sandwich,
    growth_slope,
    loop_cost_coefficient,
    sandwich_constants,
    window_index_bounds,
)


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
    # the closed ball includes its boundary, half of d_1 and negative radii
    # hold index 0 only, and every stride below d_1 is 1
    table = OrbitTable(pure_half_metric)
    assert table.ball_index(table.distance(5)) == 5
    assert table.ball_index(0.5 * table.distance(1)) == 0
    assert table.ball_index(-1.0) == 0
    assert table.min_stride(0.5 * table.distance(1)) == 1


def test_fast_count_matches_table(pure_half_metric):
    # the length inversion names the index its table's distances define:
    # d_N <= R < d_{N+1} for the ball index N, d_{g-1} < R <= d_g for the stride g
    table = OrbitTable(pure_half_metric)
    for R in (40.0, 123.0, 517.0):
        n, g = table.ball_index(R), table.min_stride(R)
        assert table.distance(n) <= R < table.distance(n + 1)
        assert table.distance(g - 1) < R <= table.distance(g)


def test_growth_slope_pure(pure_half_metric):
    s = OrbitTable(pure_half_metric)
    fit = growth_slope(s, GrowthWindow(1e2, 1e4), samples=12)
    assert fit.slope == pytest.approx(2.0, abs=0.15)
    assert fit.residual < 0.05
    assert all(c == 2 * s.ball_index(R) + 1 for R, c in fit.samples)
    with pytest.raises(ValueError):
        growth_slope(s, GrowthWindow(1e2, 1e4), samples=8)


def test_fit_count_constants_linear_table():
    # d_l = l: counts 2 floor(R) + 1, so #(R)/R within [1, 3] on R >= 1
    c1, c2 = fit_growth_constants(LinearOrbitMetric(np.arange(200.0)), 1.0, (1.0, 100.0),
                                  samples=40)
    assert 1.0 <= c1 <= c2 <= 3.0


def test_distance_sandwich_pure_large_l(pure_half_metric):
    # nonempty windows need S >= C(a)^2 ~ 50.3 for a = 1/2; power control
    # holds across the S = 200 window
    with pytest.raises(WindowEmpty):
        window_index_bounds(0.5, 30.0)
    ok, rows = check_distance_sandwich(OrbitTable(pure_half_metric).distance, 0.5, 200.0,
                                       n_samples=6)
    assert ok, rows


def test_cache_round_trip(pure_half_metric, cache_dir):
    payload = {"family": "test", "alpha": 0.5}
    cache = OrbitCache.for_model(payload, cache_dir)
    t1 = OrbitTable(pure_half_metric, cache=cache)
    vals = {l: t1.distance(l) for l in (1, 4, 9)}
    # a fresh table against the same cache reads identical values
    t2 = OrbitTable(pure_half_metric, cache=OrbitCache.for_model(payload, cache_dir))
    for l, d in vals.items():
        assert t2.entries[l] == d


def test_counts_are_memoized_and_cached_apart_from_distances(pure_half_metric, cache_dir,
                                                             monkeypatch):
    # a count is one inversion per radius, kept in its own memo (the radius
    # 40.0 and the index 40 are one dict key) and in the cache file, so a
    # fresh table on that file counts with no inversion
    from warplab import orbits

    payload = {"family": "counts", "alpha": 0.5}
    t1 = OrbitTable(pure_half_metric, cache=OrbitCache.for_model(payload, cache_dir))
    d1, d40 = t1.distance(1), t1.distance(40)
    calls = []
    real = orbits.axis_count_at_radius
    monkeypatch.setattr(orbits, "axis_count_at_radius",
                        lambda m, R: calls.append(R) or real(m, R))
    radii = (40.0, d40, 123.0)
    counts = [t1.ball_index(R) for R in radii] + [t1.ball_index(R) for R in radii]
    assert calls == list(radii) and counts[:3] == counts[3:]
    assert counts[1] == 40 and t1.entries == {1: d1, 40: d40}
    t2 = OrbitTable(pure_half_metric, cache=OrbitCache.for_model(payload, cache_dir))
    assert [t2.ball_index(R) for R in radii] == counts[:3] and len(calls) == 3
    assert t2.entries == {1: d1, 40: d40} and t2.counts == dict(zip(radii, counts))


def test_cache_key_mismatch_ignored(pure_half_metric, cache_dir):
    c1 = OrbitCache.for_model({"family": "m1"}, cache_dir)
    t1 = OrbitTable(pure_half_metric, cache=c1)
    t1.distance(3)
    # same path, different model key: loader must refuse the records
    alien = OrbitCache(c1.path, model_key({"family": "other"}))
    assert alien.load() == ({}, {})


def _key_values(key):
    """The value texts of a model key of float settings, by name: a float
    repr holds no `=` and no `_`, so each `_` after a value starts a name."""
    tokens = key.split("=")
    names, values = [tokens[0]], []
    for token in tokens[1:-1]:
        value, _, name = token.partition("_")
        values.append(value)
        names.append(name)
    return dict(zip(names, [*values, tokens[-1]]))


def test_model_key_is_the_settings_text(cache_dir):
    pure = {"alpha": 0.5, "quad_rel_tol": 1e-9}
    key = model_key(pure)
    assert key == "alpha=0.5_quad_rel_tol=1e-09"
    assert model_key({"quad_rel_tol": 1e-9, "alpha": 0.5}) == key
    # settings one bit apart get keys of their own, and every value reads back
    # bit for bit
    payloads = [{"alpha": a, "quad_rel_tol": t}
                for a in (0.5, math.nextafter(0.5, 1.0), 0.6, 5e-324, 1e300)
                for t in (1e-9, math.nextafter(1e-9, 0.0), 1e-8)]
    payloads += [{"alpha": 0.5}, {"quad_rel_tol": 0.5}, {"x": 1.0, "y": 2.0}]
    keys = [model_key(p) for p in payloads]
    assert len(set(keys)) == len(payloads)
    for p, k in zip(payloads, keys):
        read = {name: float(text) for name, text in _key_values(k).items()}
        assert {n: v.hex() for n, v in read.items()} == {n: v.hex() for n, v in p.items()}
    cache = OrbitCache.for_model(pure, cache_dir)
    assert os.path.basename(cache.path) == "orbit_alpha=0.5_quad_rel_tol=1e-09.tsv"
    cache.append(1, 2.0)
    with open(cache.path) as fh:
        assert fh.readline() == "# warplab-orbit-cache v7 model=alpha=0.5_quad_rel_tol=1e-09\n"


def test_oscillating_distances_monotone_subadditive(osc_metric):
    table = OrbitTable(osc_metric)
    ls = [1, 2, 3, 5, 8, 13]
    d = {l: table.distance(l) for l in ls}
    for a, b in zip(ls, ls[1:]):
        assert d[a] <= d[b] * (1 + 1e-9)
    for a, b in ((1, 2), (2, 3), (3, 5), (5, 8)):
        assert d[a + b] <= d[a] + d[b] + 1e-9 * (d[a] + d[b])
