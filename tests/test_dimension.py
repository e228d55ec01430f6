import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warplab import dimension, halfplane, orbits
from warplab.cache import OrbitCache
from warplab.dimension import (
    DegenerateRange,
    LinearOrbitMetric,
    MetricInvariantViolation,
    box_dimension_fit,
    build_capacity_profile,
    capacity,
    check_capacity_sandwich,
    fit_growth_constants,
    hausdorff_content,
)
from warplab.config import parse_config
from warplab.halfplane import HalfplaneMetric
from warplab.harness import run
from warplab.numerics import line_fit
from warplab.orbits import OrbitTable
from warplab.warping import power_decay_h

from .oracles import capacity_exhaustive, capacity_sweep, counting_chain_holds

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
    assert R / 3.0 <= hausdorff_content(s, 1.0, R, delta) <= 3.0 * R


def test_content_k0_is_covering_number():
    assert hausdorff_content(UNIT, 0.0, 50.0, 5.0) == capacity(UNIT, 50.0, 5.0)


def test_content_lower_direction_chain():
    # the capacity chain's lower bound c1^2/(3^(k+1) c2^2) R^k
    c1, c2 = fit_growth_constants(UNIT, 1.0, (0.3, 150.0))
    assert hausdorff_content(UNIT, 1.0, 100.0, 10.0) >= c1**2 / (3.0**2 * c2**2) * 100.0


def test_box_dimension_unit():
    s = LinearOrbitMetric(np.arange(300_001.0))
    prof = build_capacity_profile(s, np.geomspace(3e4, 3e5, 4), np.geomspace(3, 300, 10))
    assert box_dimension_fit(prof) == pytest.approx(1.0, abs=0.05)
    with pytest.raises(DegenerateRange):
        box_dimension_fit(build_capacity_profile(s, [1e4], [3, 4, 5, 6, 7, 8, 9]))


def _polyfit_refuses(x, y):
    # np.polyfit raises, or warns with a RuntimeWarning (RankWarning, a
    # division), on a degenerate line fit
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            np.polyfit(x, y, 1)
        except (TypeError, np.linalg.LinAlgError, RuntimeWarning):
            return True
    return False


def test_line_fit_matches_polyfit_on_the_suites_fits(tmp_path, monkeypatch):
    # every growth window and capacity profile the pure 1/2 and osc 1e40 full
    # suites fit: slope and intercept within 1e-12 relative of np.polyfit's
    seen = []

    def recording(x, y):
        seen.append((list(x), list(y)))
        return line_fit(x, y)

    monkeypatch.setattr(orbits, "line_fit", recording)
    monkeypatch.setattr(dimension, "line_fit", recording)
    for model in ({"alpha": 0.5}, {"alpha": 0.6, "beta": 1.2, "A": 0.3, "B": 1.5,
                                   "radius_bound": 1e40}):
        tag = "osc" if "beta" in model else "pure"
        run(parse_config(None, {"mode": "full-suite", **model, "outdir": str(tmp_path / tag),
                                "cache_dir": str(tmp_path / f"{tag}-cache")}))
    assert sorted(len(x) for x, _ in seen) == [12, 12, 14, 50, 50]
    for x, y in seen:
        for got, want in zip(line_fit(x, y), np.polyfit(x, y, 1)):
            assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("x, y", [
    ([], []),  # no point
    ([1.0], [2.0]),  # one point
    ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]),  # one x value
    ([1.0, math.nan, 3.0], [1.0, 2.0, 3.0]),
    ([1.0, math.inf, 3.0], [1.0, 2.0, 3.0]),
    ([1.0, 2.0], [1.0, 2.0, 3.0]),  # lengths differ
])
def test_line_fit_refuses_the_fits_polyfit_refuses(x, y):
    assert _polyfit_refuses(x, y)
    with pytest.raises(ValueError):
        line_fit(x, y)


def test_counting_chain_on_orbit_metric(pure_half_metric):
    s = OrbitTable(pure_half_metric)
    for R, lam in ((300.0, 40.0), (1500.0, 90.0), (5000.0, 600.0)):
        assert counting_chain_holds(s, R, lam)


def test_ball_below_d1_inverts_no_arc(monkeypatch):
    # the table's d_1 decides a ball below it: index 0, no length inversion
    s = OrbitTable(HalfplaneMetric.from_warping(power_decay_h(0.5)))
    d1 = s.distance(1)
    calls = []
    real = halfplane.invert_arc
    monkeypatch.setattr(halfplane, "invert_arc",
                        lambda *a, **k: calls.append(a[1:3]) or real(*a, **k))
    assert [s.ball_index(R) for R in (0.5 * d1, math.nextafter(d1, 0.0))] == [0, 0]
    assert calls == []
    assert s.ball_index(d1) == 1 and len(calls) == 1


def test_ball_index_reads_d1_from_the_table_cache(tmp_path, monkeypatch):
    # a table that loaded d_1 from its cache counts with no distance solve and
    # no strict-decrease scan; a distance from the domain start still runs
    # the scan before its inversion
    cache = OrbitCache.for_model({"family": "d1"}, str(tmp_path))
    solved = OrbitTable(HalfplaneMetric.from_warping(power_decay_h(0.5)), cache=cache)
    radii = (5.0, 40.0, 517.0)
    counts = [solved.ball_index(R) for R in radii]

    m = HalfplaneMetric.from_warping(power_decay_h(0.5))
    s = OrbitTable(m, cache=cache)
    calls = []
    real = orbits.orbit_distance
    monkeypatch.setattr(orbits, "orbit_distance",
                        lambda *a, **k: calls.append(a[1]) or real(*a, **k))
    assert [s.ball_index(R) for R in radii] == counts
    assert counts[0] == 0 < counts[1] and s.distance(1) > 5.0
    assert calls == [] and m._scan is None
    halfplane.orbit_distance(m, 50)
    assert m._scan is not None


def test_min_stride_on_disagreeing_table_reads_few_distances(monkeypatch):
    # the table's distances are faked as d_l = l^(1/2.2), which first reaches
    # lambda = 2000 near l = 1.8e7, while the pure 0.6 metric inverts 2000 to
    # a stride near 357,362: strides come from the metric's inversion, like
    # ball indices, as one past the ball index at the double below lambda,
    # and the table is read at d_1 only
    reads = []

    def spy(m, l):
        reads.append(l)
        return l ** (1 / 2.2), None

    monkeypatch.setattr(orbits, "orbit_distance", spy)
    m = HalfplaneMetric.from_warping(power_decay_h(0.6))
    s = OrbitTable(m)
    for eps in (2000.0, 517.0, 20.0, 1.5):
        below = math.nextafter(eps, -math.inf)
        assert s.min_stride(eps) == s.ball_index(below) + 1
        assert s.ball_index(below) == halfplane.axis_count_at_radius(m, below)
    assert s.min_stride(1.0) == s.min_stride(0.5) == 1  # at and below the fake d_1
    g = s.min_stride(2000.0)
    assert 357_000 < g < 358_000
    assert reads == [1]
    # the stride is the least g with d_g >= lambda on the metric's own distances
    monkeypatch.undo()
    assert halfplane.orbit_distance(m, g - 1)[0] < 2000.0 <= halfplane.orbit_distance(m, g)[0]


def _capacity_queries(tmp_path, monkeypatch, alpha):
    """Every ball-index query (R, N) and stride query (lambda, g) of a pure
    capacity run, and a fresh uncached table of the same metric to check
    them on.  The run's 90 inversions are its cache's count records: a
    stride's is the ball index at the double below lambda."""
    balls, strides = [], []
    ball_index, min_stride = OrbitTable.ball_index, OrbitTable.min_stride
    monkeypatch.setattr(OrbitTable, "ball_index",
                        lambda t, R: balls.append((R, ball_index(t, R))) or balls[-1][1])
    monkeypatch.setattr(OrbitTable, "min_stride",
                        lambda t, lam: strides.append((lam, min_stride(t, lam))) or strides[-1][1])
    cache_dir = str(tmp_path / f"cache-{alpha}")
    run(parse_config(None, {"mode": "capacity", "alpha": alpha, "cache_dir": cache_dir,
                            "outdir": str(tmp_path / f"out-{alpha}")}))
    monkeypatch.undo()
    counts = OrbitCache.for_model({"alpha": alpha, "quad_rel_tol": 1e-9}, cache_dir).load().counts
    assert len(counts) == 90 and set(counts) <= {R for R, _ in balls}
    assert len({lam for lam, _ in strides}) == 53
    return balls, strides, OrbitTable(HalfplaneMetric.from_warping(power_decay_h(alpha)))


@pytest.mark.parametrize("alpha", [0.5, 0.6])
def test_capacity_inversions_equal_the_table_search(tmp_path, monkeypatch, alpha):
    # each count against the table's distances, the definition, by two
    # distance solves: the ball index N at R is the N with
    # d_N <= R < d_{N+1}, and the stride g at lambda the g with
    # d_{g-1} < lambda <= d_g
    balls, strides, table = _capacity_queries(tmp_path, monkeypatch, alpha)
    d = table.distance
    for R, N in set(balls):
        assert d(N) <= R < d(N + 1), (R, N)
    for lam, g in set(strides):
        assert d(g - 1) < lam <= d(g), (lam, g)


def test_capacity_inversions_at_pure_1_2_agree_to_the_arcs_resolution(tmp_path, monkeypatch):
    # at alpha = 1.2 the capacity radii reach counts N of 5e10 to 2.4e14,
    # where neighbouring distances differ by d/((1+2 alpha) N), under 6e-12
    # relative; the arcs resolve a distance to about 1e-12 (consecutive
    # distances there can fall by 7.7e-13 relative), so the inversion's
    # count and the distance solves may disagree by that much: the
    # inequalities hold with each distance moved by REL = 4e-12 relative
    # (worst seen: 2.6e-12, at 16 of the 180 inequalities)
    REL = 4e-12
    balls, strides, table = _capacity_queries(tmp_path, monkeypatch, 1.2)
    d = table.distance
    exact = True
    for R, N in set(balls):
        assert d(N) * (1 - REL) <= R < d(N + 1) * (1 + REL), (R, N)
        exact = exact and d(N) <= R < d(N + 1)
    for lam, g in set(strides):
        assert d(g - 1) * (1 - REL) < lam <= d(g) * (1 + REL), (lam, g)
        exact = exact and d(g - 1) < lam <= d(g)
    assert not exact, "every count meets its definition exactly: assert that, as at 0.5 and 0.6"


def test_box_dimension_beta_window(osc_metric, osc_build):
    # the oscillating orbit viewed at the middle-stretch scale fits the
    # steeper growth order 1 + 2*beta
    from warplab.orbits import GrowthWindow

    ladder, _ = osc_build
    w = GrowthWindow.for_stretch(1.2, 2.0 * float(ladder.junctions[1]))  # R12
    s = OrbitTable(osc_metric)
    prof = build_capacity_profile(s, np.geomspace(w.lo * 3, w.hi / 3, 3), np.geomspace(3, 300, 6))
    slope = box_dimension_fit(prof)
    assert slope == pytest.approx(3.4, abs=0.3)


# -- explicit tables ----------------------------------------------------------

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def monotone_tables(draw):
    """Nondecreasing d with d_0 = 0: power-like growth of a drawn exponent,
    with drawn shares of ties (gap 0) and of plateaus (runs of ties)."""
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e = draw(st.floats(0.05, 3.0))
    gaps = rng.exponential(1.0, n) * np.arange(1, n + 1) ** (e - 1.0)
    gaps[rng.random(n) < draw(st.floats(0.0, 0.9))] = 0.0
    for _ in range(draw(st.integers(0, 3))):  # plateaus
        a = int(rng.integers(0, n))
        gaps[a:a + int(rng.integers(1, n + 1))] = 0.0
    gaps[0] *= draw(st.sampled_from([1.0, 1.0, 1e3]))  # sometimes a large d_1
    return np.concatenate([[0.0], np.cumsum(gaps)])


def _targets(d, rng):
    """Table values, their float neighbours and midpoints, and points below
    d_1 and beyond d_n."""
    picks = rng.integers(0, len(d), 40)
    out = [-1.0, 0.0, 0.5 * d[1], d[-1], 2.0 * d[-1] + 1.0]
    for i in picks:
        v = float(d[i])
        out += [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
        if i + 1 < len(d):
            out.append(0.5 * (v + float(d[i + 1])))
    return out


@PROPERTY
@given(d=monotone_tables(), seed=st.integers(0, 2**16))
def test_callable_search_equals_searchsorted(d, seed):
    # the table's binary searches against the definitions read off the whole
    # table: max{l : d_l <= T}, 0 below d_1; min{g >= 1 : d_g >= T}, 0 past d_n
    s = LinearOrbitMetric(d, validate=False)
    for T in _targets(d, np.random.default_rng(seed)):
        within = np.flatnonzero(d <= T)
        reach = np.flatnonzero(d[1:] >= T)
        assert s.ball_index(T) == (0 if d[1] > T else int(within[-1])), T
        assert s.min_stride(T) == (int(reach[0]) + 1 if reach.size else 0), T
