import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from warplab import halfplane
from warplab.halfplane import (
    DeltaVNotMonotone,
    GeodesicSolution,
    HalfplaneMetric,
    OutOfRange,
    QuadSettings,
    TWO_PI,
    circle_length,
    clairaut_arc,
    delta_v_of_c,
    invert_arc,
    length_of_c,
    orbit_distance,
    solve_turning_point,
    verify_delta_v_monotone,
)
from warplab.ladder import OscillationParams
from warplab.orbits import OrbitTable, window_index_bounds
from warplab.smoothing import build_oscillating_h, pure_model_h
from warplab.warping import constant_h, exp_decay_h, grushin_h, power_decay_h

from .oracles import hyperbolic_arc, power_arc_oracle


def test_circle_length():
    flat = HalfplaneMetric.from_warping(constant_h(1.0))
    assert circle_length(flat, 3.0) == pytest.approx(TWO_PI)
    m = HalfplaneMetric.from_warping(power_decay_h(0.5))
    assert circle_length(m, 0.0) == pytest.approx(TWO_PI)
    assert circle_length(m, math.sqrt(3.0)) == pytest.approx(math.pi, rel=1e-14)


def test_turning_points():
    m = HalfplaneMetric.from_warping(power_decay_h(0.5))
    assert solve_turning_point(m, 0.5) == pytest.approx(math.sqrt(3.0), rel=1e-12)
    g = HalfplaneMetric.from_warping(grushin_h(0.5), domain_start=1e-3)
    assert solve_turning_point(g, 2.0) == pytest.approx(0.5, rel=1e-12)
    # c -> h(0)-: turning radius collapses to the axis
    assert solve_turning_point(m, 1.0 - 1e-10) == pytest.approx(0.0, abs=2e-5)


def test_turning_point_out_of_range():
    flat = HalfplaneMetric.from_warping(constant_h(1.0))
    with pytest.raises(OutOfRange):
        solve_turning_point(flat, 0.5)  # constant h never reaches c
    m = HalfplaneMetric.from_warping(power_decay_h(0.5))
    with pytest.raises(OutOfRange):
        solve_turning_point(m, 1.5)  # above sup h


def test_hyperbolic_closed_form():
    # h = exp(-r) is a hyperbolic halfplane: frozen closed forms
    m = HalfplaneMetric.from_warping(exp_decay_h())
    for c in (0.5, 0.2, 0.9):
        dv_ref, len_ref = hyperbolic_arc(c)
        sol = clairaut_arc(m, c)
        assert sol.delta_v == pytest.approx(dv_ref, rel=1e-9)
        assert sol.length == pytest.approx(len_ref, rel=1e-9)


def test_power_arc_frozen_oracle_values():
    # alpha = 1/2 at c = 1/2 has closed values 5*pi/2 and 2*pi, confirmed by
    # the cosh-substitution tanh-sinh oracle at 30 digits
    m = HalfplaneMetric.from_warping(power_decay_h(0.5))
    sol = clairaut_arc(m, 0.5)
    assert sol.r_max == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert sol.delta_v == pytest.approx(5.0 * math.pi / 2.0, rel=1e-10)
    assert sol.length == pytest.approx(2.0 * math.pi, rel=1e-10)
    # a second exponent, frozen from the same oracle
    m6 = HalfplaneMetric.from_warping(power_decay_h(0.6))
    sol6 = clairaut_arc(m6, 0.01)
    assert sol6.delta_v == pytest.approx(6283.7303526032595, rel=1e-9)
    assert sol6.length == pytest.approx(138.18100662428213, rel=1e-9)


def test_arc_oracle_recomputed_live():
    # regenerate one oracle value at runtime (guards the frozen numbers)
    dv, ln, rmax = power_arc_oracle(0.5, 0.37)
    m = HalfplaneMetric.from_warping(power_decay_h(0.5))
    sol = clairaut_arc(m, 0.37)
    assert sol.delta_v == pytest.approx(float(dv), rel=1e-9)
    assert sol.length == pytest.approx(float(ln), rel=1e-9)


# delta_v and length of h = (1+r^2)^(-p) from the axis at Clairaut constant
# c, from power_arc_oracle (30 digits); test_power_arc_table_is_the_oracle
# recomputes two rows
_POWER_ARC_TABLE = {
    (0.1, 0.9): (11.1872111920724, 10.9531762910081),
    (0.1, 0.5): (315.067527249648, 188.752413055866),
    (0.1, 0.1): (4908738.65385974, 589048.629241693),
    (0.1, 0.01): (4908738521234.06, 58904862254.8086),
    (0.1, 0.0001): (4.90873852123404e+24, 5.89048622548085e+20),
    (0.1, 1e-08): (4.90873852123403e+48, 5.89048622548083e+40),
    (0.1, 1e-12): (4.90873852123401e+72, 5.89048622548082e+60),
    (0.2, 0.9): (6.31513620809717, 6.2423829142839),
    (0.2, 0.5): (36.7215152134143, 25.013605852895),
    (0.2, 0.1): (9871.44852569865, 1381.96511215919),
    (0.2, 0.01): (31214970.9317589, 437009.592615668),
    (0.2, 0.0001): (312149708844300.0, 43700959238.2019),
    (0.2, 1e-08): (3.12149708844299e+28, 4.37009592382019e+20),
    (0.2, 1e-12): (3.12149708844299e+42, 4.37009592382018e+30),
    (0.3, 0.9): (4.7963524721271, 4.75693461357742),
    (0.3, 0.5): (16.3653207955115, 12.0565812515919),
    (0.3, 0.1): (1084.12318420213, 173.353933818593),
    (0.3, 0.01): (502814.456700357, 8045.02843770482),
    (0.3, 0.0001): (108328040134.745, 17332486.4215577),
    (0.3, 1e-08): (5.02814221456531e+21, 80450275433044.9),
    (0.3, 1e-12): (2.33385687569434e+32, 3.73417100111094e+20),
    (0.4, 0.9): (4.00839857752433, 3.98218390558783),
    (0.4, 0.5): (10.4959297549675, 8.12325434077939),
    (0.4, 0.1): (334.6699322084, 60.0369551590939),
    (0.4, 0.01): (59291.4330835573, 1067.23373597096),
    (0.4, 0.0001): (1874935969.20185, 337488.474417789),
    (0.4, 1e-08): (1.87493596896097e+18, 33748847441.2974),
    (0.4, 1e-12): (1.87493596896097e+27, 3374884744129740.0),
    (0.5, 0.9): (3.51005105123304, 3.49065850398866),
    (0.5, 0.5): (7.85398163397448, 6.28318530717959),
    (0.5, 0.1): (158.650429006285, 31.4159265358979),
    (0.5, 0.01): (15709.5340642758, 314.159265358979),
    (0.5, 0.0001): (157079634.250286, 31415.9265358979),
    (0.5, 1e-08): (1.5707963267949e+16, 314159265.358979),
    (0.5, 1e-12): (1.5707963267949e+24, 3141592653589.79),
    (0.6, 0.9): (3.15952472623817, 3.14421697408745),
    (0.6, 0.5): (6.37263598927253, 5.2196497255225),
    (0.6, 0.1): (93.9931337689992, 20.2515626584286),
    (0.6, 0.01): (6283.73035260326, 138.181006624282),
    (0.6, 0.0001): (29154677.6337046, 6414.02776698362),
    (0.6, 1e-08): (628118370892464.0, 13818604.1596336),
    (0.6, 1e-12): (1.35324000769698e+22, 29771280169.3336),
    (0.75, 0.9): (2.78671884343999, 2.77511887797082),
    (0.75, 0.5): (5.07171256085312, 4.25809622172266),
    (0.75, 0.1): (54.083752876436, 12.9305297068728),
    (0.75, 0.01): (2420.75790174864, 60.3983056666409),
    (0.75, 0.0001): (5206700.82191491, 1301.66963161821),
    (0.75, 1e-08): (24167278156041.1, 604181.953889018),
    (0.75, 1e-12): (1.12174568426036e+20, 280436421.065091),
    (1.0, 0.9): (2.38000522099952, 2.3717279167421),
    (1.0, 0.5): (3.91323255823847, 3.37150070962519),
    (1.0, 0.1): (29.8331410067373, 8.11193557203541),
    (1.0, 0.01): (880.107841049525, 26.1609940588),
    (1.0, 0.0001): (874079.101608118, 262.199765055773),
    (1.0, 1e-08): (874019190754.741, 26220.5754830142),
    (1.0, 1e-12): (8.74019184764639e+17, 2622057.55429152),
    (1.2, 0.9): (2.15761934345446, 2.1508560279424),
    (1.2, 0.5): (3.37372685325104, 2.94568052292905),
    (1.2, 0.1): (21.6489946105609, 6.34634185539754),
    (1.2, 0.01): (513.6103271279, 17.1165929353982),
    (1.2, 0.0001): (345063.288347828, 117.271630412277),
    (1.2, 1e-08): (160115962420.716, 5443.94164792426),
    (1.2, 1e-12): (7.43192359411068e+16, 252685.402176616),
    (1.5, 0.9): (1.91652456424605, 1.91117587620129),
    (1.5, 0.5): (2.85099328603056, 2.52331135910076),
    (1.5, 0.1): (15.3518163240312, 4.89120480095236),
    (1.5, 0.01): (290.292018371285, 11.1120330660467),
    (1.5, 0.0001): (130982.949340952, 52.2890271502273),
    (1.5, 1e-08): (28182074770.6217, 1127.27816379264),
    (1.5, 1e-12): (6071626657060660.0, 24286.5064041924),
    (2.0, 0.9): (1.64833945082452, 1.64430681417957),
    (2.0, 0.5): (2.33376631700438, 2.09428913405836),
    (2.0, 0.1): (10.5137253531056, 3.67216453363102),
    (2.0, 0.01): (156.687057273249, 7.0991544699503),
    (2.0, 0.0001): (46817.8545187931, 23.1902907565579),
    (2.0, 1e-08): (4654641899.93842, 232.710366466767),
    (2.0, 1e-12): (465437300077312.0, 2327.1843276672),
    (3.0, 0.9): (1.33662552021931, 1.33381646364288),
    (3.0, 0.5): (1.80195797273666, 1.63994205481727),
    (3.0, 0.1): (6.77259341210392, 2.61659864940332),
    (3.0, 0.01): (78.4771718739232, 4.36393643109202),
    (3.0, 0.0001): (15129.387144521, 10.1233815065718),
    (3.0, 1e-08): (684745775.104919, 47.8341241582433),
    (3.0, 1e-12): (31746881801447.7, 222.207066557573),
}


def test_power_arc_table_is_the_oracle():
    for p, c in ((0.1, 0.1), (3.0, 1e-12)):
        dv, ln, _ = power_arc_oracle(p, c)
        assert (float(dv), float(ln)) == pytest.approx(_POWER_ARC_TABLE[p, c], rel=1e-14)


def test_arc_integrals_match_the_power_oracle_table():
    # the graded turning map (p < 3/4) and t = sqrt(r_max - r) alike: every
    # arc within 1e-9, and none worse than t on every turning panel, whose
    # worst here is 1.89e-10 (p = 1, c = 1e-4, delta_v, a t panel still)
    metrics = {}
    worst = 0.0
    for (p, c), (dv, length) in _POWER_ARC_TABLE.items():
        m = metrics.setdefault(p, HalfplaneMetric.from_warping(power_decay_h(p)))
        for got, want in ((delta_v_of_c(m, c), dv), (length_of_c(m, c), length)):
            err = abs(got / want - 1.0)
            assert err <= 1e-9, (p, c)
            worst = max(worst, err)
    assert worst <= 1.89e-10


@pytest.mark.parametrize("p, c, panels", [(0.1, 0.0755, 2), (0.15, 0.0443, 2), (0.6, 0.1, 1)])
def test_graded_panel_gives_the_knee_its_own_interval(monkeypatch, p, c, panels):
    # at p = 0.1 and 0.15 these arcs were off by 8.8e-10 and 2.2e-10 with
    # the knee at r ~ 1 squeezed into the graded panel's last 2 %; at p = 0.6
    # it holds too little of the integral to need its own interval
    from warplab import halfplane

    spans = []
    real = halfplane._quad_panel

    def spy(f, a, b, st):
        spans.append((a, b))
        return real(f, a, b, st)

    monkeypatch.setattr(halfplane, "_quad_panel", spy)
    m = HalfplaneMetric.from_warping(power_decay_h(p))
    dv, length, _ = power_arc_oracle(p, c)
    assert delta_v_of_c(m, c) == pytest.approx(float(dv), rel=1.89e-10)
    assert length_of_c(m, c) == pytest.approx(float(length), rel=1.89e-10)
    assert len(spans) == 2 * panels
    assert spans[0][0] == 0.0 and spans[panels - 1][1] == 1.0


# QK21 rules for delta_v and length of h = (1+r^2)^(-p) from the axis at 25
# log-spaced c in [1e-12, 0.9] (50 arcs), with t = sqrt(r_max - r) on every
# turning panel
_T_MAP_RULES = {0.1: 706, 0.2: 552, 0.3: 530, 0.4: 498, 0.5: 50, 0.6: 266, 0.75: 74,
                1.0: 50, 1.2: 54, 1.5: 50, 2.0: 88, 3.0: 132}


def test_graded_turning_map_needs_fewer_rules(monkeypatch):
    from warplab import numerics

    rules = []
    real = numerics._qk21

    def spy(f, a, b):
        rules.append(a)
        return real(f, a, b)

    monkeypatch.setattr(numerics, "_qk21", spy)
    for p, t_rules in _T_MAP_RULES.items():
        m = HalfplaneMetric.from_warping(power_decay_h(p))
        rules.clear()
        for c in np.geomspace(0.9, 1e-12, 25).tolist():
            delta_v_of_c(m, c)
            length_of_c(m, c)
        assert len(rules) <= t_rules, p
        if p in (0.3, 0.6):
            assert 2 * len(rules) <= t_rules, p
        if p >= 0.75:  # these turning panels keep t
            assert len(rules) == t_rules, p


def test_degenerate_arc_near_sup():
    # an axis-flat coefficient h ~ 1 - a r^2 makes tight arcs isochronous:
    # as c -> h(0)- the arc shrinks (r_max -> 0, length -> finite limit)
    # with v-displacement pi/sqrt(2a), NOT 0 (that limit belongs to
    # coefficients with h'(0) < 0, checked on the hyperbolic family below)
    m = HalfplaneMetric.from_warping(power_decay_h(0.5))
    sol = clairaut_arc(m, 1.0 - 1e-9)
    assert sol.r_max < 1e-4
    assert sol.delta_v == pytest.approx(math.pi, rel=1e-6)
    hyp = HalfplaneMetric.from_warping(exp_decay_h())
    tiny = clairaut_arc(hyp, 1.0 - 1e-9)
    assert tiny.delta_v < 1e-4 and tiny.length < 1e-4


def test_geodesic_solution_invariants():
    with pytest.raises(AssertionError):
        GeodesicSolution(clairaut_c=0.5, r_max=10.0, delta_v=4.0, length=1.0)
    with pytest.raises(AssertionError):
        GeodesicSolution(clairaut_c=0.5, r_max=10.0, delta_v=1.0, length=19.0)


def test_orbit_distance_basics(pure_half_metric):
    d0, sol0 = orbit_distance(pure_half_metric, 0)
    assert d0 == 0.0 and sol0 is None
    d1, sol1 = orbit_distance(pure_half_metric, 1)
    dm1, _ = orbit_distance(pure_half_metric, -1)
    assert d1 == dm1  # isometric inverse
    assert 0 < d1 <= TWO_PI  # never worse than the straight axis loop
    assert sol1.length == pytest.approx(d1)


def test_orbit_distance_monotone_and_subadditive(pure_half_metric):
    ls = [1, 2, 3, 5, 8, 13, 21, 34]
    d = {l: orbit_distance(pure_half_metric, l)[0] for l in ls}
    for a, b in zip(ls, ls[1:]):
        assert d[a] <= d[b] * (1 + 1e-9)
    for a in (1, 2, 3):
        for b in (2, 5, 13, 21):
            if a + b in d:
                assert d[a + b] <= d[a] + d[b] + 1e-9 * (d[a] + d[b])


def test_test_loop_upper_bound(pure_half_metric):
    # d_l <= 2r + 2 pi l h(r) for every sampled radius
    for l in (2, 7, 29, 113):
        d, _ = orbit_distance(pure_half_metric, l)
        for r in np.geomspace(0.1, 1e4, 60):
            bound = 2.0 * r + TWO_PI * l * pure_half_metric.value(float(r))
            assert d <= bound * (1 + 1e-9)


def test_clairaut_lower_bound(pure_half_metric):
    for l in (3, 17, 211):
        d, sol = orbit_distance(pure_half_metric, l)
        assert sol is not None
        assert d >= sol.delta_v * sol.clairaut_c * (1 - 1e-9)
        assert d >= 2.0 * sol.r_max * (1 - 1e-9)


def test_flat_metric_distance_falls_back_to_axis():
    flat = HalfplaneMetric.from_warping(constant_h(1.0))
    d, sol = orbit_distance(flat, 4, verify_monotone=False)
    assert sol is None
    assert d == pytest.approx(4 * TWO_PI)


def test_delta_v_monotone_scan(pure_half_metric):
    rows = verify_delta_v_monotone(pure_half_metric)  # passes and caches
    assert verify_delta_v_monotone(pure_half_metric) is rows
    assert len(rows) == 200
    assert all(x1 < x0 and dv1 > dv0 for (x0, _, dv0), (x1, _, dv1) in zip(rows, rows[1:]))
    # each row is the memoized arc at c = exp(x)
    for x, r_max, dv in rows[::40]:
        assert solve_turning_point(pure_half_metric, math.exp(x)) == r_max
        assert delta_v_of_c(pure_half_metric, math.exp(x)) == dv


def test_monotone_scan_is_kept_per_settings():
    # a scan at loose settings says nothing of the default ones: the first
    # distance at the defaults runs its own scan
    m = HalfplaneMetric.from_warping(power_decay_h(0.5))
    verify_delta_v_monotone(m, settings=QuadSettings(rel_tol=1e-6))
    calls = []
    real = halfplane.delta_v_of_c

    def spy(*args, **kwargs):
        calls.append(kwargs.get("settings", args[3] if len(args) > 3 else None))
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(halfplane, "delta_v_of_c", spy)
        orbit_distance(m, 50)
    assert len(calls) > 200
    assert all(s == QuadSettings() for s in calls)


def test_delta_v_values_decrease_in_c(pure_half_metric):
    cs = np.geomspace(0.9, 1e-3, 12)
    dvs = [delta_v_of_c(pure_half_metric, float(c)) for c in cs]
    assert all(b > a for a, b in zip(dvs, dvs[1:]))


# -- the seeded arc inversion ------------------------------------------------

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _delta_v_calls_per_distance(m, l):
    """d_l, and the delta_v_of_c evaluations orbit_distance spent on it."""
    calls = []
    real = halfplane.delta_v_of_c

    def spy(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(halfplane, "delta_v_of_c", spy)
        d, _ = orbit_distance(m, l)
    return d, len(calls)


def _osc_window_indices(osc_build, a):
    """Index window of the standard oscillating model at the alpha stretch of
    period 2 (S = 2 R14) or the first beta stretch (S = 2 R12)."""
    ladder, _, _ = osc_build
    S = 2.0 * float(ladder.junctions[3] if a == 0.6 else ladder.junctions[1])
    return window_index_bounds(a, S)


@PROPERTY
@given(u=st.floats(0.0, math.log(1e6)), v=st.floats(0.0, math.log(1e6)))
def test_invert_arc_properties_pure(pure_half_metric, u, v):
    verify_delta_v_monotone(pure_half_metric)  # once per metric, outside the budget
    l1, l2 = sorted((max(1, round(math.exp(u))), max(1, round(math.exp(v)))))
    target = TWO_PI * l1
    sol = invert_arc(pure_half_metric, "delta_v", target)
    assert sol.delta_v == pytest.approx(target, rel=1e-10)
    assert delta_v_of_c(pure_half_metric, sol.clairaut_c) == pytest.approx(target, rel=1e-10)
    d1, n1 = _delta_v_calls_per_distance(pure_half_metric, l1)
    d2, n2 = _delta_v_calls_per_distance(pure_half_metric, l2)
    assert d1 <= d2 if l1 < l2 else d1 == d2
    assert max(n1, n2) <= 8


@PROPERTY
@given(a=st.sampled_from([0.6, 1.2]), u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
def test_invert_arc_properties_osc_windows(osc_metric, osc_build, a, u, v):
    verify_delta_v_monotone(osc_metric)
    lo, hi = _osc_window_indices(osc_build, a)
    l1, l2 = sorted(math.exp(math.log(lo) + w * math.log(hi / lo)) for w in (u, v))
    assume(l1 == l2 or l2 > l1 * (1 + 1e-9))  # d_l apart by more than the solver's noise
    target = TWO_PI * l1
    sol = invert_arc(osc_metric, "delta_v", target)
    assert sol.delta_v == pytest.approx(target, rel=1e-10)
    assert delta_v_of_c(osc_metric, sol.clairaut_c) == pytest.approx(target, rel=1e-10)
    d1, n1 = _delta_v_calls_per_distance(osc_metric, l1)
    d2, n2 = _delta_v_calls_per_distance(osc_metric, l2)
    assert d1 <= d2 if l1 < l2 else d1 == d2
    assert max(n1, n2) <= 12


def test_consecutive_distances_are_arcs():
    # consecutive indices as the capacity step tabulates them: a solve that
    # crept up on its root from one side without a bracket would end in
    # TargetUnreachable and fall back to the straight axis loop
    m = HalfplaneMetric.from_smoothed(pure_model_h(0.6))
    prev = 0.0
    for l in range(1100, 1300):
        d, sol = orbit_distance(m, l)
        assert sol is not None and d == sol.length and d > prev
        prev = d


def test_invert_arc_length_and_completion(pure_half_metric):
    # the length inversion lands on the arc of the requested length, and the
    # completed arc is the one clairaut_arc integrates at the same constant
    sol = invert_arc(pure_half_metric, "length", 300.0)
    assert sol.length == pytest.approx(300.0, rel=1e-10)
    ref = clairaut_arc(pure_half_metric, sol.clairaut_c)
    assert sol.delta_v == pytest.approx(ref.delta_v, rel=1e-12)
    assert sol.r_max == pytest.approx(ref.r_max, rel=1e-12)


def test_invert_arc_unreachable_target():
    # an axis-flat coefficient keeps delta_v above pi/sqrt(2a) on every arc
    # from the axis, so a smaller target has no Clairaut constant
    m = HalfplaneMetric.from_warping(power_decay_h(0.5))
    with pytest.raises(halfplane.TargetUnreachable):
        invert_arc(m, "delta_v", 1.0)
    with pytest.raises(KeyError):
        invert_arc(m, "area", 1.0)


@pytest.mark.parametrize("model", ["pure", "osc"])
def test_axis_count_matches_table_on_tabulated_scales(model, pure_half_metric, osc_metric):
    # radii between consecutive tabulated distances: the length inversion and
    # the table's integer bisection name the same index
    m = pure_half_metric if model == "pure" else osc_metric
    table = OrbitTable(m)
    for l in (2, 17, 250, 4000):
        R = math.sqrt(table.distance(l) * table.distance(l + 1))
        assert halfplane.axis_count_at_radius(m, R) == table.max_index_within(R) == l


def test_axis_count_computes_d1_once_per_metric(monkeypatch):
    m = HalfplaneMetric.from_warping(power_decay_h(0.5))
    calls = []
    real = halfplane.orbit_distance

    def spy(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(halfplane, "orbit_distance", spy)
    counts = [halfplane.axis_count_at_radius(m, R) for R in (40.0, 123.0, 517.0)]
    assert calls == [1]
    assert counts == sorted(counts) and counts[0] > 0


# (model, turning radius aimed at, c, start, r_max, delta_v, length), the osc
# rows with the exponent blends, and every row turning where the decay
# exponent is below 3/4 (all pure rows; osc at 50, 1e39 and 1.3e38) with the
# graded turning map; the comment says whether the turning panel reaches
# past the Taylor switch (direct h evaluations too)
_GOLDEN_ARCS = [
    ('pure', 0.3, 0.9578262852211513, None, 0.3, 3.2829643230007033, 3.2799190229613053),  # Taylor and direct
    ('pure', 2.0, 0.4472135954999579, None, 1.999999999999883, 9.424777960536526, 7.024814730936592),  # Taylor and direct
    ('pure', 1000.0, 0.000999999500000375, None, 999.9999999999998, 1570799.4683874245, 3141.594224385601),  # Taylor and direct
    ('pure', 1000000000000.0, 1e-12, None, 999999999999.999, 1.570796326794082e+24, 3141592653588.978),  # Taylor and direct
    ('pure', 1e+25, 9.999999999999998e-26, None, 9.99999999999889e+24, 1.5707963267065086e+50, 3.1415926535014044e+25),  # Taylor and direct
    ('pure', 1000000.0, 9.999999999995e-07, 10.0, 999999.9999999995, 1570796326797.6118, 3141572.653590938),  # Taylor and direct
    ('osc', 50.0, 0.009143906676474418, None, 50.000000000000014, 7403.745746146327, 148.8814923807822),  # Taylor and direct
    ('osc', 3000000.0, 2.8504208669352084e-16, None, 3000000.0000000023, 7.820699154411978e+21, 7580387.551083958),  # Taylor and direct
    ('osc', 1e+39, 1.58489319246112e-47, None, 1.0000000000000111e+39, 8.540146581353546e+85, 2.9772692137671564e+39),  # Taylor and direct
    ('osc', 1000.0, 3.98142402805952e-06, None, 999.999999999998, 152499047.5602568, 2428.6511319986685),  # Taylor and direct
    ('osc', 1000000000.0, 2.5118864315095845e-22, None, 999999999.9999993, 2.9587020736250084e+30, 2526854021.832695),  # Taylor and direct
    ('osc', 110.0, 0.0029632086992912167, None, 110.00000000000004, 31326.9119623507, 282.9952953527337),  # Taylor and direct
    ('osc', 900000.0, 5.474065527373792e-15, None, 900000.0000000104, 1.0076412118060014e+20, 2190128.022585032),  # Taylor and direct
    ('osc', 4500000000000.0, 4.317888450028927e-31, None, 4499999999999.982, 8.003762147367559e+42, 11466974869739.803),  # Taylor and direct
    ('osc', 1.3e+38, 1.8129233541461107e-46, None, 1.2999999999999926e+38, 1.384566273701718e+84, 4.393765002956954e+38),  # Taylor and direct
    ('osc', 124.99885, 0.002038352734925614, None, 124.99884999999986, 42102.792462722064, 308.875049804254),  # Taylor only
    ('osc', 1000000000.0, 2.5118864315095845e-22, 10000.0, 999999999.9999993, 2.9587020736250084e+30, 2526834021.832695),  # Taylor and direct
]


@pytest.fixture(scope="module")
def golden_metrics():
    _, _, sm = build_oscillating_h(OscillationParams(0.6, 1.2, 0.3, 1.5, 100.0, 2),
                                   radius_bound=1e40, check=False)
    return {"pure": HalfplaneMetric.from_smoothed(pure_model_h(0.5)),
            "osc": HalfplaneMetric.from_smoothed(sm)}


def test_arc_integrals_golden_bits(golden_metrics):
    # turning radii on pure pieces, on both bridges and inside blends of the
    # standard model at 1e40, and across the pure alpha = 0.5 model: any bit
    # the quadrature integrands move fails here
    reached = set()
    for name, r, c, start, r_max, dv, length in _GOLDEN_ARCS:
        m = golden_metrics[name]
        assert repr(m.value(r)) == repr(c)
        assert repr(solve_turning_point(m, c)) == repr(r_max), (name, r)
        assert repr(delta_v_of_c(m, c, start)) == repr(dv), (name, r)
        assert repr(length_of_c(m, c, start)) == repr(length), (name, r)
        a = m.domain_start if start is None else start
        panel = r_max - max([a] + [b for b in m.breakpoints if b < r_max])
        reached.add(panel > halfplane.QuadSettings().taylor_frac * max(r_max, 1.0))
    assert reached == {True, False}  # turning panels with and without direct h


def _turning_point_by_loop(m, c):
    """Reference solve: the bracket grown from hi0 by factors of 4, reading
    h afresh at every rung, then the same brentq as solve_turning_point."""
    st = halfplane.QuadSettings()
    a = m.domain_start
    h_top = m.value(a) if a > 0 else m.value(0.0)
    if not (0 < c < h_top):
        raise OutOfRange(f"need 0 < c < h(start)={h_top}, got c={c}")
    lo = a
    hi = max(1.0, 2.0 * a if a > 0 else 1.0)
    while m.value(hi) > c:
        lo = hi
        hi *= 4.0
        if hi > m.r_cap:
            raise OutOfRange(f"h never reaches {c} below r_cap={m.r_cap}")
    if hi <= 2.0:
        hv = m.value_on(lo, hi)
        return halfplane.brentq(lambda r: hv(r) - c, lo, hi, xtol=1e-15, rtol=8.9e-16)
    lo = max(lo, hi / 8.0, 1e-300)
    hv = m.value_on(lo * (1.0 - 1e-9), hi * (1.0 + 1e-9))
    s = halfplane.brentq(lambda s: hv(math.exp(s)) - c, math.log(lo) - 1e-9,
                         math.log(hi) + 1e-9, xtol=st.turning_rel / 2, rtol=8.9e-16)
    return math.exp(s)


def _turning_outcome(solve, m, c):
    try:
        return repr(solve(m, c))
    except OutOfRange as e:
        return str(e)


@pytest.fixture(scope="module")
def rung_metrics():
    # fresh metrics, so the rungs fill in the order the examples ask for them;
    # the capped one runs out of rungs at r_cap = 3e5, past hi0 * 4^9
    _, _, sm = build_oscillating_h(OscillationParams(0.6, 1.2, 0.3, 1.5, 100.0, 2),
                                   radius_bound=1e40, check=False)
    return [HalfplaneMetric.from_smoothed(sm),
            HalfplaneMetric.from_smoothed(pure_model_h(0.5)),
            HalfplaneMetric.from_warping(power_decay_h(0.5), r_cap=3e5)]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(which=st.integers(0, 2), u=st.floats(0.0, 1.0), j=st.integers(0, 70))
def test_turning_point_rungs_match_the_loop(rung_metrics, which, u, j):
    # c = h(r) at a random radius in [1e-3, 1e42], or [1e-3, 1e6] on the
    # capped metric; c = h at the rung 4^j itself; c at or above h at the start
    m = rung_metrics[which]
    top = 42.0 if which < 2 else 6.0
    c = m.value(10.0 ** (-3.0 + u * (top + 3.0)))
    for c in (c, m.value(4.0 ** j), m.sup_h(), 2.0 * m.sup_h(), 0.0):
        assert _turning_outcome(solve_turning_point, m, c) == _turning_outcome(
            _turning_point_by_loop, m, c)


def test_quadrature_error_budget(golden_metrics):
    # the osc arc at c = 0.002 turns at r = 125.8, on the B bridge just past
    # the first blend, and needs subdivision: one Kronrod rule per panel
    # leaves an error estimate (about 1.7e3 against 2.1e4) above the budget
    # max(abs_floor, 100 rel_tol |total|)
    m = golden_metrics["osc"]
    with pytest.raises(halfplane.QuadratureFailure, match="estimated error"):
        delta_v_of_c(m, 0.002, settings=halfplane.QuadSettings(limit=1))
    assert delta_v_of_c(m, 0.002) == pytest.approx(42936.0867, rel=1e-9)
    with pytest.raises(ValueError, match="Invalid 'limit' argument"):
        delta_v_of_c(m, 0.002, settings=halfplane.QuadSettings(limit=0))


def test_capped_metric_never_answers_with_the_straight_loop(pure_half_metric):
    # below r_cap/2 the capped metric is the uncapped one; past it no arc is
    # representable, and the axis loop (2 pi l, or floor(R / 2 pi)) is no answer
    capped = HalfplaneMetric.from_warping(power_decay_h(0.5), r_cap=1e4)
    for l in (1, 3, 100, 1000, 10**5, 10**7):
        try:
            d, sol = orbit_distance(capped, l)
        except OutOfRange:
            assert l == 10**7
            continue
        assert sol is not None and d != TWO_PI * l
        assert d == pytest.approx(orbit_distance(pure_half_metric, l)[0], rel=1e-12, abs=0)
    for R in (30.0, 1e3, 4e3, 1e4, 1e9):
        try:
            n = halfplane.axis_count_at_radius(capped, R)
        except OutOfRange:
            assert R >= 1e4
            continue
        assert n != math.floor(R / TWO_PI)
        assert n == halfplane.axis_count_at_radius(pure_half_metric, R)
    with pytest.raises(OutOfRange):
        halfplane.axis_count_at_radius(capped, 1e9)


@pytest.mark.parametrize("model", ["pure", "osc"])
def test_scan_bracketed_distance_matches_the_newton_path(model, osc_build):
    # the scan's bracket and the Newton steps' bracket close on the same root
    # under brentq's 1e-12 stop in log c
    sm = pure_model_h(0.5) if model == "pure" else osc_build[2]
    bracketed = HalfplaneMetric.from_smoothed(sm)
    fresh = HalfplaneMetric.from_smoothed(sm)  # never scanned
    for l in sorted({round(l) for l in np.geomspace(1, 1e15, 16)}):
        d, _ = orbit_distance(bracketed, l)
        d_newton, _ = orbit_distance(fresh, l, verify_monotone=False)
        assert d == pytest.approx(d_newton, rel=2e-12, abs=0)


def test_newton_phase_runs_only_for_targets_outside_the_scan():
    # the capped metric's scan ends at r_cap/4, with delta_v near 1e7; a
    # target past its last row, or below its first, has no bracketing rows
    capped = HalfplaneMetric.from_warping(power_decay_h(0.5), r_cap=1e4)
    rows = verify_delta_v_monotone(capped)
    newton_targets = []
    real = halfplane._newton_bracket

    def spy(m, quantity, target, *args):
        newton_targets.append(target)
        return real(m, quantity, target, *args)

    targets = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(halfplane, "_newton_bracket", spy)
        for l in (0.4, 1, 3, 100, 1000, 10**5, 10**6, 10**7):
            targets.append(TWO_PI * l)
            try:
                orbit_distance(capped, l)
            except OutOfRange:
                assert l == 10**7
    outside = [t for t in targets if not rows[0][2] <= t <= rows[-1][2]]
    assert newton_targets == outside == [TWO_PI * 0.4, TWO_PI * 10**7]


def test_default_ladder_count_past_the_representable_floor_raises(osc_metric):
    # the default 1e300 ladder caps turning radii at 1e100: an arc of length
    # 1e101 turns past it, where the straight-loop count would read 1.6e100
    with pytest.raises(OutOfRange):
        halfplane.axis_count_at_radius(osc_metric, 1e101)


def test_straight_loop_when_every_arc_overshoots():
    # (1+r^2)^-0.1 keeps delta_v above pi/sqrt(0.2) > 2 pi on every arc from
    # the axis, so the axis loop is d_1 and the only loop within R = 7
    m = HalfplaneMetric.from_warping(power_decay_h(0.1))
    assert orbit_distance(m, 1) == (TWO_PI, None)
    assert halfplane.axis_count_at_radius(m, 7.0) == 1


def test_smoothed_metric_reads_h_as_arrays_bit_for_bit(osc_metric, osc_build):
    # one array call of sm.jet; every entry, coerced to a double, equals the
    # metric's per-radius jet, also past 7e107, where the default model's
    # bridge underflows in doubles and the query is answered in mpmath
    sm = osc_build[2]
    rng = np.random.default_rng(19)
    radii = [0.0, *(10.0 ** rng.uniform(-3.0, 289.0, 400)).tolist()]
    for b in sm.blends:
        radii += [math.nextafter(x, d) for x in b._edges_f if math.isfinite(x)
                  for d in (-math.inf, math.inf)]
    radii = [r for r in radii if r < 1e290]
    rs = np.array(radii)
    with np.errstate(over="ignore"):  # r*r past 1e154 is inf, as in floats
        assert sm.kernel(rs)[3].any()  # some entries are promoted
        ja = sm.jet(rs)
    for i, r in enumerate(radii):
        j = osc_metric.jet(r)
        got = [float(ja.value[i]), float(ja.d1[i]), float(ja.d2[i])]
        assert np.array(got).tobytes() == np.array([j.value, j.d1, j.d2]).tobytes(), r


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(r=st.floats(0.0, 1e300), p=st.sampled_from([0.1, 0.5, 0.6, 1.2, 1.5]))
def test_power_decay_value_form_matches_jet(r, p):
    w = power_decay_h(p)
    m = HalfplaneMetric.from_warping(w)
    assert np.float64(m.value(r)).tobytes() == np.float64(float(w(r).value)).tobytes()


def _memo_models():
    # fresh metrics on every call: osc-1e40, pure, and pure capped at 3e5
    _, _, sm = build_oscillating_h(OscillationParams(0.6, 1.2, 0.3, 1.5, 100.0, 2),
                                   radius_bound=1e40, check=False)
    pure = pure_model_h(0.5)
    return [lambda: HalfplaneMetric.from_smoothed(sm),
            lambda: HalfplaneMetric.from_smoothed(pure),
            lambda: HalfplaneMetric.from_warping(power_decay_h(0.5), r_cap=3e5)]


@pytest.fixture(scope="module")
def memo_models():
    makers = _memo_models()
    return makers, [make() for make in makers]  # the second list fills across examples


def _arc_outcome(fn, m, c, start, st=None):
    try:
        return fn(m, c, start, st).hex()
    except (OutOfRange, halfplane.QuadratureFailure) as e:
        return str(e)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(which=st.integers(0, 2), u=st.floats(0.0, 1.0), start_frac=st.sampled_from([None, 0.25, 0.9]),
       dv=st.booleans())
def test_arc_memo_hit_has_the_bits_of_a_fresh_metric(memo_models, which, u, start_frac, dv):
    # c = h at a random radius; the start is the domain start, or a radius
    # below the turning point as Grushin's equal-t arcs take it
    makers, shared = memo_models
    m = shared[which]
    top = 42.0 if which < 2 else 5.0
    r = 10.0 ** (-2.0 + u * (top + 2.0))
    c = m.value(r)
    start = None if start_frac is None else start_frac * r
    fn = delta_v_of_c if dv else length_of_c
    first = _arc_outcome(fn, m, c, start)
    computed = []
    quadrature = halfplane._arc_quadrature
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(halfplane, "_arc_quadrature", lambda *a: computed.append(a) or quadrature(*a))
        again = _arc_outcome(fn, m, c, start)
    fresh = makers[which]()
    assert again == first == _arc_outcome(fn, fresh, c, start)
    assert repr(solve_turning_point(m, c)) == repr(solve_turning_point(fresh, c))
    if first.startswith(("0x", "-0x")):
        assert not computed  # a stored arc, or one with r_max <= start, integrates nothing


def test_arc_memo_keys_settings_start_and_quantity(memo_models):
    # on the osc-1e40 metric at c = h(110), inside the first blend, a looser
    # rel_tol moves the bits of both quantities; every settings object is a
    # key of its own
    make = memo_models[0][0]
    m = make()
    c = m.value(110.0)
    coarse, loose_turn = halfplane.QuadSettings(rel_tol=1e-6), halfplane.QuadSettings(turning_rel=1e-9)
    calls = [(delta_v_of_c, None, None), (delta_v_of_c, None, coarse), (delta_v_of_c, 5.0, None),
             (delta_v_of_c, None, loose_turn), (length_of_c, None, None), (length_of_c, 5.0, coarse)]
    got = [fn(m, c, start, st_) for fn, start, st_ in calls]
    assert len(m._arcs) == len(calls) and len(m._turning) == 3
    assert got[0] != got[1] and length_of_c(m, c, 5.0) != got[5]
    for (fn, start, st_), v in zip(calls, got):
        assert fn(m, c, start, st_).hex() == v.hex() == fn(make(), c, start, st_).hex()
    assert len(m._arcs) == len(calls) + 1  # length_of_c(m, c, 5.0) above


def test_arc_memo_stores_no_quadrature_failure(memo_models):
    # one Kronrod rule per panel leaves the osc arc at c = 0.002 above its
    # error budget (test_quadrature_error_budget): the failure is not stored
    make = memo_models[0][0]
    m = make()
    one_rule = halfplane.QuadSettings(limit=1)
    for _ in range(2):
        with pytest.raises(halfplane.QuadratureFailure, match="estimated error"):
            delta_v_of_c(m, 0.002, settings=one_rule)
    assert all(key[2] != one_rule for key in m._arcs)
    assert delta_v_of_c(m, 0.002).hex() == delta_v_of_c(make(), 0.002).hex()
