import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from warplab import halfplane
from warplab.halfplane import (
    GeodesicSolution,
    HalfplaneMetric,
    OutOfRange,
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
from warplab.smoothing import build_oscillating_h
from warplab.warping import constant_h, exp_decay_h, grushin_h, power_decay_h

from .oracles import (
    hyperbolic_arc,
    log_ulps,
    mp_log_h,
    power_arc_oracle,
    smoothed_arc_oracle,
)


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
    for c in (m.sup_h(), 1.5, 0.0):  # at or above h(start), or not positive
        with pytest.raises(OutOfRange, match="need 0 < c < h"):
            solve_turning_point(m, c)
    # h(1e6) is reached only past r_cap = 3e5, where the bracket runs out
    capped = HalfplaneMetric.from_warping(power_decay_h(0.5), r_cap=3e5)
    with pytest.raises(OutOfRange, match="below r_cap"):
        solve_turning_point(capped, capped.value(1e6))
    assert solve_turning_point(capped, capped.value(1e5)) == pytest.approx(1e5, rel=1e-11)


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


# log delta_v and length of h = (1+r^2)^(-p) from the axis at Clairaut
# constant c, from power_arc_oracle (30 digits);
# test_power_arc_table_is_the_oracle recomputes two rows.  The rows at
# c = 1e-100 to 1e-300 turn where log h - log c cancels most; at c = 1e-300
# delta_v (about 1e400) is past the double range, its log is not
_POWER_ARC_TABLE = {
    (0.1, 0.9): (2.4147712680339994, 10.9531762910081),
    (0.1, 0.5): (5.752786988072297, 188.752413055866),
    (0.1, 0.1): (15.406527573460377, 589048.629241693),
    (0.1, 0.01): (29.22203810440637, 58904862254.8086),
    (0.1, 0.0001): (56.85305922033491, 5.89048622548085e+20),
    (0.1, 1e-08): (112.11510145219201, 5.89048622548083e+40),
    (0.1, 1e-12): (167.3771436840491, 5.89048622548082e+60),
    (0.2, 0.9): (1.8429493245480215, 6.2423829142839),
    (0.2, 0.5): (3.6033628288828248, 25.013605852895),
    (0.2, 0.1): (9.197401882115056, 1381.96511215919),
    (0.2, 0.01): (17.25640837525086, 437009.592615668),
    (0.2, 0.0001): (33.37450402469295, 43700959238.2019),
    (0.2, 1e-08): (65.61069532660959, 4.37009592382019e+20),
    (0.2, 1e-12): (97.84688662852624, 4.37009592382018e+30),
    (0.3, 0.9): (1.5678557274020535, 4.75693461357742),
    (0.3, 0.5): (2.7951645102976204, 12.0565812515919),
    (0.3, 0.1): (6.9885268141060735, 173.353933818593),
    (0.3, 0.01): (13.127976507672233, 8045.02843770482),
    (0.3, 0.0001): (25.408429869119672, 17332486.4215577),
    (0.3, 1e-08): (49.969337527722715, 80450275433044.9),
    (0.3, 1e-12): (74.53024518632587, 3.73417100111094e+20),
    (0.4, 0.9): (1.3883918043282915, 3.98218390558783),
    (0.4, 0.5): (2.3509875396266975, 8.12325434077939),
    (0.4, 0.1): (5.813144769130782, 60.0369551590939),
    (0.4, 0.01): (10.99022010715576, 1067.23373597096),
    (0.4, 0.0001): (21.35184034602666, 337488.474417789),
    (0.4, 1e-08): (42.07510618284459, 33748847441.2974),
    (0.4, 1e-12): (62.798372019791, 3374884744129740.0),
    (0.5, 0.9): (1.2556305818828417, 3.49065850398866),
    (0.5, 0.5): (2.061020617723555, 6.28318530717959),
    (0.5, 0.1): (5.066703222130714, 31.4159265358979),
    (0.5, 0.01): (9.66202307226597, 314.159265358979),
    (0.5, 0.0001): (18.87226345924182, 31415.9265358979),
    (0.5, 1e-08): (37.29294419319419, 314159265.358979),
    (0.5, 1e-12): (55.71362493714655, 3141592653589.79),
    (0.6, 0.9): (1.150421613197954, 3.14421697408745),
    (0.6, 0.5): (1.8520131970596667, 5.2196497255225),
    (0.6, 0.1): (4.54322173459144, 20.2515626584286),
    (0.6, 0.01): (8.745719088302595, 138.181006624282),
    (0.6, 0.0001): (17.18812592559577, 6414.02776698362),
    (0.6, 1e-08): (34.07374975331725, 13818604.1596336),
    (0.6, 1e-12): (50.95937376860688, 29771280169.3336),
    (0.75, 0.9): (1.0248648619756977, 2.77511887797082),
    (0.75, 0.5): (1.6236785437729322, 4.25809622172266),
    (0.75, 0.1): (3.9905338242315063, 12.9305297068728),
    (0.75, 0.01): (7.791835952660078, 60.3983056666409),
    (0.75, 0.0001): (15.465456973593021, 1301.66963161821),
    (0.75, 1e-08): (30.81602069180955, 604181.953889018),
    (0.75, 1e-12): (46.166587978419955, 280436421.065091),
    (1.0, 0.9): (0.8671026813782552, 2.3717279167421),
    (1.0, 0.5): (1.3643637736724412, 3.37150070962519),
    (1.0, 0.1): (3.3956198898903764, 8.11193557203541),
    (1.0, 0.01): (6.780044446611213, 26.1609940588),
    (1.0, 0.0001): (13.680926155814763, 262.199765055773),
    (1.0, 1e-08): (27.496368169746173, 26220.5754830142),
    (1.0, 1e-12): (41.31187872085693, 2622057.55429152),
    (1.2, 0.9): (0.7690054580675921, 2.1508560279424),
    (1.2, 0.5): (1.2160180244895038, 2.94568052292905),
    (1.2, 0.1): (3.074959015058932, 6.34634185539754),
    (1.2, 0.01): (6.241464859509856, 17.1165929353982),
    (1.2, 0.0001): (12.75148312367607, 117.271630412277),
    (1.2, 1e-08): (25.7991641547943, 5443.94164792426),
    (1.2, 1e-12): (38.84714620870017, 252685.402176616),
    (1.2, 1e-100): (325.90275446855964, 1.17286174119128e+42),
    (1.2, 1e-200): (652.1023093093828, 5.44394196128509e+83),
    (1.2, 1e-300): (978.3018641502059, 2.5268540218337e+125),
    (1.5, 0.9): (0.6505134229992471, 1.91117587620129),
    (1.5, 0.5): (1.0476674549753109, 2.52331135910076),
    (1.5, 0.1): (2.731233794331536, 4.89120480095236),
    (1.5, 0.01): (5.670887376237465, 11.1120330660467),
    (1.5, 0.0001): (11.782822436009386, 52.2890271502273),
    (1.5, 1e-08): (24.06195196634978, 1127.27816379264),
    (1.5, 1e-12): (36.342402947122345, 24286.5064041924),
    (1.5, 1e-100): (306.5123871856068, 5.23236920577742e+33),
    (1.5, 1e-200): (613.5237329181463, 1.12727977279814e+67),
    (1.5, 1e-300): (920.5350786506857, 2.42865064788758e+100),
    (2.0, 0.9): (0.49976838771889925, 1.64430681417957),
    (2.0, 0.5): (0.8474834076027042, 2.09428913405836),
    (2.0, 0.1): (2.3526815800383445, 3.67216453363102),
    (2.0, 0.01): (5.054250550374827, 7.0991544699503),
    (2.0, 0.0001): (10.754019915962337, 23.1902907565579),
    (2.0, 1e-08): (22.261130816668725, 232.710366466767),
    (2.0, 1e-12): (33.77399850986219, 2327.1843276672),
    (3.0, 0.9): (0.29014816929824483, 1.33381646364288),
    (3.0, 0.5): (0.5888738363485018, 1.63994205481727),
    (3.0, 0.1): (1.912884087736023, 2.61659864940332),
    (3.0, 0.01): (4.36280777834279, 4.36393643109202),
    (3.0, 0.0001): (9.624394299981903, 10.1233815065718),
    (3.0, 1e-08): (20.344558196106565, 47.8341241582433),
    (3.0, 1e-12): (31.08881562546621, 222.207066557573),
}


def test_power_arc_table_is_the_oracle():
    for p, c in ((0.1, 0.1), (3.0, 1e-12), (1.5, 1e-300)):
        dv, ln, _ = power_arc_oracle(p, c)
        with mp.workdps(30):
            got = (float(mp.log(dv)), float(ln))
        assert got == pytest.approx(_POWER_ARC_TABLE[p, c], rel=1e-14)


def _rel_errs(log_dv, length, want):
    """Relative errors of delta_v (given and wanted as logs) and length."""
    return abs(math.expm1(log_dv - want[0])), abs(length / want[1] - 1.0)


def test_arc_integrals_match_the_power_oracle_table():
    # the graded turning map (p < 3/4) and t = sqrt(r_max - r) alike, on the
    # arc at c (clairaut_arc: the arc turning at the solved r_max): every arc
    # within 1e-9, and none worse than the 1.89e-10 that t on every turning
    # panel and h read as a double had (p = 1, c = 1e-4, delta_v)
    metrics = {}
    worst = 0.0
    for (p, c), want in _POWER_ARC_TABLE.items():
        m = metrics.setdefault(p, HalfplaneMetric.from_warping(power_decay_h(p)))
        sol = clairaut_arc(m, c)
        errs = _rel_errs(sol.log_delta_v, sol.length, want)
        assert max(errs) <= 1e-9, (p, c)
        worst = max(worst, *errs)
    assert worst <= 1.89e-10


def _power_turning_radius(p, c):
    """The double nearest the turning radius of (1+r^2)^(-p) at c."""
    with mp.workdps(30):
        return float(mp.sqrt(mp.mpf(c) ** (-1 / mp.mpf(p)) - 1))


def test_arcs_by_turning_radius_match_the_power_oracle_table():
    # the arc turning at the double r_max nearest the table row's turning
    # radius: its c' = h(r_max) is within a few 1e-16 of c, which moves the
    # oracle's values by less than 4e-15 (checked live below).  log c is
    # log h(r_max) itself, so no turning-radius error enters: the worst arc
    # is 8.8e-11 (p = 0.3, c = 0.01, delta_v)
    metrics = {}
    worst = 0.0
    for (p, c), want in _POWER_ARC_TABLE.items():
        m = metrics.setdefault(p, HalfplaneMetric.from_warping(power_decay_h(p)))
        r_max = _power_turning_radius(p, c)
        errs = _rel_errs(delta_v_of_c(m, r_max), length_of_c(m, r_max), want)
        assert max(errs) <= 1.89e-10, (p, c)
        worst = max(worst, *errs)
    assert worst <= 9e-11


# (p, log c): the double r_max nearest the turning radius of h = (1+r^2)^(-p)
# at c = exp(log c), past the double range of c, and log delta_v and length
# from power_arc_oracle at c' = h(r_max) in 30 digits
_FAR_POWER_ARCS = {
    (1.5, -1000.0): (5.818717881446996e+144, 1332.8343747864008, 1.4131632952651304e+145),
    (1.5, -2000.0): (3.3857477783871018e+289, 2666.167708119734, 8.222798535563776e+289),
    (3.0, -1000.0): (2.412201874107347e+72, 1165.5192355852041, 5.36029514905155e+72),
    (3.0, -2000.0): (5.818717881446996e+144, 2332.185902251871, 1.2930114004310668e+145),
}


def test_far_power_arcs_are_the_oracle():
    p, lc = 3.0, -1000.0
    r_max, log_dv, length = _FAR_POWER_ARCS[p, lc]
    with mp.workdps(30):
        assert float(mp.sqrt(mp.exp(lc) ** (-1 / mp.mpf(p)) - 1)) == r_max
        dv, ln, _ = power_arc_oracle(p, (1 + mp.mpf(r_max) ** 2) ** -mp.mpf(p))
        assert (float(mp.log(dv)), float(ln)) == pytest.approx((log_dv, length), rel=1e-14)


def test_arcs_past_the_double_range_of_c_match_the_oracle():
    # c = e^-1000 and e^-2000 are no doubles and delta_v is past the double
    # range, but log c, log delta_v and the length are: each arc within the
    # table's 1.89e-10 (1.37e-10 worst, p = 1.5 at log c = -2000, delta_v),
    # and its solution's delta_v says OutOfRange, not inf
    for (p, lc), (r_max, log_dv, length) in _FAR_POWER_ARCS.items():
        m = HalfplaneMetric.from_warping(power_decay_h(p))
        assert abs(m.log_h(r_max) - lc) <= 1e-12 * abs(lc)
        errs = _rel_errs(delta_v_of_c(m, r_max), length_of_c(m, r_max), (log_dv, length))
        assert max(errs) <= 1.89e-10, (p, lc)
    sol = invert_arc(m, "length", length)
    assert sol.length == pytest.approx(length, rel=1e-10)
    assert sol.log_delta_v == pytest.approx(log_dv, rel=1e-12)
    with pytest.raises(OutOfRange, match="past the double range"):
        sol.delta_v


def test_arcs_by_turning_radius_against_the_live_oracle():
    # at c' = h(r_max) in 30 digits: the table's rows hold there, and the
    # pure 1/2 arc turning at r_max = 2 (c' = 1/sqrt(5)) is off by 2.2e-14
    for p, c in ((0.1, 0.1), (3.0, 1e-12)):
        r_max = _power_turning_radius(p, c)
        with mp.workdps(30):
            dv, length, _ = power_arc_oracle(p, (1 + mp.mpf(r_max) ** 2) ** -mp.mpf(p))
            got = (float(mp.log(dv)), float(length))
        assert got == pytest.approx(_POWER_ARC_TABLE[p, c], rel=4e-15)
    m = HalfplaneMetric.from_warping(power_decay_h(0.5))
    with mp.workdps(30):
        dv, length, _ = power_arc_oracle(0.5, 1 / mp.sqrt(5))
    assert math.exp(delta_v_of_c(m, 2.0)) == pytest.approx(float(dv), rel=1e-13, abs=0)
    assert length_of_c(m, 2.0) == pytest.approx(float(length), rel=1e-13, abs=0)


@pytest.mark.parametrize("p, c, panels", [(0.1, 0.0755, 2), (0.15, 0.0443, 2), (0.6, 0.1, 1)])
def test_graded_panel_gives_the_knee_its_own_interval(monkeypatch, p, c, panels):
    # at p = 0.1 and 0.15 these arcs were off by 8.8e-10 and 2.2e-10 with
    # the knee at r ~ 1 squeezed into the graded panel's last 2 %; at p = 0.6
    # it holds too little of the integral to need its own interval
    from warplab import halfplane

    spans = []
    real = halfplane._quad_panel

    def spy(f, a, b, *rest):
        spans.append((a, b))
        return real(f, a, b, *rest)

    monkeypatch.setattr(halfplane, "_quad_panel", spy)
    m = HalfplaneMetric.from_warping(power_decay_h(p))
    dv, length, _ = power_arc_oracle(p, c)
    sol = clairaut_arc(m, c)
    assert sol.delta_v == pytest.approx(float(dv), rel=1.89e-10)
    assert sol.length == pytest.approx(float(length), rel=1.89e-10)
    assert len(spans) == 2 * panels
    assert spans[0][0] == 0.0 and spans[panels - 1][1] == 1.0


# QK21 rules for delta_v and length of h = (1+r^2)^(-p) from the axis at 25
# log-spaced c in [1e-12, 0.9] (50 arcs, each turning at its solved r_max),
# with t = sqrt(r_max - r) on every turning panel
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
            clairaut_arc(m, c)
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


def test_arc_turning_a_sliver_past_its_start():
    # r_max - start below the panels' sliver 1e-12 max(r_max, 1) is one
    # turning panel; there 1 - rho^2 = 2k (r_max - r) to first order,
    # k = r/(1+r^2) for h = (1+r^2)^(-1/2), so length = 4 sqrt(span/2k)
    # and delta_v = length/c
    m = HalfplaneMetric.from_warping(power_decay_h(0.5))
    a = 10.0
    r_max = a * (1 + 1e-13)
    sol = GeodesicSolution(m.log_h(r_max), r_max, delta_v_of_c(m, r_max, a),
                           length_of_c(m, r_max, a), start=a)
    length = 4.0 * math.sqrt((r_max - a) / (2.0 * a / (1.0 + a * a)))
    assert sol.length == pytest.approx(length, rel=1e-6)
    assert sol.delta_v == pytest.approx(length / m.value(r_max), rel=1e-6)


def test_geodesic_solution_invariants():
    with pytest.raises(AssertionError):
        GeodesicSolution(log_c=math.log(0.5), r_max=10.0, log_delta_v=math.log(4.0), length=1.0)
    with pytest.raises(AssertionError):
        GeodesicSolution(log_c=math.log(0.5), r_max=10.0, log_delta_v=0.0, length=19.0)
    # past the double range only delta_v itself is refused
    far = GeodesicSolution(log_c=-2000.0, r_max=1e289, log_delta_v=2000.0, length=3e289)
    with pytest.raises(OutOfRange, match="past the double range"):
        far.delta_v


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
        assert d >= sol.delta_v * math.exp(sol.log_c) * (1 - 1e-9)
        assert d >= 2.0 * sol.r_max * (1 - 1e-9)


def test_flat_metric_distance_is_refused_by_the_scan():
    # a constant h has no turning point, so the strict-increase scan that
    # guards every distance finds no arc to start from; the axis loop answers
    # only where every arc overshoots (test_newton_steps_know_the_axis_flattening)
    flat = HalfplaneMetric.from_warping(constant_h(1.0))
    with pytest.raises(OutOfRange, match="never reaches"):
        orbit_distance(flat, 4)


def test_delta_v_monotone_scan(pure_half_metric):
    rows = verify_delta_v_monotone(pure_half_metric)  # passes and caches
    assert verify_delta_v_monotone(pure_half_metric) is rows
    assert len(rows) == 200
    assert all(x1 > x0 and dv1 > dv0 for (x0, _, dv0), (x1, _, dv1) in zip(rows, rows[1:]))
    # each row is the memoized arc turning at r_max = exp(x), with its log
    # delta_v, within 1e-10 of the arc at its c = h(r_max)
    for x, r_max, log_dv in rows[::40]:
        assert r_max == math.exp(x)
        assert delta_v_of_c(pure_half_metric, r_max) == log_dv
        c = pure_half_metric.value(r_max)
        assert clairaut_arc(pure_half_metric, c).log_delta_v == pytest.approx(log_dv, abs=1e-10)
    # the first row turns where c is (1 - 1e-6) sup h
    assert pure_half_metric.value(rows[0][1]) == pytest.approx(1.0 - 1e-6, rel=1e-15)


def test_monotone_scan_runs_at_the_metric_rel_tol(monkeypatch):
    # each metric scans once, every panel at its own rel_tol: a loose metric's
    # scan says nothing of a default one, whose first distance scans anew
    epsrels = []
    real = halfplane.quad

    def spy(*args, **kwargs):
        epsrels.append(kwargs["epsrel"])
        return real(*args, **kwargs)

    monkeypatch.setattr(halfplane, "quad", spy)
    loose = HalfplaneMetric.from_warping(power_decay_h(0.5), rel_tol=1e-6)
    rows = verify_delta_v_monotone(loose)
    assert len(epsrels) >= 200 and set(epsrels) == {1e-6}
    assert verify_delta_v_monotone(loose) is rows and loose._scan is rows
    epsrels.clear()
    m = HalfplaneMetric.from_warping(power_decay_h(0.5))
    orbit_distance(m, 50)
    assert len(epsrels) > 200 and set(epsrels) == {1e-9}
    assert len(m._scan) == halfplane._SCAN_N


def test_delta_v_values_decrease_in_c(pure_half_metric):
    cs = np.geomspace(0.9, 1e-3, 12)
    dvs = [clairaut_arc(pure_half_metric, float(c)).delta_v for c in cs]
    assert all(b > a for a, b in zip(dvs, dvs[1:]))


# -- the seeded arc inversion ------------------------------------------------

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _delta_v_arcs_per_distance(m, l):
    """d_l, and the delta_v arcs orbit_distance integrated for it: misses of
    the metric's arc memo, which answers repeated evaluations.  The memo
    holds only the scan rows during the solve, so the count is one
    inversion's work whatever earlier solves on the shared metric stored."""
    rows = {(r_max, m.domain_start, True) for _, r_max, _ in verify_delta_v_monotone(m)}
    arcs = []
    real = halfplane._arc_quadrature

    def spy(m, start, r_max, dv):
        arcs.append(dv)
        return real(m, start, r_max, dv)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(m, "_arcs", {k: v for k, v in m._arcs.items() if k in rows})
        mp.setattr(halfplane, "_arc_quadrature", spy)
        d, _ = orbit_distance(m, l)
    return d, sum(arcs)


def _osc_window_indices(osc_build, a):
    """Index window of the standard oscillating model at the alpha stretch of
    period 2 (S = 2 R14) or the first beta stretch (S = 2 R12)."""
    ladder, _ = osc_build
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
    by_c = clairaut_arc(pure_half_metric, math.exp(sol.log_c))
    assert by_c.delta_v == pytest.approx(target, rel=1e-10)
    d1, n1 = _delta_v_arcs_per_distance(pure_half_metric, l1)
    d2, n2 = _delta_v_arcs_per_distance(pure_half_metric, l2)
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
    assert clairaut_arc(osc_metric, math.exp(sol.log_c)).delta_v == pytest.approx(target, rel=1e-10)
    d1, n1 = _delta_v_arcs_per_distance(osc_metric, l1)
    d2, n2 = _delta_v_arcs_per_distance(osc_metric, l2)
    assert d1 <= d2 if l1 < l2 else d1 == d2
    assert max(n1, n2) <= 12


def test_consecutive_distances_are_arcs():
    # consecutive indices as the capacity step tabulates them: a solve that
    # crept up on its root from one side without a bracket would end in
    # TargetUnreachable and fall back to the straight axis loop
    m = HalfplaneMetric.from_warping(power_decay_h(0.6))
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
    ref = clairaut_arc(pure_half_metric, math.exp(sol.log_c))
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


def _arcs_spent(monkeypatch):
    """A list that gains one entry per arc quadrature from here on."""
    arcs = []
    real = halfplane._arc_quadrature
    monkeypatch.setattr(halfplane, "_arc_quadrature", lambda *a: arcs.append(a[3]) or real(*a))
    return arcs


def test_newton_steps_know_the_axis_flattening(monkeypatch):
    # from the axis, delta_v flattens to pi/sqrt(2p) where h'(0) = 0: the
    # slope model's factor r^2/(1+r^2) walks to the lower clamp in 3 arcs
    # (19 with the far-field slope alone), and d_1 of (1+r^2)^-0.1 costs 6 (8)
    arcs = _arcs_spent(monkeypatch)
    with pytest.raises(halfplane.TargetUnreachable) as e:
        invert_arc(HalfplaneMetric.from_warping(power_decay_h(0.5)), "delta_v", 1.0)
    assert e.value.overshoot and len(arcs) <= 4
    m = HalfplaneMetric.from_warping(power_decay_h(0.1))
    verify_delta_v_monotone(m)  # the guard's scan, whose rows d_1 lies below
    arcs.clear()
    assert orbit_distance(m, 1) == (TWO_PI, None)
    assert len(arcs) <= 6
    # exp(-r) has h'(0) = -1, so delta_v grows like sqrt(8 r_max) from the
    # axis and the factor is 1/2 there, not r^2/(1+r^2): 5, 5, 7 and 9 arcs
    # (10, 10, 9 and 10 with the far-field slope alone)
    hyp = HalfplaneMetric.from_warping(exp_decay_h())
    for target, budget in ((1e-4, 5), (1e-3, 5), (0.1, 7), (1.0, 9)):
        arcs.clear()
        assert invert_arc(hyp, "delta_v", target).delta_v == pytest.approx(target, rel=1e-10)
        assert len(arcs) <= budget, target


@pytest.mark.parametrize("model", ["pure", "osc"])
def test_axis_count_matches_table_on_tabulated_scales(model, pure_half_metric, osc_metric):
    # radii between consecutive tabulated distances, d_l < R < d_{l+1}: the
    # length inversion names l
    m = pure_half_metric if model == "pure" else osc_metric
    table = OrbitTable(m)
    for l in (2, 17, 250, 4000):
        R = math.sqrt(table.distance(l) * table.distance(l + 1))
        assert table.distance(l) < R < table.distance(l + 1)
        assert table.ball_index(R) == l


# (model, turning radius aimed at, c, start, r_max, log delta_v, length), the osc
# rows with the exponent blends, and every row turning where the decay
# exponent is below 3/4 (all pure rows; osc at 50, 1e39 and 1.3e38) with the
# graded turning map; the comment says whether the turning panel reaches
# past the Taylor switch (direct h evaluations too)
_GOLDEN_ARCS = [
    ('pure', 0.3, 0.9578262852211514, None, 0.2999999999999999, 1.1887467712661823, 3.279919022961933),  # Taylor and direct
    ('pure', 2.0, 0.447213595499958, None, 2.000000000000144, 2.243342174517624, 7.02481473104121),  # Taylor and direct
    ('pure', 1000.0, 0.0009999995000003752, None, 999.999999999997, 14.267095263251647, 3141.594224385599),  # Taylor and direct
    ('pure', 1000000000000.0, 1.000000000000001e-12, None, 999999999999.999, 55.71362493714694, 3141592653590.4),  # Taylor and direct
    ('pure', 1e+25, 9.999999999999973e-26, None, 1.0000000000000027e+25, 115.58083735499068, 3.1415926535881258e+25),  # Taylor and direct
    ('pure', 1000000.0, 9.999999999994996e-07, 10.0, 1000000.0000000688, 28.08260382122042, 3141572.6535920193),  # Taylor and direct
    ('osc', 50.0, 0.009143906676474417, None, 50.000000000000014, 8.909741333037065, 148.88149238078122),  # Taylor and direct
    ('osc', 3000000.0, 2.850420866935207e-16, None, 3000000.0000000023, 50.411060909370484, 7580387.55108338),  # Taylor and direct
    ('osc', 1e+39, 1.584893192461124e-47, None, 9.999999999999969e+38, 197.86451107623495, 2.977269213759413e+39),  # Taylor and direct
    ('osc', 1000.0, 3.981424028059526e-06, None, 999.999999999997, 18.84266890848933, 2428.6511320008594),  # Taylor and direct
    ('osc', 1000000000.0, 2.5118864315095808e-22, None, 999999999.9999993, 70.16230347335043, 2526854021.8308744),  # Taylor and direct
    ('osc', 110.0, 0.0029632086992912167, None, 110.00000000001195, 10.352232814208392, 282.9952953527497),  # Taylor and direct
    ('osc', 900000.0, 5.474065527373754e-15, None, 899999.9999999992, 46.05931402549052, 2190128.0225800686),  # Taylor and direct
    ('osc', 4500000000000.0, 4.317888450028989e-31, None, 4500000000000.397, 98.78848560531284, 11466974869752.56),  # Taylor and direct
    ('osc', 1.3e+38, 1.8129233541461368e-46, None, 1.299999999999974e+38, 193.74253474232486, 4.3937650029898195e+38),  # Taylor and direct
    ('osc', 124.99885, 0.002038352734925615, None, 124.99885000000197, 10.647869346752758, 308.87504980441975),  # Taylor only
    ('osc', 1000000000.0, 2.5118864315095808e-22, 10000.0, 999999999.9999993, 70.16230347335043, 2526834021.8308744),  # Taylor and direct
]


@pytest.fixture(scope="module")
def osc_1e40():
    """The standard oscillating model's smoothed h, its ladder cut at 1e40."""
    return build_oscillating_h(OscillationParams(0.6, 1.2, 0.3, 1.5, 100.0, 2),
                               radius_bound=1e40)[1]


@pytest.fixture(scope="module")
def golden_metrics(osc_1e40):
    return {"pure": HalfplaneMetric.from_warping(power_decay_h(0.5)),
            "osc": HalfplaneMetric.from_smoothed(osc_1e40)}


def test_arc_integrals_golden_bits(golden_metrics):
    # turning radii on pure pieces, on both bridges and inside blends of the
    # standard model at 1e40, and across the pure alpha = 0.5 model: any bit
    # the quadrature integrands move fails here
    reached = set()
    for name, r, c, start, r_max, log_dv, length in _GOLDEN_ARCS:
        m = golden_metrics[name]
        assert repr(m.value(r)) == repr(c)
        assert repr(solve_turning_point(m, c)) == repr(r_max), (name, r)
        assert repr(delta_v_of_c(m, r_max, start)) == repr(log_dv), (name, r)
        assert repr(length_of_c(m, r_max, start)) == repr(length), (name, r)
        a = m.domain_start if start is None else start
        panel = r_max - max([a] + [b for b in m.breakpoints if b < r_max])
        reached.add(panel > halfplane._TAYLOR_FRAC * max(r_max, 1.0))
    assert reached == {True, False}  # turning panels with and without direct h


# turning radii of the osc 1e40 model: on pieces (30, 1e8, 3e12, 1e39, 9e39)
# and bridges (1e3, 1e20, 1e37), and per blend (index, where) just past its
# lo edge, at the middle of its span in log r and just past its hi edge
_ORACLE_TURNS = [30.0, 1e3, 1e8, 3e12, 1e20, 1e37, 1e39, 9e39,
                 *((i, where) for i in range(4) for where in ("lo", "mid", "hi"))]


@pytest.fixture(scope="module")
def osc_oracle_arcs(osc_1e40):
    """(r_max, delta_v, length) by entry of _ORACLE_TURNS, from the oracle."""
    radii = []
    for turn in _ORACLE_TURNS:
        if isinstance(turn, tuple):
            blend = osc_1e40.blends[turn[0]]
            lo, hi = blend.lo, blend.hi
            turn = {"lo": lo * (1 + 1e-6), "mid": math.sqrt(lo * hi), "hi": hi * (1 + 1e-6)}[turn[1]]
        radii.append(turn)
    arcs = smoothed_arc_oracle(osc_1e40, radii)
    return {turn: (r, *arc) for turn, r, arc in zip(_ORACLE_TURNS, radii, arcs)}


@pytest.mark.parametrize("turn", _ORACLE_TURNS, ids=str)
def test_smoothed_arcs_match_the_mpmath_oracle(golden_metrics, osc_oracle_arcs, turn):
    # the panels before the turning one share one budget of rel_tol |total|,
    # so a panel far from the turning point is bounded, not integrated; the
    # oracle integrates every panel at 30 digits
    m = golden_metrics["osc"]
    r, dv, length = osc_oracle_arcs[turn]
    assert math.exp(delta_v_of_c(m, r)) == pytest.approx(float(dv), rel=m.rel_tol, abs=0)
    assert length_of_c(m, r) == pytest.approx(float(length), rel=m.rel_tol, abs=0)


def test_quadrature_error_budget(memo_models, monkeypatch):
    # the osc arc at c = 0.002 turns at r = 125.8, on the B bridge just past
    # the first blend, and needs subdivision: one Kronrod rule per panel
    # leaves an error estimate (about 1.7e3 against 2.1e4) above the budget
    # max(abs floor, 100 rel_tol |total|); a fresh metric, so no stored arc
    # answers first
    m = memo_models[0][0]()
    r_max = solve_turning_point(m, 0.002)
    with monkeypatch.context() as patch:
        patch.setattr(halfplane, "_LIMIT", 1)
        with pytest.raises(halfplane.QuadratureFailure, match="estimated error"):
            delta_v_of_c(m, r_max)
        patch.setattr(halfplane, "_LIMIT", 0)
        with pytest.raises(ValueError, match="Invalid 'limit' argument"):
            delta_v_of_c(m, r_max)
    assert math.exp(delta_v_of_c(m, r_max)) == pytest.approx(42936.0867, rel=1e-9)


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
    # under brentq's 1e-11 stop in log r_max
    def make():
        if model == "pure":
            return HalfplaneMetric.from_warping(power_decay_h(0.5))
        return HalfplaneMetric.from_smoothed(osc_build[1])

    bracketed, fresh = make(), make()  # fresh is never scanned
    for l in sorted({round(l) for l in np.geomspace(1, 1e15, 16)}):
        d, _ = orbit_distance(bracketed, l)
        # orbit_distance's minimum over the arc and the axis loop, on Newton's bracket
        sol = invert_arc(fresh, "delta_v", TWO_PI * l)
        d_newton = min(sol.length, TWO_PI * l * fresh.sup_h())
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
    outside = [t for t in targets if not rows[0][2] <= math.log(t) <= rows[-1][2]]
    assert newton_targets == outside == [TWO_PI * 0.4, TWO_PI * 10**7]


def test_default_ladder_count_past_the_old_floor(osc_metric):
    # h of the default 1e300 ladder leaves the double range past about 1e100;
    # read in log form, the arc of length 1e110 turns on the B bridge (p = 1.5
    # from 7.8e76 to 4.8e230), where counts grow like R^(1+2p) = R^4 from
    # 1.0845e259 at R = 1e100
    n = halfplane.axis_count_at_radius(osc_metric, 1e110)
    assert abs(math.log10(n) - 299.035) <= 0.01


def test_default_ladder_count_past_the_double_range_raises(osc_metric):
    # counts overflow doubles near R = 2e112: delta_v of the arc of length
    # 1e113 is inf, which is OutOfRange, not an OverflowError
    with pytest.raises(OutOfRange, match="past the double range"):
        halfplane.axis_count_at_radius(osc_metric, 1e113)


def test_straight_loop_when_every_arc_overshoots():
    # (1+r^2)^-0.1 keeps delta_v above pi/sqrt(0.2) > 2 pi on every arc from
    # the axis, so the axis loop is d_1 and the only loop within R = 7
    m = HalfplaneMetric.from_warping(power_decay_h(0.1))
    assert orbit_distance(m, 1) == (TWO_PI, None)
    assert halfplane.axis_count_at_radius(m, 7.0) == 1


def test_smoothed_metric_reads_h_as_arrays_bit_for_bit(osc_metric, osc_build):
    # one array frame of sm: every entry equals the metric's frame at that
    # radius alone, as a one-element array bit for bit and as a double (its
    # log reader's log h) to a few ulps, also past 1e100, where h itself
    # underflows in doubles
    sm = osc_build[1]
    rng = np.random.default_rng(19)
    radii = [0.0, *(10.0 ** rng.uniform(-3.0, 289.0, 400)).tolist()]
    for b in sm.blends:
        radii += [math.nextafter(x, d) for x in (b.lo, b.hi)
                  if math.isfinite(x) for d in (-math.inf, math.inf)]
    radii = [r for r in radii if r < 1e290]
    fa = sm.frame(np.array(radii))
    for i, r in enumerate(radii):
        one = osc_metric.frame(np.array([r]))
        assert np.array([c[i] for c in fa]).tobytes() == np.array([c[0] for c in one]).tobytes()
        f = osc_metric.frame(r)
        assert osc_metric.log_h(r) == f.log_h, r
        assert abs(fa.log_h[i] - f.log_h) <= log_ulps(f.log_h), r
        assert abs(fa.p[i] - f.p) <= 4.0 * 2.0**-52 * f.p, r
        assert abs(fa.p_y[i] - f.p_y) <= 1e-12 * f.p, r


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(r=st.floats(0.0, 1e300), p=st.sampled_from([0.1, 0.5, 0.6, 1.2, 1.5]))
def test_power_decay_value_form_matches_jet(r, p):
    # the metric reads h as exp(log h), its log reader within a few ulps of
    # the 30-digit log of the jet's value (which underflows where log h
    # does not)
    w = power_decay_h(p)
    m = HalfplaneMetric.from_warping(w)
    want = mp_log_h(w, r)
    assert abs(m.log_h(r) - want) <= log_ulps(want)
    assert m.value(r) == math.exp(m.log_h(r))


def _memo_models():
    # fresh metrics on every call: osc-1e40, pure, and pure capped at 3e5
    _, sm = build_oscillating_h(OscillationParams(0.6, 1.2, 0.3, 1.5, 100.0, 2),
                                   radius_bound=1e40)
    return [lambda **kw: HalfplaneMetric.from_smoothed(sm, **kw),
            lambda **kw: HalfplaneMetric.from_warping(power_decay_h(0.5), **kw),
            lambda **kw: HalfplaneMetric.from_warping(power_decay_h(0.5), r_cap=3e5, **kw)]


@pytest.fixture(scope="module")
def memo_models():
    makers = _memo_models()
    return makers, [make() for make in makers]  # the second list fills across examples


def _arc_outcome(fn, m, r_max, start):
    try:
        return fn(m, r_max, start).hex()
    except halfplane.QuadratureFailure as e:
        return str(e)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(which=st.integers(0, 2), u=st.floats(0.0, 1.0), start_frac=st.sampled_from([None, 0.25, 0.9]),
       dv=st.booleans())
def test_arc_memo_hit_has_the_bits_of_a_fresh_metric(memo_models, which, u, start_frac, dv):
    # the arc turning at a random radius r; the start is the domain start,
    # or a radius below the turning point as Grushin's equal-t arcs take it
    makers, shared = memo_models
    m = shared[which]
    top = 42.0 if which < 2 else 5.0
    r = 10.0 ** (-2.0 + u * (top + 2.0))
    c = m.value(r)
    start = None if start_frac is None else start_frac * r
    fn = delta_v_of_c if dv else length_of_c
    first = _arc_outcome(fn, m, r, start)
    computed = []
    quadrature = halfplane._arc_quadrature
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(halfplane, "_arc_quadrature", lambda *a: computed.append(a) or quadrature(*a))
        again = _arc_outcome(fn, m, r, start)
    fresh = makers[which]()
    assert again == first == _arc_outcome(fn, fresh, r, start)
    assert repr(solve_turning_point(m, c)) == repr(solve_turning_point(fresh, c))
    if first.startswith(("0x", "-0x")):
        assert not computed  # a stored arc integrates nothing


def test_arc_memo_keys_start_and_quantity(memo_models):
    # on the osc-1e40 metric, the arc turning at 110, inside the first blend:
    # a second metric at a looser rel_tol gives other bits for both
    # quantities, a repeated arc shares its entry, and no arc solves a
    # turning point
    make = memo_models[0][0]
    m, coarse = make(), make(rel_tol=1e-6)
    calls = [(delta_v_of_c, m, None), (delta_v_of_c, coarse, None), (delta_v_of_c, m, 5.0),
             (delta_v_of_c, m, None), (length_of_c, m, None), (length_of_c, coarse, 5.0)]
    solves = []
    real_solve = halfplane.solve_turning_point
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(halfplane, "solve_turning_point",
                   lambda *a: solves.append(a) or real_solve(*a))
        got = [fn(on, 110.0, start) for fn, on, start in calls]
    assert (len(m._arcs), len(coarse._arcs)) == (3, 2)
    assert not solves
    assert got[0] != got[1] and got[3] == got[0] and length_of_c(m, 110.0, 5.0) != got[5]
    for (fn, on, start), v in zip(calls, got):
        fresh = make(rel_tol=on.rel_tol)
        assert fn(on, 110.0, start).hex() == v.hex() == fn(fresh, 110.0, start).hex()
    assert len(m._arcs) == 4  # length_of_c(m, 110.0, 5.0) above


def test_arc_memo_stores_no_quadrature_failure(memo_models, monkeypatch):
    # one Kronrod rule per panel leaves the osc arc at c = 0.002 above its
    # error budget (test_quadrature_error_budget): the failure is not stored
    make = memo_models[0][0]
    m = make()
    r_max = solve_turning_point(m, 0.002)
    with monkeypatch.context() as patch:
        patch.setattr(halfplane, "_LIMIT", 1)
        for _ in range(2):
            with pytest.raises(halfplane.QuadratureFailure, match="estimated error"):
                delta_v_of_c(m, r_max)
        assert not m._arcs
    assert delta_v_of_c(m, r_max).hex() == delta_v_of_c(make(), r_max).hex()
