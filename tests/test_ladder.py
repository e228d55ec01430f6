import math

import mpmath
import pytest

from warplab.ladder import ExponentSchedule, OscillationParams, build_scale_ladder, radius
from warplab.smoothing import build_oscillating_h

from .oracles import reference_ladder

STD = dict(alpha=0.6, beta=1.2, A=0.3, B=1.5, R11=100.0)


def test_param_validation():
    with pytest.raises(ValueError):
        OscillationParams(alpha=0.6, beta=1.2, A=0.3, B=1.2)  # B == beta
    with pytest.raises(ValueError):
        OscillationParams(alpha=0.6, beta=0.5, A=0.3, B=1.5)  # beta < alpha
    with pytest.raises(ValueError):
        OscillationParams(alpha=0.6, beta=1.2, A=0.3, B=1.5, R11=50)
    with pytest.raises(ValueError):
        OscillationParams(alpha=0.6, beta=1.2, A=0.3, B=1.5, periods=-1)


def test_first_row_closed_forms(osc_params):
    # R12 = ((1+R11^2)^((B-a)/(B-b)) - 1)^(1/2) with exponent 3 here:
    # frozen from a 40-digit evaluation, which the ladder carried in
    # y = log(1 + r^2) meets to the rounding of y (a few ulps of r)
    lad = build_scale_ladder(osc_params)
    R11, R12, R13, R14, R21 = lad.junctions[:5]
    with mpmath.workdps(30):
        want = mpmath.mpf("1000150.00374943587280478426314")
        assert abs(R12 - want) <= mpmath.mpf("1e-14") * want
        # agrees with the exact rational-exponent evaluation ((1+10^4)^3-1)^(1/2)
        exact3 = mpmath.sqrt((1 + mpmath.mpf(100) ** 2) ** 3 - 1)
        assert abs(R12 - exact3) <= mpmath.mpf("1e-14") * exact3
    # each piece's end is 5 T^2 of its start T, in doubles
    assert R13 == 5.0 * R12 * R12
    assert R21 == 5.0 * R14 * R14
    assert R11 == osc_params.R11


def test_radius_inverts_log1p_sq():
    for r in (100.0, 1e6, 3.3e38, 7.8e76, 4.8e230, 1.7e308):
        y = 2.0 * math.log(r) if r >= 1e150 else math.log1p(r * r)
        assert radius(y) == pytest.approx(r, rel=1e-13)
    assert radius(1500.0) == math.inf  # past the double range


def test_zero_periods_empty():
    lad = build_scale_ladder(OscillationParams(periods=0, **STD))
    assert lad.junctions == [] and lad.chain == (0.6,) and not lad.truncated


def test_growth_ratios(osc_params):
    lad = build_scale_ladder(osc_params)
    assert len(lad.junctions) == 6
    for a, b in zip(lad.junctions, lad.junctions[1:]):
        assert b / a >= 5


def test_truncation_flag_and_partial_row(osc_params):
    lad = build_scale_ladder(osc_params, radius_bound=1e300)
    assert lad.truncated
    # inside period 2: R22 is built, R23 = 5 R22^2 is past the bound
    assert len(lad.junctions) == 6 and lad.chain == (0.6, 1.2, 0.6, 1.2)
    assert math.log(5.0) + 2.0 * math.log(lad.junctions[5]) > math.log(1e300)
    # a lower bound stops in period 1, on the shared prefix bit for bit
    lad40 = build_scale_ladder(osc_params, radius_bound=1e40)
    assert lad40.truncated and lad40.chain == (0.6, 1.2, 0.6)
    assert lad.junctions[:4] == lad40.junctions
    # a bound past the double range stops there: R23 = 1.1e462 is no double
    lad_inf = build_scale_ladder(osc_params, radius_bound=math.inf)
    assert lad_inf.truncated and lad_inf.junctions == lad.junctions
    # one period closes below the bound
    one = build_scale_ladder(OscillationParams(periods=1, **STD), radius_bound=1e300)
    assert not one.truncated and one.chain == (0.6, 1.2, 0.6)
    assert one.junctions == lad.junctions[:4]


def test_schedule_validation():
    with pytest.raises(ValueError):
        ExponentSchedule((), A=0.3, B=1.5)
    with pytest.raises(ValueError):
        ExponentSchedule((0.4,), A=0.3, B=1.5)  # below the declared band floor
    with pytest.raises(ValueError):
        ExponentSchedule((0.6, 1.2), A=0.7, B=1.5)  # A not below min
    with pytest.raises(ValueError):
        ExponentSchedule((0.6, 1.2), A=0.3, B=1.0)  # B not above max
    s = ExponentSchedule((0.5, 0.75, 1.0), A=0.25, B=1.3)
    assert s.band == (0.5, 1.0)


@pytest.mark.parametrize("bound", [1e40, 1e300])
def test_double_ladder_matches_the_40_digit_reference(osc_params, bound):
    # the ladder in doubles and log-doubles against the 40-digit recursion:
    # junctions, every segment's log C and every blend's five-double form
    # within 1e-13 relative (the junctions stray by up to 5.8e-14, the
    # rounding of y = log(1 + r^2) near 1060)
    ladder, sm = build_oscillating_h(osc_params, radius_bound=bound)
    junctions, segments, blends, truncated = reference_ladder(osc_params, bound)
    assert (ladder.truncated, len(ladder.junctions)) == (truncated, len(junctions))

    def rel(x, want):
        return abs(x - want) / abs(want) if want else abs(x)

    with mpmath.workdps(40):
        assert max(rel(x, want) for x, want in zip(ladder.junctions, junctions)) <= 1e-13
        assert [s.p for s in sm.segments] == [float(p) for _, p, _ in segments]
        assert max(rel(s._log_c, c) for s, (_, _, c) in zip(sm.segments, segments)) <= 1e-13
        assert len(sm.blends) == len(blends)
        for b, form in zip(sm.blends, blends):
            assert max(rel(x, want) for x, want in zip(b._form, form)) <= 1e-13, b.R
