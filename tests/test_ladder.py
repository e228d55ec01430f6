import mpmath
import pytest

from warplab.ladder import (
    ExponentSchedule,
    OscillationParams,
    build_scale_ladder,
    mantissa_exponent,
)

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
    # frozen from a 40-digit evaluation
    lad = build_scale_ladder(osc_params)
    R11, R12, R13, R14, R21 = lad.junctions[:5]
    with mpmath.workdps(30):
        assert mpmath.almosteq(
            R12, mpmath.mpf("1000150.00374943587280478426314"), rel_eps=mpmath.mpf("1e-25")
        )
        # agrees with the exact rational-exponent evaluation ((1+10^4)^3-1)^(1/2)
        exact3 = mpmath.sqrt((1 + mpmath.mpf(100) ** 2) ** 3 - 1)
        assert abs(R12 - exact3) <= mpmath.mpf("1e-14") * exact3
    # exact recursion identities, recomputed at the build precision
    from warplab.ladder import PRECISION_DPS
    with mpmath.workdps(PRECISION_DPS):
        assert R13 == 5 * R12 * R12
        assert R21 == 5 * R14 * R14
    assert R11 == osc_params.R11


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
    assert 5 * lad.junctions[5] ** 2 > 1e300
    # a raised bound completes the second period
    lad2 = build_scale_ladder(osc_params, radius_bound=1e2000)
    assert not lad2.truncated
    assert len(lad2.junctions) == 8 and lad2.chain == (0.6, 1.2, 0.6, 1.2, 0.6)
    # the shared prefix agrees exactly
    assert lad2.junctions[:6] == lad.junctions


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


def test_mantissa_exponent_round_trip(osc_params):
    lad = build_scale_ladder(osc_params)
    r = lad.junctions[5]  # R22
    s = mantissa_exponent(r)
    with mpmath.workdps(30):
        back = mpmath.mpf(s)
        assert abs(back - r) <= mpmath.mpf("1e-20") * r
