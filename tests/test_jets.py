import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warplab import gridpath
from warplab.curvature import h_frame
from warplab.halfplane import HalfplaneMetric
from warplab.jets import Jet2, jet_exp, jet_sin
from warplab.warping import (
    bridged_power_h,
    constant_h,
    exp_decay_h,
    grushin_h,
    linear_f,
    power_decay_h,
    sine_f,
    standard_f,
    WarpingFunction,
)

from .oracles import central_diff_richardson


def test_variable_and_constant():
    x = Jet2.variable(3.0)
    assert (x.value, x.d1, x.d2) == (3.0, 1.0, 0.0)
    c = Jet2.constant(5.0)
    assert (c.value, c.d1, c.d2) == (5.0, 0.0, 0.0)


def test_ring_ops_match_polynomial():
    # p(r) = (2r + 1)(r^2 - 3) / (r + 4), exact jets by hand at r=2
    r = 2.0
    x = Jet2.variable(r)
    j = (2.0 * x + 1.0) * (x * x - 3.0) / (x + 4.0)
    f = lambda t: (2 * t + 1) * (t * t - 3) / (t + 4)
    assert j.value == pytest.approx(f(r), rel=1e-15)
    assert j.d1 == pytest.approx(central_diff_richardson(f, r, 1), rel=1e-10)
    assert j.d2 == pytest.approx(central_diff_richardson(f, r, 2), rel=1e-8)


def test_pow_and_transcendentals():
    r = 1.7
    x = Jet2.variable(r)
    for jet, f in [
        (x ** (-0.75), lambda t: t ** (-0.75)),
        (jet_sin(x), math.sin),
        (jet_exp(-x), lambda t: math.exp(-t)),
    ]:
        assert jet.value == pytest.approx(f(r), rel=1e-14)
        assert jet.d1 == pytest.approx(central_diff_richardson(f, r, 1), rel=1e-9)
        assert jet.d2 == pytest.approx(central_diff_richardson(f, r, 2), rel=1e-7)


@pytest.mark.parametrize(
    "wf,lo,hi",
    [
        (standard_f(), 1e-2, 1e4),
        (power_decay_h(0.5), 1e-2, 1e4),
        (power_decay_h(1.2), 1e-2, 1e4),
        (exp_decay_h(), 1e-2, 20.0),
        (grushin_h(0.5), 1e-2, 1e3),
    ],
)
def test_jet_matches_divided_differences(wf, lo, hi):
    # d1, d2 agree with central differences (Richardson-refined steps) to
    # 1e-6 relative on random radii
    rng = np.random.default_rng(7)
    for r in np.exp(rng.uniform(math.log(lo), math.log(hi), 12)):
        j = wf(float(r))
        f = lambda t: wf.value(t)
        d1 = central_diff_richardson(f, float(r), 1, h0=float(r) * 1e-2)
        d2 = central_diff_richardson(f, float(r), 2, h0=float(r) * 1e-2)
        assert j.d1 == pytest.approx(d1, rel=1e-6, abs=1e-12 * abs(d1) + 1e-300)
        assert j.d2 == pytest.approx(d2, rel=1e-6, abs=1e-10 * abs(d2) + 1e-300)


def test_mpmath_scalars_flow_through():
    r = mpmath.mpf("1e120")
    j = power_decay_h(1.2)(r)
    assert isinstance(j.value, mpmath.mpf)
    # value ~ r^(-2.4), far below double range but exact in mpf
    assert mpmath.log10(j.value) == pytest.approx(-288, abs=1.0)
    assert j.d1 < 0
    assert j.is_finite()


def test_underflow_ratio_form():
    # jets of a pure power stay finite where naive u^(p-2) would underflow
    j = power_decay_h(0.6)(5e76)
    assert j.value > 0 and j.d1 < 0 and j.d2 != 0.0
    assert j.is_finite()


def test_finiteness_flag():
    assert not Jet2(float("nan"), 0.0, 0.0).is_finite()
    assert not Jet2(1.0, float("inf"), 0.0).is_finite()


# -- float64 arrays as a third scalar type -----------------------------------

# every family in warping.py with its sample range; the lower end is the
# axis r = 0 wherever the family is defined there
FAMILIES = {
    "standard-f": (standard_f(), 0.0, 1e6),
    "power-decay-h": (power_decay_h(0.75), 0.0, 1e6),
    "bridged-power-h": (bridged_power_h(1.5, 2.5), 0.0, 1e6),
    "constant-h": (constant_h(2.0), 0.0, 1e6),
    "linear-f": (linear_f(), 0.0, 1e6),
    "sine-f": (sine_f(), 0.0, math.pi),
    "exp-decay-h": (exp_decay_h(), 0.0, 50.0),
    "grushin-h": (grushin_h(0.6), 1e-3, 1e6),
}

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _bits(xs):
    return np.asarray(xs, dtype=np.float64).view(np.uint64).tolist()


def _log_radius(lo, hi, u):
    """Radius at log-position u in [0, 1] of [max(lo, 1e-3), hi]."""
    lo = max(lo, 1e-3)
    return min(hi, math.exp(math.log(lo) + u * math.log(hi / lo)))


@PROPERTY
@given(name=st.sampled_from(sorted(FAMILIES)),
       us=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30))
def test_array_jet_equals_scalar_jets_bitwise(name, us):
    wf, lo, hi = FAMILIES[name]
    # a fixed log grid as well: np.power misses Python's ** by an ulp on
    # about 6 % of radii, which a few drawn radii can all dodge
    grid = np.geomspace(max(lo, 1e-3), hi, 64).tolist()
    rs = [lo] + grid + [_log_radius(lo, hi, u) for u in us]
    ja = wf(np.array(rs))
    scalar = [wf(r) for r in rs]
    for comp in ("value", "d1", "d2"):
        arr = np.broadcast_to(getattr(ja, comp), (len(rs),))
        assert _bits(arr) == _bits([getattr(j, comp) for j in scalar]), comp


def test_scalar_components_broadcast_through_the_metric():
    rs = np.array([0.0, 0.5, 3.0, 1e5])
    j = constant_h(2.0)(rs)
    assert np.ndim(j.d1) == 0  # the array jet keeps a scalar slope ...
    m = HalfplaneMetric.from_warping(constant_h(2.0))
    # ... which a frame read from the jet broadcasts, as the family's own does
    for hf in (h_frame(WarpingFunction("plain", constant_h(2.0).fn), rs), m.frame(rs)):
        for comp in hf:
            assert comp.shape == rs.shape
    h, hp = gridpath._h_and_slope(m, rs)
    assert h.tolist() == [m.value(r) for r in rs.tolist()] == [2.0] * len(rs)
    assert hp.tolist() == [0.0] * len(rs)  # also on the axis


def test_array_jets_report_finiteness():
    assert power_decay_h(0.5)(np.array([0.0, 1.0, 1e6])).is_finite()
    assert not Jet2(np.array([1.0, np.inf]), 0.0, 0.0).is_finite()


def test_array_power_rejects_a_zero_base():
    x = Jet2.variable(np.array([1.0, 0.0, 2.0]))
    with pytest.raises(ZeroDivisionError):
        x ** (-0.5)
    with pytest.raises(ZeroDivisionError):
        grushin_h(0.6)(np.array([0.5, 0.0]))


@PROPERTY
@given(name=st.sampled_from(sorted(FAMILIES)), u=st.floats(0.0, 1.0))
def test_scalar_jet_matches_richardson_on_every_family(name, u):
    wf, lo, hi = FAMILIES[name]
    # away from the ends, where central differences need room on both sides
    r = _log_radius(max(lo, 1e-2), min(hi, 1e4), u) if name != "sine-f" else 0.1 + 2.9 * u
    j = wf(r)
    step = 0.01 * min(r, 1.0) if name == "sine-f" else 0.01 * r
    for order, d in ((1, j.d1), (2, j.d2)):
        ref = central_diff_richardson(wf.value, r, order, h0=step)
        scale = abs(j.value) / r**order  # size of a derivative on the scale r
        assert abs(d - ref) <= 1e-6 * abs(ref) + 1e-8 * scale
