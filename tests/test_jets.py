import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import warplab
from warplab import gridpath
from warplab.halfplane import HalfplaneMetric
from warplab.jets import Jet2, jet_exp, jet_sin
from warplab.warping import (
    constant_h,
    exp_decay_h,
    grushin_h,
    linear_f,
    power_decay_h,
    sine_f,
    standard_f,
    FFrame,
    HFrame,
)

from .oracles import central_diff_richardson, jet_frame


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
    assert not Jet2(mpmath.mpf(1), mpmath.mpf(0), mpmath.inf).is_finite()


def test_float_jets_run_without_mpmath():
    # jets read mpmath from sys.modules: float jets never load it, and an
    # mpf built after a late import still carries mpf values through
    code = (
        "import math, sys\n"
        "from warplab.jets import Jet2, jet_exp, jet_sin\n"
        "x = Jet2.variable(0.5)\n"
        "jets = [x, jet_exp(x), jet_sin(x), Jet2.constant(2.0)]\n"
        "assert all(j.is_finite() for j in jets)\n"
        "assert all(type(v) is float for j in jets for v in (j.value, j.d1, j.d2))\n"
        "assert not Jet2(math.nan).is_finite() and not Jet2(1.0, math.inf).is_finite()\n"
        "print('mpmath' in sys.modules)\n"
        "import mpmath\n"
        "x = Jet2.variable(mpmath.mpf(2))\n"
        "jets = [x, jet_exp(x), jet_sin(x), Jet2.constant(mpmath.mpf(2))]\n"
        "print(all(isinstance(v, mpmath.mpf) for j in jets for v in (j.value, j.d1, j.d2)))\n"
    )
    src = os.path.dirname(os.path.dirname(warplab.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["False", "True"]


# -- every family's closed-form frame against its jets -----------------------

# every family in warping.py with its sample range; the lower end is the
# axis r = 0 wherever the family is defined there, and sine-f stops short
# of pi, where 1 - f'^2 cancels to nothing in double jets.  The h frames
# are compared on the axis too (an f frame's terms are 0/0 there)
FAMILIES = {
    "standard-f": (standard_f(), 0.0, 1e6),
    "power-decay-h": (power_decay_h(0.75), 0.0, 1e6),
    "constant-h": (constant_h(2.0), 0.0, 1e6),
    "linear-f": (linear_f(), 0.0, 1e6),
    "sine-f": (sine_f(), 0.0, 3.0),
    "exp-decay-h": (exp_decay_h(), 0.0, 50.0),
    "grushin-h": (grushin_h(0.6), 1e-3, 1e6),
}

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _log_radius(lo, hi, u):
    """Radius at log-position u in [0, 1] of [max(lo, 1e-3), hi]."""
    lo = max(lo, 1e-3)
    return min(hi, math.exp(math.log(lo) + u * math.log(hi / lo)))


def _fields(frame, rs):
    """The frame's components at rs as float64 arrays, a pair (c0, c1) as
    the c0 + c1 s it stands for, s = 1/(1+r^2)."""
    for comp in frame:
        if isinstance(comp, tuple):
            comp = comp[0] + comp[1] / (1.0 + rs * rs)
        yield np.broadcast_to(comp, rs.shape)


def _assert_close(got, ref, rs):
    for name, a, b in zip(got._fields, _fields(got, rs), _fields(ref, rs)):
        assert (np.abs(a - b) <= 1e-9 * (1.0 + np.abs(b))).all(), name


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_value_evaluates_the_double_with_the_bits_of_the_jet(name):
    # value runs fn on the double itself, building no jet
    wf, lo, hi = FAMILIES[name]
    rng = np.random.default_rng(12345)
    u = rng.uniform(math.log(max(lo, 1e-3)), math.log(hi), 64)
    for r in [lo, hi, *np.exp(u).tolist()]:
        got = wf.value(r)
        assert type(got) is float, (name, r)
        assert got.hex() == wf.fn(Jet2.variable(r)).value.hex(), (name, r)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_every_family_frame_matches_its_jet_frame(name):
    # the closed-form frame against the one formed from double jets (the
    # widest gap is p_y of bridged-power-h, about 1.7e-10, where the jets
    # subtract terms of size p^2 for a zero)
    wf, lo, hi = FAMILIES[name]
    kind = FFrame if name.endswith("-f") else HFrame
    rs = np.geomspace(max(lo, 1e-3), hi, 64)
    _assert_close(wf.frame(rs), jet_frame(wf, rs, kind), rs)
    if kind is HFrame:
        for r in rs.tolist():
            assert wf.log_h(r) == wf.frame(r).log_h, r
        if name == "exp-decay-h":  # h'(0) = -1 makes p infinite on the axis
            with pytest.raises(ValueError, match=r"r = 0\.0"):
                wf.frame(0.0)
        elif lo == 0.0:
            # on the axis the jets give p as the limit -h''/(2h), and their
            # p_y is inf - inf there
            axis = np.zeros(1)
            got, ref = wf.frame(axis), jet_frame(wf, axis)
            _assert_close(HFrame(*got[:2], 0.0), HFrame(*ref[:2], 0.0), axis)
            assert wf.log_h(0.0) == wf.frame(0.0).log_h


def test_scalar_components_broadcast_through_the_metric():
    rs = np.array([0.0, 0.5, 3.0, 1e5])
    m = HalfplaneMetric.from_warping(constant_h(2.0))
    for comp in m.frame(rs):  # the scalar exponent broadcasts over the radii
        assert comp.shape == rs.shape
    h = gridpath._h(m, rs)
    hp = gridpath._slope(rs, m.frame(rs).p, h)
    assert h.tolist() == [m.value(r) for r in rs.tolist()] == [2.0] * len(rs)
    assert hp.tolist() == [0.0] * len(rs)  # also on the axis


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
