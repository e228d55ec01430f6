"""The double readers of segments and blends.

Each owner of h (segment or blend) reads it at a double radius in two
ways: the closed-form float jet, `jet`, which the Christoffel oracle reads
and which must match Jet2 arithmetic (a segment's bit for bit, a blend's
value bit for bit and its derivatives to rounding), and the log reader,
`log_h`, with its frame, which the arcs, turning points and counts read.
The log reader must agree with the frame's log h (bit for bit at a double,
to a few ulps at an array) and with the 30-digit mpmath log h of the
owner's double parameters, at
every blend edge, junction key and their nextafter neighbours, including
radii where h or h' underflows in doubles.  A SmoothedH hands each radius
to the owner its edge table names, so a blend is read only inside its
span [lo, hi).
"""

import math
import struct
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warplab.halfplane import HalfplaneMetric, axis_count_at_radius, orbit_distance
from warplab.jets import Jet2, jet_exp
from warplab.ladder import OscillationParams, bridge_log_constant
from warplab.orbits import window_index_bounds
from warplab.piecewise import Segment
from warplab.smoothing import Blend, SmoothedH, build_oscillating_h, smooth

from .oracles import log_ulps, mp_owner_log_h

OSC = OscillationParams(0.6, 1.2, 0.3, 1.5, 100.0, 2)


def _ref_segment(seg, r):
    """A segment's scalar float jet as Jet2 arithmetic forms it (the bridge's
    scaled ratio form for C != 1), with h = exp(log C - p log(1 + r^2))
    where the constant is past the double range."""
    if seg._unit:
        x = Jet2.variable(r)
        return (1 + x * x) ** (-seg.p)
    cf = seg.c_float()
    p = seg.p
    u0 = 1.0 + r * r
    g1 = 2.0 * r / u0
    if cf is None:  # h = exp(log h), +inf where that is past the double range
        log_v = seg._log_c - p * (math.log1p(r * r) if r < 1e150 else 2.0 * math.log(r))
        v = math.exp(log_v) if log_v < 709.78 else math.inf
    else:
        v = cf * u0 ** (-p)
    return Jet2(v, v * (-p) * g1, v * (p * (p + 1.0) * g1 * g1 - p * 2.0 / u0))


def _ref_blend(b, r):
    """The exponent blend's scalar float jet in Jet2 arithmetic at a double
    r in its span, h = exp(L(y)) with y = log(1 + r^2) carried as a jet,
    with the jet of L, whose size sets the rounding of h''."""
    ya, w, la, pr, dp = b._form
    y_value = math.log1p(r * r) if r < 1e150 else 2.0 * math.log(r)
    g = 2.0 / (r + 1.0 / r)
    y = Jet2(y_value, g, g * (1.0 / r - g))
    x = (y - ya) / w
    x2 = x * x
    L = la - pr * (y - ya) - dp * w * (x - x2 * x2 * (2.5 - 3.0 * x + x2))
    return jet_exp(L), L


def _bits(*xs):
    return [struct.pack("<d", float(x)) for x in xs]


def _huge_bridge_h():
    """A pure piece bridged at 1e100 to exponent 4, whose constant is beyond
    float range (the bridge's _cf is None)."""
    R = 1e100
    return smooth([Segment(0.0, R, 0.6, 0.0, "piece"),
                   Segment(R, None, 4.0, bridge_log_constant(R, 4.0, 0.6), "bridge")])


def _slope_underflow_blend_h():
    """Bridges of exponents 0.01 and 2 joined at 1e60: across the blend the
    left piece's h' underflows in doubles, the right piece's does not."""
    R = 1e60
    log_c = math.log(1e-262)
    return smooth([Segment(0.0, R, 0.01, log_c, "bridge"),
                   Segment(R, None, 2.0, log_c + bridge_log_constant(R, 2.0, 0.01), "bridge")])


@pytest.fixture(scope="module")
def models(osc_build):
    _, osc40 = build_oscillating_h(OSC, radius_bound=1e40)
    # a shallow bridge with a small constant: far out its h' underflows
    # while h does not
    shallow = [Segment(0.0, None, 0.3, math.log(1e-200), "bridge")]
    pure = [Segment(0.0, None, 0.5, 0.0, "piece")]
    return {"osc-1e40": osc40, "osc": osc_build[1], "pure": SmoothedH(pure, []),
            "huge-bridge": _huge_bridge_h(), "shallow-bridge": SmoothedH(shallow, []),
            "slope-underflow-blend": _slope_underflow_blend_h()}


def _special_radii(sm):
    """Blend edges, junctions and their nextafter neighbours, and 0."""
    edges = [s.r_lo for s in sm.segments[1:]]
    for b in sm.blends:
        edges += [b.lo, b.hi]
    out = {0.0}
    for f in edges:
        if math.isfinite(f):
            out |= {math.nextafter(f, -math.inf), f, math.nextafter(f, math.inf)}
    return sorted(out)


def _pieces(sm):
    return [*sm.segments, *sm.blends]


def _near(a, b, scale):
    """a within rounding of b: 1e-12 of scale, plus a few subnormal steps."""
    return abs(a - b) <= 1e-12 * scale + 2.0**-1070


def _check_kernels(piece, radii):
    """The piece's float jet at each radius against its Jet2 reference, a
    blend's at the radii in its span."""
    blend = isinstance(piece, Blend)
    if blend:
        radii = [r for r in radii if piece.lo <= r < piece.hi]
    for r in radii:
        j = piece.jet(r)
        if blend:
            want, L = _ref_blend(piece, r)
        else:
            want, L = _ref_segment(piece, r), None
        if L is None:
            assert _bits(j.value, j.d1, j.d2) == _bits(want.value, want.d1, want.d2), r
        else:  # the closed form's derivatives, against the chain rule
            assert _bits(j.value) == _bits(want.value), r
            assert _near(j.d1, want.d1, abs(want.d1)), r
            assert _near(j.d2, want.d2, abs(j.value) * (L.d1 * L.d1 + abs(L.d2))), r


def test_kernels_match_jets_at_every_edge(models):
    for name, sm in models.items():
        radii = _special_radii(sm)
        for piece in _pieces(sm):
            _check_kernels(piece, radii)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_kernels_match_jets_property(models, data):
    for name, sm in models.items():
        special = _special_radii(sm)
        radii = data.draw(st.lists(
            st.one_of(st.sampled_from(special), st.floats(0.0, 1e80), st.floats(0.0, 1e300)),
            min_size=1, max_size=12), label=name)
        for piece in _pieces(sm):
            _check_kernels(piece, radii)


def test_smoothed_kernel_follows_owner_runs(models):
    # the array frame of unsorted radii across every owner gives each entry
    # its owner's frame, bit for bit
    rng = np.random.default_rng(7)
    for sm in models.values():
        radii = _special_radii(sm)
        radii = [radii[i] for i in rng.permutation(len(radii))]
        fa = sm.frame(np.array(radii))
        for i, r in enumerate(radii):
            one = sm._owner_at(r).frame(np.array([r]))
            assert _bits(*(c[i] for c in fa)) == _bits(*(c[0] for c in one)), r


# -- log readers ---------------------------------------------------------------

# radii where doubles fail h: past 1e100 the huge bridge's constant is out of
# float range, past 1e108 the default model's B bridge underflows, past
# about 1e77 the shallow bridge's slope does, and at 8.1e59 the slope of the
# slope-underflow blend (at 1.1e60 it is subnormal, not zero)
_UNDERFLOW = (8.1e59, 1.1e60, 1e80, 2e100, 1e110, 3.3e150, 4e230)


def _check_log_readers(sm, radii):
    """Each radius read by sm's log reader, its owner's and its scalar frame,
    bit for bit; by the array frame to a few ulps; and against the 30-digit
    log h of the owner's double parameters."""
    for r in radii:
        got = sm.log_h(r)
        owner = sm._owner_at(r)
        assert _bits(got) == _bits(owner.log_h(r)) == _bits(sm.frame(r).log_h), r
        assert abs(sm.frame(np.array([r])).log_h[0] - got) <= log_ulps(got), r
        with mpmath.workdps(30):
            want = float(mp_owner_log_h(owner, r))
        # a bridge's log C and p log(1+r^2) cancel to log h
        seg = owner.left if isinstance(owner, Blend) else owner
        assert abs(got - want) <= log_ulps(want, seg._log_c), r


def test_value_readers_match_jets_at_every_edge(models):
    # the log readers at every interval's edges with their neighbours, r = 0,
    # and radii where h or h' underflows in doubles
    for sm in models.values():
        _check_log_readers(sm, [*_special_radii(sm), *_UNDERFLOW])


def _interval_radii(sm, u):
    """A radius at fraction u of every float-table interval [lo, hi), on a
    linear and on a log scale (the last interval ends at 1e300)."""
    edges = [0.0, *sm._fedges, 1e300]
    out = []
    for lo, hi in zip(edges, edges[1:]):
        out.append(lo + u * (hi - lo))
        if lo > 0:
            out.append(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))
    return [r for r in out if r < 1e300]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(u=st.floats(0.0, 1.0), data=st.data())
def test_value_readers_match_jets_property(models, u, data):
    for name, sm in models.items():
        special = [*_special_radii(sm), *_UNDERFLOW]
        drawn = data.draw(st.lists(
            st.one_of(st.sampled_from(special), st.floats(0.0, 1e80), st.floats(0.0, 1e300)),
            min_size=1, max_size=8), label=name)
        _check_log_readers(sm, [*_interval_radii(sm, u), *drawn])


def test_subnormal_bridge_power_reads_in_log_form(osc_build):
    # the default model's second p = 1.5 bridge (C = 2.56e138): between about
    # 7.7e102 and 7e107 the bare power (1+r^2)^(-1.5) is subnormal, while
    # C times it is a normal double; log h reads it with neither
    sm = osc_build[1]
    seg = sm._owner_at(1e105)
    assert (seg.kind, seg.p) == ("bridge", 1.5) and seg.c_float() > 1e138
    m = HalfplaneMetric.from_smoothed(sm)
    for r in (1e105, 1e107):
        with mpmath.workdps(40):
            log_want = mpmath.mpf(seg.log_c) - mpmath.mpf(1.5) * mpmath.log1p(mpmath.mpf(r) ** 2)
            want = float(mpmath.exp(log_want))
        assert abs(sm.log_h(r) - float(log_want)) <= log_ulps(seg._log_c)
        assert abs(m.value(r) / want - 1.0) <= 2.0 * log_ulps(seg._log_c)


def test_counts_and_distances_read_no_jet_and_no_mpmath(osc_build, monkeypatch):
    # a count past the old 1e100 floor and a beta-window distance on the
    # default model, on a fresh metric: h is read in log form only, with no
    # segment or blend jet and no mpmath code at all
    ladder, sm = osc_build
    m = HalfplaneMetric.from_smoothed(sm)
    lo, hi = window_index_bounds(1.2, 2.0 * float(ladder.junctions[1]))

    def no_jet(*args):
        raise AssertionError("a jet was read")

    monkeypatch.setattr(Segment, "jet", no_jet)
    monkeypatch.setattr(Blend, "jet", no_jet)
    mp_calls = []

    def profile(frame, event, arg):
        if event == "call" and "mpmath" in frame.f_code.co_filename:
            mp_calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        n = axis_count_at_radius(m, 1e110)
        d, sol = orbit_distance(m, round(math.sqrt(lo * hi)))
    finally:
        sys.setprofile(None)
    assert mp_calls == []
    assert n > 1e298 and sol is not None and d == sol.length
