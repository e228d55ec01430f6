"""The closed-form float kernels of segments and blends against scalar
Jet2 jets: a segment's bit for bit, a blend's value bit for bit and its
derivatives to rounding; and array kernels against scalar kernels bit
for bit."""

import math
import struct
from bisect import bisect_right

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warplab.halfplane import HalfplaneMetric
from warplab.jets import Jet2, jet_exp
from warplab.ladder import OscillationParams, bridge_constant
from warplab.piecewise import PiecewiseH, Segment
from warplab.smoothing import Blend, SmoothedH, build_oscillating_h, pure_model_h, smooth

OSC = OscillationParams(0.6, 1.2, 0.3, 1.5, 100.0, 2)


def _ref_segment(seg, r):
    """A segment's scalar float jet as Jet2 arithmetic forms it (the bridge's
    scaled ratio form for C != 1), or None where doubles cannot answer."""
    if seg._unit:
        x = Jet2.variable(r)
        return (1 + x * x) ** (-seg.p)
    cf = seg.c_float()
    if cf is None:
        return None
    p = seg.p
    u0 = 1.0 + r * r
    g1 = 2.0 * r / u0
    w = u0 ** (-p)
    v = cf * w
    d1 = v * (-p) * g1
    # a subnormal bare power has lost bits
    if r > 0 and (w < 2.2250738585072014e-308 or v == 0.0 or d1 == 0.0 or not math.isfinite(v)):
        return None
    return Jet2(v, d1, v * (p * (p + 1.0) * g1 * g1 - p * 2.0 / u0))


def _ref_blend(b, r):
    """The exponent blend's scalar float jet in Jet2 arithmetic, h =
    exp(L(y)) with y = log(1 + r^2) carried as a jet, or None where h or h'
    is zero in doubles; with it the jet of L, whose size sets the rounding
    of h''.  The pieces' references answer outside [lo, hi)."""
    lo, hi = b._edges_f
    if r < lo:
        return _ref_segment(b.left, r), None
    if r >= hi:
        return _ref_segment(b.right, r), None
    ya, w, la, pr, dp = b._form_f
    y_value = math.log1p(r * r) if r < 1e150 else 2.0 * math.log(r)
    g = 2.0 / (r + 1.0 / r)
    y = Jet2(y_value, g, g * (1.0 / r - g))
    x = (y - ya) / w
    x2 = x * x
    L = la - pr * (y - ya) - dp * w * (x - x2 * x2 * (2.5 - 3.0 * x + x2))
    out = jet_exp(L)
    if out.value == 0.0 or out.d1 == 0.0:
        return None, L
    return out, L


def _bits(*xs):
    return [struct.pack("<d", float(x)) for x in xs]


def _huge_bridge_h():
    """A pure piece bridged at 1e100 to exponent 4, whose constant is beyond
    float range (the bridge's _cf is None)."""
    R = mpmath.mpf(10) ** 100
    one = mpmath.mpf(1)
    hp = PiecewiseH([Segment(mpmath.mpf(0), R, 0.6, one, "piece"),
                     Segment(R, None, 4.0, bridge_constant(R, 4.0, 0.6), "bridge")])
    return smooth(hp, check=False)


def _slope_underflow_blend_h():
    """Bridges of exponents 0.01 and 2 joined at 1e60: across the blend the
    left piece's h' underflows in doubles, the right piece's does not."""
    R = mpmath.mpf(10) ** 60
    C = mpmath.mpf("1e-262")
    with mpmath.workdps(40):
        C2 = C * (1 + R * R) ** (mpmath.mpf(2) - mpmath.mpf("0.01"))
    return smooth(PiecewiseH([Segment(mpmath.mpf(0), R, 0.01, C, "bridge"),
                              Segment(R, None, 2.0, C2, "bridge")]), check=False)


@pytest.fixture(scope="module")
def models(osc_build):
    _, _, osc40 = build_oscillating_h(OSC, radius_bound=1e40, check=False)
    # a shallow bridge with a small constant: far out its h' underflows
    # while h does not
    shallow = PiecewiseH([Segment(mpmath.mpf(0), None, 0.3, mpmath.mpf("1e-200"), "bridge")])
    return {"osc-1e40": osc40, "osc": osc_build[2], "pure": pure_model_h(0.5),
            "huge-bridge": _huge_bridge_h(), "shallow-bridge": SmoothedH(shallow, []),
            "slope-underflow-blend": _slope_underflow_blend_h()}


def _special_radii(sm):
    """Blend edges (as doubles and as safe-side keys), junctions and their
    nextafter neighbours, and 0."""
    edges = [*sm.base._keys]
    for b in sm.blends:
        edges += [*b._edges_f, float(b.lo), float(b.hi)]
    out = {0.0}
    for f in edges:
        if math.isfinite(f):
            out |= {math.nextafter(f, -math.inf), f, math.nextafter(f, math.inf)}
    return sorted(out)


def _pieces(sm):
    return [*sm.base.segments, *sm.blends]


def _near(a, b, scale):
    """a within rounding of b: 1e-12 of scale, plus a few subnormal steps."""
    return abs(a - b) <= 1e-12 * scale + 2.0**-1070


def _check_kernels(piece, radii):
    with np.errstate(over="ignore", invalid="ignore"):  # r*r past 1e154, as in floats
        v, d1, d2, promoted = piece.kernel(np.array(radii))
    for i, r in enumerate(radii):
        sv, s1, s2, sp = piece.kernel(r)
        if isinstance(piece, Blend):
            want, L = _ref_blend(piece, r)
        else:
            want, L = _ref_segment(piece, r), None
        if want is None:
            assert sp and promoted[i], r
            continue
        assert not sp and not promoted[i], r
        assert _bits(v[i], d1[i], d2[i]) == _bits(sv, s1, s2), r
        if L is None:
            assert _bits(sv, s1, s2) == _bits(want.value, want.d1, want.d2), r
        else:  # the closed form's derivatives, against the chain rule
            assert _bits(sv) == _bits(want.value), r
            assert _near(s1, want.d1, abs(want.d1)), r
            assert _near(s2, want.d2, abs(sv) * (L.d1 * L.d1 + abs(L.d2))), r


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
    # unsorted radii across every owner give each entry its owner's kernel
    rng = np.random.default_rng(7)
    for sm in models.values():
        radii = _special_radii(sm)
        radii = [radii[i] for i in rng.permutation(len(radii))]
        with np.errstate(over="ignore", invalid="ignore"):
            v, d1, d2, promoted = sm.kernel(np.array(radii))
        for i, r in enumerate(radii):
            sv, s1, s2, sp = sm._owner_at(r).kernel(r)
            assert bool(promoted[i]) == sp, r
            if not sp:
                assert _bits(v[i], d1[i], d2[i]) == _bits(sv, s1, s2), r


def test_promotion_flags_out_of_range_constant_and_underflow():
    R = mpmath.mpf(10) ** 100
    huge = Segment(R, None, 4.0, bridge_constant(R, 4.0, 0.6), "bridge")
    assert huge._cf is None
    tiny = Segment(mpmath.mpf(0), None, 4.0, mpmath.mpf("1e-10"), "bridge")
    assert tiny._cf is not None
    for seg, r in ((huge, 2e100), (tiny, 1e100)):
        assert seg.kernel(r)[3] is True
        assert seg.kernel(np.array([1.0, r]))[3].tolist() == [seg is huge, True]
        j = seg.jet(r)  # promoted radii answer in mpmath
        assert isinstance(j.value, mpmath.mpf) and j.d1 < 0
        arr = seg.jet(np.array([r]))
        assert arr.value.dtype == object and arr.value[0] == j.value


def test_array_jets_equal_scalar_jets_with_promoted_entries():
    sm = _huge_bridge_h()
    radii = [50.0, 5e99, 9.5e99, 1.05e100, 3e100]
    j = sm.jet(np.array(radii))
    assert j.value.dtype == object
    for i, r in enumerate(radii):
        s = sm.jet(r)
        assert (type(j.value[i]), j.value[i], j.d1[i], j.d2[i]) == \
            (type(s.value), s.value, s.d1, s.d2), r


# -- value-only readers --------------------------------------------------------

# promoted radii: past 1e100 the huge bridge's constant is out of float
# range, past 1e108 the default model's B bridge underflows in doubles,
# past about 1e77 the shallow bridge's slope does, and at 8.1e59 the
# slope of the slope-underflow blend (at 1.1e60 it is subnormal, not zero,
# and the blend answers in doubles)
_PROMOTED = (8.1e59, 1.1e60, 1e80, 2e100, 1e110, 3.3e150, 4e230)


def _check_readers(sm, radii):
    """Each radius read by its float-table interval's value reader and by
    float_value, against float(sm.jet(r).value), and promoted by the reader
    exactly where the kernel promotes it; returns how many radii were."""
    promoted = 0
    for r in radii:
        i = bisect_right(sm._fedges, r)
        want = _bits(sm.jet(r).value)
        assert _bits(sm._fvalues[i](r)) == want, r
        assert _bits(sm.float_value(r)) == want, r
        assert _bits(sm.value(r)) == want, r
        owner, asked = sm._fowners[i], []
        owner.value_reader(lambda x: asked.append(x) or owner.jet(x).value)(r)
        assert asked == ([r] if owner.kernel(r)[3] else []), r
        promoted += bool(asked)
    return promoted


def test_subnormal_bridge_power_is_promoted(osc_build):
    # the default model's second p = 1.5 bridge (C = 2.56e138): between about
    # 7.7e102 and 7e107 the bare power (1+r^2)^(-1.5) is subnormal, while
    # C times it is a normal double; those radii are read in mpmath
    sm = osc_build[2]
    seg = sm.base.segment_at(1e105)
    assert (seg.kind, seg.p) == ("bridge", 1.5) and seg.c_float() > 1e138
    for r in (1e105, 1e107):
        with mpmath.workdps(40):
            want = seg.C * (1 + mpmath.mpf(r) ** 2) ** mpmath.mpf(-1.5)
        for got in (sm.float_value(r), float(sm.value(r)), float(sm.jet(np.array([r])).value[0])):
            assert abs(got - want) <= 1e-15 * want, (r, got, want)


def test_value_readers_match_jets_at_every_edge(models):
    # every interval's edges with their neighbours, r = 0 and 110.571, and
    # promoted radii of both kinds
    for name, sm in models.items():
        promoted = _check_readers(sm, [*_special_radii(sm), *_PROMOTED])
        assert promoted > 0 or name in ("osc-1e40", "pure"), name


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
        special = [*_special_radii(sm), *_PROMOTED]
        drawn = data.draw(st.lists(
            st.one_of(st.sampled_from(special), st.floats(0.0, 1e80), st.floats(0.0, 1e300)),
            min_size=1, max_size=8), label=name)
        _check_readers(sm, [*_interval_radii(sm, u), *drawn])


def _panel_radii(sm, a, b, u):
    """The radii a panel [a, b] may read, widened by 1e-9 as value_on
    widens it: its ends and every table edge and blend edge inside, each
    with its nextafter neighbours, and a point at fraction u (linear, log)."""
    lo, hi = a * (1.0 - 1e-9), b * (1.0 + 1e-9)
    marks = [lo, hi, *sm._fedges, *(x for bl in sm.blends for x in bl._edges_f)]
    out = [lo + u * (hi - lo)]
    if lo > 0:
        out.append(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))
    for x in marks:
        out += [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
    return [r for r in out if lo <= r <= hi]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data(), u=st.floats(0.0, 1.0))
def test_value_on_reader_reads_as_the_bisect(models, data, u):
    # panels between table edges, blend edges and points next to them:
    # wherever value_on binds a reader, it reads every radius of the widened
    # panel as the bisecting reader does
    nudge = st.sampled_from([1.0 - 1e-6, 1.0 - 1e-10, 1.0, 1.0 + 1e-10, 1.0 + 1e-6])
    for name, sm in models.items():
        m = HalfplaneMetric.from_smoothed(sm)
        pts = sorted({0.0, 1e6, *(x for x in (*sm._fedges,
                                              *(y for bl in sm.blends for y in bl._edges_f))
                                  if x < 1e200)})
        i, j = sorted(data.draw(st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=2),
                                label=name))
        a, b = pts[i] * data.draw(nudge), pts[j] * data.draw(nudge)
        if not a < b:
            a, b = a, 2.0 * a + 1.0
        reader = m.value_on(a, b)
        for r in _panel_radii(sm, a, b, u):
            assert _bits(reader(r)) == _bits(m.value(r)), (name, a, b, r)


def test_value_on_binds_a_reader_unless_a_panel_straddles_two_owners(models):
    sm = models["osc-1e40"]
    m = HalfplaneMetric.from_smoothed(sm)
    for k, bl in enumerate(sm.blends):
        i = sm._fowners.index(bl)
        lo, hi = float(bl.lo), float(bl.hi)
        # a panel across the blend, or reaching into the pieces next to it,
        # reads the blend's reader
        assert m.value_on(lo, hi) is sm._fvalues[i]
        assert m.value_on(0.99 * lo, 1.01 * hi) is sm._fvalues[i]
        if k + 1 < len(sm.blends):  # one panel through two blends: the bisect
            assert m.value_on(lo, float(sm.blends[k + 1].hi)) is m.value
    # a junction with no blend: a panel across it reads through the bisect
    one = mpmath.mpf(1)
    R = mpmath.mpf(100)
    bare = SmoothedH(PiecewiseH([Segment(mpmath.mpf(0), R, 0.6, one, "piece"),
                                 Segment(R, None, 1.2, R ** 1.2 * (1 + R * R) ** -0.6 /
                                         (1 + R * R) ** -1.2 / R ** 1.2, "bridge")]), [])
    m = HalfplaneMetric.from_smoothed(bare)
    assert m.value_on(50.0, 200.0) is m.value
    assert m.value_on(10.0, 50.0) is bare._fvalues[0]
    assert m.value_on(200.0, 1e6) is bare._fvalues[1]
