"""The closed-form float kernels of segments and blends against the scalar
Jet2 jets they replace, bit for bit, at doubles and per element of arrays."""

import math
import struct

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warplab.jets import Jet2
from warplab.ladder import OscillationParams, bridge_constant
from warplab.piecewise import PiecewiseH, Segment
from warplab.smoothing import build_oscillating_h, pure_model_h, smooth

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
    v = cf * u0 ** (-p)
    d1 = v * (-p) * g1
    if r > 0 and (v == 0.0 or d1 == 0.0 or not math.isfinite(v)):
        return None
    return Jet2(v, d1, v * (p * (p + 1.0) * g1 * g1 - p * 2.0 / u0))


def _ref_blend(b, r):
    """The blend's scalar float jet in Jet2 arithmetic, or None where a piece
    or the blend itself degenerates in doubles."""
    lo_plateau, hi_plateau, Rs = b._plateaus_f
    if r <= lo_plateau:
        return _ref_segment(b.left, r)
    if r >= hi_plateau:
        return _ref_segment(b.right, r)
    hl, hr = _ref_segment(b.left, r), _ref_segment(b.right, r)
    if hl is None or hr is None:
        return None
    phi = Jet2(*b.spec.phi(r, Rs))
    out = phi * hl + (1.0 - phi) * hr
    if out.value <= 0.0 or out.d1 == 0.0 or not math.isfinite(out.value):
        return None
    return out


def _bits(*xs):
    return [struct.pack("<d", float(x)) for x in xs]


@pytest.fixture(scope="module")
def models(osc_build):
    _, _, osc40 = build_oscillating_h(OSC, radius_bound=1e40, check=False)
    return {"osc-1e40": osc40, "osc": osc_build[2], "pure": pure_model_h(0.5)}


def _special_radii(sm):
    """Blend plateau edges, blend edges and junction keys with their
    nextafter neighbours, 0 and 110.571 (where C pow and a square differ in
    the quintic of the R = 100 blend)."""
    edges = [*sm.base._keys]
    for b in sm.blends:
        edges += [*b._plateaus_f, float(b.lo), float(b.hi)]
    out = {0.0, 110.571}
    for f in edges:
        if math.isfinite(f):
            out |= {math.nextafter(f, -math.inf), f, math.nextafter(f, math.inf)}
    return sorted(out)


def _pieces(sm):
    return [*sm.base.segments, *sm.blends]


def _check_kernels(piece, radii):
    ref = _ref_blend if hasattr(piece, "spec") else _ref_segment
    with np.errstate(over="ignore", invalid="ignore"):  # r*r past 1e154, as in floats
        v, d1, d2, promoted = piece.kernel(np.array(radii))
    for i, r in enumerate(radii):
        want = ref(piece, r)
        sv, s1, s2, sp = piece.kernel(r)
        if want is None:
            assert sp and promoted[i], r
            continue
        assert not sp and not promoted[i], r
        assert _bits(sv, s1, s2) == _bits(want.value, want.d1, want.d2), r
        assert _bits(v[i], d1[i], d2[i]) == _bits(want.value, want.d1, want.d2), r


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


def test_blend_kernel_reads_the_quintic_with_c_pow(models):
    # at r = 110.571 on the R = 100 blend, (1 - x)**2 as C pow and as a
    # square differ in the last bit; the array kernel keeps the pow
    b = models["osc-1e40"].blends[0]
    start, span = b._place_f
    y = 1.0 - (110.571 - start) / span
    assert y**2 != y * y
    _check_kernels(b, [110.571])


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
    R = mpmath.mpf(10) ** 100
    one = mpmath.mpf(1)
    hp = PiecewiseH([Segment(mpmath.mpf(0), R, 0.6, one, "piece"),
                     Segment(R, None, 4.0, bridge_constant(R, 4.0, 0.6), "bridge")])
    sm = smooth(hp, check=False)
    radii = [50.0, 5e99, 9.5e99, 1.05e100, 3e100]
    j = sm.jet(np.array(radii))
    assert j.value.dtype == object
    for i, r in enumerate(radii):
        s = sm.jet(r)
        assert (type(j.value[i]), j.value[i], j.d1[i], j.d2[i]) == \
            (type(s.value), s.value, s.d1, s.d2), r
