import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warplab import christoffel
from warplab.christoffel import StepTooLarge, ricci_numeric_oracle
from warplab.curvature import DoublyWarpedMetric, ricci_report
from warplab.jets import Jet2
from warplab.ladder import OscillationParams
from warplab.smoothing import build_oscillating_h
from warplab.warping import constant_h, linear_f, power_decay_h, sine_f, standard_f

from .oracles import einsum_ricci


def test_flat_cone_oracle_zero():
    m = DoublyWarpedMetric(2, linear_f(), constant_h())
    rep = ricci_numeric_oracle(m, 2.0)
    for v in (rep.ric_radial, rep.ric_circle, rep.ric_sphere):
        assert abs(v) < 1e-7


def test_round_sphere_calibration():
    # f = sin r closes a round unit 3-sphere: radial and sphere directions
    # equal 2, the flat circle contributes 0
    m = DoublyWarpedMetric(2, sine_f(), constant_h())
    rep = ricci_numeric_oracle(m, math.pi / 2)
    assert rep.ric_radial == pytest.approx(2.0, abs=1e-5)
    assert rep.ric_sphere == pytest.approx(2.0, abs=1e-5)
    assert rep.ric_circle == pytest.approx(0.0, abs=1e-5)


@pytest.mark.parametrize("r", [1.0, 5.0, 10.0])
def test_pure_model_pointwise_agreement(r):
    m = DoublyWarpedMetric(8, standard_f(), power_decay_h(0.5))
    o = ricci_numeric_oracle(m, r)
    c = ricci_report(m, r)
    assert o.ric_radial == pytest.approx(c.ric_radial, rel=1e-6)
    assert o.ric_circle == pytest.approx(c.ric_circle, rel=1e-6)
    assert o.ric_sphere == pytest.approx(c.ric_sphere, rel=1e-6)


def test_oracle_agreement_random_sample():
    # closed forms vs oracle to 1e-5 (1 + |value|) across random radii; the
    # finite-difference oracle conditions like 1/r^2 toward the axis, so
    # the sample floor sits at 0.2 (axis limits are tested exactly via the
    # extrapolation path instead)
    rng = np.random.default_rng(11)
    cases = [
        DoublyWarpedMetric(8, standard_f(), power_decay_h(0.5)),
        DoublyWarpedMetric(9, standard_f(), power_decay_h(0.6)),
        DoublyWarpedMetric(3, standard_f(), power_decay_h(0.3)),
    ]
    for m in cases:
        for r in np.exp(rng.uniform(math.log(0.2), math.log(1e4), 6)):
            o = ricci_numeric_oracle(m, float(r))
            c = ricci_report(m, float(r))
            for a, b in (
                (o.ric_radial, c.ric_radial),
                (o.ric_circle, c.ric_circle),
                (o.ric_sphere, c.ric_sphere),
            ):
                assert abs(a - b) <= 1e-5 * (1.0 + abs(b))


def test_step_guard_fires_near_axis():
    # conditioning destroys the oracle near the axis; the Richardson
    # consistency check must refuse rather than return garbage
    m = DoublyWarpedMetric(8, standard_f(), power_decay_h(0.5))
    with pytest.raises(StepTooLarge):
        ricci_numeric_oracle(m, 1e-3)


def test_oracle_retries_at_halved_steps(monkeypatch):
    # alpha = 3, r = 3.564...: the first step pair moves ric_circle by 6.5e-4
    # on halving; the pair at half the steps is consistent and agrees with
    # the closed forms
    r = 3.564155994548888
    ricci_at_steps = christoffel._ricci_at_steps
    tried = []
    monkeypatch.setattr(christoffel, "_ricci_at_steps",
                        lambda m, x, steps: tried.append(steps[1]) or ricci_at_steps(m, x, steps))
    for k in (8, 9):
        tried.clear()
        m = DoublyWarpedMetric(k, standard_f(), power_decay_h(3.0))
        o, c = ricci_numeric_oracle(m, r), ricci_report(m, r)
        assert tried == [3e-3, 1.5e-3, 7.5e-4]
        for a, b in ((o.ric_radial, c.ric_radial), (o.ric_circle, c.ric_circle),
                     (o.ric_sphere, c.ric_sphere)):
            assert abs(a - b) <= 1e-8 * (1.0 + abs(b))


def test_oracle_rejects_nonpositive_radius():
    m = DoublyWarpedMetric(2, linear_f(), constant_h())
    with pytest.raises(ValueError):
        ricci_numeric_oracle(m, 0.0)


def test_oracle_returns_doubles():
    m = DoublyWarpedMetric(8, standard_f(), power_decay_h(0.5))
    o = ricci_numeric_oracle(m, 7.0)
    assert [type(v) for v in (o.ric_radial, o.ric_circle, o.ric_sphere)] == [float] * 3


# reprs recorded before f and h were read once per stencil radius
GOLDEN = {
    ("pure", 0.3): ("10.941839908958633", "7.726622337947294", "11.875073306658637"),
    ("pure", 7.0): ("0.005199999995476661", "0.04279999999300219", "0.98869540161661"),
    ("pure", 2e4): ("8.549927243091634e-17", "5.000000030755262e-09", "0.0003499975004113036"),
    ("sphere", math.pi / 2): ("1.9999999999604832", "0.0", "1.9999999999073144"),
}


@pytest.mark.parametrize("case, r", list(GOLDEN))
def test_oracle_golden_bits(case, r):
    if case == "pure":
        m = DoublyWarpedMetric(8, standard_f(), power_decay_h(0.5))
    else:
        m = DoublyWarpedMetric(2, sine_f(), constant_h())
    o = ricci_numeric_oracle(m, r)
    got = tuple(repr(float(v)) for v in (o.ric_radial, o.ric_circle, o.ric_sphere))
    assert got == GOLDEN[case, r]


def test_oracle_builds_no_jet_on_the_pure_model(monkeypatch):
    # f and h are warping functions, whose value reads evaluate on the double
    def no_jet(self, *args):
        raise AssertionError("a Jet2 was built")

    monkeypatch.setattr(Jet2, "__init__", no_jet)
    o = ricci_numeric_oracle(DoublyWarpedMetric(8, standard_f(), power_decay_h(0.5)), 7.0)
    assert tuple(repr(float(v)) for v in (o.ric_radial, o.ric_circle, o.ric_sphere)) == GOLDEN[
        "pure", 7.0]


class _CountingReads:
    """A warping function that counts its value reads."""

    def __init__(self, w):
        self.w = w
        self.reads = 0

    def value(self, r):
        self.reads += 1
        return self.w.value(r)


def test_oracle_reads_f_and_h_once_per_stencil_radius():
    f, h = _CountingReads(standard_f()), _CountingReads(power_decay_h(0.5))
    o = ricci_numeric_oracle(DoublyWarpedMetric(8, f, h), 7.0)
    # two step sets (s and s/2), each reading f and h at r - s, r and r + s
    assert f.reads + h.reads == 2 * 6 and f.reads == h.reads
    assert repr(float(o.ric_sphere)) == GOLDEN["pure", 7.0][2]


# Reference stencil: the full (k+2)x(k+2) metric matrix assembled at every
# one of the 1 + 2n^2 stencil points, differenced matrix by matrix.
def _metric_matrix(k, fh, x):
    n = k + 2
    g = np.zeros((n, n))
    g[0, 0] = 1.0
    fv, hv = fh
    prefix = 1.0
    for i in range(k):
        g[1 + i, 1 + i] = fv * fv * prefix
        prefix *= np.sin(x[1 + i]) ** 2
    g[n - 1, n - 1] = hv * hv
    return g


def _dense_stencil_derivatives(m, x, steps):
    n = len(x)
    s0 = steps[0]
    fh = {rs: (m.f.value(rs), m.h.value(rs)) for rs in (x[0] - s0, x[0], x[0] + s0)}

    def metric(xs):
        return _metric_matrix(m.k, fh[xs[0]], xs)

    g0 = metric(x)
    gp = np.empty((n, n, n))
    gm = np.empty((n, n, n))
    for mu in range(n):
        xp = x.copy()
        xp[mu] += steps[mu]
        xm = x.copy()
        xm[mu] -= steps[mu]
        gp[mu] = metric(xp)
        gm[mu] = metric(xm)

    d1 = np.empty((n, n, n))
    for mu in range(n):
        d1[mu] = (gp[mu] - gm[mu]) / (2.0 * steps[mu])

    d2 = np.empty((n, n, n, n))
    for mu in range(n):
        d2[mu, mu] = (gp[mu] - 2.0 * g0 + gm[mu]) / steps[mu] ** 2
    for mu in range(n):
        for nu in range(mu + 1, n):
            corners = []
            for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                xc = x.copy()
                xc[mu] += a * steps[mu]
                xc[nu] += b * steps[nu]
                corners.append(metric(xc))
            pp, pm, mp, mm = corners
            val = (pp - pm - mp + mm) / (4.0 * steps[mu] * steps[nu])
            d2[mu, nu] = val
            d2[nu, mu] = val
    # the diagonal dd[mu, nu, a] = d_mu d_nu g_aa, in the oracle stencil's
    # format, once every other entry is +0.0
    dd = d2.reshape(n, n, n * n)[:, :, ::n + 1].copy()
    d2.reshape(n, n, n * n)[:, :, ::n + 1] = 0.0
    assert not d2.any() and not np.signbit(d2).any()
    return g0, d1, dd


def _oracle_run(m, r, derivatives):
    """The oracle's report (or its StepTooLarge message) and the raw Ricci
    tensor of each step set, with the metric derivatives from `derivatives`."""
    rics = []
    ricci_at_steps = christoffel._ricci_at_steps

    def recording(m, x, steps):
        ric, g0 = ricci_at_steps(m, x, steps)
        rics.append(ric)
        return ric, g0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(christoffel, "_stencil_derivatives", derivatives)
        mp.setattr(christoffel, "_ricci_at_steps", recording)
        try:
            rep = ricci_numeric_oracle(m, r)
            out = [float(v).hex() for v in (rep.r, rep.ric_radial, rep.ric_circle, rep.ric_sphere)]
        except StepTooLarge as e:
            out = str(e)
    return out, [ric.tobytes() for ric in rics]


def _assert_same_as_dense(m, r):
    got = _oracle_run(m, r, christoffel._stencil_derivatives)
    want = _oracle_run(m, r, _dense_stencil_derivatives)
    assert got == want  # report bits, then the ric tensors byte for byte (sign of zero too)


@pytest.fixture(scope="module")
def osc_1e40_h():
    params = OscillationParams(0.6, 1.2, 0.3, 1.5, 100.0, 2)
    _, sm = build_oscillating_h(params, radius_bound=1e40)
    return sm


_radii = st.floats(math.log(0.2), math.log(1e6)).map(math.exp)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(r=_radii)
def test_diagonal_stencil_matches_dense_pure(r):
    _assert_same_as_dense(DoublyWarpedMetric(8, standard_f(), power_decay_h(0.5)), r)


def test_diagonal_stencil_matches_dense_osc(osc_1e40_h):
    m = DoublyWarpedMetric(9, standard_f(), osc_1e40_h)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(r=_radii)
    def check(r):
        _assert_same_as_dense(m, r)

    check()


@pytest.mark.parametrize("f, r", [(sine_f(), math.pi / 2), (linear_f(), 2.0)],
                         ids=["sphere", "flat-cone"])
def test_diagonal_stencil_matches_dense_calibration(f, r):
    _assert_same_as_dense(DoublyWarpedMetric(2, f, constant_h()), r)


class _MpfPower:
    """(1 + r^2)^(-p) as an mpf: f and h values that stay mpf in the stencil."""

    def __init__(self, p):
        self.p = mpmath.mpf(p)

    def value(self, r):
        return (1 + mpmath.mpf(float(r)) ** 2) ** (-self.p)


@pytest.mark.parametrize("r", [0.5, 3.0, 70.0])
def test_diagonal_stencil_matches_dense_mpf_values(r):
    _assert_same_as_dense(DoublyWarpedMetric(8, _MpfPower(-0.5), _MpfPower(0.5)), r)


def test_diagonal_stencil_matches_dense_refusal():
    m = DoublyWarpedMetric(8, standard_f(), power_decay_h(0.5))
    out, rics = _oracle_run(m, 1e-3, christoffel._stencil_derivatives)
    assert out.startswith("oracle values moved from")
    assert len(rics) == 2 + christoffel._HALVINGS  # every halving refused too
    _assert_same_as_dense(m, 1e-3)


# The diagonal products of _ricci_at_steps against the full-tensor einsum
# contractions of tests/oracles.py, at every step set the oracle can try.
def _assert_same_as_einsum(m, r):
    x, steps = christoffel._oracle_point(m.k, r)
    for j in range(2 + christoffel._HALVINGS):
        s = steps * 0.5 ** j
        ric, g0 = christoffel._ricci_at_steps(m, x, s)
        want_g0, d1, dd = christoffel._stencil_derivatives(m, x, s)
        want = einsum_ricci(want_g0, d1, dd)
        assert g0.tobytes() == want_g0.tobytes()
        assert np.array_equal(ric, want, equal_nan=True), (m.k, r, j)
        assert np.array_equal(np.signbit(np.diag(ric)), np.signbit(np.diag(want))), (m.k, r, j)


_wide_radii = st.floats(math.log(1e-3), math.log(1e6)).map(math.exp)


@pytest.mark.parametrize("k", [1, 2, 3, 8, 9, 12])
@pytest.mark.parametrize("p", [0.5, 0.6, 1.2, 3.0])
def test_ricci_products_match_einsum_pure(k, p):
    m = DoublyWarpedMetric(k, standard_f(), power_decay_h(p))

    @settings(derandomize=True, max_examples=12, deadline=None, database=None)
    @given(r=_wide_radii)
    def check(r):
        _assert_same_as_einsum(m, r)

    check()


@pytest.mark.parametrize("k", [1, 2, 3, 8, 9, 12])
def test_ricci_products_match_einsum_osc(k, osc_1e40_h):
    m = DoublyWarpedMetric(k, standard_f(), osc_1e40_h)

    @settings(derandomize=True, max_examples=12, deadline=None, database=None)
    @given(r=_wide_radii)
    def check(r):
        _assert_same_as_einsum(m, r)

    check()


@pytest.mark.parametrize("k", [1, 2, 3, 8])
@pytest.mark.parametrize("f, r", [(sine_f(), math.pi / 2), (sine_f(), 1.0), (linear_f(), 2.0)],
                         ids=["sphere", "sphere-off-equator", "flat-cone"])
def test_ricci_products_match_einsum_calibration(k, f, r):
    _assert_same_as_einsum(DoublyWarpedMetric(k, f, constant_h()), r)


@pytest.mark.parametrize("k", [1, 8, 12])
@pytest.mark.parametrize("r", [1e-3, 0.5, 3.0, 70.0, 1e6])
def test_ricci_products_match_einsum_mpf_values(k, r):
    _assert_same_as_einsum(DoublyWarpedMetric(k, _MpfPower(-0.5), _MpfPower(0.5)), r)


# The oracle's stencil gives the second differences as their diagonal
# dd[mu, nu, a] = d_mu d_nu g_aa, never the n^4 tensor: against the dense
# matrix-by-matrix stencil, byte for byte, with +0.0 everywhere else.
def _assert_diagonal_stencil_is_dense_diagonal(m, r):
    x, steps = christoffel._oracle_point(m.k, r)
    for j in range(2 + christoffel._HALVINGS):
        g0, d1, dd = christoffel._stencil_derivatives(m, x, steps * 0.5 ** j)
        want = _dense_stencil_derivatives(m, x, steps * 0.5 ** j)
        assert [a.tobytes() for a in (g0, d1, dd)] == [a.tobytes() for a in want], (m.k, r, j)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(r=_radii)
def test_stencil_diagonal_is_dense_diagonal_pure(r):
    _assert_diagonal_stencil_is_dense_diagonal(
        DoublyWarpedMetric(8, standard_f(), power_decay_h(0.5)), r)


def test_stencil_diagonal_is_dense_diagonal_osc(osc_1e40_h):
    m = DoublyWarpedMetric(9, standard_f(), osc_1e40_h)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(r=_radii)
    def check(r):
        _assert_diagonal_stencil_is_dense_diagonal(m, r)

    check()


@pytest.mark.parametrize("m, r", [
    (DoublyWarpedMetric(2, sine_f(), constant_h()), math.pi / 2),
    (DoublyWarpedMetric(2, linear_f(), constant_h()), 2.0),
    (DoublyWarpedMetric(8, _MpfPower(-0.5), _MpfPower(0.5)), 0.5),
    (DoublyWarpedMetric(8, _MpfPower(-0.5), _MpfPower(0.5)), 70.0),
    (DoublyWarpedMetric(8, standard_f(), power_decay_h(0.5)), 1e-3),
], ids=["sphere", "flat-cone", "mpf-0.5", "mpf-70", "refused"])
def test_stencil_diagonal_is_dense_diagonal_calibration(m, r):
    _assert_diagonal_stencil_is_dense_diagonal(m, r)


def test_oracle_peak_memory_at_k53():
    # the certified sphere dimension of the oscillating model: the n^4
    # tensor of second differences alone would be 55^4 doubles, 73 MB
    m = DoublyWarpedMetric(53, standard_f(), power_decay_h(0.5))
    tracemalloc.start()
    try:
        rep = ricci_numeric_oracle(m, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ric_radial == pytest.approx(ricci_report(m, 3.0).ric_radial, rel=1e-6)
    assert peak < 20e6
