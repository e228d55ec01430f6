import warnings

import mpmath
import numpy as np
import pytest

from warplab.curvature import (
    DoublyWarpedMetric,
    NonPositiveWarping,
    frame,
    log_grid,
    ricci_grid,
    ricci_report,
)
from warplab.warping import (
    constant_h,
    grushin_h,
    linear_f,
    power_decay_h,
    standard_f,
)

from .oracles import jet_frame, jet_framed

FLAT = DoublyWarpedMetric(2, linear_f(), constant_h())
PURE_HALF = DoublyWarpedMetric(8, standard_f(), power_decay_h(0.5))


def test_flat_cone_is_ricci_flat():
    for r in (0.3, 1.0, 7.0):
        rep = ricci_report(FLAT, r)
        assert rep.ric_radial == pytest.approx(0.0, abs=1e-14)
        assert rep.ric_circle == pytest.approx(0.0, abs=1e-14)
        assert rep.ric_sphere == pytest.approx(0.0, abs=1e-14)


def test_pure_model_closed_values():
    # exact rational forms for alpha=1/2, k=8:
    # radial = 13/(1+r^2)^2, circle = (9+2r^2)/(1+r^2)^2
    for r in (0.5, 1.0, 10.0):
        q = (1.0 + r * r) ** 2
        rep = ricci_report(PURE_HALF, r)
        assert rep.ric_radial == pytest.approx(13.0 / q, rel=1e-13)
        assert rep.ric_circle == pytest.approx((9.0 + 2.0 * r * r) / q, rel=1e-13)


def test_axis_limits_by_extrapolation():
    # radial limit 2*alpha + 1.5*k = 13 (alpha=1/2, k=8); circle limit
    # 2*alpha*(1+k) = 9; sphere limit matches radial by axis smoothness
    rep = ricci_report(PURE_HALF, 0.0)
    assert rep.ric_radial == pytest.approx(13.0, rel=1e-8)
    assert rep.ric_circle == pytest.approx(9.0, rel=1e-8)
    assert rep.ric_sphere == pytest.approx(13.0, rel=1e-7)


def test_circle_sign_structure():
    # h' < 0 and h'' <= 0 at a radius force a positive circle direction
    h = jet_framed("cap", lambda x: 1.0 - 0.25 * x * x)
    m = DoublyWarpedMetric(3, standard_f(), h)
    for r in (0.2, 0.5, 1.0):
        assert ricci_report(m, r).ric_circle > 0


def test_positivity_grid_pure_model():
    grid = log_grid(1e-3, 1e6, 4000)
    _, ok, worst = ricci_grid(PURE_HALF, grid)
    assert ok
    assert worst.min_value > 0
    # k=1 fails: the circle direction dips negative at moderate radii
    _, ok1, worst1 = ricci_grid(DoublyWarpedMetric(1, standard_f(), power_decay_h(0.5)), grid)
    assert not ok1 and worst1.min_value < 0
    # flat calibration is identically zero, hence not strictly positive
    _, okf, _ = ricci_grid(FLAT, log_grid(0.1, 10.0, 50))
    assert not okf


def test_nonpositive_warping_raises():
    bad = jet_framed("bad", lambda x: 1.0 - x)  # vanishes at r=1
    m = DoublyWarpedMetric(2, standard_f(), bad)
    with pytest.raises(NonPositiveWarping):
        ricci_report(m, 2.0)


def test_report_min_value():
    rep = ricci_report(PURE_HALF, 2.0)
    assert rep.min_value == min(rep.ric_radial, rep.ric_circle, rep.ric_sphere)


def test_grid_validation():
    with pytest.raises(ValueError):
        ricci_grid(PURE_HALF, [])
    with pytest.raises(ValueError):
        ricci_grid(PURE_HALF, [-1.0])
    with pytest.raises(ValueError):
        log_grid(10.0, 1.0, 10)


def test_k_validation():
    with pytest.raises(ValueError):
        DoublyWarpedMetric(0, standard_f(), power_decay_h(0.5))


def test_h_frame_reads_tail_and_underflowing_radii_in_doubles():
    # p = 3: at 1e30 h is 1e-180 as a double, at 1e60 it underflows to 0.0,
    # and 1e80 lies past where h'' would; log h stays a double throughout
    # and matches the mpmath jet
    h = power_decay_h(3.0)
    rs = np.array([1.0, 1e30, 1e60, 1e80])
    fr = frame(h, rs)
    assert fr.log_h.dtype == fr.p.dtype == fr.p_y.dtype == np.float64
    with mpmath.workdps(30):
        for r, got in zip(rs.tolist(), fr.log_h.tolist()):
            want = mpmath.log(h(mpmath.mpf(r)).value)
            assert abs(got - want) <= 1e-15 * abs(want), r
    assert fr.p.tolist() == [3.0] * 4 and fr.p_y.tolist() == [0.0] * 4
    # the frame formed from double jets agrees where h and h'' are normal
    # doubles
    plain = jet_frame(h, rs[:2])
    assert np.allclose(plain.log_h, fr.log_h[:2], rtol=1e-15, atol=0.0)
    assert np.allclose(plain.p, 3.0, rtol=1e-14, atol=0.0)
    assert np.allclose(plain.p_y, 0.0, rtol=0.0, atol=1e-12)


def test_frames_read_the_axis_without_warnings():
    # r = 0 is a row of the grid oracle: log(1 + r^2) takes no log(0) there,
    # and a frame formed from jets takes the axis limit p = -h''/(2h), not 0/0
    rs = np.array([0.0, 1e-3, 1.0, 1e149, 1e150, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fr = frame(power_decay_h(0.5), rs)
        flat = frame(constant_h(2.0), rs[:3])
        bump = frame(jet_framed("bump", lambda x: 1.0 / (1.0 + x * x)), rs[:1])
    assert fr.log_h[0] == 0.0
    with np.errstate(over="ignore", divide="ignore"):  # the former expression
        old = np.where(rs < 1e150, np.log1p(rs * rs), 2.0 * np.log(rs))
    assert fr.log_h[1:].tolist() == (-0.5 * old[1:]).tolist()
    assert flat.p.tolist() == [0.0] * 3
    assert bump.p.tolist() == [1.0]  # (1+r^2)^(-1) has p = 1 everywhere


def test_grushin_frame_matches_its_jet_frame():
    # t^(-2a) in closed form against the frame formed from double jets,
    # whose p_y subtracts terms of size a^2 for a result of size a/t^2, so
    # past t = 1 p_y is held to mpmath instead
    ts = 10.0 ** np.random.default_rng(3).uniform(-3.0, 3.0, 400)
    for a in (0.5, 0.6, 1.5):
        g = grushin_h(a)
        got, jet = frame(g, ts), jet_frame(g, ts)
        assert np.allclose(got.log_h, jet.log_h, rtol=1e-13, atol=0.0)
        assert np.allclose(got.p, jet.p, rtol=1e-13, atol=0.0)
        near = ts <= 1.0
        assert np.allclose(got.p_y[near], jet.p_y[near], rtol=1e-13, atol=0.0)
        exact = [float(-a * (1 + mpmath.mpf(t) ** 2) / mpmath.mpf(t) ** 4) for t in ts.tolist()]
        assert np.allclose(got.p_y, exact, rtol=1e-13, atol=0.0)
