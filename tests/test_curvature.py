import math
import warnings

import mpmath
import numpy as np
import pytest

from warplab.curvature import (
    DoublyWarpedMetric,
    NonPositiveWarping,
    h_frame,
    log_grid,
    ricci_circle,
    ricci_positive_on_grid,
    ricci_radial,
    ricci_report,
    ricci_sphere,
)
from warplab.jets import Jet2
from warplab.warping import (
    WarpingFunction,
    constant_h,
    grushin_h,
    linear_f,
    power_decay_h,
    standard_f,
)

FLAT = DoublyWarpedMetric(2, linear_f(), constant_h())
PURE_HALF = DoublyWarpedMetric(8, standard_f(), power_decay_h(0.5))


def test_flat_cone_is_ricci_flat():
    for r in (0.3, 1.0, 7.0):
        assert ricci_radial(FLAT, r) == pytest.approx(0.0, abs=1e-14)
        assert ricci_circle(FLAT, r) == pytest.approx(0.0, abs=1e-14)
        assert ricci_sphere(FLAT, r) == pytest.approx(0.0, abs=1e-14)


def test_pure_model_closed_values():
    # exact rational forms for alpha=1/2, k=8:
    # radial = 13/(1+r^2)^2, circle = (9+2r^2)/(1+r^2)^2
    for r in (0.5, 1.0, 10.0):
        q = (1.0 + r * r) ** 2
        assert ricci_radial(PURE_HALF, r) == pytest.approx(13.0 / q, rel=1e-13)
        assert ricci_circle(PURE_HALF, r) == pytest.approx((9.0 + 2.0 * r * r) / q, rel=1e-13)


def test_axis_limits_by_extrapolation():
    # radial limit 2*alpha + 1.5*k = 13 (alpha=1/2, k=8); circle limit
    # 2*alpha*(1+k) = 9; sphere limit matches radial by axis smoothness
    assert ricci_radial(PURE_HALF, 0.0) == pytest.approx(13.0, rel=1e-8)
    assert ricci_circle(PURE_HALF, 0.0) == pytest.approx(9.0, rel=1e-8)
    assert ricci_sphere(PURE_HALF, 0.0) == pytest.approx(13.0, rel=1e-7)


def test_circle_sign_structure():
    # h' < 0 and h'' <= 0 at a radius force a positive circle direction
    h = WarpingFunction("cap", lambda x: 1.0 - 0.25 * x * x)
    m = DoublyWarpedMetric(3, standard_f(), h)
    for r in (0.2, 0.5, 1.0):
        assert ricci_circle(m, r) > 0


def test_positivity_grid_pure_model():
    grid = log_grid(1e-3, 1e6, 4000)
    ok, worst = ricci_positive_on_grid(PURE_HALF, grid)
    assert ok
    assert worst.min_value > 0
    # k=1 fails: the circle direction dips negative at moderate radii
    ok1, worst1 = ricci_positive_on_grid(
        DoublyWarpedMetric(1, standard_f(), power_decay_h(0.5)), grid
    )
    assert not ok1 and worst1.min_value < 0
    # flat calibration is identically zero, hence not strictly positive
    okf, _ = ricci_positive_on_grid(FLAT, log_grid(0.1, 10.0, 50))
    assert not okf


def test_nonpositive_warping_raises():
    bad = WarpingFunction("bad", lambda x: 1.0 - x)  # vanishes at r=1
    m = DoublyWarpedMetric(2, standard_f(), bad)
    with pytest.raises(NonPositiveWarping):
        ricci_radial(m, 2.0)


def test_report_min_value():
    rep = ricci_report(PURE_HALF, 2.0)
    assert rep.min_value == min(rep.ric_radial, rep.ric_circle, rep.ric_sphere)


def test_grid_validation():
    with pytest.raises(ValueError):
        ricci_positive_on_grid(PURE_HALF, [])
    with pytest.raises(ValueError):
        ricci_positive_on_grid(PURE_HALF, [-1.0])
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
    fr = h_frame(h, rs)
    assert fr.log_h.dtype == fr.p.dtype == fr.p_y.dtype == np.float64
    with mpmath.workdps(30):
        for r, got in zip(rs.tolist(), fr.log_h.tolist()):
            want = mpmath.log(h(mpmath.mpf(r)).value)
            assert abs(got - want) <= 1e-15 * abs(want), r
    assert fr.p.tolist() == [3.0] * 4 and fr.p_y.tolist() == [0.0] * 4
    # a family with no frame of its own is framed from its double Jet2,
    # which agrees where h and h'' are normal doubles
    plain = h_frame(WarpingFunction("plain", h.fn), rs[:2])
    assert np.allclose(plain.log_h, fr.log_h[:2], rtol=1e-15, atol=0.0)
    assert np.allclose(plain.p, 3.0, rtol=1e-14, atol=0.0)
    assert np.allclose(plain.p_y, 0.0, rtol=0.0, atol=1e-12)


def test_frames_read_the_axis_without_warnings():
    # r = 0 is a row of the grid oracle: log(1 + r^2) takes no log(0) there,
    # and a frameless h gets the axis limit p = -h''/(2h), not 0/0
    rs = np.array([0.0, 1e-3, 1.0, 1e149, 1e150, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fr = h_frame(power_decay_h(0.5), rs)
        flat = h_frame(constant_h(2.0), rs[:3])
        bump = h_frame(WarpingFunction("bump", lambda x: 1.0 / (1.0 + x * x)), rs[:1])
    assert fr.log_h[0] == 0.0
    with np.errstate(over="ignore", divide="ignore"):  # the former expression
        old = np.where(rs < 1e150, np.log1p(rs * rs), 2.0 * np.log(rs))
    assert fr.log_h[1:].tolist() == (-0.5 * old[1:]).tolist()
    assert flat.p.tolist() == [0.0] * 3
    assert bump.p.tolist() == [1.0]  # (1+r^2)^(-1) has p = 1 everywhere


def test_grushin_frame_matches_its_jet_frame():
    # t^(-2a) in closed form against the frame `h_frame` derives from the
    # double Jet2; that route's p_y subtracts terms of size a^2 for a result
    # of size a/t^2, so past t = 1 p_y is held to mpmath instead
    ts = 10.0 ** np.random.default_rng(3).uniform(-3.0, 3.0, 400)
    for a in (0.5, 0.6, 1.5):
        g = grushin_h(a)
        got, jet = h_frame(g, ts), h_frame(WarpingFunction("plain", g.fn), ts)
        assert np.allclose(got.log_h, jet.log_h, rtol=1e-13, atol=0.0)
        assert np.allclose(got.p, jet.p, rtol=1e-13, atol=0.0)
        near = ts <= 1.0
        assert np.allclose(got.p_y[near], jet.p_y[near], rtol=1e-13, atol=0.0)
        exact = [float(-a * (1 + mpmath.mpf(t) ** 2) / mpmath.mpf(t) ** 4) for t in ts.tolist()]
        assert np.allclose(got.p_y, exact, rtol=1e-13, atol=0.0)
