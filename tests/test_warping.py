import numpy as np
import pytest

from warplab.curvature import log_grid
from warplab.warping import (
    constant_h,
    exp_decay_h,
    linear_f,
    power_decay_h,
    sine_f,
    standard_f,
)

from .oracles import f_profile_ok, h_profile_ok


def test_standard_f_shape_conditions():
    ok, rep = f_profile_ok(standard_f(), log_grid(1e-3, 1e6, 400))
    assert ok, rep
    j0 = standard_f()(0.0)
    assert j0.value == 0.0 and j0.d1 == 1.0


def test_standard_f_values():
    f = standard_f()
    assert f.value(1.0) == pytest.approx(2.0 ** (-0.25))
    # f ~ sqrt(r) at infinity
    assert f.value(1e8) == pytest.approx(1e4, rel=1e-7)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.6, 1.2, 1.5])
def test_power_decay_h_shape_conditions(p):
    ok, rep = h_profile_ok(power_decay_h(p), log_grid(1e-3, 1e6, 300))
    assert ok, rep
    j0 = power_decay_h(p)(0.0)
    assert j0.value == 1.0 and j0.d1 == 0.0
    assert j0.d2 == pytest.approx(-2.0 * p)  # flat-axis curvature -2p


def test_calibration_profiles_fail_shape_checks():
    # h == 1 is not decreasing; f = sin r breaks 0 < f' < 1; both stay
    # constructible for calibration metrics
    ok, _ = h_profile_ok(constant_h(), np.linspace(0.1, 3.0, 20))
    assert not ok
    ok, _ = f_profile_ok(sine_f(), np.linspace(0.1, 3.0, 20))
    assert not ok
    ok, _ = f_profile_ok(linear_f(), np.linspace(0.1, 3.0, 20))
    assert not ok  # f' == 1 violates the strict upper bound


def test_exp_decay_is_h_profile():
    ok, _ = h_profile_ok(exp_decay_h(), np.linspace(0.1, 10.0, 50))
    assert ok
