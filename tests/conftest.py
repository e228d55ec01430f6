import pytest

from warplab.halfplane import HalfplaneMetric
from warplab.ladder import OscillationParams
from warplab.smoothing import build_oscillating_h
from warplab.warping import power_decay_h

OSC = dict(alpha=0.6, beta=1.2, A=0.3, B=1.5, R11=100.0, periods=2)


@pytest.fixture(scope="session")
def osc_params():
    return OscillationParams(**OSC)


@pytest.fixture(scope="session")
def osc_build(osc_params):
    """(ladder, smoothed) for the standard oscillating model, with the
    blend monotonicity scan run once."""
    return build_oscillating_h(osc_params)


@pytest.fixture(scope="session")
def osc_metric(osc_build):
    _, sm = osc_build
    return HalfplaneMetric.from_smoothed(sm)


@pytest.fixture(scope="session")
def pure_half_metric():
    """Halfplane reduction of the pure 1/2-exponent model."""
    return HalfplaneMetric.from_warping(power_decay_h(0.5))


@pytest.fixture()
def cache_dir(tmp_path):
    return str(tmp_path / "cache")
