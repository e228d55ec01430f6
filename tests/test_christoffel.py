import math

import numpy as np
import pytest

from warplab.christoffel import OracleSettings, StepTooLarge, ricci_numeric_oracle
from warplab.curvature import DoublyWarpedMetric, ricci_report
from warplab.warping import constant_h, linear_f, power_decay_h, sine_f, standard_f


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


def test_oracle_rejects_nonpositive_radius():
    m = DoublyWarpedMetric(2, linear_f(), constant_h())
    with pytest.raises(ValueError):
        ricci_numeric_oracle(m, 0.0)


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
