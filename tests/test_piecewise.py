import numpy as np
import pytest

from warplab.ladder import ExponentSchedule, build_scale_ladder
from warplab.piecewise import ContinuityViolation, Segment, junction_gaps, ladder_segments
from warplab.smoothing import SmoothedH
from warplab.warping import power_decay_h


@pytest.fixture(scope="module")
def osc_pieces(osc_params):
    # the unsmoothed h: the ladder's segments with no blend
    lad = build_scale_ladder(osc_params)
    return lad, SmoothedH(ladder_segments(lad), [])


def test_junction_continuity(osc_pieces):
    _, hp = osc_pieces
    assert max(junction_gaps(hp.segments)) <= 1e-10
    assert hp.gaps == junction_gaps(hp.segments)


def test_junction_values_match_both_sides(osc_pieces):
    lad, hp = osc_pieces
    a = 0.6
    b = 1.2
    # at R11 the value equals the pure-alpha piece
    R11 = float(lad.junctions[0])
    assert hp.value(R11) == pytest.approx((1 + R11**2) ** (-a), rel=1e-12)
    # at R12 it equals the pure-beta piece
    R12 = float(lad.junctions[1])
    assert hp.value(R12) == pytest.approx((1 + R12**2) ** (-b), rel=1e-12)


def test_strictly_decreasing_on_random_pairs(osc_pieces):
    _, hp = osc_pieces
    rng = np.random.default_rng(5)
    exps = rng.uniform(-2, 37, 200)  # across period 1 into period 2
    rs = np.sort(10.0**exps)
    vals = [hp.value(float(r)) for r in rs]
    for (r1, v1), (r2, v2) in zip(zip(rs, vals), zip(rs[1:], vals[1:])):
        if r1 < r2:
            assert v1 > v2


def test_pure_piece_bit_for_bit(osc_pieces):
    lad, hp = osc_pieces
    pa = power_decay_h(0.6)
    pb = power_decay_h(1.2)
    R11, R12, R13 = (float(x) for x in lad.junctions[:3])
    for r in (13.0, 50.0, 0.8 * R11):
        assert hp.value(r) == pa.value(r)
    for r in (1.2 * R12, 1e8, 0.8 * R13):
        assert hp.value(r) == pb.value(r)


def test_segment_lookup_at_boundaries(osc_pieces):
    lad, hp = osc_pieces
    R11 = float(lad.junctions[0])
    s = hp._owner_at(R11)
    assert s.kind == "bridge"  # junction radius belongs to the right segment
    s = hp._owner_at(R11 - 1.0)
    assert s.kind == "piece" and s.p == 0.6


def test_continuity_violation_detected():
    segs = [
        Segment(0.0, 10.0, 0.5, 0.0, "piece"),
        Segment(10.0, None, 1.0, 0.0, "piece"),  # jumps at r=10
    ]
    with pytest.raises(ContinuityViolation, match="junction at r=10"):
        SmoothedH(segs, [])
    with pytest.raises(ContinuityViolation):
        junction_gaps(segs)


def test_segment_list_must_cover_zero_to_infinity():
    with pytest.raises(ValueError, match="extends to infinity"):
        SmoothedH([], [])
    with pytest.raises(ValueError, match="extends to infinity"):
        SmoothedH([Segment(0.0, 10.0, 0.5, 0.0, "piece")], [])


def test_schedule_reduces_to_pure():
    s = ExponentSchedule((0.5,), A=0.25, B=1.0)
    segs = ladder_segments(build_scale_ladder(s))
    assert len(segs) == 1
    hp, pure = SmoothedH(segs, []), power_decay_h(0.5)
    for r in (0.0, 3.0, 123.0, 5e5):
        assert hp.value(r) == pure.value(r)


def test_schedule_matches_oscillation_path(osc_params, osc_pieces):
    _, hp = osc_pieces
    s = ExponentSchedule((0.6, 1.2, 0.6, 1.2), A=0.3, B=1.5)
    hs = ladder_segments(build_scale_ladder(s))
    assert len(hs) == len(hp.segments)
    for a, b in zip(hs, hp.segments):
        assert (a.p, a.kind) == (b.p, b.kind)
        assert a.log_c == b.log_c and a.r_lo == b.r_lo and a.r_hi == b.r_hi


def test_consecutive_duplicate_exponents_merge():
    s = ExponentSchedule((0.5, 0.5, 0.75), A=0.25, B=1.3)
    segs = ladder_segments(build_scale_ladder(s))
    ps = [seg.p for seg in segs]
    assert ps.count(0.5) >= 1 and 0.75 in ps
    assert max(junction_gaps(segs)) <= 1e-10
