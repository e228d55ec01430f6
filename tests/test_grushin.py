import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warplab.grushin import (
    ComparisonReport,
    GrushinMetric,
    RescaledModel,
    UnsupportedPair,
    WindowTooNarrow,
    convergence_report,
    grushin_distance,
    halfplane_distance,
    probe_pairs,
    self_similarity_error,
)
from warplab.warping import grushin_h, power_decay_h

from .oracles import coefficient_error, log_ulps, mp_log_h, mp_owner_log_h, owner_by_scan


G_HALF = GrushinMetric(0.5)


def test_validation():
    with pytest.raises(ValueError):
        GrushinMetric(0.3)


def test_radial_and_identical_pairs():
    assert grushin_distance(G_HALF, (1.0, 0.0), (2.0, 0.0))[0] == 1.0
    assert grushin_distance(G_HALF, (0.7, 3.0), (0.7, 3.0))[0] == 0.0


def test_unsupported_pair_without_budget():
    with pytest.raises(UnsupportedPair):
        grushin_distance(G_HALF, (1.0, 0.0), (2.0, 1.0))


def test_equal_t_matches_grid_oracle():
    d_arc, _ = grushin_distance(G_HALF, (1.0, 0.0), (1.0, 1.0))
    d_orc, info = grushin_distance(
        G_HALF, (1.0, 0.0), (1.0001, 1.0), oracle_budget=60_000_000, oracle_r_hi=4.0
    )
    assert info["class"] == "oracle"
    assert abs(d_arc - d_orc) / d_orc < 0.02
    # probe box never needs the axis: doubling the excluded band moves the
    # estimate only by re-gridding noise, far below the 2% comparison scale
    assert info["floor_sensitivity"] < 0.01 * d_orc


def test_general_pair_oracle_between_radial_and_detour_bounds():
    # a pair differing in both t and w goes to the grid oracle, with the
    # floor-sensitivity rerun since the Grushin domain starts above the axis
    g = GrushinMetric(0.6)
    d, info = grushin_distance(g, (1.0, 0.0), (2.0, 1.0), oracle_budget=20_000_000)
    assert info["class"] == "oracle" and g.halfplane.domain_start > 0
    # the t-gap is a lower bound; the equal-t arc at t = 1 then the radial
    # segment out to t = 2 is an admissible path
    arc, _ = grushin_distance(g, (1.0, 0.0), (1.0, 1.0))
    assert 1.0 <= d <= arc + 1.0
    assert math.isfinite(info["floor_sensitivity"])


def test_floor_sensitivity_is_nan_when_the_doubled_floor_excludes_an_endpoint():
    # t = 0.15 lies inside [t_floor, 2 t_floor): the rerun on the doubled band
    # would drop the endpoint, so sensitivity is not measured
    g = GrushinMetric(0.6, t_floor=0.1)
    d, info = grushin_distance(g, (0.15, 0.0), (1.0, 0.5), oracle_budget=20_000_000)
    assert info["class"] == "oracle" and 0.85 <= d
    assert math.isnan(info["floor_sensitivity"])


def test_rescaled_radial_is_lambda_invariant():
    h = power_decay_h(0.5)
    for lam in (10.0, 1e3):
        model = RescaledModel(h, lam, 0.5, (0.0, math.inf))
        d, info = halfplane_distance(model.halfplane, (0.5, 1.0), (2.5, 1.0))
        assert d == 2.0 and info["class"] == "radial"


def test_rescaled_equal_t_close_to_target():
    h = power_decay_h(0.5)
    lam = 1e3
    model = RescaledModel(h, lam, 0.5, (0.0, math.inf))
    for t, dw in ((0.3, 0.05), (1.0, 1.0), (4.0, 8.0)):
        d_target, _ = grushin_distance(G_HALF, (t, 0.0), (t, dw))
        d_model, _ = halfplane_distance(model.halfplane, (t, 0.0), (t, dw))
        assert abs(d_model - d_target) / d_target < 0.05


def test_rescaled_beta_regime_close_to_steeper_target(osc_build):
    # in the middle stretch the cover rescales toward the steeper-exponent
    # halfplane: equal-t probes within 5% of the exponent-1.2 target
    lad, sm = osc_build
    R12, R13 = (float(x) for x in lad.junctions[1:3])
    stretch = (1.2 * R12, 0.8 * R13)
    lam = math.sqrt(stretch[0] * stretch[1] / (0.2 * 5.0))  # geometric-mean placement
    model = RescaledModel(sm, lam, 1.2, stretch)
    target = GrushinMetric(1.2)
    for t, dw in ((0.5, 0.2), (2.0, 3.0)):
        d_t, _ = grushin_distance(target, (t, 0.0), (t, dw))
        d_m, info = halfplane_distance(model.halfplane, (t, 0.0), (t, dw))
        assert info["class"] == "equal-t"
        assert abs(d_m - d_t) / d_t < 0.05


def test_coefficient_error_one_sided_monotone():
    # closed form: error = 1 - (x/(1+x))^a with x = lam^2 t^2; positive and
    # decreasing in lam for every probe t, and the error the rescaled pure
    # model's coefficient has against t^(-2a), to the coefficient's precision:
    # it is read as exp(2a log lam + log h(lam t)), a few ulps of the two logs
    h = power_decay_h(0.5)
    for t in (0.2, 1.0, 5.0):
        errs = [coefficient_error(0.5, lam, t) for lam in (1e2, 1e3, 1e4)]
        assert all(e > 0 for e in errs)
        assert errs[0] > errs[1] > errs[2]
        for lam, err in zip((1e2, 1e3, 1e4), errs):
            model = RescaledModel(h, lam, 0.5, (0.0, math.inf))
            logs = abs(math.log(lam)) + abs(h.log_h(lam * t))
            assert 1.0 - model.halfplane.value(t) * t == pytest.approx(
                err, rel=0, abs=4.0 * 2.0**-52 * logs)


def test_convergence_report_pure_model():
    h = power_decay_h(0.5)
    rep = convergence_report(h, G_HALF, (0.0, math.inf), [1e2, 1e3, 1e4], n_pairs=12, seed=4)
    assert rep.trend_decreasing
    assert rep.final_error() < 0.05
    assert rep.max_rel_errors[0] > rep.max_rel_errors[-1]


def test_convergence_report_oscillating_alpha_regime(osc_build):
    lad, sm = osc_build
    R11 = float(lad.junctions[0])
    stretch = (0.0, 0.8 * R11)  # (0, 80)
    lam_hi = 0.8 * R11 / 5.0
    ladder = list(np.geomspace(4.0, lam_hi, 3))
    rep = convergence_report(sm, GrushinMetric(0.6), stretch, ladder, n_pairs=10, seed=6)
    assert rep.trend_decreasing
    assert len(rep.lambdas) == 3


def test_window_too_narrow(osc_build):
    # fewer than 3 distinct factors fit the alpha stretch (0, 80): three
    # geometric ones from 2 to lam_hi = 16 replace them and the report says
    # so; a stretch whose lam_hi is below 2, or an unbounded one (no top for
    # the refit), holds no three and raises
    lad, sm = osc_build
    g = GrushinMetric(0.6)
    stretch = (0.0, 0.8 * float(lad.junctions[0]))
    for ladder in ([1e5, 1e6, 1e7], [4.0, 8.0], [8.0, 8.0, 8.0], [4.0, 8.0, 8.0],
                   [4.0, 8.0, 8.0, 1e5]):
        rep = convergence_report(sm, g, stretch, ladder, n_pairs=4)
        assert rep.lambdas == np.geomspace(2.0, 16.0, 3).tolist()
        assert rep.refit == "configured factors outside [1, 16]"
    assert convergence_report(sm, g, stretch, [2.0, 4.0, 4.0, 8.0, 1e5], n_pairs=4).refit is None
    with pytest.raises(WindowTooNarrow):
        convergence_report(sm, g, (0.0, 9.0), [1e2, 1e3, 1e4], n_pairs=4)
    with pytest.raises(WindowTooNarrow):
        convergence_report(power_decay_h(0.5), G_HALF, (0.0, math.inf), [4.0, 8.0], n_pairs=4)


def test_probe_exclusion_counts(osc_build):
    # probes whose comparison arc exits the stretch image are excluded, not
    # scored: with a stretch top close to lambda * t_max, an equal-t pair near
    # the top of the probe box drops out (seed 2: t = 4.9937 at lambda = 16,
    # whose arc turns at 5.0089 past the window top 5.0); seed 9 has no such pair
    lad, sm = osc_build
    R11 = float(lad.junctions[0])
    stretch = (0.0, 0.8 * R11)
    lam = 0.8 * R11 / 5.0  # probe box exactly reaches the top
    factors, g = [lam / 4, lam / 2, lam], GrushinMetric(0.6)
    rep = convergence_report(sm, g, stretch, factors, n_pairs=16, seed=9)
    assert isinstance(rep, ComparisonReport) and not rep.excluded
    rep = convergence_report(sm, g, stretch, factors, n_pairs=16, seed=2)
    assert rep.excluded
    for factor, pair in rep.excluded:
        model = RescaledModel(sm, factor, 0.6, stretch)
        assert halfplane_distance(model.halfplane, *pair)[1]["r_max"] > model.window[1]


def test_pairs_without_a_target_distance_are_excluded(tmp_path, monkeypatch):
    # at alpha = 4 the equal-t pair at t = 4.80 has no target distance: it is
    # excluded at each of the three factors, not skipped unseen, and with no
    # pair left each factor reads NaN and both rescaling checks fail
    from warplab import grushin
    from warplab.config import parse_config
    from warplab.harness import run

    lost = ((4.801580016489114, -4.5846077814863815), (4.801580016489114, -3.3586171789968997))
    report = run(parse_config(None, {"mode": "grushin-compare", "alpha": 4.0,
                                     "outdir": str(tmp_path / "all")}))
    final = next(c for c in report.checks if c.name == "rescaling-error-final")
    assert (final.status, final.details) == ("pass", "3 of 60 pairs excluded")
    rep = convergence_report(power_decay_h(4.0), GrushinMetric(4.0), (0.0, math.inf),
                             [1e2, 1e3, 1e4], seed=12345)
    assert rep.excluded == [(lam, lost) for lam in (1e2, 1e3, 1e4)]

    monkeypatch.setattr(grushin, "probe_pairs", lambda rng, n: [lost])
    report = run(parse_config(None, {"mode": "grushin-compare", "alpha": 4.0,
                                     "outdir": str(tmp_path / "lost")}))
    checks = {c.name: c for c in report.checks}
    final = checks["rescaling-error-final"]
    assert (final.status, final.details) == ("fail", "3 of 60 pairs excluded")
    assert math.isnan(final.margin) and checks["rescaling-trend"].status == "fail"


def test_self_similarity_excludes_unreachable_pairs(tmp_path, monkeypatch):
    # at alpha = 4 this pair's distance is unreachable: it is excluded, and
    # with no pair left the error is NaN and cone-self-similarity fails
    from warplab import grushin
    from warplab.config import parse_config
    from warplab.harness import run

    lost = ((4.332585479250572, -4.2396765044524045), (4.332585479250572, 0.6082379333815622))
    pairs = probe_pairs(random.Random(12345 + 1), 10)  # the harness's pairs at the default seed
    err, excluded = self_similarity_error(GrushinMetric(4.0), pairs)
    assert err < 0.01 and excluded == [lost]
    err, excluded = self_similarity_error(GrushinMetric(4.0), [lost])
    assert math.isnan(err) and excluded == [lost]
    monkeypatch.setattr(grushin, "probe_pairs", lambda rng, n: [lost])
    report = run(parse_config(None, {"mode": "grushin-compare", "alpha": 4.0,
                                     "outdir": str(tmp_path)}))
    cone, = [c for c in report.checks if c.name == "cone-self-similarity"]
    assert (cone.status, cone.details) == ("fail", "1 of 1 pairs excluded")
    assert math.isnan(cone.margin)


def test_self_similarity():
    rng = np.random.default_rng(13)
    pairs = probe_pairs(rng, 10)
    assert self_similarity_error(G_HALF, pairs, factor=2.0) == (pytest.approx(0.0, abs=0.01), [])
    g2 = GrushinMetric(0.75)
    err, excluded = self_similarity_error(g2, pairs, factor=3.0)
    assert err < 0.01 and excluded == []


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(t=st.floats(1e-3, 1e300), alpha=st.sampled_from([0.5, 0.6, 1.2, 1.5]))
def test_grushin_value_form_matches_jet(t, alpha):
    # the metric reads h as exp(log h), its log reader within a few ulps of
    # the 30-digit log of the jet's value
    m = GrushinMetric(alpha).halfplane
    want = mp_log_h(grushin_h(alpha), t)
    assert abs(m.log_h(t) - want) <= log_ulps(want)
    assert m.value(t) == math.exp(m.log_h(t))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(t=st.floats(0.0, 1e280), lam=st.sampled_from([3.0, 1e3, 7.5e38]),
       exponent=st.sampled_from([0.6, 1.2, 1.5]))
def test_rescaled_value_matches_scaled_jet(osc_build, t, lam, exponent):
    # log h_eff = 2a log lam + log h(lam t), against the 30-digit log of the
    # scaled mpmath jet, to a few ulps of each term
    sm = osc_build[1]
    model = RescaledModel(sm, lam, exponent, (0.0, math.inf))
    r = lam * t
    if not math.isfinite(r):
        return
    with mpmath.workdps(30):
        want = float(mpmath.log(mpmath.mpf(lam) ** (2 * exponent) * sm.jet(mpmath.mpf(r)).value))
    log_scale = 2.0 * exponent * math.log(lam)
    assert abs(model.log_h(t) - want) <= log_ulps(log_scale, sm.log_h(r))
    assert model.halfplane.value(t) == math.exp(model.log_h(t))


def test_rescaled_value_scales_an_underflowing_radius(osc_build):
    # at r = 1e200 the default model's B bridge is below double range; read
    # in log form and scaled by 1e60^3, it is a normal double, to a few ulps
    # of the logs
    sm = osc_build[1]
    lam, t = 1e60, 1e140
    with mpmath.workdps(30):
        v = sm.jet(mpmath.mpf(lam * t)).value
        want = float(mpmath.mpf(lam) ** 3 * v)
    assert float(v) == 0.0
    model = RescaledModel(sm, lam, 1.5, (0.0, math.inf))
    got = model.halfplane.value(t)
    assert got > 0.0
    assert abs(got / want - 1.0) <= log_ulps(3.0 * math.log(lam), sm.log_h(lam * t))


def _mp_frame(sm, lam, t):
    """(p, p_y) of h_eff(t) = lam^(2a) h(lam t) in y = log(1+t^2), from 30-digit
    derivatives of the mpmath log h of sm's owner at lam t, in its own form
    on both sides of lam t (lam^(2a) cancels): with d1 = h'/h and d2 = h''/h
    in t, p = -d1/y' and p_y = p^2 - p (1/(2t^2) - 1/2) - d2/y'^2."""
    owner = owner_by_scan(sm, lam * t)
    with mpmath.workdps(30):
        t = mpmath.mpf(t)
        log_h = lambda s: mp_owner_log_h(owner, lam * s)  # noqa: E731
        l1, l2 = mpmath.diff(log_h, t, 1), mpmath.diff(log_h, t, 2)
        d1, d2 = l1, l2 + l1 * l1
        ig = (1 + t * t) / (2 * t)  # 1/(dy/dt)
        p = -d1 * ig
        return p, p * p - p * (1 / (2 * t * t) - mpmath.mpf(0.5)) - d2 * ig * ig


def test_rescaled_frame_matches_mp_jets(osc_build):
    # the chain-rule frame at three factors of the alpha window (2 to 16 on
    # the standard model) and t in [0.2, 5], scalar and array alike, against
    # 30-digit mpmath derivatives of sm's log h
    lad, sm = osc_build
    ts = np.geomspace(0.2, 5.0, 41)
    for lam in np.geomspace(2.0, 0.8 * float(lad.junctions[0]) / 5.0, 3).tolist():
        model = RescaledModel(sm, lam, 0.6, (0.0, 0.8 * float(lad.junctions[0])))
        fa = model.frame(ts)
        for i, t in enumerate(ts.tolist()):
            p, p_y = _mp_frame(sm, lam, t)
            for got in (model.frame(t), type(fa)(*(c[i] for c in fa))):
                assert abs(got.p / p - 1) <= 1e-13, (lam, t)
                assert abs(got.p_y / p_y - 1) <= 1e-13, (lam, t)


def test_rescaled_general_pair_oracle_builds_no_jet(osc_build, monkeypatch):
    # the grid oracle reads the rescaled h through its frame: no Jet2 is
    # built, so the frame `curvature` derives from a double Jet2 (and its
    # p_y cancellation) is not on this path
    from warplab import jets

    lad, sm = osc_build
    model = RescaledModel(sm, 8.0, 0.6, (0.0, 0.8 * float(lad.junctions[0])))

    def no_jet(self, *args):
        raise AssertionError("a Jet2 was built")

    monkeypatch.setattr(jets.Jet2, "__init__", no_jet)
    d, info = halfplane_distance(model.halfplane, (1.0, 0.0), (2.0, 1.0), oracle_budget=20_000_000)
    assert info["class"] == "oracle" and 1.0 <= d
