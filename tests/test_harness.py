import hashlib
import json
import math
import os
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from warplab.christoffel import ricci_numeric_oracle
from warplab.config import parse_config
from warplab.curvature import DoublyWarpedMetric, ricci_components, ricci_report
from warplab.harness import run, write_columns, write_csv
from warplab.ladder import OscillationParams
from warplab.smoothing import build_oscillating_h
from warplab.warping import power_decay_h, standard_f

OSC = {"alpha": 0.6, "beta": 1.2, "A": 0.3, "B": 1.5}


def test_write_csv_repr_floats(tmp_path):
    p = tmp_path / "x.csv"
    write_csv(str(p), ["a", "b"], [(1.0, 0.1), (2, 1e-300),
                                   (np.float64(0.005199999995476661), np.int64(7))])
    text = p.read_text()
    assert text.splitlines() == ["a,b", "1.0,0.1", "2,1e-300", "0.005199999995476661,7"]


def test_pure_orbit_growth_mode(tmp_path, cache_dir):
    cfg = parse_config(None, {
        "mode": "orbit-growth", "alpha": 0.5,
        "outdir": str(tmp_path), "cache_dir": cache_dir,
    })
    report = run(cfg)
    assert not report.failed
    names = {c.name for c in report.checks}
    assert "distance-power-bounds" in names and "growth-slope" in names
    growth = (tmp_path / "growth_curve.csv").read_text().splitlines()
    assert growth[0] == "R,count,logR,logCount"


def test_grushin_mode_pure(tmp_path):
    cfg = parse_config(None, {
        "mode": "grushin-compare", "alpha": 0.5, "outdir": str(tmp_path),
        "probe_pairs": 8,
    })
    report = run(cfg)
    assert not report.failed
    csv = (tmp_path / "grushin_convergence.csv").read_text().splitlines()
    assert csv[0] == "lambda,max_rel_err"
    assert len(csv) == 4  # header + three factors
    final = next(c for c in report.checks if c.name == "rescaling-error-final")
    assert final.details == "0 of 24 pairs excluded"  # three factors, eight pairs


def test_rescaling_error_reports_an_excluded_pair(tmp_path, monkeypatch):
    # the first comparison arc fails on the rescaled side: that pair drops
    # out of its factor's max error, and the check's details count it
    from warplab import grushin

    real = grushin.rescaled_distance
    calls = []

    def fail_first(*args, **kw):
        calls.append(args)
        if len(calls) == 1:
            raise grushin.UnsupportedPair("forced")
        return real(*args, **kw)

    monkeypatch.setattr(grushin, "rescaled_distance", fail_first)
    cfg = parse_config(None, {
        "mode": "grushin-compare", "alpha": 0.5, "outdir": str(tmp_path),
        "probe_pairs": 8,
    })
    report = run(cfg)
    final = next(c for c in report.checks if c.name == "rescaling-error-final")
    assert final.details == "1 of 24 pairs excluded"
    assert len(calls) == 24


def test_report_structure_and_exit_semantics(tmp_path):
    cfg = parse_config(None, {
        "mode": "ricci-check", "alpha": 0.5, "k": 8, "grid_points": 200,
        "r_max": 1e3, "outdir": str(tmp_path),
    })
    report = run(cfg)
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["config"]["mode"] == "ricci-check"
    assert all(c["status"] in ("pass", "fail", "flagged") for c in doc["checks"])
    assert "total" in doc["timings"]
    assert not report.failed


def test_warm_cache_reuses_distances(tmp_path, cache_dir):
    cfg1 = parse_config(None, {
        "mode": "capacity", "alpha": 0.5, "outdir": str(tmp_path / "a"),
        "cache_dir": cache_dir,
    })
    run(cfg1)
    files = os.listdir(cache_dir)
    assert any(f.startswith("orbit_") for f in files)
    # second run must produce identical capacity samples from the warm cache
    cfg2 = parse_config(None, {
        "mode": "capacity", "alpha": 0.5, "outdir": str(tmp_path / "b"),
        "cache_dir": cache_dir,
    })
    run(cfg2)
    a = (tmp_path / "a" / "capacity.csv").read_bytes()
    b = (tmp_path / "b" / "capacity.csv").read_bytes()
    assert a == b


def test_warm_pure_full_suite_counts_from_the_cache(tmp_path, cache_dir, monkeypatch):
    # a cold pure full suite files every distance and count it computes; a
    # warm one on that file inverts no arc, solves no distance and appends
    # nothing, and writes the same CSVs
    from warplab import cache, halfplane, orbits

    def cfg(tag):
        return parse_config(None, {"mode": "full-suite", "alpha": 0.5,
                                   "outdir": str(tmp_path / tag), "cache_dir": cache_dir})

    run(cfg("cold"))
    calls = []

    def spy(holder, name):
        real = getattr(holder, name)
        monkeypatch.setattr(holder, name, lambda *a, **k: calls.append(name) or real(*a, **k))

    for holder in (halfplane, orbits):
        spy(holder, "axis_count_at_radius")
        spy(holder, "orbit_distance")
    spy(cache.OrbitCache, "append")
    assert not run(cfg("warm")).failed
    assert calls == []
    cold, warm = (sorted((tmp_path / tag).glob("*.csv")) for tag in ("cold", "warm"))
    assert [p.name for p in cold] == [p.name for p in warm]
    assert all(a.read_bytes() == b.read_bytes() for a, b in zip(cold, warm))


def test_corrupt_cache_record_is_computed_again(tmp_path, cache_dir):
    # a record line that does not parse (a stray byte in a distance line, one
    # in a count line) is skipped like a torn last line: the run computes the
    # two records again, appends them, and writes a clean run's CSVs
    def cfg(tag):
        return parse_config(None, {"mode": "orbit-growth", "alpha": 0.5,
                                   "outdir": str(tmp_path / tag), "cache_dir": cache_dir})

    run(cfg("clean"))
    (path,) = (tmp_path / "cache").iterdir()
    lines = path.read_text().splitlines(keepends=True)
    d_at = next(i for i, ln in enumerate(lines) if ln[0].isdigit())
    n_at = next(i for i, ln in enumerate(lines) if ln.startswith("n "))
    spoilt = [lines[d_at], lines[n_at]]
    lines[d_at] = "x" + lines[d_at]
    head, _, tail = lines[n_at].rpartition(" ")
    lines[n_at] = f"{head} x{tail}"
    path.write_text("".join(lines))
    assert not run(cfg("spoilt")).failed
    assert path.read_text().splitlines(keepends=True) == lines + spoilt
    clean, spoilt = (sorted((tmp_path / tag).glob("*.csv")) for tag in ("clean", "spoilt"))
    assert [p.name for p in clean] == [p.name for p in spoilt] and len(clean) == 2
    assert all(a.read_bytes() == b.read_bytes() for a, b in zip(clean, spoilt))


def test_cache_env_override(tmp_path, monkeypatch):
    from warplab.cache import default_cache_dir

    monkeypatch.setenv("WARPLAB_CACHE_DIR", str(tmp_path / "envcache"))
    assert default_cache_dir() == str(tmp_path / "envcache")


def test_orbit_growth_without_beta_piece(tmp_path, cache_dir):
    # the 1e5 bound truncates the ladder before R12, so no beta piece exists,
    # nor the second alpha piece after it
    cfg = parse_config(None, {
        "mode": "orbit-growth", **OSC, "radius_bound": 1e5,
        "outdir": str(tmp_path), "cache_dir": cache_dir,
    })
    report = run(cfg)
    assert [(c.name, c.status) for c in report.checks] == [
        ("alpha-window-unavailable", "flagged"), ("beta-window-unavailable", "flagged")]


def test_orbit_growth_without_period_two_alpha_piece(tmp_path, cache_dir):
    # the 1e20 bound keeps the first beta piece but stops the ladder before
    # the second alpha piece: the alpha window is flagged, not left out
    cfg = parse_config(None, {
        "mode": "orbit-growth", **OSC, "radius_bound": 1e20,
        "outdir": str(tmp_path), "cache_dir": cache_dir,
    })
    report = run(cfg)
    assert [(c.name, c.status) for c in report.checks] == [
        ("alpha-window-unavailable", "flagged"), ("beta-window-distance-sandwich", "pass"),
        ("beta-window-growth-slope", "pass"), ("beta-window-count-constants", "pass")]


def test_orbit_growth_one_period_runs_the_alpha_window(tmp_path, cache_dir):
    # one period is the ladder alpha -> beta -> alpha, whose second alpha
    # piece (from 1.25e38) opens the alpha window; below it the window is
    # flagged as with two periods
    def checks(bound, out):
        cfg = parse_config(None, {"mode": "orbit-growth", **OSC, "periods": 1,
                                  "radius_bound": bound, "outdir": str(tmp_path / out),
                                  "cache_dir": cache_dir})
        return run(cfg).checks

    beta = [("beta-window-distance-sandwich", "pass"), ("beta-window-growth-slope", "pass"),
            ("beta-window-count-constants", "pass")]
    assert [(c.name, c.status) for c in checks(1e40, "full")] == [
        ("alpha-window-distance-sandwich", "pass"), ("alpha-window-growth-slope", "pass"),
        ("alpha-window-count-constants", "pass"), *beta]
    cut = checks(1e20, "cut")
    assert [(c.name, c.status) for c in cut] == [("alpha-window-unavailable", "flagged"), *beta]
    assert cut[0].details == "no second alpha piece below radius bound 1e+20"


def test_grushin_mode_zero_periods(tmp_path):
    cfg = parse_config(None, {
        "mode": "grushin-compare", **OSC, "periods": 0, "outdir": str(tmp_path),
        "probe_pairs": 8,
    })
    report = run(cfg)
    assert not report.failed
    assert "rescaling-ladder-refit" in {c.name for c in report.checks}


def _pure_cache(cache_dir, alpha, quad_rel_tol=1e-9):
    """The orbit cache a run's pure model files its distances in: keyed by
    alpha and the arc tolerance, the two settings its metric reads."""
    from warplab.cache import OrbitCache

    return OrbitCache.for_model({"alpha": alpha, "quad_rel_tol": quad_rel_tol}, cache_dir)


def _cache_key(alpha, quad_rel_tol=1e-9):
    return os.path.basename(_pure_cache("", alpha, quad_rel_tol).path)


def test_capacity_rows_keyed_to_the_pure_model(tmp_path, cache_dir):
    # capacity runs the pure alpha model: its d_1 and its 90 counts are filed
    # under the pure model's key
    osc = parse_config(None, {"mode": "capacity", **OSC, "outdir": str(tmp_path),
                              "cache_dir": cache_dir})
    run(osc)
    assert os.listdir(cache_dir) == [_cache_key(0.6)]
    records = _pure_cache(cache_dir, 0.6).load()
    assert records.distances and len(records.counts) == 90


def test_pure_cache_is_keyed_by_alpha_and_tolerance_only(tmp_path, cache_dir):
    # a pure model's distances and counts depend on alpha and the arc
    # tolerance alone: runs that differ in R11, periods or radius_bound share
    # one file, and so does an oscillating run's capacity table; another
    # alpha or tolerance writes a file of its own
    def capacity_run(tag, **model):
        run(parse_config(None, {"mode": "capacity", **model, "outdir": str(tmp_path / tag),
                                "cache_dir": cache_dir}))
        return sorted(os.listdir(cache_dir))

    shared = [_cache_key(0.6)]
    assert capacity_run("pure", alpha=0.6) == shared
    assert capacity_run("R11", alpha=0.6, R11=300.0) == shared
    assert capacity_run("periods", alpha=0.6, periods=5) == shared
    assert capacity_run("bound", alpha=0.6, radius_bound=1e40) == shared
    assert capacity_run("osc", **OSC, radius_bound=1e40) == shared
    other_alpha = _cache_key(0.7)
    assert capacity_run("alpha", alpha=0.7) == sorted(shared + [other_alpha])
    loose = _cache_key(0.6, 1e-8)
    assert capacity_run("tol", alpha=0.6, quad_rel_tol=1e-8) == sorted(shared + [other_alpha,
                                                                                 loose])


def test_quad_rel_tol_keys_the_cache_and_reaches_distances(tmp_path, cache_dir, monkeypatch):
    # the configured tolerance reaches the capacity step's d_1 and every count
    from warplab import orbits

    tols = []

    def spy(real):
        def passed_through(m, x):
            tols.append(m.rel_tol)
            return real(m, x)
        return passed_through

    monkeypatch.setattr(orbits, "orbit_distance", spy(orbits.orbit_distance))
    monkeypatch.setattr(orbits, "axis_count_at_radius", spy(orbits.axis_count_at_radius))
    cfgs = [parse_config(None, {"mode": "capacity", "alpha": 0.6, "outdir": str(tmp_path / tag),
                                "cache_dir": cache_dir, **extra})
            for tag, extra in (("default", {}), ("loose", {"quad_rel_tol": 1e-8}))]
    run(cfgs[0])
    n_default = len(tols)
    run(cfgs[1])
    assert set(tols[:n_default]) == {1e-9} and set(tols[n_default:]) == {1e-8}
    files = sorted(_cache_key(0.6, c.quad_rel_tol) for c in cfgs)
    assert files[0] != files[1] and sorted(os.listdir(cache_dir)) == files


def test_quad_rel_tol_reaches_every_arc_step(tmp_path, cache_dir, monkeypatch):
    # every quadrature panel of an oscillating full suite runs at the
    # configured arc tolerance, and each step that integrates arcs (orbit
    # growth, capacity, grushin) makes some of those calls
    from warplab import halfplane, harness

    epsrels = {}
    step = [None]
    real_quad = halfplane.quad

    def quad_spy(*args, **kwargs):
        epsrels.setdefault(step[0], []).append(kwargs["epsrel"])
        return real_quad(*args, **kwargs)

    def attributed(name):
        real_step = getattr(harness, name)

        def wrapped(*args, **kwargs):
            step[0] = name
            try:
                return real_step(*args, **kwargs)
            finally:
                step[0] = None
        return wrapped

    monkeypatch.setattr(halfplane, "quad", quad_spy)
    names = ("_run_orbit_growth", "_run_capacity", "_run_grushin")
    for name in names:
        monkeypatch.setattr(harness, name, attributed(name))
    cfg = parse_config(None, {"mode": "full-suite", **OSC, "radius_bound": 1e40,
                              "quad_rel_tol": 1e-8, "outdir": str(tmp_path),
                              "cache_dir": cache_dir})
    run(cfg)
    assert set(epsrels) == set(names)
    assert all(set(tols) == {1e-8} for tols in epsrels.values())


def test_oscillating_full_suite_arc_budget(tmp_path, cache_dir, monkeypatch):
    # distances from the domain start bracket between the monotonicity
    # scan's rows; every inversion searches the turning radius itself, so
    # the run solves one turning point per scanned metric (2,315 when the
    # inversions searched log c) and integrates 1,965 arcs (2,474); the 40
    # equal-t inversions of convergence_report take 7.9 arcs each (15.4).  Turning
    # panels below decay exponent 3/4 take the graded map, so the A bridge
    # and the alpha pieces need few Kronrod rules (4,148 at this bound;
    # t = sqrt(r_max - r) on every turning panel needed 11,747), and the
    # panels before a turning panel share one error budget (2,675 rules).
    # Capacity counts and strides by one inversion each, where it searched
    # the table's distances: 1,572 arcs (1,973) and 2,035 rules (2,674).
    # Each budget is the count plus 5 %
    from warplab import grushin, halfplane, numerics

    calls = []
    rules = []
    turning = []
    equal_t = []
    real = halfplane._arc_quadrature
    real_rule = numerics._qk21
    real_turning = halfplane.solve_turning_point
    real_equal_t = grushin._equal_t_distance
    real_report = grushin.convergence_report
    in_report = []

    def spy(*args):
        calls.append(args[1])
        return real(*args)

    def rule_spy(f, a, b):
        rules.append(a)
        return real_rule(f, a, b)

    def turning_spy(*args, **kwargs):
        turning.append(args[1])
        return real_turning(*args, **kwargs)

    def equal_t_spy(*args, **kwargs):
        before = len(calls)
        try:
            return real_equal_t(*args, **kwargs)
        finally:
            if in_report:
                equal_t.append(len(calls) - before)

    def report_spy(*args, **kwargs):
        in_report.append(True)
        try:
            return real_report(*args, **kwargs)
        finally:
            in_report.pop()

    monkeypatch.setattr(halfplane, "_arc_quadrature", spy)
    monkeypatch.setattr(numerics, "_qk21", rule_spy)
    monkeypatch.setattr(halfplane, "solve_turning_point", turning_spy)
    monkeypatch.setattr(grushin, "_equal_t_distance", equal_t_spy)
    monkeypatch.setattr(grushin, "convergence_report", report_spy)
    cfg = parse_config(None, {"mode": "full-suite", **OSC, "radius_bound": 1e40,
                              "outdir": str(tmp_path), "cache_dir": cache_dir})
    assert not run(cfg).failed
    assert len(calls) <= 1651
    assert len(rules) <= 2137
    assert len(turning) <= 2
    assert len(equal_t) == 40 and sum(equal_t) <= 9 * len(equal_t)


def test_oscillating_rules_per_arc_kind(tmp_path, cache_dir, monkeypatch):
    # QK21 rules by the metric an arc runs on, over the osc 1e40 full suite.
    # A smoothed-h arc is split at every blend edge, and the panels before
    # its turning panel share one error budget: a panel whose bound from
    # rho^2 at its end fits its share takes no rule, the others run QAG to
    # that share (2,180 rules when each panel ran to rel_tol of its own
    # value; 707 now, with a ceiling).  The pure, Grushin and rescaled arcs
    # have one panel each, so their counts stay exactly as they were, except
    # that capacity's pure arcs fell from 1,148 arcs and 1,564 rules when its
    # strides and ball indices came from searches over table distances
    from warplab import halfplane, numerics

    arcs, rules, kind = Counter(), Counter(), []
    real_arc, real_rule = halfplane._arc_quadrature, numerics._qk21

    def arc_spy(m, *args):
        kind.append(m.label.split("(lam=")[0])
        arcs[kind[-1]] += 1
        try:
            return real_arc(m, *args)
        finally:
            kind.pop()

    def rule_spy(f, a, b):
        rules[kind[-1]] += 1
        return real_rule(f, a, b)

    monkeypatch.setattr(halfplane, "_arc_quadrature", arc_spy)
    monkeypatch.setattr(numerics, "_qk21", rule_spy)
    cfg = parse_config(None, {"mode": "full-suite", **OSC, "radius_bound": 1e40,
                              "outdir": str(tmp_path), "cache_dir": cache_dir})
    assert not run(cfg).failed
    assert arcs == {"smoothed-h": 421, "power-decay-h(p=0.6)": 747,
                    "grushin-h(alpha=0.6)": 163, "rescaled": 241}
    assert rules.pop("smoothed-h") <= 760
    assert rules == {"power-decay-h(p=0.6)": 925, "grushin-h(alpha=0.6)": 163, "rescaled": 241}


def test_oscillating_full_suite(tmp_path, cache_dir):
    cfg = parse_config(None, {"mode": "full-suite", **OSC, "radius_bound": 1e40,
                              "outdir": str(tmp_path), "cache_dir": cache_dir})
    report = run(cfg)
    assert len(report.checks) == 21
    assert not report.failed
    flagged = {c.name for c in report.checks if c.status == "flagged"}
    assert flagged == {"ladder-truncated", "rescaling-ladder-refit"}
    # every CSV byte is pinned: a change of the numerics that moves one
    # re-pins it here and lists the move in CHANGES.md
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.csv")}
    assert digests == {
        "capacity.csv": "dfd067a26ca54779084a3712c095a4070b470bc3fc66d9aae73fe24f7eb4ff18",
        "capacity_fit.csv": "9d8f17c86c1d6ef4a9977781e76a38c97f87292f4dd2a33c614202abffb8f509",
        "growth_alpha-window.csv":
            "43acd8cf7f33e980f66ff756de35fd3777aa10ee09b4856b557991a9e0d1b326",
        "growth_beta-window.csv":
            "8c30441b120f8200bec85432aeceb473fb24e638ac775003ec9cdb5d4711d0b5",
        "grushin_convergence.csv":
            "d1396618d5d6dead5dcae3bc12d3fa4156509393e7d5b775a8be54f388d127a6",
        "orbit_distances.csv": "64d7122aad4d274007f57c465617211a074593843b0f7584214663e90bf7cbe0",
        "ricci_curve.csv": "872fbe7e5f4898beb07463c2724961037cbb06eee02491c41b4ee31365bdca9b",
    }


def test_pure_full_suite_and_growth_margins(tmp_path):
    # every CSV byte of the pure 1/2 full suite from an empty cache, and the
    # growth margins of both models to the last bit: the slope fits and the
    # count constants read counts from the orbit metrics, which must not move
    cfg = parse_config(None, {"mode": "full-suite", "alpha": 0.5, "outdir": str(tmp_path / "pure"),
                              "cache_dir": str(tmp_path / "pure-cache")})
    report = run(cfg)
    assert not report.failed
    out = tmp_path / "pure"
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.csv")}
    assert digests == {
        "capacity.csv": "f99bf3c250952991137563ed0510570fd17c95bb556c073fa35d5f565ed31011",
        "capacity_fit.csv": "7a3a881e28b0b4e46864e8c52cbb129f5615e44ce6db446cf44dd979c8c72865",
        "growth_curve.csv": "5a587a087daef953d9027bc99aae7bacf095f9e514ffc3000bdc8fcb8c60ebdb",
        "grushin_convergence.csv":
            "e6975637ca097e8da0e725ccbef2b1e58093dae7275d9b30e0b16baae0e220f5",
        "orbit_distances.csv": "eaf427a7a372f540787a993add9a10798c099affe36f639dffa629ca209ba716",
        "ricci_curve.csv": "5574f3081bdf5aefe2da9b4db2eea56c357c836c08b1c5ec3c632dd4b2367d54",
    }
    margins = {c.name: repr(c.margin) for c in report.checks if c.name == "growth-slope"}
    osc = parse_config(None, {"mode": "orbit-growth", **OSC, "radius_bound": 1e40,
                              "outdir": str(tmp_path / "osc"),
                              "cache_dir": str(tmp_path / "osc-cache")})
    margins.update((c.name, repr(c.margin)) for c in run(osc).checks
                   if c.name.endswith(("-growth-slope", "-count-constants")))
    assert margins == {
        "growth-slope": "1.999875100460155",
        "alpha-window-growth-slope": "2.1999999829949295",
        "alpha-window-count-constants": "1.0000033349543285",
        "beta-window-growth-slope": "3.4000000102872625",
        "beta-window-count-constants": "1.0000002579463423",
    }


def test_full_suite_checks_cold_and_warm(tmp_path):
    # the name, status, margin and details of every check of the osc 1e40 and
    # pure 1/2 full suites, each run cold and then warm on one cache: 64
    # checks under one sha256, and the warm CSVs byte for byte the cold ones
    h = hashlib.sha256()
    n = 0
    for tag, model in (("osc", {**OSC, "radius_bound": 1e40}), ("pure", {"alpha": 0.5})):
        for run_ in ("cold", "warm"):
            cfg = parse_config(None, {"mode": "full-suite", **model,
                                      "outdir": str(tmp_path / tag / run_),
                                      "cache_dir": str(tmp_path / f"{tag}-cache")})
            for c in run(cfg).checks:
                h.update(repr((c.name, c.status, repr(c.margin), c.details)).encode())
                n += 1
        cold, warm = (sorted((tmp_path / tag / r).glob("*.csv")) for r in ("cold", "warm"))
        assert [p.name for p in cold] == [p.name for p in warm]
        assert all(a.read_bytes() == b.read_bytes() for a, b in zip(cold, warm))
    assert n == 64
    assert h.hexdigest() == (
        "0f0509d19c4c602d2de121d6ee8d37897214802e92f79ec5e460517e7ee001e8")


def test_one_model_build_per_run(tmp_path, monkeypatch):
    # a run builds its model, metric and orbit table once: one ladder per osc
    # full suite (4 when each step built its own), one strict-decrease scan
    # in a cold pure full suite and one cache load in a warm one (2 each when
    # orbit growth and capacity each built a metric), and one Grushin
    # halfplane per comparison (40 when each probe pair built one)
    from warplab import halfplane, smoothing
    from warplab.cache import OrbitCache

    counts = dict.fromkeys(("ladder", "scan", "load", "grushin"), 0)

    def spy(owner, name, key, counted=lambda *args: True):
        real = getattr(owner, name)

        def wrapped(*args, **kwargs):
            counts[key] += counted(*args, **kwargs)
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapped)

    spy(smoothing, "build_scale_ladder", "ladder")
    spy(halfplane, "verify_delta_v_monotone", "scan", lambda m: m._scan is None)
    spy(OrbitCache, "load", "load")
    spy(halfplane.HalfplaneMetric, "__init__", "grushin",
        lambda m, h, label="", **kw: label.startswith("grushin-h"))

    def run_counted(mode, **model):
        for key in counts:
            counts[key] = 0
        run(parse_config(None, {"mode": mode, **model, "outdir": str(tmp_path / "out"),
                                "cache_dir": str(tmp_path / "cache")}))
        return dict(counts)

    assert run_counted("full-suite", **OSC, radius_bound=1e40)["ladder"] == 1
    cold = run_counted("full-suite", alpha=0.5)
    assert (cold["scan"], cold["load"]) == (1, 1)
    assert run_counted("full-suite", alpha=0.5)["load"] == 1
    # the cache is read on the first distance: modes that ask for none read no record
    assert run_counted("ricci-check", alpha=0.5)["load"] == 0
    assert run_counted("grushin-compare", alpha=0.5)["load"] == 0
    assert run_counted("orbit-growth", alpha=0.5)["load"] == 1
    assert run_counted("grushin-compare", alpha=0.5)["grushin"] == 2


# -- the ricci-check step's curve writer and closed-form samples ----------------


def _curve_columns(n):
    """A 4-column float64 table of n rows: log-spaced radii and signed
    values over many decades, with -0.0, 5e-324 and 1e300 in the first row,
    in the last and in the row at the 128-row chunk edge."""
    rng = np.random.default_rng(n)
    cols = [np.logspace(-3, 6, n)]
    cols += [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n) for _ in range(3)]
    for i in {0, min(127, n - 1), n - 1}:
        cols[1][i], cols[2][i], cols[3][i] = -0.0, 5e-324, 1e300
    return cols


@pytest.mark.parametrize("n", [2, 127, 128, 129, 4000])
def test_write_columns_matches_write_csv(tmp_path, n):
    cols = _curve_columns(n)
    header = ["r", "ric_radial", "ric_circle", "ric_sphere"]
    write_csv(str(tmp_path / "rows.csv"), header, zip(*cols))
    write_columns(str(tmp_path / "cols.csv"), header, cols)
    want = (tmp_path / "rows.csv").read_bytes()
    assert (tmp_path / "cols.csv").read_bytes() == want
    assert want.count(b"\n") == n + 1 and b"-0.0,5e-324,1e+300\n" in want


def test_write_columns_transient_memory(tmp_path):
    # at most 128 rows of Python floats and their text are alive at a time;
    # all 4,000 rows as floats would take about 0.5 MB
    cols = _curve_columns(4000)
    tracemalloc.start()
    try:
        write_columns(str(tmp_path / "cols.csv"), ["a", "b", "c", "d"], cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def _harness_sample(seed, r_max=1e6):
    """The 16 radii the ricci-check step's oracle cross-check draws."""
    rng = random.Random(seed)
    log_lo, log_hi = math.log(0.2), math.log(min(r_max, 1e6))
    return [math.exp(rng.uniform(log_lo, log_hi)) for _ in range(16)]


@pytest.mark.parametrize("model", ["pure", "osc-1e40"])
def test_batched_closed_form_samples_match_ricci_report(model):
    # the step's one ricci_components call gives the bits of 16 ricci_report calls
    if model == "pure":
        m = DoublyWarpedMetric(8, standard_f(), power_decay_h(0.5))
    else:
        params = OscillationParams(0.6, 1.2, 0.3, 1.5, 100.0, 2)
        m = DoublyWarpedMetric(9, standard_f(), build_oscillating_h(params, radius_bound=1e40)[1])
    for seed in (12345, 2024, 7):
        sample = _harness_sample(seed)
        got = list(zip(*[c.tolist() for c in ricci_components(m, sample)]))
        want = [ricci_report(m, r) for r in sample]
        assert [[x.hex() for x in row] for row in got] == [
            [w.ric_radial.hex(), w.ric_circle.hex(), w.ric_sphere.hex()] for w in want]


@pytest.mark.parametrize("seed", [12345, 2024])
def test_oracle_agreement_margin_matches_pointwise_reports(tmp_path, seed):
    # the check's margin, against the oracle and ricci_report radius by radius
    report = run(parse_config(None, {"mode": "ricci-check", "alpha": 0.5, "seed": seed,
                                     "outdir": str(tmp_path)}))
    m = DoublyWarpedMetric(8, standard_f(), power_decay_h(0.5))
    worst = 0.0
    for r in _harness_sample(seed):
        o, c = ricci_numeric_oracle(m, r), ricci_report(m, r)
        for a, b in ((o.ric_radial, c.ric_radial), (o.ric_circle, c.ric_circle),
                     (o.ric_sphere, c.ric_sphere)):
            worst = max(worst, abs(a - b) / (1.0 + abs(b)))
    check = next(c for c in report.checks if c.name == "ricci-oracle-agreement")
    assert check.margin.hex() == worst.hex()
