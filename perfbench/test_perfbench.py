"""Tests of the benchmark's own plumbing: digests, failure counting, cache
isolation, seed plumbing and the tracer's wrappers."""

import math
import os
import sys
import json
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return str(path)


def test_csv_digest_is_stable_and_sees_one_changed_byte(tmp_path):
    a = _write(tmp_path / "a" / "curve.csv", "r,v\n1.0,2.0\n")
    b = _write(tmp_path / "a" / "fit.csv", "k\n2.2\n")
    report = _write(tmp_path / "a" / "report.json", '{"timings": 1.0}')
    first = run.csv_digest([a, b, report])
    assert run.csv_digest([b, a]) == first  # order-free, ignores non-CSV files

    a2 = _write(tmp_path / "b" / "curve.csv", "r,v\n1.0,2.0\n")
    b2 = _write(tmp_path / "b" / "fit.csv", "k\n2.2\n")
    assert run.csv_digest([a2, b2]) == first  # same bytes elsewhere, same digest
    _write(tmp_path / "b" / "fit.csv", "k\n2.3\n")
    assert run.csv_digest([a2, b2]) != first


def _op(checks=(("ok", "pass"),), rc=0, digest="d", flagged=()):
    report = {"checks": [{"name": n, "status": s} for n, s in checks]
              + [{"name": n, "status": "flagged"} for n in flagged], "artifacts": []}
    return run.Op(traced=False, wall_s=1.0, raw_wall_s=1.0, rc=rc, setup_s=0.5, report=report,
                  digest=digest)


def test_fail_rate_counts_a_crashed_run_as_all_checks_failed():
    w = run.WORKLOADS["pure-oracles"]
    good = _op(checks=[("a", "pass"), ("b", "pass")])
    bad = _op(checks=[("a", "pass"), ("b", "fail")], rc=1)
    crashed = run.Op(traced=False, wall_s=9.0, raw_wall_s=9.0, rc=None)
    per_op = [run.op_checks(w, op, "d") for op in (good, bad, crashed)]
    assert per_op[2] is None
    n = len(per_op[0])  # exit status, two checks, flagged set, digest
    assert n == 5
    # the failed run fails its exit status and one check; the crash fails all n
    assert run.tally(w, per_op) == (3 * n, 2 + n)
    assert run.tally(w, [None, None]) == (2 * w.checks, 2 * w.checks)


def test_flagged_set_and_digest_are_checked():
    osc = run.WORKLOADS["osc-suite-cold"]
    ok = dict(run.op_checks(osc, _op(flagged=sorted(osc.flagged)), "d"))
    assert ok["flagged-set"] and ok["outputs-stable"]
    missing = dict(run.op_checks(osc, _op(flagged=["ladder-truncated"], digest="e"), "d"))
    assert not missing["flagged-set"] and not missing["outputs-stable"]


def test_warm_cache_copy_is_isolated_from_the_setup_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("WARPLAB_CACHE_DIR", str(tmp_path / "home-cache"))
    seed_cache = tmp_path / "filled"
    _write(seed_cache / "orbit_x.tsv", "# header\n3 1.0 0.5 2.0\n")
    before = run.tree_digest(seed_cache)
    w = run.WORKLOADS["pure-suite-warm"]
    op = run.run_op(w, 7, str(tmp_path), kind="setup", cache_from=str(seed_cache), timeout=120)
    assert op.setup_s is not None and op.setup_s > 0 and op.rc == 0
    assert op.cache_untouched
    assert op.cache_dir != str(seed_cache)

    # a run that appends to its copy leaves the set-up cache as it was
    with open(os.path.join(op.cache_dir, "orbit_x.tsv"), "a") as fh:
        fh.write("4 1.1 0.4 2.5\n")
    assert run.tree_digest(seed_cache) == before
    assert run.tree_digest(op.cache_dir) != before
    assert not (tmp_path / "home-cache").exists()
    assert "WARPLAB_CACHE_DIR" not in run.child_env(str(tmp_path))

    # an appended row fails the warm check, whether seen on disk or traced
    good = _op()
    assert "warm-cache-untouched" not in dict(run.op_checks(w, good, "d"))  # the set-up run
    good.cache_untouched = True
    assert dict(run.op_checks(w, good, "d", "d"))["warm-cache-untouched"]
    good.trace = {"counts": {"cache.append.calls": 1}}
    assert not dict(run.op_checks(w, good, "d", "d"))["warm-cache-untouched"]


def test_oracle_inputs_follow_the_seed():
    a = run.oracle_inputs(5)
    assert a == run.oracle_inputs(5)
    assert a != run.oracle_inputs(6)
    indices, radii = a
    for l, (lo, hi) in zip(indices, run.ORACLE_INDEX_STRATA):
        assert lo <= l <= hi
    assert 3 <= min(indices) and max(indices) <= 30
    assert len(radii) == run.ORACLE_RADII
    assert all(0.2 <= r <= 1e6 for r in radii)


def test_oracle_seed_reaches_the_process(tmp_path):
    w = run.WORKLOADS["pure-oracles"]
    op = run.run_op(w, 11, str(tmp_path), kind="setup", timeout=120)
    assert op.rc == 0
    (spec_path,) = tmp_path.glob("*/spec.json")
    spec = json.loads(spec_path.read_text())
    indices, radii = run.oracle_inputs(11)
    assert spec["indices"] == indices and spec["radii"] == radii and spec["seed"] == 11


def test_self_time_subtracts_covered_child_time():
    s = [["outer", 0.0, 10.0, None, "r"],
         ["inner", 1.0, 4.0, 0, "r"],
         ["inner", 3.0, 5.0, 0, "r"],  # overlaps the first child
         ["leaf", 1.5, 2.0, 1, "r"]]
    t = spans.self_times(s)
    assert t["outer"] == pytest.approx(6.0)
    assert t["inner"] == pytest.approx(2.5 + 2.0)
    assert t["leaf"] == pytest.approx(0.5)


def test_wrappers_replace_every_binding_and_restore():
    from warplab import dimension, halfplane, harness, orbits
    from warplab.warping import power_decay_h

    orig = halfplane.orbit_distance
    orig_quad, dim_brentq = halfplane.quad, dimension.brentq
    tr = spans.Tracer("t")
    restore = spans.install(tr)
    try:
        wrapped = halfplane.orbit_distance
        assert wrapped is not orig and wrapped.__wrapped__ is orig
        assert harness.orbit_distance is wrapped and orbits.orbit_distance is wrapped
        assert halfplane.quad is not orig_quad
        assert dimension.brentq is dim_brentq  # only halfplane's binding is probed
        m = halfplane.HalfplaneMetric.from_warping(power_decay_h(0.5))
        d, _ = orbits.orbit_distance(m, 3)
    finally:
        restore()
    assert halfplane.orbit_distance is orig and harness.orbit_distance is orig
    assert halfplane.quad is orig_quad
    assert math.isfinite(d) and d > 0

    metrics = spans.layer_metrics(tr.to_json())
    assert metrics["halfplane.orbit_distance.calls"] == 1
    assert metrics["halfplane.delta_v_of_c.calls"] > 0
    assert metrics["halfplane.quad.neval"] > metrics["halfplane.quad.calls"] > 0
    names = [sp[0] for sp in tr.spans]
    outer = names.index("halfplane.orbit_distance")
    check = names.index("halfplane.verify_delta_v_monotone")
    assert tr.spans[check][3] == outer and tr.spans[outer][3] is None
    assert all(sp[4] == "t" for sp in tr.spans)


def test_mp_share_counts_float_queries_that_reach_mpmath():
    import mpmath
    from warplab.piecewise import Segment

    pure = Segment(mpmath.mpf(0), mpmath.mpf(100), 0.6, mpmath.mpf(1), "piece")
    bridge = Segment(mpmath.mpf(100), mpmath.mpf(1000), 1.5, mpmath.mpf(10) ** 3, "bridge")
    huge = Segment(mpmath.mpf(1000), None, 1.5, mpmath.mpf(10) ** 400, "bridge")
    tr = spans.Tracer("t")
    restore = spans.install(tr)
    try:
        pure.jet(50.0)  # float arithmetic only
        bridge.jet(200.0)  # float value, constant's magnitude through mpmath.log10
        huge.jet(2000.0)  # constant beyond doubles: promoted to mpmath
        huge.jet(mpmath.mpf(2000))  # not a float query
    finally:
        restore()
    m = spans.layer_metrics(tr.to_json())
    assert m["piecewise.segment_jet.calls"] == 4
    assert m["piecewise.segment_jet.float_calls"] == 3
    assert m["piecewise.segment_jet.mp_share"] == pytest.approx(2 / 3)


def test_every_declared_metric_is_computed():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = set(spans.layer_metrics({"counts": {}, "spans": []}))
    layer |= {f"harness.step.{s}_s" for s in
              ("build_example", "ricci_check", "orbit_growth", "capacity", "grushin")}
    layer.add("trace.overhead_s")
    declared = {m["name"] for m in bench["per_layer"]}
    assert declared <= layer
    assert {m["name"] for m in bench["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
