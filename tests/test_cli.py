import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import mpmath
import pytest

import warplab
from warplab import christoffel, halfplane
from warplab.cli import build_parser, main
from warplab.config import MODES, RunConfig
from warplab.construction_io import load_construction


def run_cli(args):
    return main(args)


def test_import_loads_no_heavy_scipy_submodule():
    # quadrature, root finding and the grid oracle's shortest paths and chain
    # solves are in-repo, so neither a run nor an oracle call loads scipy
    heavy = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg", "scipy.special")
    code = ("import sys\n"
            "import warplab.cli\n"
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))\n"
            "import warplab\n"
            f"print(sorted(m for m in {heavy!r} if m in sys.modules))\n"
            "from warplab.halfplane import HalfplaneMetric\n"
            "from warplab.warping import power_decay_h\n"
            "m = HalfplaneMetric.from_warping(power_decay_h(0.5))\n"
            "res = warplab.dijkstra_distance_oracle(m, (0.0, 0.0), (0.0, 6.0), r_hi=3.0, nr=20)\n"
            "print(res.relaxed > 0)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(warplab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.splitlines() == ["[]", "[]", "True", "[]"]


def test_full_suites_load_no_numpy_random_and_call_no_polyfit(tmp_path):
    # seeded samples come from random.Random and line fits from
    # numerics.line_fit, so neither suite imports numpy.random or starts
    # LAPACK through np.polyfit
    code = ("import sys\n"
            "import numpy\n"
            "calls = []\n"
            "numpy.polyfit = lambda *a, **k: calls.append(a)\n"
            "from warplab.cli import main\n"
            f"out = {str(tmp_path)!r}\n"
            "rcs = [main(['full-suite', '--alpha', '0.5', '--outdir', out + '/pure',\n"
            "             '--cache-dir', out + '/pure-cache']),\n"
            "       main(['full-suite', '--alpha', '0.6', '--beta', '1.2', '--A', '0.3',\n"
            "             '--B', '1.5', '--radius-bound', '1e40', '--outdir', out + '/osc',\n"
            "             '--cache-dir', out + '/osc-cache'])]\n"
            "print(rcs, len(calls), 'numpy.random' in sys.modules, file=sys.stderr)\n")
    src = os.path.dirname(os.path.dirname(warplab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("WARPLAB_CACHE_DIR", None)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1] == "[0, 0] 0 False"


def test_pure_full_suite_calls_no_mpmath(tmp_path, capsys):
    # a pure run computes on power_decay_h, whose log reader and frames are
    # closed forms in doubles: no call lands in a function of mpmath's package
    mp_dir = os.path.dirname(mpmath.__file__) + os.sep
    calls = []

    def spy(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(mp_dir):
            calls.append(frame.f_code.co_name)

    sys.setprofile(spy)
    try:
        code = run_cli(["full-suite", "--alpha", "0.5", "--outdir", str(tmp_path),
                        "--cache-dir", str(tmp_path / "cache")])
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert code == 0
    assert calls == []


def test_python_dash_m_warplab_runs_the_cli():
    src = os.path.dirname(os.path.dirname(warplab.__file__))
    out = subprocess.run([sys.executable, "-m", "warplab", "--help"], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert out.returncode == 0, out.stderr
    assert "full-suite" in out.stdout


def test_full_suite_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # two processes of the osc 1e40 suite whose str hashes differ: an output
    # that turned on set iteration order, or on a memo that outlives its
    # metric, would differ between them
    src = os.path.dirname(os.path.dirname(warplab.__file__))
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / f"hash{seed}"
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        env.pop("WARPLAB_CACHE_DIR", None)
        done = subprocess.run(
            [sys.executable, "-m", "warplab", "full-suite", "--alpha", "0.6", "--beta", "1.2",
             "--A", "0.3", "--B", "1.5", "--radius-bound", "1e40", "--outdir", str(out),
             "--cache-dir", str(tmp_path / f"cache{seed}")],
            capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        checks = json.loads((out / "report.json").read_text())["checks"]
        csvs = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        outs.append((csvs, [(c["name"], c["status"], repr(c["margin"])) for c in checks]))
    (csv1, checks1), (csv2, checks2) = outs
    assert len(csv1) == 7 and csv1 == csv2
    assert len(checks1) == 21 and checks1 == checks2


def test_ricci_check_passes(tmp_path, capsys):
    code = run_cli([
        "ricci-check", "--alpha", "0.5", "--k", "8", "--grid-points", "400",
        "--r-max", "1e4", "--outdir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] ricci-positive(k=8)" in out
    assert os.path.exists(tmp_path / "ricci_curve.csv")
    report = json.loads((tmp_path / "report.json").read_text())
    names = [c["name"] for c in report["checks"]]
    assert len(names) == len(set(names))  # every check listed exactly once


def test_only_distance_modes_make_the_cache_dir(tmp_path, capsys):
    # the pure model's orbit table has a cache from the start of a run, but
    # its directory appears with the first distance written to it
    cache = tmp_path / "cache"
    for mode in (["ricci-check", "--grid-points", "400", "--r-max", "1e4"], ["grushin-compare"]):
        assert run_cli([*mode, "--alpha", "0.5", "--outdir", str(tmp_path / mode[0]),
                        "--cache-dir", str(cache)]) == 0
        assert not cache.exists(), mode[0]
    growth = ["orbit-growth", "--alpha", "0.5", "--outdir", str(tmp_path / "growth"),
              "--cache-dir", str(cache)]
    assert run_cli(growth) == 0
    (file,) = cache.iterdir()
    cold = file.read_bytes()
    assert cold.count(b"\n") > 1
    assert run_cli(growth) == 0
    assert file.read_bytes() == cold  # a warm rerun appends nothing


def test_cache_dir_flag_then_key_then_environment(tmp_path, capsys, monkeypatch):
    # a run files its distances under --cache-dir, else the config file's
    # cache_dir key, else WARPLAB_CACHE_DIR, else ~/.cache/warplab
    def filed_in(case, flag=False, key=False, env=False):
        root = tmp_path / case
        config = root / "config.json"
        config.parent.mkdir()
        config.write_text(json.dumps({"cache_dir": str(root / "key")} if key else {}))
        monkeypatch.setenv("HOME", str(root / "home"))
        if env:
            monkeypatch.setenv("WARPLAB_CACHE_DIR", str(root / "env"))
        else:
            monkeypatch.delenv("WARPLAB_CACHE_DIR", raising=False)
        args = ["orbit-growth", "--alpha", "0.5", "--config", str(config),
                "--outdir", str(root / "out")]
        assert run_cli(args + (["--cache-dir", str(root / "flag")] if flag else [])) == 0
        return sorted(str(p.parent.relative_to(root)) for p in root.rglob("orbit_*.tsv"))

    assert filed_in("all", flag=True, key=True, env=True) == ["flag"]
    assert filed_in("flag-env", flag=True, env=True) == ["flag"]
    assert filed_in("key-env", key=True, env=True) == ["key"]
    assert filed_in("env", env=True) == ["env"]
    assert filed_in("none") == [os.path.join("home", ".cache", "warplab")]


def test_failing_run_exits_nonzero(tmp_path, capsys):
    # k = 1 cannot hold the circle direction positive at moderate radii
    code = run_cli([
        "ricci-check", "--alpha", "0.5", "--k", "1", "--grid-points", "300",
        "--r-max", "1e4", "--outdir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL]" in out


def test_ricci_check_oracle_answers_at_halved_steps(tmp_path, capsys):
    # at alpha = 3 the oracle's first step pair fails its Richardson check at
    # four of the seeded radii (r = 1.36, 2.42, 2.94 and 3.97); the pair at half
    # the steps answers, and agrees with the closed forms (k = 8 is too small
    # for positive Ricci, so the run fails)
    code = run_cli(["ricci-check", "--alpha", "3.0", "--k", "8", "--seed", "12345",
                    "--outdir", str(tmp_path)])
    capsys.readouterr()
    assert code == 1
    report = json.loads((tmp_path / "report.json").read_text())
    check = next(c for c in report["checks"] if c["name"] == "ricci-oracle-agreement")
    assert check["status"] == "pass"
    assert check["details"] == "max rel err over 16 radii at k=8"
    assert check["margin"] < 1e-7


def test_ricci_check_oracle_refusal_is_a_failed_check(tmp_path, capsys, monkeypatch):
    # a radius where every step pair moves the principal values: the oracle
    # refuses after all its halvings, and the run still writes its report,
    # with the refusal as a failed check
    r_bad = 3.966080856445134
    ricci_at_steps = christoffel._ricci_at_steps
    tried = []

    def drifting(m, x, steps):
        ric, g0 = ricci_at_steps(m, x, steps)
        if x[0] == r_bad:
            tried.append(steps[1])
            ric = ric * (1.0 + 1e3 * steps[1])
        return ric, g0

    monkeypatch.setattr(christoffel, "_ricci_at_steps", drifting)
    code = run_cli(["ricci-check", "--alpha", "3.0", "--k", "8", "--seed", "12345",
                    "--outdir", str(tmp_path)])
    capsys.readouterr()
    assert code != 0
    assert len(tried) == 2 + christoffel._HALVINGS
    report = json.loads((tmp_path / "report.json").read_text())
    check = next(c for c in report["checks"] if c["name"] == "ricci-oracle-agreement")
    assert check["status"] == "fail"
    assert check["details"] == ("max rel err over 15 radii at k=8; "
                                f"oracle refused (StepTooLarge) at r={r_bad!r}")


def test_ricci_check_steep_model_past_double_underflow(tmp_path, capsys):
    # pure p = 3 out to r = 1e60: h underflows to 0.0 in doubles near 8.6e53
    # and h'' much earlier; those radii are read in mpmath, and the margin is
    # the radial direction's asymptote (k/4 - 2p(2p + 1)) / r^2 = 8 / r^2
    code = run_cli(["ricci-check", "--alpha", "3", "--k", "200", "--r-max", "1e60",
                    "--outdir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    check = next(c for c in report["checks"] if c["name"] == "ricci-positive(k=200)")
    assert check["status"] == "pass"
    assert check["margin"] == pytest.approx(8e-120, rel=1e-9)
    rows = (tmp_path / "ricci_curve.csv").read_text().splitlines()[1:]
    assert len(rows) == 4000
    assert all(float(v) > 0 for row in rows for v in row.split(",")[1:])


def test_ricci_check_at_the_threshold_past_cancellation(tmp_path, capsys):
    # pure p = 1/2 at k = 8 = 16p^2 + 8p: the radial direction is exactly
    # 13/(1+r^2)^2, positive out to 1e10 although its leading terms cancel
    code = run_cli(["ricci-check", "--alpha", "0.5", "--k", "8", "--r-max", "1e10",
                    "--outdir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    check = next(c for c in report["checks"] if c["name"] == "ricci-positive(k=8)")
    assert check["status"] == "pass"
    assert check["margin"] == pytest.approx(13.0 / (1.0 + 1e20) ** 2, rel=1e-12)


def test_build_example_at_the_default_bound(tmp_path, capsys):
    code = run_cli(["build-example", "--alpha", "0.6", "--beta", "1.2", "--A", "0.3",
                    "--B", "1.5", "--outdir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert [(c["name"], c["status"]) for c in report["checks"]] == [
        ("junction-continuity", "pass"), ("ladder-truncated", "flagged"),
        ("strictly-decreasing(1e5 samples)", "pass"),
        ("replacement-inequalities(all blends)", "pass"), ("certified-k<=192", "pass"),
    ]
    cert = report["checks"][-1]
    assert cert["details"].startswith("minimal k=53,")


def test_oscillating_ricci_check_draws_at_its_certified_k(tmp_path, capsys):
    # ricci-check builds and certifies an oscillating model first, as
    # full-suite does; at k = 8 the 1e40 model's margin is -0.0074
    code = run_cli(["ricci-check", "--alpha", "0.6", "--beta", "1.2", "--A", "0.3",
                    "--B", "1.5", "--radius-bound", "1e40", "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] certified-k<=192 margin=0.123881 (minimal k=53," in out
    assert "[PASS] ricci-positive(k=53) margin=1.43683e-13" in out
    assert (tmp_path / "construction.json").exists()


def test_pure_full_suite_draws_at_the_threshold_k(tmp_path, capsys):
    # the default k is max(8, ceil(16 a^2 + 8 a)) at a = 1.2 > 1/2: k = 33,
    # where k = 8 fails with margin -0.461
    code = run_cli(["full-suite", "--alpha", "1.2", "--outdir", str(tmp_path / "run"),
                    "--cache-dir", str(tmp_path / "cache")])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] ricci-positive(k=33) margin=9e-14" in out


@pytest.mark.parametrize("args", [
    ["grushin-compare", "--alpha", "0.3"],
    ["full-suite", "--alpha", "0.45"],
    ["full-suite", "--alpha", "0.4", "--beta", "1.2", "--A", "0.3", "--B", "1.5",
     "--radius-bound", "1e40"],
])
def test_grushin_below_half_is_a_flagged_check(tmp_path, capsys, args):
    # no Grushin target below decay exponent 1/2: the step reports a flagged
    # check, and the steps before it keep their checks and report.json.  The
    # osc alpha = 0.4 ladder has no second alpha piece below 1e40, so its
    # capacity step has no window and is flagged too
    code = run_cli([*args, "--outdir", str(tmp_path), "--cache-dir", str(tmp_path / "cache")])
    out = capsys.readouterr().out
    assert code == 0
    assert "[FLAG] grushin-unavailable (decay exponent must be >= 1/2, got " in out
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    assert checks[-1]["name"] == "grushin-unavailable" and checks[-1]["status"] == "flagged"
    assert not any(c["status"] == "fail" for c in checks)
    assert not (tmp_path / "grushin_convergence.csv").exists()
    if args[0] == "full-suite":
        names = {c["name"] for c in checks}
        capacity = ({"capacity-unavailable"} if "--beta" in args
                    else {"capacity-monotone", "box-dimension"})
        assert {"ricci-oracle-agreement", *capacity} <= names


def test_broken_arc_bound_is_a_failed_check(tmp_path, capsys, monkeypatch):
    # every delta_v integral 0.2 % too large breaks c delta_v <= length on
    # the first arc: the step ends in a failed check that names the arc's
    # radii, not in a traceback, and the run still writes its report
    real = halfplane._arc_quadrature

    def inflated(m, start, r_max, dv):
        return real(m, start, r_max, dv) + (math.log(1.002) if dv else 0.0)

    monkeypatch.setattr(halfplane, "_arc_quadrature", inflated)
    code = run_cli(["grushin-compare", "--alpha", "0.5", "--outdir", str(tmp_path),
                    "--cache-dir", str(tmp_path / "cache")])
    out = capsys.readouterr().out
    assert code == 1
    assert re.search(r"^\[FAIL\] arc-bounds \(_run_grushin: arc from \S+ turning at "
                     r"r_max=\S+ shorter than its v-displacement lower bound", out, re.M), out
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [("arc-bounds", "fail")]


def test_repeated_rescaling_factor_is_compared_once(tmp_path, capsys):
    # three distinct factors and a repeat: one row and 20 comparisons each
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps({"lambda_ladder": [100, 1000, 1000, 10000]}))
    code = run_cli(["grushin-compare", "--alpha", "0.5", "--config", str(path),
                    "--outdir", str(tmp_path / "out")])
    assert code == 0
    rows = (tmp_path / "out" / "grushin_convergence.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["lambda", "100.0", "1000.0", "10000.0"]
    checks = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
    final = next(c for c in checks if c["name"] == "rescaling-error-final")
    assert final["details"] == "0 of 60 pairs excluded"


@pytest.mark.parametrize("k_max, want_code, want_line", [
    (52, 1, "[FAIL] certified-k<=52 (no k <= 52 certifies positivity"),
    (53, 0, "[PASS] certified-k<=53 margin=0.123881 (minimal k=53,"),
])
def test_k_max_caps_the_certification(tmp_path, capsys, k_max, want_code, want_line):
    # the 1e40 model certifies first at k = 53, so a cap one below it fails
    code = run_cli(["build-example", "--alpha", "0.6", "--beta", "1.2", "--A", "0.3",
                    "--B", "1.5", "--radius-bound", "1e40", "--k-max", str(k_max),
                    "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == want_code
    assert want_line in out


def test_every_cli_dest_is_a_config_key():
    # main forwards every parsed dest but the two file options to the config
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for mode, sp in sub.choices.items():
        dests = {a.dest for a in sp._actions} - {"help", "config", "emit_config"}
        assert dests and dests <= fields, (mode, dests - fields)


def test_every_public_name_resolves():
    assert [name for name in warplab.__all__ if not hasattr(warplab, name)] == []
    assert len(set(warplab.__all__)) == len(warplab.__all__)


def test_config_error_exit_code(tmp_path, capsys):
    code = run_cli([
        "build-example", "--alpha", "0.6", "--beta", "1.2", "--A", "0.3",
        "--B", "1.1", "--outdir", str(tmp_path),
    ])
    assert code == 2
    assert "config key 'B'" in capsys.readouterr().err
    # a config-file value of the wrong type, a non-finite number or one no
    # run can use is a config error, not a traceback
    for key, value in (("alpha", None), ("alpha", "0.5"), ("grid_points", 2.5),
                       ("lambda_ladder", None), ("alpha", math.inf), ("r_max", math.nan),
                       ("quad_rel_tol", math.nan), ("radius_bound", math.inf),
                       ("lambda_ladder", [1e2, math.inf, 1e4]), ("k", 0), ("k", -2),
                       ("k_max", 0), ("probe_pairs", 0), ("periods", -1)):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({key: value}))
        code = run_cli(["ricci-check", "--config", str(path), "--outdir", str(tmp_path)])
        assert code == 2
        assert f"config key '{key}'" in capsys.readouterr().err
    # a rescaling ladder no Grushin comparison can use: exit 2, not a traceback
    for ladder in ([0.5, 1e3, 1e4], [1e3, 1e4], [1e3, 1e3, 1e3]):
        path = tmp_path / "ladder.json"
        path.write_text(json.dumps({"lambda_ladder": ladder}))
        code = run_cli(["grushin-compare", "--alpha", "0.5", "--config", str(path),
                        "--outdir", str(tmp_path)])
        assert code == 2
        assert "config key 'lambda_ladder'" in capsys.readouterr().err
    code = run_cli(["ricci-check", "--radius-bound", "inf", "--outdir", str(tmp_path)])
    assert code == 2
    assert "config key 'radius_bound'" in capsys.readouterr().err


def _checks(outdir):
    report = json.loads((outdir / "report.json").read_text())
    return {c["name"]: c for c in report["checks"]}


def test_full_suite_with_a_ladder_cut_before_its_first_junction(tmp_path, capsys):
    # at bound 200 the first junction R12 = 1e6 is past the bound: h is the
    # pure alpha piece, with no junction to check, no window to fit or count
    # capacities in and no blend, so its Grushin stretch is the whole axis
    # and the configured factors fit it
    code = run_cli(["full-suite", "--alpha", "0.6", "--beta", "1.2", "--A", "0.3", "--B", "1.5",
                    "--radius-bound", "200", "--outdir", str(tmp_path / "run"),
                    "--cache-dir", str(tmp_path / "cache")])
    captured = capsys.readouterr()
    assert code == 0 and "Traceback" not in captured.err
    checks = _checks(tmp_path / "run")
    assert (checks["junction-continuity"]["status"], checks["junction-continuity"]["details"]) == (
        "pass", "0 junctions")
    assert {name for name, c in checks.items() if c["status"] == "flagged"} == {
        "ladder-truncated", "alpha-window-unavailable", "beta-window-unavailable",
        "capacity-unavailable"}
    assert [name for name, c in checks.items() if c["status"] == "fail"] == []


@pytest.mark.parametrize("args, why", [
    (["--radius-bound", "1e7"], "no second alpha piece below radius bound 1e+07"),
    (["--periods", "0"], "no second alpha piece below radius bound 1e+300"),
    (["--R11", "1e5"], "the index window of S=2.5e+92 reaches e^931.933, past the double range"),
], ids=["bound-1e7", "periods-0", "R11-1e5"])
def test_oscillating_capacity_without_an_alpha_window_is_flagged(tmp_path, capsys, args, why):
    # capacity counts in the alpha window orbit growth fits: with no second
    # alpha piece below the bound, or a window past the double range, it
    # reports one flagged check with the reason and writes no CSV
    code = run_cli(["capacity", "--alpha", "0.6", "--beta", "1.2", "--A", "0.3", "--B", "1.5",
                    *args, "--outdir", str(tmp_path / "run"), "--cache-dir",
                    str(tmp_path / "cache")])
    assert code == 0
    assert capsys.readouterr().out.startswith(f"[FLAG] capacity-unavailable ({why})\n")
    checks = json.loads((tmp_path / "run" / "report.json").read_text())["checks"]
    assert [(c["name"], c["status"], c["details"]) for c in checks] == [
        ("capacity-unavailable", "flagged", why)]
    assert list((tmp_path / "run").glob("*.csv")) == []
    assert not (tmp_path / "cache").exists()


def test_orbit_window_past_the_double_range_is_flagged(tmp_path, capsys):
    # R11 = 1e5 puts the second alpha piece at 1.25e92: its index window
    # reaches e^932, past the double range, so the alpha window is flagged
    # unavailable while the beta window is checked
    code = run_cli(["orbit-growth", "--alpha", "0.6", "--beta", "1.2", "--A", "0.3", "--B", "1.5",
                    "--R11", "1e5", "--outdir", str(tmp_path), "--cache-dir",
                    str(tmp_path / "cache")])
    capsys.readouterr()
    assert code == 0
    checks = _checks(tmp_path)
    alpha = checks["alpha-window-unavailable"]
    assert alpha["status"] == "flagged" and alpha["details"].endswith("past the double range")
    assert checks["beta-window-growth-slope"]["status"] == "pass"


def test_grushin_compare_excludes_unreachable_cone_pairs(tmp_path, capsys):
    # at alpha = 4 one probe pair's distance is unreachable: it is excluded
    # and counted, and the other nine decide the check
    code = run_cli(["grushin-compare", "--alpha", "4.0", "--outdir", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    cone = _checks(tmp_path)["cone-self-similarity"]
    assert (cone["status"], cone["details"]) == ("pass", "1 of 10 pairs excluded")


def test_ladder_growth_error_exit_code(tmp_path, capsys):
    # a valid schedule whose bridges put the first two junctions 4.6x apart:
    # every mode with beta set builds the configured ladder
    for mode in ("build-example", "capacity"):
        code = run_cli([
            mode, "--alpha", "0.75", "--beta", "0.8125", "--A", "0.5",
            "--B", "1.0", "--outdir", str(tmp_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ladder growth ratio below 5 between junctions 0 and 1 ")


def _config_path_error(args, capsys):
    """The exit status and stderr of a run whose config file cannot be used."""
    code = run_cli(["ricci-check", "--grid-points", "200", "--r-max", "1e3", *args])
    return code, capsys.readouterr().err


def test_config_naming_a_json_list_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    code, err = _config_path_error(["--config", str(path), "--outdir", str(tmp_path)], capsys)
    assert code == 2 and err == "error: config key 'config': must hold a JSON object, got list\n"


def test_config_naming_a_directory_is_a_config_error(tmp_path, capsys):
    code, err = _config_path_error(["--config", str(tmp_path), "--outdir", str(tmp_path)], capsys)
    assert code == 2 and err.startswith("error: config key 'config': cannot read ")
    assert "Traceback" not in err


def test_config_of_non_utf8_bytes_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"alpha": 0.5, "outdir": "\xe9"}')
    code, err = _config_path_error(["--config", str(path), "--outdir", str(tmp_path)], capsys)
    assert code == 2 and err.startswith("error: config key 'config': invalid JSON: ")


def test_emit_config_into_a_missing_directory_is_a_config_error(tmp_path, capsys):
    target = tmp_path / "missing" / "c.json"
    code, err = _config_path_error(["--emit-config", str(target), "--outdir", str(tmp_path)],
                                   capsys)
    assert code == 2 and err.startswith(f"error: config key 'emit_config': cannot write {target}")
    assert not (tmp_path / "report.json").exists()


def test_emit_config_round_trip(tmp_path, capsys):
    cfg_path = tmp_path / "resolved.json"
    code = run_cli([
        "ricci-check", "--alpha", "0.5", "--k", "8", "--grid-points", "200",
        "--r-max", "1e3", "--outdir", str(tmp_path), "--emit-config", str(cfg_path),
    ])
    assert code == 0
    data = json.loads(cfg_path.read_text())
    assert data["mode"] == "ricci-check" and data["k"] == 8


def test_capacity_determinism(tmp_path, capsys):
    # identical config + warm cache: byte-identical CSV outputs
    cache = str(tmp_path / "cache")
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        code = run_cli([
            "capacity", "--alpha", "0.5", "--outdir", str(out), "--cache-dir", cache,
        ])
        assert code == 0
    for name in ("capacity.csv", "capacity_fit.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_capacity_at_large_alpha_writes_its_report(tmp_path, capsys):
    # at alpha = 3.5 (k = 8) the largest capacities pass int64; the box fit
    # reads each as a double
    code = run_cli(["capacity", "--alpha", "3.5", "--outdir", str(tmp_path / "out"),
                    "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    assert (tmp_path / "out" / "report.json").exists()
    rows = (tmp_path / "out" / "capacity.csv").read_text().splitlines()[1:]
    assert max(int(row.split(",")[2]) for row in rows) > 2**63


# capacity outputs of the pure 1/2 model, pinned when ball indices and strides
# came from integer bisection over d_l: any correct count gives the same
# indices, so the bytes must not move; capacity_fit.csv was re-pinned when
# its box slope came from numerics.line_fit, 1 ulp off polyfit's
CAPACITY_SHA256 = {
    "capacity.csv": "f99bf3c250952991137563ed0510570fd17c95bb556c073fa35d5f565ed31011",
    "capacity_fit.csv": "7a3a881e28b0b4e46864e8c52cbb129f5615e44ce6db446cf44dd979c8c72865",
}


def test_capacity_golden_bytes_and_distance_budget(tmp_path, capsys):
    cache = tmp_path / "cache"
    code = run_cli([
        "capacity", "--alpha", "0.5", "--outdir", str(tmp_path / "out"), "--cache-dir", str(cache),
    ])
    assert code == 0
    for name, digest in CAPACITY_SHA256.items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest, name
    # one distance (d_1) and one count per inversion, 90 of them
    (path,) = cache.iterdir()
    rows = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    assert len(rows) == 91


def test_build_example_end_to_end(tmp_path, capsys):
    code = run_cli([
        "build-example", "--alpha", "0.6", "--beta", "1.2", "--A", "0.3", "--B", "1.5",
        "--radius-bound", "1e40", "--outdir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert code == 0 and "[FAIL]" not in out
    report = json.loads((tmp_path / "report.json").read_text())
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert {n for n, s in status.items() if s == "flagged"} == {"ladder-truncated"}
    assert {n for n, s in status.items() if s != "flagged"} >= {
        "junction-continuity", "strictly-decreasing(1e5 samples)",
        "replacement-inequalities(all blends)",
    }
    assert all(s == "pass" for s in status.values() if s != "flagged")
    assert any(n.startswith("certified-k<=") for n in status)
    # the saved construction rebuilds and agrees with its stored segments
    ladder, sm = load_construction(str(tmp_path / "construction.json"))
    params = ladder.params
    assert (params.alpha, params.beta, params.A, params.B) == (0.6, 1.2, 0.3, 1.5)
    assert ladder.truncated and ladder.radius_bound == 1e40
    assert len(sm.blends) == len(sm.segments) - 1 == 4


@pytest.mark.parametrize("mode", ["warplab", *MODES])
def test_help_text_pinned(monkeypatch, capsys, mode):
    # every mode copies the common flags from one parent parser; the help
    # each prints is the text of the flags added to each mode on its own
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--help"] if mode == "warplab" else [mode, "--help"])
    with open(os.path.join(os.path.dirname(__file__), "data", "cli_help", f"{mode}.txt")) as fh:
        assert capsys.readouterr().out == fh.read()
