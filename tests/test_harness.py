import hashlib
import json
import os

import pytest

from warplab.config import parse_config
from warplab.harness import run, write_csv

OSC = {"alpha": 0.6, "beta": 1.2, "A": 0.3, "B": 1.5}


def test_write_csv_repr_floats(tmp_path):
    p = tmp_path / "x.csv"
    write_csv(str(p), ["a", "b"], [(1.0, 0.1), (2, 1e-300)])
    text = p.read_text()
    assert text.splitlines()[0] == "a,b"
    assert "0.1" in text and "1e-300" in text


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


def test_cache_env_override(tmp_path, monkeypatch):
    from warplab.cache import default_cache_dir

    monkeypatch.setenv("WARPLAB_CACHE_DIR", str(tmp_path / "envcache"))
    assert default_cache_dir() == str(tmp_path / "envcache")


def test_orbit_growth_without_beta_piece(tmp_path, cache_dir):
    # the 1e5 bound truncates the ladder before R12, so no beta piece exists,
    # nor the period-2 alpha piece after it
    cfg = parse_config(None, {
        "mode": "orbit-growth", **OSC, "radius_bound": 1e5,
        "outdir": str(tmp_path), "cache_dir": cache_dir,
    })
    report = run(cfg)
    assert [(c.name, c.status) for c in report.checks] == [
        ("alpha-window-unavailable", "flagged"), ("beta-window-unavailable", "flagged")]


def test_orbit_growth_without_period_two_alpha_piece(tmp_path, cache_dir):
    # the 1e20 bound keeps the first beta piece but stops the ladder before
    # the period-2 alpha piece: the alpha window is flagged, not left out
    cfg = parse_config(None, {
        "mode": "orbit-growth", **OSC, "radius_bound": 1e20,
        "outdir": str(tmp_path), "cache_dir": cache_dir,
    })
    report = run(cfg)
    assert [(c.name, c.status) for c in report.checks] == [
        ("alpha-window-unavailable", "flagged"), ("beta-window-distance-sandwich", "pass"),
        ("beta-window-growth-slope", "pass"), ("beta-window-count-constants", "pass")]


def test_grushin_mode_zero_periods(tmp_path):
    cfg = parse_config(None, {
        "mode": "grushin-compare", **OSC, "periods": 0, "outdir": str(tmp_path),
        "probe_pairs": 8,
    })
    report = run(cfg)
    assert not report.failed
    assert "rescaling-ladder-refit" in {c.name for c in report.checks}


def test_capacity_rows_keyed_to_the_pure_model(tmp_path, cache_dir, monkeypatch):
    from warplab import orbits
    from warplab.cache import OrbitCache, model_hash

    # capacity runs the pure alpha model; a closed-form distance keeps this fast
    monkeypatch.setattr(orbits, "orbit_distance",
                        lambda m, l, settings=None: (l ** (1 / 2.2), None))
    osc = parse_config(None, {"mode": "capacity", **OSC, "outdir": str(tmp_path),
                              "cache_dir": cache_dir})
    run(osc)
    pure = parse_config(None, {"mode": "capacity", "alpha": 0.6, "cache_dir": cache_dir})
    assert os.listdir(cache_dir) == [f"orbit_{model_hash(pure.model_payload())}.tsv"]
    assert OrbitCache.for_model(pure.model_payload(), cache_dir).load()
    assert OrbitCache.for_model(osc.model_payload(), cache_dir).load() == {}


def test_quad_rel_tol_keys_the_cache_and_reaches_distances(tmp_path, cache_dir, monkeypatch):
    from warplab import orbits
    from warplab.cache import model_hash

    tols = []

    def spy(m, l, settings=None):
        tols.append(settings.rel_tol)
        return l ** (1 / 2.2), None  # closed form keeps the capacity step fast

    monkeypatch.setattr(orbits, "orbit_distance", spy)
    cfgs = [parse_config(None, {"mode": "capacity", "alpha": 0.6, "outdir": str(tmp_path / tag),
                                "cache_dir": cache_dir, **extra})
            for tag, extra in (("default", {}), ("loose", {"quad_rel_tol": 1e-8}))]
    run(cfgs[0])
    n_default = len(tols)
    run(cfgs[1])
    assert set(tols[:n_default]) == {1e-9} and set(tols[n_default:]) == {1e-8}
    files = sorted(f"orbit_{model_hash(c.model_payload())}.tsv" for c in cfgs)
    assert files[0] != files[1] and sorted(os.listdir(cache_dir)) == files


def test_oscillating_full_suite_arc_budget(tmp_path, cache_dir, monkeypatch):
    # distances from the domain start bracket between the monotonicity
    # scan's rows (2,465 arcs at this bound); a fallback to Newton bracketing
    # (2,909 with the former value blends) shows here without timing.
    # Turning panels below decay exponent 3/4 take the graded map, so the A
    # bridge and the alpha pieces need few Kronrod rules (5,144 at this
    # bound); t = sqrt(r_max - r) on every turning panel needed 11,747
    from warplab import halfplane, numerics

    calls = []
    rules = []
    real = halfplane._arc_quadrature
    real_rule = numerics._qk21

    def spy(*args):
        calls.append(args[1])
        return real(*args)

    def rule_spy(f, a, b):
        rules.append(a)
        return real_rule(f, a, b)

    monkeypatch.setattr(halfplane, "_arc_quadrature", spy)
    monkeypatch.setattr(numerics, "_qk21", rule_spy)
    cfg = parse_config(None, {"mode": "full-suite", **OSC, "radius_bound": 1e40,
                              "outdir": str(tmp_path), "cache_dir": cache_dir})
    assert not run(cfg).failed
    assert len(calls) <= 2500
    assert len(rules) <= 6000


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
        "capacity_fit.csv": "d543b3d140e3889b1401af1cf81754676cdac1f2a5b61b8f9578ec7e37c7c810",
        "growth_alpha-window.csv":
            "a2a8770b116c220a765dcd0fbd0492aa8c5b7c841de429cab8e49a30e5f8a5c2",
        "growth_beta-window.csv":
            "2019af4de2e07de59b9cb34e4f40f147a935bc23aae20a2c5ae85a290211de63",
        "grushin_convergence.csv":
            "02b0d8b2c6b0346143698bb3774602655c56bd78c15b40cf2ab8a76120debc35",
        "orbit_distances.csv": "cac33260014ecc92a100f43195c376cd3ca9c96dfc57b2fc029c50f425494f92",
        "ricci_curve.csv": "81e35a6c43598a3e8819ca2e95b73a4fad92735ba8a09b2dfdd8094003b60bd0",
    }
