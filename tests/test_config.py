import json

import pytest

from warplab.config import ConfigError, RunConfig, config_from_dict, parse_config


def test_minimal_flags():
    cfg = parse_config(None, {"mode": "ricci-check", "alpha": 0.5, "k": 8})
    assert cfg.mode == "ricci-check" and cfg.alpha == 0.5 and cfg.k == 8
    assert cfg.grid_points == 4000  # documented default


def test_inequality_violation_names_key():
    with pytest.raises(ConfigError) as e:
        parse_config(None, {"mode": "build-example", "alpha": 0.6, "beta": 1.2,
                            "A": 0.3, "B": 1.1})
    assert e.value.key == "B"


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"mode": "ricci-check", "alhpa": 0.5}))
    with pytest.raises(ConfigError) as e:
        parse_config(str(p))
    assert e.value.key == "alhpa"


def test_round_trip(tmp_path):
    cfg = parse_config(None, {"mode": "capacity", "alpha": 0.5, "seed": 7,
                              "outdir": "x", "lambda_ladder": (10.0, 100.0, 1000.0)})
    p = tmp_path / "cfg.json"
    cfg.to_file(str(p))
    back = parse_config(str(p))
    assert back == cfg


def test_flags_override_file(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"mode": "ricci-check", "alpha": 0.5, "seed": 1}))
    cfg = parse_config(str(p), {"seed": 99})
    assert cfg.seed == 99 and cfg.alpha == 0.5


def test_full_suite_zero_periods_rejected():
    with pytest.raises(ConfigError) as e:
        parse_config(None, {"mode": "full-suite", "alpha": 0.6, "beta": 1.2,
                            "A": 0.3, "B": 1.5, "periods": 0})
    assert e.value.key == "periods"


@pytest.mark.parametrize("ladder", [(0.5, 1e3, 1e4), (1e3, 1e4), (), (1.0, 1e3, 0.999),
                                    (1e3, 1e3, 1e3), (1e2, 1e3, 1e3)])
def test_unusable_lambda_ladder_rejected(ladder):
    # every stretch starts at the axis, so a factor below 1 never fits it,
    # and a trend needs three different factors: a repeated one repeats its row
    with pytest.raises(ConfigError) as e:
        parse_config(None, {"mode": "grushin-compare", "alpha": 0.5, "lambda_ladder": ladder})
    assert e.value.key == "lambda_ladder"
    assert parse_config(None, {"mode": "grushin-compare", "alpha": 0.5,
                               "lambda_ladder": (1.0, 1e3, 1e4)}).lambda_ladder == (1.0, 1e3, 1e4)


@pytest.mark.parametrize("key, value, ok", [
    ("k", 0, 1), ("k", -2, 1), ("k_max", 0, 1), ("probe_pairs", 0, 2), ("probe_pairs", 1, 2),
    ("periods", -1, 0),
])
def test_values_no_run_can_use_are_config_errors(key, value, ok):
    # a sphere dimension or search cap below 1, fewer than two probe pairs
    # (pair 0 is radial, with error 0 in both metrics) and a negative period
    # count would be replaced, make a check vacuous, or end in a traceback
    model = {"mode": "ricci-check", "alpha": 0.6, "beta": 1.2, "A": 0.3, "B": 1.5}
    with pytest.raises(ConfigError) as e:
        parse_config(None, {**model, key: value})
    assert e.value.key == key
    assert getattr(parse_config(None, {**model, key: ok}), key) == ok


def test_missing_mode():
    with pytest.raises(ConfigError):
        config_from_dict({"alpha": 0.5})


def test_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/path.json")


def test_oscillating_requires_bridges():
    with pytest.raises(ConfigError):
        parse_config(None, {"mode": "orbit-growth", "alpha": 0.6, "beta": 1.2})


def test_every_quad_setting_is_keyed_in_the_cache_payload():
    # cached distances are reused across runs by the pure model's cache key,
    # so the one arc tolerance of a metric, which a run sets, must move the
    # key as alpha does, or two runs at different tolerances would share a
    # cache file
    import inspect

    from warplab.halfplane import HalfplaneMetric
    from warplab.harness import _model_for

    def table(**kw):
        return _model_for(RunConfig(mode="orbit-growth", **kw))[2]()

    default = inspect.signature(HalfplaneMetric).parameters["rel_tol"].default
    base = table()
    assert base.metric.rel_tol == default == RunConfig(mode="orbit-growth").quad_rel_tol
    moved, other = table(quad_rel_tol=2 * default), table(alpha=0.6)
    assert moved.metric.rel_tol == 2 * default
    assert len({base.cache.model_key, moved.cache.model_key, other.cache.model_key}) == 3
