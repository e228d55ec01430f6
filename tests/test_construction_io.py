import json
import math
from pathlib import Path

import pytest

from warplab.construction_io import load_construction, save_construction

# written by the v1 serializer (per-period ladder rows) for the standard model
# cut at 1e40
V1 = Path(__file__).parent / "data" / "construction_v1.json"


def test_round_trip(tmp_path, osc_params, osc_build):
    ladder, sm = osc_build
    path = tmp_path / "construction.json"
    save_construction(str(path), ladder, sm)
    ladder2, sm2 = load_construction(str(path))
    assert ladder2.params == osc_params
    for r in (0.5, 105.0, 3.3e7, 1.7e39):
        assert sm2.value(r) == sm.value(r)


def test_tamper_detection(tmp_path, osc_build):
    ladder, sm = osc_build
    path = tmp_path / "construction.json"
    save_construction(str(path), ladder, sm)
    doc = json.loads(path.read_text())
    doc["segments"][2]["r_lo"] = 1.23456789e6  # corrupted junction radius R12
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="stored segment 2"):
        load_construction(str(path))


def test_stored_doubles_must_equal_the_rebuild(tmp_path, osc_build):
    # every number is a double's repr, read back to its bits: one ulp off in
    # a junction or a log constant is refused
    ladder, sm = osc_build
    path = tmp_path / "construction.json"
    save_construction(str(path), ladder, sm)
    doc = json.loads(path.read_text())
    assert [(s["r_lo"], s["p"], s["log_c"], s["kind"]) for s in doc["segments"]] == [
        (s.r_lo, s.p, s.log_c, s.kind) for s in sm.segments]
    for key in ("r_lo", "log_c"):
        bad = json.loads(path.read_text())
        bad["segments"][3][key] = math.nextafter(bad["segments"][3][key], math.inf)
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match="stored segment 3"):
            load_construction(str(path))


def test_format_guard(tmp_path):
    p = tmp_path / "x.json"
    p.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError):
        load_construction(str(p))


def test_old_formats_are_refused(tmp_path, osc_build):
    # v1 (per-period ladder rows) and v2 (segments, value-blend cutoff
    # fractions) recorded value blends, which are no longer built; v3
    # recorded 40-digit mantissa/exponent strings
    ladder, sm = osc_build
    v2 = tmp_path / "construction.json"
    save_construction(str(v2), ladder, sm)
    doc = json.loads(v2.read_text())
    v3 = tmp_path / "v3.json"
    v3.write_text(json.dumps({**doc, "format": "warplab-construction v3", "segments": [
        {"r_lo": "1.000000000000000000000000e+2", "p": 1.5, "C": "1.0e+9", "kind": "bridge"}]}))
    del doc["blend"]
    doc.update({"format": "warplab-construction v2",
                "cutoff_fracs": {"above": [1.01, 1.1, 1.19], "below": [0.81, 0.9, 0.99]}})
    v2.write_text(json.dumps(doc))
    for path, fmt in ((V1, "warplab-construction v1"), (v2, "warplab-construction v2"),
                      (v3, "warplab-construction v3")):
        with pytest.raises(ValueError, match=fmt):
            load_construction(str(path))


def test_tampered_blend_record_is_refused(tmp_path, osc_build):
    ladder, sm = osc_build
    path = tmp_path / "construction.json"
    save_construction(str(path), ladder, sm)
    doc = json.loads(path.read_text())
    assert doc["format"] == "warplab-construction v4"
    doc["blend"]["lo_frac"] = 0.9
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="blend"):
        load_construction(str(path))
