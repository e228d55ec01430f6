import json
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
    doc["segments"][2]["r_lo"] = "1.23456789e+6"  # corrupted junction radius R12
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_construction(str(path))


def test_format_guard(tmp_path):
    p = tmp_path / "x.json"
    p.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError):
        load_construction(str(p))


def test_old_formats_are_refused(tmp_path, osc_build):
    # v1 (per-period ladder rows) and v2 (segments, value-blend cutoff
    # fractions) recorded value blends, which are no longer built
    ladder, sm = osc_build
    v2 = tmp_path / "construction.json"
    save_construction(str(v2), ladder, sm)
    doc = json.loads(v2.read_text())
    del doc["blend"]
    doc.update({"format": "warplab-construction v2",
                "cutoff_fracs": {"above": [1.01, 1.1, 1.19], "below": [0.81, 0.9, 0.99]}})
    v2.write_text(json.dumps(doc))
    for path, fmt in ((V1, "warplab-construction v1"), (v2, "warplab-construction v2")):
        with pytest.raises(ValueError, match=fmt):
            load_construction(str(path))


def test_tampered_blend_record_is_refused(tmp_path, osc_build):
    ladder, sm = osc_build
    path = tmp_path / "construction.json"
    save_construction(str(path), ladder, sm)
    doc = json.loads(path.read_text())
    assert doc["format"] == "warplab-construction v3"
    doc["blend"]["lo_frac"] = 0.9
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="blend"):
        load_construction(str(path))
