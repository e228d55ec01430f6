import json
from pathlib import Path

import pytest

from warplab.construction_io import load_construction, save_construction

# written by the v1 serializer (per-period ladder rows) for the standard model
# cut at 1e40; its second row carries R21, past the bound, with no segment
V1 = Path(__file__).parent / "data" / "construction_v1.json"


def test_round_trip(tmp_path, osc_params, osc_build):
    ladder, hp, sm = osc_build
    path = tmp_path / "construction.json"
    save_construction(str(path), osc_params, ladder, sm)
    params2, ladder2, hp2, sm2 = load_construction(str(path))
    assert params2 == osc_params
    for r in (0.5, 105.0, 3.3e7, 1.7e39):
        assert sm2.value(r) == sm.value(r)


def test_tamper_detection(tmp_path, osc_params, osc_build):
    ladder, hp, sm = osc_build
    path = tmp_path / "construction.json"
    save_construction(str(path), osc_params, ladder, sm)
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


def test_v1_document_loads():
    params, ladder, hp, sm = load_construction(str(V1))
    assert params.periods == 2 and ladder.truncated
    assert len(hp.junctions()) == 4


def test_v1_tamper_detection(tmp_path):
    doc = json.loads(V1.read_text())
    doc["rows"][1]["R0"] = "1.25e+38"  # R14 repeated as the second row's R0
    path = tmp_path / "construction.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_construction(str(path))
