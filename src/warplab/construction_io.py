"""Serialization of oscillating constructions to a structured text file.

The file stores the generating parameters plus every segment of the
piecewise warping (start radius, exponent, scale constant, kind) with
radii and constants in mantissa/exponent string form; the loader rebuilds
from parameters and cross-checks the stored values (1e-12 relative), so a
certified construction reloads exactly or fails loudly.  Version 1 files,
which stored per-period ladder rows instead, still load.
"""

import json

import mpmath

from .ladder import OscillationParams, mantissa_exponent
from .smoothing import SmoothedH, build_oscillating_h

FORMAT = "warplab-construction v2"
FORMAT_V1 = "warplab-construction v1"


def save_construction(path: str, params: OscillationParams, ladder, sm: SmoothedH):
    doc = {
        "format": FORMAT,
        "alpha": params.alpha,
        "beta": params.beta,
        "A": params.A,
        "B": params.B,
        "R11": params.R11,
        "periods": params.periods,
        "radius_bound": ladder.radius_bound,
        "truncated": ladder.truncated,
        "cutoff_fracs": {
            "above": [1.01, 1.1, 1.19],
            "below": [0.81, 0.9, 0.99],
        },
        "segments": [
            {"r_lo": mantissa_exponent(s.r_lo), "p": s.p, "C": mantissa_exponent(s.C),
             "kind": s.kind}
            for s in sm.base.segments
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_construction(path: str, check: bool = False):
    """Rebuild (params, ladder, piecewise, smoothed) and verify stored values."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") not in (FORMAT, FORMAT_V1):
        raise ValueError(f"not a construction file: {path}")
    params = OscillationParams(
        alpha=doc["alpha"], beta=doc["beta"], A=doc["A"], B=doc["B"],
        R11=doc["R11"], periods=doc["periods"],
    )
    ladder, hp, sm = build_oscillating_h(
        params, radius_bound=doc.get("radius_bound", 1e300), check=check
    )
    with mpmath.workdps(30):
        if doc["format"] == FORMAT:
            _check_segments(doc["segments"], hp.segments)
        else:
            _check_v1_rows(doc["rows"], hp.junctions())
    return params, ladder, hp, sm


def _agree(stored: str, x, name: str):
    ref = mpmath.mpf(stored)
    if abs(x - ref) > mpmath.mpf("1e-12") * abs(ref):
        raise ValueError(f"stored {name}={stored} disagrees with rebuild")


def _check_segments(stored, segments):
    if len(stored) != len(segments):
        raise ValueError(f"{len(stored)} stored segments, rebuild has {len(segments)}")
    for i, (doc, seg) in enumerate(zip(stored, segments)):
        if (doc["p"], doc["kind"]) != (seg.p, seg.kind):
            raise ValueError(f"stored segment {i} is a {doc['kind']} of exponent {doc['p']}, "
                             f"rebuild has a {seg.kind} of exponent {seg.p}")
        _agree(doc["r_lo"], seg.r_lo, f"segment {i} r_lo")
        _agree(doc["C"], seg.C, f"segment {i} C")


def _check_v1_rows(rows, junctions):
    """Row i of a v1 file holds R0..R4 of period i + 1, R0 repeating the
    previous row's R4, so key Rj sits at 4 i + j in [0, *junctions].  The
    rebuilt radii must be a prefix of the stored ones: a truncated v1 row
    carries one radius past the bound that has no segment."""
    flat = [mpmath.mpf(0)] + junctions
    stored = [(4 * i + int(key[1:]), f"rows[{i}].{key}", s)
              for i, row in enumerate(rows) for key, s in row.items()]
    if max((pos for pos, _, _ in stored), default=0) + 1 < len(flat):
        raise ValueError("stored rows end before the rebuilt junctions")
    for pos, name, s in stored:
        if pos < len(flat):
            _agree(s, flat[pos], name)
