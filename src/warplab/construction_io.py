"""Serialization of oscillating constructions to a structured text file.

The file stores the generating parameters, the blend every junction gets,
and every segment of the piecewise warping: its start radius, exponent,
log scale constant and kind, each number a JSON double written by its
repr, so it reads back to the same bits.  The loader rebuilds from
parameters and requires every stored number to equal the rebuilt one
exactly, so a certified construction reloads exactly or fails loudly.
Files of earlier formats are refused: v1 and v2 recorded value blends,
which are no longer built, and v3 recorded 40-digit radii and constants,
which the double construction does not carry.
"""

import json

from .ladder import OscillationParams
from .smoothing import SPAN_LO, SmoothedH, build_oscillating_h

FORMAT = "warplab-construction v4"
# the exponent blend of smoothing.Blend, and its span: from 0.8 R to the
# radius centred on R in log(1 + r^2)
BLEND = {"form": "exponent in log(1+r^2), quintic weight", "lo_frac": SPAN_LO,
         "hi": "centred on log(1+R^2)"}


def _segment_record(s):
    return {"r_lo": s.r_lo, "p": s.p, "log_c": s.log_c, "kind": s.kind}


def save_construction(path: str, ladder, sm: SmoothedH):
    params = ladder.params
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
        "blend": BLEND,
        "segments": [_segment_record(s) for s in sm.segments],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_construction(path: str):
    """Rebuild (ladder, smoothed h) as build_oscillating_h does and verify
    the stored segments; the parameters are ladder.params."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != FORMAT:
        raise ValueError(f"{path} has format {doc.get('format')!r}; only {FORMAT!r} is read")
    if doc.get("blend") != BLEND:
        raise ValueError(f"stored blend {doc.get('blend')} is not the blend built: {BLEND}")
    params = OscillationParams(
        alpha=doc["alpha"], beta=doc["beta"], A=doc["A"], B=doc["B"],
        R11=doc["R11"], periods=doc["periods"],
    )
    ladder, sm = build_oscillating_h(params, radius_bound=doc.get("radius_bound", 1e300))
    stored = doc["segments"]
    if len(stored) != len(sm.segments):
        raise ValueError(f"{len(stored)} stored segments, rebuild has {len(sm.segments)}")
    for i, (got, seg) in enumerate(zip(stored, sm.segments)):
        if got != _segment_record(seg):
            raise ValueError(f"stored segment {i} {got} disagrees with rebuild "
                             f"{_segment_record(seg)}")
    return ladder, sm
