"""Serialization of oscillating constructions to a structured text file.

The file stores the generating parameters, the blend every junction gets,
and every segment of the piecewise warping (start radius, exponent, scale
constant, kind) with radii and constants in mantissa/exponent string form;
the loader rebuilds from parameters and cross-checks the stored values
(1e-12 relative), so a certified construction reloads exactly or fails
loudly.  Files of earlier formats are refused: the smoothed h they
recorded is no longer built.
"""

import json

import mpmath

from .ladder import OscillationParams, mantissa_exponent
from .smoothing import SPAN_LO, SmoothedH, build_oscillating_h

FORMAT = "warplab-construction v3"
# the exponent blend of smoothing.Blend, and its span: from 0.8 R to the
# radius centred on R in log(1 + r^2)
BLEND = {"form": "exponent in log(1+r^2), quintic weight", "lo_frac": SPAN_LO,
         "hi": "centred on log(1+R^2)"}


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
        "segments": [
            {"r_lo": mantissa_exponent(s.r_lo), "p": s.p, "C": mantissa_exponent(s.C),
             "kind": s.kind}
            for s in sm.segments
        ],
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
        # v1 and v2 recorded value blends, which are no longer built
        raise ValueError(f"{path} has format {doc.get('format')!r}; only {FORMAT!r} is read")
    if doc.get("blend") != BLEND:
        raise ValueError(f"stored blend {doc.get('blend')} is not the blend built: {BLEND}")
    params = OscillationParams(
        alpha=doc["alpha"], beta=doc["beta"], A=doc["A"], B=doc["B"],
        R11=doc["R11"], periods=doc["periods"],
    )
    ladder, sm = build_oscillating_h(params, radius_bound=doc.get("radius_bound", 1e300))
    with mpmath.workdps(30):
        _check_segments(doc["segments"], sm.segments)
    return ladder, sm


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
