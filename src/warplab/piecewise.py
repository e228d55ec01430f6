"""Continuous piecewise warping functions C (1+r^2)^(-p) per segment.

A piecewise warping is an ordered segment list covering [0, inf), as
`ladder_segments` builds it; `smoothing.SmoothedH` routes radii to them.

A segment starts at a double radius and keeps its scale constant as
log C, a double: C itself overflows doubles from period 2 on.  It reads h
at double radii in log form: `log_h` gives log C - p log(1+r^2) at a
double, and `frame` the exponent frame (log h, p, p_y = 0) at a double or
a float64 array; log h stays in range where h itself underflows.  `jet`
keeps the Jet2 of h at a double radius for the Christoffel oracle: C times
the power where C is a double, else exp(log h).  Pure pieces carry C = 1
exactly and skip the constant, so their jets are bit-identical to a
standalone power-decay profile on the same radii.
"""

import math
from dataclasses import dataclass, field

from .jets import Jet2
from .ladder import ScaleLadder, bridge_exponent, bridge_log_constant
from .warping import LOG_DOUBLE_MAX, HFrame, log1p_sq_float, power_frame

# doubles hold |log C| < ~709; stay clear so squares/ratios inside jet
# algebra never denormalize
_FLOAT_SAFE_LOG = 290.0 * math.log(10.0)


class ContinuityViolation(RuntimeError):
    """Adjacent segments disagree at their junction beyond tolerance."""


@dataclass(frozen=True)
class Segment:
    r_lo: float
    r_hi: float | None  # None for +inf
    p: float
    log_c: float  # log of the scale constant C of a bridge; a piece's C is 1
    kind: str  # "piece" or "bridge"
    # float views, set once in __post_init__
    _unit: bool = field(init=False, repr=False, compare=False)  # a piece: C == 1
    _cf: float | None = field(init=False, repr=False, compare=False)
    _log_c: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        unit = self.kind == "piece"
        log_c = 0.0 if unit else float(self.log_c)
        cf = math.exp(log_c) if abs(log_c) <= _FLOAT_SAFE_LOG else None
        object.__setattr__(self, "_unit", unit)
        object.__setattr__(self, "_cf", cf)
        object.__setattr__(self, "_log_c", log_c)

    def c_float(self):
        """C as a double, exp(log C), or None past the double range."""
        return self._cf

    def log_h(self, r) -> float:
        """log h at a double r."""
        return self._log_c - self.p * log1p_sq_float(r)

    def frame(self, r) -> HFrame:
        """The exponent frame at a float64 array or a double r."""
        return power_frame(r, self.p, self._log_c)

    def jet(self, r) -> Jet2:
        """Jet2 at a double radius."""
        p = self.p
        if self._unit:
            x = Jet2.variable(r)
            return (1 + x * x) ** (-p)
        # scale first, then form derivatives in ratio form: the bare power's
        # jets can underflow where C * (1+r^2)^(-p) is still representable
        cf = self.c_float()
        u0 = 1.0 + r * r
        g1 = 2.0 * r / u0
        if cf is None:  # C past the double range: h = exp(log h), +inf past it too
            log_v = self._log_c - p * log1p_sq_float(r)
            v = math.exp(log_v) if log_v <= LOG_DOUBLE_MAX else math.inf
        else:
            v = cf * u0 ** (-p)
        return Jet2(v, v * (-p) * g1, v * (p * (p + 1.0) * g1 * g1 - p * 2.0 / u0))


def junction_gaps(segments):
    """Relative gaps |h_L - h_R| / h_R at each junction of an ordered
    segment list, from both sides' log h at the junction's radius; a gap
    beyond 1e-10 means ladder/constant corruption and raises
    ContinuityViolation."""
    gaps = []
    for left, right in zip(segments, segments[1:]):
        r = right.r_lo
        lv, rv = left.log_h(r), right.log_h(r)
        gap = abs(math.expm1(lv - rv))
        if not gap <= 1e-10:
            raise ContinuityViolation(f"junction at r={r:.10g}: log h {lv!r} vs {rv!r}")
        gaps.append(gap)
    return gaps


def ladder_segments(ladder: ScaleLadder) -> list:
    """The segments of the warping attached to a built ladder: pure pieces
    C = 1 on the chained exponents, joined by continuous bridges, the last
    piece extending to infinity."""
    segs = []
    lo = 0.0
    chain, junctions = ladder.chain, ladder.junctions
    for i, (a, b) in enumerate(zip(chain, chain[1:])):
        end, T = junctions[2 * i], junctions[2 * i + 1]
        E = bridge_exponent(ladder.params, a, b)
        segs.append(Segment(lo, end, a, 0.0, "piece"))
        segs.append(Segment(end, T, E, bridge_log_constant(end, E, a), "bridge"))
        lo = T
    segs.append(Segment(lo, None, chain[-1], 0.0, "piece"))
    return segs
