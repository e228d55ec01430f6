"""Continuous piecewise warping functions C (1+r^2)^(-p) per segment.

A piecewise warping is an ordered segment list covering [0, inf), as
`ladder_segments` builds it; `smoothing.SmoothedH` routes radii to them.

Segments store their scale constants as mpmath scalars (they overflow
doubles from period 2 on).  A segment reads h at double radii in log form:
`log_h` gives log C - p log(1+r^2) at a double, and `frame` the exponent
frame (log h, p, p_y = 0) at a double or a float64 array.  Neither touches
an mpf, and log h stays in range where h itself underflows.  `jet` keeps
the Jet2 of h for the Christoffel oracle and the construction checks: in
mpmath at an mpf radius, in doubles at a float one unless the constant is
past the double range (then in mpmath).  Pure pieces carry C = 1 exactly
and skip the constant, so their jets are bit-identical to a standalone
power-decay profile on the same radii.

Edges are kept as the smallest double at or above them (`float_ceil`),
which makes every float comparison r >= x or r < x against an edge agree
with the exact mpf comparison.
"""

import math
from dataclasses import dataclass, field

import mpmath

from .jets import Jet2
from .ladder import ScaleLadder, bridge_constant, bridge_exponent
from .warping import HFrame, log1p_sq_float, power_frame

# doubles hold |log10| < ~308; stay clear so squares/ratios inside jet
# algebra never denormalize
_FLOAT_SAFE_LOG10 = 290.0


def float_ceil(x) -> float:
    """Smallest double >= x (+inf past the float range).  For a float r,
    `r >= x` and `r < x` hold exactly when they hold against this value."""
    f = float(x)  # float(mpf) saturates to +-inf
    return math.nextafter(f, math.inf) if f < x else f


class ContinuityViolation(RuntimeError):
    """Adjacent segments disagree at their junction beyond tolerance."""


@dataclass(frozen=True)
class Segment:
    r_lo: object  # mpf
    r_hi: object  # mpf or None for +inf
    p: float
    C: object  # mpf scale constant, 1 for pure pieces
    kind: str  # "piece" or "bridge"
    # float views, set once in __post_init__
    _unit: bool = field(init=False, repr=False, compare=False)  # C == 1
    _cf: float | None = field(init=False, repr=False, compare=False)
    _log_c: float = field(init=False, repr=False, compare=False)  # log C as a double

    def __post_init__(self):
        unit = bool(self.C == 1)
        if unit:
            cf = 1.0
        elif abs(mpmath.log10(abs(self.C))) > _FLOAT_SAFE_LOG10:
            cf = None
        else:
            cf = float(self.C)
        object.__setattr__(self, "_unit", unit)
        object.__setattr__(self, "_cf", cf)
        object.__setattr__(self, "_log_c", 0.0 if unit else float(mpmath.log(self.C)))

    def c_float(self):
        """Float constant when representable, else None."""
        return self._cf

    def log_h(self, r) -> float:
        """log h at a double r."""
        return self._log_c - self.p * log1p_sq_float(r)

    def frame(self, r) -> HFrame:
        """The exponent frame at a float64 array or a double r."""
        return power_frame(r, self.p, self._log_c)

    def jet(self, r) -> Jet2:
        """Jet2 at a float or an mpf radius: in doubles, unless r is an mpf
        or the constant is past the double range (then in mpmath)."""
        if isinstance(r, (mpmath.mpf, mpmath.mpc)):
            return self._mp_jet(r)
        if self._unit:
            x = Jet2.variable(r)
            return (1 + x * x) ** (-self.p)
        cf = self.c_float()
        if cf is None:
            return self._mp_jet(mpmath.mpf(r))
        # scale first, then form derivatives in ratio form: the bare power's
        # jets can underflow where C * (1+r^2)^(-p) is still representable
        p = self.p
        u0 = 1.0 + r * r
        g1 = 2.0 * r / u0
        v = cf * u0 ** (-p)
        return Jet2(v, v * (-p) * g1, v * (p * (p + 1.0) * g1 * g1 - p * 2.0 / u0))

    def _mp_jet(self, r):
        x = Jet2.variable(r)
        j = (1 + x * x) ** (-self.p)
        return j if self._unit else j * self.C


def junction_gaps(segments):
    """Relative gaps |h_L - h_R| / |h_R| at each junction of an ordered
    segment list, in one 40-digit mpmath pass; a gap beyond 1e-10 means
    ladder/constant corruption and raises ContinuityViolation."""
    gaps = []
    with mpmath.workdps(40):
        for left, right in zip(segments, segments[1:]):
            rj = mpmath.mpf(right.r_lo)
            lv = left.C * (1 + rj * rj) ** mpmath.mpf(-left.p)
            rv = right.C * (1 + rj * rj) ** mpmath.mpf(-right.p)
            if abs(lv - rv) > 1e-10 * abs(rv):
                raise ContinuityViolation(
                    f"junction at r={mpmath.nstr(rj, 10)}: {mpmath.nstr(lv, 18)} vs "
                    f"{mpmath.nstr(rv, 18)}"
                )
            gaps.append(float(abs(lv - rv) / abs(rv)))
    return gaps


def ladder_segments(ladder: ScaleLadder) -> list:
    """The segments of the warping attached to a built ladder: pure pieces
    C = 1 on the chained exponents, joined by continuous bridges, the last
    piece extending to infinity."""
    one = mpmath.mpf(1)
    segs = []
    lo = mpmath.mpf(0)
    chain, junctions = ladder.chain, ladder.junctions
    for i, (a, b) in enumerate(zip(chain, chain[1:])):
        end, T = junctions[2 * i], junctions[2 * i + 1]
        E = bridge_exponent(ladder.params, a, b)
        segs.append(Segment(lo, end, a, one, "piece"))
        segs.append(Segment(end, T, E, bridge_constant(end, E, a), "bridge"))
        lo = T
    segs.append(Segment(lo, None, chain[-1], one, "piece"))
    return segs
