"""Continuous piecewise warping functions C (1+r^2)^(-p) per segment.

Segments store their scale constants as mpmath scalars (they overflow
doubles from period 2 on); evaluation stays in the caller's arithmetic
where the constants are float-representable and silently promotes to
mpmath otherwise.  Pure pieces carry C = 1 exactly and skip the constant
multiply, so their values are bit-identical to a standalone power-decay
profile on the same radii.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

import mpmath

from .jets import Jet2
from .ladder import ScaleLadder, bridge_constant, bridge_exponent

# doubles hold |log10| < ~308; stay clear so squares/ratios inside jet
# algebra never denormalize
_FLOAT_SAFE_LOG10 = 290.0


class ContinuityViolation(RuntimeError):
    """Adjacent segments disagree at their junction beyond tolerance."""


@dataclass(frozen=True)
class Segment:
    r_lo: object  # mpf
    r_hi: object  # mpf or None for +inf
    p: float
    C: object  # mpf scale constant, 1 for pure pieces
    kind: str  # "piece" or "bridge"

    def is_pure(self):
        return self.kind == "piece"

    def c_float(self):
        """Float constant when representable, else None."""
        if self.C == 1:
            return 1.0
        mag = mpmath.log10(abs(self.C))
        if abs(mag) > _FLOAT_SAFE_LOG10:
            return None
        return float(self.C)

    def jet(self, r) -> Jet2:
        if self.C == 1:  # pure pieces share bits with a standalone profile
            x = Jet2.variable(r)
            return (1 + x * x) ** (-self.p)
        if isinstance(r, (mpmath.mpf, mpmath.mpc)):
            x = Jet2.variable(r)
            return ((1 + x * x) ** (-self.p)) * self.C
        cf = self.c_float()
        if cf is None:  # constant outside float range: promote the query
            xm = Jet2.variable(mpmath.mpf(r))
            return ((1 + xm * xm) ** (-self.p)) * self.C
        # scale first, then form derivatives in ratio form: the bare power's
        # jets can underflow where C * (1+r^2)^(-p) is still representable
        p = self.p
        u0 = 1.0 + r * r
        g1 = 2.0 * r / u0
        v = cf * u0 ** (-p)
        d1 = v * (-p) * g1
        if r > 0 and (v == 0.0 or d1 == 0.0 or not math.isfinite(v)):
            # value or slope underflowed doubles: recompute exactly
            xm = Jet2.variable(mpmath.mpf(r))
            return ((1 + xm * xm) ** (-self.p)) * self.C
        d2 = v * (p * (p + 1.0) * g1 * g1 - p * 2.0 / u0)
        return Jet2(v, d1, d2)

    def value(self, r):
        return self.jet(r).value


class PiecewiseH:
    """Ordered continuous segments covering [0, inf), strictly decreasing."""

    def __init__(self, segments, check_continuity=True):
        if not segments:
            raise ValueError("need at least one segment")
        if segments[-1].r_hi is not None:
            raise ValueError("last segment must extend to infinity")
        self.segments = list(segments)
        # float keys for fast locate; huge junctions clamp to +inf which is
        # fine because float queries can never reach them
        self._keys = []
        for s in self.segments[1:]:
            lo = s.r_lo
            self._keys.append(float(lo) if mpmath.log10(max(lo, 1)) < 308 else float("inf"))
        if check_continuity:
            self.check_continuity()

    def junctions(self):
        return [s.r_lo for s in self.segments[1:]]

    def segment_at(self, r):
        idx = bisect_right(self._keys, float(r) if not isinstance(r, mpmath.mpf) else _safe_float(r))
        return self.segments[idx]

    def jet(self, r) -> Jet2:
        return self.segment_at(r).jet(r)

    def value(self, r):
        return self.segment_at(r).value(r)

    def check_continuity(self, rel_tol: float = 1e-10):
        """Relative junction gaps, in one mpmath pass; a gap beyond rel_tol
        means ladder/constant corruption and raises ContinuityViolation
        (pass rel_tol=math.inf to only report them)."""
        gaps = []
        with mpmath.workdps(40):
            for left, right in zip(self.segments, self.segments[1:]):
                rj = mpmath.mpf(right.r_lo)
                lv = left.C * (1 + rj * rj) ** mpmath.mpf(-left.p)
                rv = right.C * (1 + rj * rj) ** mpmath.mpf(-right.p)
                if abs(lv - rv) > rel_tol * abs(rv):
                    raise ContinuityViolation(
                        f"junction at r={mpmath.nstr(rj, 10)}: {mpmath.nstr(lv, 18)} vs "
                        f"{mpmath.nstr(rv, 18)}"
                    )
                gaps.append(float(abs(lv - rv) / abs(rv)))
        return gaps


def _safe_float(x):
    return float(x) if mpmath.log10(max(abs(x), 1)) < 308 else float("inf")


def build_piecewise_h(ladder: ScaleLadder) -> PiecewiseH:
    """The warping attached to a built ladder: pure pieces C = 1 on the
    chained exponents, joined by continuous bridges, the last piece
    extending to infinity."""
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
    return PiecewiseH(segs)
