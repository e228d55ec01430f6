"""Continuous piecewise warping functions C (1+r^2)^(-p) per segment.

Segments store their scale constants as mpmath scalars (they overflow
doubles from period 2 on); evaluation stays in the caller's arithmetic
where the constants are float-representable and silently promotes to
mpmath otherwise.  Pure pieces carry C = 1 exactly and skip the constant
multiply, so their values are bit-identical to a standalone power-decay
profile on the same radii.

Float views (the unit flag, the float constant, junctions as doubles) are
built once at construction, so a float query touches no mpf unless it is
promoted.  A float query runs the closed-form kernel (`Segment.kernel`),
which takes a double or a float64 array and returns the Jet2 bits with no
Jet2 built, plus a flag for the radii that must be promoted; a float
query of the value alone runs `Segment.value_reader`, the same value with
no h'' (a bridge still forms h' for its promotion test).  Edges are
kept as the nearest double on the safe side (`float_ceil` /
`float_floor`), which makes every float comparison against an edge agree
with the exact mpf comparison.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import mpmath
import numpy as np

from .jets import Jet2, _array_pow, _ndarray
from .ladder import ScaleLadder, bridge_constant, bridge_exponent
from .warping import HFrame, power_frame

# doubles hold |log10| < ~308; stay clear so squares/ratios inside jet
# algebra never denormalize
_FLOAT_SAFE_LOG10 = 290.0
_NORMAL_MIN = 2.2250738585072014e-308  # the smallest normal double


def float_ceil(x) -> float:
    """Smallest double >= x (+inf past the float range).  For a float r,
    `r >= x` and `r < x` hold exactly when they hold against this value."""
    f = float(x)  # float(mpf) saturates to +-inf
    return math.nextafter(f, math.inf) if f < x else f


def float_floor(x) -> float:
    """Largest double <= x.  For a float r, `r <= x` and `r > x` hold
    exactly when they hold against this value."""
    f = float(x)
    return math.nextafter(f, -math.inf) if f > x else f


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

    def c_float(self):
        """Float constant when representable, else None."""
        return self._cf

    def kernel(self, r):
        """(h, h', h'', promoted) at a double or a float64 array of radii, in
        closed form and bit-identical to the Jet2 jets.  promoted (a bool, or
        a bool array) marks the radii that doubles cannot answer: the
        constant is outside float range, the bare power (1+r^2)^(-p) is
        subnormal, or h or h' underflowed.  Their other entries mean
        nothing; jet() redoes them in mpmath."""
        arr = r.__class__ is _ndarray
        p = self.p
        u0 = 1.0 + r * r
        g1 = 2.0 * r / u0
        if self._unit:
            # Jet2's ratio form of (1 + x*x)**q: pure pieces keep the bits of
            # a standalone profile
            q = -p
            v = _array_pow(u0, q) if arr else u0**q
            d1 = v * (q * g1)
            d2 = v * (q * (q - 1) * g1 * g1 + q * 2.0 / u0)
            return v, d1, d2, np.zeros(r.shape, bool) if arr else False
        cf = self.c_float()
        if cf is None:
            nan = np.full(r.shape, math.nan) if arr else math.nan
            return nan, nan, nan, np.ones(r.shape, bool) if arr else True
        # scale first, then form derivatives in ratio form: the bare power's
        # jets can underflow where C * (1+r^2)^(-p) is still representable;
        # a subnormal power has lost bits, so that radius is promoted
        w = _array_pow(u0, -p) if arr else u0 ** (-p)
        v = cf * w
        d1 = v * (-p) * g1
        d2 = v * (p * (p + 1.0) * g1 * g1 - p * 2.0 / u0)
        if arr:
            promoted = (r > 0) & ((w < _NORMAL_MIN) | (v == 0.0) | (d1 == 0.0) | ~np.isfinite(v))
        else:
            promoted = r > 0 and (w < _NORMAL_MIN or v == 0.0 or d1 == 0.0
                                 or not math.isfinite(v))
        return v, d1, d2, promoted

    def frame(self, r) -> HFrame:
        """The exponent frame at a float64 array of radii."""
        return power_frame(r, self.p, 0.0 if self._unit else float(mpmath.log(self.C)))

    def jet(self, r) -> Jet2:
        """Jet2 at a float, an mpf or a float64 array of radii (a Jet2 of
        arrays, see `array_jet`)."""
        if isinstance(r, (mpmath.mpf, mpmath.mpc)):
            return self._mp_jet(r)
        if r.__class__ is _ndarray:
            return array_jet(self.kernel(r), r, self.jet)
        v, d1, d2, promoted = self.kernel(r)
        return self._mp_jet(mpmath.mpf(r)) if promoted else Jet2(v, d1, d2)

    def value_reader(self, promote):
        """The value-only float path: a closure r -> h(r) at a double r, with
        the bits of kernel(r)'s value and no second-derivative work.  A
        bridge still forms h' for the promotion test; a promoted radius
        answers promote(r)."""
        if self._unit:
            q = -self.p
            return lambda r: (1.0 + r * r) ** q
        cf, negp = self._cf, -self.p
        if cf is None:
            return promote

        def bridge_value(r):
            u0 = 1.0 + r * r
            w = u0**negp
            v = cf * w
            if r > 0 and (w < _NORMAL_MIN or v == 0.0 or v * negp * (2.0 * r / u0) == 0.0
                          or not math.isfinite(v)):
                return promote(r)
            return v
        return bridge_value

    @cached_property
    def _value(self):
        """value()'s float reader, promoting to jet(r).value."""
        return self.value_reader(lambda r: self.jet(r).value)

    def value(self, r):
        """h(r), equal to jet(r).value; a float r that needs no promotion
        builds no Jet2."""
        if isinstance(r, float):
            return self._value(r)
        return self.jet(r).value

    def _mp_jet(self, r):
        x = Jet2.variable(r)
        j = (1 + x * x) ** (-self.p)
        return j if self._unit else j * self.C


def array_jet(kernel_out, rs, scalar_jet) -> Jet2:
    """The Jet2 of arrays that a kernel's output at the radii rs stands for,
    equal entry by entry to scalar_jet(r): float64 arrays when no radius was
    promoted, else object arrays whose promoted entries hold scalar_jet's
    mpf components."""
    v, d1, d2, promoted = kernel_out
    if promoted.any():
        v, d1, d2 = v.astype(object), d1.astype(object), d2.astype(object)
        for i in np.flatnonzero(promoted).tolist():
            j = scalar_jet(float(rs[i]))
            v[i], d1[i], d2[i] = j.value, j.d1, j.d2
    return Jet2(v, d1, d2)


class PiecewiseH:
    """Ordered continuous segments covering [0, inf), strictly decreasing."""

    def __init__(self, segments, check_continuity=True):
        if not segments:
            raise ValueError("need at least one segment")
        if segments[-1].r_hi is not None:
            raise ValueError("last segment must extend to infinity")
        self.segments = list(segments)
        self._junctions = self.junctions()
        self._keys = [float_ceil(lo) for lo in self._junctions]
        if check_continuity:
            self.check_continuity()

    def junctions(self):
        return [s.r_lo for s in self.segments[1:]]

    def segment_at(self, r):
        """The segment with r_lo <= r < r_hi, decided exactly for float and
        mpf radii."""
        if isinstance(r, mpmath.mpf):
            return self.segments[bisect_right(self._junctions, r)]
        return self.segments[bisect_right(self._keys, float(r))]

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
