"""Junction-radius ladders for piecewise warping exponents.

The oscillating circle factor alternates between decay exponents on huge,
rapidly growing radius windows, bridged by steeper/shallower pieces that
meet continuously.  Radii grow doubly exponentially (the second period
already overflows doubles for the default parameters), so every junction
radius and bridge constant is carried as an mpmath scalar; geometry code
receives floats only where they are representable.

Recursions, for a piece of exponent p ending at radius T and a bridge of
exponent E toward a piece of exponent q (E above or below both p and q):

    bridge constant  C = (1 + T^2)^(E - p)
    next junction    T' = ((1 + T^2)^((E-p)/(E-q)) - 1)^(1/2)

and each pure piece of exponent q then spans [T', 5 T'^2].
"""

from dataclasses import dataclass

import mpmath

from .config import LadderGrowthError

PRECISION_DPS = 40  # ~133 bits; radii serialize as mantissa/exponent strings


@dataclass(frozen=True)
class OscillationParams:
    """Two-exponent oscillation: decay alpha on early windows, beta on the
    middle of each period, bridged by B above and A below."""

    alpha: float
    beta: float
    A: float
    B: float
    R11: float = 100.0
    periods: int = 2

    def __post_init__(self):
        if not (self.B > self.beta > self.alpha > self.A > 0):
            raise ValueError(
                f"need B > beta > alpha > A > 0, got B={self.B}, beta={self.beta}, "
                f"alpha={self.alpha}, A={self.A}"
            )
        if self.R11 < 100:
            raise ValueError(f"first junction radius must be >= 100, got {self.R11}")
        if self.periods < 0:
            raise ValueError("periods must be >= 0")

    @property
    def exponents(self):
        """Visit order: (alpha, beta) per period; the tail returns to alpha."""
        return (self.alpha, self.beta) * self.periods or (self.alpha,)


@dataclass(frozen=True)
class ExponentSchedule:
    """Finite list of decay exponents visited in order, with the same
    junction policy (A below all, B above all, first junction at R11)."""

    exponents: tuple
    A: float
    B: float
    R11: float = 100.0
    band: tuple = (0.5, None)

    def __post_init__(self):
        exps = tuple(float(a) for a in self.exponents)
        object.__setattr__(self, "exponents", exps)
        if not exps:
            raise ValueError("schedule must contain at least one exponent")
        lo, hi = self.band
        hi = max(exps) if hi is None else hi
        object.__setattr__(self, "band", (lo, hi))
        if lo < 0.5:
            raise ValueError(f"declared band floor must be >= 1/2, got {lo}")
        for a in exps:
            if not (lo <= a <= hi):
                raise ValueError(f"exponent {a} outside declared band [{lo}, {hi}]")
        if not (self.A < min(exps) and self.B > max(exps)):
            raise ValueError("bridge exponents must satisfy A < min(exponents) < max(exponents) < B")
        if self.A <= 0:
            raise ValueError("A must be positive")
        if self.R11 < 100:
            raise ValueError(f"first junction radius must be >= 100, got {self.R11}")


@dataclass
class ScaleLadder:
    """Junction radii of a built construction.

    `chain` lists the exponents of the pure pieces actually built, in
    order; `junctions` is flat: for each step from chain[i] to chain[i+1]
    it holds the end of piece i (where the bridge starts) followed by the
    start of piece i+1, so len(junctions) == 2 * (len(chain) - 1).  For an
    oscillation this is R11, R12, R13, R14, R21, ...
    """

    params: object  # OscillationParams or ExponentSchedule
    chain: tuple
    junctions: list
    truncated: bool
    radius_bound: float


def bridge_exponent(params, a, b):
    """Ascending steps bridge above through B, descending below through A."""
    return params.B if b > a else params.A


def _next_junction(T, E, p, q):
    """Radius where the E-bridge leaving exponent p at T meets exponent q."""
    with mpmath.workdps(PRECISION_DPS):
        expo = (mpmath.mpf(E) - mpmath.mpf(p)) / (mpmath.mpf(E) - mpmath.mpf(q))
        return mpmath.sqrt((1 + T * T) ** expo - 1)


def bridge_constant(T, E, p):
    """C with C (1+r^2)^(-E) continuous at T against (1+r^2)^(-p)."""
    with mpmath.workdps(PRECISION_DPS):
        return (1 + T * T) ** (mpmath.mpf(E) - mpmath.mpf(p))


def build_scale_ladder(params, radius_bound: float = 1e300) -> ScaleLadder:
    """Junction radii visiting `params.exponents` in order.

    Each pure piece of exponent a spans [T, 5 T^2] (the first ends at R11)
    and is bridged to the next exponent; consecutive duplicates merge, and
    the final piece is bridged back toward the first exponent, whose tail
    then extends to infinity.  If a radius exceeds radius_bound first, the
    ladder stops at the last piece reached and is flagged truncated.
    Growth ratios between successive junctions must be >= 5, which the
    recursions guarantee for oscillations with R11 >= 100 and which keeps
    later smoothing blends disjoint; a schedule whose junctions grow slower
    raises LadderGrowthError.
    """
    with mpmath.workdps(PRECISION_DPS):
        bound = mpmath.mpf(radius_bound)
        planned = []
        for a in params.exponents:  # consecutive duplicates add no contrast
            if not planned or planned[-1] != a:
                planned.append(float(a))
        if planned[-1] != planned[0]:
            planned.append(planned[0])

        chain = [planned[0]]
        junctions = []
        truncated = False
        end = mpmath.mpf(params.R11)
        for a, b in zip(planned, planned[1:]):
            if end > bound:
                truncated = True
                break
            T = _next_junction(end, bridge_exponent(params, a, b), a, b)
            if T > bound:
                truncated = True
                break
            chain.append(b)
            junctions += [end, T]
            end = 5 * T * T

        for i, (lo, hi) in enumerate(zip(junctions, junctions[1:])):
            if not (hi / lo >= 5):
                raise LadderGrowthError(
                    f"ladder growth ratio below 5 between junctions {i} and {i + 1} "
                    f"(r = {mantissa_exponent(lo, 6)} and {mantissa_exponent(hi, 6)})"
                )
        return ScaleLadder(params, tuple(chain), junctions, truncated, radius_bound)


def mantissa_exponent(x, digits: int = 25) -> str:
    """Radius as a mantissa/exponent string round-trippable through mpmath."""
    with mpmath.workdps(max(digits, 5)):
        return mpmath.nstr(mpmath.mpf(x), digits, strip_zeros=False)
