"""Junction-radius ladders for piecewise warping exponents.

The oscillating circle factor alternates between decay exponents on huge,
rapidly growing radius windows, bridged by steeper/shallower pieces that
meet continuously.  Radii grow doubly exponentially (the second period
already overflows doubles for the default parameters), but in
y = log(1 + r^2) the recursions are linear.  For a piece of exponent p
ending at radius T and a bridge of exponent E toward a piece of exponent q
(E above or below both p and q):

    bridge constant  log C = (E - p) y(T)
    next junction    y(T') = y(T) (E - p)/(E - q)

and each pure piece of exponent q then spans [T', 5 T'^2].  The ladder
runs in doubles and log-doubles: each kept junction is a double radius
(the radius bound is a double, and the double range bounds every ladder),
while the bound comparison and the end 5 T'^2 of the last piece, which may
lie past the double range, stay in y.
"""

import math
import sys
from dataclasses import dataclass

from .config import LadderGrowthError
from .warping import LOG_DOUBLE_MAX, log1p_sq_float


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


def radius(y):
    """The radius r with log(1 + r^2) = y, as a double (+inf past the
    double range): exp(y/2) (1 - exp(-y))^(1/2), with no e^y."""
    if 0.5 * y > LOG_DOUBLE_MAX:
        return math.inf
    return math.exp(0.5 * y) * math.sqrt(-math.expm1(-y))


def bridge_log_constant(T, E, p):
    """log C with C (1+r^2)^(-E) continuous at T against (1+r^2)^(-p)."""
    return (E - p) * log1p_sq_float(T)


def build_scale_ladder(params, radius_bound: float = 1e300) -> ScaleLadder:
    """Junction radii visiting `params.exponents` in order.

    Each pure piece of exponent a spans [T, 5 T^2] (the first ends at R11)
    and is bridged to the next exponent; consecutive duplicates merge, and
    the final piece is bridged back toward the first exponent, whose tail
    then extends to infinity.  If a radius exceeds radius_bound (or the
    double range) first, the ladder stops at the last piece reached and is
    flagged truncated.  Growth ratios between successive junctions must be
    >= 5, which the recursions guarantee for oscillations with R11 >= 100
    and which keeps later smoothing blends disjoint; a schedule whose
    junctions grow slower raises LadderGrowthError.
    """
    planned = []
    for a in params.exponents:  # consecutive duplicates add no contrast
        if not planned or planned[-1] != a:
            planned.append(float(a))
    if planned[-1] != planned[0]:
        planned.append(planned[0])

    y_bound = log1p_sq_float(min(radius_bound, sys.float_info.max))
    chain = [planned[0]]
    junctions = []
    truncated = False
    end = float(params.R11)
    y_end = log1p_sq_float(end)
    for a, b in zip(planned, planned[1:]):
        E = bridge_exponent(params, a, b)
        y_T = y_end * ((E - a) / (E - b))
        if y_end > y_bound or y_T > y_bound:
            truncated = True
            break
        T = radius(y_T)
        chain.append(b)
        junctions += [end, T]
        end = 5.0 * T * T  # +inf past the double range, where y(5 T^2) is formed in logs
        y_end = (log1p_sq_float(end) if end < math.inf
                 else 2.0 * (math.log(5.0) + 2.0 * math.log(T)))

    for i, (lo, hi) in enumerate(zip(junctions, junctions[1:])):
        if not (hi / lo >= 5):
            raise LadderGrowthError(
                f"ladder growth ratio below 5 between junctions {i} and {i + 1} "
                f"(r = {lo:.6g} and {hi:.6g})"
            )
    return ScaleLadder(params, tuple(chain), junctions, truncated, radius_bound)
