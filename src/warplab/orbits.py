"""Deck-transformation orbit tables, growth windows, and growth-order fits.

The deck group is the integers acting by v -> v + 2*pi*l on the halfplane
reduction; d_l is the distance from an axis point to its l-th translate.
Counting uses the closed-ball convention #(R) = 2 max{l : d_l <= R} + 1
(identity plus both signs), with max{l : d_l <= R} the ball index of an
orbit metric.  An OrbitTable is the geodesic orbit metric: it inverts the
turning parameter once per radius, through its count memo (cached beside
its distances), for ball indices and strides alike.

Window machinery: on a stretch where h(r) = (1+r^2)^(-a), minimizing the
radial-out, wind-l-times, radial-back test loop 2r + 2*pi*l*h(r) at
r = (2*pi*a*l)^(1/(2a+1)) gives cost

    C(a) = (2 + 1/a) (2*pi*a)^(1/(2a+1))

per l^(1/(2a+1)).  Requiring the loop and its circumradius to stay inside
the stretch [S, S^2] (S twice the stretch's opening radius) confines the
index to l in [rho1 S^(2a+1), rho2 S^(4a+2)] with

    rho1 = C(a)^((2a+1)/(2a)),      rho2 = C(a)^-(2a+1),

and there the distance obeys the two-sided power law

    C1 l^(1/(2a+1)) <= d_l <= C2 l^(1/(2a+1)),
    C1 = (2*pi/C(a))^(1/(2a)),      C2 = C(a).

Counts at radius rho inside the corresponding distance window then grow
like rho^(2a+1), which growth_slope fits on log-log samples and
dimension.fit_growth_constants bounds.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .halfplane import HalfplaneMetric, axis_count_at_radius, orbit_distance
from .numerics import line_fit
from .warping import LOG_DOUBLE_MAX


class WindowEmpty(ValueError):
    """The admissible index window for this scale is empty."""


class WindowOutOfRange(ValueError):
    """The index window's bounds leave the double range."""


def loop_cost_coefficient(a: float) -> float:
    """C(a): minimized radial+winding loop cost per l^(1/(2a+1))."""
    return (2.0 + 1.0 / a) * (2.0 * math.pi * a) ** (1.0 / (2.0 * a + 1.0))


def window_index_bounds(a: float, S: float) -> tuple[float, float]:
    """(rho1 S^(2a+1), rho2 S^(4a+2)): indices with two-sided power control,
    formed in logs; WindowOutOfRange where a bound is past the double range."""
    log_c = math.log(loop_cost_coefficient(a))
    k = 2.0 * a + 1.0
    log_lo = log_c * k / (2.0 * a) + k * math.log(S)
    log_hi = -log_c * k + 2.0 * k * math.log(S)
    if log_lo > log_hi:
        raise WindowEmpty(f"rho1 S^(2a+1)={math.exp(log_lo)} > rho2 S^(4a+2)="
                          f"{math.exp(log_hi)}: S too small")
    if log_hi > LOG_DOUBLE_MAX:
        raise WindowOutOfRange(f"the index window of S={S:.4g} reaches e^{log_hi:.6g}, "
                               "past the double range")
    return math.exp(log_lo), math.exp(log_hi)


def sandwich_constants(a: float) -> tuple[float, float]:
    """(C1, C2) with C1 l^(1/(2a+1)) <= d_l <= C2 l^(1/(2a+1)) on the window."""
    C = loop_cost_coefficient(a)
    return (2.0 * math.pi / C) ** (1.0 / (2.0 * a)), C


@dataclass(frozen=True)
class GrowthWindow:
    lo: float
    hi: float

    def __post_init__(self):
        if not (0 < self.lo < self.hi):
            raise WindowEmpty(f"invalid window [{self.lo}, {self.hi}]")

    @staticmethod
    def for_stretch(a: float, S: float) -> "GrowthWindow":
        """Distance window on which counts are power-controlled: map the
        index window through the two-sided power law."""
        l_lo, l_hi = window_index_bounds(a, S)
        C1, C2 = sandwich_constants(a)
        e = 1.0 / (2.0 * a + 1.0)
        return GrowthWindow(C2 * l_lo**e, C1 * l_hi**e)


class OrbitTable:
    """The geodesic orbit metric of one HalfplaneMetric, at its arc
    tolerance: memoized distances l -> d_l and ball indices
    R -> max{l : d_l <= R}, loaded from and appended to an optional
    cache.OrbitCache.  The two memos stay apart: the radius 5.0 and the index
    5 are one dict key.  The cache is read on the first look at either memo,
    so a run that asks for no distance and no count reads no record."""

    def __init__(self, metric: HalfplaneMetric, cache=None):
        self.metric = metric
        self.cache = cache
        self._records = None

    def _load(self):
        if self._records is None:
            self._records = self.cache.load() if self.cache is not None else ({}, {})
        return self._records

    @property
    def entries(self) -> dict:
        """The distance memo, l -> d_l."""
        return self._load()[0]

    @property
    def counts(self) -> dict:
        """The count memo, R -> max{l : d_l <= R} for R >= d_1."""
        return self._load()[1]

    def distance(self, l) -> float:
        l = abs(int(l)) if abs(l) < 2**53 else abs(l)
        if l == 0:
            return 0.0
        hit = self.entries.get(l)
        if hit is not None:
            return hit
        d = self.entries[l] = orbit_distance(self.metric, l)[0]
        if self.cache is not None:
            self.cache.append(l, d)
        return d

    def ball_index(self, R: float) -> int:
        """max{l >= 0 : d_l <= R}: 0 below the table's d_1, with no inversion,
        and otherwise one turning-parameter inversion on the table's metric
        (halfplane.axis_count_at_radius), memoized by R, so counts stay
        computable where threshold indices overflow any table.  At R = d_l
        itself the count may be l - 1: the inversion and the distance solve
        round the same arc differently in the last bits."""
        if self.distance(1) > R:
            return 0
        hit = self.counts.get(R)
        if hit is not None:
            return hit
        n = self.counts[R] = int(axis_count_at_radius(self.metric, R))
        if self.cache is not None:
            self.cache.append(R, n, count=True)
        return n

    def min_stride(self, eps: float) -> int:
        """min{g >= 1 : d_g >= eps}.  For doubles d_g >= eps is
        d_g > nextafter(eps, -inf), so the least such g is one past the ball
        index at that radius.  At eps = d_g itself it may be g + 1: the same
        rounding may count g in the ball just below d_g."""
        return self.ball_index(math.nextafter(eps, -math.inf)) + 1


@dataclass
class SlopeFit:
    slope: float
    residual: float  # rms of log-count residuals
    samples: list = field(default_factory=list)  # (R, count)


def growth_slope(s, window: GrowthWindow, samples: int = 14) -> SlopeFit:
    """Least-squares slope of log #(R) vs log R across the window, counting
    #(R) = 2 s.ball_index(R) + 1 on the orbit metric s.

    Requires at least 10 sample radii.
    """
    if samples < 10:
        raise ValueError("need >= 10 window samples")
    Rs = np.exp(np.linspace(math.log(window.lo), math.log(window.hi), samples))
    pts = [(float(R), float(2 * s.ball_index(float(R)) + 1)) for R in Rs]
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    slope, intercept = line_fit(x, y)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return SlopeFit(slope, resid, pts)


def check_distance_sandwich(d, a: float, S: float, n_samples: int = 25):
    """Sample indices log-spaced across the window of scale S and check
    C1 l^(1/(2a+1)) <= d(l) <= C2 l^(1/(2a+1)) for the distance callable
    d, l -> d_l.  Returns (ok, rows)."""
    l_lo, l_hi = window_index_bounds(a, S)
    C1, C2 = sandwich_constants(a)
    e = 1.0 / (2.0 * a + 1.0)
    ls = np.exp(np.linspace(math.log(l_lo), math.log(l_hi), n_samples))
    rows = []
    ok = True
    for lf in ls:
        l = math.floor(lf)
        d_l = d(l)
        lo = C1 * l**e
        hi = C2 * l**e
        good = lo <= d_l <= hi
        ok = ok and good
        rows.append((l, d_l, lo, hi, good))
    return ok, rows
