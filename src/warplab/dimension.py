"""Capacity, growth-constant, covering-content and box-dimension fits on
orbit metrics, through their one counting interface, and the orbit metric
of an explicit table.

An orbit of the integer deck group carries the translation-invariant
metric rho(a, b) = d_{|a-b|} with d nondecreasing and subadditive.
On such path-ordered metrics a maximal separated subset can be taken
greedily left to right: consecutive gaps >= eps force all pairwise
distances >= eps (index differences add, d is nondecreasing), and any
separated set can be pushed left index by index without losing
separation, so the greedy sweep is optimal.  Translation invariance
collapses the sweep to a constant index stride, which keeps capacities of
astronomically large balls computable.

Conventions: balls are closed (d <= R), separation is closed (d >= eps),
matching the counting function #(R) = 2 max{l : d_l <= R} + 1, which every
count reads as 2 ball_index(R) + 1; a stride is min{g >= 1 : d_g >= eps}.
The functions below take any orbit metric s with those two methods: an
orbits.OrbitTable, the geodesic orbit metric, answers both by one cached
turning-parameter inversion each, and a LinearOrbitMetric, an explicit
table, by a binary search of its distances.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import brentq  # noqa: F401  unused here; perfbench's probe test reads it
from .numerics import line_fit


class DegenerateRange(ValueError):
    """Fit range spans too little to mean anything."""


class MetricInvariantViolation(ValueError):
    """The distance table is not monotone/subadditive where sampled."""


class LinearOrbitMetric:
    """Orbit metric of an explicit table d (random instances, small orbits),
    checked: d_0 = 0, and with validate monotone and subadditive where
    sampled."""

    def __init__(self, d, validate=True):
        d = np.asarray(d, dtype=float)
        if d[0] != 0.0:
            raise MetricInvariantViolation("d_0 must be 0")
        if validate:
            _check_table(d)
        self.d = d

    def ball_index(self, R: float) -> int:
        """max{l >= 0 : d_l <= R}, 0 below d_1."""
        return max(int(np.searchsorted(self.d, R, "right")) - 1, 0)

    def min_stride(self, eps: float) -> int:
        """min{g >= 1 : d_g >= eps}; 0 past d_n, where the table has none."""
        g = int(np.searchsorted(self.d, eps, "left"))
        return 0 if g == len(self.d) else max(g, 1)


def _check_table(d, triple_samples: int = 200, seed: int = 0):
    """d nondecreasing, and subadditive on seeded index pairs."""
    if np.any(np.diff(d) < 0):
        i = int(np.argmin(np.diff(d)))
        raise MetricInvariantViolation(f"d not nondecreasing at l={i}->{i+1}")
    n = len(d)
    rng = np.random.default_rng(seed)
    for _ in range(triple_samples):
        a = int(rng.integers(1, n))
        b = int(rng.integers(1, n - a + 1)) if n - a > 1 else 1
        if a + b >= n:
            continue
        if d[a + b] > d[a] + d[b] + 1e-9 * (d[a] + d[b] + 1):
            raise MetricInvariantViolation(f"subadditivity fails: d[{a + b}] > d[{a}] + d[{b}]")


def capacity(s, R: float, lam: float) -> int:
    """Maximum cardinality of a lam-separated subset of the closed ball
    B_R(0), via the constant-stride form of the greedy sweep."""
    if not (0 < lam < R):
        raise ValueError("need 0 < lam < R")
    N = s.ball_index(R)
    if N == 0:
        return 1
    g = s.min_stride(lam)
    if g == 0 or g > 2 * N:
        return 1
    return 2 * N // g + 1


@dataclass
class CapacityProfile:
    samples: list = field(default_factory=list)  # (R, lam, cap)

    def check_monotone(self):
        """cap nonincreasing in lam at fixed R, nondecreasing in R at fixed lam."""
        by_R = {}
        by_lam = {}
        for R, lam, cap in self.samples:
            by_R.setdefault(R, []).append((lam, cap))
            by_lam.setdefault(lam, []).append((R, cap))
        for R, rows in by_R.items():
            rows.sort()
            for (l1, c1), (l2, c2) in zip(rows, rows[1:]):
                if c2 > c1:
                    return False
        for lam, rows in by_lam.items():
            rows.sort()
            for (r1, c1), (r2, c2) in zip(rows, rows[1:]):
                if c2 < c1:
                    return False
        return True


def build_capacity_profile(s, R_values, ratios) -> CapacityProfile:
    prof = CapacityProfile()
    for R in R_values:
        for q in ratios:
            lam = R / q
            prof.samples.append((float(R), float(lam), capacity(s, float(R), float(lam))))
    return prof


def fit_growth_constants(s, k: float, R_range, samples: int = 32):
    """(c1, c2) = min/max over the range of #B_R / R^k, counting closed balls
    at `samples` log-spaced radii."""
    lo, hi = R_range
    Rs = np.exp(np.linspace(math.log(lo), math.log(hi), samples)).tolist()
    return growth_constants(k, R_range, [(R, 2 * s.ball_index(R) + 1) for R in Rs])


def growth_constants(k: float, R_range, samples):
    """(c1, c2) = min/max of count / R^k over the (R, count) samples of a fit
    range R_range that spans a decade (DegenerateRange otherwise, or on a
    zero or infinite constant)."""
    lo, hi = R_range
    if not (hi / lo >= 10.0):
        raise DegenerateRange(f"fit range [{lo}, {hi}] spans less than one decade")
    ratios = [count / R ** k for R, count in samples]
    c1, c2 = min(ratios), max(ratios)
    if not (c1 > 0 and math.isfinite(c2)):
        raise DegenerateRange("degenerate growth constants")
    return c1, c2


@dataclass
class SandwichReport:
    rows: list  # (R, lam, cap, lower, upper, ok)
    violations: int

    @property
    def ok(self):
        return self.violations == 0


def check_capacity_sandwich(profile: CapacityProfile, k: float, c1: float, c2: float) -> SandwichReport:
    """Against fitted growth constants: per sample,
    (c1/c2)(R/lam)^k <= cap <= 3^(k+1)(c2/c1)(R/lam)^k."""
    rows = []
    bad = 0
    up_const = 3.0 ** (k + 1) * c2 / c1
    lo_const = c1 / c2
    for R, lam, cap in profile.samples:
        q = (R / lam) ** k
        lo = lo_const * q
        up = up_const * q
        ok = lo <= cap <= up
        bad += 0 if ok else 1
        rows.append((R, lam, cap, lo, up, ok))
    return SandwichReport(rows, bad)


def hausdorff_content(s, k: float, R: float, delta: float) -> float:
    """Covering content of the ball B_R at scale delta: cover by delta-balls
    centered at a maximal delta-separated set (count = capacity) and return
    count * delta^k.  Callers bound it between 3^(k+1)(c2/c1) R^k and the
    capacity chain's c1^2/(3^(k+1) c2^2) R^k for fitted constants (c1, c2).
    """
    if not (0 < delta < R):
        raise ValueError("need 0 < delta < R")
    return capacity(s, R, delta) * delta**k


def box_dimension_fit(profile: CapacityProfile) -> float:
    """Least-squares slope of log cap against log(R/lam)."""
    if len(profile.samples) < 8:
        raise DegenerateRange("need at least 8 samples")
    x = np.log([R / lam for R, lam, _ in profile.samples])
    # float() first: a cap past int64 would make an object array np.log refuses
    y = np.log([float(cap) for _, _, cap in profile.samples])
    if x.max() - x.min() < math.log(10.0) / 2:
        raise DegenerateRange("R/lam span below half a decade")
    return line_fit(x, y)[0]
