"""Grushin halfplane targets and rescaling comparisons.

The halfplane dt^2 + t^(-4a) dw^2 on (0, inf) is the blow-down target of
the decaying-circle models: rescaling the cover metric by lambda through
t = r/lambda, w = v/lambda^(1+2a) turns the circle coefficient into

    h_eff(t) = lambda^(2a) h_s(lambda t)  ->  t^(-2a)   (lambda -> inf)

pointwise on stretches where h_s(r) = (1+r^2)^(-a); the closed form
(lambda^2/(1+lambda^2 t^2))^a lies below t^(-2a) and increases toward it,
so the coefficient error is one-sided and monotone.

Closeness is measured as the max relative distance error on a probe set
of supported pair classes inside PROBE_BOX: equal-w pairs (radial,
exactly |t1-t2| in both metrics) and equal-t pairs (symmetric Clairaut
arcs started at t, not 0).  General pairs go to the grid oracle under an
explicit budget.  A comparison is configured by its GrushinMetric target:
convergence_report reads the exponent, the arc tolerance and the one
target halfplane from it, so both sides integrate their arcs at one
tolerance, and it picks the rescaling factors that fit the stretch.
"""

import functools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .halfplane import HalfplaneMetric, OutOfRange, TargetUnreachable, invert_arc
from .warping import HFrame, grushin_h

PROBE_BOX = (0.2, 5.0, 5.0)  # probe pairs lie in t_lo < t < t_hi, |w| <= w_max


class UnsupportedPair(ValueError):
    """Pair outside the supported classes and the oracle budget."""


class WindowTooNarrow(ValueError):
    """The stretch holds neither 3 configured factors nor 3 refit ones."""


@dataclass(frozen=True)
class GrushinMetric:
    alpha: float
    rel_tol: float = 1e-9  # the arc tolerance of its halfplane
    t_floor: float = 1e-3  # its halfplane starts here: the coefficient blows up at the axis

    def __post_init__(self):
        if self.alpha < 0.5:
            raise ValueError(f"decay exponent must be >= 1/2, got {self.alpha}")

    @functools.cached_property
    def halfplane(self) -> HalfplaneMetric:
        """The target halfplane on t >= t_floor, built once per metric.
        PROBE_BOX stays clear of the axis; a caller probing near it compares
        two floors (the grid oracle's floor_sensitivity)."""
        return HalfplaneMetric.from_warping(grushin_h(self.alpha), domain_start=self.t_floor,
                                            rel_tol=self.rel_tol)


@dataclass
class RescaledModel:
    """The cover metric viewed at scale lambda in a fixed decay regime: the
    halfplane of h_eff(t) = lambda^(2a) h_s(lambda t), read through h_s's
    log_h and frame (any h with both) by the chain rule, with arcs at rel_tol."""

    h: object = field(repr=False)  # h_s
    lam: float
    exponent: float  # decay exponent of the regime being compared
    stretch: tuple  # (r_lo, r_hi): the pure stretch of h_s
    rel_tol: float = 1e-9
    window: tuple = field(init=False)  # (t_lo, t_hi): the stretch under t = r/lambda
    halfplane: HalfplaneMetric = field(init=False, repr=False)

    def __post_init__(self):
        self.lam = float(self.lam)
        lo, hi = self.stretch
        self.window = (lo / self.lam, hi / self.lam)
        self._log_scale = 2.0 * self.exponent * math.log(self.lam)
        self.halfplane = HalfplaneMetric(self, label=f"rescaled(lam={self.lam:g})",
                                         rel_tol=self.rel_tol)

    def log_h(self, t) -> float:
        """log h_eff at a double t."""
        return self._log_scale + self.h.log_h(self.lam * t)

    def frame(self, t) -> HFrame:
        """The exponent frame of h_eff in y = log(1+t^2), at a double or a
        float64 array t: with r = lambda t and k = dy_r/dy_t =
        lambda^2 (1+t^2)/(1+lambda^2 t^2), p_t = k p_r and
        p_y,t = k (k p_y,r + p_r (1 - lambda^2)/(1 + lambda^2 t^2))."""
        fr = self.h.frame(self.lam * t)
        il2 = 1.0 / (self.lam * self.lam)
        den = il2 + t * t  # (1 + lambda^2 t^2)/lambda^2
        k = (1.0 + t * t) / den
        return HFrame(self._log_scale + fr.log_h, k * fr.p,
                      k * (k * fr.p_y + fr.p * (il2 - 1.0) / den))


def halfplane_distance(
    m: HalfplaneMetric,
    p1,
    p2,
    oracle_budget: int | None = None,
    oracle_r_hi: float | None = None,
):
    """Distance between supported pair classes on a halfplane metric.

    equal-w pairs: |t1 - t2| exactly (the radial segment is a geodesic).
    equal-t pairs: symmetric Clairaut arc.
    general pairs: grid oracle within the given budget, else UnsupportedPair.
    Returns (distance, info dict).
    """
    (t1, w1), (t2, w2) = p1, p2
    if t1 == t2 and w1 == w2:
        return 0.0, {"class": "identical"}
    if w1 == w2:
        return abs(t1 - t2), {"class": "radial"}
    if t1 == t2:
        # the arc from t with delta_v = |dw|: its length and turning radius
        try:
            sol = invert_arc(m, "delta_v", abs(float(w2 - w1)), start=float(t1))
        except TargetUnreachable as e:
            raise UnsupportedPair(f"cannot reach dw={abs(w2 - w1)} from t={t1}") from e
        return sol.length, {"class": "equal-t", "r_max": sol.r_max}
    if oracle_budget is None:
        raise UnsupportedPair(f"general pair {p1}-{p2} without an oracle budget")
    from .gridpath import dijkstra_distance_oracle  # loaded only by runs that reach it

    r_hi = oracle_r_hi or 2.5 * max(t1, t2, 1.0)
    res = dijkstra_distance_oracle(
        m, p1, p2, r_hi=r_hi, r_lo=m.domain_start, edge_budget=oracle_budget
    )
    info = {"class": "oracle", "result": res}
    if m.domain_start > 0:
        # axis-floor sensitivity: rerun with the excluded band doubled, unless
        # that band would exclude an endpoint
        r_lo2 = 2.0 * m.domain_start
        info["floor_sensitivity"] = math.nan
        if min(t1, t2) >= r_lo2:
            res2 = dijkstra_distance_oracle(
                m, p1, p2, r_hi=r_hi, r_lo=r_lo2, edge_budget=oracle_budget
            )
            info["floor_sensitivity"] = abs(res.relaxed - res2.relaxed)
    return res.relaxed, info


def grushin_distance(g: GrushinMetric, p1, p2, **kw):
    """Distance in the Grushin halfplane (g's, on t >= g.t_floor) for the
    supported pair classes."""
    return halfplane_distance(g.halfplane, p1, p2, **kw)


@dataclass
class ComparisonReport:
    lambdas: list
    max_rel_errors: list  # NaN at a factor where no pair was compared
    trend_decreasing: bool
    excluded: list = field(default_factory=list)  # (lam, pair) skipped
    refit: str | None = None  # why the factors are not the configured ones

    def final_error(self):
        return self.max_rel_errors[-1]


def probe_pairs(rng, n_pairs: int):
    """Half radial, half equal-t pairs inside PROBE_BOX, from scalar float
    draws rng.uniform(a, b) of a random.Random or a numpy Generator (whose
    two scalar draws are the values of one size=2 draw)."""
    t_lo, t_hi, w_max = PROBE_BOX
    pairs = []
    for i in range(n_pairs):
        if i % 2 == 0:
            t1, t2 = rng.uniform(t_lo, t_hi), rng.uniform(t_lo, t_hi)
            w = rng.uniform(-w_max, w_max)
            pairs.append(((t1, w), (t2, w)))
        else:
            t = rng.uniform(t_lo, t_hi)
            w1, w2 = rng.uniform(-w_max, w_max), rng.uniform(-w_max, w_max)
            pairs.append(((t, min(w1, w2)), (t, max(w1, w2))))
    return pairs


def convergence_report(h, target: GrushinMetric, stretch: tuple, lambdas, n_pairs: int = 20,
                       seed: int = 1) -> ComparisonReport:
    """Max relative distance error of h's rescaled models against target's
    halfplane, at target's exponent and arc tolerance, per rescaling factor
    in increasing order, on a fixed probe set; the trend flag allows 10%
    noise.

    The factors are the distinct ones of lambdas for which PROBE_BOX sits
    inside the stretch image.  When fewer than 3 fit, three geometric ones
    from max(lam_lo, 2) to lam_hi replace them and `refit` says so;
    WindowTooNarrow when the stretch holds no such three.  A probe pair
    without a target distance, or whose comparison arc leaves the stretch
    image, is excluded and recorded at its factor, not counted.
    """
    t_lo, t_hi, _ = PROBE_BOX
    lo, hi = stretch
    lam_lo, lam_hi = (lo / t_lo if lo > 0 else 1.0), hi / t_hi
    usable = sorted({float(x) for x in lambdas if lam_lo <= x <= lam_hi})
    refit = None
    if len(usable) < 3:
        if not max(lam_lo, 2.0) < lam_hi < math.inf:
            raise WindowTooNarrow(f"{len(usable)} distinct factors fit the window "
                                  f"[{lam_lo:g}, {lam_hi:g}], which holds no 3 refit ones")
        usable = np.geomspace(max(lam_lo, 2.0), lam_hi, 3).tolist()
        refit = f"configured factors outside [{lam_lo:g}, {lam_hi:g}]"
    pairs = probe_pairs(random.Random(seed), n_pairs)
    target_d = {}
    for p in pairs:
        try:
            target_d[p] = halfplane_distance(target.halfplane, *p)[0]
        except (UnsupportedPair, OutOfRange):
            target_d[p] = None

    errs = []
    excluded = []
    for lam in usable:
        model = RescaledModel(h, lam, target.alpha, stretch, target.rel_tol)
        worst, compared = 0.0, 0
        for p in pairs:
            dt = target_d[p]
            if dt is None:
                excluded.append((lam, p))
                continue
            if dt == 0.0:
                continue
            try:
                dm, info = halfplane_distance(model.halfplane, *p)
            except (UnsupportedPair, OutOfRange):
                excluded.append((lam, p))
                continue
            r_reach = info.get("r_max", max(p[0][0], p[1][0]))
            if r_reach > model.window[1]:
                excluded.append((lam, p))
                continue
            compared += 1
            worst = max(worst, abs(dm - dt) / dt)
        errs.append(worst if compared else math.nan)
    trend = all(b <= a * 1.1 for a, b in zip(errs, errs[1:]))
    return ComparisonReport(usable, errs, trend, excluded, refit)


def self_similarity_error(g: GrushinMetric, pairs, factor: float = 2.0):
    """Grushin cone property: d(s.p1, s.p2) = s d(p1, p2) under
    (t, w) -> (s t, s^(1+2a) w), on g's halfplane.  Returns the max
    relative mismatch (NaN when no pair is compared) and the pairs
    excluded because a distance is unreachable, as convergence_report
    excludes them."""
    a = g.alpha
    m = g.halfplane
    s = factor
    worst, compared, excluded = 0.0, 0, []
    for p1, p2 in pairs:
        q1 = (s * p1[0], s ** (1.0 + 2.0 * a) * p1[1])
        q2 = (s * p2[0], s ** (1.0 + 2.0 * a) * p2[1])
        try:
            d1 = halfplane_distance(m, p1, p2)[0]
            d2 = halfplane_distance(m, q1, q2)[0]
        except (UnsupportedPair, OutOfRange):
            excluded.append((p1, p2))
            continue
        if d1 > 0:
            compared += 1
            worst = max(worst, abs(d2 - s * d1) / (s * d1))
    return (worst if compared else math.nan), excluded
