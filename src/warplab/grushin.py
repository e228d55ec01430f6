"""Grushin halfplane targets and rescaling comparisons.

The halfplane dt^2 + t^(-4a) dw^2 on (0, inf) is the blow-down target of
the decaying-circle models: rescaling the cover metric by lambda through
t = r/lambda, w = v/lambda^(1+2a) turns the circle coefficient into

    h_eff(t) = lambda^(2a) h_s(lambda t)  ->  t^(-2a)   (lambda -> inf)

pointwise on stretches where h_s(r) = (1+r^2)^(-a); the closed form
(lambda^2/(1+lambda^2 t^2))^a lies below t^(-2a) and increases toward it,
so the coefficient error is one-sided and monotone.

Closeness is measured as the max relative distance error on a probe set
of supported pair classes: equal-w pairs (radial, exactly |t1-t2| in both
metrics) and equal-t pairs (symmetric Clairaut arcs started at t, not 0).
General pairs go to the grid oracle under an explicit budget.  Both sides
of a comparison integrate their arcs at one tolerance, the rel_tol of
GrushinMetric and of RescaledModel.build, which each hands its halfplane.
"""

import math
import random
from dataclasses import dataclass, field

from .halfplane import HalfplaneMetric, OutOfRange, TargetUnreachable, invert_arc
from .warping import HFrame, grushin_h


class UnsupportedPair(ValueError):
    """Pair outside the supported classes and the oracle budget."""


class WindowTooNarrow(ValueError):
    """Fewer than 3 rescaling factors fit the regime window."""


@dataclass(frozen=True)
class GrushinMetric:
    alpha: float
    rel_tol: float = 1e-9  # the arc tolerance of its halfplane

    def __post_init__(self):
        if self.alpha < 0.5:
            raise ValueError(f"decay exponent must be >= 1/2, got {self.alpha}")

    def halfplane(self, t_floor: float = 1e-3) -> HalfplaneMetric:
        return HalfplaneMetric.from_warping(
            grushin_h(self.alpha), domain_start=t_floor, r_cap=1e290, rel_tol=self.rel_tol
        )


@dataclass
class RescaledModel:
    """The cover metric viewed at scale lambda in a fixed decay regime: the
    halfplane of h_eff(t) = lambda^(2a) h_s(lambda t), read through h_s's
    log_h and frame (any h with both) by the chain rule, with arcs at rel_tol."""

    lam: float
    exponent: float  # decay exponent of the regime being compared
    window: tuple  # (t_lo, t_hi): image of the pure stretch under t = r/lambda
    h: object = field(repr=False)  # h_s
    rel_tol: float = 1e-9
    halfplane: HalfplaneMetric = field(init=False, repr=False)

    def __post_init__(self):
        self._log_scale = 2.0 * self.exponent * math.log(self.lam)
        self.halfplane = HalfplaneMetric(self, label=f"rescaled(lam={self.lam:g})",
                                         domain_start=0.0, r_cap=1e290, rel_tol=self.rel_tol)

    @staticmethod
    def build(h, lam: float, exponent: float, stretch: tuple,
              rel_tol: float = 1e-9) -> "RescaledModel":
        lo, hi = stretch
        return RescaledModel(float(lam), exponent, (lo / lam, hi / lam), h, rel_tol)

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


def _equal_t_distance(m: HalfplaneMetric, t: float, dw: float):
    """Symmetric arc between (t, w) and (t, w + dw), the arc from t with
    delta_v = |dw|: its length and turning radius."""
    dw = abs(float(dw))
    if dw == 0:
        return 0.0, t
    try:
        sol = invert_arc(m, "delta_v", dw, start=t)
    except TargetUnreachable as e:
        raise UnsupportedPair(f"cannot reach dw={dw} from t={t}") from e
    return sol.length, sol.r_max


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
        d, r_max = _equal_t_distance(m, float(t1), w2 - w1)
        return d, {"class": "equal-t", "r_max": r_max}
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


def grushin_distance(g: GrushinMetric, p1, p2, t_floor: float = 1e-3, **kw):
    """Distance in the Grushin halfplane for the supported pair classes.

    Computations run on t >= t_floor since the coefficient blows up at the
    axis; callers probing near the axis should vary t_floor and compare
    (sensitivity reporting), which the supported probe boxes never need.
    """
    return halfplane_distance(g.halfplane(t_floor), p1, p2, **kw)


def rescaled_distance(model: RescaledModel, p1, p2, **kw):
    """Distance in the lambda-rescaled cover metric (halfplane reduction),
    same solver and pair classes as the Grushin target."""
    return halfplane_distance(model.halfplane, p1, p2, **kw)


@dataclass
class ComparisonReport:
    lambdas: list
    max_rel_errors: list
    trend_decreasing: bool
    excluded: list = field(default_factory=list)  # (lam, pair) skipped

    def final_error(self):
        return self.max_rel_errors[-1]


def probe_pairs(rng, n_pairs: int, t_range=(0.2, 5.0), w_max: float = 5.0):
    """Half radial, half equal-t pairs inside the compact probe box, from
    scalar float draws rng.uniform(a, b) of a random.Random or a numpy
    Generator (whose two scalar draws are the values of one size=2 draw)."""
    pairs = []
    for i in range(n_pairs):
        if i % 2 == 0:
            t1, t2 = rng.uniform(*t_range), rng.uniform(*t_range)
            w = rng.uniform(-w_max, w_max)
            pairs.append(((t1, w), (t2, w)))
        else:
            t = rng.uniform(*t_range)
            w1, w2 = rng.uniform(-w_max, w_max), rng.uniform(-w_max, w_max)
            pairs.append(((t, min(w1, w2)), (t, max(w1, w2))))
    return pairs


def regime_lambda_range(stretch: tuple, t_range=(0.2, 5.0)) -> tuple:
    """Factors lambda for which the probe box sits inside the stretch image."""
    lo, hi = stretch
    lam_lo = lo / t_range[0] if lo > 0 else 1.0
    lam_hi = hi / t_range[1]
    return lam_lo, lam_hi


def convergence_report(
    h,
    exponent: float,
    stretch: tuple,
    lambdas,
    n_pairs: int = 20,
    seed: int = 1,
    rel_tol: float = 1e-9,
) -> ComparisonReport:
    """Max relative distance error of h's rescaled models against the Grushin
    target (one halfplane for every pair) per distinct rescaling factor, in
    increasing order, on a fixed probe set, with every arc of both sides at
    rel_tol; the trend flag allows 10% noise.

    Probe pairs whose comparison arc leaves the stretch image are excluded
    and recorded, not counted.
    """
    lambdas = sorted({float(x) for x in lambdas})  # a repeat would repeat its row
    if len(lambdas) < 3:
        raise WindowTooNarrow(f"need >= 3 distinct factors, got {len(lambdas)}")
    lam_lo, lam_hi = regime_lambda_range(stretch)
    usable = [x for x in lambdas if lam_lo <= x <= lam_hi]
    if len(usable) < 3:
        raise WindowTooNarrow(
            f"only {len(usable)} distinct factors fit the window [{lam_lo:g}, {lam_hi:g}]"
        )
    pairs = probe_pairs(random.Random(seed), n_pairs)
    target = GrushinMetric(exponent, rel_tol).halfplane()
    target_d = {}
    for p in pairs:
        try:
            target_d[p] = halfplane_distance(target, *p)[0]
        except (UnsupportedPair, OutOfRange):
            target_d[p] = None

    errs = []
    excluded = []
    for lam in usable:
        model = RescaledModel.build(h, lam, exponent, stretch, rel_tol)
        worst = 0.0
        for p in pairs:
            dt = target_d[p]
            if dt is None or dt == 0.0:
                continue
            try:
                dm, info = rescaled_distance(model, *p)
            except (UnsupportedPair, OutOfRange):
                excluded.append((lam, p))
                continue
            r_reach = info.get("r_max", max(p[0][0], p[1][0]))
            if r_reach > model.window[1]:
                excluded.append((lam, p))
                continue
            worst = max(worst, abs(dm - dt) / dt)
        errs.append(worst)
    trend = all(b <= a * 1.1 for a, b in zip(errs, errs[1:]))
    return ComparisonReport(usable, errs, trend, excluded)


def self_similarity_error(g: GrushinMetric, pairs, factor: float = 2.0):
    """Grushin cone property: d(s.p1, s.p2) = s d(p1, p2) under
    (t, w) -> (s t, s^(1+2a) w), on one halfplane of g.  Returns the max
    relative mismatch (NaN when no pair is compared) and the pairs
    excluded because a distance is unreachable, as convergence_report
    excludes them."""
    a = g.alpha
    m = g.halfplane()
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
