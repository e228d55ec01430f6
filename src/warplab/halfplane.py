"""Clairaut geodesics on the halfplane dr^2 + h(r)^2 dv^2.

For strictly decreasing h, a geodesic with Clairaut constant c (= h^2 v' in
arclength) rises from its start radius a to the unique turning radius r_max
with h(r_max) = c and returns symmetrically, accumulating

    delta_v  = (2/c) int_a^{r_max} rho^2 / sqrt(1 - rho^2) dr
    length   = 2 int_a^{r_max} 1 / sqrt(1 - rho^2) dr,

rho = c/h.  h is read only in log form, through the model's log reader
r -> log h and its exponent frame (log h, p, p_y) with p = -d log h/dy,
y = log(1+r^2): rho^2 = exp(2(log c - log h)) and 1 - rho^2 =
-expm1(2(log c - log h)), which neither underflow nor cancel where h
leaves the double range.  An arc is named by its turning radius and
carries log c = log h(r_max) and log delta_v = log(2 I) - log c, I the
integral above (about r_max in size), valid where c and delta_v are no
doubles; only GeodesicSolution.delta_v asks for a double.

Panels split at the model's structural breakpoints and switch to
log-radius on wide spans.  The turning panel [a, r_max] removes the 1/sqrt
singularity at r_max by t = sqrt(r_max - r) where the local decay exponent
p of h at r_max is at least 3/4, else by the graded w in [0, 1] with

    r = r_max - L w^2 (6 - 8w + 3w^2),    dr = -12 L w (1-w)^2 dw,

L = r_max - a, whose cubic start lifts the branch point (T - t)^(4p) of a
stretch h ~ r^(-2p) to order about 12p + 2.  Close to r_max log h - log c
comes from a second-order Taylor model with p and p_y of the frame there.
The turning panel runs through the in-repo QAG of `numerics` (relative
HalfplaneMetric.rel_tol, 1e-9 by default, absolute floor 1e-12 on the
quantity, 0 on I past the double range of c), so an arc of one panel has
the whole budget there.  The other panels, from r_max back to the start,
share rel_tol times the arc's value: each gets max(floor, rel_tol |running
total| / (panels - 1)).  As h decreases, rho^2 <= rho^2(b) on a panel
[a, b], so one read of log h(b) brackets its integral: delta_v's lies in
[0, (b - a) rho^2(b)/sqrt(1 - rho^2(b))], length's within
(b - a)(1/sqrt(1 - rho^2(b)) - 1) above b - a.  A panel whose bracket,
twice its width, fits its budget takes the midpoint and no Kronrod rule;
the others run QAG with the budget as the absolute tolerance.  Every panel's
integrand stays bounded at its ends, so QAG needs no extrapolation.

Covering-space distances d_l between a point on the axis and its l-th deck
translate (period 2*pi in v) solve delta_v = 2*pi*l; counts
solve length = R.  invert_arc runs brentq on log(r_max - a), solving no
turning radius, and integrates only the other quantity at the root.  A
distance takes its bracket from two adjacent rows of the strict
delta_v-increase scan that guards it (verify_delta_v_monotone); other
targets take Newton steps.  The axis line v -> (0, v) is itself a geodesic
when h'(0) = 0, so the straight candidate 2*pi*l*h(0) competes in the
minimum.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .numerics import brentq, quad
from .warping import LOG_DOUBLE_MAX

TWO_PI = 2.0 * math.pi
# QAG's absolute floor and panel budget, the relative stop of turning-radius
# solves, and the Taylor gap model's reach (times max(r_max, 1))
_ABS_FLOOR, _LIMIT, _TURNING_REL, _TAYLOR_FRAC = 1e-12, 400, 1e-12, 3e-6
# brentq's stop in x = log(r_max - start): delta_v's quadrature at rel_tol
# 1e-9 jitters by a few 1e-12 relative, which a finer stop would chase
_XTOL = 1e-11
# Turning panels whose local decay exponent at r_max lies below this take the
# graded map w, the others t.  QK21 rules per arc on h = (1+r^2)^(-p) from
# the axis (delta_v and length at 75 log-spaced c in [1e-12, 0.9]):
#   p  0.1   0.3   0.6   0.7   0.74  0.75  0.76  0.8   0.9   1     1.5   3
#   t  32.1  14.0  5.48  3.77  2.20  1.48  2.21  2.88  2.73  1.00  1.00  2.63
#   w  2.23  1.48  1.23  1.21  1.99  2.04  2.07  2.84  2.91  2.11  2.91  3.63
# Below 3/4 the graded map needs far fewer rules; from there on the two are
# within a few per cent, or t (at the integer powers 4p) needs fewer.  The
# bound sits 1e-9 below 3/4, past the rounding of the exponent estimate, so
# a stretch of p = 3/4 exactly keeps t, whose start (T - t)^3 is analytic.
_GRADED_BELOW = 0.75 - 1e-9
# A graded panel of span L from a squeezes the scale s = max(a, 1) of h at
# its start (the r ~ 1 knee of (1+r^2)^(-p) from the axis) into
# 1 - w < (s/4L)^(1/3).  Below s/L = _KNEE_BELOW that is 1 - w < 0.03, inside
# the third Kronrod node from the end, where the 10- and 21-point rules can
# miss the knee alike and QAG stops under the true error.  There, and where
# the knee holds a share (s/L)^(1+4p) of the panel above 1 % of rel_tol, the
# stretch [a, a + s] gets its own interval in w.  Worst relative error of an
# arc against the 30-digit oracle (1,440 arcs, p in [0.05, 0.72]), without
# and with it: p = 0.1 8.8e-10 -> 1.1e-10, 0.15 2.2e-10 -> 3.8e-11,
# 0.25 1.4e-10 -> 5.5e-11, others unchanged.  From p = 0.44 on the share
# stays below 1e-11, so a metric at the default rel_tol never splits there.
_KNEE_BELOW = 1e-4
# A panel before the turning panel whose integral's bracket from rho^2 at its
# end, times this margin (past the few-ulp rounding of log h - log c), fits
# its share of the arc's budget takes the bracket's midpoint, no quadrature
_BOUND_MARGIN = 2.0
# the strict-decrease scan's number of c samples, and how far below sup h it starts
_SCAN_N = 200
_SCAN_C_HI_FRAC = 1e-6


class OutOfRange(ValueError):
    """Clairaut constant outside (inf h, sup h) over the represented domain,
    or a delta_v past the double range."""


class QuadratureFailure(RuntimeError):
    """Adaptive refinement stalled above tolerance."""


class TargetUnreachable(RuntimeError):
    """No bracket for the requested quantity; `overshoot` when even the
    shortest arc tried exceeds the target, so no arc from the start has it."""

    def __init__(self, msg, overshoot=False):
        super().__init__(msg)
        self.overshoot = overshoot


class DeltaVNotMonotone(RuntimeError):
    """delta_v(c) failed the per-model strict-decrease scan."""


class ArcBoundViolation(AssertionError):
    """An arc shorter than a lower bound (past 1e-9 relative slack): wrong
    arc integrals.  args: (the bound's name, the GeodesicSolution, bound)."""

    def __str__(self):
        what, sol, bound = self.args
        return (f"arc from {sol.start!r} turning at r_max={sol.r_max!r} shorter than {what}: "
                f"length {sol.length!r} < {bound!r}")


class HalfplaneMetric:
    """Positive strictly decreasing circle coefficient on [start, r_cap].

    h is read in log form: h.log_h(r) at a double r, and h.frame(r), the
    exponent frame at a double or a float64 array of radii (a SmoothedH, a
    WarpingFunction with a log reader, or a RescaledModel).  rel_tol is every
    arc quadrature's relative tolerance, RunConfig.quad_rel_tol in a run.
    """

    def __init__(self, h, label="halfplane", domain_start=0.0, r_cap=1e290, breakpoints=(),
                 rel_tol=1e-9):
        if getattr(h, "log_h", None) is None:
            raise ValueError(f"{label} has no log reader")
        self.log_h = h.log_h  # double r -> log h(r)
        self.frame = h.frame  # the exponent frame at a double or a float64 array
        self.label = label
        self.domain_start = float(domain_start)
        self.r_cap = float(r_cap)
        self.breakpoints = sorted(float(b) for b in breakpoints)
        self.rel_tol = float(rel_tol)
        # the strict-decrease scan's rows, stored once the scan passed
        self._scan = None
        # arc integrals by (r_max, start, dv): a deterministic function of its
        # key on this metric, so a stored number has the bits a new
        # quadrature would give
        self._arcs = {}

    def value(self, r):
        """h(r) as a double, exp(log h)."""
        return math.exp(self.log_h(r))

    def sup_h(self):
        """h at the domain start: the supremum over the represented domain."""
        return self.value(self.domain_start)

    @staticmethod
    def from_warping(w, **kw):
        kw.setdefault("label", w.label)
        return HalfplaneMetric(w, **kw)

    @staticmethod
    def from_smoothed(sm, **kw):
        kw.setdefault("label", "smoothed-h")
        kw.setdefault("breakpoints", sm.breakpoints_float())
        return HalfplaneMetric(sm, **kw)


def solve_turning_point(m: HalfplaneMetric, c: float):
    """Unique r_max with h(r_max) = c (h strictly decreasing)."""
    a = m.domain_start
    l_top = m.log_h(a)
    if not (0 < c and math.log(c) < l_top):
        raise OutOfRange(f"need 0 < c < h(start)={math.exp(l_top)}, got c={c}")
    lc = math.log(c)
    lo = a
    hi = max(1.0, 2.0 * a if a > 0 else 1.0)
    while m.log_h(hi) > lc:
        lo = hi
        hi *= 4.0
        if hi > m.r_cap:
            raise OutOfRange(f"h never reaches {c} below r_cap={m.r_cap}")
    if hi <= 2.0:
        return brentq(lambda r: m.log_h(r) - lc, lo, hi, xtol=1e-15, rtol=8.9e-16)
    lo = max(lo, hi / 8.0, 1e-300)
    s = brentq(
        lambda s: m.log_h(math.exp(s)) - lc,
        math.log(lo) - 1e-9,
        math.log(hi) + 1e-9,
        xtol=_TURNING_REL / 2,
        rtol=8.9e-16,
    )
    return math.exp(s)


@dataclass
class GeodesicSolution:
    log_c: float
    r_max: float
    log_delta_v: float
    length: float
    start: float = 0.0

    def __post_init__(self):
        # c delta_v = 2 I, which the length 2 int 1/sqrt(1 - rho^2) exceeds
        bound = math.exp(self.log_c + self.log_delta_v)
        if self.length < bound * (1 - 1e-9):
            raise ArcBoundViolation("its v-displacement lower bound c delta_v", self, bound)
        bound = 2.0 * (self.r_max - self.start)
        if self.length < bound * (1 - 1e-9):
            raise ArcBoundViolation("twice its radial rise", self, bound)

    @property
    def delta_v(self) -> float:
        if not self.log_delta_v < LOG_DOUBLE_MAX:
            raise OutOfRange(f"delta_v = exp({self.log_delta_v:.6g}) is past the double range")
        return math.exp(self.log_delta_v)


def _arc_panels(m, start, r_max):
    """Split [start, r_max] at structural breakpoints, at least one panel;
    the final panel owns the turning point."""
    sliver = 1e-12 * max(r_max, 1.0)
    out = [start]
    for b in m.breakpoints:
        if start < b < r_max * (1 - 1e-12) and b - out[-1] > sliver:
            out.append(b)
    # a breakpoint a sliver below r_max joins the turning panel
    if len(out) > 1 and r_max - out[-1] <= sliver:
        out.pop()
    out.append(r_max)
    return out


def _quad_panel(f, a, b, rel_tol, floor):
    # the in-repo QAG (numerics.quad); the caller enforces its own error
    # budget on the summed abserr
    out = quad(f, a, b, epsabs=floor, epsrel=rel_tol, limit=_LIMIT)
    return out[0], out[1]


def _integrate_arc(m, r_max, start, dv):
    """log delta_v (dv) or length of the arc from start turning at r_max,
    memoized, by panelled quadrature of rho^2/sqrt(1 - rho^2) or
    1/sqrt(1 - rho^2) with log c = log h(r_max).

    The turning panel works in delta = r_max - r, exact in floats where
    r_max - delta rounds back to r_max; a graded panel that squeezes h's
    scale at its start below _KNEE_BELOW integrates that stretch apart.
    """
    start = m.domain_start if start is None else float(start)
    if r_max <= start:
        return -math.inf if dv else 0.0
    # a QuadratureFailure raises before the store, so a failed arc fails again
    key = (r_max, start, dv)
    value = m._arcs.get(key)
    if value is None:
        value = m._arcs[key] = _arc_quadrature(m, start, r_max, dv)
    return value


def _turning_model(m, r):
    """(p, b1, b2) at a turning radius r from the frame there: p the local
    decay exponent, and log h(r - delta) - log h(r) = (b1 + b2 u) u +
    O(u^3), u = delta / max(r, 1)."""
    fr = m.frame(r)
    p, p_y = float(fr.p), float(fr.p_y)
    s = max(r, 1.0)
    gs = 2.0 / (r + 1.0 / r) * s  # s dy/dr
    # with g = dy/dr: d log h/dr = -p g, d^2 log h/dr^2 = -(p_y g^2 + p g'),
    # and g' = g (1/r - g)
    return p, p * gs, -0.5 * (p_y * gs * gs + p * gs * (s / r - gs))


def _arc_quadrature(m, start, r_max, dv):
    sqrt, exp, expm1 = math.sqrt, math.exp, math.expm1
    log_h, rel_tol = m.log_h, m.rel_tol
    lc = m.log_h(r_max)
    p, b1, b2 = _turning_model(m, r_max)
    scale = max(r_max, 1.0)
    delta_switch = _TAYLOR_FRAC * scale
    graded = p < _GRADED_BELOW

    # integrand_r in r, integrand_s in s = log r (times r), integrand_t in
    # x = t = sqrt(r_max - r), or in the graded x = w, both of which remove
    # the endpoint singularity; e = 2(log c - log h) = log rho^2, and the
    # weight rho^2 = exp(e) is delta_v's (times c/2), 1 is length's (/2).
    # Each quantity's operation order is part of its arc bits: the s-form
    # keeps exp(e)/sqrt(q)*r and r/sqrt(q), which round differently
    def integrand_r(r):
        e = 2.0 * (lc - log_h(r))
        return (exp(e) if dv else 1.0) / sqrt(-expm1(e))

    def integrand_s(s):
        r = exp(s)
        e = 2.0 * (lc - log_h(r))
        if dv:
            return exp(e) / sqrt(-expm1(e)) * r
        return r / sqrt(-expm1(e))

    def integrand_t(x):
        if graded:
            u = 1.0 - x
            delta = span * x * x * (6.0 - 8.0 * x + 3.0 * x * x)
            jac = 12.0 * span * x * u * u
        else:
            delta = x * x
            jac = 2.0 * x
        if delta <= delta_switch:
            u = delta / scale
            e = -2.0 * (b1 + b2 * u) * u
        else:
            e = 2.0 * (lc - log_h(r_max - delta))
        return (jac * exp(e) if dv else jac) / sqrt(-expm1(e))

    # the absolute floor is on the quantity, and delta_v = (2/c) total
    floor = _ABS_FLOOR * exp(lc) if dv else _ABS_FLOOR
    panels = _arc_panels(m, start, r_max)
    a = panels[-2]
    span = r_max - a
    if not graded:
        total, err_total = _quad_panel(integrand_t, 0.0, math.sqrt(span), rel_tol, floor)
    else:
        knee = max(a, 1.0) / span
        if knee < _KNEE_BELOW and knee ** (1.0 + 4.0 * p) > 0.01 * rel_tol:
            # the knee, about [a, a + max(a, 1)], gets its own interval
            wk = 1.0 - (0.25 * knee) ** (1.0 / 3.0)
            total, err_total = _quad_panel(integrand_t, 0.0, wk, rel_tol, floor)
            vk, ek = _quad_panel(integrand_t, wk, 1.0, rel_tol, floor)
            total += vk
            err_total += ek
        else:
            total, err_total = _quad_panel(integrand_t, 0.0, 1.0, rel_tol, floor)
    # the other panels, from r_max back to the start, share rel_tol |total|
    rest = len(panels) - 2
    for a, b in zip(panels[-3::-1], panels[-2:0:-1]):
        budget = max(floor, rel_tol * abs(total) / rest)
        # h decreases, so rho^2 <= rho^2(b) on [a, b]: delta_v's integrand
        # lies in [0, rho^2(b)/s] and length's in [1, 1/s], s = sqrt(1 -
        # rho^2(b)) and 1/s - 1 = rho^2(b)/(s (1 + s)); the panel's integral
        # lies in [lo, lo + width]
        e = 2.0 * (lc - log_h(b))
        q = -expm1(e)
        s = sqrt(q) if q > 0 else 0.0
        lo = 0.0 if dv else b - a
        width = (b - a) * exp(e) / (s if dv else s * (1.0 + s)) if s > 0 else math.inf
        if _BOUND_MARGIN * width < budget:
            v, err = lo + 0.5 * width, 0.5 * _BOUND_MARGIN * width
        elif a > 0 and b / a >= 8.0:
            v, err = _quad_panel(integrand_s, math.log(a), math.log(b), rel_tol, budget)
        else:
            v, err = _quad_panel(integrand_r, a, b, rel_tol, budget)
        total += v
        err_total += err
    if err_total > max(floor, 100.0 * rel_tol * abs(total)):
        raise QuadratureFailure(
            f"estimated error {err_total} vs value {total} (log c={lc}, r_max={r_max})"
        )
    return math.log(2.0 * total) - lc if dv else 2.0 * total


def delta_v_of_c(m: HalfplaneMetric, r_max: float, start: float | None = None) -> float:
    """log delta_v of the arc from start turning at r_max (increasing in
    r_max; -inf where r_max <= start)."""
    return _integrate_arc(m, r_max, start, dv=True)


def length_of_c(m: HalfplaneMetric, r_max: float, start: float | None = None) -> float:
    """Length of the arc from start turning at r_max (increasing in r_max)."""
    return _integrate_arc(m, r_max, start, dv=False)


def verify_delta_v_monotone(m: HalfplaneMetric):
    """Scan delta_v at _SCAN_N turning radii, log-spaced in r_max - start
    from the turning radius of (1 - _SCAN_C_HI_FRAC) sup h to min(r_cap/4,
    1e60), and require strict increase (1e-10 relative slack);
    failures abort distance queries rather than let root-finding run on a
    false premise.

    Returns the rows (x, r_max, log delta_v), r_max = start + exp(x), x and
    delta_v increasing; once per metric.  orbit_distance brackets its
    inversions between adjacent rows.
    """
    if m._scan is not None:
        return m._scan
    a = m.domain_start
    r_lo = solve_turning_point(m, m.sup_h() * (1.0 - _SCAN_C_HI_FRAC))
    r_hi = min(m.r_cap / 4.0, 1e60)
    if not (r_lo < r_hi):
        raise DeltaVNotMonotone("degenerate turning-radius range for monotonicity scan")
    rows = []
    prev = None
    # r_max = a + exp(x) is the radius that invert_arc's y(x) asks the memo for
    for x in np.linspace(math.log(r_lo - a), math.log(r_hi - a), _SCAN_N).tolist():
        r_max = a + math.exp(x)
        ldv = delta_v_of_c(m, r_max, a)
        if prev is not None and not (ldv > prev + math.log1p(-1e-10)):
            raise DeltaVNotMonotone(f"log delta_v falls at r_max={r_max}: {ldv} after {prev}")
        prev = ldv
        rows.append((x, r_max, ldv))
    m._scan = tuple(rows)
    return m._scan


def invert_arc(m: HalfplaneMetric, quantity: str, target: float, start: float | None = None,
               scan=()) -> GeodesicSolution:
    """The symmetric arc from `start` whose `quantity` ("delta_v" or
    "length", both increasing in the turning radius) equals target.

    The search runs in x = log(r_max - start) on y = log(q/target).  A
    delta_v target from the domain start that two adjacent rows of `scan`
    (verify_delta_v_monotone's on m) bracket takes that
    bracket, any other _newton_bracket's.  brentq closes it at _XTOL.  Each
    y(x) reads the arc turning at r_max = start + exp(x), which the metric's
    arc memo answers on a repeat, and only the other quantity is integrated
    at the root.
    """
    a = m.domain_start if start is None else float(start)
    # names read per call, so wrappers installed on this module see every evaluation
    solve, other = {"delta_v": (delta_v_of_c, length_of_c),
                    "length": (length_of_c, delta_v_of_c)}[quantity]
    by_dv = quantity == "delta_v"
    log_target = math.log(target)
    l_top = m.log_h(a)

    def y(x):
        r = a + math.exp(x)
        if not m.log_h(r) < l_top:
            raise OutOfRange(f"h({r!r}) is not below h({a!r})")
        q = solve(m, r, a)
        return q - log_target if by_dv else math.log(q / target)

    bracket = None
    if scan and by_dv and a == m.domain_start:
        bracket = _scan_bracket(scan, log_target, y)
    if bracket is None:
        bracket = _newton_bracket(m, quantity, target, a, y)
    lo, hi = bracket
    x_star = lo if lo == hi else brentq(y, lo, hi, xtol=_XTOL, rtol=8.9e-16)
    # brentq returns an evaluated point, so the arc memo answers q
    r_max = a + math.exp(x_star)
    q, q_other = solve(m, r_max, a), other(m, r_max, a)
    ldv, ln = (q, q_other) if by_dv else (q_other, q)
    return GeodesicSolution(m.log_h(r_max), r_max, ldv, ln, start=a)


def _scan_bracket(scan, log_target, y):
    """(lo, hi) from the adjacent scan rows whose log delta_v straddle
    log_target, or None when there is no such pair; the arc memo holds both
    rows' arcs."""
    i = bisect.bisect_left(scan, log_target, key=lambda row: row[2])
    if not 0 < i < len(scan):
        return None
    lo, hi = scan[i - 1][0], scan[i][0]
    if not y(lo) <= 0 <= y(hi):
        return None
    return lo, hi


def _newton_bracket(m, quantity, target, a, y):
    """(lo, hi), the nearest x with y <= 0 and with y >= 0, from Newton steps
    in (x, y) = (log(r_max - a), log(q/target)) from r_max = target/2 until
    a short step brackets the root.  r_max - a stays in [1e-9 max(a, 1),
    r_cap/4 - a].  The slope is the secant's over a short step, else the
    model's at q = p r^2/(1+r^2), h ~ r^(-2q) locally: delta_v grows like
    r^(1+2q), length like r, and both like sqrt(r_max - a) past a later
    start.  From the axis delta_v flattens where log h(0) - log h(r) has
    order b = 2 in r (h'(0) = 0) and grows like sqrt(r) where b = 1: the
    slope takes the factor 1 - (b/2)/(1+r^2).  TargetUnreachable when a
    clamp end gives no sign change.
    """
    x_lo = math.log(1e-9 * max(a, 1.0))
    x_hi = math.log(m.r_cap / 4.0 - a)
    b = 0.0  # from the axis: r g'/g at r = 1e-4, g = log h(0) - log h(r)
    gap = m.log_h(0.0) - m.log_h(1e-4) if quantity == "delta_v" and a == 0.0 else 0.0
    if gap > 0:
        b = min(2e-8 * _turning_model(m, 1e-4)[0] / (1.0 + 1e-8) / gap, 2.0)

    def clamp(x):
        return min(max(x, x_lo), x_hi)

    x = clamp(math.log(max(target / 2.0 - a, 1e-9 * max(a, 1.0))))
    fx = y(x)
    lo, hi = -math.inf, math.inf
    x_prev = f_prev = None
    for _ in range(100):
        lo, hi = (max(lo, x) if fx <= 0 else lo), (min(hi, x) if fx >= 0 else hi)
        near = x_prev is not None and abs(x - x_prev) < 0.5
        if lo == hi or (near and math.isfinite(lo) and math.isfinite(hi)):
            break
        # the secant over a short step, else the local-exponent slope, which a
        # long step (spanning other regimes) would average away
        slope = (fx - f_prev) / (x - x_prev) if near else 0.0
        if not (slope > 0 and math.isfinite(slope)):
            r = a + math.exp(x)
            p = _turning_model(m, r)[0]
            s = r / (r + 1.0 / r)  # r^2/(1+r^2)
            q = p * s if math.isfinite(p) and p > 0 else 0.0
            slope = 0.5 + (0.5 + 2.0 * q * (quantity == "delta_v")) * ((r - a) / r)
            slope *= 1.0 - 0.5 * b + 0.5 * b * s
        # overshoot the Newton root a little, so steps cross it instead of
        # creeping up on it from one side
        step = -fx / slope
        x_new = x + 1.001 * step + math.copysign(1e-9, step)
        if math.isfinite(lo) and math.isfinite(hi) and not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        x_new = clamp(x_new)
        if x_new == x:
            break  # pinned at a clamp end
        x_prev, f_prev = x, fx
        x, fx = x_new, y(x_new)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise TargetUnreachable(f"no arc with {quantity}={target} on {m.label} "
                                f"(last r_max={a + math.exp(x):.6g})", overshoot=x == x_lo and fx > 0)
    return lo, hi


def orbit_distance(m: HalfplaneMetric, l: int | float):
    """Distance between an axis point and its l-th deck translate.

    Returns (d_l, solution) where solution is the Clairaut arc (None if the
    straight axis loop 2*pi*l*h(0) wins, which only happens for tiny l),
    behind the metric's strict delta_v-increase scan, which a constant h
    fails with OutOfRange."""
    if l == 0:
        return 0.0, None
    l = abs(l)
    scan = verify_delta_v_monotone(m)
    target = TWO_PI * float(l)
    h0 = m.sup_h()
    straight = target * h0 if math.isfinite(h0) else math.inf
    try:
        sol = invert_arc(m, "delta_v", target, scan=scan)
    except (TargetUnreachable, OutOfRange) as e:
        # the axis line is the only candidate when no arc has this displacement:
        # h flat in doubles where the search looks, or every arc overshoots it
        if isinstance(e, TargetUnreachable) and not e.overshoot:
            raise OutOfRange(f"d_{l} needs an arc past the Newton clamp") from e
        if math.isfinite(straight):
            return straight, None
        raise
    if straight < sol.length:
        return straight, None
    return sol.length, sol


def axis_count_at_radius(m: HalfplaneMetric, R: float):
    """max { l >= 0 : d_l <= R } via the turning-parameter inversion, for
    R >= d_1 (orbits.OrbitTable.ball_index answers 0 below its d_1).

    Arc length and delta_v both increase with the turning radius, so the
    threshold index is delta_v/(2 pi) of the arc of length R.  The straight
    axis loop competes for small l.  OutOfRange where that arc turns past
    the Newton clamp, or its delta_v is past the double range.
    """
    h0 = m.sup_h()
    n_straight = math.floor(R / (TWO_PI * h0) + 1e-12) if math.isfinite(h0) else 0
    try:
        sol = invert_arc(m, "length", R)
    except TargetUnreachable as e:
        if not e.overshoot:
            raise OutOfRange(f"arcs of length {R} turn past the Newton clamp") from e
        return max(0, n_straight)  # every arc is longer than R
    return max(math.floor(sol.delta_v / TWO_PI + 1e-12), n_straight, 0)
