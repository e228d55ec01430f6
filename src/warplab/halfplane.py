"""Clairaut geodesics on the halfplane dr^2 + h(r)^2 dv^2.

For strictly decreasing h, a geodesic with Clairaut constant c (= h^2 v' in
arclength) rises from its start radius to the unique turning radius r_max
with h(r_max) = c and returns symmetrically, accumulating

    delta_v(c)  = 2 int_a^{r_max} c / (h sqrt(h^2-c^2)) dr
    length(c)   = 2 int_a^{r_max} h / sqrt(h^2-c^2) dr.

Panels split at the model's structural breakpoints and switch to
log-radius on wide spans.  The turning panel [a, r_max] removes the
endpoint 1/sqrt singularity by a variable that is sqrt(r_max - r) at r_max
(equivalent to the h = c cosh u change: both make the integrand bounded):
t = sqrt(r_max - r) itself where the local decay exponent p of h at r_max
is at least 3/4, else the graded w in [0, 1] with

    r = r_max - L w^2 (6 - 8w + 3w^2),    dr = -12 L w (1-w)^2 dw,

L = r_max - a.  On a stretch h ~ r^(-2p) the integrands grow like r^(4p),
which t leaves as a branch point (T - t)^(4p) at the panel's start; w is
cubic there and raises its order to about 12p + 2, so QAGS need not bisect
toward it.  Both evaluate h^2 - c^2 through a second-order Taylor model at
r_max near the endpoint so the difference never cancels catastrophically.
Each panel runs through adaptive Gauss-Kronrod quadrature, the in-repo
QAGS of `numerics` (relative 1e-9, absolute floor 1e-12).

Covering-space distances d_l between a point on the axis and its l-th deck
translate (period 2*pi in v) solve delta_v(c*) = 2*pi*l; counts and strides
solve length(c) = R.  Both go through invert_arc, which runs brentq
(`numerics`) on a bracket in log c and integrates only the missing quantity
at c*.  A distance takes its bracket from two adjacent rows of the strict
delta_v-decrease scan that guards it (verify_delta_v_monotone); lengths,
arcs from a later start and targets outside the scan take Newton steps in
(log c, log q) seeded by the local decay exponent at the turning radius.
The axis line v -> (0, v) is itself a geodesic when h'(0) = 0, so the
straight candidate 2*pi*l*h(0) competes in the minimum.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .curvature import h_frame
from .jets import Jet2
from .numerics import brentq, quad

TWO_PI = 2.0 * math.pi
# Turning panels whose local decay exponent at r_max lies below this take the
# graded map w, the others t.  QK21 rules per arc on h = (1+r^2)^(-p) from
# the axis (delta_v and length at 75 log-spaced c in [1e-12, 0.9]):
#   p  0.1   0.3   0.6   0.7   0.74  0.75  0.76  0.8   0.9   1     1.5   3
#   t  14.0  10.7  5.48  3.77  2.20  1.48  2.21  2.88  2.73  1.00  1.00  2.63
#   w  2.29  1.43  1.23  1.21  1.99  1.84  2.07  2.84  2.91  2.11  2.91  3.63
# Below 3/4 the graded map needs far fewer rules; from there on the two are
# within a few per cent, or t (at the integer powers 4p) needs fewer.  The
# bound sits 1e-9 below 3/4, past the rounding of the exponent estimate, so
# a stretch of p = 3/4 exactly keeps t, whose start (T - t)^3 is analytic.
_GRADED_BELOW = 0.75 - 1e-9
# A graded panel of span L from a squeezes the scale s = max(a, 1) of h at
# its start (the r ~ 1 knee of (1+r^2)^(-p) from the axis) into
# 1 - w < (s/4L)^(1/3).  Below s/L = _KNEE_BELOW that is 1 - w < 0.03, inside
# the third Kronrod node from the end, where the 10- and 21-point rules can
# miss the knee alike and QAGS stops under the true error.  There, and where
# the knee holds a share (s/L)^(1+4p) of the panel above 1 % of rel_tol, the
# stretch [a, a + s] gets its own interval in w.  Worst relative error of an
# arc against the 30-digit oracle (1,440 arcs, p in [0.05, 0.72]), without
# and with it: p = 0.1 8.8e-10 -> 1.1e-10, 0.15 2.2e-10 -> 3.8e-11,
# 0.25 1.4e-10 -> 5.5e-11, others unchanged.  From p = 0.44 on the share
# stays below 1e-11, so the default settings never split there.
_KNEE_BELOW = 1e-4


class OutOfRange(ValueError):
    """Clairaut constant outside (inf h, sup h) over the represented domain."""


class QuadratureFailure(RuntimeError):
    """Adaptive refinement stalled above tolerance."""


class TargetUnreachable(RuntimeError):
    """No bracket for the requested quantity; `overshoot` when even the arc
    at the top clamp exceeds the target, so no arc from the start has it."""

    def __init__(self, msg, overshoot=False):
        super().__init__(msg)
        self.overshoot = overshoot


class DeltaVNotMonotone(RuntimeError):
    """delta_v(c) failed the per-model strict-decrease scan."""


@dataclass(frozen=True)
class QuadSettings:
    rel_tol: float = 1e-9
    abs_floor: float = 1e-12
    limit: int = 400
    turning_rel: float = 1e-12  # relative tolerance on r_max
    taylor_frac: float = 3e-6  # switch to Taylor gap model within this of r_max


class HalfplaneMetric:
    """Positive strictly decreasing circle coefficient on [start, r_cap].

    This is the float-only geometry layer: jet components are coerced to
    doubles (an underlying evaluation may run in extended precision and
    degrade gracefully to 0.0 far outside the usable windows).
    """

    def __init__(self, h, label="halfplane", domain_start=0.0, r_cap=1e290, breakpoints=(),
                 value=None, value_on=None):
        self._h = h  # r -> Jet2
        if value is not None:
            self.value = value  # float r -> float h(r), in place of the method
        self._value_on = value_on  # (lo, hi) -> a float reader equal to value on [lo, hi]
        self.label = label
        self.domain_start = float(domain_start)
        self.r_cap = float(r_cap)
        self.breakpoints = sorted(float(b) for b in breakpoints)
        # the strict-decrease scan's rows by its parameters and settings,
        # stored once the scan passed
        self._scans = {}
        self._floor = None  # _representable_floor's (r, h(r))
        self._d1 = {}  # QuadSettings -> d_1, for axis_count_at_radius
        # solve_turning_point's bracket search: h at the domain start, and the
        # list of h(hi0 * 4^j) for the rungs j read so far
        self._rungs = None
        # turning radii by (c, settings) and arc integrals by (c, start,
        # settings, r_max, dv): each is a deterministic function of its key on
        # this metric, so a stored number has the bits a new solve would give
        self._turning = {}
        self._arcs = {}
        self._jets = {}  # turning radius -> the Jet2 of h there

    def jet(self, r):
        j = self._h(r)
        if isinstance(j.value, float):
            return j
        return Jet2(float(j.value), float(j.d1), float(j.d2))

    def value(self, r):
        """h(r) as a float, with no derivatives."""
        return float(self._h(r).value)

    def value_on(self, a, b):
        """A float reader equal to value on the panel [a, b], widened by 1e-9
        relative so that exp(log a) and r_max - T^2 rounding past an end stay
        covered: the reader value_on= binds for that stretch of h, else
        value."""
        if self._value_on is None:
            return self.value
        return self._value_on(a * (1.0 - 1e-9), b * (1.0 + 1e-9))

    def frame(self, rs):
        """h's exponent frame at a 1-d float64 array of radii (`h_frame`)."""
        return h_frame(self._h, rs)

    def sup_h(self):
        """h at the domain start: the supremum over the represented domain."""
        return self.value(self.domain_start)

    @staticmethod
    def from_warping(w, **kw):
        kw.setdefault("label", w.label)
        # w itself is h, so frame() finds w's own; its float form reads h with no Jet2
        return HalfplaneMetric(w, value=w.float_value, **kw)

    @staticmethod
    def from_smoothed(sm, **kw):
        kw.setdefault("label", "smoothed-h")
        kw.setdefault("breakpoints", sm.breakpoints_float(r_max=1e290))
        # quadrature integrands and root-finders read h alone: one table
        # lookup, or none on a panel or bracket that one value reader covers
        return HalfplaneMetric(sm.jet, value=sm.float_value, value_on=sm.float_value_on, **kw)


def circle_length(m: HalfplaneMetric, r) -> float:
    """2 pi h(r): the length of the circle fiber at radius r upstairs."""
    return TWO_PI * m.value(r)


def solve_turning_point(m: HalfplaneMetric, c: float, settings: QuadSettings | None = None):
    """Unique r_max with h(r_max) = c (h strictly decreasing), solved once
    per metric, c and settings."""
    st = settings or QuadSettings()
    key = (c, st)
    r_max = m._turning.get(key)
    if r_max is None:
        r_max = m._turning[key] = _turning_point(m, c, st)
    return r_max


def _turning_point(m, c, st):
    a = m.domain_start
    if m._rungs is None:
        m._rungs = (m.value(a) if a > 0 else m.value(0.0), [])
    h_top, rungs = m._rungs
    if not (0 < c < h_top):
        raise OutOfRange(f"need 0 < c < h(start)={h_top}, got c={c}")
    # the bracket grows from hi0 by factors of 4; h at each rung is read once
    # per metric, so every solve scans the same rungs to the same bracket
    lo = a
    hi = max(1.0, 2.0 * a if a > 0 else 1.0)
    j = 0
    while True:
        if j == len(rungs):
            rungs.append(m.value(hi))
        if not rungs[j] > c:
            break
        lo = hi
        hi *= 4.0
        j += 1
        if hi > m.r_cap:
            raise OutOfRange(f"h never reaches {c} below r_cap={m.r_cap}")
    if hi <= 2.0:
        hv = m.value_on(lo, hi)
        return brentq(lambda r: hv(r) - c, lo, hi, xtol=1e-15, rtol=8.9e-16)
    lo = max(lo, hi / 8.0, 1e-300)
    # the bracket below reaches exp(+-1e-9) past [lo, hi], and value_on
    # widens by 1e-9 of its own for exp's rounding
    hv = m.value_on(lo * (1.0 - 1e-9), hi * (1.0 + 1e-9))
    s = brentq(
        lambda s: hv(math.exp(s)) - c,
        math.log(lo) - 1e-9,
        math.log(hi) + 1e-9,
        xtol=st.turning_rel / 2,
        rtol=8.9e-16,
    )
    return math.exp(s)


@dataclass
class GeodesicSolution:
    clairaut_c: float
    r_max: float
    delta_v: float
    length: float
    start: float = 0.0

    def __post_init__(self):
        if self.length < self.delta_v * self.clairaut_c * (1 - 1e-9):
            raise AssertionError("arc shorter than its v-displacement lower bound")
        if self.length < 2.0 * (self.r_max - self.start) * (1 - 1e-9):
            raise AssertionError("arc shorter than twice its radial rise")


def _arc_panels(m, start, r_max):
    """Split [start, r_max] at structural breakpoints; final panel owns the
    turning point."""
    inner = [b for b in m.breakpoints if start < b < r_max * (1 - 1e-12)]
    pts = [start] + inner + [r_max]
    # coalesce slivers
    out = [pts[0]]
    for p in pts[1:]:
        if p - out[-1] > 1e-12 * max(r_max, 1.0):
            out.append(p)
    if out[-1] != r_max:
        out[-1] = r_max
    return out


def _quad_panel(f, a, b, st):
    # the in-repo QAGS (numerics.quad); full_output returns QUADPACK's
    # message instead of warning, and the caller enforces its own error
    # budget on the summed abserr
    out = quad(f, a, b, epsabs=st.abs_floor, epsrel=st.rel_tol, limit=st.limit, full_output=1)
    return out[0], out[1]


def _integrate_arc(m, c, start, settings, r_max, dv):
    """2 int_start^{r_max} w/sqrt(h^2-c^2) dr by panelled quadrature, with
    w = c/h for v-displacement (dv) and w = h for length, solving for r_max
    when it is None.

    The turning panel works in delta = r_max - r directly (delta = t^2, or
    L w^2 (6 - 8w + 3w^2) on the graded map, is computed from the variable
    and stays exact in floats even when r_max - delta rounds back to r_max),
    with a second-order Taylor model of h - c close in, so the gap never
    suffers cancellation; sqrt(h-c)*sqrt(h+c) keeps h^2-c^2 from underflowing
    as a single float.  A graded panel that squeezes h's scale at its start
    below _KNEE_BELOW integrates that stretch as a second interval.
    """
    st = settings or QuadSettings()
    start = m.domain_start if start is None else float(start)
    if r_max is None:
        r_max = solve_turning_point(m, c, st)
    if r_max <= start:
        return 0.0
    # a QuadratureFailure raises before the store, so a failed arc fails again
    key = (c, start, st, r_max, dv)
    value = m._arcs.get(key)
    if value is None:
        value = m._arcs[key] = _arc_quadrature(m, c, start, st, r_max, dv)
    return value


def _local_exponent(j, r):
    """The local decay exponent p = -h'(1+r^2)/(2 r h) from the Jet2 j of h
    at r, 0.0 where r or h is not positive."""
    return -j.d1 * (1.0 + r * r) / (2.0 * r * j.value) if r > 0 and j.value > 0 else 0.0


def _turning_jet(m, r_max):
    """The Jet2 of h at a turning radius, read once per metric and radius:
    delta_v and length at one r_max, and the Newton slope there, share it."""
    j = m._jets.get(r_max)
    if j is None:
        j = m._jets[r_max] = m.jet(r_max)
    return j


def _arc_quadrature(m, c, start, st, r_max, dv):
    sqrt, exp = math.sqrt, math.exp
    jet = _turning_jet(m, r_max)
    nd1, hd2 = -jet.d1, 0.5 * jet.d2  # h - c ~ nd1*delta + hd2*delta^2
    delta_switch = st.taylor_frac * max(r_max, 1.0)
    p = _local_exponent(jet, r_max)
    graded = p < _GRADED_BELOW

    # integrand_r in r, integrand_s in s = log r (times r), integrand_t in
    # x = t = sqrt(r_max - r), or in the graded x = w, both of which remove
    # the endpoint singularity; the weight is c/h for delta_v and h for length
    if dv:
        def integrand_r(r):
            h = hv(r)
            return c / h / (sqrt(h - c) * sqrt(h + c))

        def integrand_s(s):
            r = exp(s)
            h = hv(r)
            return c / h / (sqrt(h - c) * sqrt(h + c)) * r

        def integrand_t(x):
            if graded:
                u = 1.0 - x
                delta = span * x * x * (6.0 - 8.0 * x + 3.0 * x * x)
                jac = 12.0 * span * x * u * u
            else:
                delta = x * x
                jac = 2.0 * x
            if delta <= delta_switch:
                diff = nd1 * delta + hd2 * delta * delta
                h = c + diff
            else:
                h = hv(r_max - delta)
                diff = h - c
            return jac * (c / h) / (sqrt(diff) * sqrt(h + c))
    else:
        def integrand_r(r):
            h = hv(r)
            return h / (sqrt(h - c) * sqrt(h + c))

        def integrand_s(s):
            r = exp(s)
            h = hv(r)
            return h / (sqrt(h - c) * sqrt(h + c)) * r

        def integrand_t(x):
            if graded:
                u = 1.0 - x
                delta = span * x * x * (6.0 - 8.0 * x + 3.0 * x * x)
                jac = 12.0 * span * x * u * u
            else:
                delta = x * x
                jac = 2.0 * x
            if delta <= delta_switch:
                diff = nd1 * delta + hd2 * delta * delta
                h = c + diff
            else:
                h = hv(r_max - delta)
                diff = h - c
            return jac * h / (sqrt(diff) * sqrt(h + c))

    total = 0.0
    err_total = 0.0
    panels = _arc_panels(m, start, r_max)
    for a, b in zip(panels, panels[1:]):
        hv = m.value_on(a, b)  # the integrands read this panel's reader
        if b == r_max:
            span = r_max - a
            if span <= 0:
                v, e = 0.0, 0.0
            elif not graded:
                v, e = _quad_panel(integrand_t, 0.0, math.sqrt(span), st)
            else:
                knee = max(a, 1.0) / span
                if knee < _KNEE_BELOW and knee ** (1.0 + 4.0 * p) > 0.01 * st.rel_tol:
                    # the knee, about [a, a + max(a, 1)], gets its own interval
                    wk = 1.0 - (0.25 * knee) ** (1.0 / 3.0)
                    v, e = _quad_panel(integrand_t, 0.0, wk, st)
                    vk, ek = _quad_panel(integrand_t, wk, 1.0, st)
                    v += vk
                    e += ek
                else:
                    v, e = _quad_panel(integrand_t, 0.0, 1.0, st)
        elif a > 0 and b / a >= 8.0:
            v, e = _quad_panel(integrand_s, math.log(a), math.log(b), st)
        else:
            v, e = _quad_panel(integrand_r, a, b, st)
        total += v
        err_total += e
    if err_total > max(st.abs_floor, 100.0 * st.rel_tol * abs(total)):
        raise QuadratureFailure(
            f"estimated error {err_total} vs value {total} (c={c}, r_max={r_max})"
        )
    return 2.0 * total


def clairaut_arc(
    m: HalfplaneMetric, c: float, start: float | None = None, settings: QuadSettings | None = None
) -> GeodesicSolution:
    """The symmetric geodesic arc with Clairaut constant c from the start
    radius out to the turning point and back."""
    st = settings or QuadSettings()
    a = m.domain_start if start is None else float(start)
    r_max = solve_turning_point(m, c, st)
    if r_max <= a:
        return GeodesicSolution(c, a, 0.0, 0.0, start=a)
    dv = delta_v_of_c(m, c, a, st, r_max=r_max)
    return GeodesicSolution(c, r_max, dv, length_of_c(m, c, a, st, r_max=r_max), start=a)


def delta_v_of_c(m: HalfplaneMetric, c: float, start: float | None = None,
                 settings: QuadSettings | None = None, r_max: float | None = None) -> float:
    """v-displacement of the arc with Clairaut constant c (decreasing in c)."""
    return _integrate_arc(m, c, start, settings, r_max, dv=True)


def length_of_c(m: HalfplaneMetric, c: float, start: float | None = None,
                settings: QuadSettings | None = None, r_max: float | None = None) -> float:
    """Length of the arc with Clairaut constant c (decreasing in c)."""
    return _integrate_arc(m, c, start, settings, r_max, dv=False)


def verify_delta_v_monotone(m: HalfplaneMetric, n: int = 200, c_hi_frac: float = 1e-6,
                            r_probe_hi: float = None, settings=None):
    """Scan delta_v on a log-spaced c-sample and require strict decrease in c
    (up to 1e-10 relative slack); failures abort distance queries rather
    than let root-finding run on a false premise.

    Returns the scan's rows (x, r_max, delta_v) at c = exp(x), x decreasing
    and delta_v increasing.  Scanned once per metric, scan parameters and
    settings; orbit_distance brackets its inversions between adjacent rows.
    """
    st = settings or QuadSettings()
    key = (n, c_hi_frac, r_probe_hi, st)
    rows = m._scans.get(key)
    if rows is not None:
        return rows
    h_top = m.sup_h()
    r_hi = r_probe_hi if r_probe_hi is not None else min(m.r_cap / 4.0, 1e60)
    c_lo = m.value(r_hi)
    c_hi = h_top * (1.0 - c_hi_frac)
    if not (c_lo < c_hi):
        raise DeltaVNotMonotone("degenerate c-range for monotonicity scan")
    rows = []
    prev = None
    # c = math.exp(x) is the c that invert_arc's y(x) asks the memos for
    for x in np.linspace(math.log(c_hi), math.log(c_lo), n).tolist():
        c = math.exp(x)
        r_max = solve_turning_point(m, c, st)
        dv = delta_v_of_c(m, c, settings=st, r_max=r_max)
        if prev is not None and not (dv > prev * (1.0 - 1e-10)):
            raise DeltaVNotMonotone(
                f"delta_v not increasing as c decreases: dv({c})={dv} vs previous {prev}"
            )
        prev = dv
        rows.append((x, r_max, dv))
    rows = m._scans[key] = tuple(rows)
    return rows


def _representable_floor(m):
    """Largest probe radius where h and its slope stay clear of underflow,
    with h there; probed once per metric."""
    if m._floor is None:
        m._floor = _probe_floor(m)
    return m._floor


def _probe_floor(m):
    # r_cap/4 comes last, for caps below 2e4 that skip every fixed candidate
    for r in (1e250, 1e200, 1e150, 1e120, 1e100, 1e80, 1e60, 1e40, 1e20, 1e10, 1e4,
              m.r_cap / 4.0, 2.0):
        if r >= m.r_cap / 2.0 or r <= m.domain_start:
            continue
        v = m.value(r)
        if v > 1e-290 and v / r > 1e-305:
            return r, v
    r = max(m.domain_start * 2.0, 1.0)
    return r, m.value(r)


def invert_arc(m: HalfplaneMetric, quantity: str, target: float, start: float | None = None,
               settings: QuadSettings | None = None, scan=()) -> GeodesicSolution:
    """The symmetric arc from `start` whose `quantity` ("delta_v" or
    "length", both decreasing in c) equals target.

    A delta_v target from the domain start that two adjacent rows of `scan`
    (verify_delta_v_monotone's rows at these settings) bracket at c >=
    c_floor takes that bracket; any other target takes _newton_bracket's.
    brentq closes the bracket on memoized evaluations at xtol 1e-12 in
    log c, and only the other quantity is integrated at its root.
    """
    st = settings or QuadSettings()
    a = m.domain_start if start is None else float(start)
    # names read per call, so wrappers installed on this module see every evaluation
    solve, other = {"delta_v": (delta_v_of_c, length_of_c),
                    "length": (length_of_c, delta_v_of_c)}[quantity]
    h_top = m.value(a)
    x_hi = math.log(h_top * (1.0 - 1e-9)) if math.isfinite(h_top) else math.inf
    r_floor, c_floor = _representable_floor(m)
    x_lo = math.log(c_floor) if c_floor > 0 else -math.inf
    seen = {}  # x -> (r_max, q)

    def y(x):
        if x not in seen:
            r = solve_turning_point(m, math.exp(x), st)
            seen[x] = (r, solve(m, math.exp(x), a, st, r_max=r))
        return math.log(seen[x][1] / target)

    bracket = None
    if scan and quantity == "delta_v" and a == m.domain_start:
        bracket = _scan_bracket(scan, target, x_lo, seen, y)
    if bracket is None:
        bracket = _newton_bracket(m, quantity, target, a, y, seen, x_lo, x_hi, r_floor)
    lo, hi = bracket
    x_star = lo if lo == hi else brentq(y, lo, hi, xtol=1e-12, rtol=8.9e-16)
    y(x_star)  # brentq returns an evaluated point, so this is a lookup
    r_max, q = seen[x_star]
    c = math.exp(x_star)
    q_other = other(m, c, a, st, r_max=r_max)
    dv, ln = (q, q_other) if quantity == "delta_v" else (q_other, q)
    return GeodesicSolution(c, r_max, dv, ln, start=a)


def _scan_bracket(scan, target, x_lo, seen, y):
    """(lo, hi) from the adjacent scan rows whose delta_v straddle target,
    both entered in seen, or None when no such pair lies at x >= x_lo, the
    clamp the Newton steps keep to."""
    i = bisect.bisect_left(scan, target, key=lambda row: row[2])
    if not 0 < i < len(scan) or scan[i][0] < x_lo:
        return None
    for x, r_max, dv in scan[i - 1:i + 1]:
        seen[x] = (r_max, dv)
    lo, hi = scan[i][0], scan[i - 1][0]
    if not y(lo) >= 0 >= y(hi):
        return None
    return lo, hi


def _newton_bracket(m, quantity, target, a, y, seen, x_lo, x_hi, r_floor):
    """(lo, hi), the nearest x with y >= 0 and with y <= 0, from Newton steps
    in (x, y) = (log c, log(q/target)), clamped to [x_lo, x_hi], run from a
    first guess with turning radius about target/2 until a short step
    brackets the root.

    The slope is the secant's over a short step, else the one a pure stretch
    of local exponent p = -h'(1+r^2)/(2 r h) at the turning radius has:
    -(1+1/(2p)) for delta_v, -1/(2p) for length (orbits.py).
    TargetUnreachable when a clamp end gives no sign change.
    """
    r_guess = max(min(target / 2.0, r_floor), a + 1e-12)
    x = min(math.log(m.value(max(r_guess, 1e-300))), x_hi - math.log(2.0))
    fx = y(x)
    lo, hi = -math.inf, math.inf
    x_prev = f_prev = None
    for _ in range(100):
        lo, hi = (max(lo, x) if fx >= 0 else lo), (min(hi, x) if fx <= 0 else hi)
        near = x_prev is not None and abs(x - x_prev) < 0.5
        if lo == hi or (near and math.isfinite(lo) and math.isfinite(hi)):
            break
        # the secant over a short step, else the local-exponent slope, which a
        # long step (spanning other regimes) would average away
        slope = (fx - f_prev) / (x - x_prev) if near else 0.0
        if not (slope < 0 and math.isfinite(slope)):
            r = seen[x][0]
            p = _local_exponent(_turning_jet(m, r), r)
            slope = -1.0
            if math.isfinite(p) and p > 0:
                slope = -(1.0 + 0.5 / p) if quantity == "delta_v" else -0.5 / p
        # overshoot the Newton root a little, so steps cross it instead of
        # creeping up on it from one side
        step = -fx / slope
        x_new = x + 1.001 * step + math.copysign(1e-9, step)
        if math.isfinite(lo) and math.isfinite(hi) and not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        x_new = min(max(x_new, x_lo), x_hi)
        if x_new == x:
            break  # pinned at a clamp end
        x_prev, f_prev = x, fx
        x, fx = x_new, y(x_new)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise TargetUnreachable(f"no c with {quantity}={target} on {m.label} "
                                f"(last c={math.exp(x):.6g})", overshoot=x == x_hi and fx > 0)
    return lo, hi


def orbit_distance(
    m: HalfplaneMetric,
    l: int | float,
    settings: QuadSettings | None = None,
    verify_monotone: bool = True,
):
    """Distance between an axis point and its l-th deck translate.

    Returns (d_l, solution) where solution is the Clairaut arc (None if the
    straight axis loop 2*pi*l*h(0) wins, which only happens for tiny l).
    """
    st = settings or QuadSettings()
    if l == 0:
        return 0.0, None
    l = abs(l)
    scan = verify_delta_v_monotone(m, settings=st) if verify_monotone else ()
    target = TWO_PI * float(l)
    h0 = m.sup_h()
    straight = target * h0 if math.isfinite(h0) else math.inf
    try:
        sol = invert_arc(m, "delta_v", target, settings=st, scan=scan)
    except (TargetUnreachable, OutOfRange) as e:
        # the axis line is the only candidate when no arc has this displacement:
        # no turning point anywhere (e.g. constant h) or every arc overshoots it
        if isinstance(e, TargetUnreachable) and not e.overshoot:
            raise OutOfRange(f"d_{l} needs an arc past the representable radii") from e
        if math.isfinite(straight):
            return straight, None
        raise
    if straight < sol.length:
        return straight, None
    return sol.length, sol


def note_d1(m: HalfplaneMetric, d1: float, settings: QuadSettings | None = None):
    """Record d_1 of m at these settings, as an OrbitTable or its cache holds
    it, so axis_count_at_radius reads it instead of solving it (and running
    the strict-decrease scan for that solve); a delta_v inversion from the
    domain start still runs the scan first."""
    m._d1.setdefault(settings or QuadSettings(), d1)


def axis_count_at_radius(m: HalfplaneMetric, R: float, settings: QuadSettings | None = None):
    """max { l >= 0 : d_l <= R } via the turning-parameter inversion.

    Arc length is decreasing in c and the v-displacement at fixed length is
    monotone, so the threshold index is delta_v(c_R)/(2 pi) at the c whose
    arc length equals R.  The straight axis loop competes for small l; d_1
    is solved once per metric and settings, unless note_d1 recorded it.
    """
    st = settings or QuadSettings()
    h0 = m.sup_h()
    n_straight = math.floor(R / (TWO_PI * h0) + 1e-12) if math.isfinite(h0) else 0
    if st not in m._d1:
        m._d1[st] = orbit_distance(m, 1, settings=st)[0]
    if m._d1[st] > R:
        return max(0, n_straight)
    try:
        sol = invert_arc(m, "length", R, settings=st)
    except TargetUnreachable as e:
        if not e.overshoot:
            raise OutOfRange(f"arcs of length {R} turn past the representable radii") from e
        return max(0, n_straight)  # every arc is longer than R
    return max(math.floor(sol.delta_v / TWO_PI + 1e-12), n_straight, 0)
