"""Clairaut geodesics on the halfplane dr^2 + h(r)^2 dv^2.

For strictly decreasing h, a geodesic with Clairaut constant c (= h^2 v' in
arclength) rises from its start radius to the unique turning radius r_max
with h(r_max) = c and returns symmetrically, accumulating

    delta_v(c)  = 2 int_a^{r_max} c / (h sqrt(h^2-c^2)) dr
    length(c)   = 2 int_a^{r_max} h / sqrt(h^2-c^2) dr.

The endpoint 1/sqrt singularity is removed by the variable change
t = sqrt(r_max - r) (equivalent to the h = c cosh u change: both make the
integrand bounded), with h^2 - c^2 evaluated through a second-order Taylor
model at r_max near the endpoint so the difference never cancels
catastrophically.  Panels split at the model's structural breakpoints and
switch to log-radius on wide spans; each panel runs through adaptive
Gauss-Kronrod quadrature (relative 1e-9, absolute floor 1e-12).

Covering-space distances d_l between a point on the axis and its l-th deck
translate (period 2*pi in v) solve delta_v(c*) = 2*pi*l by bracketed root
finding in log c; the axis line v -> (0, v) is itself a geodesic when
h'(0) = 0, so the straight candidate 2*pi*l*h(0) competes in the minimum.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .jets import Jet2

TWO_PI = 2.0 * math.pi


class OutOfRange(ValueError):
    """Clairaut constant outside (inf h, sup h) over the represented domain."""


class QuadratureFailure(RuntimeError):
    """Adaptive refinement stalled above tolerance."""


class TargetUnreachable(RuntimeError):
    """No bracket for the requested v-displacement."""


class DeltaVNotMonotone(RuntimeError):
    """delta_v(c) failed the per-model strict-decrease scan."""


@dataclass
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
                 value=None):
        self._h = h  # r -> Jet2
        self._value = value or (lambda r: h(r).value)  # r -> h(r), no derivatives needed
        self.label = label
        self.domain_start = float(domain_start)
        self.r_cap = float(r_cap)
        self.breakpoints = sorted(float(b) for b in breakpoints)
        self._monotone_checked = False

    def jet(self, r):
        j = self._h(r)
        if isinstance(j.value, float):
            return j
        return Jet2(float(j.value), float(j.d1), float(j.d2))

    def value(self, r):
        return float(self._value(r))

    def sup_h(self):
        """h at the domain start: the supremum over the represented domain."""
        return self.value(self.domain_start)

    @staticmethod
    def from_warping(w, **kw):
        kw.setdefault("label", w.label)
        return HalfplaneMetric(lambda r: w(r), **kw)

    @staticmethod
    def from_smoothed(sm, **kw):
        kw.setdefault("label", "smoothed-h")
        kw.setdefault("breakpoints", sm.breakpoints_float(r_max=1e290))
        # quadrature integrands and root-finders read h alone: the value-only query
        return HalfplaneMetric(lambda r: sm.jet(r), value=sm.value, **kw)


def circle_length(m: HalfplaneMetric, r) -> float:
    """2 pi h(r): the length of the circle fiber at radius r upstairs."""
    return TWO_PI * m.value(r)


def solve_turning_point(m: HalfplaneMetric, c: float, settings: QuadSettings | None = None):
    """Unique r_max with h(r_max) = c (h strictly decreasing)."""
    st = settings or QuadSettings()
    a = m.domain_start
    h_top = m.value(a) if a > 0 else m.value(0.0)
    if not (0 < c < h_top):
        raise OutOfRange(f"need 0 < c < h(start)={h_top}, got c={c}")
    lo = a
    hi = max(1.0, 2.0 * a if a > 0 else 1.0)
    while m.value(hi) > c:
        lo = hi
        hi *= 4.0
        if hi > m.r_cap:
            raise OutOfRange(f"h never reaches {c} below r_cap={m.r_cap}")
    if hi <= 2.0:
        return brentq(lambda r: m.value(r) - c, lo, hi, xtol=1e-15, rtol=8.9e-16)
    lo = max(lo, hi / 8.0, 1e-300)
    s = brentq(
        lambda s: m.value(math.exp(s)) - c,
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
    quad_error: float = 0.0

    def __post_init__(self):
        if self.length < self.delta_v * self.clairaut_c * (1 - 1e-9):
            raise AssertionError("arc shorter than its v-displacement lower bound")
        if self.length < 2.0 * (self.r_max - self.start) * (1 - 1e-9):
            raise AssertionError("arc shorter than twice its radial rise")


class _GapEvaluator:
    """h^2 - c^2 near and away from the turning point.

    The turning panel works in delta = r_max - r directly (delta = t^2 from
    the substitution is exact in floats even when r_max - delta rounds back
    to r_max), with a second-order Taylor model of h - c close in, so the
    gap never suffers cancellation."""

    def __init__(self, m, c, r_max, taylor_frac):
        self.m = m
        self.c = c
        self.r_max = r_max
        jet = m.jet(r_max)
        self.d1 = jet.d1  # < 0
        self.d2 = jet.d2
        self.delta_switch = taylor_frac * max(r_max, 1.0)

    def by_delta(self, delta):
        """(h, h-c, h+c); callers form sqrt(h-c)*sqrt(h+c) so the product
        h^2-c^2 never underflows as a single float."""
        if delta <= self.delta_switch:
            diff = -self.d1 * delta + 0.5 * self.d2 * delta * delta
            h = self.c + diff
            return h, diff, h + self.c
        h = self.m.value(self.r_max - delta)
        return h, h - self.c, h + self.c

    def by_radius(self, r):
        h = self.m.value(r)
        return h, h - self.c, h + self.c


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
    # full_output suppresses QUADPACK chatter; the caller enforces its own
    # error budget on the summed abserr
    out = quad(f, a, b, epsabs=st.abs_floor, epsrel=st.rel_tol, limit=st.limit, full_output=1)
    return out[0], out[1]


def _integrate_arc(m, c, r_max, start, st, weight):
    """int_start^{r_max} weight(h)/sqrt(h^2-c^2) dr by panelled quadrature.

    weight(h) is h for length, c/h for v-displacement.
    """
    gap = _GapEvaluator(m, c, r_max, st.taylor_frac)

    def integrand_r(r):
        h, diff, ssum = gap.by_radius(r)
        return weight(h) / (math.sqrt(diff) * math.sqrt(ssum))

    total = 0.0
    err_total = 0.0
    panels = _arc_panels(m, start, r_max)
    for a, b in zip(panels, panels[1:]):
        last = b == r_max
        if last:
            # t = sqrt(r_max - r) removes the endpoint singularity
            T = math.sqrt(r_max - a)

            def integrand_t(t):
                h, diff, ssum = gap.by_delta(t * t)
                return 2.0 * t * weight(h) / (math.sqrt(diff) * math.sqrt(ssum))

            if T > 0:
                v, e = _quad_panel(integrand_t, 0.0, T, st)
            else:
                v, e = 0.0, 0.0
        elif a > 0 and b / a >= 8.0:
            v, e = _quad_panel(
                lambda s: integrand_r(math.exp(s)) * math.exp(s),
                math.log(a),
                math.log(b),
                st,
            )
        else:
            v, e = _quad_panel(integrand_r, a, b, st)
        total += v
        err_total += e
    if err_total > max(st.abs_floor, 100.0 * st.rel_tol * abs(total)):
        raise QuadratureFailure(
            f"estimated error {err_total} vs value {total} (c={c}, r_max={r_max})"
        )
    return total, err_total


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
    dv, e1 = _integrate_arc(m, c, r_max, a, st, weight=lambda h: c / h)
    ln, e2 = _integrate_arc(m, c, r_max, a, st, weight=lambda h: h)
    return GeodesicSolution(c, r_max, 2.0 * dv, 2.0 * ln, start=a, quad_error=2.0 * (e1 + e2))


def delta_v_of_c(m: HalfplaneMetric, c: float, start: float | None = None,
                 settings: QuadSettings | None = None) -> float:
    st = settings or QuadSettings()
    a = m.domain_start if start is None else float(start)
    r_max = solve_turning_point(m, c, st)
    if r_max <= a:
        return 0.0
    dv, _ = _integrate_arc(m, c, r_max, a, st, weight=lambda h: c / h)
    return 2.0 * dv


def verify_delta_v_monotone(m: HalfplaneMetric, n: int = 200, c_hi_frac: float = 1e-6,
                            r_probe_hi: float = None, settings=None):
    """Scan delta_v on a log-spaced c-sample and require strict decrease in c
    (up to 1e-10 relative slack).  Cached per metric instance; failures abort
    distance queries rather than let root-finding run on a false premise."""
    if m._monotone_checked:
        return
    st = settings or QuadSettings()
    a = m.domain_start
    h_top = m.sup_h()
    r_hi = r_probe_hi if r_probe_hi is not None else min(m.r_cap / 4.0, 1e60)
    c_lo = m.value(r_hi)
    c_hi = h_top * (1.0 - c_hi_frac)
    if not (c_lo < c_hi):
        raise DeltaVNotMonotone("degenerate c-range for monotonicity scan")
    cs = np.exp(np.linspace(math.log(c_hi), math.log(c_lo), n))
    prev = None
    for c in cs:
        dv = delta_v_of_c(m, float(c), settings=st)
        if prev is not None and not (dv > prev * (1.0 - 1e-10)):
            raise DeltaVNotMonotone(
                f"delta_v not increasing as c decreases: dv({c})={dv} vs previous {prev}"
            )
        prev = dv
    m._monotone_checked = True


def _representable_floor(m):
    """Largest probe radius where h and its slope stay clear of underflow."""
    for r in (1e250, 1e200, 1e150, 1e120, 1e100, 1e80, 1e60, 1e40, 1e20, 1e10, 1e4, 2.0):
        if r >= m.r_cap / 2.0 or r <= m.domain_start:
            continue
        v = m.value(r)
        if v > 1e-290 and v / r > 1e-305:
            return r, v
    r = max(m.domain_start * 2.0, 1.0)
    return r, m.value(r)


def _bracket_c_for(m, target_fn, target, c_floor, settings):
    """Geometric bracket for a decreasing-in-c quantity hitting `target`."""
    h_top = m.sup_h()
    c_hi = h_top * (1.0 - 1e-9) if math.isfinite(h_top) else None
    # initial guess: turning radius of order target/2, underflow-guarded
    r_floor, _ = _representable_floor(m)
    r_guess = max(min(target / 2.0, r_floor), m.domain_start + 1e-12)
    c = m.value(max(r_guess, 1e-300))
    if c_hi is not None:
        c = min(c, c_hi / 2.0)
    f_c = target_fn(c) - target
    grow = 0.25 if f_c < 0 else 4.0
    c2 = c
    for _ in range(600):
        c2_new = c2 * grow
        if c_hi is not None and c2_new >= c_hi:
            c2_new = math.sqrt(c2 * c_hi)
        if c2_new <= c_floor:
            c2_new = math.sqrt(c2 * c_floor) if c_floor > 0 else c2 * 0.5
        f_new = target_fn(c2_new) - target
        if (f_c < 0) != (f_new < 0):
            lo, hi = sorted((c2, c2_new))
            return lo, hi
        c2 = c2_new
        f_c = f_new
        if c_floor > 0 and c2 <= c_floor * (1 + 1e-12):
            break
        if c_hi is not None and c2 >= c_hi * (1 - 1e-12):
            break
    raise TargetUnreachable(
        f"could not bracket c for target {target} on {m.label} (last c={c2})"
    )


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
    if verify_monotone:
        verify_delta_v_monotone(m, settings=st)
    target = TWO_PI * float(l)
    h0 = m.sup_h()
    straight = target * h0 if math.isfinite(h0) else math.inf

    _, c_floor = _representable_floor(m)
    try:
        lo, hi = _bracket_c_for(m, lambda c: delta_v_of_c(m, c, settings=st), target, c_floor, st)
        x = brentq(
            lambda x: math.log(delta_v_of_c(m, math.exp(x), settings=st) / target),
            math.log(lo),
            math.log(hi),
            xtol=1e-12,
            rtol=8.9e-16,
        )
        sol = clairaut_arc(m, math.exp(x), settings=st)
    except (TargetUnreachable, OutOfRange):
        # no turning point anywhere (e.g. constant h): the axis line is the
        # only candidate
        if math.isfinite(straight):
            return straight, None
        raise
    if straight < sol.length:
        return straight, None
    return sol.length, sol


def length_of_c(m: HalfplaneMetric, c: float, settings=None) -> float:
    st = settings or QuadSettings()
    return clairaut_arc(m, c, settings=st).length


def axis_count_at_radius(m: HalfplaneMetric, R: float, settings: QuadSettings | None = None):
    """max { l >= 0 : d_l <= R } via the turning-parameter inversion.

    Arc length is decreasing in c and the v-displacement at fixed length is
    monotone, so the threshold index is delta_v(c_R)/(2 pi) at the c whose
    arc length equals R.  The straight axis loop competes for small l.
    """
    st = settings or QuadSettings()
    h0 = m.sup_h()
    n_straight = math.floor(R / (TWO_PI * h0) + 1e-12) if math.isfinite(h0) else 0
    d1, _ = orbit_distance(m, 1, settings=st)
    if d1 > R:
        return max(0, n_straight)
    _, c_floor = _representable_floor(m)
    try:
        lo, hi = _bracket_c_for(m, lambda c: length_of_c(m, c, st), R, c_floor, st)
    except TargetUnreachable:
        return max(0, n_straight)
    x = brentq(
        lambda x: math.log(length_of_c(m, math.exp(x), st) / R),
        math.log(lo),
        math.log(hi),
        xtol=1e-12,
        rtol=8.9e-16,
    )
    dv = delta_v_of_c(m, math.exp(x), settings=st)
    return max(math.floor(dv / TWO_PI + 1e-12), n_straight, 0)
