"""Exponent blends across the junctions of piecewise warping functions.

At a junction R the pieces C_L (1+r^2)^(-p_L) and C_R (1+r^2)^(-p_R) meet.
The blend mixes their decay exponents, not their values, in
y = log(1+r^2): on the span [y_a, y_b] with y_a = y(0.8R) and
y_b = 2 y(R) - y_a, centred on y(R) (so r runs over [0.8R, ~1.25R]),
with x = (y - y_a)/(y_b - y_a), the exponent is

        p(y) = q(x) p_L + (1 - q(x)) p_R,

q the quintic with q(0) = 1, q(1) = 0 and q', q'' zero at both ends, and

        log h = log h_L(y_a) - p_R (y - y_a) - (p_L - p_R)(y_b - y_a) Q(x),

Q(x) = x - (5/2)x^4 + 3x^5 - x^6 the integral of q.  Since q(1-x) =
1 - q(x), Q(1) = 1/2 and the blend meets the right piece at y_b exactly,
with C^3 contact at both ends; the pieces keep their values outside.  With
g = 2r/(1+r^2), h'/h = -p g and h''/h = (p g)^2 - p'(y) g^2 - p g', so
h decreases wherever p > 0 and its local exponent |h'/h|/g stays within
[min p, max p].  `SmoothedH` refuses a segment of exponent p <= 0, so
every blend's p, between two positive exponents, is positive too: a
smoothed h decreases at every radius by construction.

A blend, like a segment, is held in doubles: its junction R, its span
[lo, hi) and its five-double form.  It reads h at double radii in log
form: `log_h` gives log h at a double, which `halfplane` integrates
through, and `frame` the exponent frame (log h, p and p'(y)) at a double
or a float64 array, both in closed form.  The dense checks below
(strict-decrease scan, replacement inequalities, certification, effective
exponent) read the frame.  A `SmoothedH` is its segments and its blends,
and the only router: one table of double edges (every junction and every
blend's lo and hi) hands a double to its owner (blend or segment), so a
blend evaluates its exponent form on its own span [lo, hi) and nowhere
else.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .curvature import decay_curvature, frame, positive, scaled_ricci
from .jets import Jet2
from .ladder import build_scale_ladder, radius
from .piecewise import Segment, junction_gaps, ladder_segments
from .warping import HFrame, WarpingFunction, inv_u, log1p_sq, log1p_sq_float

SPAN_LO = 0.8  # a blend starts at 0.8 R; its end is centred on y(R) in y = log(1+r^2)


class BlendOverlap(RuntimeError):
    """Two smoothing blends intersect (corrupted ladder)."""


class MonotonicityLoss(RuntimeError):
    """A segment's exponent p is not > 0: h would not decrease on it, nor on
    a blend that joins it."""


class NotCertified(RuntimeError):
    """No sphere dimension up to the cap makes the Ricci grid positive."""

    def __init__(self, k_max, worst):
        super().__init__(f"no k <= {k_max} certifies positivity; worst margins {worst}")
        self.k_max = k_max
        self.worst = worst


def _weights(x):
    """Q, q and q' at x: the quintic q = 1 - 10x^3 + 15x^4 - 6x^5 and its
    integral Q from 0, for a double or a float64 array."""
    x2 = x * x
    q = 1.0 - x * x2 * (10.0 - 15.0 * x + 6.0 * x2)
    q1 = -30.0 * x2 * (1.0 - x) * (1.0 - x)
    Q = x - x2 * x2 * (2.5 - 3.0 * x + x2)
    return Q, q, q1


@dataclass(frozen=True)
class Blend:
    """The exponent blend of left and right across their junction R, on
    [lo, hi) = [0.8R, y^-1(2y(R) - y(0.8R))).

    A blend answers only inside its span: its owner table (`SmoothedH`)
    hands it no radius outside [lo, hi)."""

    R: float  # junction radius
    left: Segment
    right: Segment
    lo: float = field(init=False)  # blend interval; hi is +inf past the double range
    hi: float = field(init=False)
    # (y_a, y_b - y_a, log h_L(y_a), p_R, p_L - p_R), set in __post_init__
    _form: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        R = self.R
        lo = SPAN_LO * R
        ya = log1p_sq_float(lo)
        # w = 2 (y(R) - y_a) as the log of a ratio near 1/0.64, with no
        # cancellation of the two logs (the 1s are below an ulp past 1e150)
        w = 2.0 * math.log((1.0 + R * R) / (1.0 + lo * lo) if R < 1e150 else (R / lo) ** 2)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", radius(ya + w))
        object.__setattr__(self, "_form", (ya, w, self.left.log_h(lo), self.right.p,
                                           self.left.p - self.right.p))

    def log_h(self, r) -> float:
        """log h at a double r in the span, in the exponent form."""
        ya, w, la, pr, dp = self._form
        y = log1p_sq_float(r)
        x = (y - ya) / w
        x2 = x * x
        return la - pr * (y - ya) - dp * w * (x - x2 * x2 * (2.5 - 3.0 * x + x2))

    def frame(self, r) -> HFrame:
        """The exponent frame at a double r or a float64 array of radii in
        the span: p = p_R + (p_L - p_R) q(x) with its log h and p_y."""
        ya, w, la, pr, dp = self._form
        y = log1p_sq(r) if r.__class__ is np.ndarray else log1p_sq_float(r)
        Q, q, q1 = _weights((y - ya) / w)
        return HFrame(la - pr * (y - ya) - dp * w * Q, pr + dp * q, dp * q1 / w)

    def jet(self, r) -> Jet2:
        """(h, h', h'') at a double radius in the span, in the exponent form."""
        ya, w, la, pr, dp = self._form
        y = log1p_sq_float(r)
        x = (y - ya) / w
        Q, q, q1 = _weights(x)
        p = pr + dp * q
        ir = 1.0 / r
        g = 2.0 / (r + ir)  # dy/dr, with no r*r
        v = math.exp(la - pr * (y - ya) - dp * w * Q)
        s = p * g
        return Jet2(v, v * -s, v * (s * s - dp * q1 / w * g * g - p * g * (ir - g)))


class SmoothedH:
    """Continuous segments covering [0, inf), each of exponent p > 0,
    checked once here (junction gaps kept as `gaps`), with an exponent blend
    across each junction smoothed (none in an unsmoothed h).

    Outside all blend intervals h is its segment's closed form; on each
    blend the local decay exponent lies between the joined exponents, so h
    decreases at every radius.
    """

    def __init__(self, segments, blends):
        if not segments or segments[-1].r_hi is not None:
            raise ValueError("need segments whose last one extends to infinity")
        for s in segments:
            if not s.p > 0:  # NaN too
                raise MonotonicityLoss(f"segment at r_lo = {s.r_lo!r} has exponent "
                                       f"p = {s.p}; h decreases only where p > 0")
        self.segments = list(segments)
        self.gaps = junction_gaps(self.segments)
        self.blends = sorted(blends, key=lambda b: b.lo)
        for a, b in zip(self.blends, self.blends[1:]):
            if not (a.hi < b.lo):
                raise BlendOverlap(f"blends at {_short(a.R)} and {_short(b.R)} intersect")
        junctions = [s.r_lo for s in self.segments[1:]]
        los = [b.lo for b in self.blends]

        def owner(r):  # the blend with lo <= r < hi, else the segment
            i = bisect_right(los, r) - 1
            if i >= 0 and r < self.blends[i].hi:
                return self.blends[i]
            return self.segments[bisect_right(junctions, r)]

        # one table of double edges, every junction and blend lo/hi: the
        # owner of [e_i, e_i+1) is the owner at e_i
        edges = sorted({*junctions, *los, *(b.hi for b in self.blends)})
        owners = [owner(e) for e in (-math.inf, *edges)]
        # an edge with one owner on both sides goes (a junction inside its
        # blend's span): neighbouring intervals differ in owner
        keep = [k for k in range(len(edges)) if owners[k + 1] is not owners[k]]
        self._fedges = [edges[k] for k in keep]
        self._fowners = [owners[0], *(owners[k + 1] for k in keep)]
        self._fedges_array = np.array(self._fedges)

    def log_h(self, r) -> float:
        """log h at a double r: one bisect of the edge table, then the
        owner's log_h."""
        return self._fowners[bisect_right(self._fedges, r)].log_h(r)

    def _owner_at(self, r):
        """The blend (lo <= r < hi) or else the segment that answers h at a
        double r: one bisect of the edge table."""
        return self._fowners[bisect_right(self._fedges, r)]

    def _by_owner(self, rs, method, dtypes):
        """Each owner's method on its run of a 1-d float64 array of radii:
        the edge table splits the radii into runs of one owner (blend or
        segment), and each owner answers its run in one call."""
        idx = np.searchsorted(self._fedges_array, rs, side="right")
        out = tuple(np.empty(rs.shape, d) for d in dtypes)
        order = np.argsort(idx, kind="stable")
        idx = idx[order]
        cuts = (np.flatnonzero(idx[1:] != idx[:-1]) + 1).tolist()
        for a, b in zip([0, *cuts], [*cuts, len(idx)]):
            if a < b:  # an empty array has one empty run
                sel = order[a:b]
                for dst, src in zip(out, getattr(self._fowners[idx[a]], method)(rs[sel])):
                    dst[sel] = src
        return out

    def frame(self, rs) -> HFrame:
        """The exponent frame at a 1-d float64 array, by runs of one owner,
        or at a double, the owner's."""
        if rs.__class__ is not np.ndarray:
            return self._owner_at(rs).frame(rs)
        return HFrame(*self._by_owner(rs, "frame", (float, float, float)))

    def jet(self, r) -> Jet2:
        """Jet2 at a double radius, the owner's."""
        return self._owner_at(r).jet(r)

    def value(self, r):
        """h(r), equal to jet(r).value."""
        return self.jet(r).value

    def last_radius(self):
        return self.segments[-1].r_lo

    def breakpoints_float(self):
        """Finite blend edges, as floats (for quadrature panel splitting);
        each junction lies inside its blend, where h is C^3."""
        return sorted(p for b in self.blends for p in (b.lo, b.hi) if math.isfinite(p))


def smooth(segments) -> SmoothedH:
    """Blend every junction of a segment list with its exponent blend;
    SmoothedH checks the segments (MonotonicityLoss, ContinuityViolation)
    and that the blends are disjoint (BlendOverlap)."""
    return SmoothedH(segments, [Blend(right.r_lo, left, right)
                                for left, right in zip(segments, segments[1:])])


@dataclass
class ObservationCheck:
    ok: bool
    c: float
    C: float
    reason: str = ""


def verify_observation(h_old, h_new, interval, n: int = 2000) -> ObservationCheck:
    """Largest c and smallest C with, on the sampled interval,

        h_new' < 0,   |h_new'/h_new| > c |h_old'/h_old|,
        h_new''/h_new < C h_old''/h_old.

    Both arguments are positive h-role functions with a frame (a
    WarpingFunction, segment, blend or SmoothedH), read through
    `curvature.frame` at n midpoint samples of the interval taken as
    doubles (|h'/h| is p dy/dr).  The constants carry 0.99/1.01 safety
    margins off the grid inf/sup; ok is False when h_new fails to be
    positive and decreasing somewhere or when no positive constants exist
    (e.g. the reference curvature ratio changes sign).
    """
    a, b = (float(x) for x in interval)
    rs = a + (b - a) * ((np.arange(n) + 0.5) / n)
    old, new = frame(h_old, rs), frame(h_new, rs)
    q_old, q_new = (c0 + c1 * inv_u(rs) for c0, c1 in map(decay_curvature, (old, new)))
    decreasing = (new.p > 0) & (new.log_h > -np.inf)
    bad = np.flatnonzero(~decreasing | ~(q_old < 0))
    if bad.size:
        i = int(bad[0])
        reason = (f"h_new is not positive and decreasing at r={rs[i]}" if not decreasing[i]
                  else f"reference curvature ratio <= 0 at r={rs[i]}")
        return ObservationCheck(False, 0.0, float("inf"), reason)
    c = 0.99 * float(np.min(np.abs(new.p / old.p)))
    C_sup = float(np.max(q_new / q_old))
    C = 1.01 * C_sup if C_sup > 0 else C_sup / 1.01
    return ObservationCheck(c > 0, c, C)


@dataclass
class ConstructionInvariants:
    junction_gaps: list  # relative continuity gap per junction
    monotone: bool  # strictly decreasing on the sampled grid
    blends_ok: bool  # replacement inequalities hold on every blend
    worst_c: float
    worst_C: float


def construction_invariants(sm: SmoothedH, r_min: float = 1e-3):
    """Junction continuity of the segments (the gaps sm measured when it was
    built), strict decrease of log h on 1e5 log-spaced samples from r_min
    to 1.3 x the last junction (1e6 without one), and the replacement
    inequalities (400 samples) against the left piece of every blend."""
    exps = np.linspace(np.log10(r_min), math.log10(_scan_top(sm)), 100_000)
    # 8,192 radii at a time, each chunk compared within and against the
    # previous chunk's last
    monotone, last = True, None
    for at in range(0, exps.size, 8192):
        with np.errstate(over="ignore"):  # frame raises OverflowError on inf
            rs = np.power(10.0, exps[at:at + 8192])
        log_h = frame(sm, rs).log_h
        ok = (last is None or log_h[0] < last) and np.all(log_h[1:] < log_h[:-1])
        monotone, last = monotone and bool(ok), log_h[-1]

    obs = [verify_observation(b.left, sm, (b.lo, b.hi), n=400) for b in sm.blends]
    return ConstructionInvariants(sm.gaps, monotone, all(o.ok for o in obs),
                                  min((o.c for o in obs), default=math.inf),
                                  max((o.C for o in obs), default=0.0))


# -- positivity certification ------------------------------------------------


@dataclass
class RegimeMargin:
    label: str
    r: float  # log10 of the radius
    margin: float  # min over the regime of (1+r^2) * min-direction Ricci


@dataclass
class Certificate:
    k: int
    margins: list
    grid_size: int

    def worst(self):
        return min(self.margins, key=lambda m: m.margin)


def certification_grid(sm: SmoothedH, r_min: float = 1e-3, per_interval: int = 240):
    """Log-spaced radii covering [r_min, 1.3 * last junction], densified per
    structural interval (pieces, bridges, blends) with regime labels."""
    # structural edges: blend lo/hi and segment junctions
    marks = sorted([*(b.lo for b in sm.blends), *(b.hi for b in sm.blends),
                    *(s.r_lo for s in sm.segments[1:])])
    top = _scan_top(sm)
    cuts = [r_min, *(x for x in marks if r_min < x < top), top]

    grid, glabels = [], []
    for lo, hi in zip(cuts, cuts[1:]):
        la, lb = math.log10(lo), math.log10(hi)
        for i in range(per_interval):
            grid.append(10.0 ** (la + (lb - la) * (i + 0.5) / per_interval))
        # the cuts hold every owner's edges, so the radii strictly inside one
        # cut interval share an owner and a label
        glabels += [_regime_label(sm, grid[-1])] * per_interval
    return grid, glabels


def _scan_top(sm: SmoothedH):
    """Top of the sampled range: 1.3 x the last junction, or 1e6 when h has
    no junction."""
    last = sm.last_radius()
    return 1.3 * last if last > 0 else 1e6


def _short(x):
    return f"{x:.4g}"


def _regime_label(sm: SmoothedH, r):
    owner = sm._owner_at(r)
    if isinstance(owner, Blend):
        return f"blend@{_short(owner.R)}"
    return f"{owner.kind}(p={owner.p})"


def effective_exponent_max(sm: SmoothedH, grid) -> float:
    """max over the grid of the local decay exponent p = -h'/h (1+r^2)/(2r),
    equal to p on a pure (1+r^2)^(-p) stretch and between the joined
    exponents inside blends."""
    return float(np.max(frame(sm, grid).p))


def dimension_threshold(p: float) -> float:
    """max(4p+2, 16p^2+8p): the asymptotic sphere dimension above which a
    pure decay exponent p yields positive Ricci in all directions."""
    return max(4.0 * p + 2.0, 16.0 * p * p + 8.0 * p)


def certify_positive_ricci(
    sm_or_h, f: WarpingFunction, k_max: int, grid, labels
) -> Certificate:
    """Smallest sphere dimension k <= k_max with positive Ricci on the grid,
    each radius labelled with its regime (certification_grid's labels).

    h and f are framed once.  The k-slopes of all three directions (f's
    radial pair and sphere term, p times f's cross pair) must be >= 0, or
    ValueError is raised: then each direction's c0 and c1 are
    nondecreasing in k in doubles too, so the grid test (`scaled_ricci`
    and `positive`) is monotone in k and k is found by bisection.  Margins
    are reported as (1+r^2)-scaled minima per regime, the first radius of
    the smallest one in each, worst regime first.
    """
    rs = np.asarray(grid, dtype=float)
    hf, ff, s = frame(sm_or_h, rs), frame(f, rs), inv_u(rs)

    def certifies(k):
        return all(positive(c0, c1, s).all() for c0, c1 in scaled_ricci(ff, hf, k))

    def mins(k):
        return np.minimum.reduce([c0 + c1 * s for c0, c1 in scaled_ricci(ff, hf, k)])

    slopes = {"f radial c0": ff.radial[0], "f radial c1": ff.radial[1], "f sphere": ff.sphere,
              "p * f cross c0": hf.p * ff.cross[0], "p * f cross c1": hf.p * ff.cross[1]}
    for name, c in slopes.items():
        if not np.all(np.greater_equal(c, 0)):
            raise ValueError(f"certify_positive_ricci: k-slope {name} is negative on the grid "
                             f"(min {float(np.min(c))!r}), so the test is not monotone in k")
    ks = range(1, k_max + 1)
    i = bisect_left(ks, True, key=certifies)
    if i == len(ks):
        m = mins(k_max) if ks else np.full(len(grid), -math.inf)  # no k to try when k_max < 1
        j = int(np.argmin(m))
        raise NotCertified(k_max, RegimeMargin(labels[j], math.log10(grid[j]), float(m[j])))
    m = mins(ks[i])
    # integer codes of the regimes in order of first appearance; sorted by
    # code, then margin, then grid position, a regime's first row is its margin
    code = {}
    codes = np.array([code.setdefault(lab, len(code)) for lab in labels], dtype=np.intp)
    order = np.lexsort((m, codes))
    firsts = order[np.searchsorted(codes[order], np.arange(len(code)))].tolist()
    margins = [RegimeMargin(lab, math.log10(grid[j]), float(m[j])) for lab, j in zip(code, firsts)]
    return Certificate(ks[i], sorted(margins, key=lambda g: g.margin), len(grid))


# -- top-level builders ------------------------------------------------------


def build_oscillating_h(params, radius_bound: float = 1e300):
    """(ladder, smoothed h) for an OscillationParams or an ExponentSchedule:
    the ladder's segments (sm.segments) blended at every junction."""
    ladder = build_scale_ladder(params, radius_bound)
    return ladder, smooth(ladder_segments(ladder))

