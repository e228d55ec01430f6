"""Cutoff smoothing of piecewise warping functions.

Each junction R gets a one-sided blend: entering a steeper piece the blend
sits on [R, 1.2R], entering a shallower one on [0.8R, R]; this is what
keeps the smoothed function strictly decreasing.  The cutoff is the unique
quintic with value/slope/curvature-matched plateaus, affinely placed so
the plateaus occupy the outer 5% of the blend (fractions 1.01/1.19 of R on
the upper side, mirrored below) and the midpoint takes value 1/2.  Its
normalized slope and curvature sups,

        R |phi'|  <= 1.875 / 0.18          ~ 10.417
        R^2|phi''| <= (10/sqrt(3)) / 0.18^2 ~ 178.20

are recorded on the CutoffSpec; the curvature changes sign exactly once, at the
midpoint (concave then convex), which the downstream curvature estimates
rely on.

Blended jets are exact: phi is polynomial and the pieces are closed forms,
so no divided differences enter this path.

At float radii a blend answers through its closed-form kernel (`Blend.kernel`),
which takes a double or a float64 array and writes out the Jet2 blend in
Jet2's operation order, so it builds no Jet2 and keeps the Jet2 bits.  A
SmoothedH evaluates an array by runs of one owner.  The dense checks below
(blend scan, strict-decrease scan, replacement inequalities, certification,
effective exponent) sample double radii and read h through
`curvature.jets_at`: one array call up to its mpmath cutoff, an mpf radius
past it and where h'' would underflow; the radii a kernel promotes stay on
Jet2 in mpmath.  A float read of the value alone runs a
value reader (`Blend.value_reader`), the kernel without h'' and with no
tuple built; a SmoothedH keeps one per float-table interval for the
quadratures and root-finders of `halfplane`.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, reduce

import mpmath
import numpy as np
from mpmath.libmp import (
    from_float,
    from_int,
    mpf_exp,
    mpf_log,
    mpf_mul,
    mpf_pow,
    round_nearest,
    to_float,
)

from .curvature import jets_at
from .jets import Jet2, _array_pow, _ndarray
from .ladder import build_scale_ladder
from .piecewise import (
    PiecewiseH,
    Segment,
    array_jet,
    build_piecewise_h,
    float_ceil,
    float_floor,
)
from .warping import WarpingFunction

_Q1_SUP = 1.875  # sup |q'| of the unit quintic
_Q2_SUP = 10.0 / math.sqrt(3.0)  # sup |q''|
_TEN = from_int(10)
_LN10 = mpf_log(_TEN, 63, round_nearest)  # log 10 as mpf_pow takes it at 53 bits


class BlendOverlap(RuntimeError):
    """Two smoothing blends intersect (corrupted ladder)."""


class MonotonicityLoss(RuntimeError):
    """The smoothed function stopped decreasing somewhere on a blend."""


class NotCertified(RuntimeError):
    """No sphere dimension up to the cap makes the Ricci grid positive."""

    def __init__(self, k_max, worst):
        super().__init__(f"no k <= {k_max} certifies positivity; worst margins {worst}")
        self.k_max = k_max
        self.worst = worst


def _quintic(x):
    """q, q', q'' of the plateau quintic on the unit interval, at a double or
    per element of a float64 array.  (1 - x)**2 is C pow, as in the scalar
    form: numpy's array ** 2 squares, which differs from pow by an ulp."""
    if x.__class__ is _ndarray:
        q = np.where(x <= 0.0, 1.0, 0.0)
        d1 = np.zeros_like(x)
        d2 = np.zeros_like(x)
        inner = ~((x <= 0.0) | (x >= 1.0))
        if inner.any():
            x = x[inner]
            q[inner] = 1.0 - x * x * x * (10.0 - 15.0 * x + 6.0 * x * x)
            d1[inner] = -30.0 * x * x * _array_pow(1.0 - x, 2)
            d2[inner] = -60.0 * x * (1.0 - x) * (1.0 - 2.0 * x)
        return q, d1, d2
    if x <= 0.0:
        return 1.0, 0.0, 0.0
    if x >= 1.0:
        return 0.0, 0.0, 0.0
    q = 1.0 - x * x * x * (10.0 - 15.0 * x + 6.0 * x * x)
    d1 = -30.0 * x * x * (1.0 - x) ** 2
    d2 = -60.0 * x * (1.0 - x) * (1.0 - 2.0 * x)
    return q, d1, d2


@dataclass(frozen=True)
class CutoffSpec:
    """Placement and observed bounds of the cutoff at one junction."""

    side: str  # "above": blend on [R, 1.2R]; "below": blend on [0.8R, R]
    lo_frac: float = None
    mid_frac: float = None
    hi_frac: float = None
    c1_bound: float = field(default=_Q1_SUP / 0.18)
    c2_bound: float = field(default=_Q2_SUP / 0.18**2)

    def __post_init__(self):
        if self.side not in ("above", "below"):
            raise ValueError(f"side must be 'above' or 'below', got {self.side!r}")
        base = (1.01, 1.1, 1.19) if self.side == "above" else (0.81, 0.9, 0.99)
        object.__setattr__(self, "lo_frac", base[0] if self.lo_frac is None else self.lo_frac)
        object.__setattr__(self, "mid_frac", base[1] if self.mid_frac is None else self.mid_frac)
        object.__setattr__(self, "hi_frac", base[2] if self.hi_frac is None else self.hi_frac)

    def blend_fracs(self):
        return (1.0, 1.2) if self.side == "above" else (0.8, 1.0)

    def span_frac(self):
        return self.hi_frac - self.lo_frac

    def phi(self, r, R):
        """(phi, phi', phi'') at radius r for junction radius R."""
        span = self.span_frac() * R
        x = (r - self.lo_frac * R) / span
        xf = float(x) if not isinstance(x, mpmath.mpf) else x
        q, d1, d2 = _quintic(float(xf))
        one = r * 0 + 1.0  # scalar-type carrier
        return q * one, (d1 / span) * one, (d2 / (span * span)) * one


@dataclass(frozen=True)
class Blend:
    R: object  # junction radius (mpf)
    spec: CutoffSpec
    left: Segment
    right: Segment
    lo: object  # blend interval (mpf)
    hi: object
    # plateau edges (mpf) and their float views, and the cutoff's float
    # placement (start, span) as spec.phi forms it at float(R); set once in
    # __post_init__
    _plateaus: tuple = field(init=False, repr=False, compare=False)
    _plateaus_f: tuple = field(init=False, repr=False, compare=False)
    _place_f: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo_p = self.spec.lo_frac * self.R
        hi_p = self.spec.hi_frac * self.R
        Rs = float(self.R)
        object.__setattr__(self, "_plateaus", (lo_p, hi_p, self.R))
        object.__setattr__(self, "_plateaus_f", (float_floor(lo_p), float_ceil(hi_p), Rs))
        object.__setattr__(self, "_place_f", (self.spec.lo_frac * Rs, self.spec.span_frac() * Rs))

    def kernel(self, r):
        """(h, h', h'', promoted) at a double or a float64 array of radii,
        bit-identical to the Jet2 blend: the pieces' kernels on the plateaus,
        and between them phi*hl + (1-phi)*hr written out in Jet2's operation
        order.  promoted marks a promoted piece and a blend that degenerates
        in doubles (h <= 0, h' == 0 or h not finite); jet() redoes those."""
        lo_plateau, hi_plateau, _ = self._plateaus_f
        if r.__class__ is not _ndarray:
            if r <= lo_plateau:
                return self.left.kernel(r)
            if r >= hi_plateau:
                return self.right.kernel(r)
            return self._mix(r)
        out = (np.empty_like(r), np.empty_like(r), np.empty_like(r), np.empty(r.shape, bool))
        left = r <= lo_plateau
        right = r >= hi_plateau
        for mask, part in ((left, self.left.kernel), (right, self.right.kernel),
                           (~(left | right), self._mix)):
            if mask.any():
                for dst, src in zip(out, part(r[mask])):
                    dst[mask] = src
        return out

    def _mix(self, r):
        start, span = self._place_f
        p, p1, p2 = _quintic((r - start) / span)  # spec.phi at float(R)
        p1 = p1 / span
        p2 = p2 / (span * span)
        lv, l1, l2, l_promoted = self.left.kernel(r)
        rv, r1, r2, r_promoted = self.right.kernel(r)
        q = 1.0 - p
        v = p * lv + q * rv
        d1 = (p1 * lv + p * l1) + (-p1 * rv + q * r1)
        d2 = (p2 * lv + 2 * p1 * l1 + p * l2) + (-p2 * rv + 2 * -p1 * r1 + q * r2)
        if r.__class__ is _ndarray:
            degenerate = (v <= 0.0) | (d1 == 0.0) | ~np.isfinite(v)
            return v, d1, d2, l_promoted | r_promoted | degenerate
        degenerate = v <= 0.0 or d1 == 0.0 or not math.isfinite(v)
        return v, d1, d2, l_promoted or r_promoted or degenerate

    def jet(self, r) -> Jet2:
        """Jet2 at a float, an mpf or a float64 array of radii (a Jet2 of
        arrays, see `array_jet`)."""
        if isinstance(r, (mpmath.mpf, mpmath.mpc)):
            return self._jet2(r, self._plateaus)
        if r.__class__ is _ndarray:
            return array_jet(self.kernel(r), r, self.jet)
        v, d1, d2, promoted = self.kernel(r)
        return self._jet2(r, self._plateaus_f) if promoted else Jet2(v, d1, d2)

    def value_reader(self, promote):
        """The value-only float path: a closure r -> h(r) at a double r, with
        the bits of kernel(r)'s value.  The pieces' value readers answer on
        the plateaus; between them the quintic's q and q' and both pieces'
        (h, h') mix in _mix's order, h' only for the degeneracy test.  A
        radius the kernel would promote answers promote(r)."""
        lo_plateau, hi_plateau, _ = self._plateaus_f
        start, span = self._place_f
        left_value, right_value = self.left.value_reader(promote), self.right.value_reader(promote)
        # each piece as Segment.kernel forms it: a unit piece's C is 1.0 (an
        # exact product) and its slope the ratio form v*(q*g1); a bridge's
        # slope is (v*q)*g1, and a constant out of float range reads as NaN,
        # which its promotion test catches (radii between plateaus are > 0)
        (lq, lcf, lunit), (rq, rcf, runit) = (
            (-s.p, math.nan if s._cf is None else s._cf, s._unit) for s in (self.left, self.right))
        isfinite = math.isfinite

        def blend_value(r):
            if r <= lo_plateau:
                return left_value(r)
            if r >= hi_plateau:
                return right_value(r)
            x = (r - start) / span  # _quintic without q''
            if x <= 0.0:
                p, p1 = 1.0, 0.0
            elif x >= 1.0:
                p, p1 = 0.0, 0.0
            else:
                p = 1.0 - x * x * x * (10.0 - 15.0 * x + 6.0 * x * x)
                p1 = -30.0 * x * x * (1.0 - x) ** 2
            p1 = p1 / span
            u0 = 1.0 + r * r
            g1 = 2.0 * r / u0
            lv = lcf * u0**lq
            l1 = lv * (lq * g1) if lunit else lv * lq * g1
            rv = rcf * u0**rq
            r1 = rv * (rq * g1) if runit else rv * rq * g1
            q = 1.0 - p
            v = p * lv + q * rv
            d1 = (p1 * lv + p * l1) + (-p1 * rv + q * r1)
            if (v <= 0.0 or d1 == 0.0 or not isfinite(v)
                    or not lunit and (lv == 0.0 or l1 == 0.0 or not isfinite(lv))
                    or not runit and (rv == 0.0 or r1 == 0.0 or not isfinite(rv))):
                return promote(r)
            return v
        return blend_value

    @cached_property
    def _value(self):
        """value()'s float reader, promoting to jet(r).value."""
        return self.value_reader(lambda r: self.jet(r).value)

    def value(self, r):
        """jet(r).value; a float r that needs no promotion builds no Jet2."""
        if isinstance(r, float):
            return self._value(r)
        return self.jet(r).value

    def _jet2(self, r, plateaus):
        """The blend in Jet2 arithmetic: at an mpf r, and at a float r the
        kernel promoted.  A promoted piece mixes float phi with its mpf jet;
        a blend degenerate in doubles is redone exactly."""
        lo_plateau, hi_plateau, Rs = plateaus
        if r <= lo_plateau:
            return self.left.jet(r)
        if r >= hi_plateau:
            return self.right.jet(r)
        hl = self.left.jet(r)
        hr = self.right.jet(r)
        if isinstance(r, float) and isinstance(hl.value, float) and isinstance(hr.value, float):
            return self._jet2(mpmath.mpf(r), self._plateaus)
        phi_jet = Jet2(*self.spec.phi(r, Rs))
        return phi_jet * hl + (1.0 - phi_jet) * hr


class SmoothedH:
    """Piecewise warping with quintic blends across every junction.

    Outside all blend intervals evaluation is bit-identical to the base
    piecewise function; on each blend the value is sandwiched between the
    two pieces being joined.
    """

    def __init__(self, base: PiecewiseH, blends):
        self.base = base
        self.blends = sorted(blends, key=lambda b: mpmath.mpf(b.lo))
        for a, b in zip(self.blends, self.blends[1:]):
            if not (a.hi < b.lo):
                raise BlendOverlap(f"blends at {a.R} and {b.R} intersect")
        self._edges = ([b.lo for b in self.blends], [b.hi for b in self.blends])
        # one float table: every segment key and blend lo/hi key is an edge;
        # the safe-side edges make every double in [e_i, e_i+1) decide as e_i
        # does, so that interval's owner is the exact decision at e_i
        edges = sorted({*base._keys, *(float_ceil(x) for xs in self._edges for x in xs)})
        owners = [self._owner_at(mpmath.mpf(e)) for e in (-math.inf, *edges)]
        # an edge with one owner on both sides goes (a junction key a few ulps
        # from its blend's lo/hi key): neighbouring intervals differ in owner
        keep = [k for k in range(len(edges)) if owners[k + 1] is not owners[k]]
        self._fedges = [edges[k] for k in keep]
        self._fowners = [owners[0], *(owners[k + 1] for k in keep)]
        self._fedges_array = np.array(self._fedges)
        # one value reader per interval, as a double also where promoted
        self._fvalues = [o.value_reader(lambda r, o=o: float(o.jet(r).value))
                         for o in self._fowners]
        edges, readers = self._fedges, self._fvalues

        def float_value(r):
            """float(value(r)) at a float r: one bisect, then the interval's
            value reader."""
            return readers[bisect_right(edges, r)](r)
        self.float_value = float_value
        self._freach = self._reader_reach()

    def _reader_reach(self):
        """[lo, hi) per float-table interval, where its value reader reads as
        float_value does: the interval, and past an edge into a neighbour
        that reads the same piece.  A blend reads its left piece up to its
        lower plateau and its right piece from its upper one, so its reader
        reaches over the pieces' intervals next to it, and a piece's reader
        reaches over the plateau of a blend next to it."""
        owners = self._fowners
        starts, ends = [-math.inf, *self._fedges], [*self._fedges, math.inf]
        reach = []
        for i, o in enumerate(owners):
            lo, hi = starts[i], ends[i]
            below = owners[i - 1] if i > 0 else None
            above = owners[i + 1] if i + 1 < len(owners) else None
            if isinstance(o, Blend):
                lo = starts[i - 1] if below is o.left else lo
                hi = ends[i + 1] if above is o.right else hi
            else:
                lo = below._plateaus_f[1] if isinstance(below, Blend) and below.right is o else lo
                hi = above._plateaus_f[0] if isinstance(above, Blend) and above.left is o else hi
            reach.append((lo, hi))
        return reach

    def float_value_on(self, lo, hi):
        """A float reader for radii in [lo, hi]: the value reader of an
        interval whose reach holds both ends, a piece's before a blend's
        (a blend reads the piece after its plateau tests), else
        float_value."""
        found = self.float_value
        for i in range(bisect_right(self._fedges, lo), bisect_right(self._fedges, hi) + 1):
            r_lo, r_hi = self._freach[i]
            if r_lo <= lo and hi < r_hi:
                if not isinstance(self._fowners[i], Blend):
                    return self._fvalues[i]
                found = self._fvalues[i]
        return found

    def _owner_at(self, r):
        """The blend (lo <= r < hi) or else the segment that answers h at r:
        one bisect of the float table for a float r, exact comparisons for
        an mpf one (blends are sorted and disjoint)."""
        if isinstance(r, float):
            return self._fowners[bisect_right(self._fedges, r)]
        los, his = self._edges
        idx = bisect_right(los, r) - 1
        return self.blends[idx] if idx >= 0 and r < his[idx] else self.base.segment_at(r)

    def _blend_at(self, r):
        owner = self._owner_at(r)
        return owner if isinstance(owner, Blend) else None

    def kernel(self, rs):
        """(h, h', h'', promoted) at a 1-d float64 array of radii: the float
        table splits the radii into runs of one owner (blend or segment),
        and each owner's kernel answers its run in one call."""
        idx = np.searchsorted(self._fedges_array, rs, side="right")
        out = (np.empty_like(rs), np.empty_like(rs), np.empty_like(rs), np.empty(rs.shape, bool))
        order = np.argsort(idx, kind="stable")
        idx = idx[order]
        cuts = (np.flatnonzero(idx[1:] != idx[:-1]) + 1).tolist()
        for a, b in zip([0, *cuts], [*cuts, len(idx)]):
            if a < b:  # an empty array has one empty run
                sel = order[a:b]
                for dst, src in zip(out, self._fowners[idx[a]].kernel(rs[sel])):
                    dst[sel] = src
        return out

    def jet(self, r) -> Jet2:
        """Jet2 at a float, an mpf or a 1-d float64 array of radii (a Jet2 of
        arrays, see `array_jet`)."""
        if r.__class__ is _ndarray:
            return array_jet(self.kernel(r), r, self.jet)
        return self._owner_at(r).jet(r)

    def value(self, r):
        """h(r), equal to jet(r).value; a float r that needs no promotion
        builds no Jet2."""
        return self._owner_at(r).value(r)

    def __call__(self, r) -> Jet2:
        return self.jet(r)

    def as_warping(self, label="smoothed-h") -> WarpingFunction:
        return WarpingFunction(label, lambda x: self.jet(x.value))

    def last_radius(self):
        return self.base.segments[-1].r_lo

    def breakpoints_float(self, r_max=None):
        """Junctions and blend edges below r_max, as floats (for quadrature
        panel splitting)."""
        pts = []
        for b in self.blends:
            for x in (b.lo, b.R, b.hi):
                pts.append(float(x))
        for s in self.base.segments[1:]:
            pts.append(float(s.r_lo))
        pts = sorted(set(p for p in pts if math.isfinite(p)))
        if r_max is not None:
            pts = [p for p in pts if p < r_max]
        return pts


def smooth(
    hp: PiecewiseH,
    specs: dict | None = None,
    monotonicity_samples: int = 10_000,
    check: bool = True,
) -> SmoothedH:
    """Blend every junction of hp with its one-sided quintic cutoff.

    specs optionally overrides the CutoffSpec per junction index.  The
    smoothed function is sampled at `monotonicity_samples` points per blend
    and must be strictly decreasing there (MonotonicityLoss otherwise);
    disjointness of blends is asserted (BlendOverlap).
    """
    blends = []
    for idx, (left, right) in enumerate(zip(hp.segments, hp.segments[1:])):
        R = right.r_lo
        side = "above" if right.p > left.p else "below"
        spec = (specs or {}).get(idx) or CutoffSpec(side=side)
        f_lo, f_hi = spec.blend_fracs()
        blends.append(Blend(R, spec, left, right, f_lo * R, f_hi * R))
    sm = SmoothedH(hp, blends)
    if check:
        _check_blend_monotonicity(sm, monotonicity_samples)
    return sm


def _midpoints(n):
    """(i + 0.5) / n for i < n, the sample fractions of the blend checks."""
    return (np.arange(n) + 0.5) / n


def _check_blend_monotonicity(sm: SmoothedH, n: int):
    """h' < 0 at n midpoint samples of every blend, read through jets_at."""
    t = _midpoints(n)
    for b in sm.blends:
        lo, hi = float(b.lo), float(b.hi)
        rs = lo + (hi - lo) * t
        _, j = jets_at(b.jet, rs)
        bad = np.flatnonzero(~np.asarray(j.d1 < 0, dtype=bool))
        if bad.size:
            raise MonotonicityLoss(
                f"h_s' = {j.d1[bad[0]]} >= 0 at r = {rs[bad[0]]} inside blend at R = {b.R}"
            )


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

    Both arguments are jet-valued callables positive on the interval, read
    through `jets_at` at n midpoint samples of the interval taken as
    doubles: each is called once with the float64 array of the samples up
    to the mpmath cutoff and must return a Jet2 of arrays (Segment.jet,
    SmoothedH and WarpingFunction do), and with an mpf for each other
    sample.  The returned constants carry 0.99/1.01 safety margins off the
    grid inf/sup; ok is False when h_new fails to decrease somewhere or
    when no positive constants exist (e.g. the reference curvature ratio
    changes sign).
    """
    a, b = (float(x) for x in interval)
    rs = a + (b - a) * _midpoints(n)
    _, jo = jets_at(h_old, rs)
    _, jn = jets_at(h_new, rs)
    # entry by entry the per-radius arithmetic (object entries hold mpf)
    decreasing = np.asarray(jn.d1 < 0, dtype=bool)
    q_old = jo.d2 / jo.value
    bad = np.flatnonzero(~decreasing | np.asarray(q_old <= 0, dtype=bool))
    if bad.size:
        i = int(bad[0])
        reason = (f"h_new' >= 0 at r={rs[i]}" if not decreasing[i]
                  else f"reference curvature ratio <= 0 at r={rs[i]}")
        return ObservationCheck(False, 0.0, float("inf"), reason)
    ratio1 = abs(jn.d1 / jn.value) / abs(jo.d1 / jo.value)
    ratio2 = (jn.d2 / jn.value) / q_old
    # Python's running min/max: a NaN after the first entry is skipped
    c_inf = reduce(min, ratio1.tolist())
    C_sup = reduce(max, ratio2.tolist())
    c = 0.99 * float(c_inf)
    C = 1.01 * float(C_sup) if C_sup > 0 else float(C_sup) / 1.01
    return ObservationCheck(c > 0, c, C)


@dataclass
class ConstructionInvariants:
    junction_gaps: list  # relative continuity gap per junction
    monotone: bool  # strictly decreasing on the sampled grid
    blends_ok: bool  # replacement inequalities hold on every blend
    worst_c: float
    worst_C: float


_SCAN_CHUNK = 8192  # radii per array call of the strict-decrease scan


def construction_invariants(hp: PiecewiseH, sm: SmoothedH, r_min: float = 1e-3):
    """Junction continuity of hp, strict decrease of sm on 1e5 log-spaced
    samples from r_min to 1.3 x the last junction (1e6 without one), and
    the replacement inequalities (400 samples) against the left piece of
    every blend."""
    gaps = hp.check_continuity(rel_tol=math.inf)

    exps = np.linspace(np.log10(r_min), float(mpmath.log10(_scan_top(sm))), 100_000)
    monotone = True
    prev = math.inf
    for at in range(0, exps.size, _SCAN_CHUNK):
        # Python's scalar 10.0**e (np.power may differ by an ulp)
        rs = np.array([10.0**e for e in exps[at:at + _SCAN_CHUNK].tolist()])
        vals = jets_at(sm.jet, rs)[1].value
        if not (vals[0] < prev and np.all(vals[1:] < vals[:-1])):
            monotone = False
            break
        prev = vals[-1]

    blends_ok = True
    worst_c, worst_C = math.inf, 0.0
    for b in sm.blends:
        chk = verify_observation(b.left.jet, sm, (b.lo, b.hi), n=400)
        blends_ok = blends_ok and chk.ok
        worst_c = min(worst_c, chk.c)
        worst_C = max(worst_C, chk.C)
    return ConstructionInvariants(gaps, monotone, blends_ok, worst_c, worst_C)


# -- positivity certification ------------------------------------------------


@dataclass
class RegimeMargin:
    label: str
    r: float  # log10 of the radius
    margin: float  # min over the regime of (1+r^2) * min-direction Ricci


@dataclass
class Certificate:
    k: int
    k_max: int
    margins: list
    grid_size: int

    def worst(self):
        return min(self.margins, key=lambda m: m.margin)


def certification_grid(sm: SmoothedH, r_min: float = 1e-3, per_interval: int = 240):
    """Log-spaced radii covering [r_min, 1.3 * last junction], densified per
    structural interval (pieces, bridges, blends) with regime labels."""
    # structural edges: blend lo/hi and segment junctions
    marks = [b.lo for b in sm.blends] + [b.hi for b in sm.blends]
    marks += [s.r_lo for s in sm.base.segments[1:]]
    marks.sort(key=mpmath.mpf)
    top = _scan_top(sm)

    cuts = [mpmath.mpf(r_min)]
    for x in marks:
        if r_min < x < top:
            cuts.append(mpmath.mpf(x))
    cuts.append(top)

    # e in doubles: mpf arithmetic at 53 bits rounds as doubles do
    grid, glabels = [], []
    for lo, hi in zip(cuts, cuts[1:]):
        la, lb = float(mpmath.log10(lo)), float(mpmath.log10(hi))
        for i in range(per_interval):
            e = la + (lb - la) * (i + 0.5) / per_interval
            grid.append(to_float(_pow10(e)))
        # the cuts hold every owner's edges, so the radii strictly inside one
        # cut interval share an owner and a label
        glabels += [_regime_label(sm, grid[-1])] * per_interval
    return grid, glabels


def _pow10(e):
    """mpf(10) ** e at 53 bits for a double e, as a raw mpf.  mpf_pow takes
    exp(e * log 10) with log 10 at 63 bits, and so does this, with log 10
    formed once; an integer or half-integer e goes through mpf_pow itself,
    which has branches of its own for them."""
    t = from_float(e)
    if t[2] >= -1:  # the binary exponent of e
        return mpf_pow(_TEN, t, 53, round_nearest)
    return mpf_exp(mpf_mul(t, _LN10), 53, round_nearest)


def _scan_top(sm: SmoothedH):
    """Top of the sampled range: 1.3 x the last junction, or 1e6 when h has
    no junction."""
    last = mpmath.mpf(sm.last_radius())
    return last * mpmath.mpf("1.3") if last > 0 else mpmath.mpf(1e6)


def _short(x):
    return mpmath.nstr(mpmath.mpf(x), 4)


def _regime_label(sm: SmoothedH, r):
    b = sm._blend_at(r)
    if b is not None:
        return f"blend@{_short(b.R)}"
    seg = sm.base.segment_at(r)
    return f"{seg.kind}(p={seg.p})"


def effective_exponent_max(sm: SmoothedH, grid=None) -> float:
    """sup over the grid of |h'/h| (1+r^2) / (2r): the local decay exponent,
    equal to p on a pure (1+r^2)^(-p) stretch and larger inside blends."""
    if grid is None:
        grid, _ = certification_grid(sm, per_interval=60)
    x, j = jets_at(sm.jet, grid)
    vals = abs(j.d1) * (1 + x * x) / (2 * x * j.value)
    # Python's running max: NaN entries are skipped
    return reduce(max, (float(v) for v in vals.tolist()), 0.0)


def dimension_threshold(p: float) -> float:
    """max(4p+2, 16p^2+8p): the asymptotic sphere dimension above which a
    pure decay exponent p yields positive Ricci in all directions."""
    return max(4.0 * p + 2.0, 16.0 * p * p + 8.0 * p)


def certify_positive_ricci(
    sm_or_h, f: WarpingFunction, k_max: int, grid=None, labels=None
) -> Certificate:
    """Smallest sphere dimension k <= k_max with positive Ricci on the grid.

    All three directions are nondecreasing in k, so the minimal certified k
    is found by scanning the per-point affine components once.  Margins are
    reported as (1+r^2)-scaled minima per structural regime, which keeps
    huge-radius tails away from float underflow without changing signs.
    """
    if grid is None:
        if not isinstance(sm_or_h, SmoothedH):
            raise ValueError("explicit grid required for plain warping functions")
        grid, labels = certification_grid(sm_or_h)
    if labels is None:
        labels = ["all"] * len(grid)

    n = len(grid)
    x, hj = jets_at(sm_or_h, grid)
    _, fj = jets_at(f, grid)
    w = 1 + x * x  # positive scale factor, keeps tails representable
    # an object entry (read in mpmath) becomes its float()
    t_h = np.asarray(-hj.d2 / hj.value * w, dtype=float)
    t_fr = np.asarray(-fj.d2 / fj.value * w, dtype=float)
    t_cr = np.asarray(-(fj.d1 / fj.value) * (hj.d1 / hj.value) * w, dtype=float)
    t_sp = np.asarray((1 - fj.d1 * fj.d1) / (fj.value * fj.value) * w, dtype=float)
    logr = np.array([math.log10(r) for r in grid])

    for k in range(1, k_max + 1):
        radial = t_h + k * t_fr
        circle = t_h + k * t_cr
        sphere = t_fr + (k - 1) * t_sp + t_cr
        mins = np.minimum(np.minimum(radial, circle), sphere)
        if np.all(mins > 0):
            margins = {}
            for lab in set(labels):
                idx = [i for i, L in enumerate(labels) if L == lab]
                j = min(idx, key=lambda i: mins[i])
                margins[lab] = RegimeMargin(lab, logr[j], float(mins[j]))
            return Certificate(k, k_max, sorted(margins.values(), key=lambda m: m.margin), n)

    radial = t_h + k_max * t_fr
    circle = t_h + k_max * t_cr
    sphere = t_fr + (k_max - 1) * t_sp + t_cr
    mins = np.minimum(np.minimum(radial, circle), sphere)
    j = int(np.argmin(mins))
    raise NotCertified(k_max, RegimeMargin(labels[j], logr[j], float(mins[j])))


# -- top-level builders ------------------------------------------------------


def build_oscillating_h(params, radius_bound: float = 1e300, check: bool = True):
    """Ladder -> piecewise -> smoothed for an OscillationParams or an
    ExponentSchedule, returning (ladder, piecewise, smoothed)."""
    ladder = build_scale_ladder(params, radius_bound)
    hp = build_piecewise_h(ladder)
    return ladder, hp, smooth(hp, check=check)


def pure_model_h(alpha: float) -> SmoothedH:
    """Degenerate single-exponent schedule: (1+r^2)^(-alpha) with no blends."""
    seg = Segment(mpmath.mpf(0), None, float(alpha), mpmath.mpf(1), "piece")
    return SmoothedH(PiecewiseH([seg]), [])
