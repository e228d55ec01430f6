"""Ricci curvature of doubly warped products dr^2 + f^2 ds_k^2 + h^2 ds_1^2.

The three principal directions on [0,inf) x S^k x S^1:

    radial:  Ric(dr,dr)   = -h''/h - k f''/f
    circle:  Ric(Y,Y)     = -h''/h - k f'h'/(fh)        (Y unit along S^1)
    sphere:  Ric(U,U)     = -f''/f + (k-1)(1-f'^2)/f^2 - f'h'/(fh)

The sphere-direction expression is the standard multiply-warped formula; it
is gated behind a mandatory agreement test against the coordinate-based
Christoffel oracle (see christoffel.py) since only that oracle certifies it.

Every dense check (the curvature grids here, and the blend scans,
replacement inequalities and certification of `smoothing`) samples double
radii and reads f and h through `jets_at`, which alone decides which radii
are read in mpmath.  For r > 0 the formulas above are written once, in
`ricci_components`; a single radius is a one-element call.

At r = 0 the terms f''/f, (1-f'^2)/f^2 and (f'/f)(h'/h) are removable 0/0
forms; they are reported through Richardson extrapolation in r^2 (accuracy
~1e-9 for analytic profiles) and never feed certification grids, which use
r >= r_min > 0 throughout.
"""

from dataclasses import dataclass

import mpmath
import numpy as np

from .jets import Jet2
from .warping import WarpingFunction


class NonPositiveWarping(ValueError):
    """A warping function is non-positive at a positive radius."""


@dataclass(frozen=True)
class DoublyWarpedMetric:
    k: int
    f: WarpingFunction
    h: WarpingFunction

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"sphere dimension k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class RicciReport:
    r: float
    ric_radial: float
    ric_circle: float
    ric_sphere: float

    @property
    def min_value(self):
        return min(self.ric_radial, self.ric_circle, self.ric_sphere)


def log_grid(lo: float, hi: float, n: int = 4000):
    """Logarithmically spaced sample radii; density is configurable."""
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    return np.logspace(np.log10(lo), np.log10(hi), n)


_MP_EVAL_CUTOFF = 1e70  # radii past this are read in mpmath
# a double |fn| below this times 1 + r^2 leaves fn'' ~ fn/r^2 within 53 bits
# of the subnormals, so that entry is read in mpmath too
_UNDERFLOW_SCALE = 2.0**-969


def jets_at(fn, rs):
    """(x, Jet2 of arrays): fn's jets at a sequence of double radii, the one
    place the dense checks decide where doubles stop and mpmath takes over.

    The radii up to _MP_EVAL_CUTOFF go to fn in one float64 array call (fn
    promotes what it must itself); each radius past it, and each whose
    double |fn| would leave fn'' underflowing (|fn| < 2^-969 (1 + r^2)), is
    read as fn(mpf(r)).  x holds the radii, as mpf where they were read in
    mpmath, so 1 + x*x stays exact there; every component has the shape of
    rs, float64 where no entry was read in mpmath and object otherwise.
    A radius past the double range (a ladder above about 1.4e308) raises
    OverflowError."""
    rs = np.asarray(rs, dtype=float)
    if not np.isfinite(rs).all():
        raise OverflowError("a sampled radius is past the double range; the dense checks "
                            "sample double radii")
    head = rs <= _MP_EVAL_CUTOFF
    hr = rs[head]
    j = fn(hr)
    comps = np.broadcast_arrays(j.value, j.d1, j.d2, hr)[:3]
    v = comps[0]
    lost = np.asarray(np.abs(v) < _UNDERFLOW_SCALE * (1.0 + hr * hr), dtype=bool)
    if v.dtype == object:  # the entries fn promoted are mpf already
        lost &= np.array([a.__class__ is float for a in v.tolist()], dtype=bool)
    read_mp = ~head
    read_mp[head] = lost
    if not read_mp.any():
        return rs, Jet2(*comps)
    x = rs.astype(object)
    out = [np.empty(rs.shape, object) for _ in comps]
    for dst, src in zip(out, comps):
        dst[head] = src
    for i in np.flatnonzero(read_mp).tolist():
        x[i] = mpmath.mpf(x[i])
        j = fn(x[i])
        out[0][i], out[1][i], out[2][i] = j.value, j.d1, j.d2
    return x, Jet2(*out)


def _richardson_even_limit(g, r0=1e-2, levels=5):
    """Limit of an even analytic function g(r) as r -> 0, by Richardson
    extrapolation on the r^2 expansion (halving steps, factor-4 table)."""
    t = [[g(r0 / 2.0**j)] for j in range(levels)]
    for mcol in range(1, levels):
        fac = 4.0**mcol
        for j in range(mcol, levels):
            t[j].append((fac * t[j][mcol - 1] - t[j - 1][mcol - 1]) / (fac - 1.0))
    return t[levels - 1][levels - 1]


def _axis_report(m: DoublyWarpedMetric) -> RicciReport:
    """The three directions at r = 0.  f''/f, (1-f'^2)/f^2 and (f'/f)(h'/h)
    are removable 0/0 forms there, taken by Richardson extrapolation; f'/f
    -> 1/r offsets h'(0) = 0, so (f'/f)(h'/h) -> h''(0)/h(0)."""
    h0 = m.h(0.0)
    lim_ff = _richardson_even_limit(lambda s: m.f(s).d2 / m.f(s).value)
    lim_k = _richardson_even_limit(lambda s: (1.0 - m.f(s).d1 ** 2) / m.f(s).value ** 2)
    lim_fh = _richardson_even_limit(
        lambda s: (m.f(s).d1 / m.f(s).value) * (m.h(s).d1 / m.h(s).value)
    )
    hh = -h0.d2 / h0.value
    return RicciReport(0.0, hh - m.k * lim_ff, hh - m.k * lim_fh,
                       -lim_ff + (m.k - 1) * lim_k - lim_fh)


def ricci_report(m: DoublyWarpedMetric, r) -> RicciReport:
    """The three directions at one radius r >= 0: a one-element
    ricci_components call for r > 0, the axis limits at r = 0."""
    if r == 0:
        return _axis_report(m)
    return RicciReport(r, *(c.tolist()[0] for c in ricci_components(m, [r])))


def ricci_radial(m: DoublyWarpedMetric, r):
    return ricci_report(m, r).ric_radial


def ricci_circle(m: DoublyWarpedMetric, r):
    return ricci_report(m, r).ric_circle


def ricci_sphere(m: DoublyWarpedMetric, r):
    return ricci_report(m, r).ric_sphere


def ricci_components(m: DoublyWarpedMetric, rs):
    """The three directions at a sequence of double radii > 0, as (radial,
    circle, sphere) arrays: the formulas of the module docstring, on f and h
    read once through `jets_at`.  An entry read in mpmath is an mpf in an
    object array."""
    rs = np.asarray(rs, dtype=float)
    _, fj = jets_at(m.f, rs)
    _, hj = jets_at(m.h, rs)
    bad = np.flatnonzero(np.asarray(fj.value <= 0, dtype=bool)
                         | np.asarray(hj.value <= 0, dtype=bool))
    if bad.size:
        r, fv, hv = rs[bad[0]], fj.value[bad[0]], hj.value[bad[0]]
        raise NonPositiveWarping(
            f"f({r})={fv}, h({r})={hv}; warping must be positive for r > 0")
    radial = -hj.d2 / hj.value - m.k * fj.d2 / fj.value
    circle = -hj.d2 / hj.value - m.k * (fj.d1 * hj.d1) / (fj.value * hj.value)
    sphere = (
        -fj.d2 / fj.value
        + (m.k - 1) * (1 - fj.d1 * fj.d1) / (fj.value * fj.value)
        - (fj.d1 * hj.d1) / (fj.value * hj.value)
    )
    return radial, circle, sphere


def ricci_positive_on_grid(m: DoublyWarpedMetric, grid):
    """True iff all three Ricci directions are positive at every grid radius.

    Returns ``(ok, worst)`` where worst is the RicciReport with the smallest
    minimum value.  The double radii are read in one `ricci_components`
    call, and comparisons stay in its arithmetic (mpf where an entry was
    read in mpmath), so huge-radius tails never underflow.
    """
    if len(grid) == 0:
        raise ValueError("empty grid")
    if any(r <= 0 for r in grid):
        raise ValueError("grid radii must be positive")
    rows = list(zip(*(c.tolist() for c in ricci_components(m, grid))))
    lows = [min(row) for row in rows]  # RicciReport.min_value
    worst = min(range(len(rows)), key=lows.__getitem__)  # the first smallest
    return all(low > 0 for low in lows), RicciReport(grid[worst], *rows[worst])
