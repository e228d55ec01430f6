"""Ricci curvature of doubly warped products dr^2 + f^2 ds_k^2 + h^2 ds_1^2.

The three principal directions on [0,inf) x S^k x S^1:

    radial:  Ric(dr,dr)   = -h''/h - k f''/f
    circle:  Ric(Y,Y)     = -h''/h - k f'h'/(fh)        (Y unit along S^1)
    sphere:  Ric(U,U)     = -f''/f + (k-1)(1-f'^2)/f^2 - f'h'/(fh)

The sphere-direction expression is the standard multiply-warped formula; it
is gated behind a mandatory agreement test against the coordinate-based
Christoffel oracle (see christoffel.py) since only that oracle certifies it.

With the frames of `warping` (h'/h = -p dy/dr, y = log(1+r^2)), each
direction times 1+r^2 is c0 + c1 s, s = 1/(1+r^2), written once in
`scaled_ricci`.  For standard f, S = (1+r^2)(1-f'^2)/f^2 and h of exponent p:

    radial:  (k/4 - 4p^2 - 2p + 4p_y) + s (4p^2 + 4p - 4p_y + 5k/4)
    circle:  (pk - 4p^2 - 2p + 4p_y) + s (4p^2 + pk + 4p - 4p_y)
    sphere:  (1 + 5s)/4 + (k-1) S + p (1 + s)

At an integer threshold k = 16p^2 + 8p (p = 1/2, 3/2, 3) the radial c0 is
exactly 0 in doubles, and `positive` decides on c1 where c0 == 0 (s is 0.0
past about 1.3e154).  Every dense check (the grids here; the decrease scan,
replacement inequalities and certification of `smoothing`) reads frames at
double radii, with no mpmath; a radius past the double range raises
OverflowError.

At r = 0 the terms f''/f, (1-f'^2)/f^2 and (f'/f)(h'/h) are removable 0/0
forms; they are reported through Richardson extrapolation in r^2 (accuracy
~1e-9 for analytic profiles) and never feed certification grids, which use
r >= r_min > 0 throughout.
"""

from dataclasses import dataclass

import numpy as np

from .warping import FFrame, HFrame, WarpingFunction, inv_u


class NonPositiveWarping(ValueError):
    """A warping function is non-positive at a positive radius."""


@dataclass(frozen=True)
class DoublyWarpedMetric:
    k: int
    f: WarpingFunction
    # or a SmoothedH: the checks here read its frame, the Christoffel oracle its value
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


def frame(fn, rs):
    """fn's own closed-form frame at double radii r > 0: the HFrame of an
    h-role function (a SmoothedH, segment, blend or WarpingFunction), the
    FFrame of an f-role one; log h or log f is NaN or -inf where fn <= 0."""
    rs = np.asarray(rs, dtype=float)
    if not np.isfinite(rs).all():
        raise OverflowError("a sampled radius is past the double range")
    return fn.frame(rs)


def decay_curvature(hf: HFrame):
    """-(1+r^2) h''/h as (c0, c1): (-4p^2 - 2p + 4p_y) + s (4p^2 + 4p - 4p_y)."""
    p, p_y = hf.p, hf.p_y
    q = 4.0 * p * p
    return (-q - 2.0 * p) + 4.0 * p_y, (q + 4.0 * p) - 4.0 * p_y


def scaled_ricci(ff: FFrame, hf: HFrame, k):
    """(radial, circle, sphere) times 1+r^2, each as (c0, c1) standing for
    c0 + c1 s: the formulas of the module docstring, for any frames."""
    h0, h1 = decay_curvature(hf)
    (a0, a1), (b0, b1), p = ff.radial, ff.cross, hf.p
    return ((k * a0 + h0, k * a1 + h1), (k * p * b0 + h0, k * p * b1 + h1),
            (a0 + (k - 1) * ff.sphere + p * b0, a1 + p * b1))


def positive(c0, c1, s):
    """Where c0 + c1 s > 0, deciding on c1 where c0 == 0 (s may be 0.0)."""
    return (c0 + c1 * s > 0) | ((c0 == 0) & (c1 > 0))


def _scaled(m: DoublyWarpedMetric, rs):
    """s and the scaled directions of m at double radii r > 0."""
    rs = np.asarray(rs, dtype=float)
    ff, hf = frame(m.f, rs), frame(m.h, rs)
    bad = np.flatnonzero(~(ff.log_f > -np.inf) | ~(hf.log_h > -np.inf))
    if bad.size:
        i = bad[0]
        raise NonPositiveWarping(f"log f = {ff.log_f[i]}, log h = {hf.log_h[i]} at r = {rs[i]}")
    return inv_u(rs), scaled_ricci(ff, hf, m.k)


def _axis_report(m: DoublyWarpedMetric) -> RicciReport:
    """The three directions at r = 0, each extrapolated from r = 1e-2 / 2^j,
    j < 5, by Richardson's factor-4 table on its r^2 expansion."""
    t = [np.array(row) for row in zip(*ricci_components(m, 1e-2 / 2.0 ** np.arange(5)))]
    for mcol in range(1, 5):
        fac = 4.0**mcol
        t = [(fac * b - a) / (fac - 1.0) for a, b in zip(t, t[1:])]
    return RicciReport(0.0, *t[0].tolist())


def ricci_report(m: DoublyWarpedMetric, r) -> RicciReport:
    """The three directions at one radius r >= 0: a one-element
    ricci_components call for r > 0, the axis limits at r = 0."""
    if r == 0:
        return _axis_report(m)
    return RicciReport(r, *(c.tolist()[0] for c in ricci_components(m, [r])))


def ricci_components(m: DoublyWarpedMetric, rs):
    """(radial, circle, sphere) float64 arrays at double radii > 0: the scaled
    directions of f's and h's frames, over 1 + r^2 (0.0 past about 1.3e154)."""
    s, dirs = _scaled(m, rs)
    return tuple((c0 + c1 * s) * s for c0, c1 in dirs)


def ricci_grid(m: DoublyWarpedMetric, grid):
    """``(components, ok, worst)`` from one frame pass over the grid:
    ricci_components at the grid radii, ok iff all three directions are
    `positive` at every grid radius, and worst the (first) RicciReport with
    the smallest minimum."""
    grid = np.asarray(grid, dtype=float)
    if len(grid) == 0:
        raise ValueError("empty grid")
    if (grid <= 0).any():
        raise ValueError("grid radii must be positive")
    s, dirs = _scaled(m, grid)
    ok = all(positive(c0, c1, s).all() for c0, c1 in dirs)
    rows = tuple((c0 + c1 * s) * s for c0, c1 in dirs)
    worst = int(np.argmin(np.minimum.reduce(rows)))
    return rows, ok, RicciReport(grid[worst].item(), *(float(c[worst]) for c in rows))

