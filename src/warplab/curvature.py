"""Ricci curvature of doubly warped products dr^2 + f^2 ds_k^2 + h^2 ds_1^2.

The three principal directions on [0,inf) x S^k x S^1:

    radial:  Ric(dr,dr)   = -h''/h - k f''/f
    circle:  Ric(Y,Y)     = -h''/h - k f'h'/(fh)        (Y unit along S^1)
    sphere:  Ric(U,U)     = -f''/f + (k-1)(1-f'^2)/f^2 - f'h'/(fh)

The sphere-direction expression is the standard multiply-warped formula; it
is gated behind a mandatory agreement test against the coordinate-based
Christoffel oracle (see christoffel.py) since only that oracle certifies it.

At r = 0 the terms f''/f, (1-f'^2)/f^2 and (f'/f)(h'/h) are removable 0/0
forms; they are reported through Richardson extrapolation in r^2 (accuracy
~1e-9 for analytic profiles) and never feed certification grids, which use
r >= r_min > 0 throughout.
"""

from dataclasses import dataclass

import mpmath
import numpy as np

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


def mixed_log_grid(lo, hi_log10: float, n: int, float_cutoff_log10: float = 69.0):
    """Log grid that returns floats below 10^float_cutoff_log10 and mpmath
    scalars above, so huge-radius tails of piecewise models stay evaluable."""
    parts = mixed_log_chunks(lo, hi_log10, n, max(n, 1), float_cutoff_log10)
    return [r for part in parts for r in part]


def mixed_log_chunks(lo, hi_log10: float, n: int, size: int, float_cutoff_log10: float = 69.0):
    """mixed_log_grid as consecutive lists of at most `size` radii, so a scan
    of a long grid never holds all of it.  The floats are Python's scalar
    10.0**e (np.power may differ by an ulp)."""
    exps = np.linspace(np.log10(lo), float(hi_log10), n)
    for a in range(0, n, size):
        yield [10.0**e if e <= float_cutoff_log10 else mpmath.mpf(10) ** mpmath.mpf(e)
               for e in exps[a:a + size].tolist()]


def grid_parts(grid):
    """(positions, radii) parts of a grid of floats and mpmath scalars: the
    float radii first, as one float64 array, then each other radius alone,
    so a check evaluates the floats in one array call."""
    pos_f = [i for i, r in enumerate(grid) if isinstance(r, float)]
    if pos_f:
        yield pos_f, np.array([grid[i] for i in pos_f], dtype=float)
    for i, r in enumerate(grid):
        if not isinstance(r, float):
            yield [i], r


def _check_positive(r, f_value, h_value):
    if f_value <= 0 or h_value <= 0:
        raise NonPositiveWarping(
            f"f({r})={f_value}, h({r})={h_value}; warping must be positive for r > 0"
        )


def _richardson_even_limit(g, r0=1e-2, levels=5):
    """Limit of an even analytic function g(r) as r -> 0, by Richardson
    extrapolation on the r^2 expansion (halving steps, factor-4 table)."""
    t = [[g(r0 / 2.0**j)] for j in range(levels)]
    for mcol in range(1, levels):
        fac = 4.0**mcol
        for j in range(mcol, levels):
            t[j].append((fac * t[j][mcol - 1] - t[j - 1][mcol - 1]) / (fac - 1.0))
    return t[levels - 1][levels - 1]


def ricci_radial(m: DoublyWarpedMetric, r):
    if r == 0:
        h0 = m.h(0.0)
        lim_ff = _richardson_even_limit(lambda s: m.f(s).d2 / m.f(s).value)
        return -h0.d2 / h0.value - m.k * lim_ff
    fj, hj = m.f(r), m.h(r)
    _check_positive(r, fj.value, hj.value)
    return -hj.d2 / hj.value - m.k * fj.d2 / fj.value


def ricci_circle(m: DoublyWarpedMetric, r):
    if r == 0:
        # f'/f -> 1/r offsets h'(0)=0: (f'/f)(h'/h) -> h''(0)/h(0).
        h0 = m.h(0.0)
        lim = _richardson_even_limit(
            lambda s: (m.f(s).d1 / m.f(s).value) * (m.h(s).d1 / m.h(s).value)
        )
        return -h0.d2 / h0.value - m.k * lim
    fj, hj = m.f(r), m.h(r)
    _check_positive(r, fj.value, hj.value)
    return -hj.d2 / hj.value - m.k * (fj.d1 * hj.d1) / (fj.value * hj.value)


def ricci_sphere(m: DoublyWarpedMetric, r):
    if r == 0:
        lim_ff = _richardson_even_limit(lambda s: m.f(s).d2 / m.f(s).value)
        lim_k = _richardson_even_limit(
            lambda s: (1.0 - m.f(s).d1 ** 2) / m.f(s).value ** 2
        )
        lim_fh = _richardson_even_limit(
            lambda s: (m.f(s).d1 / m.f(s).value) * (m.h(s).d1 / m.h(s).value)
        )
        return -lim_ff + (m.k - 1) * lim_k - lim_fh
    fj, hj = m.f(r), m.h(r)
    _check_positive(r, fj.value, hj.value)
    return (
        -fj.d2 / fj.value
        + (m.k - 1) * (1 - fj.d1 * fj.d1) / (fj.value * fj.value)
        - (fj.d1 * hj.d1) / (fj.value * hj.value)
    )


def ricci_report(m: DoublyWarpedMetric, r) -> RicciReport:
    return RicciReport(r, ricci_radial(m, r), ricci_circle(m, r), ricci_sphere(m, r))


def ricci_components(m: DoublyWarpedMetric, rs):
    """ricci_report's three directions at a 1-d float64 array of radii > 0,
    as (radial, circle, sphere) arrays.  f and h are read once for the whole
    array, and each entry runs ricci_radial/_circle/_sphere's operations in
    their order, so it has the scalar bits (an object entry where h was
    promoted to mpmath at that radius)."""
    fj, hj = m.f(rs), m.h(rs)
    fv, hv, _ = np.broadcast_arrays(fj.value, hj.value, rs)
    bad = np.flatnonzero(np.asarray(fv <= 0, dtype=bool) | np.asarray(hv <= 0, dtype=bool))
    if bad.size:
        i = int(bad[0])
        _check_positive(rs.tolist()[i], fv.tolist()[i], hv.tolist()[i])
    radial = -hj.d2 / hj.value - m.k * fj.d2 / fj.value
    circle = -hj.d2 / hj.value - m.k * (fj.d1 * hj.d1) / (fj.value * hj.value)
    sphere = (
        -fj.d2 / fj.value
        + (m.k - 1) * (1 - fj.d1 * fj.d1) / (fj.value * fj.value)
        - (fj.d1 * hj.d1) / (fj.value * hj.value)
    )
    return tuple(np.broadcast_to(c, rs.shape) for c in (radial, circle, sphere))


def ricci_positive_on_grid(m: DoublyWarpedMetric, grid):
    """True iff all three Ricci directions are positive at every grid radius.

    Returns ``(ok, worst)`` where worst is the RicciReport with the smallest
    minimum value.  Grid scalars may be floats or mpmath values; the floats
    are evaluated in one array call (`ricci_components`), the others one by
    one, and comparisons stay in the input arithmetic so huge-radius tails
    never underflow.
    """
    if len(grid) == 0:
        raise ValueError("empty grid")
    if any(r <= 0 for r in grid):
        raise ValueError("grid radii must be positive")
    rows = [None] * len(grid)
    for pos, r in grid_parts(grid):
        if isinstance(r, np.ndarray):
            for i, *row in zip(pos, *(c.tolist() for c in ricci_components(m, r))):
                rows[i] = row
        else:
            rep = ricci_report(m, r)
            rows[pos[0]] = (rep.ric_radial, rep.ric_circle, rep.ric_sphere)
    lows = [min(row) for row in rows]  # RicciReport.min_value
    worst = min(range(len(rows)), key=lows.__getitem__)  # the first smallest
    return all(low > 0 for low in lows), RicciReport(grid[worst], *rows[worst])
