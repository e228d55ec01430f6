"""Coordinate-based numerical Ricci oracle.

Assembles the metric tensor of dr^2 + f^2 ds_k^2 + h^2 ds_1^2 in
coordinates (r, theta_1..theta_k, phi) at a generic sphere point, forms
Christoffel symbols and the Ricci tensor from second-order central divided
differences of the metric components, and returns the three principal
values.  This path shares no formula and no differentiation machinery with
the closed forms of `curvature`, which read the closed-form frames of f
and h (h's exponent frame log h, p, p_y): agreement between the two is the
whole point, the certificate for the closed-form expressions.

The round factor ds_k^2 is written in nested spherical coordinates,
g_{theta_i theta_i} = prod_{j<i} sin^2(theta_j), so all metric components
are honest functions of the coordinates and the oracle never consumes a
curvature formula.  The metric is diagonal in these coordinates, and every
point of the difference stencil takes each coordinate from its three
values x - s, x and x + s.  So the stencil is assembled from coordinates
as stacked diagonals: f and h are read once per stencil radius and
sin^2 once per distinct angle, and each difference is one array
operation over all diagonal entries.  Since g^{-1} and the differences
of g are diagonal too, every sum over an index of g^{-1} has one nonzero
term: the Christoffel symbols and the two traces of their derivatives
that Ricci reads (n^3, not n^4, entries) are broadcast products of that
term, with the bits of the full-tensor contractions, and only the traces
and quadratic terms of the Ricci tensor are einsum contractions.

Each query runs at two step sizes from the fixed relative step _REL_STEP
at fixed sample angles (module constants); a Richardson consistency check
guards against a bad step and the extrapolated value is returned.  A pair
that fails the check is retried at halved steps a fixed number of times
before the oracle refuses, so a step too coarse for one radius is told
apart from a radius no step resolves.
"""

from functools import lru_cache

import numpy as np

from .curvature import DoublyWarpedMetric, RicciReport


class StepTooLarge(RuntimeError):
    """Divided-difference steps failed the Richardson consistency check at
    every step pair tried."""


_HALVINGS = 3  # retries of the step pair, each at half the steps of the last
_REL_STEP = 3e-3
_CONSISTENCY_TOL = 2e-4  # on |v(h) - v(h/2)| relative to 1 + |v|
_BASE_ANGLE = 1.0  # generic point; offsets avoid symmetry axes
_ANGLE_SPREAD = 0.07


@lru_cache(maxsize=None)
def _stencil_offsets(n):
    """Of the 1 + 2n^2 stencil points (the centre, +e_mu and -e_mu, then the
    corners (+,+), (+,-), (-,+), (-,-) of every pair mu < nu): each one's
    radius (0, 1, 2: r - s, r, r + s) and angle factors (indices into 1.0
    and sin^2 of each angle's three values); the pairs (mu, nu); and the
    row of d_mu d_nu in [second, mixed].  Read-only, one set per n."""
    eye = np.eye(n, dtype=np.intp)
    mu, nu = np.triu_indices(n, 1)
    corners = [a * eye[mu] + b * eye[nu] for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    offsets = np.concatenate([np.zeros((1, n), np.intp), eye, -eye, *corners]) + 1
    factors = np.zeros((len(offsets), n - 2), np.intp)
    factors[:, 1:] = 1 + 3 * np.arange(n - 3) + offsets[:, 1:n - 2]
    pair = np.diag(np.arange(n))
    pair[mu, nu] = pair[nu, mu] = n + np.arange(len(mu))
    out = (offsets[:, 0].copy(), factors, mu, nu, pair)  # not a view pinning all offsets
    for arr in out:
        arr.flags.writeable = False
    return out


def _stencil_derivatives(m: DoublyWarpedMetric, x, steps):
    """Metric g0 at x and its divided differences at one step set: d1[mu, a,
    b] = d_mu g_ab, and the diagonal dd[mu, nu, a] = d_mu d_nu g_aa of the
    second differences (d_mu d_nu g_ab is 0 where a != b).

    The metric at x = (r, thetas..., phi) is diagonal: 1, f^2 prod_{j<i}
    sin^2(theta_j) for the i-th angle, and h^2.  Every stencil point takes
    each coordinate from its three values x - steps, x and x + steps, so f
    and h are read once at each radius, and sin^2 once at each angle.  The
    diagonals of all stencil points are built as stacked rows, with the
    products in the order a point-by-point assembly would take them."""
    n = len(x)
    rsel, factors, mu, nu, pair = _stencil_offsets(n)
    r, s = x[0].item(), steps[0].item()
    # f and h keep their operand types: an mpf value makes object rows,
    # rounded to doubles when the diagonals are stored
    fh = zip(*[(m.f.value(rs), m.h.value(rs)) for rs in (r - s, r, r + s)])
    ff, hh = (np.array([v * v for v in vs]) for vs in fh)
    # sin^2 as a scalar power, like np.sin(t) ** 2 (an array's ** 2 squares,
    # which can round differently), at x_j - s_j, x_j and x_j + s_j exactly
    signs = np.array([-1.0, 0.0, 1.0])
    angles = np.sin(x[1:n - 2, None] + steps[1:n - 2, None] * signs).ravel().tolist()
    sin2 = np.array([1.0, *(t ** 2 for t in angles)])
    # prefix_i = prod_{j<i} sin^2(theta_j), multiplied left to right from 1.0
    prefix = np.multiply.accumulate(sin2[factors], axis=1)
    diag = np.empty((len(rsel), n))
    diag[:, 0] = 1.0
    diag[:, 1:n - 1] = ff[rsel][:, None] * prefix
    diag[:, n - 1] = hh[rsel]

    g0 = np.diag(diag[0])
    gp, gm = diag[1:1 + n], diag[1 + n:1 + 2 * n]
    pp, pm, mp, mm = diag[1 + 2 * n:].reshape(4, len(mu), n)
    d1 = np.zeros((n, n, n))
    d1.reshape(n, n * n)[:, ::n + 1] = (gp - gm) / (2.0 * steps)[:, None]
    sq = np.array([s ** 2 for s in steps.tolist()])  # a scalar power too
    second = (gp - 2.0 * diag[0] + gm) / sq[:, None]
    mixed = (pp - pm - mp + mm) / (4.0 * steps[mu] * steps[nu])[:, None]
    return g0, d1, np.concatenate([second, mixed])[pair]


def _ricci_at_steps(m: DoublyWarpedMetric, x, steps):
    """Ricci tensor from divided differences of the metric at one step set.

    g0 is diagonal, so g^{-1} has exact zeros off its diagonal gi, and
    d1[mu, a, b], d2[mu, nu, a, b] vanish unless a == b.  Each sum over an
    index of g^{-1} then has one nonzero term, and the Christoffel symbols
    and the traces of their derivatives are broadcast products of that
    term, with the operands in the order the full contraction multiplies
    them.  Of d2 only three n^3 slices are read, each built from the
    diagonal dd with +0.0 where d2 has its zeros, so the sums see the
    zeros (and the signs of zero) the full tensor would give them.  The
    contractions run on C-contiguous tensors: a transposed layout changes
    einsum's summation order."""
    g0, d1, dd = _stencil_derivatives(m, x, steps)
    n = len(x)
    i = np.arange(n)
    gi = 1.0 / g0.reshape(n * n)[::n + 1]  # g^{ll}: inv(g0)'s diagonal, bit for bit

    # Gamma^l_{mu nu} = 1/2 g^{ll} (d_mu g_{nu l} + d_nu g_{mu l} - d_l g_{mu nu})
    bracket = (d1 + d1.transpose(1, 0, 2) - d1.transpose(1, 2, 0)).transpose(2, 0, 1)
    gamma = np.ascontiguousarray(0.5 * (gi[:, None, None] * bracket))

    # d_rho Gamma^l_{mu nu} by the product rule, with d_rho g^{ll} =
    # -(g^{ll} d_rho g_{ll}) g^{ll}, only at rho = l as [r, m, n] and at
    # rho = n, nu = l as [n, l, m]: the two traces Ric reads
    dginv = -(gi * d1.reshape(n, n * n)[:, ::n + 1]) * gi  # [rho, l]
    at_r = np.zeros((n, n, n))  # [mu, nu, r] = d_r d_mu g_{nu r}
    at_r[:, i, i] = dd[i, :, i].T
    at_rr = np.zeros((n, n, n))  # [r, m, n] = d_r d_r g_{mn}
    at_rr[:, i, i] = dd[i, i]
    d_rr = at_r.transpose(2, 0, 1) + at_r.transpose(2, 1, 0) - at_rr
    dg_rr = 0.5 * (dginv.diagonal()[:, None, None] * bracket + gi[:, None, None] * d_rr)
    at_l = np.zeros((n, n, n))  # [n, l, m] = d_n d_l g_{m l}
    at_l[:, i, i] = dd[:, i, i]
    d_nl = dd.transpose(0, 2, 1) + at_l - at_l
    dg_nl = 0.5 * (dginv[:, :, None] * bracket.diagonal(0, 0, 2).T + gi[:, None] * d_nl)

    # Ric_{mn} = d_l Gamma^l_{mn} - d_n Gamma^l_{ml} + G^l_{ls} G^s_{mn} - G^l_{ns} G^s_{ml}
    d_l_gamma = np.einsum("rmn->mn", np.ascontiguousarray(dg_rr))
    d_n_gamma_trace = np.einsum("nlm->mn", np.ascontiguousarray(dg_nl))
    gamma_trace = np.einsum("lls->s", gamma)
    quad1 = np.einsum("s,smn->mn", gamma_trace, gamma)
    quad2 = np.einsum("lns,sml->mn", gamma, gamma)
    ric = d_l_gamma - d_n_gamma_trace + quad1 - quad2
    return ric, g0


def _oracle_point(k, r):
    """The point x = (r, thetas..., phi) the oracle differentiates at, and
    its first step set."""
    x = np.array([r, *(_BASE_ANGLE + _ANGLE_SPREAD * i for i in range(k)), 0.5])
    steps = np.full(k + 2, _REL_STEP)
    # f^2 varies on scale r, h^2 on scale ~1; the geometric mean balances
    # truncation against roundoff for both when r < 1.
    steps[0] = _REL_STEP * np.sqrt(abs(r) * max(abs(r), 1.0))
    return x, steps


def ricci_numeric_oracle(m: DoublyWarpedMetric, r: float) -> RicciReport:
    """Principal Ricci values at radius r > 0 by divided differences.

    Raises StepTooLarge when halving the steps moves any principal value by
    more than _CONSISTENCY_TOL * (1 + |value|), or leaves the Ricci tensor
    off diagonal, at the steps and at each of _HALVINGS halvings of them;
    otherwise returns the Richardson-extrapolated values of the first pair
    that passes.
    """
    if r <= 0:
        raise ValueError("oracle requires r > 0")
    n = m.k + 2
    x, steps = _oracle_point(m.k, r)

    def principal_values(scale):
        ric, g0 = _ricci_at_steps(m, x, steps * scale)
        diag = np.array([ric[0, 0] / g0[0, 0], ric[1, 1] / g0[1, 1], ric[n - 1, n - 1] / g0[n - 1, n - 1]])
        off = ric - np.diag(np.diag(ric))
        return diag, np.max(np.abs(off)) / (1.0 + np.max(np.abs(np.diag(ric))))

    v_h, _ = principal_values(1.0)
    for j in range(1, 2 + _HALVINGS):  # the pair (steps * 2**(1-j), steps * 2**-j)
        v_h2, off_h2 = principal_values(0.5 ** j)
        moved = [(a, b) for a, b in zip(v_h, v_h2) if abs(a - b) > _CONSISTENCY_TOL * (1.0 + abs(b))]
        if moved:
            refusal = f"oracle values moved from {moved[0][0]} to {moved[0][1]} when halving steps at r={r}"
        elif off_h2 > 1e-4:
            refusal = f"Ricci tensor not numerically diagonal at r={r}: {off_h2}"
        else:
            extrap = (4.0 * v_h2 - v_h) / 3.0
            return RicciReport(r, *extrap[[0, 2, 1]].tolist())  # doubles, not numpy scalars
        v_h = v_h2
    raise StepTooLarge(f"{refusal} (steps halved {_HALVINGS} times)")
