"""Coordinate-based numerical Ricci oracle.

Assembles the full metric tensor of dr^2 + f^2 ds_k^2 + h^2 ds_1^2 in
coordinates (r, theta_1..theta_k, phi) at a generic sphere point, forms
Christoffel symbols and the Ricci tensor from second-order central divided
differences of the metric components, and returns the three principal
values.  This path shares no differentiation machinery with the jet-based
closed forms, which is the whole point: agreement between the two is the
certificate for the closed-form expressions.

The round factor ds_k^2 is written in nested spherical coordinates,
g_{theta_i theta_i} = prod_{j<i} sin^2(theta_j), so all metric components
are honest functions of the coordinates and the oracle never consumes a
curvature formula.

Each query runs at two step sizes; a Richardson consistency check guards
against a bad step and the extrapolated value is returned.
"""

from dataclasses import dataclass

import numpy as np

from .curvature import DoublyWarpedMetric, RicciReport


class StepTooLarge(RuntimeError):
    """Divided-difference steps failed the Richardson consistency check."""


@dataclass
class OracleSettings:
    rel_step: float = 3e-3
    consistency_tol: float = 2e-4  # on |v(h) - v(h/2)| relative to 1 + |v|
    base_angle: float = 1.0  # generic point; offsets avoid symmetry axes
    angle_spread: float = 0.07


def _metric_matrix(k, fh, x):
    """Full (k+2)x(k+2) metric at coordinates x = (r, thetas..., phi), given
    fh = (f(r), h(r))."""
    n = k + 2
    g = np.zeros((n, n))
    g[0, 0] = 1.0
    fv, hv = fh
    prefix = 1.0
    for i in range(k):
        g[1 + i, 1 + i] = fv * fv * prefix
        prefix *= np.sin(x[1 + i]) ** 2
    g[n - 1, n - 1] = hv * hv
    return g


def _ricci_at_steps(m: DoublyWarpedMetric, x, steps):
    """Ricci tensor from divided differences of the metric at one step set.

    Only the radius x[0] enters f and h, and every stencil point sits at
    r - s, r or r + s, so f and h are read once at each of the three."""
    n = len(x)
    s0 = steps[0]
    fh = {rs: (m.f.value(rs), m.h.value(rs)) for rs in (x[0] - s0, x[0], x[0] + s0)}

    def metric(xs):
        return _metric_matrix(m.k, fh[xs[0]], xs)

    g0 = metric(x)
    ginv = np.linalg.inv(g0)

    gp = np.empty((n, n, n))
    gm = np.empty((n, n, n))
    for mu in range(n):
        xp = x.copy()
        xp[mu] += steps[mu]
        xm = x.copy()
        xm[mu] -= steps[mu]
        gp[mu] = metric(xp)
        gm[mu] = metric(xm)

    d1 = np.empty((n, n, n))  # d1[mu, a, b] = d_mu g_ab
    for mu in range(n):
        d1[mu] = (gp[mu] - gm[mu]) / (2.0 * steps[mu])

    d2 = np.empty((n, n, n, n))  # d2[mu, nu, a, b] = d_mu d_nu g_ab
    for mu in range(n):
        d2[mu, mu] = (gp[mu] - 2.0 * g0 + gm[mu]) / steps[mu] ** 2
    for mu in range(n):
        for nu in range(mu + 1, n):
            xpp = x.copy()
            xpp[mu] += steps[mu]
            xpp[nu] += steps[nu]
            xpm = x.copy()
            xpm[mu] += steps[mu]
            xpm[nu] -= steps[nu]
            xmp = x.copy()
            xmp[mu] -= steps[mu]
            xmp[nu] += steps[nu]
            xmm = x.copy()
            xmm[mu] -= steps[mu]
            xmm[nu] -= steps[nu]
            val = (metric(xpp) - metric(xpm) - metric(xmp) + metric(xmm)) / (
                4.0 * steps[mu] * steps[nu]
            )
            d2[mu, nu] = val
            d2[nu, mu] = val

    # Gamma^l_{mu nu} = 1/2 g^{ls} (d_mu g_{nu s} + d_nu g_{mu s} - d_s g_{mu nu})
    tA = d1.transpose(0, 1, 2)  # [mu, nu, s] = d_mu g_{nu s}
    tB = d1.transpose(1, 0, 2)  # [mu, nu, s] = d_nu g_{mu s}
    tC = d1.transpose(1, 2, 0)  # [mu, nu, s] = d_s g_{mu nu}
    bracket = tA + tB - tC
    gamma = 0.5 * np.einsum("ls,mns->lmn", ginv, bracket)

    # d_rho Gamma^l_{mu nu}: product rule with d_rho g^{-1} = -g^{-1} d_rho g g^{-1}
    dginv = -np.einsum("la,rab,bs->rls", ginv, d1, ginv)
    dA = d2.transpose(0, 1, 2, 3)  # [rho, mu, nu, s] = d_rho d_mu g_{nu s}
    dB = d2.transpose(0, 2, 1, 3)  # [rho, mu, nu, s] = d_rho d_nu g_{mu s}
    dC = d2.transpose(0, 2, 3, 1)  # [rho, mu, nu, s] = d_rho d_s g_{mu nu}
    dbracket = dA + dB - dC
    dgamma = 0.5 * (
        np.einsum("rls,mns->rlmn", dginv, bracket)
        + np.einsum("ls,rmns->rlmn", ginv, dbracket)
    )

    # Ric_{mn} = d_l Gamma^l_{mn} - d_n Gamma^l_{ml} + G^l_{ls} G^s_{mn} - G^l_{ns} G^s_{ml}
    d_l_gamma = np.einsum("rrmn->mn", dgamma)
    d_n_gamma_trace = np.einsum("nlml->mn", dgamma)
    gamma_trace = np.einsum("lls->s", gamma)
    quad1 = np.einsum("s,smn->mn", gamma_trace, gamma)
    quad2 = np.einsum("lns,sml->mn", gamma, gamma)
    ric = d_l_gamma - d_n_gamma_trace + quad1 - quad2
    return ric, g0


def ricci_numeric_oracle(
    m: DoublyWarpedMetric, r: float, settings: OracleSettings | None = None
) -> RicciReport:
    """Principal Ricci values at radius r > 0 by divided differences.

    Raises StepTooLarge when halving the steps moves any principal value by
    more than consistency_tol * (1 + |value|); otherwise returns the
    Richardson-extrapolated values and asserts the Ricci tensor is diagonal
    in these coordinates.
    """
    if r <= 0:
        raise ValueError("oracle requires r > 0")
    st = settings or OracleSettings()
    k = m.k
    n = k + 2
    x = np.empty(n)
    x[0] = r
    for i in range(k):
        x[1 + i] = st.base_angle + st.angle_spread * i
    x[n - 1] = 0.5

    steps = np.full(n, st.rel_step)
    # f^2 varies on scale r, h^2 on scale ~1; the geometric mean balances
    # truncation against roundoff for both when r < 1.
    steps[0] = st.rel_step * np.sqrt(abs(r) * max(abs(r), 1.0))

    vals = []
    for scale in (1.0, 0.5):
        ric, g0 = _ricci_at_steps(m, x, steps * scale)
        diag = np.array([ric[0, 0] / g0[0, 0], ric[1, 1] / g0[1, 1], ric[n - 1, n - 1] / g0[n - 1, n - 1]])
        off = ric - np.diag(np.diag(ric))
        off_scale = np.max(np.abs(off)) / (1.0 + np.max(np.abs(np.diag(ric))))
        vals.append((diag, off_scale))

    (v_h, off_h), (v_h2, off_h2) = vals
    for a, b in zip(v_h, v_h2):
        if abs(a - b) > st.consistency_tol * (1.0 + abs(b)):
            raise StepTooLarge(
                f"oracle values moved from {a} to {b} when halving steps at r={r}"
            )
    extrap = (4.0 * v_h2 - v_h) / 3.0
    if off_h2 > 1e-4:
        raise StepTooLarge(f"Ricci tensor not numerically diagonal at r={r}: {off_h2}")
    return RicciReport(r, extrap[0], extrap[2], extrap[1])
