"""The closed-form Ricci directions against sympy's exact values.

At p = 1/2 with k = 8 and at p = 3/2 with k = 48, k is the asymptotic
threshold 16p^2 + 8p: the leading term of the radial direction is exactly
zero and the exact value is a positive multiple of 1/(1+r^2)^2.  The
frames must keep that sign on any double grid.
"""

import mpmath
import numpy as np
import pytest
import sympy as sp

from warplab.curvature import frame, log_grid, positive, scaled_ricci
from warplab.smoothing import certify_positive_ricci
from warplab.warping import inv_u, power_decay_h, standard_f

RADII = [1e3, 1e7, 1e10, 1e60, 1e200]
THRESHOLDS = [(sp.Rational(1, 2), 8), (sp.Rational(3, 2), 48)]


def _exact_scaled(p, k):
    """(radial, circle, sphere) times 1 + r^2 for standard f and
    h = (1+r^2)^(-p), as sympy expressions in r."""
    r = sp.Symbol("r", positive=True)
    u = 1 + r**2
    f, h = r * u ** sp.Rational(-1, 4), u ** (-p)
    f1, f2, h1, h2 = sp.diff(f, r), sp.diff(f, r, 2), sp.diff(h, r), sp.diff(h, r, 2)
    dirs = (-h2 / h - k * f2 / f, -h2 / h - k * f1 * h1 / (f * h),
            -f2 / f + (k - 1) * (1 - f1**2) / f**2 - f1 * h1 / (f * h))
    return r, [sp.simplify(u * d) for d in dirs]


@pytest.mark.parametrize("p, k", THRESHOLDS, ids=["p=1/2,k=8", "p=3/2,k=48"])
def test_scaled_directions_match_sympy(p, k):
    r, exact = _exact_scaled(p, k)
    # the radial direction's leading term vanishes exactly at the threshold
    assert sp.limit(exact[0], r, sp.oo) == 0
    rs = np.array(RADII)
    dirs = scaled_ricci(frame(standard_f(), rs), frame(power_decay_h(float(p)), rs), k)
    assert dirs[0][0].tolist() == [0.0] * len(RADII)
    s = inv_u(rs)
    for i, x in enumerate(RADII):
        xr = sp.Rational(x)  # the double radius, exactly
        s_exact = 1 / (1 + xr**2)
        for (c0, c1), want in zip(dirs, exact):
            c0, c1 = np.broadcast_to(c0, rs.shape)[i], np.broadcast_to(c1, rs.shape)[i]
            want = want.subs(r, xr).evalf(60)
            got = sp.Float(float(c0), 60) + sp.Float(float(c1), 60) * s_exact
            assert want > 0
            assert abs(got - want) <= 1e-15 * want, (x, got, want)
            assert positive(c0, c1, s[i])


@pytest.mark.parametrize("top", [1e6, 1e10, 1e60, 1e200])
@pytest.mark.parametrize("p, k", THRESHOLDS, ids=["p=1/2,k=8", "p=3/2,k=48"])
def test_pure_model_certifies_at_its_threshold(p, k, top):
    grid = log_grid(1e-3, top).tolist()
    cert = certify_positive_ricci(power_decay_h(float(p)), standard_f(), 4 * k, grid,
                                  ["pure"] * len(grid))
    assert cert.k == k


def test_standard_f_sphere_term_matches_mpmath():
    # (1+r^2)(1 - f'^2)/f^2 of standard f, against 50-digit mpmath
    rs = np.logspace(-3, 100, 400)
    got = frame(standard_f(), rs).sphere
    with mpmath.workdps(50):
        for x, g in zip(rs.tolist(), got.tolist()):
            r = mpmath.mpf(x)
            u = 1 + r * r
            f, f1 = r * u ** mpmath.mpf(-0.25), u ** mpmath.mpf(-1.25) * (1 + r * r / 2)
            want = u * (1 - f1 * f1) / (f * f)
            assert abs(g - want) <= 1e-15 * want, x
