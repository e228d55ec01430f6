"""Independent oracles used to derive frozen expected values.

Kept separate from the package so the verification paths never share code
with what they check.  The arc oracle integrates in the u-variable of the
h = c cosh u change with tanh-sinh quadrature at 30 digits; the inverse
r(u) is closed-form for the inverse-power family; `smoothed_arc_oracle`
integrates a smoothed h's arc in r by tanh-sinh at 30 digits, split at
the blend edges, on log h from `mp_smoothed_log_h`, the mpmath evaluation
of each owner's double parameters.  `reference_ladder` is the oscillating
construction in 40-digit mpmath (junctions, log constants and blend
forms), the reference for the double construction of `warplab.ladder`,
`warplab.piecewise` and `warplab.smoothing`.  `qk21_loops` is
dqk21 in its loop form, the reference for the straight-line rule of
`warplab.numerics`.  `einsum_ricci` contracts the Christoffel symbols
over full tensors, the reference for the diagonal products of
`warplab.christoffel`.  `capacity_sweep` and `capacity_exhaustive` count
separated sets point by point, the references for the stride formula of
`warplab.dimension.capacity`; `counting_chain_holds` is the counting
inequality capacities must satisfy.  `coefficient_error` is the closed
rescaled-coefficient error of a pure stretch, and `f_profile_ok` and
`h_profile_ok` check the warping-function axioms on a grid.  `mp_log_h`
is log h from an mpmath jet at 30 digits, the reference for the double
log readers, and `log_ulps` the few ulps of |log h| they may stray.
`jet_frame` is the exponent frame formed from double jets, one radius at
a time, the reference for the closed-form frames of the families, and
`jet_framed` a warping function that carries it as its frame.
"""

import mpmath as mp
import numpy as np

from warplab.dimension import capacity
from warplab.jets import Jet2
from warplab.smoothing import Blend
from warplab.warping import FFrame, HFrame, WarpingFunction


def power_arc_oracle(alpha, c, dps=30):
    """(delta_v, length, r_max) for h = (1+r^2)^(-alpha) at Clairaut c."""
    with mp.workdps(dps):
        alpha = mp.mpf(alpha)
        c = mp.mpf(c)
        r_max = mp.sqrt(c ** (-1 / alpha) - 1)
        u0 = mp.acosh(1 / c)

        def r_of_u(u):
            target = c * mp.cosh(u)
            if target >= 1:
                return mp.mpf(0)
            return mp.sqrt(target ** (-1 / alpha) - 1)

        def h(r):
            return (1 + r * r) ** (-alpha)

        def hp_abs(r):
            return 2 * alpha * r * (1 + r * r) ** (-alpha - 1)

        def dv_int(u):
            r = r_of_u(u)
            if r == 0:
                return mp.mpf(0)
            return c / (h(r) * hp_abs(r))

        def len_int(u):
            r = r_of_u(u)
            if r == 0:
                return mp.mpf(0)
            return h(r) / hp_abs(r)

        dv = 2 * mp.quad(dv_int, [0, u0])
        ln = 2 * mp.quad(len_int, [0, u0])
        return dv, ln, r_max


def mp_log_h(h, r, dps=30):
    """log h(r) from the mpmath jet of h (a jet callable) at dps digits."""
    with mp.workdps(dps):
        return float(_mp_log_h(h, r))


def _mp_log_h(h, r):
    """log h(r) as an mpf at the working precision."""
    return mp.log(h(mp.mpf(r)).value)


def mp_owner_log_h(owner, r):
    """log h(r) as an mpf at the working precision, from an owner's double
    parameters read exactly: log C - p log(1 + r^2) for a segment, the
    exponent form la - p_R (y - y_a) - (p_L - p_R) w Q(x) for a blend."""
    r = mp.mpf(r)
    y = mp.log1p(r * r)
    if isinstance(owner, Blend):
        ya, w, la, pr, dp = map(mp.mpf, owner._form)
        x = (y - ya) / w
        return la - pr * (y - ya) - dp * w * (x - x**4 * (mp.mpf(5) / 2 - 3 * x + x * x))
    return mp.mpf(owner._log_c) - mp.mpf(owner.p) * y


def owner_by_scan(sm, r):
    """The blend of a SmoothedH whose [lo, hi) holds r, else the segment
    whose [r_lo, r_hi) does, each found by a linear scan."""
    for b in sm.blends:
        if b.lo <= r < b.hi:
            return b
    seg, = [s for s in sm.segments if s.r_lo <= r and (s.r_hi is None or r < s.r_hi)]
    return seg


def mp_smoothed_log_h(sm, r):
    """log h(r) of a SmoothedH as an mpf: mp_owner_log_h of its owner at r."""
    return mp_owner_log_h(owner_by_scan(sm, r), r)


def reference_ladder(params, radius_bound=1e300, dps=40):
    """The oscillating construction in dps-digit mpmath, from its radii:
    junctions T' = ((1+T^2)^((E-p)/(E-q)) - 1)^(1/2) and ends 5 T'^2, each
    segment's (r_lo, p, log C) with log C = (E - p) log(1 + T^2) at its
    bridge's start T, and each blend's form (y_a, y_b - y_a, log h_L(y_a),
    p_R, p_L - p_R), y_a = log(1 + (0.8 R)^2) and y_b = 2 log(1 + R^2) - y_a.
    Returns (junctions, segments, blends, truncated), numbers as mpf."""
    with mp.workdps(dps):
        planned = []
        for a in params.exponents:
            if not planned or planned[-1] != a:
                planned.append(a)
        if planned[-1] != planned[0]:
            planned.append(planned[0])
        bound = mp.mpf(radius_bound)
        chain, junctions, truncated = [planned[0]], [], False
        end = mp.mpf(params.R11)
        for a, b in zip(planned, planned[1:]):
            E = mp.mpf(params.B if b > a else params.A)
            T = mp.sqrt((1 + end * end) ** ((E - a) / (E - b)) - 1)
            if end > bound or T > bound:
                truncated = True
                break
            chain.append(b)
            junctions += [end, T]
            end = 5 * T * T
        segments, lo = [], mp.mpf(0)
        for i, (a, b) in enumerate(zip(chain, chain[1:])):
            end, T = junctions[2 * i], junctions[2 * i + 1]
            E = mp.mpf(params.B if b > a else params.A)
            segments += [(lo, a, mp.mpf(0)), (end, E, (E - a) * mp.log1p(end * end))]
            lo = T
        segments.append((lo, chain[-1], mp.mpf(0)))
        blends = []
        for (_, pl, lcl), (R, pr, _) in zip(segments, segments[1:]):
            ya = mp.log1p((mp.mpf(0.8) * R) ** 2)
            w = 2 * (mp.log1p(R * R) - ya)
            blends.append((ya, w, lcl - pl * ya, mp.mpf(pr), mp.mpf(pl) - pr))
        return junctions, segments, blends, truncated


def smoothed_arc_oracle(sm, r_maxes, dps=30):
    """[(delta_v, length)] of the Clairaut arcs of a SmoothedH from the
    axis turning at each of r_maxes, by mpmath quad at dps digits on log h
    from mp_smoothed_log_h: rho^2 = exp(2(log h(r_max) - log h(r))), the
    range split at the blend edges, with t = sqrt(r_max - r) on the
    turning panel.  One quad per panel integrates delta_v's integrand as
    the real part and length's as the imaginary part, over [0, 1] (r = a +
    (b - a) u, t = sqrt(r_max - a) s), where mp.quad's absolute error
    estimate reads as a relative one.  The turning panel's integrand runs
    at 2 dps digits, so that r_max - r keeps dps digits next to r_max.
    The arcs share the nodes of the panels below their turning panels, and
    log h is read once per node."""
    seen = {}

    def log_h(r):
        key = (mp.mp.prec, r)
        if key not in seen:
            seen[key] = mp_smoothed_log_h(sm, r)
        return seen[key]

    def integrands(r, lc):
        e = 2 * (lc - log_h(r))
        q = -mp.expm1(e)
        if q <= 0:  # r rounds to r_max
            return mp.mpc(0)
        w = 1 / mp.sqrt(q)
        return mp.mpc(mp.exp(e) * w, w)

    def arc(r_max):
        top = mp.mpf(r_max)
        lc = log_h(top)
        edges = [mp.mpf(0), *(mp.mpf(e) for b in sm.blends for e in (b.lo, b.hi) if e < top), top]
        total = mp.fsum((b - a) * mp.quad(lambda u: integrands(a + (b - a) * u, lc), [0, 1])
                        for a, b in zip(edges[:-2], edges[1:-1]))
        span = top - edges[-2]
        with mp.extradps(dps):
            lc_fine = log_h(top)

        def turning(s):
            with mp.extradps(dps):
                return 2 * s * integrands(top - span * s * s, lc_fine)

        total += span * mp.quad(turning, [0, 1])
        return 2 * total.real / mp.exp(lc), 2 * total.imag

    with mp.workdps(dps):
        return [arc(r) for r in r_maxes]


def log_ulps(*logs):
    """4 ulps of each |log| (at least 1) summed: how far a double read of a
    log h formed from these logs may stray from the exact value."""
    return sum(4.0 * 2.0**-52 * max(1.0, abs(x)) for x in logs)


def jet_frame(jet, rs, kind=HFrame):
    """The HFrame or FFrame of jet (a double r -> its Jet2) at a float64
    array of radii, from one scalar jet per radius: log h, p = -(h'/h)/g
    and p_y = p^2 - p (1/(2r^2) - 1/2) - (h''/h)/g^2 with g = 2r/(1+r^2)
    (at r = 0 p is the limit -h''/(2h)); or log f, (-(1+r^2) f''/f, 0),
    (2r f'/f, 0) and (1+r^2)(1-f'^2)/f^2.  NaN or -inf where jet <= 0."""
    rs = np.asarray(rs, dtype=float)
    js = [jet(r) for r in rs.tolist()]
    v, d1, d2 = (np.array([getattr(j, c) for j in js], dtype=float)
                 for c in ("value", "d1", "d2"))
    u = 1.0 + rs * rs
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind is FFrame:
            return FFrame(np.log(v), (-u * d2 / v, 0.0), (2.0 * rs * d1 / v, 0.0),
                          u * (1.0 - d1 * d1) / (v * v))
        ig = 0.5 * u / rs  # 1/g
        p = np.where(rs == 0, -0.5 * d2 / v, -(d1 / v) * ig)
        return HFrame(np.log(v), p, p * p - p * (0.5 / (rs * rs) - 0.5) - (d2 / v) * ig * ig)


def jet_framed(label, fn, kind=HFrame):
    """A WarpingFunction of the jet map fn whose frame is its `jet_frame`."""
    def jet(r):
        return fn(Jet2.variable(r))

    return WarpingFunction(label, fn, lambda rs: jet_frame(jet, rs, kind))


def hyperbolic_arc(c):
    """Closed forms for h = exp(-r): the halfplane is hyperbolic, so
    delta_v = 2 sqrt(1/c^2 - 1) and length = arccosh(1 + delta_v^2/2)."""
    import math

    dv = 2.0 * math.sqrt(1.0 / (c * c) - 1.0)
    return dv, math.acosh(1.0 + dv * dv / 2.0)


def central_diff_richardson(f, x, order=1, h0=None, levels=4):
    """Derivative of f at x by central differences with Richardson step
    refinement; independent of the jet arithmetic."""
    h0 = h0 or max(abs(x), 1.0) * 1e-2

    def d(h):
        if order == 1:
            return (f(x + h) - f(x - h)) / (2.0 * h)
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)

    t = [[d(h0 / 2.0**j)] for j in range(levels)]
    for m in range(1, levels):
        fac = 4.0**m
        for j in range(m, levels):
            t[j].append((fac * t[j][m - 1] - t[j - 1][m - 1]) / (fac - 1.0))
    return t[levels - 1][levels - 1]


def qk21_loops(f, a, b, xgk, wgk, wg):
    """dqk21 as QUADPACK writes it, with its loops: (result, abserr,
    resabs, resasc) of the 21-point Kronrod rule on [a, b], the integrand
    read at the centre, the Gauss pairs xgk(2j), then the Kronrod pairs
    xgk(2j-1).  xgk, wgk and wg are the rule's tables, 0-based."""
    epmach, uflow = 2.0 ** -52, 2.2250738585072014e-308
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = f(centr)
    resk = wgk[10] * fc
    resabs = abs(resk)
    fv1, fv2 = [0.0] * 10, [0.0] * 10  # fv(j) at index j - 1
    for j in range(1, 6):
        jtw = 2 * j
        absc = hlgth * xgk[jtw - 1]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtw - 1], fv2[jtw - 1] = fval1, fval2
        fsum = fval1 + fval2
        resg = resg + wg[j - 1] * fsum
        resk = resk + wgk[jtw - 1] * fsum
        resabs = resabs + wgk[jtw - 1] * (abs(fval1) + abs(fval2))
    for j in range(1, 6):
        jtwm1 = 2 * j - 1
        absc = hlgth * xgk[jtwm1 - 1]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtwm1 - 1], fv2[jtwm1 - 1] = fval1, fval2
        fsum = fval1 + fval2
        resk = resk + wgk[jtwm1 - 1] * fsum
        resabs = resabs + wgk[jtwm1 - 1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = wgk[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + wgk[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        ratio = 200.0 * abserr / resasc  # min(1, ratio**1.5) without overflow
        abserr = resasc * (ratio ** 1.5 if ratio < 1.0 else 1.0)
    if resabs > uflow / (50.0 * epmach):
        floor = (epmach * 50.0) * resabs
        abserr = floor if floor > abserr or abserr != abserr else abserr  # C's fmax
    return result, abserr, resabs, resasc


def einsum_ricci(g0, d1, dd):
    """Ricci tensor of a diagonal metric g0 with derivatives d1[mu, a, b] =
    d_mu g_ab and the diagonal dd[mu, nu, a] = d_mu d_nu g_aa of the second
    derivatives, every Christoffel contraction an einsum over the full
    (k+2)-index tensors: dd is expanded to d2[mu, nu, a, b], +0.0 where
    a != b."""
    n = len(g0)
    d2 = np.zeros((n, n, n, n))
    d2.reshape(n, n, n * n)[:, :, ::n + 1] = dd
    ginv = np.linalg.inv(g0)

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
    return d_l_gamma - d_n_gamma_trace + quad1 - quad2


def capacity_sweep(s, R, lam):
    """Literal left-to-right greedy sweep over the ball's integer points of
    the LinearOrbitMetric s, reading its table s.d."""
    N = s.ball_index(R)
    count = 0
    last = None
    for a in range(-N, N + 1):
        if last is None or s.d[a - last] >= lam:
            count += 1
            last = a
    return count


def capacity_exhaustive(s, R, lam):
    """Exact maximum by dynamic programming over (position, last chosen);
    exhausts every separated subset implicitly.  For path-ordered metrics
    consecutive separation already forces pairwise separation."""
    N = s.ball_index(R)
    pts = list(range(-N, N + 1))
    n = len(pts)
    best = [1] * n  # best[i]: max size of separated set ending at pts[i]
    for i in range(n):
        for j in range(i):
            if s.d[pts[i] - pts[j]] >= lam and best[j] + 1 > best[i]:
                best[i] = best[j] + 1
    return max(best) if n else 0


def counting_chain_holds(s, R, lam):
    """Cap(B_{R-lam/3}; lam) #B_{lam/3} <= #B_R <= Cap(B_R; lam) #B_lam."""
    if not (0 < lam < R):
        raise ValueError("need 0 < lam < R")
    nR = 2 * s.ball_index(R) + 1
    n_third = 2 * s.ball_index(lam / 3.0) + 1
    n_lam = 2 * s.ball_index(lam) + 1
    cap_inner = capacity(s, R - lam / 3.0, lam) if R - lam / 3.0 > lam else 1
    cap_R = capacity(s, R, lam)
    return cap_inner * n_third <= nR <= cap_R * n_lam


def coefficient_error(sm_exponent, lam, t):
    """Relative one-sided error of the rescaled circle coefficient against
    t^(-2a) on a pure stretch: 1 - (lam^2 t^2 / (1 + lam^2 t^2))^a."""
    a = sm_exponent
    x = lam * lam * t * t
    return 1.0 - (x / (1.0 + x)) ** a


def f_profile_ok(f, grid):
    """Check f(0)=0, f'(0)=1, 0<f'<1 and f''<0 on the positive sample grid;
    (ok, report of the worst margin)."""
    j0 = f(0.0)
    report = {"f0": j0.value, "fp0": j0.d1, "worst_r": None, "worst": None}
    ok = abs(j0.value) < 1e-12 and abs(j0.d1 - 1.0) < 1e-12
    worst = np.inf
    for r in grid:
        if r <= 0:
            continue
        j = f(float(r))
        margin = min(j.d1, 1.0 - j.d1, -j.d2)
        if margin < worst:
            worst, report["worst_r"], report["worst"] = margin, float(r), margin
        if j.d1 <= 0 or j.d1 >= 1 or j.d2 >= 0:
            ok = False
    return ok, report


def h_profile_ok(h, grid):
    """Check h(0)>0 and h'<0 on the positive sample grid; (ok, report of
    the worst margin)."""
    h0 = h(0.0).value
    report = {"h0": h0, "worst_r": None, "worst": None}
    ok = h0 > 0
    worst = np.inf
    for r in grid:
        if r <= 0:
            continue
        j = h(float(r))
        margin = -j.d1
        if margin < worst:
            worst, report["worst_r"], report["worst"] = margin, float(r), margin
        if j.d1 >= 0 or j.value <= 0:
            ok = False
    return ok, report
