"""Adaptive quadrature and bracketed root finding, ported bit for bit, and
a least-squares line in closed form.

`quad` is QUADPACK's QAG: dqage with the 21-point Gauss-Kronrod rule dqk21
and the error-list insertion dqpsrt (Piessens, de Doncker-Kapenga,
Ueberhuber and Kahaner, QUADPACK, 1983): it bisects the interval of
largest error and does not extrapolate.  `brentq` is Brent's method
(Brent, Algorithms for Minimization without Derivatives, 1973) as scipy's
brentq.c states it.  Each routine follows its original statement for
statement, in the original operation order, with 1-based work arrays.
`brentq` equals scipy.optimize.brentq call for call; `quad` takes the
steps of scipy.integrate.quad (QAGS) until QAGS can first extrapolate,
on its third subinterval, bar the first rule's roundoff test (50 eps,
not 100) and the flag of a step that converges at the limit.
tests/test_numerics.py checks both.  `quad` always returns (result,
abserr, info), with QUADPACK's error flag ier in info, and leaves judging
it to the caller.

Where Python raises on a float operation that C carries through as inf or
NaN (a division by zero, a power that overflows), the code takes the
branch the IEEE value takes.

`line_fit` replaces numpy.polyfit for a straight line: the two-parameter
fit needs no LAPACK, whose first call costs over a megabyte of resident
memory in a short run.
"""

import math

EPMACH = 2.0 ** -52  # d1mach(4)
UFLOW = 2.2250738585072014e-308  # d1mach(1), DBL_MIN

# dqk21: Kronrod abscissae xgk, Kronrod weights wgk, Gauss weights wg.
# xgk(2j) are the 10-point Gauss nodes, xgk(2j-1) the Kronrod additions,
# xgk(11) = 0 the centre.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208980529191,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# the same numbers by name for the straight-line rule: _Xj = xgk(j),
# _WKj = wgk(j), _WGj = wg(j)
_X1, _X2, _X3, _X4, _X5, _X6, _X7, _X8, _X9, _X10, _ = _XGK
_WK1, _WK2, _WK3, _WK4, _WK5, _WK6, _WK7, _WK8, _WK9, _WK10, _WK11 = _WGK
_WG1, _WG2, _WG3, _WG4, _WG5 = _WG


def _max(x, y):
    # dmax1 as C's fmax: a NaN argument gives the other one
    return x if x > y or y != y else y


def _div(x, y):
    """x / y in IEEE arithmetic: +-inf or NaN where Python would raise."""
    if y != 0.0:
        return x / y
    if x != x or x == 0.0:
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, y)


def _signbit(x):
    return math.copysign(1.0, x) < 0


def _qk21(f, a, b):
    """dqk21: (result, abserr, resabs, resasc) of the 21-point Kronrod rule
    on [a, b].

    dqk21's loops written out: the integrand is read at the centre, the
    Gauss pairs xgk(2), xgk(4), ..., xgk(10), then the Kronrod pairs
    xgk(1), xgk(3), ..., xgk(9), and every sum adds its terms in the
    order the loops do (resasc over j = 1, 2, ..., 10)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    fc = f(centr)
    absc = hlgth * _X2
    f2a = f(centr - absc)
    f2b = f(centr + absc)
    absc = hlgth * _X4
    f4a = f(centr - absc)
    f4b = f(centr + absc)
    absc = hlgth * _X6
    f6a = f(centr - absc)
    f6b = f(centr + absc)
    absc = hlgth * _X8
    f8a = f(centr - absc)
    f8b = f(centr + absc)
    absc = hlgth * _X10
    f10a = f(centr - absc)
    f10b = f(centr + absc)
    absc = hlgth * _X1
    f1a = f(centr - absc)
    f1b = f(centr + absc)
    absc = hlgth * _X3
    f3a = f(centr - absc)
    f3b = f(centr + absc)
    absc = hlgth * _X5
    f5a = f(centr - absc)
    f5b = f(centr + absc)
    absc = hlgth * _X7
    f7a = f(centr - absc)
    f7b = f(centr + absc)
    absc = hlgth * _X9
    f9a = f(centr - absc)
    f9b = f(centr + absc)
    s2 = f2a + f2b
    s4 = f4a + f4b
    s6 = f6a + f6b
    s8 = f8a + f8b
    s10 = f10a + f10b
    # dqk21 starts resg from 0.0; 0.0 + x differs from x only in the sign
    # of a zero, which abserr's abs() drops
    resg = _WG1 * s2 + _WG2 * s4 + _WG3 * s6 + _WG4 * s8 + _WG5 * s10
    resk = (_WK11 * fc + _WK2 * s2 + _WK4 * s4 + _WK6 * s6 + _WK8 * s8 + _WK10 * s10
            + _WK1 * (f1a + f1b) + _WK3 * (f3a + f3b) + _WK5 * (f5a + f5b)
            + _WK7 * (f7a + f7b) + _WK9 * (f9a + f9b))
    resabs = (abs(_WK11 * fc)
              + _WK2 * (abs(f2a) + abs(f2b)) + _WK4 * (abs(f4a) + abs(f4b))
              + _WK6 * (abs(f6a) + abs(f6b)) + _WK8 * (abs(f8a) + abs(f8b))
              + _WK10 * (abs(f10a) + abs(f10b))
              + _WK1 * (abs(f1a) + abs(f1b)) + _WK3 * (abs(f3a) + abs(f3b))
              + _WK5 * (abs(f5a) + abs(f5b)) + _WK7 * (abs(f7a) + abs(f7b))
              + _WK9 * (abs(f9a) + abs(f9b)))
    reskh = resk * 0.5
    resasc = (_WK11 * abs(fc - reskh)
              + _WK1 * (abs(f1a - reskh) + abs(f1b - reskh))
              + _WK2 * (abs(f2a - reskh) + abs(f2b - reskh))
              + _WK3 * (abs(f3a - reskh) + abs(f3b - reskh))
              + _WK4 * (abs(f4a - reskh) + abs(f4b - reskh))
              + _WK5 * (abs(f5a - reskh) + abs(f5b - reskh))
              + _WK6 * (abs(f6a - reskh) + abs(f6b - reskh))
              + _WK7 * (abs(f7a - reskh) + abs(f7b - reskh))
              + _WK8 * (abs(f8a - reskh) + abs(f8b - reskh))
              + _WK9 * (abs(f9a - reskh) + abs(f9b - reskh))
              + _WK10 * (abs(f10a - reskh) + abs(f10b - reskh)))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # min(1, x**1.5) is 1 exactly when x >= 1; Python's ** would overflow
        ratio = 200.0 * abserr / resasc
        abserr = resasc * (ratio ** 1.5 if ratio < 1.0 else 1.0)
    if resabs > UFLOW / (50.0 * EPMACH):
        abserr = _max((EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord):
    """dqpsrt with nrmax = 1, the only value dqage passes: keep iord
    descending in elist over the part of the list still bisectable; returns
    the new (maxerr, errmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        # insert errmax by traversing the list top-down
        jbnd = jupbn - 1
        for i in range(2, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmin by traversing the list bottom-up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[1]
    return maxerr, elist[maxerr]


def _qage(f, a, b, epsabs, epsrel, limit):
    """dqage with key 2 (dqk21) on a < b: (result, abserr, last, ier)."""
    ier = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    # test on accuracy
    errbnd = _max(epsabs, epsrel * abs(result))
    if abserr <= 50.0 * EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 1, ier

    # the first rule did not do: the work lists, 1-based as in QUADPACK and
    # grown by one entry per bisection (no step reads past index last)
    alist = [0.0, a]
    blist = [0.0, b]
    rlist = [0.0, result]
    elist = [0.0, abserr]
    iord = [0, 1]
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    iroff1 = iroff2 = 0
    for last in range(2, limit + 1):
        alist.append(0.0)
        blist.append(0.0)
        rlist.append(0.0)
        elist.append(0.0)
        iord.append(0)
        # bisect the subinterval with the largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        area1, error1, _, defab1 = _qk21(f, a1, b1)
        area2, error2, _, defab2 = _qk21(f, a2, b2)
        # improve previous approximations to integral and error, test accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if abs(rlist[maxerr] - area12) <= 1e-5 * abs(area12) and erro12 >= 0.99 * errmax:
                iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff2 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = _max(epsabs, epsrel * abs(area))
        if not errsum <= errbnd:
            # roundoff, the subdivision limit and bad integrand behaviour
            if iroff1 >= 6 or iroff2 >= 20:
                ier = 2
            if last == limit:
                ier = 1
            if _max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW):
                ier = 3
        # append the newly-created intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax = _qpsrt(limit, last, maxerr, elist, iord)
        if ier != 0 or errsum <= errbnd:
            break
    # compute final result
    result = 0.0
    for k in range(1, last + 1):
        result = result + rlist[k]
    return result, errsum, last, ier


def quad(f, a, b, epsabs=1.49e-8, epsrel=1.49e-8, limit=50):
    """Integral of f over the finite interval [a, b] by QAG.

    Returns (result, abserr, info) with info = {"neval": 42*last - 21,
    "last": number of subintervals, "ier": dqage's error flag}: 0, or 1 at
    the subdivision limit, 2 for roundoff, 3 for bad integrand behaviour
    at a point of the interval.  The caller judges the outcome; nothing is
    warned.
    """
    if a == b:
        return 0.0, 0.0, {"neval": 0, "last": 0, "ier": 0}
    flip, a, b = b < a, min(a, b), max(a, b)
    if epsabs <= 0 and epsrel < max(50 * EPMACH, 5e-29):
        raise ValueError("If 'epsabs'<=0, 'epsrel' must be greater than both"
                         " 5e-29 and 50*(machine epsilon).")
    if limit < 1:
        raise ValueError("Invalid 'limit' argument. There must be at least one subinterval")
    result, abserr, last, ier = _qage(f, a, b, epsabs, epsrel, limit)
    if flip:
        result = -result
    return result, abserr, {"neval": 42 * last - 21, "last": last, "ier": ier}


def brentq(f, a, b, xtol=2e-12, rtol=4 * EPMACH, maxiter=100):
    """A root of f in the sign-changing bracket [a, b] by Brent's method,
    step for step as scipy.optimize.brentq.

    ValueError for equal signs at the ends, a NaN function value, xtol <= 0,
    rtol < 4 eps or maxiter < 0; RuntimeError without convergence in
    maxiter steps.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < 4 * EPMACH:
        raise ValueError(f"rtol too small ({rtol:g} < {4 * EPMACH:g})")
    if maxiter < 0:
        raise ValueError("maxiter should be > 0")

    def fx(x):
        v = f(x)
        if v != v:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return v

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = fx(xpre)
    fcur = fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:
                # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            # an inf or NaN trial step fails this test, as in C
            s3 = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < s3 else s3):
                # good short step
                spre = scur
                scur = stry
                bisect = False
        if bisect:
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur!r}")


def line_fit(x, y):
    """(slope, intercept) of the least-squares line through the points
    (x_i, y_i), in closed form about the means: slope = sum dx dy / sum dx^2
    with dx, dy the deviations from the means, every sum by math.fsum.

    ValueError for fewer than two points, x and y of different lengths, a
    value that is not finite, or x values that are all equal.
    """
    x, y = [float(v) for v in x], [float(v) for v in y]
    n = len(x)
    if n != len(y) or n < 2:
        raise ValueError(f"need two or more points, got {n} x and {len(y)} y values")
    if not all(map(math.isfinite, x + y)):
        raise ValueError("a line fit needs finite points")
    mx, my = math.fsum(x) / n, math.fsum(y) / n
    dx = [v - mx for v in x]
    sxx = math.fsum(d * d for d in dx)
    if sxx == 0.0:
        raise ValueError("a line fit needs two distinct x values")
    slope = math.fsum(d * (v - my) for d, v in zip(dx, y)) / sxx
    return slope, my - slope * mx
