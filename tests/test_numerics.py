"""The in-repo QAG and Brent ports against scipy, bit for bit, and QAG
against 30-digit integrals.

scipy.optimize.brentq is the independent reference for brentq: for every
drawn bracket the port must return the same bits and read the function at
the same abscissae in the same order.  scipy.integrate.quad runs QAGS,
whose epsilon extrapolation can first act on its third subinterval; on a
draw that scipy settles within two, QAG must return its bits, counts and
abscissae; on the others, where it reports success, a value within its
error estimate of the integral at 30 digits, or no further from it than
QAGS' value.  The straight-line 21-point rule is checked rule by rule
against dqk21's loop form in tests/oracles.py.
"""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.optimize import brentq as scipy_brentq

from warplab import numerics
from warplab.numerics import brentq, quad

from .oracles import qk21_loops

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def _recorded(f):
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    return g, xs


# the start of scipy.integrate.quad's message for each QUADPACK ier > 0
_SCIPY_MESSAGES = {1: "The maximum number of subdivisions", 2: "The occurrence of roundoff",
                   3: "Extremely bad integrand behavior", 4: "The algorithm does not converge",
                   5: "The integral is probably divergent"}


def _scipy_quad(f, a, b, **kw):
    """scipy.integrate.quad in the port's call shape: (result, abserr,
    info), with the ier its message names (0 without one) in info."""
    r = scipy_quad(f, a, b, full_output=1, **kw)
    ier = 0
    if len(r) > 3:
        (ier,) = [k for k, start in _SCIPY_MESSAGES.items() if r[3].startswith(start)]
    return r[0], r[1], {**r[2], "ier": ier}


def _quad_both(f, a, b, **kw):
    """(scipy's, port's) quad outcome: the result and abserr bits, neval,
    last, ier, the abscissa sequence; neval counts the calls."""
    out = []
    for q in (_scipy_quad, quad):
        g, xs = _recorded(f)
        r, e, info = q(g, a, b, **kw)
        assert info["neval"] == len(xs) == (42 * info["last"] - 21 if xs else 0)
        out.append((float(r).hex(), float(e).hex(), info["neval"], info["last"], info["ier"], xs))
    return out


def _brentq_both(f, a, b, **kw):
    """(scipy's, port's) brentq outcome: root bits or exception type, and
    the abscissa sequence."""
    out = []
    for solve in (scipy_brentq, brentq):
        g, xs = _recorded(f)
        try:
            r = solve(g, a, b, **kw).hex()
        except (ValueError, RuntimeError) as e:
            r = type(e).__name__
        out.append((r, xs))
    return out


# -- quad ---------------------------------------------------------------------

def _smooth(p, q):
    return lambda x: math.exp(-p * x * x) * math.cos(q * x)


def _endpoint_singular(p, q):
    s = 0.1 + 0.85 * p / 3.0  # x^-s, s in (0.1, 0.95)
    return lambda x: (x - q) ** -s if x > q else 0.0


def _log_singular(p, q):
    return lambda x: p * math.log(x - q) if x > q else 0.0


def _interior_kink(p, q):
    return lambda x: abs(x - q - 0.3) ** (0.1 * p)


def _oscillatory(p, q):
    return lambda x: math.sin(50.0 * p * x + q)


def _sign_changing(p, q):
    return lambda x: (x - q - 0.4) * math.exp(p * x)


def _nan_returning(p, q):
    return lambda x: math.nan if x > q + 0.7 else p * x


FAMILIES = {f.__name__[1:]: f for f in (_smooth, _endpoint_singular, _log_singular,
                                        _interior_kink, _oscillatory, _sign_changing,
                                        _nan_returning)}


def _exact(family, p, q, a, b):
    """The integral of FAMILIES[family](p, q) over [a, b] at 30 digits:
    mpmath.quad, split at the kink and at every half period of the
    oscillation; in closed form for the two endpoint singularities, whose
    tanh-sinh nodes at 30 digits stop short of the mass at the end (x^-0.81
    comes out 1.7e-6 low); NaN where the integrand reads NaN."""
    lo, hi = min(a, b), max(a, b)
    if family == "nan_returning" and hi > q + 0.7:
        return math.nan
    with mp.workdps(30):
        P, Q, w = mp.mpf(p), mp.mpf(q), mp.mpf(hi) - mp.mpf(q)
        if family == "endpoint_singular":
            s = mp.mpf(0.1 + 0.85 * p / 3.0)
            v = w ** (1 - s) / (1 - s)
        elif family == "log_singular":
            v = P * (w * mp.log(w) - w)
        else:
            f = {"smooth": lambda x: mp.exp(-P * x * x) * mp.cos(Q * x),
                 "interior_kink": lambda x: abs(x - Q - mp.mpf(0.3)) ** mp.mpf(0.1 * p),
                 "oscillatory": lambda x: mp.sin(mp.mpf(50.0 * p) * x + Q),
                 "sign_changing": lambda x: (x - Q - mp.mpf(0.4)) * mp.exp(P * x),
                 "nan_returning": lambda x: P * x}[family]
            n = int(50.0 * p * (hi - lo) / math.pi) + 1 if family == "oscillatory" else 1
            points = [lo + (hi - lo) * i / n for i in range(n)] + [hi]
            if family == "interior_kink" and lo < q + 0.3 < hi:
                points = [lo, q + 0.3, hi]
            v = mp.quad(f, [mp.mpf(x) for x in points])
        return float(v if a < b else -v)


@PROPERTY
@given(family=st.sampled_from(sorted(FAMILIES)),
       p=st.floats(0.05, 3.0), q=st.floats(-1.0, 1.0),
       width=st.floats(0.05, 4.0), flip=st.booleans(),
       limit=st.sampled_from([1, 2, 10, 400]), epsabs=st.sampled_from([0.0, 1e-12]),
       epsrel=st.sampled_from([1.49e-8, 1e-10]))
def test_quad_matches_scipy_bit_for_bit(family, p, q, width, flip, limit, epsabs, epsrel):
    f = FAMILIES[family](p, q)
    a, b = (q + width, q) if flip else (q, q + width)
    theirs, ours = _quad_both(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)
    result, abserr = float.fromhex(ours[0]), float.fromhex(ours[1])
    if theirs[3] <= 2:
        # both take the same steps; dqagse sets the limit flag before its
        # convergence test and dqage after it, so a second bisection that
        # converges at limit 2 reads ier 1 in scipy and 0 here
        if theirs[4] == 1 and limit == 2 and abserr <= max(epsabs, epsrel * abs(result)):
            theirs = (*theirs[:4], 0, theirs[5])
        assert ours == theirs
        return
    exact = _exact(family, p, q, a, b)
    if math.isnan(exact):
        assert math.isnan(result)
    elif ours[4] == 0:
        # Kronrod's estimate is no bound: on the cusp |x - 0.3|^0.2 over
        # [0, 2.95] QAGS stops on QAG's value, 1.44 abserr from the integral
        assert abs(result - exact) <= max(abserr, abs(float.fromhex(theirs[0]) - exact))
    else:
        assert ours[4] in (1, 2, 3) and (ours[4] != 1 or ours[3] == limit)


def test_quad_subdivision_limit_matches_scipy():
    theirs, ours = _quad_both(lambda x: math.sin(200.0 * x), 0.0, 10.0,
                              epsabs=0.0, epsrel=1e-10, limit=10)
    assert ours == theirs
    assert ours[3] == 10 and ours[4] == 1


def test_quad_nan_integrand_gives_the_roundoff_message():
    """NaN past 0.7: the error sum is NaN, so no step converges, and QAG
    stops with ier 2 (roundoff) once six bisections of finite intervals
    have moved neither their value by 1e-5 nor their error by 1 %.
    scipy's QAGS ends on the same numbers along other abscissae."""
    theirs, ours = _quad_both(lambda x: math.nan if x > 0.7 else x, 0.0, 1.0,
                              epsabs=1e-12, epsrel=1e-10, limit=50)
    assert ours[:5] == theirs[:5] == ("nan", "nan", 441, 11, 2)


@pytest.mark.parametrize("f, a, b, epsabs, epsrel, last, ier", [
    # the first rule's error is its roundoff floor 50 eps |f| and no
    # tolerance is above it
    (math.exp, 0.0, 1.0, 1e-300, 0.0, 1, 2),
    # bisection closes in on the pole until an interval is a few ulps wide
    (lambda x: 1.0 / abs(x - 1.0 / 3.0) if x != 1.0 / 3.0 else 0.0, 0.0, 1.0, 0.0, 1e-10, 48, 3),
], ids=["roundoff", "bad-point"])
def test_quad_error_flags_match_scipy(f, a, b, epsabs, epsrel, last, ier):
    theirs, ours = _quad_both(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=400)
    assert ours == theirs
    assert ours[3:5] == (last, ier)


def test_quad_inf_integrand_matches_scipy():
    theirs, ours = _quad_both(lambda x: math.inf if x > 0.7 else x, 0.0, 1.0,
                              epsabs=1e-12, epsrel=1e-10, limit=50)
    assert ours == theirs


def test_quad_empty_interval_and_invalid_arguments():
    assert quad(math.exp, 1.0, 1.0) == (0.0, 0.0, {"neval": 0, "last": 0, "ier": 0})
    with pytest.raises(ValueError, match="limit"):
        scipy_quad(math.exp, 0.0, 1.0, limit=0)
    with pytest.raises(ValueError, match="limit"):
        quad(math.exp, 0.0, 1.0, limit=0)
    with pytest.raises(ValueError, match="epsrel"):
        quad(math.exp, 0.0, 1.0, epsabs=0.0, epsrel=1e-16)


# -- the 21-point rule --------------------------------------------------------

def _rule_both(f, a, b):
    """(loop form's, port's) 21-point rule on [a, b]: the four numbers as
    float.hex (every NaN reads "nan", a zero keeps its sign) and the
    abscissae read."""
    out = []
    for rule in (lambda g: qk21_loops(g, a, b, numerics._XGK, numerics._WGK, numerics._WG),
                 lambda g: numerics._qk21(g, a, b)):
        g, xs = _recorded(f)
        out.append(([float(v).hex() for v in rule(g)], [x.hex() for x in xs]))
    return out


_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -5e-324])
_RULE_INTERVAL = dict(a=st.floats(-1e3, 1e3),
                      width=st.floats(math.log(1e-12), math.log(1e2)).map(math.exp),
                      flip=st.booleans())


@PROPERTY
@given(values=st.lists(st.floats(-1e3, 1e3), min_size=21, max_size=21),
       specials=st.lists(st.tuples(st.integers(0, 20), _SPECIAL), max_size=2), **_RULE_INTERVAL)
def test_qk21_matches_the_loop_form_on_drawn_values(values, specials, a, width, flip):
    """Integrand values drawn call by call, up to two of them inf, NaN,
    +-0.0 or at the ends of the double range."""
    b = a - width if flip else a + width
    for i, v in specials:
        values[i] = v
    it = iter(values * 2)  # one pass per rule
    theirs, ours = _rule_both(lambda x: next(it), a, b)
    assert ours == theirs


@PROPERTY
@given(family=st.sampled_from(sorted(FAMILIES)), p=st.floats(0.05, 3.0), q=st.floats(-1.0, 1.0),
       zero=st.sampled_from([None, 0.0, -0.0, math.inf]), **_RULE_INTERVAL)
def test_qk21_matches_the_loop_form_on_integrands(family, p, q, zero, a, width, flip):
    """The quad families on narrow and wide intervals, with their values
    below the centre replaced by +-0.0 or inf."""
    b = a - width if flip else a + width
    g = FAMILIES[family](p, q)
    centre = 0.5 * (a + b)
    f = g if zero is None else (lambda x: zero if x < centre else g(x))
    theirs, ours = _rule_both(f, a, b)
    assert ours == theirs


# -- brentq -------------------------------------------------------------------

def _odd_power(k, r0, _):
    return lambda x: (x - r0) ** k


def _perturbed_kink(_, r0, c):
    # strictly increasing: slope 1 +- c with c < 1, plus a small wiggle
    return lambda x: (x - r0) + c * abs(x - r0) + 1e-3 * math.sin(7.0 * (x - r0))


@PROPERTY
@given(kind=st.sampled_from([_odd_power, _perturbed_kink]), k=st.sampled_from([1, 3, 5, 7]),
       r0=st.floats(-2.0, 2.0), c=st.floats(-0.9, 0.9),
       left=st.floats(1e-3, 3.0), right=st.floats(1e-3, 3.0), swap=st.booleans(),
       xtol=st.sampled_from([1e-15, 1e-12, 1e-6]), rtol=st.sampled_from([8.9e-16, 1e-10]))
def test_brentq_matches_scipy_bit_for_bit(kind, k, r0, c, left, right, swap, xtol, rtol):
    f = kind(k, r0, c)
    a, b = r0 - left, r0 + right
    if swap:
        a, b = b, a
    theirs, ours = _brentq_both(f, a, b, xtol=xtol, rtol=rtol)
    assert ours == theirs


def test_brentq_root_at_an_endpoint():
    for a, b in ((1.0, 3.0), (-2.0, 1.0)):
        theirs, ours = _brentq_both(lambda x: x - 1.0, a, b)
        assert ours == theirs == ((1.0).hex(), [a, b])


@pytest.mark.parametrize("f, kw", [
    (lambda x: x * x + 1.0, {}),  # equal signs
    (lambda x: math.nan if x > 0.5 else x - 0.3, {}),  # NaN function value
    (lambda x: x - 0.3, {"xtol": 0.0}),
    (lambda x: x - 0.3, {"rtol": 1e-16}),
    (lambda x: x - 0.3, {"maxiter": -1}),
], ids=["equal-signs", "nan", "xtol", "rtol", "maxiter"])
def test_brentq_value_errors_match_scipy(f, kw):
    with pytest.raises(ValueError):
        scipy_brentq(f, 0.0, 1.0, **kw)
    with pytest.raises(ValueError):
        brentq(f, 0.0, 1.0, **kw)


def test_brentq_runtime_error_at_maxiter():
    theirs, ours = _brentq_both(lambda x: math.exp(x) - 2.0, -3.0, 5.0, maxiter=3)
    assert ours == theirs
    assert ours[0] == "RuntimeError" and len(ours[1]) == 5


def test_brentq_zero_denominator_bisects(monkeypatch):
    """Tiny function values underflow the extrapolation's denominator to 0;
    C's inf or NaN trial step fails the short-step test, and the port
    bisects there too."""
    zero = []
    div = numerics._div
    monkeypatch.setattr(numerics, "_div", lambda x, y: zero.append(y == 0) or div(x, y))
    r0 = 0.706363522352242

    def f(x):
        return 3.612558158303001e-185 * ((x - r0) ** 3 + 0.3 * (x - r0) * abs(x - r0))

    theirs, ours = _brentq_both(f, 0.0, 1.0, xtol=1e-15)
    assert any(zero)
    assert ours == theirs
