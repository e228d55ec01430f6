"""Second-order forward-mode differentiation on scalars.

A :class:`Jet2` carries ``(value, d1, d2)`` -- the value and first two
derivatives of a function of one variable.  Arithmetic propagates
derivatives exactly through closed-form expressions, so warping functions
built from jets have machine-accurate jets with no divided differences
anywhere on this path (the independent curvature oracle uses divided
differences; the two mechanisms must stay separate for cross-checks to
mean anything).

The scalar type is duck-typed: ``float`` for the values the Christoffel
oracle reads of a smoothed h and for the jets of the segments and blends,
which are doubles, and ``mpmath.mpf`` for the tests' 30-digit references
of the warping families.  The arcs, turning points and counts of
`halfplane`, the dense checks and `WarpingFunction.value` read no Jet2
(``jet_sin`` and ``jet_exp`` also take a plain scalar).

This module never imports mpmath, nor does any module of the package: it
reads mpmath from ``sys.modules``.  An mpf cannot exist before mpmath is
imported, so float jets work in a process that never loads it, and mpf
jets find it loaded.

Powers are evaluated in ratio form ``u**p * (p*u1/u, ...)`` so
intermediates like ``u**(p-2)`` never underflow before being multiplied
back up.
"""

import math
import sys


def _is_mp(x):
    mp = sys.modules.get("mpmath")  # no mpf exists before mpmath is imported
    return mp is not None and isinstance(x, (mp.mpf, mp.mpc))


def _lift(fn, name):
    """fn on floats, mpmath's function of that name on mpf, looked up at the call."""

    def lifted(x):
        if isinstance(x, float) or not _is_mp(x):
            return fn(x)
        return getattr(sys.modules["mpmath"], name)(x)

    return lifted


_sin = _lift(math.sin, "sin")
_cos = _lift(math.cos, "cos")
_exp = _lift(math.exp, "exp")


class Jet2:
    """Truncated second-order Taylor scalar: value, d/dr, d^2/dr^2."""

    __slots__ = ("value", "d1", "d2")

    def __init__(self, value, d1=0.0, d2=0.0):
        self.value = value
        self.d1 = d1
        self.d2 = d2

    @staticmethod
    def variable(r):
        one = sys.modules["mpmath"].mpf(1) if _is_mp(r) else 1.0
        return Jet2(r, one, 0 * one)

    @staticmethod
    def constant(c):
        zero = sys.modules["mpmath"].mpf(0) if _is_mp(c) else 0.0
        return Jet2(c, zero, zero)

    def is_finite(self):
        return all(sys.modules["mpmath"].isfinite(v) if _is_mp(v) else math.isfinite(v)
                   for v in (self.value, self.d1, self.d2))

    def __repr__(self):
        return f"Jet2({self.value!r}, d1={self.d1!r}, d2={self.d2!r})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.value + other.value, self.d1 + other.d1, self.d2 + other.d2)
        return Jet2(self.value + other, self.d1, self.d2)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.value, -self.d1, -self.d2)

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.value - other.value, self.d1 - other.d1, self.d2 - other.d2)
        return Jet2(self.value - other, self.d1, self.d2)

    def __rsub__(self, other):
        return Jet2(other - self.value, -self.d1, -self.d2)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            return Jet2(
                self.value * other.value,
                self.d1 * other.value + self.value * other.d1,
                self.d2 * other.value + 2 * self.d1 * other.d1 + self.value * other.d2,
            )
        return Jet2(self.value * other, self.d1 * other, self.d2 * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            w = self.value / other.value
            d1 = (self.d1 - w * other.d1) / other.value
            d2 = (self.d2 - w * other.d2 - 2 * d1 * other.d1) / other.value
            return Jet2(w, d1, d2)
        return Jet2(self.value / other, self.d1 / other, self.d2 / other)

    def __rtruediv__(self, other):
        # other is a plain scalar
        w = other / self.value
        g1 = self.d1 / self.value
        d1 = -w * g1
        d2 = -w * (self.d2 / self.value) + 2 * w * g1 * g1
        return Jet2(w, d1, d2)

    def __pow__(self, p):
        """Real constant power, u > 0.  Ratio form keeps intermediates scaled."""
        u = self.value
        if u == 0:
            raise ZeroDivisionError("Jet2 power at zero base")
        v = u**p
        g1 = self.d1 / u
        d1 = v * (p * g1)
        d2 = v * (p * (p - 1) * g1 * g1 + p * self.d2 / u)
        return Jet2(v, d1, d2)


# -- chain-rule lifts of the few transcendental maps the models need --------


def jet_sin(j):
    if not isinstance(j, Jet2):
        return _sin(j)
    s, c = _sin(j.value), _cos(j.value)
    return Jet2(s, c * j.d1, c * j.d2 - s * j.d1 * j.d1)


def jet_exp(j):
    if not isinstance(j, Jet2):
        return _exp(j)
    e = _exp(j.value)
    return Jet2(e, e * j.d1, e * (j.d2 + j.d1 * j.d1))
