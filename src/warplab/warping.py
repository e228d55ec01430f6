"""Warping-function families for metrics dr^2 + f^2 ds_k^2 + h^2 ds_1^2.

An f-role function closes the sphere factor at the axis (f(0)=0, f'(0)=1,
0<f'<1, f''<0 away from it); an h-role function scales the circle factor
(h(0)>0, h'<0).  Profile checkers verify these shape conditions on sample
grids; construction itself never enforces them, so calibration metrics
(flat cone, round sphere) remain expressible.

Every family carries its frame, in closed form: an `HFrame` for h, an
`FFrame` for f, at a float64 array of radii, which the dense curvature
checks read.  An h-role family also reads its frame at a double radius
(an HFrame of doubles), and has a scalar log reader r -> log h, which
`halfplane` integrates through; log h never underflows where h does.
The jet (`__call__`) serves tests; `value` evaluates the same expression on
the scalar itself, so the Christoffel oracle's reads build no jet.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .jets import Jet2, jet_exp, jet_sin


LOG_DOUBLE_MAX = math.log(1.7976931348623157e308)  # math.exp overflows past this

# h at double radii: log h, p = -d log h/dy and p_y = dp/dy, y = log(1+r^2)
HFrame = namedtuple("HFrame", "log_h p p_y")
# f at double radii; radial -(1+r^2) f''/f and cross 2r f'/f are pairs
# (c0, c1) standing for c0 + c1 s, s = 1/(1+r^2); sphere (1+r^2)(1-f'^2)/f^2
FFrame = namedtuple("FFrame", "log_f radial cross sphere")


def log1p_sq(r):
    """log(1 + r^2) on a float64 array, with no r*r past 1e150 nor log(r) short of it."""
    with np.errstate(over="ignore"):
        return np.where(r < 1e150, np.log1p(r * r), 2.0 * np.log(np.maximum(r, 1e150)))


def log1p_sq_float(r):
    """log(1 + r^2) at a double r, switching as `log1p_sq` does (past 1e150
    the 1 is below half an ulp of r^2)."""
    return math.log1p(r * r) if r < 1e150 else 2.0 * math.log(r)


def inv_u(r):
    """1/(1 + r^2) on a float64 array, 0.0 where r*r overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + r * r)


def power_frame(r, p, log_c=0.0) -> HFrame:
    """The HFrame of C (1+r^2)^(-p), log C = log_c, at a float64 array or a
    double r."""
    if r.__class__ is np.ndarray:
        return HFrame(log_c - p * log1p_sq(r), np.full(r.shape, p), np.zeros(r.shape))
    return HFrame(log_c - p * log1p_sq_float(r), p, 0.0)


def _linear_f_frame(r):
    # f = r: f'' = 0, 2r f'/f = 2 and 1 - f'^2 = 0
    return FFrame(np.log(r), (0.0, 0.0), (2.0, 0.0), 0.0)


def _sine_f_frame(r):
    # f = sin r: -f''/f = 1, 2r f'/f = 2r cot r and (1 - f'^2)/f^2 = 1
    u = 1.0 + r * r
    s = np.sin(r)
    return FFrame(np.log(s), (u, 0.0), (2.0 * r * np.cos(r) / s, 0.0), u)


def _standard_f_frame(r):
    # -(1+r^2) f''/f = (1 + 5s)/4, 2r f'/f = 1 + s, and (1+r^2)(1 - f'^2)/f^2
    # = sqrt(u)/(1 + 1/sqrt(u)) + (3 + s)/4 with u = 1 + r^2
    su = np.hypot(1.0, r)
    return FFrame(np.log(r) - 0.25 * log1p_sq(r), (0.25, 1.25), (1.0, 1.0),
                  su / (1.0 + 1.0 / su) + (3.0 + inv_u(r)) / 4.0)


@dataclass(frozen=True)
class WarpingFunction:
    """A labelled scalar profile, evaluated as a second-order jet or at a scalar."""

    label: str
    fn: Callable[[Jet2], Jet2]
    # the closed-form frame at a float64 array of radii, and for h at a double
    frame: Callable[[np.ndarray], HFrame | FFrame] = field(compare=False, repr=False)
    # log h at a double r, equal to frame(r).log_h (None: no log reader)
    log_h: Callable[[float], float] | None = field(default=None, compare=False, repr=False)

    def __call__(self, r) -> Jet2:
        return self.fn(Jet2.variable(r))

    def value(self, r):
        """fn at the scalar r itself, with the bits of self(r).value."""
        return self.fn(r)


def standard_f() -> WarpingFunction:
    """f(r) = r (1+r^2)^(-1/4): unit slope at the axis, sqrt(r) growth."""
    return WarpingFunction("standard-f", lambda x: x * (1 + x * x) ** (-0.25),
                           _standard_f_frame)


def power_decay_h(p: float) -> WarpingFunction:
    """h(r) = (1+r^2)^(-p): flat at the axis, polynomial decay of rate 2p."""
    return WarpingFunction(f"power-decay-h(p={p})", lambda x: (1 + x * x) ** (-p),
                           lambda r: power_frame(r, p), lambda r: -p * log1p_sq_float(r))


def constant_h(c: float = 1.0) -> WarpingFunction:
    """h == c; flat circle factor, used for calibration metrics."""
    log_c = math.log(c)
    return WarpingFunction(f"constant-h({c})", lambda x: c + 0.0 * x,
                           lambda r: power_frame(r, 0.0, log_c), lambda r: log_c)


def linear_f() -> WarpingFunction:
    """f(r) = r; flat cone over the round sphere."""
    return WarpingFunction("linear-f", lambda x: x, _linear_f_frame)


def sine_f() -> WarpingFunction:
    """f(r) = sin r on (0, pi); closes a round sphere, for calibration."""
    return WarpingFunction("sine-f", jet_sin, _sine_f_frame)


def exp_decay_h() -> WarpingFunction:
    """h(r) = exp(-r).  The halfplane dr^2 + e^{-2r} dv^2 is hyperbolic,
    which gives closed-form geodesic oracles.  Its frame has p = (r + 1/r)/2
    and p_y = p (1 - 1/r^2)/2, and raises ValueError at r <= 0: h'(0) = -1,
    so p is infinite on the axis."""
    def frame(r):
        if not np.all(r > 0):
            raise ValueError(f"exp-decay-h has no exponent frame at r = {np.min(r)}")
        p = 0.5 * (r + 1.0 / r)
        return HFrame(-r, p, 0.5 * p * (1.0 - 1.0 / (r * r)))

    return WarpingFunction("exp-decay-h", lambda x: jet_exp(-x), frame, log_h=lambda r: -r)


def grushin_h(alpha: float) -> WarpingFunction:
    """h(t) = t^(-2*alpha) on (0, inf): the Grushin halfplane coefficient."""
    def frame(t):  # p = alpha (1 + t^2)/t^2, p_y = -alpha (1 + t^2)/t^4
        p = alpha * (1.0 + 1.0 / (t * t))
        log_t = np.log(t) if t.__class__ is np.ndarray else math.log(t)
        return HFrame(-2.0 * alpha * log_t, p, -p / (t * t))

    return WarpingFunction(f"grushin-h(alpha={alpha})", lambda x: x ** (-2.0 * alpha), frame,
                           lambda t: -2.0 * alpha * math.log(t))
