"""Warping-function families for metrics dr^2 + f^2 ds_k^2 + h^2 ds_1^2.

An f-role function closes the sphere factor at the axis (f(0)=0, f'(0)=1,
0<f'<1, f''<0 away from it); an h-role function scales the circle factor
(h(0)>0, h'<0).  Profile checkers verify these shape conditions on sample
grids; construction itself never enforces them, so calibration metrics
(flat cone, round sphere) remain expressible.

The dense curvature checks read a family through its frame at a float64
array of radii, in closed form: an `HFrame` for h, the `FFrame` of
`standard_f` for f (else `curvature` frames the double Jet2).
"""

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .jets import Jet2, jet_exp, jet_sin


# h at double radii: log h, p = -d log h/dy and p_y = dp/dy, y = log(1+r^2)
HFrame = namedtuple("HFrame", "log_h p p_y")
# f at double radii; radial -(1+r^2) f''/f and cross 2r f'/f are pairs
# (c0, c1) standing for c0 + c1 s, s = 1/(1+r^2); sphere (1+r^2)(1-f'^2)/f^2
FFrame = namedtuple("FFrame", "log_f radial cross sphere")


def log1p_sq(r):
    """log(1 + r^2) on a float64 array, with no r*r past 1e150."""
    with np.errstate(over="ignore"):
        return np.where(r < 1e150, np.log1p(r * r), 2.0 * np.log(r))


def inv_u(r):
    """1/(1 + r^2) on a float64 array, 0.0 where r*r overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + r * r)


def power_frame(r, p, log_c=0.0) -> HFrame:
    """The HFrame of C (1+r^2)^(-p), log C = log_c."""
    return HFrame(log_c - p * log1p_sq(r), np.full(r.shape, p), np.zeros(r.shape))


def _standard_f_frame(r):
    # -(1+r^2) f''/f = (1 + 5s)/4, 2r f'/f = 1 + s, and (1+r^2)(1 - f'^2)/f^2
    # = sqrt(u)/(1 + 1/sqrt(u)) + (3 + s)/4 with u = 1 + r^2
    su = np.hypot(1.0, r)
    return FFrame(np.log(r) - 0.25 * log1p_sq(r), (0.25, 1.25), (1.0, 1.0),
                  su / (1.0 + 1.0 / su) + (3.0 + inv_u(r)) / 4.0)


@dataclass(frozen=True)
class WarpingFunction:
    """A labelled scalar profile evaluated as a second-order jet."""

    label: str
    fn: Callable[[Jet2], Jet2]
    params: tuple = field(default=())
    # the value alone at a float r, with the bits of fn's Jet2 value (None:
    # the family has no such form)
    float_value: Callable[[float], float] | None = field(default=None, compare=False, repr=False)
    # the frame at a float64 array of radii (None: read from the Jet2)
    frame: Callable[[np.ndarray], HFrame | FFrame] | None = field(default=None, compare=False,
                                                                  repr=False)

    def __call__(self, r) -> Jet2:
        return self.fn(Jet2.variable(r))

    def value(self, r):
        return self.fn(Jet2.variable(r)).value

    def d1(self, r):
        return self.fn(Jet2.variable(r)).d1

    def d2(self, r):
        return self.fn(Jet2.variable(r)).d2


def standard_f() -> WarpingFunction:
    """f(r) = r (1+r^2)^(-1/4): unit slope at the axis, sqrt(r) growth."""
    return WarpingFunction("standard-f", lambda x: x * (1 + x * x) ** (-0.25),
                           frame=_standard_f_frame)


def power_decay_h(p: float) -> WarpingFunction:
    """h(r) = (1+r^2)^(-p): flat at the axis, polynomial decay of rate 2p."""
    return WarpingFunction(f"power-decay-h(p={p})", lambda x: (1 + x * x) ** (-p), (p,),
                           lambda r: (r * r + 1) ** (-p), lambda r: power_frame(r, p))


def bridged_power_h(p: float, scale_constant) -> WarpingFunction:
    """h(r) = C (1+r^2)^(-p), the bridge pieces of piecewise constructions."""
    return WarpingFunction(
        f"bridged-power-h(p={p})",
        lambda x, C=scale_constant: C * (1 + x * x) ** (-p),
        (p, scale_constant),
    )


def constant_h(c: float = 1.0) -> WarpingFunction:
    """h == c; flat circle factor, used for calibration metrics."""
    return WarpingFunction(f"constant-h({c})", lambda x: Jet2.constant(c) + 0.0 * x, (c,))


def linear_f() -> WarpingFunction:
    """f(r) = r; flat cone over the round sphere."""
    return WarpingFunction("linear-f", lambda x: x)


def sine_f() -> WarpingFunction:
    """f(r) = sin r on (0, pi); closes a round sphere, for calibration."""
    return WarpingFunction("sine-f", jet_sin)


def exp_decay_h() -> WarpingFunction:
    """h(r) = exp(-r).  The halfplane dr^2 + e^{-2r} dv^2 is hyperbolic,
    which gives closed-form geodesic oracles."""
    return WarpingFunction("exp-decay-h", lambda x: jet_exp(-x))


def grushin_h(alpha: float) -> WarpingFunction:
    """h(t) = t^(-2*alpha) on (0, inf): the Grushin halfplane coefficient."""
    return WarpingFunction(f"grushin-h(alpha={alpha})", lambda x: x ** (-2.0 * alpha), (alpha,),
                           lambda t: t ** (-2.0 * alpha))
