"""Warping-function families for metrics dr^2 + f^2 ds_k^2 + h^2 ds_1^2.

An f-role function closes the sphere factor at the axis (f(0)=0, f'(0)=1,
0<f'<1, f''<0 away from it); an h-role function scales the circle factor
(h(0)>0, h'<0).  Profile checkers verify these shape conditions on sample
grids; construction itself never enforces them, so calibration metrics
(flat cone, round sphere) remain expressible.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .jets import Jet2, jet_exp, jet_sin


@dataclass(frozen=True)
class WarpingFunction:
    """A labelled scalar profile evaluated as a second-order jet."""

    label: str
    fn: Callable[[Jet2], Jet2]
    params: tuple = field(default=())
    # the value alone at a float r, with the bits of fn's Jet2 value (None:
    # the family has no such form)
    float_value: Callable[[float], float] | None = field(default=None, compare=False, repr=False)

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
    return WarpingFunction("standard-f", lambda x: x * (1 + x * x) ** (-0.25))


def power_decay_h(p: float) -> WarpingFunction:
    """h(r) = (1+r^2)^(-p): flat at the axis, polynomial decay of rate 2p."""
    return WarpingFunction(f"power-decay-h(p={p})", lambda x: (1 + x * x) ** (-p), (p,),
                           lambda r: (r * r + 1) ** (-p))


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
