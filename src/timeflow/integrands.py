"""Parametric integrand families g(v, t) driving the monotone scalar maps.

Each built-in family is a three-parameter function of the state `v` only:

    quadratic      g(v, t) = a*v + b + c*v^2
    cubic          g(v, t) = a*v + b + c*v^3
    sigmoid_affine g(v, t) = a*v + b + c*sigmoid(v)

A `custom` integrand carries explicit value / d-value callbacks and may
depend on `t`. All family functions are written against the autodiff
dispatch helpers, so they accept plain arrays or taped nodes, and the
(a, b, c) slots may themselves be arrays broadcast against `v`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .autodiff import sigmoid, value_of

FAMILIES = ("quadratic", "cubic", "sigmoid_affine", "custom")


class NonFiniteError(ArithmeticError):
    """An integrand evaluation produced a non-finite value."""


# family -> (phi, dphi, d2phi) for g(v, t) = a*v + b + c*phi(v); the derivatives
# take the values below them, dphi(v, phi) and d2phi(v, phi, dphi), so one phi
# evaluation serves all three
_PHI = {
    "quadratic": (lambda v: v * v, lambda v, p: 2.0 * v, lambda v, p, dp: 2.0),
    "cubic": (lambda v: v * v * v, lambda v, p: 3.0 * (v * v), lambda v, p, dp: 6.0 * v),
    "sigmoid_affine": (sigmoid, lambda v, s: s * (1.0 - s),
                       lambda v, s, ds: ds * (1.0 - 2.0 * s)),
}


def _family(phi, dphi):
    def value(a, b, c, v, t, *, with_dv=False):
        p = phi(v)
        g = a * v + b + c * p
        if with_dv:  # the slope: dg/dv from the same phi
            return g, a + c * dphi(v, p)
        return g

    def dv(a, b, c, v, t):
        return a + c * dphi(v, phi(v))

    return value, dv


_TABLE = {family: _family(phi, dphi) for family, (phi, dphi, _) in _PHI.items()}


def family_functions(family: str):
    """Return ``(value_fn, dv_fn)`` with signature ``(a, b, c, v, t)``.

    ``value_fn(..., with_dv=True)`` is the slope: it returns the pair
    ``(g, dg/dv)`` from one evaluation of phi, bitwise equal to the two
    separate calls. That is the form `integrate` takes with ``dv_fn=None``.
    """
    try:
        return _TABLE[family]
    except KeyError:
        raise ValueError(f"unknown integrand family {family!r}") from None


def family_phi(family: str):
    """Return ``(phi, dphi, d2phi)`` of a built-in family.

    They are called as ``phi(v)``, ``dphi(v, phi)`` and ``d2phi(v, phi, dphi)``.
    With g = a*v + b + c*phi(v) they give every derivative the discrete
    adjoint needs: dg/d(a, b, c) = (v, 1, phi), d2g/dv2 = c*phi'' and
    d(dg/dv)/d(a, b, c) = (1, 0, phi').
    """
    try:
        return _PHI[family]
    except KeyError:
        raise ValueError(f"unknown integrand family {family!r}") from None


@dataclass(frozen=True)
class Integrand:
    """An integrand family with fixed scalar parameters (a, b, c).

    For ``family='custom'`` the formulas come from ``value_fn(v, t)`` and
    ``dv_fn(v, t)`` instead; the parameter triple is kept for bookkeeping
    but unused.
    """

    family: str
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    value_fn: Optional[Callable] = None
    dv_fn: Optional[Callable] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown integrand family {self.family!r}")
        for name in ("a", "b", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"integrand parameter {name} must be finite")
        if self.family == "custom" and (self.value_fn is None or self.dv_fn is None):
            raise ValueError("custom integrand needs value_fn and dv_fn")

    @classmethod
    def quadratic(cls, a, b, c):
        return cls("quadratic", float(a), float(b), float(c))

    @classmethod
    def cubic(cls, a, b, c):
        return cls("cubic", float(a), float(b), float(c))

    @classmethod
    def sigmoid_affine(cls, a, b, c):
        return cls("sigmoid_affine", float(a), float(b), float(c))

    @classmethod
    def custom(cls, value_fn, dv_fn):
        return cls("custom", value_fn=value_fn, dv_fn=dv_fn)

    def params(self):
        return (self.a, self.b, self.c)

    def functions(self):
        """``(value_fn, dv_fn)`` with signature ``(v, t)``, params bound in."""
        if self.family == "custom":
            return self.value_fn, self.dv_fn
        value, dv = family_functions(self.family)
        a, b, c = self.a, self.b, self.c
        return (
            lambda v, t: value(a, b, c, v, t),
            lambda v, t: dv(a, b, c, v, t),
        )


def eval_integrand(g: Integrand, v, t):
    """Evaluate g(v, t); a non-finite result is reported, not propagated."""
    value_fn, _ = g.functions()
    out = value_fn(v, t)
    if not np.all(np.isfinite(value_of(out))):
        raise NonFiniteError(
            f"integrand {g.family} returned a non-finite value at v={v!r}, t={t!r}"
        )
    return out


def eval_integrand_dv(g: Integrand, v, t):
    """Evaluate the partial derivative of g with respect to v."""
    _, dv_fn = g.functions()
    out = dv_fn(v, t)
    if not np.all(np.isfinite(value_of(out))):
        raise NonFiniteError(
            f"integrand {g.family} derivative non-finite at v={v!r}, t={t!r}"
        )
    return out
