"""Parametric integrand families g(v, t) driving the monotone scalar maps.

Each built-in family is a three-parameter function of the state `v` only:

    quadratic      g(v, t) = a*v + b + c*v^2
    cubic          g(v, t) = a*v + b + c*v^3
    sigmoid_affine g(v, t) = a*v + b + c*sigmoid(v)

A `custom` integrand carries explicit value / d-value callbacks and may
depend on `t`. The family functions take numpy arrays, and the (a, b, c)
slots may themselves be arrays broadcast against `v`.

`family_functions` gives each family's slope, which computes g and dg/dv from
shared intermediates (for the quadratic, u = c*v, w = a + u, g = w*v + b and
dg/dv = w + u). The discrete adjoint takes dg/dv from the same slope, on the
stage points it rebuilds, and its other derivatives from `family_phi`'s phi,
phi' and phi''.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np
from numpy import add, divide, exp, multiply, negative, subtract

# The constants of the formulas below, as read-only float64 0-d arrays: a ufunc
# converts a Python float operand afresh on every call, which on the narrow
# arrays of a solver step costs more than the call's arithmetic. Against
# float64 or complex128 operands they give the Python float's bits.
ONE, TWO, THREE, SIX = (np.array(z) for z in (1.0, 2.0, 3.0, 6.0))
for _z in (ONE, TWO, THREE, SIX):
    _z.flags.writeable = False

FAMILIES = ("quadratic", "cubic", "sigmoid_affine", "custom")


class NonFiniteError(ArithmeticError):
    """A CLI run's numeric check failed (every draw diverged, or a gradient
    check or round trip missed its tolerance); the CLI exits with status 5."""


def _logistic(x, out=None):
    """1 / (1 + exp(-x)), finite for every input.

    This is the textbook formula. Where exp(-x) overflows (x below about
    -709.78) it gives inf and 1 / (1 + inf) is exactly 0, where the true
    value is below 1e-308, so only the overflow warning is silenced. NaN
    stays NaN. Only a call without `out` converts x to a float array and
    silences it: a call with an `out` array, which every step is written
    into, takes an array x and must run under the caller's
    ``np.errstate(over="ignore")``, as `integrate`'s slope calls and the
    discrete adjoint do.
    """
    if out is None:
        with np.errstate(over="ignore"):
            return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))
    return divide(ONE, add(ONE, exp(negative(x, out), out), out), out)


# family -> (phi, dphi, d2phi), see `family_phi`. Given an `out` array, every
# ufunc of a formula writes into it; the quadratic's phi'' is the constant TWO,
# which leaves `out` alone.
_PHI = {
    "quadratic": (lambda v, out=None: multiply(v, v, out),
                  lambda v, p, out=None: multiply(TWO, v, out),
                  lambda v, p, dp, out=None: TWO),
    "cubic": (lambda v, out=None: multiply(multiply(v, v, out), v, out),
              lambda v, p, out=None: multiply(THREE, multiply(v, v, out), out),
              lambda v, p, dp, out=None: multiply(SIX, v, out)),
    "sigmoid_affine": (_logistic,
                       lambda v, s, out=None: multiply(s, subtract(ONE, s, out), out),
                       lambda v, s, ds, out=None: multiply(
                           ds, subtract(ONE, multiply(TWO, s, out), out), out)),
}

# The slopes: g and dg/dv from shared intermediates, called positionally. `out`
# is ``(g, dg, scratch)``, arrays of the result's shape to write into instead of
# allocating (dg may be None: dg/dv is allocated); scratch must not be v. An
# intermediate that dg/dv still needs waits in dg's array. Every ufunc takes
# its output positionally, which numpy parses faster than ``out=``.


def _quadratic(a, b, c, v, t, out=None, with_dv=False):
    # u = c*v; w = a + u; g = w*v + b; dg/dv = w + u
    g_out, dg_out, tmp = (None, None, None) if out is None else out
    u = multiply(c, v, dg_out if with_dv else tmp)
    w = add(a, u, tmp)
    g = add(multiply(w, v, g_out), b, g_out)
    return (g, add(w, u, dg_out)) if with_dv else g


def _cubic(a, b, c, v, t, out=None, with_dv=False):
    # q = c*v^2; w = a + q; g = w*v + b; dg/dv = w + 2*q
    g_out, dg_out, tmp = (None, None, None) if out is None else out
    q = multiply(c, multiply(v, v, tmp), dg_out if with_dv else tmp)
    w = add(a, q, tmp)
    g = add(multiply(w, v, g_out), b, g_out)
    return (g, add(w, multiply(TWO, q, dg_out), dg_out)) if with_dv else g


def _sigmoid_affine(a, b, c, v, t, out=None, with_dv=False):
    # s = sigmoid(v); cs = c*s; g = a*v + b + cs; dg/dv = a + cs*(1 - s)
    g_out, dg_out, tmp = (None, None, None) if out is None else out
    s = _logistic(v) if out is None else divide(  # `_logistic` into tmp, inline
        ONE, add(ONE, exp(negative(v, tmp), tmp), tmp), tmp)
    cs = multiply(c, s, dg_out if with_dv else tmp)
    g = add(add(multiply(a, v, g_out), b, g_out), cs, g_out)
    dg = with_dv and add(a, multiply(cs, subtract(ONE, s, tmp), dg_out), dg_out)
    return (g, dg) if with_dv else g


# family -> (slope, dg/dv alone), the slope's dg/dv
_TABLE = {family: (slope, lambda a, b, c, v, t, slope=slope: slope(a, b, c, v, t, with_dv=True)[1])
          for family, slope in (("quadratic", _quadratic), ("cubic", _cubic),
                                ("sigmoid_affine", _sigmoid_affine))}


def _lookup(table, family):
    try:
        return table[family]
    except KeyError:
        raise ValueError(f"unknown integrand family {family!r}") from None


def family_functions(family: str):
    """Return ``(value_fn, dv_fn)`` with signature ``(a, b, c, v, t)``.

    ``value_fn(..., with_dv=True)`` is the slope: it returns the pair
    ``(g, dg/dv)`` from shared intermediates, and ``dv_fn`` is the same
    expression as that dg/dv, so the pair is bitwise equal to the two
    separate calls. ``value_fn(a, b, c, v, t, (g, dg, scratch))`` writes that
    result into the given arrays and returns them, bitwise equal to the
    allocating call. `scalarmap.family_slope` binds a, b and c, and
    `integrate` passes each stage's slope rows this way, positionally.
    """
    return _lookup(_TABLE, family)


def family_phi(family: str):
    """Return ``(phi, dphi, d2phi)`` of a built-in family.

    They are called as ``phi(v)``, ``dphi(v, phi)`` and ``d2phi(v, phi, dphi)``,
    so one phi serves all three, each with an optional ``out`` array last.
    With g = a*v + b + c*phi(v) they give every derivative the discrete
    adjoint needs: dg/d(a, b, c) = (v, 1, phi), d2g/dv2 = c*phi'' and
    d(dg/dv)/d(a, b, c) = (1, 0, phi').
    """
    return _lookup(_PHI, family)


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
        return tuple(partial(f, *self.params()) for f in family_functions(self.family))

