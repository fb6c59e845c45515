"""Monotone scalar maps defined by unit-time integration of v' = g(v, t).

The forward map sends x to v(1) where v solves the scalar ODE with
v(0) = x. Because trajectories of a (Lipschitz) scalar ODE cannot cross,
the map is strictly increasing; its derivative is exp of the time integral
of dg/dv along the trajectory, which we accumulate as an augmented ODE
state so the log-derivative carries the same discretization order as the
map itself. The inverse map integrates the same dynamics from t = 1 back
to t = 0, optionally followed by root refinement (see `inversion`).

Everything here is a pure function of its inputs; configs are frozen
dataclasses and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .autodiff import Node, _unbroadcast, backward, grad_or_zeros, value_of
from .integrands import (Integrand, eval_integrand, eval_integrand_dv, family_functions,
                         family_phi)

__all__ = [
    "SolverConfig",
    "MapResult",
    "InverseResult",
    "VjpResult",
    "DivergenceError",
    "forward",
    "inverse",
    "derivative",
    "forward_vjp",
    "solve_node",
    "eval_integrand",
    "eval_integrand_dv",
]

DEFAULT_GUARD = 1e6  # |v| beyond this is treated as blow-up of the dynamics

SCHEMES = ("rk4", "euler")
DIRECTIONS = ("forward", "reverse")


class DivergenceError(ArithmeticError):
    """Trajectory left the guard box |v| <= guard before reaching t = 1."""

    def __init__(self, message, indices=None):
        super().__init__(message)
        self.indices = indices


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step scheme over the unit time interval.

    `steps` intervals of exact width 1/steps; `direction` chooses whether
    time runs 0 -> 1 or 1 -> 0. The reverse direction is the algebraic
    reversal of the forward limits, not a different discretization.
    """

    scheme: str = "rk4"
    steps: int = 16
    direction: str = "forward"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    def reversed(self):
        other = "reverse" if self.direction == "forward" else "forward"
        return replace(self, direction=other)


@dataclass
class MapResult:
    """Transformed value plus the accumulated log-derivative (nats)."""

    y: object
    log_deriv: object
    trajectory: Optional[np.ndarray] = None


@dataclass
class InverseResult:
    x: object
    iterations: int = 0
    converged: Optional[bool] = None
    residual: Optional[float] = None
    method: str = "reverse_integration"

    def __float__(self):
        return float(self.x)


@dataclass
class VjpResult:
    dx: object
    dparams: tuple = (0.0, 0.0, 0.0)


def _check_guard(v, guard, where, divergence):
    """Detect lanes outside the guard box. Returns updated v in 'nan' mode."""
    raw = value_of(v)
    if not raw.size or np.abs(raw).max() <= guard:  # NaN fails this comparison
        return v, None
    bad = ~np.isfinite(raw) | (np.abs(raw) > guard)
    if divergence == "raise":
        rows = None
        if raw.ndim:  # axis 0 holds the batch rows
            rows = np.flatnonzero(bad.reshape(len(bad), -1).any(axis=1)).tolist()
        raise DivergenceError(
            f"trajectory left |v| <= {guard:g} at {where}"
            + (f" (rows {rows})" if rows else ""),
            indices=rows,
        )
    if isinstance(v, Node):  # taped runs always raise; masking is untraceable
        raise DivergenceError(f"trajectory left |v| <= {guard:g} at {where}")
    return np.where(bad, np.nan, raw), bad


def integrate(value_fn, dv_fn, x, cfg, *, guard=DEFAULT_GUARD, want_log_deriv=True,
              keep_trajectory=False, divergence="raise", stages=None):
    """Integrate v' = g(v, t) across the unit interval.

    The loop evaluates one slope per stage point, which returns g and
    dg/dv together. Built-in families pass it as ``value_fn`` with
    ``dv_fn=None`` (see `integrands.family_functions`), so one phi(v)
    serves both; a two-function caller passes g = ``value_fn(v, t)`` and
    dg/dv = ``dv_fn(v, t)``, which are adapted to a slope once, before
    the loop, and ``dv_fn`` is not called unless `want_log_deriv`.

    With `want_log_deriv` it also accumulates l' = dg/dv with l(0) = 0,
    using the same scheme and stage points, i.e. one pass over the
    augmented state (v, l). If `stages` is a list, the stage points of
    every step are appended to it, ``(v1, v2, v3, v4)`` for RK4 and
    ``(v1,)`` for Euler; `solve_node` differentiates a built-in-family
    solve from them by a discrete adjoint. Plain arrays are the fast path;
    autodiff Nodes for `x` (and, through closures, for the integrand
    parameters) tape every operation, which only custom integrands in
    `forward_vjp` still need.

    Returns ``(v_end, log_deriv, trajectory)``.
    """
    if divergence not in ("raise", "nan"):
        raise ValueError("divergence must be 'raise' or 'nan'")
    if dv_fn is None:
        slope = value_fn
    elif want_log_deriv:
        def slope(v, t):
            return value_fn(v, t), dv_fn(v, t)
    else:
        def slope(v, t):
            return value_fn(v, t), None
    n = cfg.steps
    h = (1.0 if cfg.direction == "forward" else -1.0) / n
    t0 = 0.0 if cfg.direction == "forward" else 1.0

    v = x
    log_deriv = None
    trajectory = [np.array(value_of(x), copy=True)] if keep_trajectory else None

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n):
            t = t0 + k * h
            if cfg.scheme == "euler":
                dv, dl = slope(v, t)
                if stages is not None:
                    stages.append((v,))
                if want_log_deriv:
                    log_deriv = dl * h if log_deriv is None else log_deriv + dl * h
                v = v + dv * h
            else:  # rk4 on the augmented state; l does not feed back into v
                half = 0.5 * h
                k1, d1 = slope(v, t)
                v2 = v + half * k1
                k2, d2 = slope(v2, t + half)
                v3 = v + half * k2
                k3, d3 = slope(v3, t + half)
                v4 = v + h * k3
                k4, d4 = slope(v4, t + h)
                if stages is not None:
                    stages.append((v, v2, v3, v4))
                if want_log_deriv:
                    m = (d1 + 2.0 * d2 + 2.0 * d3 + d4) * (h / 6.0)
                    log_deriv = m if log_deriv is None else log_deriv + m
                v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            v, _ = _check_guard(v, guard, f"t={t0 + (k + 1) * h:.6g}", divergence)
            if keep_trajectory:
                trajectory.append(np.array(value_of(v), copy=True))

    if not want_log_deriv:
        log_deriv = None
    traj = np.stack(trajectory) if keep_trajectory else None
    return v, log_deriv, traj


def _solver_functions(g: Integrand):
    """``(value_fn, dv_fn)`` for `integrate`; the one-phi slope for built-in families."""
    if g.family == "custom":
        return g.functions()
    value, _ = family_functions(g.family)
    a, b, c = g.params()
    return (lambda v, t: value(a, b, c, v, t, with_dv=True)), None


def _as_input(x):
    """Normalize map input; returns (array, was_scalar)."""
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _as_output(y, scalar):
    return float(y) if scalar else y


def forward(g: Integrand, cfg: SolverConfig, x, *, guard=DEFAULT_GUARD,
            keep_trajectory=False, divergence="raise") -> MapResult:
    """Map x to v(1) along v' = g(v, t), v(0) = x.

    `x` may be a scalar or an array (lanes integrate independently).
    `divergence='nan'` marks blown-up lanes with NaN instead of raising,
    which is convenient for vectorized screening.
    """
    if cfg.direction != "forward":
        raise ValueError("forward() needs a forward-direction SolverConfig")
    value_fn, dv_fn = _solver_functions(g)
    arr, scalar = _as_input(x)
    y, log_deriv, traj = integrate(
        value_fn, dv_fn, arr, cfg, guard=guard,
        keep_trajectory=keep_trajectory, divergence=divergence,
    )
    return MapResult(_as_output(y, scalar), _as_output(log_deriv, scalar), traj)


def derivative(g: Integrand, cfg: SolverConfig, x, *, guard=DEFAULT_GUARD):
    """d(forward)/dx = exp of the accumulated log-derivative; always > 0."""
    return np.exp(forward(g, cfg, x, guard=guard).log_deriv)


def inverse(g: Integrand, cfg: SolverConfig, y, refine=None, *,
            guard=DEFAULT_GUARD, divergence="raise") -> InverseResult:
    """Recover x with forward(x) ~= y by integrating from t = 1 to t = 0.

    Reverse integration alone is a discretization-consistent inverse; pass
    a `RefineConfig` (see `timeflow.inversion`) to polish the result to a
    residual tolerance.
    """
    if cfg.direction != "reverse":
        raise ValueError("inverse() needs a reverse-direction SolverConfig")
    value_fn, dv_fn = g.functions()
    arr, scalar = _as_input(y)
    x0, _, _ = integrate(
        value_fn, dv_fn, arr, cfg, guard=guard,
        want_log_deriv=False, divergence=divergence,
    )
    if refine is None or refine.method == "reverse_only":
        return InverseResult(_as_output(x0, scalar))
    from . import inversion  # deferred: inversion builds on this module

    return inversion.refine_inverse(g, cfg.reversed(), arr, x0, refine, scalar=scalar,
                                    guard=guard)


def _adjoint(family, params, cfg, stages, cot_y, cot_l):
    """Reverse sweep of the solver steps over the stage points they saved.

    The discrete adjoint of `integrate` for g = a*v + b + c*phi(v): given
    the cotangents of v(1) and of the log-derivative, returns those of x,
    a, b and c, each in the broadcast shape of the solve. RK4 and Euler
    share the sweep; they differ only in stage weights and offsets. Only
    the chain through the stage points is sequential, so everything else
    is evaluated at all stage points at once.
    """
    phi, dphi, d2phi = family_phi(family)
    a, _, c = params  # g is affine in b, so b never enters a derivative
    h = (1.0 if cfg.direction == "forward" else -1.0) / cfg.steps
    if cfg.scheme == "euler":
        weights, offsets = (h,), ()
    else:  # v_{i+1} = v + offsets[i] * k_i, v_end = v + sum(weights[i] * k_i)
        weights = (h / 6.0, h / 3.0, h / 3.0, h / 6.0)
        offsets = (0.5 * h, 0.5 * h, h)
    s = len(weights)
    points = [vi for step in stages for vi in step]
    v = np.stack(np.broadcast_arrays(cot_y, *points)[1:])  # x may be narrower than v(1)
    w = np.tile(weights, len(stages)).reshape((-1,) + (1,) * (v.ndim - 1))
    p = phi(v)  # one sigmoid serves phi, phi' and phi''
    dp = dphi(v, p)
    jac = a + c * dp  # dg/dv at every stage point
    jbar = w * cot_l  # cotangent of each stage's dg/dv
    through_jac = jbar * (c * d2phi(v, p, dp))  # reaches a stage point through its dg/dv
    kbar = np.empty(v.shape)  # cotangents of the stage slopes k_i
    ybar = cot_y
    for r0 in range(len(v) - s, -1, -s):
        vbar = ybar
        carry = 0.0  # cotangent reaching k_i through the next stage point
        for i in range(s - 1, -1, -1):
            r = r0 + i
            kbar[r] = weights[i] * ybar + carry
            sbar = kbar[r] * jac[r] + through_jac[r]  # cotangent of stage point r
            vbar = vbar + sbar
            if i:
                carry = offsets[i - 1] * sbar
        ybar = vbar
    abar = np.sum(kbar * v + jbar, axis=0)
    cbar = np.sum(kbar * p + jbar * dp, axis=0)
    return ybar, abar, np.sum(kbar, axis=0), cbar


def solve_node(family, x, params, cfg, y, log_deriv, stages):
    """Record one built-in-family solve on the tape as a single Node.

    `y`, `log_deriv` and `stages` come from `integrate` run on the raw
    values of `x` and `params` = (a, b, c), any of which may be Nodes.
    Returns Nodes for v(1) and the log-derivative, both slices of the one
    solve Node, whose VJP is the discrete adjoint of the solver steps:
    the exact gradient of the discretized map, not of the continuous one.
    """
    raw = [value_of(p) for p in params]
    taped = [(k, p) for k, p in enumerate((x, *params)) if isinstance(p, Node)]

    def vjp(g):
        grads = _adjoint(family, raw, cfg, stages, g[0], g[1])
        return tuple(_unbroadcast(grads[k], p.shape) for k, p in taped)

    node = Node(np.stack(np.broadcast_arrays(y, log_deriv)), tuple(p for _, p in taped), vjp)
    return node[0], node[1]


def forward_vjp(g: Integrand, cfg: SolverConfig, x, cot_y, cot_logdet,
                *, guard=DEFAULT_GUARD) -> VjpResult:
    """Reverse-mode sensitivities of (y, log_deriv) through the solver steps.

    Differentiates the discretized computation exactly (the gradient of
    what `forward` actually evaluates, not of the continuous limit) and
    contracts with the given cotangents. Built-in families go through the
    discrete adjoint of `solve_node`; custom integrands tape every
    operation of the solve. Returns d/dx and d/d(a, b, c); for custom
    integrands the parameter slots come back as zeros.
    """
    if cfg.direction != "forward":
        raise ValueError("forward_vjp() needs a forward-direction SolverConfig")
    arr, scalar = _as_input(x)
    x_node = Node(arr)
    value_fn, dv_fn = _solver_functions(g)
    if g.family == "custom":
        params = ()
        y, log_deriv, _ = integrate(value_fn, dv_fn, x_node, cfg, guard=guard)
    else:
        params = tuple(Node(p) for p in g.params())
        stages = []
        y, log_deriv, _ = integrate(value_fn, dv_fn, arr, cfg, guard=guard, stages=stages)
        y, log_deriv = solve_node(g.family, x_node, params, cfg, y, log_deriv, stages)
    backward([(y, cot_y), (log_deriv, cot_logdet)])
    dx = _as_output(grad_or_zeros(x_node), scalar)
    dparams = tuple(float(np.sum(grad_or_zeros(p))) for p in params) or (0.0, 0.0, 0.0)
    return VjpResult(dx=dx, dparams=dparams)
