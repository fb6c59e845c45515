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

from .integrands import Integrand, family_functions, family_phi

__all__ = [
    "SolverConfig",
    "MapResult",
    "RootResult",
    "VjpResult",
    "DivergenceError",
    "forward",
    "inverse",
    "derivative",
    "forward_vjp",
]

GUARD = 1e6  # |v| beyond this is treated as blow-up of the dynamics

SCHEMES = ("rk4", "euler")
DIRECTIONS = ("forward", "reverse")


class DivergenceError(ArithmeticError):
    """A trajectory left the guard box |v| <= GUARD (1e6) before the end of its solve."""

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
class RootResult:
    """An inverse x of y and, lane by lane, how its refinement went.

    `iterations` counts bisection halvings or fixed-point passes; `fell_back`
    flags lanes that fell back from fixed point to bisection (see
    `inversion.refine_lanes`). Unrefined: iterations=0, converged=residual=None.
    """

    x: object
    iterations: object = 0
    converged: object = None
    residual: object = None
    fell_back: object = False


@dataclass
class VjpResult:
    dx: object
    dparams: tuple = (0.0, 0.0, 0.0)


def _check_guard(v, t, divergence, scratch):
    """Detect lanes outside the guard box |v| <= GUARD at time `t`. Returns
    updated v in 'nan' mode. |v| goes into `scratch`, an array of v's shape."""
    raw = np.asarray(v)
    if not raw.size or np.abs(raw, out=scratch).max() <= GUARD:  # NaN fails this comparison
        return v
    bad = ~np.isfinite(raw) | (np.abs(raw) > GUARD)
    if divergence == "raise":
        rows = None
        if raw.ndim:  # axis 0 holds the batch rows
            rows = np.flatnonzero(bad.reshape(len(bad), -1).any(axis=1)).tolist()
        raise DivergenceError(
            f"trajectory left |v| <= {GUARD:g} at t={t:.6g}"
            + (f" (rows {rows})" if rows else ""),
            indices=rows,
        )
    return np.where(bad, np.nan, raw)


def _two_function_slope(value_fn, dv_fn, want_log_deriv):
    """The slope of a caller that passes g and dg/dv as two functions of (v, t).

    Given buffers, the results are copied into them: a callback may return
    v itself, and the solver overwrites its stage point while it still
    needs the slope. ``dv_fn`` is not called unless `want_log_deriv`.
    """
    def slope(v, t, out):
        g = value_fn(v, t)
        dg = dv_fn(v, t) if want_log_deriv else None
        if out is None:
            return g, dg
        np.copyto(out[0], g)
        if dg is not None:
            np.copyto(out[1], dg)
            dg = out[1]
        return out[0], dg

    return slope


def integrate(value_fn, dv_fn, x, cfg, *, want_log_deriv=True, divergence="raise",
              keep_stages=False):
    """Integrate v' = g(v, t) across the unit interval.

    The loop evaluates one slope per stage point, ``slope(v, t, out)``,
    which returns g and dg/dv together (dg/dv may be None without
    `want_log_deriv`). Built-in families pass the slope that `family_slope`
    builds as ``value_fn``, with ``dv_fn=None``. Custom integrands and
    reference solves pass g = ``value_fn(v, t)`` and dg/dv = ``dv_fn(v, t)``,
    which are adapted to a slope once, before the loop; ``dv_fn`` is not
    called unless `want_log_deriv`.

    After every step, a lane that is not finite or has left the fixed guard
    box |v| <= GUARD raises `DivergenceError` naming its batch rows, or with
    ``divergence='nan'`` becomes NaN and stays NaN.

    With `want_log_deriv` it also accumulates l' = dg/dv with l(0) = 0,
    using the same scheme and stage points, i.e. one pass over the
    augmented state (v, l). With `keep_stages` the solve also returns its
    slab of stage points, shape ``(steps * s, *shape)``, s = 4 stage points
    per step for RK4 (v1, v2, v3, v4) and 1 for Euler (v1): row ``s*k + i``
    is stage point i of step k, so the end of step k is row ``s*(k+1)``,
    the first stage point of step k + 1 (in 'nan' mode, after the guard's
    NaNs). Row 0 is x, broadcast to the solve's shape. `_adjoint`
    differentiates a built-in-family solve from the slab, `_tangent` a
    custom one, and `forward` reads its trajectory from the step rows.

    Buffers. The first slope call, at x, gets ``out=None``. Its results fix
    the shape and dtype of the solve (x, g and dg/dv promoted together, so a
    complex perturbation in any of them makes the whole solve complex), and
    every later step writes into one set of arrays of that shape: the
    slopes k1..k4, dg/dv at the stage points d1..d4 (only with
    `want_log_deriv`), one stage point, the running v, one accumulator, and
    a scratch array that the slope may use for phi. Later slope calls get
    ``out=(k_i, d_i or None, scratch)``; they may write into those arrays
    and return them, and the loop never writes into what a slope returns.
    x is never written. The stage points go into one shared array, or with
    `keep_stages` straight into their rows of the slab, which is allocated
    with the other arrays, so the loop allocates nothing per step. Each
    arithmetic step is the ufunc of the plain expression on the same
    operands in the same order, so the results are bitwise those of
    allocating arithmetic; a 0-d x still gives numpy scalars.

    Returns ``(v_end, log_deriv, slab)``; log_deriv is None without
    `want_log_deriv`, and slab is None without `keep_stages`.
    """
    if divergence not in ("raise", "nan"):
        raise ValueError("divergence must be 'raise' or 'nan'")
    slope = value_fn if dv_fn is None else _two_function_slope(value_fn, dv_fn,
                                                                want_log_deriv)
    n = cfg.steps
    h = (1.0 if cfg.direction == "forward" else -1.0) / n
    t0 = 0.0 if cfg.direction == "forward" else 1.0
    euler = cfg.scheme == "euler"
    v = x
    log_deriv = slab = None

    with np.errstate(over="ignore", invalid="ignore"):
        first = slope(x, t0, None)
        fixed = [z for z in (x, *first) if z is not None]
        shape = np.broadcast_shapes(*(np.shape(z) for z in fixed))
        dtype = np.result_type(*fixed)

        def new():
            return np.empty(shape, dtype)

        s = 1 if euler else 4
        scratch, acc = new(), new()
        point = None if keep_stages else new()
        v_out = new()
        outs = [(new(), new() if want_log_deriv else None, scratch) for _ in range(s)]
        if keep_stages:  # stage point i is row i; the end of step k is row s*(k+1)
            slab = np.empty((n * s,) + shape, dtype)
            v = slab[0, ...]
            np.copyto(v, x)

        for k in range(n):
            t = t0 + k * h
            end = slab[s * (k + 1), ...] if keep_stages and k + 1 < n else v_out
            k1, d1 = slope(v, t, outs[0]) if k else first
            if euler:
                if want_log_deriv:
                    m = np.multiply(d1, h, out=acc)
                    log_deriv = m.copy() if k == 0 else np.add(log_deriv, m, out=log_deriv)
                v = np.add(v, np.multiply(k1, h, out=acc), out=end)
            else:  # rk4 on the augmented state; l does not feed back into v
                r = s * k  # v is stage point r
                p2, p3, p4 = ((slab[r + 1, ...], slab[r + 2, ...], slab[r + 3, ...])
                              if keep_stages else (point, point, point))
                half = 0.5 * h
                v2 = np.add(v, np.multiply(half, k1, out=p2), out=p2)
                k2, d2 = slope(v2, t + half, outs[1])
                v3 = np.add(v, np.multiply(half, k2, out=p3), out=p3)
                k3, d3 = slope(v3, t + half, outs[2])
                v4 = np.add(v, np.multiply(h, k3, out=p4), out=p4)
                k4, d4 = slope(v4, t + h, outs[3])
                if want_log_deriv:  # (d1 + 2*d2 + 2*d3 + d4) * (h/6)
                    m = np.add(d1, np.multiply(2.0, d2, out=acc), out=acc)
                    m = np.add(m, np.multiply(2.0, d3, out=scratch), out=acc)
                    m = np.multiply(np.add(m, d4, out=acc), h / 6.0, out=acc)
                    log_deriv = m.copy() if k == 0 else np.add(log_deriv, m, out=log_deriv)
                # v + (h/6) * (k1 + 2*k2 + 2*k3 + k4)
                m = np.add(k1, np.multiply(2.0, k2, out=acc), out=acc)
                m = np.add(m, np.multiply(2.0, k3, out=scratch), out=acc)
                v = np.add(v, np.multiply(h / 6.0, np.add(m, k4, out=acc), out=acc), out=end)
            checked = _check_guard(v, t0 + (k + 1) * h, divergence, scratch)
            if checked is not v:  # 'nan' mode replaced the diverged lanes
                np.copyto(v, checked)

    if want_log_deriv and not shape:  # a 0-d solve returns numpy scalars, as arithmetic does
        log_deriv = log_deriv[()]
    return (v[()] if not shape else v), log_deriv, slab


def family_slope(value, a, b, c, want_dv):
    """The ``slope(v, t, out)`` that `integrate` calls for a built-in family's
    `value` function and parameters a, b, c: it returns (g, dg/dv) from one
    phi(v) with `want_dv`, else (g, None) without computing dg/dv; into `out` if given."""
    if want_dv:
        return lambda v, t, out: value(a, b, c, v, t, with_dv=True, out=out)
    return lambda v, t, out: (value(a, b, c, v, t, out=out), None)


def _integrand_slope(g: Integrand, want_dv):
    """`integrate`'s (value_fn, dv_fn) for g: a custom g's own pair, else (family_slope, None)."""
    if g.family == "custom":
        return g.functions()
    return family_slope(family_functions(g.family)[0], *g.params(), want_dv), None


def _as_input(x):
    """Normalize map input; returns (array, was_scalar)."""
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _as_output(y, scalar):
    return float(y) if scalar else y


def forward(g: Integrand, cfg: SolverConfig, x, *, keep_trajectory=False,
            divergence="raise") -> MapResult:
    """Map x to v(1) along v' = g(v, t), v(0) = x.

    `x` may be a scalar or an array (lanes integrate independently).
    `divergence='nan'` marks blown-up lanes with NaN instead of raising,
    which is convenient for vectorized screening.
    """
    if cfg.direction != "forward":
        raise ValueError("forward() needs a forward-direction SolverConfig")
    arr, scalar = _as_input(x)
    y, log_deriv, slab = integrate(*_integrand_slope(g, True), arr, cfg,
                                   divergence=divergence, keep_stages=keep_trajectory)
    traj = None if slab is None else np.concatenate(  # v at every step's start, then v(1)
        (slab[::len(slab) // cfg.steps], y[None])).astype(float, copy=False)
    return MapResult(_as_output(y, scalar), _as_output(log_deriv, scalar), traj)


def derivative(g: Integrand, cfg: SolverConfig, x):
    """d(forward)/dx = exp of the accumulated log-derivative; always > 0."""
    return np.exp(forward(g, cfg, x).log_deriv)


def inverse(g: Integrand, cfg: SolverConfig, y, refine=None) -> RootResult:
    """Recover x with forward(x) ~= y by integrating from t = 1 to t = 0.

    Reverse integration alone is a discretization-consistent inverse; pass
    a `RefineConfig` (see `timeflow.inversion`) to polish the result to a
    residual tolerance.
    """
    if cfg.direction != "reverse":
        raise ValueError("inverse() needs a reverse-direction SolverConfig")
    arr, scalar = _as_input(y)
    x0, _, _ = integrate(*_integrand_slope(g, False), arr, cfg, want_log_deriv=False)
    if refine is None:
        return RootResult(_as_output(x0, scalar))
    from .inversion import _invert  # deferred: inversion builds on this module

    return _invert(g, cfg.reversed(), arr, x0, refine)


def _scratch(work, name, shape, dtype):
    """The array of `work` kept under (name, shape, dtype), made on first use."""
    key = (name, shape, dtype)
    if key not in work:
        work[key] = np.empty(shape, dtype)
    return work[key]


def _adjoint(family, params, cfg, slab, cot_y, cot_l, work=None):
    """Reverse sweep of the solver steps over the stage points they saved.

    The discrete adjoint of `integrate` for g = a*v + b + c*phi(v): given the
    slab that `integrate` returned with `keep_stages` and the cotangents of
    v(1) and of the log-derivative, returns those of x, a, b and c, each in
    the broadcast shape of the solve. RK4 and Euler share the sweep; they
    differ only in stage weights and offsets. Only the chain through the
    stage points is sequential, so everything else is evaluated at all
    stage points at once, in (stages, *shape) arrays taken from `work`, a
    dict that `_scratch` fills; a caller that passes one dict to many
    adjoints of one shape lets them share that memory. The slab is read,
    never written, and nothing returned lives in `work`.
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
    w = np.tile(weights, cfg.steps).reshape((-1,) + (1,) * (slab.ndim - 1))
    shape = np.broadcast_shapes(slab.shape, w.shape, *(np.shape(z) for z in (a, c, cot_y, cot_l)))
    dtype = np.result_type(slab, a, c, cot_y, cot_l)
    work = {} if work is None else work
    # Every stacked temporary is a workspace array that each ufunc writes into,
    # on the operands of the plain expression in its order, so every bit is
    # that of allocating arithmetic. A fresh (stages, n, k) array is a large
    # heap block; freeing many per call makes malloc return pages to the
    # system and fault them in again on the next call.
    p, dp, jac, jbar, through_jac, kbar, abar = (
        _scratch(work, name, shape, dtype)
        for name in ("phi", "dphi", "jac", "jbar", "through_jac", "kbar", "abar"))
    with np.errstate(over="ignore"):  # the sigmoid's exp(-v) may overflow to inf
        phi(slab, p)  # one sigmoid serves phi, phi' and phi''
    dphi(slab, p, dp)
    np.add(np.multiply(c, dp, out=jac), a, out=jac)  # dg/dv = a + c*phi' at every stage point
    np.multiply(w, cot_l, out=jbar)  # cotangent of each stage's dg/dv
    # reaches a stage point through its dg/dv: jbar * (c * phi'')
    np.multiply(jbar, np.multiply(c, d2phi(slab, p, dp, through_jac), out=through_jac),
                out=through_jac)
    # the sequential chain, step by step in reverse, in four arrays of one stage
    # point's shape: the cotangents of the step's end and start (swapped after
    # every step), of a stage point, and the carry reaching k_i through the
    # next stage point (0.0 for the last stage)
    ybar, vbar, sbar, carry = (np.empty(shape[1:], dtype) for _ in range(4))
    ybar[...] = cot_y
    for r0 in range(len(slab) - s, -1, -s):
        for i in range(s - 1, -1, -1):
            r, last = r0 + i, i == s - 1
            kr = np.multiply(weights[i], ybar, out=kbar[r, ...])  # cotangent of k_i
            np.add(kr, 0.0 if last else carry, out=kr)
            np.add(np.multiply(kr, jac[r], out=sbar), through_jac[r], out=sbar)
            np.add(ybar if last else vbar, sbar, out=vbar)
            if i:
                np.multiply(offsets[i - 1], sbar, out=carry)
        ybar, vbar = vbar, ybar
    np.add(np.multiply(slab, kbar, out=abar), jbar, out=abar)  # abar = sum(kbar*v + jbar)
    np.add(np.multiply(p, kbar, out=p), np.multiply(dp, jbar, out=dp), out=p)  # cbar
    return ybar, np.sum(abar, axis=0), np.sum(kbar, axis=0), np.sum(p, axis=0)


def _tangent(dv_fn, cfg, slab):
    """d v(1) / dx of a solve from its stage slab: the product over the steps
    of the tangent recursion's factor tau, which needs dg/dv only."""
    n = cfg.steps
    h = (1.0 if cfg.direction == "forward" else -1.0) / n
    t0 = 0.0 if cfg.direction == "forward" else 1.0
    s = len(slab) // n
    dx = 1.0
    for k in range(n):
        t = t0 + k * h
        points = slab[s * k:s * (k + 1)]
        if cfg.scheme == "euler":
            tau = 1.0 + h * dv_fn(points[0], t)
        else:
            d1 = dv_fn(points[0], t)
            d2 = dv_fn(points[1], t + 0.5 * h) * (1.0 + 0.5 * h * d1)
            d3 = dv_fn(points[2], t + 0.5 * h) * (1.0 + 0.5 * h * d2)
            d4 = dv_fn(points[3], t + h) * (1.0 + h * d3)
            tau = 1.0 + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        dx = dx * tau
    return dx


def forward_vjp(g: Integrand, cfg: SolverConfig, x, cot_y, cot_logdet) -> VjpResult:
    """Reverse-mode sensitivities of (y, log_deriv) through the solver steps.

    Differentiates the discretized computation exactly (the gradient of
    what `forward` actually evaluates, not of the continuous limit) and
    contracts with the given cotangents. Built-in families go through the
    discrete adjoint `_adjoint`. For custom integrands d/dx is the tangent
    recursion over the stage points, the parameter slots come back as
    zeros, and a nonzero `cot_logdet` raises: it would need d2g/dv2.
    Returns d/dx and d/d(a, b, c).
    """
    if cfg.direction != "forward":
        raise ValueError("forward_vjp() needs a forward-direction SolverConfig")
    arr, scalar = _as_input(x)
    cot_y = np.broadcast_to(np.asarray(cot_y, dtype=float), arr.shape)
    cot_logdet = np.broadcast_to(np.asarray(cot_logdet, dtype=float), arr.shape)
    value_fn, dv_fn = _integrand_slope(g, False)
    _, _, slab = integrate(value_fn, dv_fn, arr, cfg, want_log_deriv=False, keep_stages=True)
    if g.family == "custom":
        if np.any(cot_logdet != 0.0):
            raise ValueError("forward_vjp of a custom integrand takes cot_logdet = 0 only")
        dx, dparams = cot_y * _tangent(dv_fn, cfg, slab), (0.0, 0.0, 0.0)
    else:
        dx, *dp = _adjoint(g.family, g.params(), cfg, slab, cot_y, cot_logdet)
        dparams = tuple(float(np.sum(p)) for p in dp)
    return VjpResult(dx=_as_output(dx, scalar), dparams=dparams)
