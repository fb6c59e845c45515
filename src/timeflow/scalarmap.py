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
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from .integrands import ONE, TWO, Integrand, family_functions, family_phi

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
# The most lanes (rows x solved coordinates) that a flow evaluation solves at
# once, 64 KiB per float64 lane array. Past about this many lanes rows/s falls:
# unblocked fit-2d log_density ran 723k rows/s at 8,192 rows and 519k at
# 65,536 (single-threaded, 2-vCPU Xeon VM; README has the sweep).
LANES = 8192

SCHEMES = ("rk4",)
DIRECTIONS = ("forward", "reverse")


class DivergenceError(ArithmeticError):
    """A trajectory left the guard box |v| <= GUARD (1e6) before the end of its solve."""

    def __init__(self, message, indices=None):
        super().__init__(message)
        self.indices = indices


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step RK4 over the unit time interval.

    `steps` intervals of exact width 1/steps; `direction` chooses whether
    time runs 0 -> 1 or 1 -> 0. The reverse direction is the algebraic
    reversal of the forward limits, not a different discretization.
    `scheme` is checked, not chosen: "rk4" is the one scheme, and the field
    stays so that checkpoints and config files that name it keep working.
    """

    scheme: str = "rk4"
    steps: int = 16
    direction: str = "forward"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; the one scheme is 'rk4'")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")
        if isinstance(self.steps, bool) or not isinstance(self.steps, (int, np.integer)):
            raise ValueError(f"steps must be an integer, not {self.steps!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    def reversed(self):
        """The same config with the other direction; one object per config."""
        return _reversed(self)


@lru_cache(maxsize=64)
def _reversed(cfg):
    # every training step asks for it once per solve; a fresh replace() costs
    # more than the lookup
    return replace(cfg, direction="reverse" if cfg.direction == "forward" else "forward")


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


def _check_guard(v, t, divergence):
    """For a step at time `t` that failed `integrate`'s guard test: raise naming the
    rows outside the box |v| <= GUARD, or in 'nan' mode write NaN into those lanes."""
    bad = ~np.isfinite(v) | (np.abs(v) > GUARD)
    if divergence == "raise":
        rows = None
        if v.ndim:  # axis 0 holds the batch rows
            rows = np.flatnonzero(bad.reshape(len(bad), -1).any(axis=1)).tolist()
        raise DivergenceError(
            f"trajectory left |v| <= {GUARD:g} at t={t:.6g}"
            + (f" (rows {rows})" if rows else ""),
            indices=rows,
        )
    np.copyto(v, np.nan, where=bad)


def _two_function_slope(value_fn, dv_fn, want_log_deriv):
    """The slope of a caller that passes g and dg/dv as two functions of (v, t),
    copying the results into the solver's buffers when it gives them; ``dv_fn``
    is not called unless `want_log_deriv`."""
    def slope(v, t, out):
        z = (value_fn(v, t), dv_fn(v, t)) if want_log_deriv else (value_fn(v, t),)
        for row, r in zip(out or (), z):
            np.copyto(row, r)
        return z if want_log_deriv else z[0]

    return slope


def integrate(value_fn, dv_fn, x, cfg, *, want_log_deriv=True, divergence="raise",
              keep_trajectory=False):
    """Integrate v' = g(v, t) across the unit interval.

    The loop makes one call per stage point, ``slope(v, t, out)``, which
    returns (g, dg/dv) with `want_log_deriv` and g alone without it:
    `family_slope`'s for a built-in family (``dv_fn=None``), or one adapted
    once from g = ``value_fn(v, t)`` and dg/dv = ``dv_fn(v, t)``.

    After every step, a lane that is not finite or has left the fixed guard
    box |v| <= GUARD raises `DivergenceError` naming its batch rows, or with
    ``divergence='nan'`` becomes NaN and stays NaN. One call clears a step,
    sum |v|^2 <= GUARD^2 by `np.vdot`; only when that fails does the loop
    run the exact test, the largest |v| against GUARD, and only when that
    fails too does it call `_check_guard`. The first never clears a step
    that the second fails: a rounded sum of non-negative squares is never
    below any one of them, and fl(v^2) > GUARD^2 whenever |v| > GUARD. NaN
    and inf fail both. (A complex lane adds re^2 + im^2, which can differ
    from the exact test's hypot(re, im)^2 only within an ulp or so of GUARD.)

    With `want_log_deriv` it also accumulates l' = dg/dv with l(0) = 0 over
    the same stage points, one pass over the augmented state (v, l). With
    `keep_trajectory` it also returns its trajectory slab, shape
    ``(steps + 1, *shape)``: row k is v at the start of step k (row 0 is x,
    broadcast; later rows after the guard's NaNs), and row ``steps`` is
    v(1), a copy apart from the returned v_end. Each RK4 stage point is a
    fixed function of its step's start, so `_adjoint` rebuilds stage points
    2-4 from the slab bit for bit, and `forward` returns it as the trajectory.

    Buffers. The first slope call, at x, gets ``out=None``; its results fix
    the shape and dtype (x, g and dg/dv promoted together, so a complex
    perturbation in any of them makes the whole solve complex). Stage i then
    has one slope array K_i, g in row 0 and dg/dv in row 1, and later calls
    get ``out=(K_i[0], K_i[1] or None, scratch)`` to write into. The
    weighted sum runs once over both rows, in place in K_2; the dg/dv row
    never feeds v, and x is never written. Stage points 2-4 go into one
    array, and each step's end into one more, or into the slab's next row,
    whose views are made once per solve, so the loop allocates nothing.
    Each step is the ufunc of the plain expression on the same operands in
    the same order, so the results are bitwise those of allocating
    arithmetic; a 0-d x gives numpy scalars. Operands: every ufunc
    in the loop and the family slopes takes its output positionally, and its
    constants (h, h/2 and h/6, made once per solve; 1 and 2, at import) as
    float64 0-d arrays, never as Python floats, which numpy converts afresh
    on every call; on float64 and complex128 lanes the bits are the same.
    The slope still gets the time t as a Python float.

    Returns ``(v_end, log_deriv, slab)``; log_deriv is None without
    `want_log_deriv`, and slab is None without `keep_trajectory`.
    """
    if divergence not in ("raise", "nan"):
        raise ValueError("divergence must be 'raise' or 'nan'")
    slope = value_fn if dv_fn is None else _two_function_slope(value_fn, dv_fn,
                                                                want_log_deriv)
    add, multiply, absolute, maximum, vdot = (np.add, np.multiply, np.absolute, np.maximum,
                                              np.vdot)
    n = cfg.steps
    h = (1.0 if cfg.direction == "forward" else -1.0) / n
    half, sixth = 0.5 * h, h / 6.0
    h_op, half_op, sixth_op = np.array(h), np.array(half), np.array(sixth)  # ufunc operands
    t0 = 0.0 if cfg.direction == "forward" else 1.0
    guard_sq = GUARD * GUARD
    v = x
    log_deriv = slab = None

    with np.errstate(over="ignore", invalid="ignore"):
        first = slope(x, t0, None) if want_log_deriv else (slope(x, t0, None),)  # g[, dg/dv]
        shape = np.broadcast(x, *first).shape
        dtype = np.result_type(x, *first)
        slopes = k1, k2, k3, k4 = [np.empty((len(first),) + shape, dtype) for _ in range(4)]
        scratch = np.empty(shape, dtype)
        # row views, made once; `[i, ...]` keeps a 0-d row an array
        outs = [(k[0, ...], k[1, ...] if want_log_deriv else None, scratch) for k in slopes]
        step_v, step_l = outs[1][:2]  # the weighted sum's rows
        for row, z in zip(outs[0], first):
            np.copyto(row, z)
        del first, z  # K_1 holds the first slope now; freed, it lowers the solve's peak memory
        p2 = p3 = p4 = np.empty(shape, dtype)  # stage points 2-4, one array
        if keep_trajectory:  # step k starts at row k and ends at row k + 1
            slab = np.empty((n + 1,) + shape, dtype)
            ends = list(slab[1:]) if shape else [slab[i, ...] for i in range(1, n + 1)]
            v = slab[0, ...]
            np.copyto(v, x)
        else:  # every step ends in the same array
            ends = [np.empty(shape, dtype)] * n

        for k in range(n):
            t = t0 + k * h
            if k:
                slope(v, t, outs[0])
            # rk4 on the augmented state (v, l)
            slope(add(v, multiply(half_op, outs[0][0], p2), p2), t + half, outs[1])
            slope(add(v, multiply(half_op, outs[1][0], p3), p3), t + half, outs[2])
            slope(add(v, multiply(h_op, outs[2][0], p4), p4), t + h, outs[3])
            # (K1 + 2*K2 + 2*K3 + K4) * (h/6), into K2
            add(k1, multiply(TWO, k2, k2), k2)
            add(k2, multiply(TWO, k3, k3), k2)
            multiply(add(k2, k4, k2), sixth_op, k2)
            if want_log_deriv:
                log_deriv = step_l.copy() if k == 0 else add(log_deriv, step_l, log_deriv)
            v = add(v, step_v, ends[k])
            # one call clears the step; the exact test runs only when it fails
            if (not vdot(v, v).real <= guard_sq
                    and not maximum.reduce(absolute(v, scratch), None) <= GUARD):
                _check_guard(v, t0 + (k + 1) * h, divergence)

    if keep_trajectory:
        v = v.copy()  # v(1), not a view of the slab's last row
    if want_log_deriv and not shape:  # a 0-d solve returns numpy scalars, as arithmetic does
        log_deriv = log_deriv[()]
    return (v[()] if not shape else v), log_deriv, slab


def family_slope(value, a, b, c, want_dv):
    """`integrate`'s ``slope(v, t, out)`` for a built-in family's `value` and
    parameters a, b, c: (g, dg/dv) with `want_dv`, else g alone, into `out` if
    given; value-only, `value` itself with a, b, c bound, one call a point."""
    if want_dv:
        return lambda v, t, out: value(a, b, c, v, t, out, with_dv=True)
    return partial(value, a, b, c)


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
    which is convenient for vectorized screening. `keep_trajectory` also
    returns v at the start of every step and v(1), shape (steps + 1, *x.shape).
    """
    if cfg.direction != "forward":
        raise ValueError("forward() needs a forward-direction SolverConfig")
    arr, scalar = _as_input(x)
    y, log_deriv, traj = integrate(*_integrand_slope(g, True), arr, cfg,
                                   divergence=divergence, keep_trajectory=keep_trajectory)
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


def _adjoint(family, params, cfg, slab, cot_y, cot_l):
    """Reverse sweep of the solver steps over the stage points it rebuilds.

    The discrete adjoint of `integrate` for g = a*v + b + c*phi(v): given the
    trajectory slab that `integrate` returned with `keep_trajectory` and the
    cotangents of v(1) and of the log-derivative, returns those of x, a, b
    and c, each in the broadcast shape of the solve, and then the solve's
    log-derivative, bitwise `integrate`'s, so a differentiated solve need not
    accumulate it.

    Stage points. The slab keeps each step's start, the first stage point;
    points 2-4 are rebuilt from it as the solver made them, p_{i+1} = p_1 +
    offset_i*g(p_i), by four calls of the family's slope (`family_slope`
    with dg/dv), one per stage point, each over all the steps at once, on
    the solver's operands in its order. So every rebuilt point is bitwise
    the solver's, and a lane that the guard made NaN is NaN here too. The
    same calls give dg/dv at every point, the solver's own: the log-derivative
    sums it as `integrate` does, and the tangent below reads it.

    Within a step, each stage's slope cotangent is affine in the cotangent
    ybar of the step's end, kbar_i = alpha_i*ybar + beta_i, and so is the
    step start's, A*ybar + B, where A = 1 + sum(alpha_i * dg/dv_i) is the
    step's tangent factor tau, whose product over the steps is dv(1)/dx.
    alpha, beta, A and B come from stacked ops over all steps; only ybar <-
    A_k*ybar + B_k runs step by step, and kbar is assembled after it. The
    stacked arrays are stage-major, (4, steps, *shape): the rebuilt points
    and six more, the rows of one (7, 4, steps, *shape) block that each call
    allocates, plus the cotangent of each stage's dg/dv, which is the same at
    every step, (4, 1, *shape); both are freed on return, and nothing
    returned lives in them. The slab is read, never written. The step form
    does more elementwise work than a chain over the stage points would, for
    far fewer numpy calls per step.
    """
    phi, dphi, d2phi = family_phi(family)
    a, b, c = params
    slope = family_slope(family_functions(family)[0], a, b, c, True)
    n = cfg.steps
    h = (1.0 if cfg.direction == "forward" else -1.0) / n
    # RK4: v_{i+1} = v + offsets[i] * k_i, v_end = v + sum(weights[i] * k_i);
    # 0-d arrays, like every constant operand of the stacked ops below
    weights = tuple(map(np.array, (h / 6.0, h / 3.0, h / 3.0, h / 6.0)))
    offsets = tuple(map(np.array, (0.5 * h, 0.5 * h, h)))
    lanes = np.broadcast(slab[0], a, c, cot_y, cot_l).shape
    w = np.reshape(weights, (4, 1) + (1,) * len(lanes))
    dtype = np.result_type(slab, a, c, cot_y, cot_l)
    # Every stacked temporary is a row of one block that each ufunc writes into,
    # on the operands of the plain expression in its order, so every bit is
    # that of allocating arithmetic. One block per call, not a fresh array per
    # temporary: freeing many large blocks per call makes malloc return pages
    # to the system and fault them in again on the next call.
    points, p, dp, jac, through_jac, kbar, spare = np.empty((7, 4, n) + lanes, dtype)
    jbar = np.empty((4, 1) + lanes, dtype)
    np.copyto(points[0], slab[:n])  # points[i, k]: stage point i + 1 of step k
    # the solver's overflows recur, and the sigmoid's exp(-v) may overflow to inf
    with np.errstate(over="ignore", invalid="ignore"):
        # one slope call per stage point writes its dg/dv into jac; the g of
        # points 1-3 makes points 2-4 as integrate's add(v, multiply(offset,
        # K_i, p), p), and point 4's g, unused, goes to kbar[0], free until later
        for i in range(3):
            g, _ = slope(points[i], None, (points[i + 1], jac[i], spare[0]))
            np.add(points[0], np.multiply(offsets[i], g, out=g), out=g)
        slope(points[3], None, (kbar[0], jac[3], spare[0]))
        phi(points, p)  # one sigmoid serves phi, phi' and phi''
    dphi(points, p, dp)
    # the log-derivative: dg/dv summed over each step's stages and then over
    # the steps, as `integrate` sums it
    log_deriv, tmp = spare[0], spare[-1]
    np.copyto(log_deriv, jac[0])
    for coef, d in zip((TWO, TWO, ONE), jac[1:]):  # ((d1 + 2*d2) + 2*d3 + d4) * (h/6)
        np.add(log_deriv, np.multiply(coef, d, out=tmp), out=log_deriv)
    np.multiply(log_deriv, weights[0], out=log_deriv)
    log_deriv = np.add.accumulate(log_deriv, axis=0, out=log_deriv)[-1].copy()
    np.multiply(w, cot_l, out=jbar)  # cotangent of each stage's dg/dv
    # reaches a stage point through its dg/dv: jbar * (c * phi'')
    np.multiply(jbar, np.multiply(c, d2phi(points, p, dp, through_jac), out=through_jac),
                out=through_jac)
    # From the last stage back: stage point i's cotangent is aj_i*ybar + bj_i, with
    # aj_i = alpha_i*jac_i and bj_i = beta_i*jac_i + through_jac_i, which overwrite
    # jac_i and through_jac_i; alpha_{i-1} = weights[i-1] + offsets[i-1]*aj_i goes
    # into spare, beta_{i-1} = offsets[i-1]*bj_i into kbar. The last stage's alpha
    # is weights[-1] and its beta 0, so those two arrays' last rows stay free.
    np.multiply(weights[-1], jac[-1], out=jac[-1])
    for i in range(2, -1, -1):
        alpha, beta = spare[i], kbar[i]
        np.add(np.multiply(offsets[i], jac[i + 1], out=alpha), weights[i], out=alpha)
        np.multiply(offsets[i], through_jac[i + 1], out=beta)
        np.add(np.multiply(beta, jac[i], out=tmp), through_jac[i], out=through_jac[i])
        np.multiply(alpha, jac[i], out=jac[i])
    tau, step_b, ybar = tmp, jac[0], kbar[-1]  # ybar[k]: cotangent of step k's end
    np.add(np.sum(jac, axis=0, out=tau), ONE, out=tau)
    np.sum(through_jac, axis=0, out=step_b)
    ybar[-1] = cot_y
    for k in range(n - 1, 0, -1):  # `[k, ...]` keeps a 0-d row an array
        out = ybar[k - 1, ...]
        np.add(np.multiply(tau[k, ...], ybar[k, ...], out), step_b[k, ...], out)
    dx = np.add(np.multiply(tau[0, ...], ybar[0, ...]), step_b[0, ...])
    # kbar_i = alpha_i*ybar + beta_i, and weights[-1]*ybar for the last stage
    np.add(np.multiply(spare[:-1], ybar, out=spare[:-1]), kbar[:-1], out=kbar[:-1])
    np.multiply(weights[-1], ybar, out=ybar)
    np.add(np.multiply(points, kbar, out=spare), jbar, out=spare)  # abar = sum(kbar*v + jbar)
    np.add(np.multiply(p, kbar, out=p), np.multiply(dp, jbar, out=dp), out=p)  # cbar
    return (dx, *(np.sum(z, axis=(0, 1)) for z in (spare, kbar, p)), log_deriv)


def _variational_tangent(value_fn, dv_fn, x, cfg):
    """dv(1)/dx of `integrate`'s solve from x, exactly. RK4 commutes with
    linearization: RK4 on the pair u = (v, w) with slope (g, dg/dv * w) carries
    w(0) to w(0) * dv(1)/dx. The pair is a trailing axis, so a `DivergenceError`
    names x's rows; a 0-d x solves as one row, and its error names none, as
    `forward`'s does. The guard box sees w too, so w(0) = 2^-40 lets tangents
    up to GUARD * 2^40 pass; w is linear, so scaling back is exact."""
    def slope(u, t, out):
        k = out[0] if out else np.empty_like(u)
        k[..., 0] = value_fn(u[..., 0], t)
        k[..., 1] = dv_fn(u[..., 0], t) * u[..., 1]
        return k

    rows = np.atleast_1d(x)
    pair = np.stack((rows, np.full(rows.shape, 2.0 ** -40)), axis=-1)
    try:
        w = integrate(slope, None, pair, cfg, want_log_deriv=False)[0][..., 1]
    except DivergenceError as err:
        if np.ndim(x):
            raise
        raise DivergenceError(str(err).removesuffix(f" (rows {err.indices})")) from None
    return np.reshape(w, np.shape(x)) * 2.0 ** 40


def forward_vjp(g: Integrand, cfg: SolverConfig, x, cot_y, cot_logdet) -> VjpResult:
    """Reverse-mode sensitivities of (y, log_deriv) through the solver steps.

    Differentiates the discretized computation exactly (the gradient of
    what `forward` actually evaluates, not of the continuous limit) and
    contracts with the given cotangents. Built-in families go through the
    discrete adjoint `_adjoint`. For custom integrands d/dx comes from one
    solve of the variational equation beside the map (`_variational_tangent`),
    the parameter slots come back as zeros, and a nonzero `cot_logdet` raises:
    it would need d2g/dv2.
    Returns d/dx and d/d(a, b, c).
    """
    if cfg.direction != "forward":
        raise ValueError("forward_vjp() needs a forward-direction SolverConfig")
    arr, scalar = _as_input(x)
    cot_y = np.broadcast_to(np.asarray(cot_y, dtype=float), arr.shape)
    cot_logdet = np.broadcast_to(np.asarray(cot_logdet, dtype=float), arr.shape)
    value_fn, dv_fn = _integrand_slope(g, False)
    if g.family == "custom":
        if np.any(cot_logdet != 0.0):
            raise ValueError("forward_vjp of a custom integrand takes cot_logdet = 0 only")
        dx, dparams = cot_y * _variational_tangent(value_fn, dv_fn, arr, cfg), (0.0, 0.0, 0.0)
    else:
        _, _, slab = integrate(value_fn, dv_fn, arr, cfg, want_log_deriv=False,
                               keep_trajectory=True)
        dx, *dp, _ = _adjoint(g.family, g.params(), cfg, slab, cot_y, cot_logdet)
        dparams = tuple(float(np.sum(p)) for p in dp)
    return VjpResult(dx=_as_output(dx, scalar), dparams=dparams)
