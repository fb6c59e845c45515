"""Monotone-map approximants built from the unit-time integral construction.

For an increasing continuous target phi and a scale s > 0, define

    q_s(x) = x + integral_0^1 kappa_s(t) * [phi(v(t*eps)) - v(t*eps)] dt,
    v(tau) = x + integral_0^tau kappa_s(z) * [phi(v(z*eps)) - v(z*eps)] dz,

with eps = exp(-1/s) and kappa_s a positive weight of unit mass on [0, 1].
As s -> 0 the approximant converges to phi uniformly on compacts, at rate
O(exp(-1/s)) for the constant kernel. The defining equation evaluates the
unknown at the scaled argument z*eps (a pantograph-type functional
equation, not a plain ODE), so we solve it by Picard iteration with linear
interpolation on a geometric grid covering [0, eps]; the argument scaling
shrinks the contribution of each iterate by roughly (L+1)*eps, so a few
iterations reach quadrature accuracy.

`convergence_study` measures sup-norm errors over a grid for a ladder of
scales and least-squares fits log(err) against 1/s; the fitted slope is
the empirical convergence rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import cumulative_trapezoid, trapezoid
from scipy.special import erf

__all__ = [
    "MonotoneTarget",
    "Kernel",
    "PicardConfig",
    "kernel_eval",
    "eval_approximant",
    "convergence_study",
    "ConvergenceStudy",
]

TARGET_KINDS = ("affine", "softplus_shift", "arctan_blend", "custom")
KERNEL_KINDS = ("constant", "gaussian")
# the inner grid on [0, eps]: eps * INNER_RATIO**j for j < INNER_LEVELS, plus 0
INNER_RATIO = 0.5
INNER_LEVELS = 80


@dataclass(frozen=True)
class MonotoneTarget:
    """A strictly increasing continuous function on the study interval."""

    kind: str
    fn: Callable

    def __post_init__(self):
        if self.kind not in TARGET_KINDS:
            raise ValueError(f"unknown target kind {self.kind!r}")

    @classmethod
    def affine(cls, alpha, beta):
        if alpha <= 0:
            raise ValueError("affine target needs alpha > 0")
        return cls("affine", lambda x: alpha * x + beta)

    @classmethod
    def softplus_shift(cls):
        # x + log(1 + e^x); derivative 1 + sigmoid(x) in (1, 2)
        return cls("softplus_shift", lambda x: x + np.logaddexp(0.0, x))

    @classmethod
    def arctan_blend(cls):
        # x + arctan(x); derivative 1 + 1/(1 + x^2) in (1, 2]
        return cls("arctan_blend", lambda x: x + np.arctan(x))

    @classmethod
    def custom(cls, fn):
        return cls("custom", fn)

    def check_increasing(self, interval, n=201):
        lo, hi = interval
        grid = np.linspace(lo, hi, n)
        vals = self.fn(grid)
        if not np.all(np.diff(vals) > 0):
            raise ValueError(f"target {self.kind} is not strictly increasing on {interval}")


@dataclass(frozen=True)
class Kernel:
    """Positive weight on [0, 1] with unit integral.

    constant: kappa(t) = 1. gaussian: kappa(t) = C * exp(-t^2 / s) at the
    approximant's scale s, with C fixed by the unit-mass condition (in
    closed form via erf; the tests cross-check it against adaptive
    quadrature).
    """

    kind: str = "constant"

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")


def _gaussian_norm(scale):
    # integral_0^1 exp(-z^2/s) dz = sqrt(pi*s)/2 * erf(1/sqrt(s))
    root = math.sqrt(scale)
    return 1.0 / (0.5 * math.sqrt(math.pi) * root * erf(1.0 / root))


def kernel_eval(kernel: Kernel, t, scale):
    """Evaluate the kernel at scale > 0 and t in [0, 1] (scalar or array)."""
    if scale <= 0:
        raise ValueError("kernel scale must be positive")
    t = np.asarray(t, dtype=float)
    if kernel.kind == "constant":
        return np.ones_like(t)
    return _gaussian_norm(scale) * np.exp(-t * t / scale)


@dataclass(frozen=True)
class PicardConfig:
    """Resolution of the approximant solver.

    `quad_nodes` composite-trapezoid points for the outer integral over
    [0, 1]; the inner grid on [0, eps] is the fixed geometric one of
    `INNER_RATIO` and `INNER_LEVELS` (plus the exact node at 0).
    """

    iterations: int = 3
    quad_nodes: int = 257

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.quad_nodes < 2:
            raise ValueError("quad_nodes must be >= 2")


def _inner_grid(eps):
    pts = eps * INNER_RATIO ** np.arange(INNER_LEVELS - 1, -1, -1)
    grid = np.concatenate([[0.0], pts])
    return np.unique(grid)  # collapse any underflowed duplicates


def _interp_rows(grid, values, queries):
    """Linear interpolation of per-row samples on a shared ascending grid."""
    idx = np.clip(np.searchsorted(grid, queries, side="left"), 1, len(grid) - 1)
    g0, g1 = grid[idx - 1], grid[idx]
    w = np.clip((queries - g0) / (g1 - g0), 0.0, 1.0)
    return values[:, idx - 1] * (1.0 - w) + values[:, idx] * w


def _picard(phi, kernel, s, eps, x_flat, cfg):
    """Picard iteration of v on the inner grid of [0, eps], one row per lane
    of `x_flat`, from the start v = x with the kernel at the approximant's
    scale s: returns (grid, v) after `cfg.iterations` passes."""
    inner = _inner_grid(eps)
    k_inner = kernel_eval(kernel, inner, s)[None, :]
    queries_inner = inner * eps
    v = np.broadcast_to(x_flat[:, None], (x_flat.size, inner.size)).copy()
    for _ in range(cfg.iterations):
        v_at = _interp_rows(inner, v, queries_inner)
        f = k_inner * (phi(v_at) - v_at)
        v = x_flat[:, None] + cumulative_trapezoid(f, inner, axis=1, initial=0.0)
    return inner, v


def eval_approximant(target: MonotoneTarget, s: float, kernel: Kernel, x,
                     cfg: PicardConfig = PicardConfig()):
    """Evaluate q_s at x (scalar or array).

    The kernel is evaluated at the approximant's own scale. When
    exp(-1/s) underflows to zero the construction degenerates to its
    analytic limit q_s(x) = x + integral kappa * (phi(x) - x) = phi(x),
    which is returned directly.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_flat = np.atleast_1d(x_arr).astype(float)
    phi = target.fn

    eps = math.exp(-1.0 / s)
    if eps == 0.0:  # scale below the underflow threshold: exact limit
        out = phi(x_flat.copy())
        return float(out[0]) if scalar else out

    inner, v = _picard(phi, kernel, s, eps, x_flat, cfg)
    outer = np.linspace(0.0, 1.0, cfg.quad_nodes)
    v_out = _interp_rows(inner, v, outer * eps)
    h = kernel_eval(kernel, outer, s)[None, :] * (phi(v_out) - v_out)
    q = x_flat + trapezoid(h, outer, axis=1)
    return float(q[0]) if scalar else q


@dataclass
class ConvergenceStudy:
    """Sup-error table over a scale ladder plus the fitted log-error slope."""

    target_kind: str
    kernel_kind: str
    interval: tuple
    scales: list
    sup_errors: list
    slope: Optional[float]
    intercept: Optional[float]
    flags: list

    def rows(self):
        for s, err in zip(self.scales, self.sup_errors):
            log_err = math.log(err) if err > 0 else float("-inf")
            yield (s, 1.0 / s, err, log_err)

    def summary(self):
        if self.slope is None:
            return f"fitted slope: undefined ({'; '.join(self.flags) or 'no fit'})"
        return (
            f"fitted slope of log(sup_error) vs 1/s: {self.slope:.4f}"
            f" (target {self.target_kind}, kernel {self.kernel_kind},"
            f" interval {self.interval})"
        )


def convergence_study(target: MonotoneTarget, interval, s_list, kernel: Kernel,
                      cfg: PicardConfig = PicardConfig(), grid_points: int = 201):
    """Measure sup_K |q_s - phi| for each scale and fit the decay rate.

    Fits log(err) ~ a - b*(1/s) by least squares; `slope` is b. Errors
    that fail to decrease monotonically along the ladder are flagged (a
    quadrature floor), not fatal; exact zeros (phi already a fixed point)
    leave the slope undefined.
    """
    s_list = sorted(float(s) for s in s_list)
    s_list = list(reversed(s_list))  # decreasing scales
    if len(s_list) < 4:
        raise ValueError("need at least 4 scales to fit a rate")
    target.check_increasing(interval, grid_points)
    lo, hi = interval
    grid = np.linspace(lo, hi, grid_points)
    phi_vals = target.fn(grid)

    errors = []
    for s in s_list:
        q = eval_approximant(target, s, kernel, grid, cfg)
        errors.append(float(np.max(np.abs(q - phi_vals))))

    flags = []
    slope = intercept = None
    if all(e == 0.0 for e in errors):
        flags.append("all errors exactly zero; slope undefined")
    else:
        if any(e == 0.0 for e in errors):
            flags.append("some errors exactly zero; fitting the nonzero ones")
        pairs = [(1.0 / s, math.log(e)) for s, e in zip(s_list, errors) if e > 0.0]
        xs = np.array([p[0] for p in pairs])
        ys = np.array([p[1] for p in pairs])
        coeff = np.polyfit(xs, ys, 1)
        slope = float(-coeff[0])
        intercept = float(coeff[1])
        if any(b >= a for a, b in zip(errors, errors[1:])):
            flags.append("error sequence not strictly decreasing (quadrature floor?)")

    return ConvergenceStudy(
        target_kind=target.kind,
        kernel_kind=kernel.kind,
        interval=(float(lo), float(hi)),
        scales=s_list,
        sup_errors=errors,
        slope=slope,
        intercept=intercept,
        flags=flags,
    )
