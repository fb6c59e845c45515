"""Root-finding inversion of the scalar maps, and a step-count benchmark.

Solving forward(x) = y is a 1-D root problem on a strictly increasing
function. Two refinement methods are provided:

* bisection on a bracket grown geometrically around y until the residual
  changes sign;
* fixed-point iteration x <- x + lam*(y - q(x)), seeded with a coarse
  five-node trapezoid discretization of the reverse-time integral, with
  the damping factor lam halved whenever the residual grows.

`run_bench` measures mean iteration counts of both methods over seeded
random inputs at a ladder of tolerances. Counting convention: bracket
expansion and the initial guess are not iterations; every refinement-loop
pass (including damped retries, each of which costs one forward solve) is.
All samples are processed as vector lanes with deterministic aggregation.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, replace

import numpy as np

from .integrands import Integrand
from .scalarmap import RootResult, SolverConfig, _integrand_slope, integrate

__all__ = [
    "RefineConfig",
    "RootResult",
    "BenchReport",
    "bisection_invert",
    "fixedpoint_invert",
    "refine_lanes",
    "run_bench",
    "DEFAULT_BENCH_INTEGRAND",
]

METHODS = ("bisection", "fixed_point")

# Benchmark dynamics: the map derivative stays in ~[1.2, 1.5] on the unit
# interval, so the plain fixed-point iteration contracts without damping.
# Always echoed in reports; override via run_bench(integrand=...).
DEFAULT_BENCH_INTEGRAND = Integrand.quadratic(0.2, 0.1, 0.1)

_HARD_CAP = 200  # absolute ceiling on refinement loop passes per lane
_BRACKET_HALFWIDTH = 0.5  # bisection's first bracket is [center - w, center + w]
_BRACKET_EXPANSION = 2.0  # a side that misses the root is widened by this factor...
_MAX_EXPANSIONS = 60  # ...at most this many times
_DAMPING_FLOOR = 1.0 / 16.0  # the fixed-point damping factor is never halved below this


@dataclass(frozen=True)
class RefineConfig:
    """How to polish an inverse: method, residual tolerance, fixed-point pass cap (1..200)."""

    method: str = "fixed_point"
    tolerance: float = 1e-10
    max_iterations: int = 50

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown refinement method {self.method!r}")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if not 1 <= self.max_iterations <= _HARD_CAP:
            raise ValueError(f"max_iterations must be in 1..{_HARD_CAP}, not "
                             f"{self.max_iterations!r}")


def _map_only(g, cfg):
    """Forward map values without the log-derivative accumulation; a built-in
    family solves through its value-only `scalarmap.family_slope`."""
    value_fn, dv_fn = _integrand_slope(g, False)

    def q(x, lanes=None):  # lanes: the refinement's mask; the parameters are scalars
        y, _, _ = integrate(value_fn, dv_fn, np.asarray(x, dtype=float), cfg,
                            want_log_deriv=False, divergence="nan")
        return y

    return q


def trapezoid_reverse(g: Integrand, y):
    """Coarse explicit-trapezoid reverse integration from t=1 to t=0 on
    five nodes: the cheap initial guess for the fixed-point iteration.
    """
    value_fn, _ = g.functions()
    v = np.asarray(y, dtype=float).copy()
    h = -0.25
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(4):
            t = 1.0 + k * h
            k1 = value_fn(v, t)
            k2 = value_fn(v + h * k1, t + h)
            v = v + 0.5 * h * (k1 + k2)
    return v


def _on_lanes(q, x, lanes):
    """``q(x[lanes], lanes)`` in x's shape: NaN on the lanes `lanes` leaves out,
    which never reach `q`."""
    out = np.full(np.shape(x), np.nan)
    if lanes.any():
        out[lanes] = q(x[lanes], lanes)
    return out


def _bisect(q, y, center, rc, lanes=None):
    """Vectorized bisection on a bracket grown geometrically around `center`.

    Only the lanes that the boolean mask `lanes` picks (all by default) are
    solved; the others come back unconverged. The bracket starts at
    [center - w, center + w] with w = `_BRACKET_HALFWIDTH`, and each failing
    side is widened until the monotone residual changes sign. Only the
    halvings count as `iterations`; they stop once the bracket width and the
    residual are both <= rc.tolerance.
    """
    lanes = np.ones(y.shape, dtype=bool) if lanes is None else lanes
    w_lo = np.full(y.shape, _BRACKET_HALFWIDTH)
    w_hi = w_lo.copy()
    lo = center - w_lo
    hi = center + w_hi
    q_lo = _on_lanes(q, lo, lanes)
    q_hi = _on_lanes(q, hi, lanes)
    for _ in range(_MAX_EXPANSIONS):
        bad_lo = lanes & ~(q_lo <= y)
        bad_hi = lanes & ~(q_hi >= y)
        if not (bad_lo.any() or bad_hi.any()):
            break
        w_lo = np.where(bad_lo, w_lo * _BRACKET_EXPANSION, w_lo)
        w_hi = np.where(bad_hi, w_hi * _BRACKET_EXPANSION, w_hi)
        lo = np.where(bad_lo, center - w_lo, lo)
        hi = np.where(bad_hi, center + w_hi, hi)
        q_lo = np.where(bad_lo, _on_lanes(q, lo, bad_lo), q_lo)
        q_hi = np.where(bad_hi, _on_lanes(q, hi, bad_hi), q_hi)

    active = (q_lo <= y) & (q_hi >= y)  # lanes without a bracket are never bisected
    steps = np.zeros(y.shape, dtype=int)
    x = 0.5 * (lo + hi)
    residual = np.full(y.shape, np.inf)
    for _ in range(_HARD_CAP):
        if not active.any():
            break
        mid = 0.5 * (lo + hi)
        r = _on_lanes(q, mid, active) - y
        go_down = r > 0.0  # non-finite residual leaves the bracket untouched below
        hi = np.where(active & go_down, mid, hi)
        lo = np.where(active & ~go_down & np.isfinite(r), mid, lo)
        x = np.where(active, mid, x)
        residual = np.where(active, np.abs(r), residual)
        steps[active] += 1
        with np.errstate(invalid="ignore"):  # a lane seeded at +-inf keeps inf - inf = NaN
            done = active & ((hi - lo) <= rc.tolerance) & (np.abs(r) <= rc.tolerance)
        active &= ~done
    converged = ~active & np.isfinite(residual)
    return RootResult(x, steps, converged, residual, np.zeros(y.shape, dtype=bool))


def _fixed_point(q, y, x0, rc):
    """Vectorized damped fixed-point iteration from the given start.

    ``q(x, lanes)`` maps the lanes picked by the boolean mask `lanes`,
    whose current values are `x`; a residual function with per-lane
    parameters selects them with the same mask.
    """
    y = np.asarray(y, dtype=float)
    x = np.array(x0, dtype=float, copy=True)
    qx = _on_lanes(q, x, np.ones(y.shape, dtype=bool))
    r = qx - y
    lam = np.ones(y.shape)
    steps = np.zeros(y.shape, dtype=int)
    finite = np.isfinite(r)
    converged = finite & (np.abs(r) <= rc.tolerance)
    active = ~converged
    while active.any():
        over = steps >= rc.max_iterations
        active &= ~over
        if not active.any():
            break
        prop = x + lam * (y - qx)
        qp = _on_lanes(q, prop, active)
        rp = qp - y
        # non-finite proposals count as residual growth and get damped
        shrunk = np.abs(rp) <= np.abs(r)
        shrunk &= np.isfinite(rp)
        accept = active & shrunk
        reject = active & ~shrunk
        x = np.where(accept, prop, x)
        qx = np.where(accept, qp, qx)
        r = np.where(accept, rp, r)
        lam = np.where(reject, np.maximum(lam * 0.5, _DAMPING_FLOOR), lam)
        steps[active] += 1
        converged = np.isfinite(r) & (np.abs(r) <= rc.tolerance)
        active &= ~converged
    return x, steps, converged, np.abs(r)


def refine_lanes(q, y, x0, rc: RefineConfig) -> RootResult:
    """Solve q(x) = y lane by lane from the guess x0, by `rc.method`.

    `y` and `x0` share one shape, any shape, and so does every field of the
    result. ``q(x, lanes)`` maps the lanes picked by the boolean mask
    `lanes`, of y's shape, whose values are the 1-D `x`. 'bisection'
    brackets around x0. 'fixed_point' iterates from x0, and every lane that
    misses the tolerance falls back to bisection around its fixed-point x
    (flagged in `fell_back`; `iterations` keeps the fixed-point count). A
    lane whose fallback fails too keeps its fixed-point x and residual.
    """
    if rc.method == "bisection":
        return _bisect(q, y, x0, rc)
    x, steps, converged, residual = _fixed_point(q, y, x0, rc)
    fell_back = ~converged
    if fell_back.any():
        fb = _bisect(q, y, x, rc, fell_back)
        x = np.where(fb.converged, fb.x, x)
        residual = np.where(fb.converged, fb.residual, residual)
        converged = converged | fb.converged
    return RootResult(x, steps, converged, residual, fell_back)


def _invert(g, cfg, y, x0, rc):
    """`refine_lanes` on the forward map of `g`; a scalar y gives scalar fields."""
    if cfg.direction != "forward":
        raise ValueError(f"{rc.method} inversion wants the forward solver config")
    y = np.asarray(y, dtype=float)
    res = refine_lanes(_map_only(g, cfg), y, np.asarray(x0, dtype=float), rc)
    if y.ndim == 0:
        kinds = (float, int, bool, float, bool)
        res = RootResult(*(kind(v) for kind, v in zip(kinds, astuple(res))))
    return res


def bisection_invert(g: Integrand, cfg: SolverConfig, y, rc: RefineConfig) -> RootResult:
    """Invert by bracketing + bisection around y; `iterations` counts halvings only.

    The bracket starts at [y - w, y + w] with w = `_BRACKET_HALFWIDTH` and
    each failing side is widened geometrically until the monotone residual
    changes sign; widening is not counted.
    """
    return _invert(g, cfg, y, y, replace(rc, method="bisection"))


def fixedpoint_invert(g: Integrand, cfg: SolverConfig, y, rc: RefineConfig) -> RootResult:
    """Invert by damped fixed-point iteration, x <- x + lam*(y - q(x)).

    Starts from the five-node trapezoid reverse integral; the initial
    guess and its residual check are not counted in `iterations`. Lanes
    that exhaust `max_iterations` fall back to bisection (see `refine_lanes`).
    """
    return _invert(g, cfg, y, trapezoid_reverse(g, y), replace(rc, method="fixed_point"))


# --- benchmark -------------------------------------------------------------


@dataclass
class BenchRow:
    tolerance: float
    method: str
    mean_steps: float
    failures: int


@dataclass
class BenchReport:
    """Mean refinement step counts per (tolerance, method)."""

    integrand: Integrand
    seed: int
    n_inputs: int
    solver_steps: int
    rows: list = field(default_factory=list)

    def mean_steps(self, tolerance, method):
        for row in self.rows:
            if row.tolerance == tolerance and row.method == method:
                return row.mean_steps
        raise KeyError((tolerance, method))

    def summary(self):
        g = self.integrand
        lines = [
            f"inversion benchmark: g(v) = {g.a}*v + {g.b} + {g.c}*v^2"
            f" ({g.family}), {self.n_inputs} inputs, seed {self.seed},"
            f" rk4 steps {self.solver_steps}",
            f"{'tolerance':>10} {'method':>12} {'mean steps':>11} {'failures':>9}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.tolerance:>10.0e} {row.method:>12} {row.mean_steps:>11.3f} {row.failures:>9d}"
            )
        return "\n".join(lines)


def run_bench(integrand: Integrand = DEFAULT_BENCH_INTEGRAND,
              tolerances=(1e-3, 1e-4, 1e-5, 1e-6),
              n_inputs: int = 1000,
              seed: int = 0,
              solver_steps: int = 16) -> BenchReport:
    """Average refinement steps of both methods over random unit-interval inputs.

    Inputs x are drawn uniformly from (0, 1), mapped forward to targets
    y = q(x), and each method inverts every target at each tolerance.
    Failed lanes (no bracket / no convergence) are excluded from the mean
    and counted in `failures`.
    """
    rng = np.random.default_rng(seed)
    x_true = rng.uniform(0.0, 1.0, size=n_inputs)
    cfg = SolverConfig(steps=solver_steps, direction="forward")
    q = _map_only(integrand, cfg)
    y = q(x_true)

    report = BenchReport(integrand=integrand, seed=seed, n_inputs=n_inputs,
                         solver_steps=solver_steps)
    for tol in tolerances:
        rc = RefineConfig(method="fixed_point", tolerance=tol, max_iterations=100)
        for method, invert in (("fixed_point", fixedpoint_invert),
                               ("bisection", bisection_invert)):  # each sets its method
            res = invert(integrand, cfg, y, rc)
            ok = res.converged & ~res.fell_back  # bisection never falls back
            report.rows.append(BenchRow(
                tolerance=tol, method=method,
                mean_steps=float(np.mean(res.iterations[ok])) if ok.any() else float("nan"),
                failures=int(np.sum(~ok)),
            ))
    return report
