"""Correctness checks for the benchmark's outputs.

Each check compares what timeflow returned with a reference the check
computes itself, with numpy and finite differences, and returns
``(ok, detail)``. The checks run outside the timed regions. `selftest.py`
feeds every check a deliberately wrong input and requires a rejection.
"""

from __future__ import annotations

import numpy as np

LOG_TWO_PI = float(np.log(2.0 * np.pi))

GRAD_RTOL = 1e-4        # central differences against nll_and_grad
GRAD_ATOL = 1e-5        # denominator floor, so entries near zero compare absolutely
GRAD_STEP = 1e-5
LOGDET_TOL = 1e-4       # log_density against base density + FD log|det J|, nats
JACOBIAN_STEP = 1e-5
ROUND_TRIP_TOL = 1e-6   # model_inverse(sample) against the base draws
MASS_TOL = 0.02         # trapezoid grid mass against 1

_trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2 has only trapz


def base_log_density(x):
    """Standard-normal log-density of each row of x."""
    x = np.asarray(x, dtype=float)
    return -0.5 * np.sum(x * x, axis=1) - 0.5 * x.shape[1] * LOG_TWO_PI


def identity_nll(rows):
    """Mean NLL of rows under the untransformed standard-normal base."""
    return float(-np.mean(base_log_density(rows)))


def check_gradient(nll_at, params, grads, entries, step=GRAD_STEP):
    """Central differences of `nll_at(params)` against `grads` on `entries`.

    `entries` is a list of (array index, flat index) pairs into `params`.
    """
    worst = 0.0
    for i, j in entries:
        plus = [p.copy() for p in params]
        minus = [p.copy() for p in params]
        plus[i].flat[j] += step
        minus[i].flat[j] -= step
        fd = (nll_at(plus) - nll_at(minus)) / (2.0 * step)
        g = float(grads[i].flat[j])
        err = abs(fd - g) / max(abs(fd), abs(g), GRAD_ATOL)
        worst = max(worst, err)
    ok = worst <= GRAD_RTOL
    return ok, f"gradient: worst relative error {worst:.3g} over {len(entries)} entries"


def fd_log_det(forward_fn, x, step=JACOBIAN_STEP):
    """log|det J| of `forward_fn` at each row of x, J by central differences."""
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    eye = np.eye(d) * step
    # rows of `probes`: for each point, +h e_j for every j, then -h e_j
    probes = np.concatenate([x[:, None, :] + eye, x[:, None, :] - eye], axis=1)
    out = np.asarray(forward_fn(probes.reshape(-1, d))).reshape(n, 2 * d, d)
    jac = (out[:, :d, :] - out[:, d:, :]) / (2.0 * step)  # jac[p, j, :] = dF/dx_j
    _, logdet = np.linalg.slogdet(jac)
    return logdet


def check_log_density(forward_fn, x, logp):
    """log p(F(x)) = log N(x) - log|det dF/dx(x)|, with x the pulled-back rows."""
    expected = base_log_density(x) - fd_log_det(forward_fn, x)
    err = float(np.max(np.abs(np.asarray(logp) - expected)))
    return err <= LOGDET_TOL, f"log-density: max error {err:.3g} nats on {len(expected)} rows"


def check_round_trip(x, z):
    """The inverse of a sample against the base draws it was made from."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    if x.shape != z.shape:
        return False, f"round trip: shape {x.shape} against base draws {z.shape}"
    err = float(np.max(np.abs(x - z)))
    return err <= ROUND_TRIP_TOL, f"round trip: max error {err:.3g}"


def grid_mass(logp, axis):
    """Trapezoid mass of exp(logp) tabulated on the square grid axis x axis."""
    dens = np.exp(np.asarray(logp, dtype=float)).reshape(len(axis), len(axis))
    return float(_trapezoid(_trapezoid(dens, axis, axis=1), axis))


def check_grid_mass(logp, axis):
    mass = grid_mass(logp, axis)
    return abs(mass - 1.0) <= MASS_TOL, f"grid mass: {mass:.5f}"


def check_heldout(model_nll, rows):
    """The trained model's held-out NLL must beat the identity base."""
    base = identity_nll(rows)
    return model_nll < base, f"held-out NLL {model_nll:.4f} against identity {base:.4f}"


def layerwise_inverse(layer_inverse, layer_forward, layers, y, refine):
    """Refined inverse redone one layer at a time, last layer first.

    Returns the preimage and the largest residual |layer(x_in) - x_out|
    over the layers: a refinement tolerance bounds each layer's residual,
    not that of the whole composed map.
    """
    out, worst = y, 0.0
    for layer in reversed(layers):
        inp, _ = layer_inverse(layer, out, refine=refine)
        worst = max(worst, float(np.max(np.abs(layer_forward(layer, inp)[0] - out))))
        out = inp
    return out, worst


def check_refine(x, x_chain, layer_residual, tolerance):
    """A returned refined inverse: each layer's residual within the tolerance,
    and the same point as the inverse redone one layer at a time."""
    gap = float(np.max(np.abs(np.asarray(x) - np.asarray(x_chain))))
    ok = layer_residual <= tolerance and gap <= tolerance
    return ok, (f"refine: largest layer residual {layer_residual:.3g}, gap to the"
                f" layer-by-layer inverse {gap:.3g} (tolerance {tolerance:g})")
