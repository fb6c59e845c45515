"""Invertible flows composed of coupling, autoregressive, and permutation layers.

Coupling layers copy one block of coordinates and transform the rest
coordinatewise with integrand parameters produced by a conditioner reading
the copied block. Autoregressive layers transform every coordinate, with
parameters from a masked conditioner so coordinate k only sees earlier
coordinates. Both have triangular Jacobians whose log-determinant is the
sum of per-coordinate log-derivatives of the scalar maps; permutations are
volume preserving.

Densities are evaluated along the inverse path: data is pulled back to the
standard-normal base through reverse-time integration, and the
log-derivative integral accumulated along that reverse trajectory (which
carries the opposite sign of the forward one) is added to the base
log-density. This costs one solve per coordinate per layer and never needs
the forward pass.

Forward, inverse, log-density and sampling are pure; batches are vector
lanes processed together with deterministic ordering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .autodiff import Node, concat, sum_, value_of
from .conditioner import ConditionerNet, build_masks, init_net, net_eval
from .integrands import family_functions
from .scalarmap import DEFAULT_GUARD, DivergenceError, SolverConfig, integrate, solve_node

__all__ = [
    "CouplingLayer",
    "AutoregressiveLayer",
    "PermutationLayer",
    "FlowModel",
    "layer_forward",
    "layer_inverse",
    "log_density",
    "sample",
    "build_flow",
    "randomize_parameters",
    "save_checkpoint",
    "load_checkpoint",
]

LOG_TWO_PI = float(np.log(2.0 * np.pi))


@dataclass
class CouplingLayer:
    """Copy one block, transform the other; `split` is the block boundary d.

    With `transform_upper` the coordinates d..D-1 are transformed using
    parameters conditioned on 0..d-1, otherwise the roles are swapped.
    """

    dim: int
    split: int
    transform_upper: bool
    family: str
    conditioner: ConditionerNet
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if not 1 <= self.split < self.dim:
            raise ValueError("coupling split must satisfy 1 <= d < D")
        n_pass = self.split if self.transform_upper else self.dim - self.split
        n_trans = self.dim - n_pass
        if self.conditioner.in_dim != n_pass or self.conditioner.out_dim != 3 * n_trans:
            raise ValueError(
                f"conditioner dims ({self.conditioner.in_dim} -> "
                f"{self.conditioner.out_dim}) do not match split {self.split}"
                f" of dimension {self.dim}"
            )


@dataclass
class AutoregressiveLayer:
    """Transform every coordinate; the masked conditioner supplies the
    (a, b, c) triple for coordinate k from coordinates of lower order."""

    dim: int
    family: str
    conditioner: ConditionerNet
    solver: SolverConfig = field(default_factory=SolverConfig)
    ordering: Optional[np.ndarray] = None  # rank -> variable index

    def __post_init__(self):
        if self.conditioner.masks is None:
            raise ValueError("autoregressive layers need a masked conditioner")
        if self.conditioner.in_dim != self.dim or self.conditioner.out_dim != 3 * self.dim:
            raise ValueError("masked conditioner must map D inputs to 3*D outputs")
        if self.ordering is None:
            self.ordering = np.arange(self.dim)
        else:
            self.ordering = np.asarray(self.ordering, dtype=int)
            if sorted(self.ordering.tolist()) != list(range(self.dim)):
                raise ValueError("ordering must be a permutation of 0..D-1")


@dataclass
class PermutationLayer:
    """Reindex coordinates: y[:, j] = x[:, perm[j]]. Zero log-determinant."""

    dim: int
    perm: np.ndarray

    def __post_init__(self):
        self.perm = np.asarray(self.perm, dtype=int)
        if sorted(self.perm.tolist()) != list(range(self.dim)):
            raise ValueError("perm must be a bijection on 0..D-1")

    @property
    def inverse_perm(self):
        return np.argsort(self.perm)


@dataclass
class FlowModel:
    """Ordered layers over R^D with a standard-normal base distribution.

    Sampling applies layers in list order; densities invert them in
    reverse order.
    """

    dim: int
    layers: list

    def __post_init__(self):
        for i, layer in enumerate(self.layers):
            if layer.dim != self.dim:
                raise ValueError(f"layer {i} has dimension {layer.dim}, expected {self.dim}")

    # convenience method forms of the module-level operations
    def forward(self, x):
        return model_forward(self, x)

    def inverse(self, y, refine=None):
        return model_inverse(self, y, refine=refine)

    def log_density(self, y, params=None):
        return log_density(self, y, params=params)

    def sample(self, n, seed=0):
        return sample(self, n, seed)

    def parameters(self):
        out = []
        for layer in self.layers:
            out.extend(layer_param_arrays(layer))
        return out

    def set_parameters(self, arrays):
        i = 0
        for layer in self.layers:
            own = layer_param_arrays(layer)
            if own:
                layer.conditioner.set_param_arrays(arrays[i:i + len(own)])
                i += len(own)
        if i != len(arrays):
            raise ValueError("wrong number of parameter arrays for this model")


def layer_param_arrays(layer):
    if isinstance(layer, PermutationLayer):
        return []
    return layer.conditioner.param_arrays()


def _split_params(model, params):
    """Per-layer views into a flat parameter list (None passes through)."""
    views = []
    i = 0
    for layer in model.layers:
        n = len(layer_param_arrays(layer))
        views.append(None if params is None else params[i:i + n])
        i += n
    if params is not None and i != len(params):
        raise ValueError("parameter list length does not match the model")
    return views


def _as_batch(x):
    if isinstance(x, Node):
        if x.ndim == 1:
            return x.reshape(1, -1), True
        return x, False
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        return arr.reshape(1, -1), True
    return arr, False


def _triples(theta):
    """Split conditioner output (n, 3k) into a, b, c of shape (n, k)."""
    return theta[:, 0::3], theta[:, 1::3], theta[:, 2::3]


def _solve(family, a, b, c, x, cfg, guard, divergence="raise", want_log_deriv=True):
    """Solve every lane of x under the family's integrand with parameters a, b, c.

    `integrate` always runs on raw arrays, with the family's one-phi slope
    when the log-derivative is wanted. If x or a parameter is a Node, the
    solve goes on the tape as one Node (see `scalarmap.solve_node`), and a
    lane leaving the guard box always raises.
    Returns ``(v_end, log_deriv)``; log_deriv is None unless `want_log_deriv`.
    """
    value, dv = family_functions(family)
    ra, rb, rc = value_of(a), value_of(b), value_of(c)
    taped = any(isinstance(p, Node) for p in (x, a, b, c))
    stages = [] if taped else None
    if want_log_deriv:
        fns = (lambda v, t: value(ra, rb, rc, v, t, with_dv=True)), None
    else:
        fns = (lambda v, t: value(ra, rb, rc, v, t)), (lambda v, t: dv(ra, rb, rc, v, t))
    y, l, _ = integrate(
        *fns, value_of(x), cfg, guard=guard, want_log_deriv=want_log_deriv,
        divergence="raise" if taped else divergence, stages=stages,
    )
    if taped:
        return solve_node(family, x, (a, b, c), cfg, y, l, stages)
    return y, l


def layer_forward(layer, x, params=None, *, guard=DEFAULT_GUARD, divergence="raise"):
    """Apply one layer. Returns (y, logdet) with logdet summed over
    transformed coordinates, shape (n,) for batched input."""
    return _layer_forward(layer, x, params, guard, divergence, True)


def _logdet_sum(l):
    return None if l is None else sum_(l, axis=1)


def _layer_forward(layer, x, params, guard, divergence, want_log_deriv):
    """`layer_forward`; without `want_log_deriv` the logdet comes back None."""
    xb, squeeze = _as_batch(x)
    if isinstance(layer, PermutationLayer):
        y = xb[:, layer.perm]
        logdet = np.zeros(value_of(xb).shape[0])
    elif isinstance(layer, CouplingLayer):
        d = layer.split
        if layer.transform_upper:
            xp, xt = xb[:, :d], xb[:, d:]
        else:
            xp, xt = xb[:, d:], xb[:, :d]
        theta = net_eval(layer.conditioner, xp, params)
        a, b, c = _triples(theta)
        yt, l = _solve(layer.family, a, b, c, xt, layer.solver, guard, divergence,
                       want_log_deriv)
        y = concat([xp, yt] if layer.transform_upper else [yt, xp], axis=1)
        logdet = _logdet_sum(l)
    elif isinstance(layer, AutoregressiveLayer):
        theta = net_eval(layer.conditioner, xb, params)
        a, b, c = _triples(theta)
        y, l = _solve(layer.family, a, b, c, xb, layer.solver, guard, divergence,
                      want_log_deriv)
        logdet = _logdet_sum(l)
    else:
        raise TypeError(f"unknown layer type {type(layer).__name__}")
    return _unbatch(y, logdet, squeeze)


def _unbatch(x, logdet, squeeze):
    if squeeze:
        return x.reshape(-1), None if logdet is None else logdet[0]
    return x, logdet


def layer_inverse(layer, y, params=None, refine=None, *, guard=DEFAULT_GUARD,
                  divergence="raise"):
    """Invert one layer. Returns (x, logdet_rev) where logdet_rev is the
    log-derivative integral accumulated along the reverse trajectory (the
    log-determinant of the inverse map, i.e. minus the forward one).

    `refine` (a RefineConfig) optionally polishes each transformed
    coordinate by root refinement; plain-array inputs only.
    """
    return _layer_inverse(layer, y, params, refine, guard, divergence, True)


def _layer_inverse(layer, y, params, refine, guard, divergence, want_log_deriv):
    """`layer_inverse`; without `want_log_deriv` the logdet comes back None."""
    yb, squeeze = _as_batch(y)
    if isinstance(layer, PermutationLayer):
        x = yb[:, layer.inverse_perm]
        logdet = np.zeros(value_of(yb).shape[0])
    elif isinstance(layer, CouplingLayer):
        d = layer.split
        if layer.transform_upper:
            yp, yt = yb[:, :d], yb[:, d:]
        else:
            yp, yt = yb[:, d:], yb[:, :d]
        theta = net_eval(layer.conditioner, yp, params)
        a, b, c = _triples(theta)
        xt, logdet = _invert_block(layer, a, b, c, yt, refine, guard, divergence,
                                   want_log_deriv)
        x = concat([yp, xt] if layer.transform_upper else [xt, yp], axis=1)
    elif isinstance(layer, AutoregressiveLayer):
        x, logdet = _invert_autoregressive(layer, yb, params, refine, guard,
                                           divergence, want_log_deriv)
    else:
        raise TypeError(f"unknown layer type {type(layer).__name__}")
    return _unbatch(x, logdet, squeeze)


def _invert_block(layer, a, b, c, yt, refine, guard, divergence, want_log_deriv):
    """Reverse-integrate a block of coordinates with given parameter arrays."""
    xt, l = _solve(layer.family, a, b, c, yt, layer.solver.reversed(), guard, divergence,
                   want_log_deriv)
    if refine is not None and refine.method != "reverse_only":
        if isinstance(xt, Node):
            raise TypeError("refined inversion is not differentiable; use plain arrays")
        xt = _refine_block(layer, a, b, c, yt, xt, refine, guard)
        if want_log_deriv:  # recompute the reverse log-derivative from the refined preimage
            _, lf = _solve(layer.family, a, b, c, xt, layer.solver, guard)
            l = -lf
    return xt, _logdet_sum(l)


def _refine_block(layer, a, b, c, yt, xt0, refine, guard):
    from .inversion import _fixed_point

    out = np.empty(yt.shape)
    for j in range(yt.shape[1]):  # each column has its own parameter lanes
        params = (a[:, j], b[:, j], c[:, j])

        def q(x, lanes, params=params):
            v, _ = _solve(layer.family, *(p[lanes] for p in params), x, layer.solver,
                          guard, divergence="nan", want_log_deriv=False)
            return v

        xj, _, converged, _ = _fixed_point(q, yt[:, j], xt0[:, j], refine)
        if not np.all(converged):
            bad = np.flatnonzero(~converged).tolist()
            raise DivergenceError(
                f"inverse refinement did not converge for coordinate {j}"
                f" (rows {bad})", indices=bad)
        out[:, j] = xj
    return out


def _invert_autoregressive(layer, yb, params, refine, guard, divergence, want_log_deriv):
    """Sequential inversion in the layer's variable ordering."""
    n = value_of(yb).shape[0]
    D = layer.dim
    cols = [None] * D
    logdet = None
    for rank in range(D):
        k = int(layer.ordering[rank])
        filled = [
            cols[j] if cols[j] is not None else np.zeros((n, 1))
            for j in range(D)
        ]
        inp = concat(filled, axis=1)
        theta = net_eval(layer.conditioner, inp, params)
        a = theta[:, 3 * k:3 * k + 1]
        b = theta[:, 3 * k + 1:3 * k + 2]
        c = theta[:, 3 * k + 2:3 * k + 3]
        cols[k], contrib = _invert_block(layer, a, b, c, yb[:, k:k + 1], refine, guard,
                                         divergence, want_log_deriv)
        if want_log_deriv:
            logdet = contrib if logdet is None else logdet + contrib
    x = concat(cols, axis=1)
    return x, logdet


def model_forward(model: FlowModel, x, params=None, *, guard=DEFAULT_GUARD,
                  divergence="raise"):
    """Push x through all layers; returns (y, total_logdet)."""
    return _model_forward(model, x, params, guard, divergence, True)


def _model_forward(model, x, params, guard, divergence, want_log_deriv):
    """`model_forward`; without `want_log_deriv` the total comes back None."""
    views = _split_params(model, params)
    xb, squeeze = _as_batch(x)
    total = None
    for i, layer in enumerate(model.layers):
        try:
            xb, ld = _layer_forward(layer, xb, views[i], guard, divergence, want_log_deriv)
        except DivergenceError as err:
            raise DivergenceError(f"layer {i}: {err}", indices=err.indices) from err
        if want_log_deriv:
            total = ld if total is None else total + ld
    if total is None and want_log_deriv:
        total = np.zeros(value_of(xb).shape[0])
    return _unbatch(xb, total, squeeze)


def model_inverse(model: FlowModel, y, params=None, refine=None, *, guard=DEFAULT_GUARD):
    """Pull y back through all layer inverses; returns x only."""
    views = _split_params(model, params)
    yb, squeeze = _as_batch(y)
    for i in reversed(range(len(model.layers))):
        try:
            yb, _ = _layer_inverse(model.layers[i], yb, views[i], refine, guard, "raise",
                                   False)
        except DivergenceError as err:
            raise DivergenceError(f"layer {i}: {err}", indices=err.indices) from err
    return yb.reshape(-1) if squeeze else yb


def log_density(model: FlowModel, y, params=None, *, guard=DEFAULT_GUARD,
                divergence="raise"):
    """Exact model log-density at y (nats).

    Evaluates along the inverse path: base log-density of the pulled-back
    point plus the per-layer reverse-direction log-derivative integrals.

    A point whose reverse trajectory leaves the guard box lies outside the
    model's image and has density zero; this raises by default, while
    divergence='-inf' records -inf for those entries (plain arrays only),
    which is what density tabulation over a grid wants.
    """
    if divergence not in ("raise", "-inf"):
        raise ValueError("divergence must be 'raise' or '-inf'")
    mode = "raise" if divergence == "raise" else "nan"
    views = _split_params(model, params)
    yb, squeeze = _as_batch(y)
    total = None
    for i in reversed(range(len(model.layers))):
        try:
            yb, ld = layer_inverse(model.layers[i], yb, views[i], guard=guard,
                                   divergence=mode)
        except DivergenceError as err:
            raise DivergenceError(f"layer {i}: {err}", indices=err.indices) from err
        total = ld if total is None else total + ld
    base = -0.5 * sum_(yb * yb, axis=1) - 0.5 * model.dim * LOG_TWO_PI
    out = base if total is None else base + total
    raw = value_of(out)
    if not np.all(np.isfinite(raw)):
        if divergence == "raise":
            bad = np.argwhere(~np.isfinite(raw)).ravel().tolist()
            raise DivergenceError(f"non-finite log-density for elements {bad}",
                                  indices=bad)
        out = np.where(np.isnan(raw), -np.inf, raw)
    return out[0] if squeeze else out


def sample(model: FlowModel, n: int, seed: int = 0, *, guard=DEFAULT_GUARD,
           divergence="raise"):
    """Draw n base-normal vectors (seeded) and push them forward.

    Quadratic/cubic dynamics are only locally Lipschitz, so a trained map
    may be undefined for extreme base draws. With divergence='drop' such
    lanes are removed (the returned sample may be shorter than n) instead
    of raising.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, model.dim))
    mode = "nan" if divergence == "drop" else divergence
    y, _ = _model_forward(model, x, None, guard, mode, False)
    if divergence == "drop":
        y = y[np.all(np.isfinite(y), axis=1)]
    return y


def randomize_parameters(model: FlowModel, seed=0, scale=0.4):
    """Overwrite all conditioner parameters with small random values.

    Freshly built flows are exactly the identity map up to their
    permutations (zero output layers); this gives a generic non-identity
    model for audits and tests. Weights are scaled by 1/sqrt(fan_in) and
    biases kept at half scale so the emitted integrand parameters stay
    moderate and the quadratic/cubic dynamics cannot blow up for typical
    base-normal inputs.
    """
    rng = np.random.default_rng(seed)
    params = []
    for p in model.parameters():
        if p.ndim == 2:
            params.append(scale / np.sqrt(p.shape[0]) * rng.standard_normal(p.shape))
        else:
            params.append(0.5 * scale * rng.standard_normal(p.shape))
    model.set_parameters(params)
    return model


# --- construction ----------------------------------------------------------


def build_flow(dim, n_layers=4, kind="coupling", family="quadratic",
               hidden_dims=(16,), solver=None, seed=0, permute=True) -> FlowModel:
    """Assemble a flow of `n_layers` transform layers.

    Coupling layers split at d = D//2 and alternate which half is
    transformed; a seeded random permutation is inserted between every
    pair of transform layers so successive layers see shuffled
    coordinates. Conditioners start at the identity map (zero final
    layer), so a freshly built flow is the identity.
    """
    if kind not in ("coupling", "autoregressive"):
        raise ValueError(f"unknown flow kind {kind!r}")
    if kind == "coupling" and dim < 2:
        raise ValueError("coupling flows need dimension >= 2")
    solver = solver or SolverConfig()
    rng = np.random.default_rng(seed)
    layers = []
    for i in range(n_layers):
        if i > 0 and permute:
            layers.append(PermutationLayer(dim, rng.permutation(dim)))
        if kind == "coupling":
            d = dim // 2
            upper = i % 2 == 0
            n_pass = d if upper else dim - d
            n_trans = dim - n_pass
            net = init_net([n_pass, *hidden_dims, 3 * n_trans],
                           seed=rng, activation="tanh")
            layers.append(CouplingLayer(dim, d, upper, family, net, solver))
        else:
            masks = build_masks(dim, list(hidden_dims))
            net = init_net([dim, *hidden_dims, 3 * dim], seed=rng,
                           activation="tanh", masks=masks)
            layers.append(AutoregressiveLayer(dim, family, net, solver))
    return FlowModel(dim, layers)


# --- checkpoints -----------------------------------------------------------

CHECKPOINT_FORMAT = "timeflow-checkpoint"
CHECKPOINT_VERSION = 1


def _solver_to_json(cfg: SolverConfig):
    return {"scheme": cfg.scheme, "steps": cfg.steps}


def _solver_from_json(obj):
    return SolverConfig(scheme=obj["scheme"], steps=int(obj["steps"]))


def _net_to_json(net: ConditionerNet):
    return {
        "layer_dims": list(net.layer_dims),
        "activation": net.activation,
        "weights": [w.ravel().tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def _net_from_json(obj, masks=None):
    dims = [int(d) for d in obj["layer_dims"]]
    weights = [
        np.asarray(flat, dtype=float).reshape(dims[i], dims[i + 1])
        for i, flat in enumerate(obj["weights"])
    ]
    biases = [np.asarray(b, dtype=float) for b in obj["biases"]]
    return ConditionerNet(dims, weights, biases, obj["activation"], masks)


def save_checkpoint(model: FlowModel, path):
    """Write the model as self-describing JSON.

    Python's repr-based float serialization is shortest-round-trip, so
    every parameter survives save/load bit for bit.
    """
    layers = []
    for layer in model.layers:
        if isinstance(layer, PermutationLayer):
            layers.append({"kind": "permutation", "perm": layer.perm.tolist()})
        elif isinstance(layer, CouplingLayer):
            layers.append({
                "kind": "coupling",
                "split": layer.split,
                "transform_upper": layer.transform_upper,
                "family": layer.family,
                "solver": _solver_to_json(layer.solver),
                "conditioner": _net_to_json(layer.conditioner),
            })
        elif isinstance(layer, AutoregressiveLayer):
            layers.append({
                "kind": "autoregressive",
                "family": layer.family,
                "ordering": layer.ordering.tolist(),
                "solver": _solver_to_json(layer.solver),
                "conditioner": _net_to_json(layer.conditioner),
            })
        else:
            raise TypeError(f"cannot serialize layer {type(layer).__name__}")
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "dim": model.dim,
        "layers": layers,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_checkpoint(path) -> FlowModel:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    dim = int(doc["dim"])
    layers = []
    for obj in doc["layers"]:
        kind = obj["kind"]
        if kind == "permutation":
            layers.append(PermutationLayer(dim, np.asarray(obj["perm"], dtype=int)))
        elif kind == "coupling":
            net = _net_from_json(obj["conditioner"])
            layers.append(CouplingLayer(
                dim, int(obj["split"]), bool(obj["transform_upper"]),
                obj["family"], net, _solver_from_json(obj["solver"]),
            ))
        elif kind == "autoregressive":
            ordering = np.asarray(obj["ordering"], dtype=int)
            dims = [int(d) for d in obj["conditioner"]["layer_dims"]]
            masks = build_masks(dim, dims[1:-1], ordering=ordering)
            net = _net_from_json(obj["conditioner"], masks=masks)
            layers.append(AutoregressiveLayer(
                dim, obj["family"], net, _solver_from_json(obj["solver"]), ordering,
            ))
        else:
            raise ValueError(f"{path}: unknown layer kind {kind!r}")
    return FlowModel(dim, layers)
