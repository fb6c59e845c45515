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

Memory: outside training, the rows go through all the layers in blocks of
`scalarmap.LANES` // w rows, where w is the widest solve on the path (the
transformed width of a coupling layer; D forward and 1 inverse for an
autoregressive one). An evaluation of n rows holds its inputs and outputs,
O(n*D), plus one block's conditioner activations and solver arrays, however
large n is. Each block is exactly the call on its rows alone, and an input
of at most one block is that one call. Training keeps one block: its
memory is the formula in `training`.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Node
from .conditioner import (ConditionerNet, build_masks, init_net, net_backward, net_eval,
                          net_input_vjp)
from .integrands import family_functions, family_phi
from .inversion import refine_lanes
from .scalarmap import LANES, DivergenceError, SolverConfig, _adjoint, family_slope, integrate

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


def _base_log_density(x):
    """Standard-normal log-density of each row of the (n, D) batch x."""
    return -0.5 * np.sum(x * x, axis=1) - 0.5 * x.shape[1] * LOG_TWO_PI


# Every layer class has the same seven members, which the module-level
# operations below reach without asking which kind of layer they hold:
#   params()                      its parameter arrays, in checkpoint order;
#   width(inverse)                the widest solve of its forward or inverse, in
#                                 lanes per row (0 for a permutation);
#   forward(x, divergence, want_log_deriv) -> (y, logdet);
#   inverse(y, refine, divergence, want_log_deriv, cache=None) -> (x, logdet);
#   vjp(cache, x_bar, l_bar) -> (y_bar, param grads, logdet) of that inverse;
#   to_json() and the classmethod from_json(dim, obj) for checkpoints.
# A layer always computes with the arrays its params() returns. x and y are
# (n, D) batches; divergence is 'raise' or 'nan', applied at the fixed guard
# box |v| <= scalarmap.GUARD (see `scalarmap.integrate`); refine is a
# RefineConfig or None. logdet is (n,), or None without want_log_deriv
# (permutations always return zeros). inverse returns the log-determinant of
# the inverse map. Given a `cache` list, inverse appends what vjp needs, one
# ``(acts, (a, b, c), slab)`` per solve: the conditioner activations, the
# integrand parameters and the trajectory slab that `_solve` returned, v at
# every step's start and v(1), from which the adjoint rebuilds the stage
# points (an autoregressive layer keeps its last pass's activations only, in
# its last entry). vjp takes the cotangents of x and of logdet, supports the
# unrefined inverse only, and returns the logdet too, from the adjoints, so a
# differentiated inverse runs value-only. Each solve's discrete adjoint
# allocates its own workspace and frees it on return.


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
        family_phi(self.family)  # a built-in family, or ValueError naming the value
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

    def params(self):
        return self.conditioner.param_arrays()

    def width(self, inverse):
        return self.dim - self.split if self.transform_upper else self.split

    def _halves(self, x):
        """``(kept, moved)`` column blocks of x."""
        d = self.split
        return (x[:, :d], x[:, d:]) if self.transform_upper else (x[:, d:], x[:, :d])

    def _join(self, kept, moved):
        return np.concatenate([kept, moved] if self.transform_upper else [moved, kept], axis=1)

    def forward(self, x, divergence, want_log_deriv):
        kept, moved = self._halves(x)
        a, b, c = _triples(net_eval(self.conditioner, kept))
        out, logdet, _ = _solve(self, a, b, c, moved, self.solver, divergence, want_log_deriv)
        return self._join(kept, out), logdet

    def inverse(self, y, refine, divergence, want_log_deriv, cache=None):
        kept, moved = self._halves(y)
        acts = [] if cache is not None else None
        a, b, c = _triples(net_eval(self.conditioner, kept, acts=acts))
        out, logdet, slab = _invert_block(self, a, b, c, moved, refine, divergence,
                                          want_log_deriv, cache is not None)
        if cache is not None:
            cache.append((acts, (a, b, c), slab))
        return self._join(kept, out), logdet

    def vjp(self, cache, x_bar, l_bar):
        [(acts, abc, slab)] = cache
        kept_bar, out_bar = self._halves(x_bar)
        moved_bar, *abc_bar, l = _adjoint(self.family, abc, self.solver.reversed(), slab,
                                          out_bar, l_bar[:, None])
        dkept, grads = net_backward(self.conditioner, acts, _interleave(abc_bar))
        return self._join(kept_bar + dkept, moved_bar), grads, np.sum(l, axis=1)

    def to_json(self):
        return {
            "kind": "coupling",
            "split": self.split,
            "transform_upper": self.transform_upper,
            "family": self.family,
            "solver": _solver_to_json(self.solver),
            "conditioner": _net_to_json(self.conditioner),
        }

    @classmethod
    def from_json(cls, dim, obj):
        return cls(dim, _exact(obj["split"], "split"),
                   _exact(obj["transform_upper"], "transform_upper", bool), obj["family"],
                   _net_from_json(obj["conditioner"]), _solver_from_json(obj["solver"]))


@dataclass
class AutoregressiveLayer:
    """Transform every coordinate; the masked conditioner supplies the
    (a, b, c) triple for coordinate k from coordinates 0..k-1. The order is
    fixed: `build_flow` reorders coordinates with permutation layers."""

    dim: int
    family: str
    conditioner: ConditionerNet
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        family_phi(self.family)  # a built-in family, or ValueError naming the value
        if self.conditioner.masks is None:
            raise ValueError("autoregressive layers need a masked conditioner")
        if self.conditioner.in_dim != self.dim or self.conditioner.out_dim != 3 * self.dim:
            raise ValueError("masked conditioner must map D inputs to 3*D outputs")

    def params(self):
        return self.conditioner.param_arrays()

    def width(self, inverse):
        return 1 if inverse else self.dim

    def forward(self, x, divergence, want_log_deriv):
        a, b, c = _triples(net_eval(self.conditioner, x))
        return _solve(self, a, b, c, x, self.solver, divergence, want_log_deriv)[:2]

    def inverse(self, y, refine, divergence, want_log_deriv, cache=None):
        """Sequential inversion: coordinate k is solved once coordinates
        0..k-1 are known. x starts at zero. Only the last conditioner pass
        keeps its activations, for `vjp`, so it reads a copy of x."""
        x = np.zeros(y.shape)
        logdet = None
        for k in range(self.dim):
            acts = [] if cache is not None and k == self.dim - 1 else None
            theta = net_eval(self.conditioner, x if acts is None else x.copy(), acts=acts)
            a, b, c = _triples(theta[:, 3 * k:3 * k + 3])
            x[:, k:k + 1], contrib, slab = _invert_block(
                self, a, b, c, y[:, k:k + 1], refine, divergence, want_log_deriv,
                cache is not None)
            if cache is not None:
                cache.append((acts, (a, b, c), slab))
            if want_log_deriv:
                logdet = contrib if logdet is None else logdet + contrib
        return x, logdet

    def vjp(self, cache, x_bar, l_bar):
        """Walk the coordinates in reverse order: a coordinate's cotangent is
        complete once every later coordinate's triple has added to it. The
        triple of coordinate k reads coordinates 0..k-1 only, final from pass
        k on, so it and the chain back from it are the last pass's: one input
        chain per coordinate, from its own output slots, then one parameter
        pass over all the triples' cotangents."""
        acts = cache[-1][0]
        chain = net_input_vjp(self.conditioner, acts)
        x_bar = x_bar.copy()
        y_bar = np.empty_like(x_bar)
        theta_bar = np.empty((x_bar.shape[0], 3 * self.dim))
        logdets = [None] * self.dim
        cfg = self.solver.reversed()
        for k in range(self.dim - 1, -1, -1):
            _, abc, slab = cache[k]
            y_bar[:, k:k + 1], *abc_bar, l = _adjoint(self.family, abc, cfg, slab,
                                                      x_bar[:, k:k + 1], l_bar[:, None])
            slots = slice(3 * k, 3 * k + 3)
            theta_bar[:, slots] = triple_bar = _interleave(abc_bar)
            if k:  # coordinate 0's triple reads nothing
                x_bar[:, :k] += chain(triple_bar, slots)[:, :k]
            logdets[k] = np.sum(l, axis=1)
        return (y_bar, net_backward(self.conditioner, acts, theta_bar)[1],
                sum(logdets[1:], logdets[0]))

    def to_json(self):
        return {
            "kind": "autoregressive",
            "family": self.family,
            "ordering": list(range(self.dim)),  # kept for the format; always 0..D-1
            "solver": _solver_to_json(self.solver),
            "conditioner": _net_to_json(self.conditioner),
        }

    @classmethod
    def from_json(cls, dim, obj):
        if obj["ordering"] != list(range(dim)):
            raise ValueError(f"ordering {obj['ordering']!r} is not 0..{dim - 1};"
                             " permutation layers reorder coordinates")
        dims = [_exact(d, "layer_dims") for d in obj["conditioner"]["layer_dims"]]
        return cls(dim, obj["family"],
                   _net_from_json(obj["conditioner"], masks=build_masks(dim, dims[1:-1])),
                   _solver_from_json(obj["solver"]))


@dataclass
class PermutationLayer:
    """Reindex coordinates: y[:, j] = x[:, perm[j]]. Zero log-determinant."""

    dim: int
    perm: np.ndarray

    def __post_init__(self):
        self.perm = np.asarray(self.perm, dtype=int)
        if sorted(self.perm.tolist()) != list(range(self.dim)):
            raise ValueError("perm must be a bijection on 0..D-1")

    def params(self):
        return []

    def width(self, inverse):
        return 0

    def forward(self, x, divergence, want_log_deriv):
        return x[:, self.perm], np.zeros(x.shape[0])

    def inverse(self, y, refine, divergence, want_log_deriv, cache=None):
        return y[:, np.argsort(self.perm)], np.zeros(y.shape[0])

    def vjp(self, cache, x_bar, l_bar):
        return x_bar[:, self.perm], [], np.zeros(x_bar.shape[0])

    def to_json(self):
        return {"kind": "permutation", "perm": self.perm.tolist()}

    @classmethod
    def from_json(cls, dim, obj):
        return cls(dim, np.asarray([_exact(j, "perm") for j in obj["perm"]], dtype=int))


LAYER_KINDS = {
    "coupling": CouplingLayer,
    "autoregressive": AutoregressiveLayer,
    "permutation": PermutationLayer,
}


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

    def parameters(self):
        return [p for layer in self.layers for p in layer.params()]

    def set_parameters(self, arrays):
        """Replace the arrays of `parameters`, in that order. Nothing is
        replaced unless the count and every shape match."""
        if [np.shape(p) for p in arrays] != [p.shape for p in self.parameters()]:
            raise ValueError("parameter arrays do not match this model's count and shapes")
        i = 0
        for layer in self.layers:
            n = len(layer.params())
            if n:
                layer.conditioner.set_param_arrays(arrays[i:i + n])
                i += n


def _as_batch(x, dim):
    """x as an (n, dim) float batch, and whether it was a single row."""
    arr = np.asarray(x, dtype=float)
    batch = arr.reshape(1, -1) if arr.ndim == 1 else arr
    if batch.ndim != 2 or batch.shape[1] != dim:
        raise ValueError(f"expected rows of width {dim}, got an input of shape {arr.shape}")
    return batch, arr.ndim == 1


def _unbatch(x, logdet, squeeze):
    if squeeze:
        return x.reshape(-1), None if logdet is None else logdet[0]
    return x, logdet


def _triples(theta):
    """Split conditioner output (n, 3k) into C-contiguous a, b, c of shape (n, k).

    Each slot is copied out of its strided view once, because every RK4
    stage, every refinement residual and the adjoint read a, b and c again;
    on strided operands each of those elementwise passes is slower.
    """
    return tuple(np.ascontiguousarray(theta[:, j::3]) for j in range(3))


def _interleave(abc):
    """Inverse of `_triples`: (a, b, c) of shape (n, k) into one (n, 3k) array."""
    a = abc[0]
    theta = np.empty((a.shape[0], 3 * a.shape[1]))
    for j, p in enumerate(abc):
        theta[:, j::3] = p
    return theta


def _solve(layer, a, b, c, x, cfg, divergence="raise", want_log_deriv=True,
           keep_trajectory=False):
    """Solve every lane of x under the layer's family with parameters a, b, c.

    The slope is `scalarmap.family_slope` of the family's value function,
    with dg/dv only when the log-derivative is wanted. Returns ``(v_end,
    logdet, slab)``: logdet sums each row's log-derivatives (None unless
    `want_log_deriv`), and slab is the solve's trajectory for
    `scalarmap._adjoint` (None unless `keep_trajectory`); each step's end is
    written straight into it, so the solve allocates nothing per step.
    """
    slope = family_slope(family_functions(layer.family)[0], a, b, c, want_log_deriv)
    y, l, slab = integrate(slope, None, x, cfg, want_log_deriv=want_log_deriv,
                           divergence=divergence, keep_trajectory=keep_trajectory)
    return y, None if l is None else np.sum(l, axis=1), slab


def _invert_block(layer, a, b, c, yt, refine, divergence, want_log_deriv, keep_trajectory):
    """`_solve` in reverse time for a block of coordinates, the layer's inverse.

    Given a `refine` config, the (n, k) block goes through one `refine_lanes`
    call as it is, whose residual is the layer's own forward solve of the
    lanes it is asked for, and the log-determinant is taken at the refined
    preimage. A row with a lane that does not converge raises.
    """
    xt, logdet, slab = _solve(layer, a, b, c, yt, layer.solver.reversed(), divergence,
                              want_log_deriv, keep_trajectory)
    if refine is None:
        return xt, logdet, slab

    def q(x, lanes):
        return _solve(layer, a[lanes], b[lanes], c[lanes], x, layer.solver,
                      divergence="nan", want_log_deriv=False)[0]

    res = refine_lanes(q, yt, xt, refine)
    rows = np.flatnonzero(~res.converged.all(axis=1)).tolist()
    if rows:
        raise DivergenceError(f"inverse refinement did not converge (rows {rows})",
                              indices=rows)
    if want_log_deriv:  # 0 - sum, so that a zero sum gives +0.0, as summing -l does
        logdet = 0.0 - _solve(layer, a, b, c, res.x, layer.solver)[1]
    return res.x, logdet, slab


def layer_forward(layer, x):
    """Apply one layer. Returns (y, logdet) with logdet summed over
    transformed coordinates, shape (n,) for batched input."""
    xb, squeeze = _as_batch(x, layer.dim)
    return _unbatch(*layer.forward(xb, "raise", True), squeeze)


def layer_inverse(layer, y, refine=None):
    """Invert one layer. Returns (x, logdet_rev) where logdet_rev is the
    log-derivative integral accumulated along the reverse trajectory (the
    log-determinant of the inverse map, i.e. minus the forward one).

    `refine` (a RefineConfig) optionally polishes each transformed
    coordinate by root refinement.
    """
    yb, squeeze = _as_batch(y, layer.dim)
    return _unbatch(*layer.inverse(yb, refine, "raise", True), squeeze)


def _through_layers(model, x, divergence, want_log_deriv, *, inverse=False, refine=None):
    """The one layer loop: x through every layer's forward in list order, or
    through every layer's inverse in reverse order. Returns x and the summed
    log-determinants (None without `want_log_deriv` or without layers); a
    `DivergenceError` is re-raised naming the layer.

    The rows go through in blocks of `LANES` // w rows, w the widest solve
    on the path, in row order: each block is the call on its rows alone,
    written into one output array. The first block that raises ends the
    call, its error naming global rows. An input of at most one block is one
    call on x as it is."""
    n = len(x)
    w = max((layer.width(inverse) for layer in model.layers), default=0)
    rows = max(1, LANES // w) if w else n
    if n <= rows:
        return _each_layer(model, x, divergence, want_log_deriv, inverse, refine)
    out = np.empty(x.shape)
    total = np.empty(n) if want_log_deriv else None
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        try:
            out[block], ld = _each_layer(model, x[block], divergence, want_log_deriv,
                                         inverse, refine)
        except DivergenceError as err:
            if not start:
                raise
            raise _shifted(err, start) from err
        if want_log_deriv:
            total[block] = ld
    return out, total


def _shifted(err, start):
    """`err`, raised on the block of rows from `start` on, naming global rows:
    `start` is added to its indices and to the row list that ends its message."""
    rows = [r + start for r in err.indices]
    head, _, tail = str(err).rpartition(str(err.indices))
    return DivergenceError(head + str(rows) + tail, indices=rows)


def _each_layer(model, x, divergence, want_log_deriv, inverse, refine, records=None):
    """`_through_layers` on one block of rows. On the inverse path a `records`
    list receives one `autodiff.Node` per layer, in the order the layers ran,
    for `autodiff.backward`: training takes its batch as one block."""
    order = range(len(model.layers))
    total = None
    for i in reversed(order) if inverse else order:
        layer = model.layers[i]
        cache = None
        if records is not None:
            records.append(Node(layer))
            cache = records[-1].cache
        try:
            if inverse:
                x, ld = layer.inverse(x, refine, divergence, want_log_deriv, cache)
            else:
                x, ld = layer.forward(x, divergence, want_log_deriv)
        except DivergenceError as err:
            raise DivergenceError(f"layer {i}: {err}", indices=err.indices) from err
        if want_log_deriv:
            total = ld if total is None else total + ld
    return x, total


def model_forward(model: FlowModel, x):
    """Push x through all layers; returns (y, total_logdet).

    A row whose trajectory leaves the guard box raises `DivergenceError`
    naming its layer and rows. Wide inputs run in row blocks, in row order
    (see `_through_layers`), so the first block with such a row raises.
    """
    xb, squeeze = _as_batch(x, model.dim)
    y, total = _through_layers(model, xb, "raise", True)
    if total is None:
        total = np.zeros(y.shape[0])
    return _unbatch(y, total, squeeze)


def model_inverse(model: FlowModel, y, refine=None):
    """Pull y back through all layer inverses; returns x only.

    A row whose trajectory leaves the guard box, or whose refinement does
    not converge, raises `DivergenceError` naming its layer and rows. Wide
    inputs run in row blocks, in row order (see `_through_layers`), so the
    first block with such a row raises.
    """
    yb, squeeze = _as_batch(y, model.dim)
    x, _ = _through_layers(model, yb, "raise", False, inverse=True, refine=refine)
    return x.reshape(-1) if squeeze else x


def log_density(model: FlowModel, y, params=None, *, divergence="raise"):
    """Exact model log-density at y (nats).

    Evaluates along the inverse path: base log-density of the pulled-back
    point plus the per-layer reverse-direction log-derivative integrals.
    Given `params` (arrays in `model.parameters()` order), it evaluates a
    copy of the model set to them; the model passed in is left as it is.

    A point whose reverse trajectory leaves the guard box lies outside the
    model's image and has density zero; this raises by default, while
    divergence='-inf' records -inf for those entries, which is what density
    tabulation over a grid wants. Wide inputs run in row blocks, in row
    order (see `_through_layers`): in 'raise' mode the first block with a
    row outside the box raises, naming its layer and rows; once every block
    has passed, a non-finite log-density raises, naming every such row.
    """
    if divergence not in ("raise", "-inf"):
        raise ValueError("divergence must be 'raise' or '-inf'")
    if params is not None:
        model = copy.deepcopy(model)
        model.set_parameters(params)
    yb, squeeze = _as_batch(y, model.dim)
    mode = "raise" if divergence == "raise" else "nan"
    out = _log_density(*_through_layers(model, yb, mode, True, inverse=True), divergence)
    return out[0] if squeeze else out


def _log_density(x, total, divergence):
    """Base log-density of x, where the inverse path took the rows, plus the layers'
    summed log-dets `total` (or None); a non-finite row raises, or is -inf."""
    base = _base_log_density(x)
    out = base if total is None else base + total
    if not np.all(np.isfinite(out)):
        if divergence == "raise":
            bad = np.flatnonzero(~np.isfinite(out)).tolist()
            raise DivergenceError(f"non-finite log-density for rows {bad}", indices=bad)
        out = np.where(np.isnan(out), -np.inf, out)
    return out


def sample(model: FlowModel, n: int, seed: int = 0, *, divergence="raise"):
    """Draw n base-normal vectors (seeded) and push them forward.

    Quadratic/cubic dynamics are only locally Lipschitz, so a trained map
    may be undefined for extreme base draws. With divergence='drop' such
    lanes are removed (the returned sample may be shorter than n) instead
    of raising; with divergence='nan' their rows come back as NaN. The n
    draws go through in row blocks, in row order (see `_through_layers`), so
    in 'raise' mode the first block with a divergent row raises, naming its
    layer and rows.
    """
    if divergence not in ("raise", "nan", "drop"):
        raise ValueError("divergence must be 'raise', 'nan' or 'drop'")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, model.dim))
    mode = "nan" if divergence == "drop" else divergence
    y, _ = _through_layers(model, x, mode, False)
    if divergence == "drop":
        y = y[np.all(np.isfinite(y), axis=1)]
    return y


def randomize_parameters(model: FlowModel, seed=0, scale=0.4):
    """Overwrite all conditioner parameters with small random values.

    Freshly built flows are exactly the identity map up to their
    permutations (zero output layers); this gives a generic non-identity
    model for audits and tests. Weights are scaled by 1/sqrt(fan_in) and
    biases kept at half scale so the emitted integrand parameters stay
    moderate. Quadratic and cubic dynamics can still blow up for some
    base-normal inputs: at the default scale, sampling 8,192 rows from a
    four-layer quadratic coupling flow drops 1-27% of them as divergent,
    depending on the seeds, so pass divergence="drop" or a smaller scale.
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
               hidden_dims=(16,), solver=None, seed=0) -> FlowModel:
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
        if i > 0:
            layers.append(PermutationLayer(dim, rng.permutation(dim)))
        if kind == "coupling":
            d = dim // 2
            upper = i % 2 == 0
            n_pass = d if upper else dim - d
            n_trans = dim - n_pass
            net = init_net([n_pass, *hidden_dims, 3 * n_trans], seed=rng)
            layers.append(CouplingLayer(dim, d, upper, family, net, solver))
        else:
            masks = build_masks(dim, list(hidden_dims))
            net = init_net([dim, *hidden_dims, 3 * dim], seed=rng, masks=masks)
            layers.append(AutoregressiveLayer(dim, family, net, solver))
    return FlowModel(dim, layers)


# --- checkpoints -----------------------------------------------------------

CHECKPOINT_FORMAT = "timeflow-checkpoint"
CHECKPOINT_VERSION = 1


def _solver_to_json(cfg: SolverConfig):
    return {"scheme": cfg.scheme, "steps": cfg.steps}


def _exact(value, key, kind=int):
    """`value`, read from checkpoint key `key`, if its type is exactly `kind`:
    a JSON bool is not an integer, and 16.9 or "false" is converted to neither."""
    if type(value) is not kind:
        raise ValueError(f"{key!r} must be a JSON {kind.__name__}, not {value!r}")
    return value


def _solver_from_json(obj):
    return SolverConfig(scheme=obj["scheme"], steps=_exact(obj["steps"], "steps"))


def _net_to_json(net: ConditionerNet):
    return {
        "layer_dims": list(net.layer_dims),
        "activation": "tanh",
        "weights": [w.ravel().tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def _net_from_json(obj, masks=None):
    if obj["activation"] != "tanh":
        raise ValueError(f"unsupported conditioner activation {obj['activation']!r}")
    dims = [_exact(d, "layer_dims") for d in obj["layer_dims"]]
    weights = [
        np.asarray(flat, dtype=float).reshape(dims[i], dims[i + 1])
        for i, flat in enumerate(obj["weights"])
    ]
    biases = [np.asarray(b, dtype=float) for b in obj["biases"]]
    return ConditionerNet(dims, weights, biases, masks)


def save_checkpoint(model: FlowModel, path):
    """Write the model as self-describing JSON.

    Python's repr-based float serialization is shortest-round-trip, so
    every parameter survives save/load bit for bit.
    """
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "dim": model.dim,
        "layers": [layer.to_json() for layer in model.layers],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_checkpoint(path) -> FlowModel:
    """Read a model that `save_checkpoint` wrote. A file that is not JSON, a missing
    key or a value of the wrong type raises ValueError naming the file and the key."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as err:  # not JSON, or not UTF-8 text
            raise ValueError(f"{path}: not a JSON file: {err}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: {CHECKPOINT_FORMAT} version {doc.get('version')!r}"
                         f" is not supported (this reader reads version {CHECKPOINT_VERSION})")
    key, where = "dim", ""
    try:
        dim = _exact(doc["dim"], "dim")
        key, layers = "layers", []
        for i, obj in enumerate(doc["layers"]):
            where = f" (layer {i})"
            cls = LAYER_KINDS.get(obj["kind"])
            if cls is None:
                raise ValueError(f"unknown layer kind {obj['kind']!r}")
            layers.append(cls.from_json(dim, obj))
    except KeyError as err:
        raise ValueError(f"{path}: missing key {err.args[0]!r}{where}") from None
    except (TypeError, ValueError, IndexError) as err:
        raise ValueError(f"{path}: bad {key!r}{where}: {err}") from None
    return FlowModel(dim, layers)
