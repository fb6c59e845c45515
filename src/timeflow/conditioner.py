"""Feed-forward conditioner networks mapping inputs to integrand parameters.

A conditioner takes the coordinates a flow layer conditions on and emits
one (a, b, c) triple per transformed coordinate, laid out as consecutive
triples in the output vector. Plain networks serve coupling layers; masked
networks enforce the autoregressive property, where the triple for
coordinate k may only read coordinates of strictly lower order.

Evaluation is a pure function of (network, input): it always reads the
network's own arrays, which are only ever replaced wholesale by the
training loop, never mutated during evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["ConditionerNet", "init_net", "net_eval", "net_backward", "net_vjp", "build_masks"]


@dataclass
class ConditionerNet:
    """Dense MLP with tanh hidden layers; weights are (fan_in, fan_out),
    final layer is linear.

    `masks`, when present, are multiplied into the weights at every
    evaluation, so masked connections stay dead regardless of training.
    """

    layer_dims: list
    weights: list
    biases: list
    masks: Optional[list] = None

    def __post_init__(self):
        dims = self.layer_dims
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ValueError("weights/biases do not match layer_dims")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
                raise ValueError(f"layer {i} parameter shapes do not match layer_dims")
        if self.masks is not None:
            for i, m in enumerate(self.masks):
                if m.shape != self.weights[i].shape:
                    raise ValueError(f"mask {i} shape does not match its weight matrix")

    @property
    def in_dim(self):
        return self.layer_dims[0]

    @property
    def out_dim(self):
        return self.layer_dims[-1]

    def param_arrays(self):
        """Parameters in the canonical order [W0, b0, W1, b1, ...]."""
        return [p for pair in zip(self.weights, self.biases) for p in pair]

    def set_param_arrays(self, arrays):
        """Replace the parameters, given in `param_arrays` order. Nothing is
        replaced unless the count and every shape match."""
        if [np.shape(p) for p in arrays] != [p.shape for p in self.param_arrays()]:
            raise ValueError("parameter arrays do not match this network's count and shapes")
        self.weights[:] = arrays[0::2]
        self.biases[:] = arrays[1::2]


def init_net(layer_dims, seed=0, masks=None) -> ConditionerNet:
    """Seeded initialization: uniform +-sqrt(6/(fan_in+fan_out)) hidden
    weights, zero biases, and an all-zero final layer so a freshly built
    flow layer starts as the identity map."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    weights, biases = [], []
    n_layers = len(layer_dims) - 1
    for i in range(n_layers):
        fan_in, fan_out = layer_dims[i], layer_dims[i + 1]
        if i == n_layers - 1:
            w = np.zeros((fan_in, fan_out))
        else:
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        weights.append(w)
        biases.append(np.zeros(fan_out))
    return ConditionerNet(list(layer_dims), weights, biases, masks)


def net_eval(net: ConditionerNet, x, *, acts=None):
    """Affine-then-tanh composition of the net's own weights and biases;
    the last layer stays linear.

    `x` is a vector or an (n, in_dim) batch. If `acts` is a list, the input
    of every affine layer is appended to it, which is what `net_backward`
    differentiates from.

    Each layer is computed in one fresh buffer: the product ``h @ w`` is
    allocated once, and the bias and the tanh are applied to it in
    place, so no (n, width) temporaries are made and freed per layer. The
    buffer is not reused across layers, because `acts` keeps every layer's
    input alive for the backward pass.
    """
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    h = np.atleast_2d(x)
    if h.shape[1] != net.in_dim:
        raise ValueError(
            f"input width {h.shape[1]} does not match conditioner input dim {net.in_dim}"
        )
    n_layers = len(net.weights)
    for i in range(n_layers):
        w, b = net.weights[i], net.biases[i]
        if net.masks is not None:
            w = w * net.masks[i]
        if acts is not None:
            acts.append(h)
        h = h @ w
        h += b
        if i < n_layers - 1:
            np.tanh(h, out=h)
    return h.reshape(-1) if squeeze else h


def net_backward(net: ConditionerNet, acts, cotangent):
    """Reverse pass of a batched `net_eval` from the `acts` it collected.

    Returns ``(dinput, dparams)`` for an (n, out_dim) output cotangent,
    with dparams ordered like `param_arrays`; gradients of masked-out
    weights are exactly zero.
    """
    g = cotangent
    grads = [None] * (2 * len(net.weights))
    for i in range(len(net.weights) - 1, -1, -1):
        if i < len(net.weights) - 1:  # through the tanh; acts[i + 1] is its output
            g = g * (1.0 - acts[i + 1] * acts[i + 1])
        w = net.weights[i]
        dw = acts[i].T @ g
        if net.masks is not None:
            w, dw = w * net.masks[i], dw * net.masks[i]
        grads[2 * i], grads[2 * i + 1] = dw, g.sum(axis=0)
        g = g @ w.T
    return g, grads


def net_input_vjp(net: ConditionerNet, acts):
    """``vjp(g, cols)``: `net_backward`'s input cotangent, without its parameter
    sums, for a cotangent g of the output columns `cols` alone. The masked
    weights, transposed C-contiguous, and the tanh slopes are made once."""
    masks = net.masks or [1.0] * len(net.weights)
    weights = [np.ascontiguousarray((w * m).T) for w, m in zip(net.weights, masks)]
    slopes = [1.0 - out * out for out in acts[:0:-1]]  # last hidden layer first

    def vjp(g, cols):
        g = g @ weights[-1][cols]
        for w, slope in zip(weights[-2::-1], slopes):
            g = (g * slope) @ w
        return g

    return vjp


def net_vjp(net: ConditionerNet, x, cotangent):
    """Exact reverse-mode gradients of `net_eval` at `x`.

    Returns ``(dinput, dparams)`` with dparams ordered like
    `param_arrays`; gradients of masked-out weights are exactly zero.
    """
    x = np.asarray(x, dtype=float)
    acts = []
    net_eval(net, x, acts=acts)
    cot = np.asarray(cotangent, dtype=float).reshape(acts[0].shape[0], net.out_dim)
    dinput, dparams = net_backward(net, acts, cot)
    return dinput.reshape(x.shape), dparams


def build_masks(D: int, hidden_dims):
    """Connectivity masks making a [D, *hidden_dims, 3*D] net autoregressive
    in the coordinate order 0..D-1 (a flow reorders with permutation layers).

    Unit orders: input i carries order i + 1, hidden units cycle
    round-robin through 1..D-1, and the three outputs for coordinate i
    carry its input order. Hidden masks connect order(out) >= order(in);
    the output mask requires a strict inequality, so the triple for
    coordinate k reads only coordinates 0..k-1, and coordinate 0 reads
    nothing.
    """
    if D < 1:
        raise ValueError("D must be >= 1")
    in_order = np.arange(1, D + 1)
    span = max(D - 1, 1)
    orders = [in_order]
    for width in hidden_dims:
        orders.append(np.arange(width) % span + 1)
    out_order = np.repeat(in_order, 3)

    masks = []
    for a, b in zip(orders[:-1], orders[1:]):
        masks.append((b[None, :] >= a[:, None]).astype(float))
    masks.append((out_order[None, :] > orders[-1][:, None]).astype(float))
    return masks
