"""The reverse walk over a flow's layers.

Training runs the inverse path once, value-only, with one `Node` per layer,
in the order the layers ran. Each record holds the layer and the cache its
`inverse` filled: conditioner activations and the trajectory slab of each
solve (v at every step's start and v(1)); the layer's parameters are the
arrays it holds. `backward` walks the records in reverse through each
layer's hand-written `vjp`, which chains the conditioner's backward pass and
the discrete adjoint of each solve (`scalarmap._adjoint`, which rebuilds the
stage points from the slab), and sums the log-dets that the adjoints return.

Records are write-once; a fresh list is built per differentiated call.
Each adjoint allocates its own workspace and frees it when it returns, so
there is no shared state across solves or calls.
"""

from __future__ import annotations

import numpy as np


class Node:
    """One layer's record on the inverse path."""

    __slots__ = ("layer", "cache")

    def __init__(self, layer):
        self.layer = layer
        self.cache = []


def value_of(x):
    """`x` as a float ndarray. perfbench/tracing.py counts solver lanes through it."""
    return np.asarray(x, dtype=float)


def backward(records, x_bar, l_bar):
    """Cotangents of the inputs and parameters of the recorded layers.

    `x_bar` is the cotangent of the last recorded layer's output and
    `l_bar`, shape (n,), that of every layer's log-determinant. Returns
    the cotangent of the first layer's input, the parameter gradients in
    reverse record order (model order for the inverse path) and the layers'
    summed log-dets (None without records).
    """
    grads, logdets = [], []
    for rec in reversed(records):
        x_bar, g, logdet = rec.layer.vjp(rec.cache, x_bar, l_bar)
        grads.extend(g)
        logdets.insert(0, logdet)  # summed in the order the layers ran, as the forward does
    return x_bar, grads, sum(logdets[1:], logdets[0]) if logdets else None
