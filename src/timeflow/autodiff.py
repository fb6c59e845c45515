"""Minimal reverse-mode automatic differentiation on numpy arrays.

A ``Node`` wraps an ndarray value together with the operation that produced
it. Building an expression out of Nodes records the computation graph;
``backward`` replays it in reverse topological order and accumulates exact
gradients of the recorded (already discretized) computation.

The module-level helpers (``exp``, ``tanh``, ``matmul``, ...) dispatch on
type: given plain arrays they call numpy directly, given Nodes they extend
the graph. Numeric code written against these helpers therefore runs in a
fast gradient-free mode and in a taped mode from a single implementation.

Nodes are write-once apart from the ``grad`` slot; a fresh graph is built
per differentiated call, so there is no shared mutable state across calls.
"""

from __future__ import annotations

import numpy as np

# exp(x) is finite exactly for x <= log of the largest double
_EXP_MAX = float(np.log(np.finfo(float).max))


def _logistic(x):
    """1 / (1 + exp(-x)), finite for every input and free of overflow warnings.

    Where exp(-x) would overflow the result rounds to 0 anyway, so the
    exponent is clipped there and the numerator zeroed; everywhere else this
    is the textbook formula, bit for bit. NaN stays NaN.
    """
    x = np.asarray(x, dtype=float)
    return (x >= -_EXP_MAX) / (1.0 + np.exp(np.minimum(-x, _EXP_MAX)))


def _unbroadcast(grad, shape):
    """Sum `grad` over broadcast axes so it matches `shape`."""
    grad = np.asarray(grad)
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Node:
    """One value in the recorded computation graph."""

    __slots__ = ("value", "parents", "_vjp", "grad")

    # make `ndarray <op> Node` defer to our reflected operators
    __array_ufunc__ = None
    __array_priority__ = 1000

    def __init__(self, value, parents=(), vjp=None):
        self.value = np.asarray(value, dtype=float)
        self.parents = parents
        self._vjp = vjp
        self.grad = None

    @property
    def shape(self):
        return self.value.shape

    @property
    def ndim(self):
        return self.value.ndim

    def __repr__(self):
        return f"Node(value={self.value!r})"

    # --- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Node):
            return Node(
                self.value + other.value,
                (self, other),
                lambda g: (_unbroadcast(g, self.shape), _unbroadcast(g, other.shape)),
            )
        other = np.asarray(other, dtype=float)
        return Node(self.value + other, (self,), lambda g: (_unbroadcast(g, self.shape),))

    __radd__ = __add__

    def __neg__(self):
        return Node(-self.value, (self,), lambda g: (-g,))

    def __sub__(self, other):
        if isinstance(other, Node):
            return Node(
                self.value - other.value,
                (self, other),
                lambda g: (_unbroadcast(g, self.shape), _unbroadcast(-g, other.shape)),
            )
        other = np.asarray(other, dtype=float)
        return Node(self.value - other, (self,), lambda g: (_unbroadcast(g, self.shape),))

    def __rsub__(self, other):
        other = np.asarray(other, dtype=float)
        return Node(other - self.value, (self,), lambda g: (_unbroadcast(-g, self.shape),))

    def __mul__(self, other):
        if isinstance(other, Node):
            return Node(
                self.value * other.value,
                (self, other),
                lambda g: (
                    _unbroadcast(g * other.value, self.shape),
                    _unbroadcast(g * self.value, other.shape),
                ),
            )
        other = np.asarray(other, dtype=float)
        return Node(self.value * other, (self,), lambda g: (_unbroadcast(g * other, self.shape),))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Node):
            return Node(
                self.value / other.value,
                (self, other),
                lambda g: (
                    _unbroadcast(g / other.value, self.shape),
                    _unbroadcast(-g * self.value / other.value**2, other.shape),
                ),
            )
        other = np.asarray(other, dtype=float)
        return Node(self.value / other, (self,), lambda g: (_unbroadcast(g / other, self.shape),))

    def __rtruediv__(self, other):
        other = np.asarray(other, dtype=float)
        return Node(
            other / self.value,
            (self,),
            lambda g: (_unbroadcast(-g * other / self.value**2, self.shape),),
        )

    def __pow__(self, exponent):
        if isinstance(exponent, Node):
            raise TypeError("only constant exponents are supported")
        return Node(
            self.value**exponent,
            (self,),
            lambda g: (g * exponent * self.value ** (exponent - 1),),
        )

    def __matmul__(self, other):
        a = self.value
        b = other.value if isinstance(other, Node) else np.asarray(other, dtype=float)
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("matmul nodes must be 2-D")
        if isinstance(other, Node):
            return Node(a @ b, (self, other), lambda g: (g @ b.T, a.T @ g))
        return Node(a @ b, (self,), lambda g: (g @ b.T,))

    def __rmatmul__(self, other):
        a = np.asarray(other, dtype=float)
        b = self.value
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("matmul nodes must be 2-D")
        return Node(a @ b, (self,), lambda g: (a.T @ g,))

    def __getitem__(self, index):
        def vjp(g):
            out = np.zeros_like(self.value)
            if _index_has_array(index):
                np.add.at(out, index, g)
            else:
                out[index] += g
            return (out,)

        return Node(self.value[index], (self,), vjp)

    # --- elementwise functions ------------------------------------------

    def exp(self):
        out = np.exp(self.value)
        return Node(out, (self,), lambda g: (g * out,))

    def log(self):
        return Node(np.log(self.value), (self,), lambda g: (g / self.value,))

    def sqrt(self):
        out = np.sqrt(self.value)
        return Node(out, (self,), lambda g: (g / (2.0 * out),))

    def tanh(self):
        out = np.tanh(self.value)
        return Node(out, (self,), lambda g: (g * (1.0 - out * out),))

    def sigmoid(self):
        out = _logistic(self.value)
        return Node(out, (self,), lambda g: (g * out * (1.0 - out),))

    def relu(self):
        out = np.maximum(self.value, 0.0)
        return Node(out, (self,), lambda g: (g * (self.value > 0.0),))

    def sum(self, axis=None, keepdims=False):
        def vjp(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.shape).copy(),)

        return Node(self.value.sum(axis=axis, keepdims=keepdims), (self,), vjp)

    def mean(self, axis=None, keepdims=False):
        n = self.value.size if axis is None else self.value.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / n

    def reshape(self, *shape):
        old = self.shape
        return Node(self.value.reshape(*shape), (self,), lambda g: (np.reshape(g, old),))


def _index_has_array(index):
    if isinstance(index, tuple):
        return any(isinstance(i, np.ndarray) for i in index)
    return isinstance(index, np.ndarray)


def as_node(x):
    """Wrap `x` as a leaf Node (no-op if it already is one)."""
    return x if isinstance(x, Node) else Node(x)


def value_of(x):
    """Raw ndarray behind `x`, whether Node or array."""
    return x.value if isinstance(x, Node) else np.asarray(x, dtype=float)


# --- dispatch helpers: plain numpy in, numpy out; Node in, Node out ------


def exp(x):
    return x.exp() if isinstance(x, Node) else np.exp(x)


def log(x):
    return x.log() if isinstance(x, Node) else np.log(x)


def sqrt(x):
    return x.sqrt() if isinstance(x, Node) else np.sqrt(x)


def tanh(x):
    return x.tanh() if isinstance(x, Node) else np.tanh(x)


def sigmoid(x):
    return x.sigmoid() if isinstance(x, Node) else _logistic(x)


def relu(x):
    return x.relu() if isinstance(x, Node) else np.maximum(x, 0.0)


def sum_(x, axis=None, keepdims=False):
    if isinstance(x, Node):
        return x.sum(axis=axis, keepdims=keepdims)
    return np.sum(x, axis=axis, keepdims=keepdims)


def mean_(x, axis=None, keepdims=False):
    if isinstance(x, Node):
        return x.mean(axis=axis, keepdims=keepdims)
    return np.mean(x, axis=axis, keepdims=keepdims)


def matmul(a, b):
    if isinstance(a, Node) or isinstance(b, Node):
        return as_node(a) @ b
    return np.asarray(a) @ np.asarray(b)


def concat(parts, axis=0):
    if any(isinstance(p, Node) for p in parts):
        parts = [as_node(p) for p in parts]
        values = [p.value for p in parts]
        sizes = [v.shape[axis] for v in values]
        offsets = np.cumsum([0] + sizes)

        def vjp(g):
            grads = []
            for k in range(len(parts)):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offsets[k], offsets[k + 1])
                grads.append(np.ascontiguousarray(g[tuple(sl)]))
            return tuple(grads)

        return Node(np.concatenate(values, axis=axis), tuple(parts), vjp)
    return np.concatenate(parts, axis=axis)


# --- backward pass --------------------------------------------------------


def _toposort(roots):
    order = []
    visited = set()
    stack = [(r, False) for r in roots]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order  # parents appear before children


def backward(seeds):
    """Accumulate gradients into ``node.grad`` for all ancestors of the seeds.

    `seeds` is a Node (seeded with ones) or a list of ``(node, cotangent)``
    pairs, which allows contracting several outputs at once.
    """
    if isinstance(seeds, Node):
        seeds = [(seeds, np.ones_like(seeds.value))]
    order = _toposort([node for node, _ in seeds])
    for node in order:
        node.grad = None
    for node, cot in seeds:
        cot = np.broadcast_to(np.asarray(cot, dtype=float), node.shape)
        node.grad = cot.copy() if node.grad is None else node.grad + cot
    for node in reversed(order):
        if node.grad is None or node._vjp is None:
            continue
        for parent, g in zip(node.parents, node._vjp(node.grad)):
            if g is None:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g


def grad_or_zeros(node):
    """Gradient of a leaf after ``backward``, zeros if it was never reached."""
    return np.zeros_like(node.value) if node.grad is None else node.grad
