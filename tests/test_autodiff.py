"""The tape engine against finite differences and hand gradients."""

import warnings

import numpy as np
import pytest

from timeflow.autodiff import (
    Node,
    backward,
    concat,
    grad_or_zeros,
    matmul,
    mean_,
    sigmoid,
    sum_,
    tanh,
)


def numeric_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        keep = x[idx]
        x[idx] = keep + h
        up = f(x)
        x[idx] = keep - h
        dn = f(x)
        x[idx] = keep
        g[idx] = (up - dn) / (2 * h)
    return g


def test_scalar_chain():
    x = Node(np.array(2.0))
    y = (x * x + 3.0 * x - 1.0).exp()
    backward(y)
    # d/dx exp(x^2 + 3x - 1) = (2x + 3) exp(...)
    expected = (2 * 2.0 + 3.0) * np.exp(2.0**2 + 3 * 2.0 - 1.0)
    assert np.allclose(x.grad, expected, rtol=1e-12)


def test_broadcasting_unbroadcast():
    a = Node(np.ones((3, 1)))
    b = Node(np.arange(4.0))
    out = (a * b).sum()
    backward(out)
    assert a.grad.shape == (3, 1)
    assert np.allclose(a.grad, np.full((3, 1), 6.0))
    assert b.grad.shape == (4,)
    assert np.allclose(b.grad, np.full(4, 3.0))


def test_elementwise_ops_match_fd(rng):
    x0 = rng.standard_normal((2, 3)) * 0.7

    def run(fn):
        x = Node(x0.copy())
        out = fn(x).sum()
        backward(out)
        fd = numeric_grad(lambda v: float(np.sum(_np_fn(fn, v))), x0.copy())
        assert np.allclose(x.grad, fd, rtol=1e-6, atol=1e-8), fn

    def _np_fn(fn, v):
        return fn(Node(v)).value

    run(lambda x: x.exp())
    run(lambda x: (x + 2.0).log())
    run(lambda x: x.tanh())
    run(lambda x: x.sigmoid())
    run(lambda x: x.relu())
    run(lambda x: x * x * 0.5 + x / 3.0 - 1.5 * x)
    run(lambda x: (x**3))
    run(lambda x: (2.0 - x))
    run(lambda x: (1.0 / (x + 4.0)))
    run(lambda x: x.sqrt() if np.all(x.value > 0) else x * 0 + (x * x).sqrt())


def test_matmul_gradients(rng):
    a0 = rng.standard_normal((4, 3))
    b0 = rng.standard_normal((3, 2))
    cot = rng.standard_normal((4, 2))
    a, b = Node(a0.copy()), Node(b0.copy())
    out = a @ b
    backward([(out, cot)])
    assert np.allclose(a.grad, cot @ b0.T)
    assert np.allclose(b.grad, a0.T @ cot)


def test_getitem_and_concat(rng):
    x0 = rng.standard_normal((3, 6))
    x = Node(x0.copy())
    left = x[:, :2]
    mid = x[:, 2:4]
    right = x[:, 4:]
    out = concat([right, left, mid], axis=1)
    cot = rng.standard_normal((3, 6))
    backward([(out, cot)])
    expected = np.concatenate([cot[:, 2:4], cot[:, 4:], cot[:, :2]], axis=1)
    assert np.allclose(x.grad, expected)


def test_strided_and_fancy_indexing(rng):
    x0 = rng.standard_normal((4, 9))
    x = Node(x0.copy())
    out = x[:, 0::3] * 2.0
    backward([(out, np.ones((4, 3)))])
    expected = np.zeros((4, 9))
    expected[:, 0::3] = 2.0
    assert np.allclose(x.grad, expected)

    perm = np.array([2, 0, 1])
    y = Node(x0[:, :3].copy())
    out2 = y[:, perm].sum(axis=0)
    backward([(out2, np.array([1.0, 2.0, 3.0]))])
    expected2 = np.zeros((4, 3))
    expected2[:, 2] = 1.0
    expected2[:, 0] = 2.0
    expected2[:, 1] = 3.0
    assert np.allclose(y.grad, expected2)


def test_multiple_seeds_accumulate():
    x = Node(np.array([1.0, 2.0]))
    y1 = x * 3.0
    y2 = x * x
    backward([(y1, np.ones(2)), (y2, np.ones(2))])
    assert np.allclose(x.grad, 3.0 + 2.0 * x.value)


def test_sum_mean_axes(rng):
    x0 = rng.standard_normal((5, 4))
    x = Node(x0.copy())
    out = mean_(sum_(x, axis=1))
    backward(out)
    assert np.allclose(x.grad, np.full((5, 4), 1.0 / 5.0))


def test_numpy_array_left_operand_defers():
    x = Node(np.array([1.0, 2.0]))
    arr = np.array([3.0, 4.0])
    out = arr * x  # ndarray.__mul__ must defer to Node.__rmul__
    assert isinstance(out, Node)
    backward(out)
    assert np.allclose(x.grad, arr)


def test_dispatch_helpers_plain_arrays():
    x = np.array([0.3, -0.2])
    assert np.allclose(tanh(x), np.tanh(x))
    assert np.allclose(sigmoid(x), 1 / (1 + np.exp(-x)))
    assert np.allclose(matmul(np.eye(2), x.reshape(2, 1)).ravel(), x)
    assert grad_or_zeros(Node(x)).shape == (2,)


def test_sigmoid_matches_expit_without_warnings():
    expit = pytest.importorskip("scipy.special").expit
    x = np.linspace(-800.0, 800.0, 100001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigmoid(x)
        ends = sigmoid(np.array([-np.inf, np.inf]))
        taped = sigmoid(Node(x)).value
    want = expit(x)
    ulps = np.abs(got - want) / np.spacing(np.maximum(np.abs(got), np.abs(want)))
    assert ulps.max() <= 4
    assert ends[0] == 0.0 and ends[1] == 1.0
    assert np.array_equal(taped, got)
