"""Conditioner networks: evaluation, gradients, autoregressive masks."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from timeflow import ConditionerNet, build_masks, init_net, net_eval, net_vjp


def test_zero_network_outputs_final_bias():
    net = init_net([2, 4, 3], seed=0)
    net.biases[-1] = np.array([0.5, -1.0, 2.0])
    out = net_eval(net, np.array([3.0, -7.0]))
    assert np.allclose(out, [0.5, -1.0, 2.0])


def test_single_linear_layer_hand_arithmetic():
    net = ConditionerNet([2, 1], [np.array([[1.0], [2.0]])], [np.zeros(1)])
    assert net_eval(net, np.array([3.0, 4.0]))[0] == 11.0


def test_batched_eval_matches_single(rng):
    net = init_net([3, 5, 6], seed=1)
    for w in net.weights:
        w += 0.3 * rng.standard_normal(w.shape)
    xs = rng.standard_normal((4, 3))
    batch = net_eval(net, xs)
    for i in range(4):
        assert np.allclose(batch[i], net_eval(net, xs[i]))


def test_dimension_mismatch_rejected():
    net = init_net([3, 4, 6], seed=0)
    with pytest.raises(ValueError):
        net_eval(net, np.zeros(2))


def _random_net(rng, masked):
    """A [3, 5, 4, 9] net, masked autoregressive or plain, with nonzero parameters."""
    masks = build_masks(3, [5, 4]) if masked else None
    net = init_net([3, 5, 4, 9], seed=rng, masks=masks)
    for p in net.param_arrays():
        p += 0.5 * rng.standard_normal(p.shape)
    return net


def _reference_layer_inputs(net, x, activation=np.tanh):
    """Every affine layer's input and the output, as activation(h @ (W*M) + b)."""
    h = np.atleast_2d(x)
    inputs = []
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(h)
        if net.masks is not None:
            w = w * net.masks[i]
        h = h @ w + b
        if i < len(net.weights) - 1:
            h = activation(h)
    return inputs, h


@pytest.mark.parametrize("activation", [np.tanh], ids=["tanh"])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("shape", [(3,), (7, 3)])
def test_eval_matches_reference_chain_bitwise(rng, activation, masked, shape):
    net = _random_net(rng, masked)
    x = rng.standard_normal(shape)
    x_before = x.copy()
    params_before = [p.copy() for p in net.param_arrays()]
    acts = []
    out = net_eval(net, x, acts=acts)
    inputs, want = _reference_layer_inputs(net, x, activation)
    assert out.tobytes() == want.reshape(out.shape).tobytes()
    assert len(acts) == len(inputs)
    assert all(a.tobytes() == r.tobytes() for a, r in zip(acts, inputs))
    # evaluation is pure: neither the input nor the parameters change
    assert x.tobytes() == x_before.tobytes()
    assert all(p.tobytes() == q.tobytes() for p, q in zip(net.param_arrays(), params_before))


def test_acts_survive_a_second_eval(rng):
    net = _random_net(rng, False)
    x = rng.standard_normal((6, 3))
    acts = []
    out = net_eval(net, x, acts=acts)
    net_eval(net, rng.standard_normal((6, 3)), acts=[])
    inputs, want = _reference_layer_inputs(net, x)
    assert out.tobytes() == want.tobytes()
    assert all(a.tobytes() == r.tobytes() for a, r in zip(acts, inputs))


FAULT_PROBE = textwrap.dedent("""
    import resource
    import numpy as np
    from timeflow import init_net, net_eval

    net = init_net([1, 24, 3], seed=0)  # the fit-2d coupling conditioner
    rng = np.random.default_rng(0)
    net.weights[-1] = 0.1 * rng.standard_normal(net.weights[-1].shape)
    x = rng.standard_normal((8192, 1))
    for _ in range(3):
        net_eval(net, x)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(50):
        net_eval(net, x)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
""")


def test_wide_batch_eval_reuses_memory_pages():
    """8,192 rows give 1.5 MB activations. Allocating and freeing several
    of them per layer made malloc return the pages to the system and fault
    them in again, about 750 minor faults per call."""
    pytest.importorskip("resource")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 64


def test_vjp_zero_cotangent_gives_zero_gradients(rng):
    net = init_net([2, 4, 3], seed=2)
    dinput, dparams = net_vjp(net, rng.standard_normal(2), np.zeros(3))
    assert np.allclose(dinput, 0.0)
    assert all(np.allclose(g, 0.0) for g in dparams)


def test_vjp_linear_layer_adjoint():
    net = ConditionerNet([2, 3], [np.zeros((2, 3))], [np.zeros(3)])
    x = np.array([1.5, -0.5])
    dinput, dparams = net_vjp(net, x, np.array([1.0, 0.0, 0.0]))
    # cotangent e1 picks out output column 0: dW[:, 0] = input
    assert np.allclose(dparams[0][:, 0], x)
    assert np.allclose(dparams[0][:, 1:], 0.0)
    assert np.allclose(dparams[1], [1.0, 0.0, 0.0])
    assert np.allclose(dinput, 0.0)


def test_vjp_matches_finite_differences(rng):
    step = 1e-6
    for case in range(50):
        dims = [int(rng.integers(1, 4)), int(rng.integers(2, 7)), 3 * int(rng.integers(1, 3))]
        net = init_net(dims, seed=rng)
        for w in net.weights:
            w += 0.4 * rng.standard_normal(w.shape)
        for b in net.biases:
            b += 0.2 * rng.standard_normal(b.shape)
        x = rng.standard_normal(dims[0])
        cot = rng.standard_normal(dims[-1])
        dinput, dparams = net_vjp(net, x, cot)
        arrays = [x] + net.param_arrays()
        grads = [dinput] + dparams
        for arr, grad in zip(arrays, grads):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = arr[idx]
                arr[idx] = keep + step
                up = float(np.dot(cot, net_eval(net, x)))
                arr[idx] = keep - step
                dn = float(np.dot(cot, net_eval(net, x)))
                arr[idx] = keep
                fd = (up - dn) / (2 * step)
                assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_init_deterministic():
    a = init_net([3, 8, 6], seed=123)
    b = init_net([3, 8, 6], seed=123)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert np.allclose(a.weights[-1], 0.0)  # identity start


# --- masks -------------------------------------------------------------------


def test_masks_d1_output_disconnected():
    masks = build_masks(1, [4])
    assert np.all(masks[-1] == 0.0)


def test_masks_d2_block_two_reads_input_one_only():
    masks = build_masks(2, [6])
    net = init_net([2, 6, 6], seed=0, masks=masks)
    for w in net.weights:
        w += 0.5 * np.random.default_rng(1).standard_normal(w.shape)
    x = np.array([0.3, -0.8])
    base = net_eval(net, x)
    moved = net_eval(net, x + np.array([0.0, 10.0]))  # perturb input 2
    assert np.array_equal(base[:3], moved[:3])  # block 1 constant anyway
    assert np.array_equal(base[3:], moved[3:])  # block 2 must ignore input 2
    moved1 = net_eval(net, x + np.array([10.0, 0.0]))
    assert not np.allclose(base[3:], moved1[3:])  # but reads input 1


def test_masks_product_strictly_lower_triangular(rng):
    for _ in range(5):
        D = int(rng.integers(2, 7))
        hidden = [int(rng.integers(3, 12)) for _ in range(int(rng.integers(1, 3)))]
        masks = build_masks(D, hidden)
        product = masks[0]
        for m in masks[1:]:
            product = (product @ m > 0).astype(float)
        # connectivity from input i to output block k only if order k > order i
        for i in range(D):
            for k in range(D):
                block = product[i, 3 * k:3 * k + 3]
                if k <= i:
                    assert np.all(block == 0.0), (D, hidden, i, k)


def test_finite_difference_jacobian_honors_mask_zeros(rng):
    D = 4
    masks = build_masks(D, [8])
    net = init_net([D, 8, 3 * D], seed=3, masks=masks)
    for w in net.weights:
        w += 0.4 * rng.standard_normal(w.shape)
    x = rng.standard_normal(D)
    h = 1e-6
    for j in range(D):
        e = np.zeros(D)
        e[j] = h
        up = net_eval(net, x + e)
        dn = net_eval(net, x - e)
        diff = up - dn
        for k in range(D):
            if k <= j:  # output block k may not depend on inputs j >= k
                assert np.all(diff[3 * k:3 * k + 3] == 0.0)


def test_mask_gradients_exactly_zero(rng):
    D = 3
    masks = build_masks(D, [6])
    net = init_net([D, 6, 3 * D], seed=4, masks=masks)
    for w in net.weights:
        w += 0.4 * rng.standard_normal(w.shape)
    _, dparams = net_vjp(net, rng.standard_normal(D), rng.standard_normal(3 * D))
    for grad, mask in zip(dparams[0::2], masks):
        assert np.all(grad[mask == 0.0] == 0.0)


def test_build_masks_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_masks(0, [4])
