"""NLL objective, Adam, and the training loop."""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from timeflow import (
    AdamState,
    ConditionerNet,
    CouplingLayer,
    DivergenceError,
    FlowModel,
    SolverConfig,
    TrainConfig,
    adam_step,
    build_flow,
    nll,
    nll_and_grad,
    toy2d,
    train,
)
from timeflow.data import TWO_GAUSSIANS_CENTERS, TWO_GAUSSIANS_STD
from timeflow import autodiff
from timeflow.flow import randomize_parameters
from timeflow.training import _nll_or_inf, identity_nll

LOG_TWO_PI = math.log(2 * math.pi)
SOLVER = SolverConfig(steps=16)


def shift_layer(b, transform_upper=True):
    net = ConditionerNet([1, 3], [np.zeros((1, 3))], [np.array([0.0, b, 0.0])])
    return CouplingLayer(2, 1, transform_upper, "quadratic", net, SOLVER)


def test_identity_model_loss_at_origin():
    model = build_flow(2, n_layers=2, kind="coupling", hidden_dims=(4,), seed=0)
    loss, grads = nll_and_grad(model, np.zeros((1, 2)))
    assert loss == pytest.approx(LOG_TWO_PI, abs=1e-12)
    # the zero output layer blocks every upstream path, so hidden-layer
    # parameters receive exactly zero gradient
    params = model.parameters()
    for p, g in zip(params, grads):
        assert p.shape == g.shape
    for layer_first_weight_grad in grads[0::4]:
        assert np.all(layer_first_weight_grad == 0.0)


def test_shift_model_translation_invariance():
    b = 1.3
    model = FlowModel(2, [shift_layer(b, True), shift_layer(b, False)])
    batch = np.array([[b, b]])  # preimage is the origin
    identity = FlowModel(2, [])
    loss_shift = nll(model, batch)
    loss_identity = nll(identity, np.zeros((1, 2)))
    assert loss_shift == pytest.approx(loss_identity, abs=1e-10)


def test_nll_and_grad_rejects_empty_batch():
    model = FlowModel(2, [])
    with pytest.raises(ValueError):
        nll_and_grad(model, np.zeros((0, 2)))


def test_gradients_match_finite_differences(rng):
    from timeflow.flow import log_density

    step = 1e-6
    for k in range(6):
        kind = "coupling" if k % 2 == 0 else "autoregressive"
        model = build_flow(2, n_layers=2, kind=kind, family="sigmoid_affine",
                           hidden_dims=(4,), solver=SolverConfig(steps=8),
                           seed=60 + k)
        randomize_parameters(model, seed=70 + k, scale=0.35)
        batch = rng.standard_normal((5, 2))
        _, grads = nll_and_grad(model, batch)
        params = model.parameters()
        for arr, grad in zip(params, grads):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                keep = arr[idx]
                arr[idx] = keep + step
                up = -float(np.mean(log_density(model, batch)))
                arr[idx] = keep - step
                dn = -float(np.mean(log_density(model, batch)))
                arr[idx] = keep
                fd = (up - dn) / (2 * step)
                assert grad[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)


@pytest.mark.parametrize("dim, hidden, family", [
    (3, (6,), "sigmoid_affine"), (3, (6, 5), "quadratic"), (8, (6, 5), "quadratic")])
def test_autoregressive_gradients_match_finite_differences(dim, hidden, family, rng):
    # from D = 3 on, hidden units of different orders see different inputs on
    # the conditioner passes of one layer; criterion 8's central differences
    # and bound, on every weight that the masks keep (the others must get 0)
    from timeflow.flow import log_density

    step = 1e-6
    model = build_flow(dim, n_layers=2, kind="autoregressive", family=family,
                       hidden_dims=hidden, solver=SolverConfig(steps=8), seed=dim)
    randomize_parameters(model, seed=len(hidden),
                         scale=0.35 if family == "sigmoid_affine" else 0.15)
    batch = 0.8 * rng.standard_normal((5, dim))
    _, grads = nll_and_grad(model, batch)
    kept = [m for layer in model.layers[::2] for w in layer.conditioner.masks
            for m in (w, np.ones(w.shape[1]))]
    worst = 0.0
    for arr, grad, mask in zip(model.parameters(), grads, kept):
        assert np.all(grad[mask == 0.0] == 0.0)
        for idx in zip(*np.nonzero(mask)):
            keep = arr[idx]
            arr[idx] = keep + step
            up = -float(np.mean(log_density(model, batch)))
            arr[idx] = keep - step
            dn = -float(np.mean(log_density(model, batch)))
            arr[idx] = keep
            fd = (up - dn) / (2 * step)
            worst = max(worst, abs(grad[idx] - fd) / max(1.0, abs(fd)))
    assert worst < 1e-4, worst


@pytest.mark.parametrize("kind", ["coupling", "autoregressive"])
@pytest.mark.parametrize("scheme", ["rk4"])  # the one scheme; a parameter keeps the ids
def test_training_loss_is_the_nll_bit_for_bit(kind, scheme):
    # the training step takes its log-determinants from the backward pass; they
    # must sum, layer by layer and coordinate by coordinate, to log_density's
    scales = {"quadratic": 0.15, "cubic": 0.1, "sigmoid_affine": 0.35}
    solved = 0
    for family in scales:
        for dim in (2, 3, 8):
            model = build_flow(dim, n_layers=3, kind=kind, family=family, hidden_dims=(8,),
                               solver=SolverConfig(scheme=scheme, steps=8), seed=dim)
            randomize_parameters(model, seed=11, scale=scales[family])
            batch = 0.8 * np.random.default_rng(dim).standard_normal((16, dim))
            try:
                want = nll(model, batch)
            except DivergenceError:
                continue
            assert nll_and_grad(model, batch)[0] == want
            solved += 1
    assert solved >= 8  # one autoregressive cubic model diverges on RK4


# --- adam --------------------------------------------------------------------


def test_adam_zero_gradient_keeps_params():
    params = [np.array([1.0, -2.0]), np.array([[3.0]])]
    state = AdamState.init(params)
    grads = [np.zeros(2), np.zeros((1, 1))]
    new_params, new_state = adam_step(state, params, grads, lr=0.1)
    for p, q in zip(params, new_params):
        assert np.array_equal(p, q)
    assert new_state.step == 1


def test_adam_first_step_is_signed_lr():
    params = [np.array([0.0])]
    state = AdamState.init(params)
    grads = [np.array([2.0])]
    new_params, _ = adam_step(state, params, grads, lr=0.1)
    # bias correction makes m_hat = g, sqrt(v_hat) = |g|: step = -lr * sign(g)
    assert new_params[0][0] == pytest.approx(-0.1, abs=1e-9)


def test_adam_two_steps_match_hand_recurrence():
    g = 2.0
    lr = 0.1
    b1, b2, eps = 0.9, 0.999, 1e-8
    params = [np.array([0.5])]
    state = AdamState.init(params)
    grads = [np.array([g])]
    p1, state = adam_step(state, params, grads, lr)
    p2, state = adam_step(state, p1, grads, lr)

    # hand evaluation of the bias-corrected recurrence
    m1 = (1 - b1) * g
    v1 = (1 - b2) * g * g
    theta1 = 0.5 - lr * (m1 / (1 - b1)) / (math.sqrt(v1 / (1 - b2)) + eps)
    m2 = b1 * m1 + (1 - b1) * g
    v2 = b2 * v1 + (1 - b2) * g * g
    theta2 = theta1 - lr * (m2 / (1 - b1**2)) / (math.sqrt(v2 / (1 - b2**2)) + eps)

    assert p1[0][0] == pytest.approx(theta1, abs=1e-15)
    assert p2[0][0] == pytest.approx(theta2, abs=1e-15)
    assert state.step == 2


def test_adam_shape_mismatch_rejected():
    params = [np.zeros(2)]
    state = AdamState.init(params)
    with pytest.raises(ValueError):
        adam_step(state, params, [np.zeros(3)], lr=0.1)


# --- training loop -----------------------------------------------------------


def test_zero_epochs_returns_unchanged_model():
    ds = toy2d("two_gaussians", 200, seed=0)
    model = build_flow(2, n_layers=2, hidden_dims=(4,), seed=1)
    before = [p.copy() for p in model.parameters()]
    model, history = train(model, ds, TrainConfig(epochs=0))
    assert history == []
    for a, b in zip(before, model.parameters()):
        assert np.array_equal(a, b)


def _diverging_run(monkeypatch, epochs, patience):
    """`train` on a quadratic coupling flow whose 20th Adam batch (epoch 7)
    diverges at this learning rate; returns (model, history, DivergenceErrors seen)."""
    from timeflow import training

    raised = []

    def spied(model, batch):
        try:
            return nll_and_grad(model, batch)
        except DivergenceError as err:
            raised.append(err)
            raise

    monkeypatch.setattr(training, "nll_and_grad", spied)
    ds = toy2d("two_gaussians", 200, seed=7)
    model = build_flow(2, n_layers=2, family="quadratic", hidden_dims=(6,),
                       solver=SolverConfig(steps=8), seed=7)
    cfg = TrainConfig(epochs=epochs, batch_size=64, learning_rate=0.05, seed=7,
                      patience=patience)
    return (*train(model, ds, cfg), raised)


def test_train_ends_on_a_diverging_batch_with_the_best_parameters(monkeypatch):
    model, history, raised = _diverging_run(monkeypatch, epochs=10, patience=50)
    assert len(raised) == 1 and "batch aborted" in str(raised[0])
    assert [r.epoch for r in history] == [1, 2, 3, 4, 5, 6]  # epoch 7 never completed
    best = min(history, key=lambda r: r.val_nll).epoch
    assert best == 5
    # the parameters are those after the best epoch, as a run that stops there leaves them
    stopped, _, raised = _diverging_run(monkeypatch, epochs=best, patience=50)
    assert not raised
    for a, b in zip(model.parameters(), stopped.parameters()):
        assert a.tobytes() == b.tobytes()


def test_train_stops_when_patience_runs_out(monkeypatch):
    model, history, raised = _diverging_run(monkeypatch, epochs=10, patience=2)
    assert not raised
    vals = [r.val_nll for r in history]
    assert len(history) == 3 and vals[0] < min(vals[1:])  # two epochs without a gain
    first, _, _ = _diverging_run(monkeypatch, epochs=1, patience=2)
    for a, b in zip(model.parameters(), first.parameters()):
        assert a.tobytes() == b.tobytes()


def test_nll_of_rows_outside_the_model_image_is_infinite():
    model = build_flow(2, n_layers=2, family="quadratic", hidden_dims=(6,), seed=1)
    randomize_parameters(model, seed=2, scale=0.5)
    rows = np.array([[0.1, -0.2], [3e5, -3e5]])
    with pytest.raises(DivergenceError):
        nll(model, rows)
    assert _nll_or_inf(model, rows) == math.inf
    assert _nll_or_inf(model, rows[:1]) == nll(model, rows[:1]) < math.inf


def test_training_deterministic():
    ds = toy2d("two_gaussians", 400, seed=0)
    cfg = TrainConfig(epochs=3, batch_size=128, learning_rate=0.005, seed=9)
    hists = []
    for _ in range(2):
        model = build_flow(2, n_layers=2, hidden_dims=(6,), seed=2)
        _, history = train(model, ds, cfg)
        hists.append([(r.epoch, r.train_nll, r.val_nll) for r in history])
    assert hists[0] == hists[1]
    assert len(hists[0]) == 3


def test_training_improves_on_identity_baseline():
    ds = toy2d("two_gaussians", 1200, seed=3)
    model = build_flow(2, n_layers=4, kind="coupling", family="quadratic",
                       hidden_dims=(16,), solver=SOLVER, seed=3)
    cfg = TrainConfig(epochs=20, batch_size=128, learning_rate=0.01, seed=5,
                      patience=50)
    model, history = train(model, ds, cfg)
    baseline = identity_nll(ds.val)
    best = min(r.val_nll for r in history)
    assert best < baseline - 0.3
    # best-so-far validation sequence is non-increasing by construction
    running = np.minimum.accumulate([r.val_nll for r in history])
    assert np.all(np.diff(running) <= 0)


def test_trained_nll_respects_entropy_floor():
    # Monte-Carlo estimate of the generator's differential entropy
    rng = np.random.default_rng(0)
    n = 20000
    comp = rng.integers(0, 2, n)
    pts = TWO_GAUSSIANS_CENTERS[comp] + TWO_GAUSSIANS_STD * rng.standard_normal((n, 2))

    def mixture_logpdf(x):
        out = np.zeros(x.shape[0])
        s2 = TWO_GAUSSIANS_STD**2
        for k, center in enumerate(TWO_GAUSSIANS_CENTERS):
            d2 = np.sum((x - center) ** 2, axis=1)
            out += 0.5 * np.exp(-0.5 * d2 / s2) / (2 * math.pi * s2)
        return np.log(out)

    entropy = -float(np.mean(mixture_logpdf(pts)))

    ds = toy2d("two_gaussians", 1200, seed=3)
    model = build_flow(2, n_layers=4, kind="coupling", family="quadratic",
                       hidden_dims=(16,), solver=SOLVER, seed=3)
    cfg = TrainConfig(epochs=20, batch_size=128, learning_rate=0.01, seed=5,
                      patience=50)
    model, history = train(model, ds, cfg)
    best = min(r.val_nll for r in history)
    assert best >= entropy - 0.5


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError):
        TrainConfig(lr_decay=0.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)


def test_criterion_9_model_records_one_node_per_layer(monkeypatch):
    # the backward pass walks one record per layer (the per-op tape held 93
    # nodes on this model, 3,404 before solves became single nodes)
    model = build_flow(2, n_layers=4, kind="coupling", family="quadratic",
                       hidden_dims=(24,), solver=SolverConfig(steps=16), seed=3)
    randomize_parameters(model, seed=1, scale=0.2)
    batch = toy2d("two_gaussians", 256, seed=1).train[:128]
    built = []
    init = autodiff.Node.__init__

    def counted(node, layer):
        built.append(layer)
        init(node, layer)

    monkeypatch.setattr(autodiff.Node, "__init__", counted)
    nll_and_grad(model, batch)
    assert len(built) == len(model.layers)
    assert all(a is b for a, b in zip(built, reversed(model.layers)))


def test_divergent_batch_raises_with_rows():
    model = build_flow(2, n_layers=4, kind="coupling", family="quadratic",
                       hidden_dims=(24,), solver=SolverConfig(steps=16), seed=3)
    randomize_parameters(model, seed=5, scale=0.3)
    batch = np.random.default_rng(0).standard_normal((8, 2))
    batch[2], batch[5] = -100.0, 100.0
    with pytest.raises(DivergenceError) as err:
        nll_and_grad(model, batch)
    assert err.value.indices == [2, 5]
    assert str(err.value).startswith("batch aborted: layer 6:")


def test_non_finite_log_det_aborts_the_batch_naming_its_rows():
    # dg/dv = 1e308 keeps v at 0 but overflows the log-derivative; the training
    # step takes it from the backward pass, which must not warn before the
    # check refuses the batch (warnings are errors here)
    model = build_flow(2, n_layers=1, kind="coupling", family="quadratic", hidden_dims=(4,),
                       solver=SolverConfig(steps=4))
    params = model.parameters()
    params[-1] = np.array([1e308, 0.0, 0.0])  # the output bias: a = 1e308, b = c = 0
    model.set_parameters(params)
    batch = np.array([[0.5, 0.0], [0.3, 0.0]])
    with pytest.raises(DivergenceError) as err:
        nll_and_grad(model, batch)
    assert str(err.value) == "batch aborted: non-finite log-density for rows [0, 1]"
    assert err.value.indices == [0, 1]


FAULT_PROBE = textwrap.dedent("""
    import ast, resource, sys
    import numpy as np
    from timeflow import SolverConfig, build_flow, nll_and_grad

    kind, family, dim, hidden, rows = ast.literal_eval(sys.argv[1])
    model = build_flow(dim, n_layers=4, kind=kind, family=family, hidden_dims=hidden,
                       solver=SolverConfig(steps=16), seed=1)
    batch = np.random.default_rng(0).standard_normal((rows, dim))
    for _ in range(3):
        nll_and_grad(model, batch)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(30):
        nll_and_grad(model, batch)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 30)
""")


def test_training_step_reuses_memory_pages():
    """Minor page faults per `nll_and_grad` call, after three warm-up calls.

    ar-8d, the benchmark architecture: with batch 256 and 16 RK4 steps every
    solve's stacked stage arrays are (64, 256, 1), 128 KiB, malloc's mmap
    threshold. Stacking the stage points and allocating the adjoint's
    temporaries afresh in each of the 32 solves made malloc hand the pages
    back and fault them in again, about 6,600 minor faults per call; one
    slab per solve and one workspace block per adjoint leave far fewer. The
    count depends on the heap's layout, which the checkout path alone moves:
    two paths read 1.6 and 722 per call.

    Coupling, D = 16: each adjoint's block is (7, 4, 16, 256, 8), 7 MiB, and
    once malloc's threshold has risen past it, the block comes from the heap
    and its pages stay mapped from call to call, about 0 faults per call. A
    dict of workspace buffers that lived for one backward pass took about
    2,300, since its freed buffers were returned to the system."""
    pytest.importorskip("resource")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for shape, bound in [(("autoregressive", "sigmoid_affine", 8, (32,), 256), 2500),
                         (("coupling", "sigmoid_affine", 16, (64,), 256), 500)]:
        proc = subprocess.run([sys.executable, "-c", FAULT_PROBE, repr(shape)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < bound, shape


@pytest.mark.parametrize("kind,family,dim,hidden,rows,solved,widest", [
    ("coupling", "quadratic", 2, (24,), 128, 4, 1),  # four (n, 1) solves
    ("autoregressive", "sigmoid_affine", 8, (32,), 256, 32, 1),  # 4 layers x 8 (n, 1) solves
    ("coupling", "quadratic", 3, (24,), 128, 6, 2),  # widths 2, 1, 2, 1: the widest sets it
], ids=["fit-2d", "ar-8d", "coupling-3d"])
def test_training_memory_follows_the_stated_formula(kind, family, dim, hidden, rows, solved,
                                                    widest):
    """A training step keeps every solve's trajectory slab, 8 B * (steps+1)*n*k
    for a solve of width k, and each adjoint allocates seven (4, steps)
    workspace arrays and one (4, 1) array, freed on return, so the widest
    solve's are the most live at once: 8 B * n*((steps+1)*sum k +
    28*steps*k_max + 4*k_max) in all, linear in the step count. The rest of
    the tracemalloc peak (activations, gradients) does not grow with it. The peaks are taken on a second call at 16 and 32 steps,
    where they repeat from call to call; at 8 steps fit-2d's moved by 2-4 KB."""
    def peak_and_formula(steps):
        model = build_flow(dim, n_layers=4, kind=kind, family=family, hidden_dims=hidden,
                           solver=SolverConfig(steps=steps), seed=1)
        batch = np.random.default_rng(0).standard_normal((rows, dim))
        nll_and_grad(model, batch)
        tracemalloc.start()
        try:
            nll_and_grad(model, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, 8 * rows * ((steps + 1) * solved + 28 * steps * widest + 4 * widest)

    (peak16, formula16), (peak32, formula32) = peak_and_formula(16), peak_and_formula(32)
    assert peak16 >= formula16 and peak32 >= formula32
    assert peak32 - peak16 == pytest.approx(formula32 - formula16, rel=0.01)
