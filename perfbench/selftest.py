"""Self-tests for the benchmark's correctness checks.

    python3 perfbench/selftest.py

Each check must accept timeflow's real output and reject a deliberately
wrong one: a log-density off by 1e-3 nats, one gradient entry perturbed,
a round trip off by 1e-5, a grid mass of 0.97, an untrained model's
held-out NLL, a refined inverse moved off its root, and a `train()`
epoch that stopped on a divergence. The functions
also run under pytest (`python3 -m pytest perfbench/selftest.py`).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402

run.import_timeflow()

from timeflow import flow, inversion, training  # noqa: E402
from timeflow.scalarmap import SolverConfig  # noqa: E402


def _model(dim=2, kind="coupling", scale=0.3):
    m = flow.build_flow(dim, n_layers=2, kind=kind, family="sigmoid_affine",
                        hidden_dims=(8,), solver=SolverConfig(steps=8), seed=4)
    return flow.randomize_parameters(m, seed=5, scale=scale)


def _forward(model):
    return lambda v: flow.model_forward(model, v)[0]


def test_log_density_check():
    model = _model(dim=3, kind="autoregressive")
    rows = np.random.default_rng(1).standard_normal((4, 3))
    x = flow.model_inverse(model, rows)
    logp = flow.log_density(model, rows)
    assert checks.check_log_density(_forward(model), x, logp)[0]
    assert not checks.check_log_density(_forward(model), x, logp + 1e-3)[0]


def test_gradient_check():
    model = _model()
    batch = np.random.default_rng(2).standard_normal((16, 2))
    params = [p.copy() for p in model.parameters()]
    _, grads = training.nll_and_grad(model, batch)
    entries = [(i, j) for i, p in enumerate(params) for j in range(0, p.size, 7)]

    def nll_at(p):
        return -float(np.mean(flow.log_density(model, batch, params=p)))

    assert checks.check_gradient(nll_at, params, grads, entries)[0]
    i, j = max(entries, key=lambda e: abs(grads[e[0]].flat[e[1]]))
    wrong = [g.copy() for g in grads]
    wrong[i].flat[j] *= 1.0 + 1e-3
    assert not checks.check_gradient(nll_at, params, wrong, entries)[0]


def test_round_trip_check():
    model = _model()
    y = flow.sample(model, 256, seed=9)
    x = flow.model_inverse(model, y)
    z = np.random.default_rng(9).standard_normal((256, 2))
    assert checks.check_round_trip(x, z)[0]
    x[17, 1] += 1e-5
    assert not checks.check_round_trip(x, z)[0]
    assert not checks.check_round_trip(x[:-1], z)[0]


def test_grid_mass_check():
    model = _model()
    gx, gy = np.meshgrid(run.GRID_AXIS, run.GRID_AXIS)
    logp = flow.log_density(model, np.stack([gx.ravel(), gy.ravel()], axis=1))
    assert checks.check_grid_mass(logp, run.GRID_AXIS)[0]
    wrong = logp + np.log(0.97 / checks.grid_mass(logp, run.GRID_AXIS))
    assert abs(checks.grid_mass(wrong, run.GRID_AXIS) - 0.97) < 1e-12
    assert not checks.check_grid_mass(wrong, run.GRID_AXIS)[0]


def test_heldout_check():
    rows = 1.5 * np.random.default_rng(3).standard_normal((512, 2))
    identity = flow.build_flow(2, n_layers=2, family="sigmoid_affine", hidden_dims=(8,), seed=4)
    untrained = -float(np.mean(flow.log_density(identity, rows)))
    assert not checks.check_heldout(untrained, rows)[0]
    assert checks.check_heldout(untrained - 1e-3, rows)[0]


def test_refine_check():
    model = _model()
    rc = inversion.RefineConfig("fixed_point", tolerance=1e-10)
    y = flow.sample(model, 1, seed=6)
    x = flow.model_inverse(model, y, refine=rc)
    out, worst = checks.layerwise_inverse(flow.layer_inverse, flow.layer_forward,
                                          model.layers, y, rc)
    assert checks.check_refine(x, out, worst, 1e-10)[0]
    assert not checks.check_refine(x + 1e-6, out, worst, 1e-10)[0]
    assert not checks.check_refine(x, out, 1e-6, 1e-10)[0]


def test_epoch_check():
    whole = training.EpochRecord(1, 1.5, 1.4)
    assert run._not_one_epoch((None, [whole])) is None
    assert run._not_one_epoch((None, [])) is not None  # train() stopped on a divergence
    assert run._not_one_epoch((None, [training.EpochRecord(1, 1.5, np.inf)])) is not None
    assert run._not_one_epoch((None, [whole, whole])) is not None


def main():
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as err:
            failed += 1
            print(f"FAIL {name}: {err!r}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
