"""Flow evaluation in row blocks of `scalarmap.LANES` lanes.

Outside training, `_through_layers` pushes the rows through all the layers
in blocks of LANES // w rows, w the widest solve on the path. Each block is
exactly the call on its rows alone, an input of at most one block is one
call, and a divergence error names global rows.
"""

import tracemalloc

import numpy as np
import pytest

from timeflow import (ConditionerNet, CouplingLayer, DivergenceError, FlowModel, SolverConfig,
                      build_flow, log_density, sample)
from timeflow import flow
from timeflow.flow import model_forward, model_inverse, randomize_parameters
from timeflow.inversion import RefineConfig
from timeflow.scalarmap import LANES
from timeflow.training import nll_and_grad

SHAPES = {
    # fit-2d: every solve has width 1, so a block is LANES rows both ways
    "coupling": dict(dim=2, kind="coupling", family="quadratic", hidden_dims=(24,)),
    # forward solves have width D, inverse solves width 1
    "autoregressive": dict(dim=3, kind="autoregressive", family="quadratic", hidden_dims=(8,)),
}


def shaped_model(kind):
    model = build_flow(n_layers=4, solver=SolverConfig(steps=8), seed=1, **SHAPES[kind])
    return randomize_parameters(model, seed=2, scale=0.3)


def block_rows(model, inverse):
    return LANES // max(layer.width(inverse) for layer in model.layers)


def slices(n, rows):
    return [slice(start, start + rows) for start in range(0, n, rows)]


def test_each_layer_states_its_widest_solve():
    coupling = build_flow(5, n_layers=2, kind="coupling", hidden_dims=(4,)).layers
    assert [(layer.width(False), layer.width(True)) for layer in coupling] == [
        (3, 3), (0, 0), (2, 2)]
    ar = build_flow(5, n_layers=2, kind="autoregressive", hidden_dims=(10,)).layers
    assert [(layer.width(False), layer.width(True)) for layer in ar] == [
        (5, 1), (0, 0), (5, 1)]


@pytest.mark.parametrize("kind", sorted(SHAPES))
def test_blocks_are_the_calls_on_their_slices(kind):
    # 2.5 blocks: two full blocks and a half one, each computed as the call
    # on its rows alone, bit for bit, divergent rows included
    model = shaped_model(kind)
    dim = model.dim
    rng = np.random.default_rng(3)

    rows = block_rows(model, inverse=True)
    y = rng.standard_normal((5 * rows // 2, dim))
    got = log_density(model, y, divergence="-inf")
    assert np.isneginf(got).any()
    want = np.concatenate([log_density(model, y[s], divergence="-inf")
                           for s in slices(len(y), rows)])
    assert got.tobytes() == want.tobytes()
    got = model_inverse(model, 0.25 * y)
    want = np.concatenate([model_inverse(model, 0.25 * y[s]) for s in slices(len(y), rows)])
    assert got.tobytes() == want.tobytes()

    rows = block_rows(model, inverse=False)
    x = 0.25 * rng.standard_normal((5 * rows // 2, dim))
    got_y, got_l = model_forward(model, x)
    parts = [model_forward(model, x[s]) for s in slices(len(x), rows)]
    assert got_y.tobytes() == np.concatenate([p[0] for p in parts]).tobytes()
    assert got_l.tobytes() == np.concatenate([p[1] for p in parts]).tobytes()

    n = 5 * rows // 2  # sample's draws, pushed through slice by slice
    draws = np.random.default_rng(4).standard_normal((n, dim))
    want = np.concatenate([flow._through_layers(model, draws[s], "nan", False)[0]
                           for s in slices(n, rows)])
    assert np.isnan(want).any()
    assert sample(model, n, seed=4, divergence="nan").tobytes() == want.tobytes()
    kept = want[np.all(np.isfinite(want), axis=1)]
    assert sample(model, n, seed=4, divergence="drop").tobytes() == kept.tobytes()


@pytest.mark.parametrize("kind", sorted(SHAPES))
def test_one_block_is_one_call(kind, monkeypatch):
    # an input of at most one block makes one conditioner pass per solve, on
    # all of its rows; one row more makes two; training is never split
    model = shaped_model(kind)
    passes = []
    net_eval = flow.net_eval

    def counted(net, x, *args, **kwargs):
        passes.append(len(x))
        return net_eval(net, x, *args, **kwargs)

    monkeypatch.setattr(flow, "net_eval", counted)

    def rows_per_pass(call, n):
        passes.clear()
        call(0.25 * np.random.default_rng(5).standard_normal((n, model.dim)))
        return list(passes)

    for inverse, call in ((True, lambda z: log_density(model, z)),
                          (True, lambda z: model_inverse(model, z)),
                          (False, lambda z: model_forward(model, z)),
                          (False, lambda z: sample(model, len(z), seed=6, divergence="nan"))):
        rows = block_rows(model, inverse)
        one = rows_per_pass(call, 1)
        assert rows_per_pass(call, rows) == [rows] * len(one)
        assert rows_per_pass(call, rows + 1) == [rows] * len(one) + [1] * len(one)
    rows = block_rows(model, inverse=True)
    one = rows_per_pass(lambda z: nll_and_grad(model, z), 1)
    assert rows_per_pass(lambda z: nll_and_grad(model, z), rows + 1) == [rows + 1] * len(one)


def test_one_block_reads_the_input_as_it_is(monkeypatch):
    model = shaped_model("coupling")
    seen = []
    first = model.layers[0]
    forward = first.forward
    monkeypatch.setattr(first, "forward", lambda x, *args: seen.append(x) or forward(x, *args))
    x = 0.25 * np.random.default_rng(7).standard_normal((LANES, 2))
    model_forward(model, x)
    assert seen[0] is x


def cubic_layer_model(c):
    """D = 2: the upper coordinate follows dv/dt = c*v^3 whatever the lower one is."""
    net = ConditionerNet([1, 3], [np.zeros((1, 3))], [np.array([0.0, 0.0, c])])
    return FlowModel(2, [CouplingLayer(2, 1, True, "cubic", net, SolverConfig(steps=16))])


# Of these 3 * LANES draws only row HOT, in the third block, has |x1| above
# 4.47, where dv/dt = 0.025*v^3 blows up before t = 1 (the next largest is
# 4.19); the reverse path of c = -0.025 blows up from the same rows.
DRAWS = np.random.default_rng(14).standard_normal((3 * LANES, 2))
HOT = 20246


@pytest.mark.parametrize("op", ["model_forward", "sample", "log_density", "model_inverse"])
def test_divergence_in_a_later_block_names_global_rows(op):
    assert np.flatnonzero(np.abs(DRAWS[:, 1]) > 4.47).tolist() == [HOT] and HOT // LANES == 2
    forward = op in ("model_forward", "sample")
    model = cubic_layer_model(0.025 if forward else -0.025)
    call = {
        "model_forward": lambda: model_forward(model, DRAWS),
        "sample": lambda: sample(model, len(DRAWS), seed=14),
        "log_density": lambda: log_density(model, DRAWS),
        "model_inverse": lambda: model_inverse(model, DRAWS),
    }[op]
    with pytest.raises(DivergenceError) as err:
        call()
    assert err.value.indices == [HOT]
    assert str(err.value).startswith("layer 0: trajectory left |v| <= 1e+06 at t=")
    assert str(err.value).endswith(f" (rows [{HOT}])")
    if op == "sample":
        y = sample(model, len(DRAWS), seed=14, divergence="nan")
        assert np.flatnonzero(np.isnan(y).any(axis=1)).tolist() == [HOT]
        kept = sample(model, len(DRAWS), seed=14, divergence="drop")
        assert kept.tobytes() == np.delete(y, HOT, axis=0).tobytes()
    if op == "log_density":
        lp = log_density(model, DRAWS, divergence="-inf")
        assert np.flatnonzero(np.isneginf(lp)).tolist() == [HOT]
        assert np.isfinite(np.delete(lp, HOT)).all()


@pytest.mark.parametrize("family", ["quadratic", "cubic"])
def test_refinement_miss_in_a_later_block_names_global_rows(family):
    # test_flow's zero-bias model: a row whose kept half is zero inverts
    # exactly, so two blocks of those rows pass and the third block, the
    # eight rows of that test, raises naming the rows that miss alone
    model = build_flow(4, n_layers=1, kind="coupling", family=family, hidden_dims=(6,),
                       seed=0)
    randomize_parameters(model, seed=1, scale=0.3)
    for bias in model.layers[0].conditioner.biases:
        bias[:] = 0.0
    y = np.random.default_rng(2).standard_normal((8, 4))
    y[[1, 4], :2] = 0
    rc = RefineConfig("fixed_point", 5e-324, 1)
    alone = []
    for i, row in enumerate(y):
        try:
            model_inverse(model, row, refine=rc)
        except DivergenceError:
            alone.append(i)
    assert 0 < len(alone) < len(y)
    rows = block_rows(model, inverse=True)
    exact = np.tile(y[[1, 4]], (rows, 1))
    with pytest.raises(DivergenceError) as err:
        model_inverse(model, np.concatenate([exact, y]), refine=rc)
    named = [2 * rows + i for i in alone]
    assert err.value.indices == named
    assert str(err.value) == f"layer 0: inverse refinement did not converge (rows {named})"


def test_non_finite_log_density_in_a_later_block_names_global_rows():
    # a = 1e308 * x0 with b = c = 0 keeps v = x1 = 0 where x0 = 1, but overflows
    # that row's log-derivative; every other row is the identity
    net = ConditionerNet([1, 3], [np.array([[1e308, 0.0, 0.0]])], [np.zeros(3)])
    model = FlowModel(2, [CouplingLayer(2, 1, True, "quadratic", net, SolverConfig(steps=4))])
    y = np.zeros((3 * LANES, 2))
    y[HOT, 0] = 1.0
    with pytest.raises(DivergenceError) as err:
        log_density(model, y)
    assert str(err.value) == f"non-finite log-density for rows [{HOT}]"
    assert err.value.indices == [HOT]
    lp = log_density(model, y, divergence="-inf")
    assert np.flatnonzero(~np.isfinite(lp)).tolist() == [HOT]


def test_evaluation_memory_is_one_block_plus_inputs_and_outputs():
    # on the fit-2d shape, 5 blocks of log_density peak above 1 block by the
    # rows' own arrays only: the pulled-back x (D floats a row), the summed
    # log-dets and the returned log-densities; the input is made before
    # tracing starts. Unblocked, the activations and solver arrays grew too:
    # 8.1 MB more at 5 blocks, against the 1.05 MB here.
    model = build_flow(2, n_layers=4, kind="coupling", family="quadratic", hidden_dims=(24,),
                       seed=3)
    randomize_parameters(model, seed=4, scale=0.1)
    peaks = {}
    for blocks in (1, 5):
        y = np.random.default_rng(1).standard_normal((blocks * LANES, 2))
        log_density(model, y)  # the second call is measured
        tracemalloc.start()
        try:
            log_density(model, y)
            peaks[blocks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    growth = peaks[5] - peaks[1]
    rows_arrays = 8 * 4 * LANES * (2 + 1 + 1)
    assert growth <= rows_arrays + 16 * 1024, (peaks, rows_arrays)
