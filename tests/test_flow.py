"""Flow layers, densities, sampling, checkpoints."""

import hashlib
import json
import math

import numpy as np
import pytest

from timeflow import (
    AutoregressiveLayer,
    ConditionerNet,
    CouplingLayer,
    DivergenceError,
    FlowModel,
    PermutationLayer,
    SolverConfig,
    build_flow,
    build_masks,
    init_net,
    layer_forward,
    layer_inverse,
    load_checkpoint,
    log_density,
    sample,
    save_checkpoint,
)
from timeflow.flow import _triples, model_forward, model_inverse, randomize_parameters
from timeflow.inversion import RefineConfig
from timeflow.training import nll_and_grad

SOLVER = SolverConfig(steps=16)
LOG_TWO_PI = math.log(2 * math.pi)


def shift_coupling_layer():
    """D=2, d=1 layer producing y = (x1, x2 + x1): conditioner emits (0, x1, 0)."""
    net = ConditionerNet([1, 3], [np.array([[0.0, 1.0, 0.0]])], [np.zeros(3)])
    return CouplingLayer(2, 1, True, "quadratic", net, SOLVER)


def constant_scale_layer(a):
    """Conditioner emits (a, 0, 0) regardless of input: per-coordinate log-derivative a."""
    net = ConditionerNet([1, 3], [np.zeros((1, 3))], [np.array([a, 0.0, 0.0])])
    return CouplingLayer(2, 1, True, "quadratic", net, SOLVER)


def random_coupling_layer(seed, dim=4, family="sigmoid_affine"):
    rng = np.random.default_rng(seed)
    d = dim // 2
    net = init_net([d, 8, 3 * (dim - d)], seed=rng)
    for w in net.weights:
        w += 0.4 * rng.standard_normal(w.shape) / np.sqrt(w.shape[0])
    return CouplingLayer(dim, d, True, family, net, SOLVER)


def test_triples_are_contiguous_copies_of_the_slots(rng):
    theta = rng.standard_normal((9, 12))
    # a coupling layer's whole (n, 3k) output, and an autoregressive layer's triple
    for block, slots in ((theta, [theta[:, j::3] for j in range(3)]),
                         (theta[:, 6:9], [theta[:, 6 + j:7 + j] for j in range(3)])):
        for got, want in zip(_triples(block), slots):
            assert got.flags.c_contiguous
            assert not np.shares_memory(got, theta)
            assert got.shape == want.shape and got.tobytes() == want.copy().tobytes()


def test_identity_layer():
    net = init_net([1, 4, 3], seed=0)  # zero final layer: identity map
    layer = CouplingLayer(2, 1, True, "quadratic", net, SOLVER)
    x = np.array([0.3, -1.2])
    y, logdet = layer_forward(layer, x)
    assert np.array_equal(y, x)
    assert logdet == 0.0
    assert np.array_equal(layer_inverse(layer, x)[0], x)


def test_shift_coupling_forward_and_inverse():
    layer = shift_coupling_layer()
    y, logdet = layer_forward(layer, np.array([1.0, 2.0]))
    assert np.allclose(y, [1.0, 3.0], atol=1e-14)
    assert logdet == 0.0
    x, logdet_rev = layer_inverse(layer, np.array([1.0, 3.0]))
    assert np.allclose(x, [1.0, 2.0], atol=1e-14)
    assert logdet_rev == 0.0


def test_constant_scale_layer_logdet_exact():
    a = 0.7
    layer = constant_scale_layer(a)
    y, logdet = layer_forward(layer, np.array([2.0, 1.0]))
    assert logdet == pytest.approx(a, abs=1e-14)  # constant dg/dv integrates exactly
    assert y[1] == pytest.approx(math.exp(a) * 1.0, rel=1e-7)  # map itself is O(h^4)


def test_random_coupling_round_trip(rng):
    for seed in range(5):
        layer = random_coupling_layer(seed)
        x = rng.standard_normal((20, 4))
        y, _ = layer_forward(layer, x)
        back, _ = layer_inverse(layer, y)
        assert np.max(np.abs(back - x)) < 1e-7


def test_permutation_layer():
    perm = np.array([2, 0, 1])
    layer = PermutationLayer(3, perm)
    x = np.array([[1.0, 2.0, 3.0]])
    y, logdet = layer_forward(layer, x)
    assert np.array_equal(y[0], [3.0, 1.0, 2.0])
    assert logdet[0] == 0.0
    back, _ = layer_inverse(layer, y)
    assert np.array_equal(back, x)


def test_coupling_jacobian_block_structure(rng):
    layer = random_coupling_layer(9, dim=4)
    x = rng.standard_normal(4)
    h = 1e-6
    J = np.zeros((4, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        yp, _ = layer_forward(layer, x + e)
        ym, _ = layer_forward(layer, x - e)
        J[:, j] = (yp - ym) / (2 * h)
    # pass-through block is the identity (diagonal up to fd roundoff,
    # off-diagonal exactly zero)
    assert np.allclose(np.diag(J)[:2], 1.0, atol=1e-9)
    assert J[0, 1] == 0.0 and J[1, 0] == 0.0
    # pass-through rows cannot feel transformed inputs, exactly
    assert np.all(J[:2, 2:] == 0.0)
    # transformed coordinates are decoupled from each other
    assert J[2, 3] == 0.0 and J[3, 2] == 0.0
    assert J[2, 2] > 0.0 and J[3, 3] > 0.0


def test_autoregressive_layer_lower_triangular(rng):
    D = 5
    masks = build_masks(D, [12])
    net = init_net([D, 12, 3 * D], seed=11, masks=masks)
    for w in net.weights:
        w += 0.4 * rng.standard_normal(w.shape) / np.sqrt(w.shape[0])
    layer = AutoregressiveLayer(D, "quadratic", net, SOLVER)
    x = rng.standard_normal(D)
    h = 1e-6
    for j in range(D):
        e = np.zeros(D)
        e[j] = h
        yp, _ = layer_forward(layer, x + e)
        ym, _ = layer_forward(layer, x - e)
        col = (yp - ym) / (2 * h)
        assert np.all(col[:j] == 0.0)  # strictly-upper entries are exact zeros
        assert col[j] > 0.0
    # and the layer inverts sequentially
    y, _ = layer_forward(layer, x)
    back, _ = layer_inverse(layer, y)
    assert np.max(np.abs(back - x)) < 1e-7


def test_last_autoregressive_pass_sees_what_the_final_input_gives(rng, monkeypatch):
    # with build_masks' orders no hidden unit reads the last coordinate and the
    # triple of coordinate k reads only units of order <= k, so the last pass's
    # activations, and every pass's triple, are those of the conditioner at the
    # x that the sequential inverse returns, bit for bit
    from timeflow import flow

    D, hidden = 8, [32, 16]
    net = init_net([D, *hidden, 3 * D], seed=4, masks=build_masks(D, hidden))
    net.set_param_arrays([0.3 * rng.standard_normal(p.shape) / np.sqrt(p.shape[0])
                          for p in net.param_arrays()])
    layer = AutoregressiveLayer(D, "sigmoid_affine", net, SolverConfig(steps=8))
    passes, net_eval = [], flow.net_eval

    def recorded(net, x, *, acts=None):
        theta = net_eval(net, x, acts=acts)
        passes.append((x.copy(), theta.copy()))
        return theta

    monkeypatch.setattr(flow, "net_eval", recorded)
    x, _ = layer.inverse(rng.standard_normal((256, D)), None, "raise", True)
    assert len(passes) == D
    final_acts, last_acts = [], []
    final = net_eval(net, x, acts=final_acts)
    net_eval(net, passes[-1][0], acts=last_acts)
    for k, (_, theta) in enumerate(passes):
        assert theta[:, 3 * k:3 * k + 3].tobytes() == final[:, 3 * k:3 * k + 3].tobytes()
    for got, want in zip(last_acts[1:], final_acts[1:]):
        assert got.tobytes() == want.tobytes()


def test_log_density_identity_model_origin():
    model = FlowModel(2, [])
    assert log_density(model, np.zeros(2)) == pytest.approx(-LOG_TWO_PI, abs=1e-12)


def test_log_density_shift_model():
    layers = [shift_coupling_layer()]
    model = FlowModel(2, layers)
    y = np.array([0.5, 1.7])
    x = np.array([0.5, 1.7 - 0.5])
    expected = -0.5 * np.sum(x * x) - LOG_TWO_PI
    assert log_density(model, y) == pytest.approx(expected, abs=1e-12)


def test_log_density_matches_brute_force_jacobian(rng):
    model = build_flow(2, n_layers=2, kind="coupling", family="sigmoid_affine",
                       hidden_dims=(8,), solver=SOLVER, seed=21)
    randomize_parameters(model, seed=22, scale=0.4)
    x = rng.standard_normal((4, 2))
    y, _ = model_forward(model, x)
    lp = log_density(model, y)
    h = 1e-5
    for i in range(4):
        xi = model_inverse(model, y[i])
        J = np.zeros((2, 2))
        for j in range(2):
            e = np.zeros(2)
            e[j] = h
            yp, _ = model_forward(model, xi + e)
            ym, _ = model_forward(model, xi - e)
            J[:, j] = (yp - ym) / (2 * h)
        ref = -0.5 * float(xi @ xi) - LOG_TWO_PI - math.log(abs(np.linalg.det(J)))
        assert lp[i] == pytest.approx(ref, abs=1e-4)


def test_density_normalizes_on_grid():
    model = build_flow(2, n_layers=2, kind="coupling", family="sigmoid_affine",
                       hidden_dims=(8,), solver=SOLVER, seed=5)
    randomize_parameters(model, seed=6, scale=0.4)
    axis = np.linspace(-8, 8, 160)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    density = np.exp(log_density(model, pts)).reshape(160, 160)
    from scipy.integrate import trapezoid

    mass = trapezoid(trapezoid(density, axis, axis=1), axis)
    assert abs(mass - 1.0) < 0.02


def test_flow_round_trip_four_layers(rng):
    model = build_flow(4, n_layers=4, kind="coupling", family="sigmoid_affine",
                       hidden_dims=(8,), solver=SOLVER, seed=31)
    randomize_parameters(model, seed=32, scale=0.3)
    x = rng.standard_normal((100, 4))
    y, _ = model_forward(model, x)
    back = model_inverse(model, y)
    assert np.max(np.abs(back - x)) < 1e-6


def test_model_logdet_is_sum_of_layer_logdets(rng):
    model = build_flow(3, n_layers=3, kind="autoregressive", hidden_dims=(6,),
                       family="sigmoid_affine", solver=SOLVER, seed=41)
    randomize_parameters(model, seed=42, scale=0.3)
    x = rng.standard_normal((7, 3))
    _, total = model_forward(model, x)
    acc = np.zeros(7)
    z = x
    for layer in model.layers:
        z, ld = layer_forward(layer, z)
        acc = acc + ld
    assert np.array_equal(total, acc)


def test_sample_identity_model_is_base_draw():
    model = FlowModel(3, [])
    draws = sample(model, 50, seed=9)
    expected = np.random.default_rng(9).standard_normal((50, 3))
    assert np.array_equal(draws, expected)


def test_sample_rejects_unknown_divergence_mode_naming_every_mode():
    model = FlowModel(2, [constant_scale_layer(0.5)])
    with pytest.raises(ValueError) as err:
        sample(model, 4, divergence="bogus")
    for mode in ("'raise'", "'nan'", "'drop'"):
        assert mode in str(err.value)


def constant_shift_layer(b, transform_upper):
    net = ConditionerNet([1, 3], [np.zeros((1, 3))], [np.array([0.0, b, 0.0])])
    return CouplingLayer(2, 1, transform_upper, "quadratic", net, SOLVER)


def test_sample_deterministic_and_shifted():
    b1, b2 = -0.8, 1.4
    model = FlowModel(2, [constant_shift_layer(b2, True),
                          constant_shift_layer(b1, False)])
    n = 10000
    a = sample(model, n, seed=17)
    b = sample(model, n, seed=17)
    assert np.array_equal(a, b)
    # pure-shift flow: sample mean sits at the shift, within the CLT bound
    assert np.all(np.abs(a.mean(axis=0) - [b1, b2]) < 4 / math.sqrt(n))


@pytest.mark.parametrize("kind,family", [
    ("coupling", "quadratic"),
    ("autoregressive", "sigmoid_affine"),
])
def test_sample_and_inverse_match_logdet_carrying_path(kind, family):
    # sample and model_inverse skip the log-derivative; their outputs must not move a bit
    model = build_flow(3, n_layers=3, kind=kind, family=family, hidden_dims=(8,),
                       solver=SOLVER, seed=3)
    randomize_parameters(model, seed=4, scale=0.2)
    y = sample(model, 64, seed=5)
    x = np.random.default_rng(5).standard_normal((64, 3))
    assert np.array_equal(y, model_forward(model, x)[0])
    back = y
    for layer in reversed(model.layers):
        back, _ = layer_inverse(layer, back)
    assert np.array_equal(model_inverse(model, y), back)


def test_divergence_error_carries_layer_index():
    net = ConditionerNet([1, 3], [np.zeros((1, 3))], [np.array([0.0, 0.0, 5.0])])
    hot = CouplingLayer(2, 1, True, "cubic", net, SOLVER)
    model = FlowModel(2, [PermutationLayer(2, np.array([0, 1])), hot])
    with pytest.raises(Exception) as err:
        model_forward(model, np.array([[0.0, 30.0]]))
    assert "layer 1" in str(err.value)


def test_log_density_neg_inf_outside_model_image():
    # strong cubic dynamics: reverse trajectories from far-out points escape
    net = ConditionerNet([1, 3], [np.zeros((1, 3))], [np.array([0.0, 0.0, 2.0])])
    hot = CouplingLayer(2, 1, True, "cubic", net, SOLVER)
    model = FlowModel(2, [hot])
    pts = np.array([[0.0, 0.5], [0.0, -40.0]])
    from timeflow.scalarmap import DivergenceError

    with pytest.raises(DivergenceError):
        log_density(model, pts)
    lp = log_density(model, pts, divergence="-inf")
    assert np.isfinite(lp[0])
    assert np.isneginf(lp[1])


@pytest.mark.parametrize("kind,dim,family,hidden,rows", [
    ("coupling", 2, "quadratic", 24, 64),
    ("autoregressive", 8, "sigmoid_affine", 32, 16),
])
def test_batched_refined_inverse_matches_rows(kind, dim, family, hidden, rows):
    # lanes converge after different numbers of passes, so each pass sees fewer rows
    model = build_flow(dim, n_layers=4, kind=kind, family=family, hidden_dims=(hidden,),
                       seed=100)
    randomize_parameters(model, seed=100, scale=0.25)
    y = sample(model, rows, seed=101)
    rc = RefineConfig("fixed_point", tolerance=1e-10)
    batched = model_inverse(model, y, refine=rc)
    one_by_one = np.stack([model_inverse(model, row, refine=rc) for row in y])
    np.testing.assert_allclose(batched, one_by_one, rtol=0, atol=1e-12)
    np.testing.assert_allclose(model_forward(model, batched)[0], y, rtol=0, atol=1e-8)


def layerwise_refined_inverse(model, y, rc):
    """Refined inverse one layer at a time, and the largest layer residual."""
    worst = 0.0
    for layer in reversed(model.layers):
        x, _ = layer_inverse(layer, y, refine=rc)
        worst = max(worst, float(np.max(np.abs(layer_forward(layer, x)[0] - y))))
        y = x
    return y, worst


def test_fixed_point_refinement_inverts_every_row_alone():
    # on this model 7 of the 64 rows miss the tolerance by fixed-point
    # iteration alone; the bisection fallback must mend them
    model = build_flow(2, n_layers=4, kind="coupling", family="quadratic",
                       hidden_dims=(24,), seed=100)
    randomize_parameters(model, seed=100, scale=0.4)
    rc = RefineConfig("fixed_point", tolerance=1e-10)
    for row in sample(model, 64, seed=101):
        x, worst = layerwise_refined_inverse(model, row, rc)
        assert worst <= rc.tolerance
        assert np.array_equal(model_inverse(model, row, refine=rc), x)


@pytest.mark.parametrize("kind,dim", [("coupling", 4), ("autoregressive", 3)])
def test_bisection_refinement_is_bisection(kind, dim):
    # bisection ignores max_iterations; a fixed-point pass capped at one step would not converge
    model = build_flow(dim, n_layers=3, kind=kind, family="quadratic", hidden_dims=(8,),
                       seed=3)
    randomize_parameters(model, seed=4, scale=0.25)
    y = sample(model, 32, seed=5)
    rc = RefineConfig("bisection", max_iterations=1)
    x, worst = layerwise_refined_inverse(model, y, rc)
    assert worst <= rc.tolerance
    np.testing.assert_array_equal(model_inverse(model, y, refine=rc), x)


@pytest.mark.parametrize("family", ["quadratic", "cubic"])
def test_refinement_that_misses_names_the_rows_that_miss_alone(family):
    # a tolerance of one subnormal asks for a zero residual, which some rows
    # reach and others miss even after the bisection fallback; a row whose
    # kept half is zero meets a zero conditioner output (zero biases), an
    # identity map, so it inverts exactly
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
    with pytest.raises(DivergenceError) as err:
        model_inverse(model, y, refine=rc)
    assert err.value.indices == alone


CHECKPOINT_KEYS = {
    "coupling": ["kind", "split", "transform_upper", "family", "solver", "conditioner"],
    "autoregressive": ["kind", "family", "ordering", "solver", "conditioner"],
    "permutation": ["kind", "perm"],
}


@pytest.mark.parametrize("kind,build,sha256", [
    ("coupling", dict(dim=4, n_layers=3, family="quadratic", hidden_dims=(5,),
                      solver=SolverConfig(steps=8), seed=7),
     "f9df40dfc38a0cf665e3678f33774718997c0bdbfe3c200f5822786e5de2fb26"),
    ("autoregressive", dict(dim=3, n_layers=2, family="sigmoid_affine", hidden_dims=(6,),
                            solver=SolverConfig(steps=12), seed=9),
     "186bd1c653b74082a14950b4cb89ca234ae7acf814494f62b2d858c2e5980022"),
])
def test_checkpoint_format_is_stable(tmp_path, kind, build, sha256):
    # the hashes are those of the files this format has always written
    model = build_flow(kind=kind, **build)
    randomize_parameters(model, seed=build["seed"] + 1, scale=0.3)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    doc = json.loads(path.read_text())
    assert list(doc) == ["format", "version", "dim", "layers"]
    assert {layer["kind"] for layer in doc["layers"]} == {kind, "permutation"}
    for layer in doc["layers"]:
        assert list(layer) == CHECKPOINT_KEYS[layer["kind"]]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_checkpoint_round_trip_bit_exact(tmp_path, rng):
    model = build_flow(3, n_layers=3, kind="autoregressive", hidden_dims=(6,),
                       family="cubic", solver=SolverConfig(steps=12), seed=51)
    randomize_parameters(model, seed=52, scale=0.1)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.dim == model.dim
    for a, b in zip(model.parameters(), loaded.parameters()):
        assert np.array_equal(a, b)
    x = 0.5 * rng.standard_normal((5, 3))
    assert np.array_equal(log_density(model, x), log_density(loaded, x))
    # permutations and solver configs survive too
    y0, ld0 = model_forward(model, x)
    y1, ld1 = model_forward(loaded, x)
    assert np.array_equal(y0, y1) and np.array_equal(ld0, ld1)


def test_checkpoint_of_another_version_is_refused(tmp_path):
    model = build_flow(2, n_layers=2, hidden_dims=(4,), seed=0)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    doc = json.loads(path.read_text())
    doc["version"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(path) in str(err.value) and "version 2" in str(err.value)


@pytest.mark.parametrize("spoil,named", [
    (lambda doc: doc.pop("dim"), "'dim'"),
    (lambda doc: doc.update(dim=None), "'dim'"),
    (lambda doc: doc.update(layers=5), "'layers'"),
    (lambda doc: doc["layers"][1].pop("kind"), "'kind'"),
    (lambda doc: doc["layers"][0].pop("solver"), "'solver'"),
    (lambda doc: doc["layers"].__setitem__(2, []), "'layers' (layer 2)"),
    (lambda doc: doc["layers"][0]["conditioner"].update(activation="relu"), "'relu'"),
], ids=["no-dim", "dim-null", "layers-int", "no-kind", "no-solver", "layer-list", "relu"])
def test_malformed_checkpoint_is_refused(tmp_path, spoil, named):
    model = build_flow(2, n_layers=2, hidden_dims=(4,), seed=0)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    doc = json.loads(path.read_text())
    spoil(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(path) in str(err.value) and named in str(err.value)


def test_autoregressive_checkpoint_with_another_ordering_is_refused(tmp_path):
    # a layer has the one coordinate order 0..D-1; permutation layers reorder
    model = build_flow(2, n_layers=2, kind="autoregressive", hidden_dims=(4,), seed=0)
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    doc = json.loads(path.read_text())
    assert doc["layers"][2]["ordering"] == [0, 1]
    doc["layers"][2]["ordering"] = [1, 0]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(path) in str(err.value) and "(layer 2)" in str(err.value)
    assert "[1, 0]" in str(err.value)


def test_layer_validation():
    net = init_net([1, 3], seed=0)
    with pytest.raises(ValueError):
        CouplingLayer(2, 0, True, "quadratic", net, SOLVER)
    with pytest.raises(ValueError):
        CouplingLayer(2, 1, True, "quadratic", init_net([2, 3], seed=0), SOLVER)
    with pytest.raises(ValueError):
        AutoregressiveLayer(2, "quadratic", init_net([2, 6], seed=0), SOLVER)
    with pytest.raises(ValueError):
        PermutationLayer(3, np.array([0, 1, 1]))
    with pytest.raises(ValueError):
        FlowModel(3, [PermutationLayer(2, np.array([1, 0]))])


def test_build_flow_refuses_an_unknown_family():
    # a layer checks its family when it is built, not at its first solve; a
    # custom integrand has no (a, b, c) for a conditioner to supply
    for kind in ("coupling", "autoregressive"):
        for family in ("nope", "custom"):
            with pytest.raises(ValueError, match=f"unknown integrand family '{family}'"):
                build_flow(2, n_layers=1, kind=kind, family=family, hidden_dims=(4,))


def test_build_flow_alternates_and_permutes():
    model = build_flow(4, n_layers=3, kind="coupling", hidden_dims=(4,), seed=0)
    kinds = [type(l).__name__ for l in model.layers]
    assert kinds == ["CouplingLayer", "PermutationLayer", "CouplingLayer",
                     "PermutationLayer", "CouplingLayer"]
    flags = [l.transform_upper for l in model.layers if isinstance(l, CouplingLayer)]
    assert flags == [True, False, True]


def test_flow_operations_leave_inputs_and_parameters_unchanged():
    rng = np.random.default_rng(4)
    for kind, family in (("coupling", "quadratic"), ("autoregressive", "sigmoid_affine")):
        model = build_flow(3, n_layers=2, kind=kind, family=family, hidden_dims=(6,),
                           solver=SOLVER, seed=2)
        randomize_parameters(model, seed=3, scale=0.2)
        params = [p.copy() for p in model.parameters()]
        y = rng.standard_normal((7, 3))
        before = y.copy()
        log_density(model, y)
        model_inverse(model, y)
        model_inverse(model, y, refine=RefineConfig("fixed_point", tolerance=1e-10))
        model_forward(model, y)
        sample(model, 9, seed=1)
        assert y.tobytes() == before.tobytes()
        for p, q in zip(model.parameters(), params):
            assert p.tobytes() == q.tobytes()


def test_log_density_with_params_is_that_of_a_model_set_to_them():
    rng = np.random.default_rng(5)
    for kind, family in (("coupling", "quadratic"), ("autoregressive", "cubic")):
        model = build_flow(3, n_layers=2, kind=kind, family=family, hidden_dims=(6,),
                           solver=SOLVER, seed=2)
        randomize_parameters(model, seed=3, scale=0.2)
        before = [p.copy() for p in model.parameters()]
        params = [p + 0.01 * rng.standard_normal(p.shape) for p in before]
        y = rng.standard_normal((7, 3))
        got = log_density(model, y, params=params)
        for p, q in zip(model.parameters(), before):
            assert p.tobytes() == q.tobytes()
        model.set_parameters(params)
        assert got.tobytes() == log_density(model, y).tobytes()


@pytest.mark.parametrize("change", ["one too many", "one too few", "wrong shape"])
def test_set_parameters_rejects_a_mismatch_and_changes_nothing(change):
    model = build_flow(3, n_layers=3, kind="coupling", hidden_dims=(6,), solver=SOLVER, seed=2)
    randomize_parameters(model, seed=3, scale=0.2)
    before = [p.copy() for p in model.parameters()]
    arrays = [p + 1.0 for p in before]
    if change == "one too many":
        arrays.append(np.zeros(1))
    elif change == "one too few":
        arrays.pop()
    else:
        arrays[-1] = np.zeros(arrays[-1].size + 1)
    with pytest.raises(ValueError):
        model.set_parameters(arrays)
    with pytest.raises(ValueError):  # a network alone checks before it writes, too
        model.layers[0].conditioner.set_param_arrays(arrays[:2] + [np.zeros((1, 1))] * 2)
    for p, q in zip(model.parameters(), before):
        assert p.tobytes() == q.tobytes()


@pytest.mark.parametrize("kind", ["coupling", "autoregressive"])
def test_flow_operations_check_the_input_width(kind, rng):
    model = build_flow(3, n_layers=2, kind=kind, family="sigmoid_affine", hidden_dims=(5,),
                       seed=0)
    randomize_parameters(model, seed=1, scale=0.3)
    layer = model.layers[0]
    operations = [lambda z: log_density(model, z), lambda z: model_inverse(model, z),
                  lambda z: model_forward(model, z), lambda z: layer_forward(layer, z),
                  lambda z: layer_inverse(layer, z)]
    for z in (rng.standard_normal((6, 4)), rng.standard_normal((6, 2)), np.zeros(4)):
        for op in operations:
            with pytest.raises(ValueError) as err:
                op(z)
            assert "width 3" in str(err.value) and str(z.shape) in str(err.value)
    with pytest.raises(ValueError) as err:
        nll_and_grad(model, rng.standard_normal((6, 4)))
    assert "(n, 3)" in str(err.value) and "(6, 4)" in str(err.value)
