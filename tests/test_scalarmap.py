"""Scalar map: integrand families, forward/inverse, derivative, sensitivities."""

import math

import numpy as np
import pytest

from conftest import FAMILIES, draw_stable_cases
from timeflow.autodiff import Node, backward, grad_or_zeros
from timeflow.integrands import family_functions
from timeflow.flow import _solve
from timeflow.scalarmap import DEFAULT_GUARD, integrate, solve_node
from timeflow import (
    DivergenceError,
    Integrand,
    NonFiniteError,
    RefineConfig,
    SolverConfig,
    derivative,
    eval_integrand,
    eval_integrand_dv,
    forward,
    forward_vjp,
    inverse,
)

RK4_16 = SolverConfig(scheme="rk4", steps=16)
RK4_64 = SolverConfig(scheme="rk4", steps=64)


# --- integrand families ------------------------------------------------------


def test_integrand_values_hand_checked():
    assert eval_integrand(Integrand.quadratic(0, 0, 0), 3.2, 0.5) == 0.0
    assert eval_integrand(Integrand.quadratic(1, 2, 0), 2.0, 0.0) == 4.0
    assert eval_integrand(Integrand.cubic(0, 0, 2), -1.5, 1.0) == pytest.approx(-6.75)


def test_integrand_dv_hand_checked():
    assert eval_integrand_dv(Integrand.quadratic(1, 5, 0), 17.3, 0.0) == 1.0
    assert eval_integrand_dv(Integrand.quadratic(0, 0, 1), 3.0, 0.0) == 6.0
    assert eval_integrand_dv(Integrand.sigmoid_affine(0, 0, 1), 0.0, 0.0) == pytest.approx(0.25)


def test_integrand_params_must_be_finite():
    with pytest.raises(ValueError):
        Integrand.quadratic(np.inf, 0, 0)
    with pytest.raises(ValueError):
        Integrand("nonsense", 0, 0, 0)
    with pytest.raises(ValueError):
        Integrand("custom")


def test_integrand_nonfinite_result_reported():
    big = Integrand.cubic(0, 0, 1e308)
    with pytest.raises(NonFiniteError):
        eval_integrand(big, 1e200, 0.0)


def test_dv_matches_finite_differences(rng):
    h = 1e-6
    for _ in range(30):
        family = FAMILIES[rng.integers(3)]
        g = Integrand(family, *rng.uniform(-2, 2, 3))
        v = rng.uniform(-3, 3)
        t = rng.uniform(0, 1)
        fd = (eval_integrand(g, v + h, t) - eval_integrand(g, v - h, t)) / (2 * h)
        assert eval_integrand_dv(g, v, t) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_builtin_families_time_independent(rng):
    for family in FAMILIES:
        g = Integrand(family, *rng.uniform(-2, 2, 3))
        v = rng.uniform(-2, 2)
        assert eval_integrand(g, v, 0.0) == eval_integrand(g, v, 0.77)


# --- forward -----------------------------------------------------------------


def test_forward_identity_map():
    res = forward(Integrand.quadratic(0, 0, 0), RK4_16, 0.7)
    assert res.y == 0.7
    assert res.log_deriv == 0.0


def test_forward_constant_integrand_shifts():
    res = forward(Integrand.quadratic(0, 2.5, 0), RK4_16, 1.0)
    assert res.y == pytest.approx(3.5, abs=1e-14)
    assert res.log_deriv == 0.0


def test_forward_exponential_closed_form():
    res = forward(Integrand.quadratic(1, 0, 0), RK4_64, 1.0)
    assert abs(res.y - math.e) < 1e-8
    assert res.log_deriv == pytest.approx(1.0, abs=1e-14)


def test_forward_vectorized_matches_scalar(rng):
    g = Integrand.sigmoid_affine(0.4, -0.2, 0.9)
    xs = rng.uniform(-2, 2, 7)
    batch = forward(g, RK4_16, xs)
    for i, x in enumerate(xs):
        single = forward(g, RK4_16, float(x))
        assert batch.y[i] == single.y
        assert batch.log_deriv[i] == single.log_deriv


def test_forward_trajectory_nodes():
    res = forward(Integrand.quadratic(0, 1, 0), SolverConfig(steps=4), 0.0,
                  keep_trajectory=True)
    assert res.trajectory.shape == (5,)
    assert np.allclose(res.trajectory, [0, 0.25, 0.5, 0.75, 1.0])


def test_forward_divergence_raises_with_indices():
    g = Integrand.cubic(0, 0, 2)
    with pytest.raises(DivergenceError) as err:
        forward(g, RK4_16, np.array([0.1, 50.0, 0.2]))
    assert err.value.indices == [1]
    # 2-D lanes: sorted, unique row numbers, never (row, column) pairs
    x = np.array([[0.1, 0.2], [60.0, 50.0], [0.3, 0.1], [0.2, 70.0]])
    with pytest.raises(DivergenceError) as err:
        forward(g, RK4_16, x)
    assert err.value.indices == [1, 3]
    assert "rows [1, 3]" in str(err.value)
    # a taped flow solve (one solve node) raises the same error, whatever the mode
    params = [Node(np.full((4, 1), p)) for p in (0.0, 0.0, 2.0)]
    with pytest.raises(DivergenceError) as err:
        _solve("cubic", *params, x, RK4_16, DEFAULT_GUARD, divergence="nan")
    assert err.value.indices == [1, 3]


def test_forward_divergence_nan_mode():
    g = Integrand.cubic(0, 0, 2)
    res = forward(g, RK4_16, np.array([0.1, 50.0, 0.2]), divergence="nan")
    assert np.isnan(res.y[1])
    assert np.isfinite(res.y[[0, 2]]).all()


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(steps=0)
    with pytest.raises(ValueError):
        SolverConfig(scheme="rk5")
    with pytest.raises(ValueError):
        forward(Integrand.quadratic(0, 0, 0), SolverConfig(direction="reverse"), 1.0)


# --- inverse -----------------------------------------------------------------


def test_inverse_identity_and_shift():
    rev = SolverConfig(steps=16, direction="reverse")
    assert inverse(Integrand.quadratic(0, 0, 0), rev, 0.7).x == 0.7
    assert inverse(Integrand.quadratic(0, 2.5, 0), rev, 3.5).x == pytest.approx(1.0, abs=1e-14)


def test_inverse_exponential_closed_form():
    rev = SolverConfig(steps=64, direction="reverse")
    refine = RefineConfig(method="fixed_point", tolerance=1e-12, max_iterations=30)
    res = inverse(Integrand.quadratic(1, 0, 0), rev, math.e, refine)
    assert abs(res.x - 1.0) < 1e-8
    assert res.converged


def test_inverse_requires_reverse_config():
    with pytest.raises(ValueError):
        inverse(Integrand.quadratic(0, 0, 0), RK4_16, 1.0)


# --- derivative --------------------------------------------------------------


def test_derivative_shift_is_one():
    assert derivative(Integrand.quadratic(0, 7, 0), RK4_16, -2.3) == 1.0


def test_derivative_exponential():
    assert derivative(Integrand.quadratic(1, 0, 0), RK4_16, 0.4) == pytest.approx(math.e, abs=1e-12)


def test_derivative_matches_central_difference():
    g = Integrand.quadratic(0.3, -0.2, 0.1)
    x, h = 0.5, 1e-5
    fd = (forward(g, RK4_64, x + h).y - forward(g, RK4_64, x - h).y) / (2 * h)
    assert derivative(g, RK4_64, x) == pytest.approx(fd, rel=1e-6)


# --- forward_vjp -------------------------------------------------------------


def test_vjp_frozen_trajectory_closed_form():
    # zero integrand: trajectory sits at x, so dy/d(a,b,c) = (x, 1, x^2)
    x = 0.37
    out = forward_vjp(Integrand.quadratic(0, 0, 0), RK4_16, x, 1.0, 0.0)
    assert out.dx == pytest.approx(1.0, abs=1e-14)
    assert out.dparams[0] == pytest.approx(x, abs=1e-13)
    assert out.dparams[1] == pytest.approx(1.0, abs=1e-13)
    assert out.dparams[2] == pytest.approx(x * x, abs=1e-13)


def test_vjp_shift_sensitivity_is_one():
    for b in (-1.5, 0.0, 2.0):
        out = forward_vjp(Integrand.quadratic(0, b, 0), RK4_16, 0.9, 1.0, 0.0)
        assert out.dparams[1] == pytest.approx(1.0, abs=1e-13)


def test_vjp_matches_finite_differences(rng):
    cases = draw_stable_cases(rng, 25)
    h = 1e-6
    for g, x in cases:
        cot_y, cot_l = rng.standard_normal(2)
        got = forward_vjp(g, RK4_16, x, cot_y, cot_l)

        def out(a, b, c, xx):
            r = forward(Integrand(g.family, a, b, c), RK4_16, xx)
            return cot_y * r.y + cot_l * r.log_deriv

        a, b, c = g.params()
        fd = [
            (out(a, b, c, x + h) - out(a, b, c, x - h)) / (2 * h),
            (out(a + h, b, c, x) - out(a - h, b, c, x)) / (2 * h),
            (out(a, b + h, c, x) - out(a, b - h, c, x)) / (2 * h),
            (out(a, b, c + h, x) - out(a, b, c - h, x)) / (2 * h),
        ]
        for got_v, fd_v in zip([got.dx, *got.dparams], fd):
            assert got_v == pytest.approx(fd_v, rel=1e-5, abs=1e-7)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("scheme", ["rk4", "euler"])
@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_solve_node_matches_per_op_tape(family, scheme, direction, rng):
    # the per-op tape through `integrate` is the reference gradient
    cfg = SolverConfig(scheme=scheme, steps=8, direction=direction)
    x0 = rng.uniform(-1.0, 1.0, (6, 3))
    params = [rng.uniform(-0.6, 0.6, (6, 3)) for _ in range(3)]
    cot_y, cot_l = rng.standard_normal((2, 6, 3))
    value, dv = family_functions(family)

    x = Node(x0)
    pa, pb, pc = (Node(p) for p in params)
    y, l, _ = integrate(lambda v, t: value(pa, pb, pc, v, t),
                        lambda v, t: dv(pa, pb, pc, v, t), x, cfg)
    backward([(y, cot_y), (l, cot_l)])
    want = [grad_or_zeros(n) for n in (x, pa, pb, pc)]

    x = Node(x0)
    nodes = tuple(Node(p) for p in params)
    stages = []
    y_raw, l_raw, _ = integrate(lambda v, t: value(*params, v, t),
                                lambda v, t: dv(*params, v, t), x0, cfg, stages=stages)
    y_node, l_node = solve_node(family, x, nodes, cfg, y_raw, l_raw, stages)
    assert np.array_equal(y_node.value, y.value)
    assert np.array_equal(l_node.value, l.value)
    backward([(y_node, cot_y), (l_node, cot_l)])
    for ref, got in zip(want, (grad_or_zeros(n) for n in (x, *nodes))):
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("scheme", ["rk4", "euler"])
@pytest.mark.parametrize("direction", ["forward", "reverse"])
@pytest.mark.parametrize("want_log_deriv", [True, False])
def test_slope_path_matches_two_function_path(family, scheme, direction, want_log_deriv,
                                              rng):
    # one phi per stage point must not change a single bit of v(1) or the log-derivative
    cfg = SolverConfig(scheme=scheme, steps=8, direction=direction)
    x = rng.uniform(-1.0, 1.0, (6, 3))
    params = [rng.uniform(-0.6, 0.6, (6, 3)) for _ in range(3)]
    value, dv = family_functions(family)
    y2, l2, _ = integrate(lambda v, t: value(*params, v, t),
                          lambda v, t: dv(*params, v, t), x, cfg,
                          want_log_deriv=want_log_deriv)
    y1, l1, _ = integrate(lambda v, t: value(*params, v, t, with_dv=True), None, x, cfg,
                          want_log_deriv=want_log_deriv)
    assert np.array_equal(y1, y2)
    if want_log_deriv:
        assert np.array_equal(l1, l2)
    else:
        assert l1 is None and l2 is None


def test_solve_node_broadcast_parameters(rng):
    # (n, 1) parameters shared by the k lanes of a row get the sum of their gradients
    x0 = rng.uniform(-1.0, 1.0, (4, 3))
    params = [rng.uniform(-0.5, 0.5, (4, 1)) for _ in range(3)]
    value, dv = family_functions("sigmoid_affine")
    stages = []
    y, l, _ = integrate(lambda v, t: value(*params, v, t),
                        lambda v, t: dv(*params, v, t), x0, RK4_16, stages=stages)
    nodes = tuple(Node(p) for p in params)
    y_node, l_node = solve_node("sigmoid_affine", x0, nodes, RK4_16, y, l, stages)
    backward([(y_node, np.ones((4, 3))), (l_node, np.ones((4, 3)))])
    assert all(n.grad.shape == (4, 1) for n in nodes)
    for i in range(4):
        g = Integrand("sigmoid_affine", *(float(p[i, 0]) for p in params))
        want = sum(np.array(forward_vjp(g, RK4_16, x, 1.0, 1.0).dparams) for x in x0[i])
        np.testing.assert_allclose([n.grad[i, 0] for n in nodes], want, rtol=1e-12)


def test_vjp_custom_family_gives_dx_only():
    g = Integrand.custom(lambda v, t: 0.5 * v, lambda v, t: 0.5 + 0.0 * v)
    out = forward_vjp(g, RK4_16, 1.3, 1.0, 0.0)
    assert out.dparams == (0.0, 0.0, 0.0)
    # exact for the discretized map, which sits O(h^4) from exp(1/2)
    assert out.dx == pytest.approx(math.exp(0.5), rel=1e-7)


# --- module invariants -------------------------------------------------------


def test_monotonicity_on_stable_pairs(rng):
    cfg = SolverConfig(steps=64)
    checked = 0
    while checked < 300:
        family = FAMILIES[checked % 3]
        g = Integrand(family, *rng.uniform(-2, 2, 3))
        x1, x2 = np.sort(rng.uniform(-5, 5, 2))
        if x1 == x2:
            continue
        res = forward(g, cfg, np.array([x1, x2]), divergence="nan")
        if not np.all(np.isfinite(res.y)):
            continue
        assert res.y[0] < res.y[1], (family, g.params(), x1, x2)
        checked += 1


def test_round_trip_with_refinement(rng):
    cases = draw_stable_cases(rng, 50, steps=64)
    rev = SolverConfig(steps=64, direction="reverse")
    refine = RefineConfig(method="fixed_point", tolerance=1e-11, max_iterations=15)
    for g, x in cases:
        y = forward(g, RK4_64, x).y
        res = inverse(g, rev, y, refine)
        assert abs(res.x - x) < 1e-8
        assert res.iterations <= 15


def test_rk4_convergence_order_four():
    errors = []
    for n in (8, 16, 32, 64):
        cfg = SolverConfig(scheme="rk4", steps=n)
        errors.append(abs(forward(Integrand.quadratic(1, 0, 0), cfg, 1.0).y - math.e))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    for order in orders:
        assert abs(order - 4.0) <= 0.2, orders


def test_euler_convergence_order_one():
    errors = []
    for n in (8, 16, 32, 64):
        cfg = SolverConfig(scheme="euler", steps=n)
        errors.append(abs(forward(Integrand.quadratic(1, 0, 0), cfg, 1.0).y - math.e))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    for order in orders:
        assert abs(order - 1.0) <= 0.2, orders


def test_derivative_positive_everywhere(rng):
    for g, x in draw_stable_cases(rng, 30):
        assert derivative(g, RK4_16, x) > 0.0
