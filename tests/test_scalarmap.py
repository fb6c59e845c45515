"""Scalar map: integrand families, forward/inverse, derivative, sensitivities."""

import copy
import dataclasses
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest

from conftest import FAMILIES, draw_stable_cases
from timeflow import integrands, scalarmap
from timeflow.integrands import _logistic, family_functions, family_phi
from timeflow.inversion import _map_only, refine_lanes
from timeflow.scalarmap import _adjoint, _variational_tangent, family_slope, integrate
from timeflow import (
    DivergenceError,
    Integrand,
    RefineConfig,
    SolverConfig,
    derivative,
    forward,
    forward_vjp,
    inverse,
)

RK4_16 = SolverConfig(scheme="rk4", steps=16)
RK4_64 = SolverConfig(scheme="rk4", steps=64)
SCHEMES = ["rk4"]  # the one scheme, a test parameter still so that test ids stay put


# --- integrand families ------------------------------------------------------


def g_value(g, v, t):
    return g.functions()[0](v, t)


def g_dv(g, v, t):
    return g.functions()[1](v, t)


def test_integrand_values_hand_checked():
    assert g_value(Integrand.quadratic(0, 0, 0), 3.2, 0.5) == 0.0
    assert g_value(Integrand.quadratic(1, 2, 0), 2.0, 0.0) == 4.0
    assert g_value(Integrand.cubic(0, 0, 2), -1.5, 1.0) == pytest.approx(-6.75)


def test_integrand_dv_hand_checked():
    assert g_dv(Integrand.quadratic(1, 5, 0), 17.3, 0.0) == 1.0
    assert g_dv(Integrand.quadratic(0, 0, 1), 3.0, 0.0) == 6.0
    assert g_dv(Integrand.sigmoid_affine(0, 0, 1), 0.0, 0.0) == pytest.approx(0.25)


def test_integrand_params_must_be_finite():
    with pytest.raises(ValueError):
        Integrand.quadratic(np.inf, 0, 0)
    with pytest.raises(ValueError):
        Integrand("nonsense", 0, 0, 0)
    with pytest.raises(ValueError):
        Integrand("custom")


def test_dv_matches_finite_differences(rng):
    h = 1e-6
    for _ in range(30):
        family = FAMILIES[rng.integers(3)]
        g = Integrand(family, *rng.uniform(-2, 2, 3))
        v = rng.uniform(-3, 3)
        t = rng.uniform(0, 1)
        fd = (g_value(g, v + h, t) - g_value(g, v - h, t)) / (2 * h)
        assert g_dv(g, v, t) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_builtin_families_time_independent(rng):
    for family in FAMILIES:
        g = Integrand(family, *rng.uniform(-2, 2, 3))
        v = rng.uniform(-2, 2)
        assert g_value(g, v, 0.0) == g_value(g, v, 0.77)


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
    # a custom integrand's forward_vjp solves the pair (v, dv/dx) on a trailing
    # axis, and names the same rows at the same time; a 0-d x names none
    custom = Integrand.custom(*g.functions())
    for lanes in (np.array([0.1, 50.0, 0.2]), x, np.asarray(50.0)):
        with pytest.raises(DivergenceError) as want:
            forward(g, RK4_16, lanes)
        with pytest.raises(DivergenceError) as err:
            forward_vjp(custom, RK4_16, lanes, 1.0, 0.0)
        assert str(err.value) == str(want.value) and err.value.indices == want.value.indices


def test_forward_divergence_nan_mode():
    g = Integrand.cubic(0, 0, 2)
    res = forward(g, RK4_16, np.array([0.1, 50.0, 0.2]), divergence="nan")
    assert np.isnan(res.y[1])
    assert np.isfinite(res.y[[0, 2]]).all()


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(steps=0)
    for steps in (8.0, True, np.float64(8.0), "8"):  # a float would fail at the first solve
        with pytest.raises(ValueError, match=re.escape(f"integer, not {steps!r}")):
            SolverConfig(steps=steps)
    assert SolverConfig(steps=np.int64(8)).steps == 8
    for scheme in ("rk5", "euler"):  # RK4 is the one scheme
        with pytest.raises(ValueError, match=f"'{scheme}'"):
            SolverConfig(scheme=scheme)
    with pytest.raises(ValueError):
        forward(Integrand.quadratic(0, 0, 0), SolverConfig(direction="reverse"), 1.0)


def test_reversed_is_one_frozen_object_per_config():
    for cfg in (RK4_16, SolverConfig(steps=5, direction="reverse")):
        rev = cfg.reversed()
        assert rev is cfg.reversed() and rev.direction != cfg.direction
        assert rev.reversed() == cfg and rev.steps == cfg.steps
        assert copy.deepcopy(cfg).reversed() is rev  # the solver of a deep-copied model
        with pytest.raises(dataclasses.FrozenInstanceError):
            rev.steps = 3  # so sharing it is safe


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


def _complex_phi(family):
    """The family's phi and phi', safe for complex v (the solver's sigmoid casts to float)."""
    phi, dphi, _ = family_phi(family)
    if family == "sigmoid_affine":
        phi = lambda v: 1.0 / (1.0 + np.exp(-v))  # noqa: E731
    return phi, dphi


def _config_or_refusal(scheme, **kw):
    """The solve's config; for "euler", the scheme RK4 replaced, None once its
    refusal naming the scheme is checked, so no Euler config reaches `_adjoint`."""
    if scheme == "euler":
        with pytest.raises(ValueError, match="'euler'"):
            SolverConfig(scheme=scheme, **kw)
        return None
    return SolverConfig(scheme=scheme, **kw)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("scheme", ["rk4", "euler"])
@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_adjoint_matches_complex_step(family, scheme, direction, rng):
    # complex-step derivatives (Squire & Trapp) of the same solver loop are the
    # reference: lanes are independent, so one perturbed solve per input gives
    # every lane's derivative, to rounding
    cfg = _config_or_refusal(scheme, steps=8, direction=direction)
    if cfg is None:
        return
    phi, dphi = _complex_phi(family)
    x0 = rng.uniform(-1.0, 1.0, (6, 3))
    cot_y, cot_l = rng.standard_normal((2, 6, 3))
    step = 1e-30
    for width in (3, 1):  # (n, k) parameters, and (n, 1) ones shared by a row's lanes
        params = [rng.uniform(-0.6, 0.6, (6, width)) for _ in range(3)]

        def contracted(x, a, b, c):
            y, l, _ = integrate(lambda v, t: a * v + b + c * phi(v),
                                lambda v, t: a + c * dphi(v, phi(v)), x, cfg)
            return cot_y * y + cot_l * l

        _, _, slab = integrate(family_slope(family_functions(family)[0], *params, True), None,
                               x0, cfg, keep_trajectory=True)
        got = _adjoint(family, params, cfg, slab, cot_y, cot_l)
        inputs = [x0, *params]
        for i, (g, p) in enumerate(zip(got, inputs)):
            shifted = list(inputs)
            shifted[i] = p + 1j * step
            want = contracted(*shifted).imag / step
            if p.shape[1] == 1:
                g, want = g.sum(axis=1, keepdims=True), want.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(g, want, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("scheme", ["rk4", "euler"])
@pytest.mark.parametrize("direction", ["forward", "reverse"])
@pytest.mark.parametrize("rows", [128, 256])
def test_adjoint_matches_complex_step_at_trained_shapes(family, scheme, direction, rows,
                                                         rng):
    # the (rows, 1) lanes and 16 steps of a training solve, where the sweep's
    # stacked arrays hold every step of a stage in one block; with |a|, |b|,
    # |c| <= 0.25, |v'| <= 0.25*(|v|^3 + |v| + 1) takes a lane started in
    # [-1, 1] more than unit time to reach infinity
    cfg = _config_or_refusal(scheme, steps=16, direction=direction)
    if cfg is None:
        return
    phi, dphi = _complex_phi(family)
    x0 = rng.uniform(-1.0, 1.0, (rows, 1))
    params = [rng.uniform(-0.25, 0.25, (rows, 1)) for _ in range(3)]
    cot_y, cot_l = rng.standard_normal((2, rows, 1))
    _, _, slab = integrate(family_slope(family_functions(family)[0], *params, False), None,
                           x0, cfg, want_log_deriv=False, keep_trajectory=True)
    *got, _ = _adjoint(family, params, cfg, slab, cot_y, cot_l)
    inputs = [x0, *params]
    for i, g in enumerate(got):
        shifted = list(inputs)
        shifted[i] = inputs[i] + 1e-30j
        x, a, b, c = shifted
        y, l, _ = integrate(lambda v, t: a * v + b + c * phi(v),
                            lambda v, t: a + c * dphi(v, phi(v)), x, cfg)
        np.testing.assert_allclose(g, (cot_y * y + cot_l * l).imag / 1e-30,
                                   rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("scheme", ["rk4", "euler"])
@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_adjoint_step_factor_is_tau(family, scheme, direction, rng):
    # with cot_l = 0 and cot_y = 1 the sweep multiplies the step factors A_k
    # alone, so dx is the product of the tangent factors tau_k over the stage
    # points it rebuilds from the slab; the reference reads no slab: it is
    # dv(1)/dx from one solve of the variational equation w' = (dg/dv)*w
    # beside the map, which RK4 carries through the same steps
    cfg = _config_or_refusal(scheme, steps=16, direction=direction)
    if cfg is None:
        return
    x = rng.uniform(-1.0, 1.0, (6, 3))
    params = [rng.uniform(-0.6, 0.6, (6, 3)) for _ in range(3)]
    value, dv = family_functions(family)
    _, _, slab = integrate(family_slope(value, *params, False), None, x, cfg,
                           want_log_deriv=False, keep_trajectory=True)
    dx = _adjoint(family, params, cfg, slab, np.ones(x.shape), np.zeros(x.shape))[0]
    tau = _variational_tangent(lambda v, t: value(*params, v, t),
                               lambda v, t: dv(*params, v, t), x, cfg)
    np.testing.assert_allclose(dx, tau, rtol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_adjoint_log_deriv_is_the_solvers_bit_for_bit(family, direction, rng):
    # training's log-det is the adjoint's: it must be the log-derivative that a
    # solve with dg/dv accumulates, byte for byte, on (n, k) and (n, 1)
    # parameters and on real and complex-step lanes
    cfg = SolverConfig(steps=8, direction=direction)
    value = family_functions(family)[0]
    x = rng.uniform(-1.0, 1.0, (6, 3))
    cot_y, cot_l = rng.standard_normal((2, 6, 3))
    for width in (3, 1):
        a, b, c = (rng.uniform(-0.6, 0.6, (6, width)) for _ in range(3))
        for params in ((a, b, c), (a, b + 1e-30j, c), (a, b, c + 1e-30j)):
            want = integrate(family_slope(value, *params, True), None, x, cfg)[1]
            _, _, slab = integrate(family_slope(value, *params, False), None, x, cfg,
                                   want_log_deriv=False, keep_trajectory=True)
            got = _adjoint(family, params, cfg, slab, cot_y, cot_l)[-1]
            assert got.dtype == want.dtype == np.result_type(*params)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_dg_dv_row_never_feeds_v(family, scheme, direction, rng):
    # g and dg/dv share each stage's slope array and one weighted sum; v and
    # every step start must not depend on whether the dg/dv row is there
    cfg = SolverConfig(scheme=scheme, steps=8, direction=direction)
    x = rng.uniform(-1.0, 1.0, (6, 3))
    params = [rng.uniform(-0.6, 0.6, (6, 3)) for _ in range(3)]
    value = family_functions(family)[0]
    (y1, l1, slab1), (y0, l0, slab0) = (
        integrate(family_slope(value, *params, want), None, x, cfg, want_log_deriv=want,
                  keep_trajectory=True) for want in (True, False))
    assert l0 is None and l1.shape == x.shape
    assert y1.tobytes() == y0.tobytes() and slab1.tobytes() == slab0.tobytes()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("scheme", SCHEMES)
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
    y1, l1, _ = integrate(family_slope(value, *params, want_log_deriv), None,
                          x, cfg, want_log_deriv=want_log_deriv)
    assert np.array_equal(y1, y2)
    if want_log_deriv:
        assert np.array_equal(l1, l2)
    else:
        assert l1 is None and l2 is None
    # the scalar-map calls that run this solve, against the same solve of g.functions()
    g = Integrand(family, *rng.uniform(-0.6, 0.6, 3))
    for z in (x, 0.3):  # a 0-d input still gives a float
        want_y, want_l, _ = integrate(*g.functions(), np.asarray(z), cfg,
                                      want_log_deriv=want_log_deriv)
        if direction == "forward" and want_log_deriv:
            res = forward(g, cfg, z)
            pairs, scalars = [(res.y, want_y), (res.log_deriv, want_l)], [res.y, res.log_deriv]
        elif direction == "forward":
            _, _, slab = integrate(*g.functions(), np.asarray(z), cfg, want_log_deriv=False,
                                   keep_trajectory=True)
            cots = [np.broadcast_to(w, np.shape(z)) for w in (0.7, -0.4)]
            dx, *dp, _ = _adjoint(family, g.params(), cfg, slab, *cots)
            vjp = forward_vjp(g, cfg, z, 0.7, -0.4)
            pairs = [(_map_only(g, cfg)(z), want_y), (vjp.dx, dx),
                     (vjp.dparams, [float(np.sum(p)) for p in dp])]
            scalars = [vjp.dx]
        elif not want_log_deriv:
            rc = RefineConfig("fixed_point", tolerance=1e-12)
            plain, refined = inverse(g, cfg, z), inverse(g, cfg, z, rc)

            def q(v, lanes):
                return integrate(*g.functions(), v, cfg.reversed(), want_log_deriv=False,
                                 divergence="nan")[0]

            ref = refine_lanes(q, np.ravel(z), np.ravel(want_y), rc)
            pairs = [(plain.x, want_y), (refined.x, ref.x.reshape(np.shape(z))),
                     (refined.residual, ref.residual.reshape(np.shape(z)))]
            scalars = [plain.x, refined.x]
        else:  # no scalar-map call solves in reverse with the log-derivative
            continue
        for got, want in pairs:
            assert np.array_equal(got, want)
        if np.ndim(z) == 0:
            assert all(type(v) is float for v in scalars)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_only_forward_asks_for_dg_dv(family, scheme, monkeypatch, rng):
    # every built-in-family solve makes one value call per stage point, and only
    # forward, which accumulates the log-derivative, asks it for dg/dv; the
    # adjoint in forward_vjp asks for dg/dv at all four stage points, with one
    # call per point over all the steps, whose g rebuilds points 2-4
    calls = []

    def spied(name):
        value, dv = family_functions(name)

        def spy_value(*args, with_dv=False, **kw):
            calls.append(with_dv)
            return value(*args, with_dv=with_dv, **kw)

        def spy_dv(*args):
            calls.append("dv")
            return dv(*args)

        return spy_value, spy_dv

    monkeypatch.setattr(scalarmap, "family_functions", spied)
    cfg = SolverConfig(scheme=scheme, steps=8)
    points = cfg.steps * 4
    g = Integrand(family, *rng.uniform(-0.6, 0.6, 3))
    x = rng.uniform(-1.0, 1.0, (6, 3))
    for run, want in ((lambda: forward(g, cfg, x), [True] * points),
                      (lambda: forward_vjp(g, cfg, x, 1.0, 0.5), [False] * points + [True] * 4),
                      (lambda: inverse(g, cfg.reversed(), x), [False] * points),
                      (lambda: _map_only(g, cfg)(x), [False] * points)):
        calls.clear()
        run()
        assert calls == want
    calls.clear()
    inverse(g, cfg.reversed(), x, RefineConfig("fixed_point"))
    assert calls and set(calls) == {False}


# --- solver buffers ----------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("with_dv", [True, False])
def test_value_out_is_bitwise_and_returns_buffers(family, with_dv, rng):
    value, _ = family_functions(family)
    v = rng.uniform(-2.0, 2.0, (5, 3))
    for params in ([rng.uniform(-1, 1, (5, 3)) for _ in range(3)],
                   [rng.uniform(-1, 1, (5, 1)) for _ in range(3)],
                   [0.4, -0.3, 0.7]):
        want = value(*params, v, 0.5, with_dv=with_dv)
        for dg_buffer in (True, False):  # without a dg buffer dg/dv is allocated
            out = (np.empty(v.shape), np.empty(v.shape) if dg_buffer else None,
                   np.empty(v.shape))
            v_before = v.copy()
            got = value(*params, v, 0.5, with_dv=with_dv, out=out)
            assert v.tobytes() == v_before.tobytes()
            pairs = zip(got, want) if with_dv else [(got, want)]
            for i, (g, w) in enumerate(pairs):
                assert g.tobytes() == w.tobytes()
                if out[i] is not None:
                    assert g is out[i]


# Numpy calls per RK4 step of a (256, 1) family solve, (value-only, with dg/dv).
# They were (31, 36), (35, 44) and (47, 60) while the guard took two calls. A
# Python float operand makes a call slower than a 0-d array does.
CALLS_PER_STEP = {"quadratic": (30, 35), "cubic": (34, 43), "sigmoid_affine": (46, 59)}


class Counted:
    """A numpy function or ufunc method that logs each call's (operands, result)."""

    def __init__(self, fn, log):
        self.fn, self.log = fn, log

    def __call__(self, *args, **kwargs):
        result = self.fn(*args, **kwargs)
        self.log.append(((*args, *kwargs.values()), result))
        return result

    def __getattr__(self, name):  # a ufunc method, such as maximum.reduce
        return Counted(getattr(self.fn, name), self.log)


def _count_calls(monkeypatch, numpy_names):
    """Route these names of numpy, and every ufunc that the family formulas
    call, through `Counted`; returns the log that they share."""
    log = []
    for name in numpy_names:
        monkeypatch.setattr(np, name, Counted(getattr(np, name), log))
    for name in ("add", "divide", "exp", "multiply", "negative", "subtract"):
        monkeypatch.setattr(integrands, name, Counted(getattr(integrands, name), log))
    return log


@pytest.mark.parametrize("family", FAMILIES)
def test_step_loop_calls_are_few_and_take_no_python_float(family, monkeypatch, rng):
    # wrap every ufunc name and np.vdot that `integrate` and the slopes call,
    # and count over the extra 8 steps of a 16-step solve, so setup cancels
    calls = _count_calls(monkeypatch, ("add", "multiply", "absolute", "maximum", "vdot"))
    x = rng.uniform(-1.0, 1.0, (256, 1))
    params = [rng.uniform(-0.3, 0.3, (256, 1)) for _ in range(3)]
    value = family_functions(family)[0]
    for want_dv, most in zip((False, True), CALLS_PER_STEP[family]):
        counts = []
        for steps in (8, 16):
            calls.clear()
            integrate(family_slope(value, *params, want_dv), None, x, SolverConfig(steps=steps),
                      want_log_deriv=want_dv)
            counts.append(len(calls))
            assert not [c for c, _ in calls if any(isinstance(z, float) for z in c)]
        assert (counts[1] - counts[0]) / 8 <= most


# Full-size ufunc calls of one 16-step `_adjoint` of (256, 1) lanes, those whose
# output has at least steps x lanes elements, and the elementwise passes they
# make: their output elements in units of steps x lanes.
ADJOINT_FULL_SIZE = {"quadratic": (70, 101), "cubic": (81, 121), "sigmoid_affine": (101, 153)}


@pytest.mark.parametrize("family", FAMILIES)
def test_adjoint_full_size_work_is_pinned(family, monkeypatch, rng):
    # the stacked ops over all the steps and their reductions; the step-by-step
    # recursion and the final sums over the steps write one lane array each
    cfg = SolverConfig(steps=16)
    x = rng.uniform(-1.0, 1.0, (256, 1))
    params = [rng.uniform(-0.3, 0.3, (256, 1)) for _ in range(3)]
    cot_y, cot_l = rng.standard_normal((2, 256, 1))
    _, _, slab = integrate(family_slope(family_functions(family)[0], *params, False), None,
                           x, cfg, want_log_deriv=False, keep_trajectory=True)
    calls = _count_calls(monkeypatch, ("add", "multiply", "sum"))
    _adjoint(family, params, cfg, slab, cot_y, cot_l)
    full = cfg.steps * x.size
    sizes = [np.size(out) for _, out in calls if np.size(out) >= full]
    assert (len(sizes), sum(sizes) // full) == ADJOINT_FULL_SIZE[family]


def _reference_solve(value_fn, dv_fn, x, cfg, nan_guard=False):
    """RK4 in plain allocating arithmetic: (v_end, log_deriv, stage points).
    With `nan_guard` a lane that ends a step outside |v| <= GUARD becomes NaN,
    as `integrate` does with ``divergence='nan'``."""
    h = (1.0 if cfg.direction == "forward" else -1.0) / cfg.steps
    t0 = 0.0 if cfg.direction == "forward" else 1.0
    v, l, points = x, None, []
    for k in range(cfg.steps):
        t = t0 + k * h
        k1, d1 = value_fn(v, t), dv_fn(v, t)
        v2 = v + 0.5 * h * k1
        k2, d2 = value_fn(v2, t + 0.5 * h), dv_fn(v2, t + 0.5 * h)
        v3 = v + 0.5 * h * k2
        k3, d3 = value_fn(v3, t + 0.5 * h), dv_fn(v3, t + 0.5 * h)
        v4 = v + h * k3
        k4, d4 = value_fn(v4, t + h), dv_fn(v4, t + h)
        points.append((v, v2, v3, v4))
        m = (d1 + 2.0 * d2 + 2.0 * d3 + d4) * (h / 6.0)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if nan_guard:
            v = np.where(np.abs(v) <= scalarmap.GUARD, v, np.nan)
        l = m if l is None else l + m
    return v, l, points


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_stage_points_are_fresh_and_match_plain_arithmetic(family, scheme, rng):
    cfg = SolverConfig(scheme=scheme, steps=6, direction="reverse")
    x = rng.uniform(-1.0, 1.0, (4, 3))
    params = [rng.uniform(-0.6, 0.6, (4, 3)) for _ in range(3)]
    value, dv = family_functions(family)
    want_y, want_l, want_points = _reference_solve(
        lambda v, t: value(*params, v, t), lambda v, t: dv(*params, v, t), x, cfg)
    saved = [p.copy() for p in (x, *params)]
    for slope, dv_fn in (
            (family_slope(value, *params, True), None),
            (lambda v, t: value(*params, v, t), lambda v, t: dv(*params, v, t))):
        y, l, slab = integrate(slope, dv_fn, x, cfg, keep_trajectory=True)
        assert y.tobytes() == want_y.tobytes() and l.tobytes() == want_l.tobytes()
        rows = list(slab)  # every step's start, then v(1)
        assert [r.tobytes() for r in rows] == [
            p.tobytes() for p in [step[0] for step in want_points] + [want_y]]
        arrays = rows + [y, l]
        for i, p in enumerate(arrays):
            for q in arrays[i + 1:]:
                assert not np.shares_memory(p, q)
        for p, before in zip((x, *params), saved):
            assert p.tobytes() == before.tobytes()


def test_solver_leaves_inputs_unchanged(rng):
    x = rng.uniform(-1.0, 1.0, (5, 2))
    before = x.copy()
    g = Integrand.sigmoid_affine(0.3, -0.2, 0.5)
    for cfg in (RK4_16, SolverConfig(steps=5)):
        for kw in ({}, {"want_log_deriv": False}, {"keep_trajectory": True},
                   {"divergence": "nan"}):
            integrate(*g.functions(), x, cfg, **kw)
            forward(g, cfg, x, keep_trajectory=kw.get("keep_trajectory", False),
                    divergence=kw.get("divergence", "raise"))
            forward_vjp(g, cfg, x, 1.0, 0.5)
            inverse(g, cfg.reversed(), x)
            assert x.tobytes() == before.tobytes()
    # a custom integrand whose value is v itself: the solver must copy, not alias
    ident = Integrand.custom(lambda v, t: v, lambda v, t: 1.0 + 0.0 * v)
    res = forward(ident, RK4_16, x)
    assert x.tobytes() == before.tobytes()
    np.testing.assert_allclose(res.y, x * math.exp(1.0), rtol=1e-6)
    np.testing.assert_allclose(res.log_deriv, 1.0, rtol=1e-14)


@pytest.mark.parametrize("family", ["quadratic", "cubic"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_complex_b_promotes_through_the_buffers(family, scheme, rng):
    # real x with complex b: the first slope's dg/dv is real and the later ones
    # are complex, so the buffers must take the promoted dtype
    cfg = SolverConfig(scheme=scheme, steps=8)
    x = rng.uniform(-1.0, 1.0, (6, 2))
    a, b, c = (rng.uniform(-0.6, 0.6, (6, 2)) for _ in range(3))
    cot_y, cot_l = rng.standard_normal((2, 6, 2))
    value, _ = family_functions(family)
    _, _, slab = integrate(family_slope(value, a, b, c, True), None, x, cfg,
                           keep_trajectory=True)
    real = _adjoint(family, (a, b, c), cfg, slab, cot_y, cot_l)
    step = 1e-30
    bc = b + 1j * step
    y, l, _ = integrate(family_slope(value, a, bc, c, True), None, x, cfg)
    assert y.dtype == l.dtype == complex
    np.testing.assert_allclose((cot_y * y + cot_l * l).imag / step, real[2],
                               rtol=1e-9, atol=1e-12)
    # the adjoint of the complex solve reads a complex slab, so its workspace
    # must be complex too: a float64 one would drop the imaginary parts
    _, _, slab = integrate(family_slope(value, a, bc, c, True), None, x, cfg,
                           keep_trajectory=True)
    cplx = _adjoint(family, (a, bc, c), cfg, slab, cot_y, cot_l)
    assert slab.dtype == complex
    assert all(out.dtype == complex and np.all(out.imag != 0.0) for out in cplx)
    for got, want in zip(cplx, real):
        np.testing.assert_allclose(got.real, want, rtol=1e-12, atol=1e-15)


def _rebuilt_points(family, params, cfg, slab):
    """Stage points from the slab's step starts, p_{i+1} = p_1 + offset_i*g(p_i),
    in plain allocating arithmetic, stage-major: (4, steps, ...)."""
    value = family_functions(family)[0]
    h = (1.0 if cfg.direction == "forward" else -1.0) / cfg.steps
    points = [slab[:cfg.steps]]
    for offset in (0.5 * h, 0.5 * h, h):
        points.append(points[0] + offset * value(*params, points[-1], None))
    return np.stack(points)


def _allocating_adjoint(family, params, cfg, slab, cot_y, cot_l):
    """`_adjoint`'s step-level sweep in plain allocating arithmetic, each
    temporary a fresh array, over the stage points rebuilt from the slab and
    the slope's dg/dv at them; stacked arrays are stage-major, (4, steps, ...)."""
    phi, dphi, d2phi = family_phi(family)
    c = params[2]
    n = cfg.steps
    h = (1.0 if cfg.direction == "forward" else -1.0) / n
    weights, offsets = (h / 6.0, h / 3.0, h / 3.0, h / 6.0), (0.5 * h, 0.5 * h, h)
    points = _rebuilt_points(family, params, cfg, slab)
    w = np.reshape(weights, (4, 1) + (1,) * (slab.ndim - 1))
    p = phi(points)
    dp = dphi(points, p)
    jac = family_functions(family)[1](*params, points, None)
    jbar = w * cot_l
    through_jac = jbar * (c * d2phi(points, p, dp))
    # stage i's point gets aj[i]*ybar + bj[i], its slope kbar_i = alpha[i]*ybar + beta[i]
    alpha, beta, aj, bj = ([None] * 4 for _ in range(4))
    aj[-1], bj[-1] = weights[-1] * jac[-1], through_jac[-1]
    for i in range(2, -1, -1):
        alpha[i] = offsets[i] * aj[i + 1] + weights[i]
        beta[i] = offsets[i] * bj[i + 1]
        bj[i] = beta[i] * jac[i] + through_jac[i]
        aj[i] = alpha[i] * jac[i]
    tau, step_b = np.sum(np.stack(aj), axis=0) + 1.0, np.sum(np.stack(bj), axis=0)
    ybar = [None] * n
    ybar[-1] = cot_y
    for k in range(n - 1, 0, -1):
        ybar[k - 1] = tau[k] * ybar[k] + step_b[k]
    dx = tau[0] * ybar[0] + step_b[0]
    ybar = np.stack(ybar)
    kbar = np.stack([alpha[i] * ybar + beta[i] for i in range(3)] + [weights[-1] * ybar])
    return (dx, np.sum(points * kbar + jbar, axis=(0, 1)), np.sum(kbar, axis=(0, 1)),
            np.sum(p * kbar + dp * jbar, axis=(0, 1)))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_adjoint_sigmoid_runs_guarded(scheme, rng):
    # below about -709.78 the sigmoid's exp(-v) overflows to inf, which is still
    # well inside the guard box; the adjoint rebuilds the stage points and writes
    # their phi into workspace arrays, so it has to silence that overflow itself
    cfg = SolverConfig(scheme=scheme, steps=8, direction="reverse")
    x = np.array([[-800.0, -712.0, 0.3], [-5000.0, 2.0, -0.5]])
    params = [rng.uniform(-0.6, 0.6, x.shape) for _ in range(3)]
    # 50 rows of unsaturated lanes, on which the roundings of two dg/dv
    # formulas, such as a + (c*s)*(1 - s) and c*(s*(1 - s)) + a, tell apart
    x = np.concatenate([x, rng.uniform(-2.0, 2.0, (50, 3))])
    params = [np.concatenate([p, rng.uniform(-0.6, 0.6, (50, 3))]) for p in params]
    cot_y, cot_l = rng.standard_normal((2, *x.shape))
    _, _, slab = integrate(family_slope(family_functions("sigmoid_affine")[0], *params, True),
                           None, x, cfg, keep_trajectory=True)
    # the precondition: on average three lanes of every rebuilt stage point overflow
    with np.errstate(over="ignore"):
        points = _rebuilt_points("sigmoid_affine", params, cfg, slab)
    assert (points < -710.0).sum() >= 3 * 4 * cfg.steps
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = _adjoint("sigmoid_affine", params, cfg, slab, cot_y, cot_l)
    want = _allocating_adjoint("sigmoid_affine", params, cfg, slab, cot_y, cot_l)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_stage_slab_rows_are_the_guarded_step_ends():
    # in 'nan' mode a lane that leaves the guard box is NaN from the next step
    # on, in the slab as in the result; until then every row is v at the start
    # of that step in plain arithmetic, and the last row is v(1), not a view of it
    g = Integrand.cubic(0.0, 0.0, 2.0)
    x = np.array([0.1, 50.0, -0.2])
    for cfg in (RK4_16, SolverConfig(steps=5)):
        y, _, slab = integrate(family_slope(family_functions("cubic")[0], *g.params(), False),
                               None, x, cfg, want_log_deriv=False, divergence="nan",
                               keep_trajectory=True)
        with np.errstate(over="ignore", invalid="ignore"):
            want_y, _, points = _reference_solve(*g.functions(), x, cfg)
        rows, starts = list(slab), [step[0] for step in points] + [want_y]
        assert len(rows) == cfg.steps + 1
        assert slab[-1].tobytes() == y.tobytes() and not np.shares_memory(slab, y)
        assert np.isnan(y[1]) and np.isfinite(y[[0, 2]]).all()
        first = min(k for k, v in enumerate(starts) if not abs(v[1]) <= scalarmap.GUARD)
        assert 0 < first < cfg.steps
        for k, (row, want) in enumerate(zip(rows, starts)):
            assert row[[0, 2]].tobytes() == want[[0, 2]].tobytes()
            assert np.isnan(row[1]) if k >= first else row[1] == want[1]
        assert np.isnan(slab[first:, 1]).all()


def _adjoint_points(family, params, cfg, slab):
    """The stage points that `_adjoint` rebuilds from `slab`, (4, steps, ...):
    the v of its four slope calls, one per stage point, copied by a spy on
    `scalarmap.family_functions`."""
    value, dv = family_functions(family)
    seen = []

    def spy(a, b, c, v, t, out=None, with_dv=False):
        seen.append(v.copy())
        return value(a, b, c, v, t, out, with_dv=with_dv)

    lanes = slab.shape[1:]
    with mock.patch.object(scalarmap, "family_functions", lambda family: (spy, dv)), \
            np.errstate(all="ignore"):  # past the guard box the sweep may overflow
        _adjoint(family, params, cfg, slab, np.ones(lanes), np.ones(lanes))
    assert len(seen) == 4
    return np.stack(seen)


def _assert_same_bits_or_both_nan(got, want):
    nan = np.isnan(want)
    assert got.shape == want.shape and np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_rebuilt_stage_points_are_the_solvers(family, direction, rng):
    # a training slab keeps each step's start only; the adjoint's stage points
    # 2-4 must be the solver's bit for bit, on real and complex-step lanes (the
    # sigmoid's allocating slope casts to float, so complex b takes the other two)
    cfg = SolverConfig(steps=8, direction=direction)
    value, dv = family_functions(family)
    x = rng.uniform(-1.0, 1.0, (6, 3))
    a, b, c = (rng.uniform(-0.6, 0.6, (6, 3)) for _ in range(3))
    for params in [(a, b, c)] + ([(a, b + 1e-30j, c)] if family != "sigmoid_affine" else []):
        _, _, slab = integrate(family_slope(value, *params, False), None, x, cfg,
                               want_log_deriv=False, keep_trajectory=True)
        _, _, points = _reference_solve(lambda v, t: value(*params, v, t),
                                        lambda v, t: dv(*params, v, t), x, cfg)
        want = np.array(points).swapaxes(0, 1)
        assert want.dtype == slab.dtype == np.result_type(*params)
        _assert_same_bits_or_both_nan(_adjoint_points(family, params, cfg, slab), want)


@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_rebuilt_stage_points_keep_the_guards_nans(direction):
    # 'nan' mode: a lane that leaves the guard box has finite points in the step
    # where it leaves and NaN ones from the next step on, rebuilt as solved
    g = Integrand.cubic(0.0, 0.0, 2.0 if direction == "forward" else -2.0)
    x = np.array([0.1, 50.0, -0.2]) * (1.0 if direction == "forward" else -1.0)
    cfg = SolverConfig(steps=5, direction=direction)
    _, _, slab = integrate(*g.functions(), x, cfg, want_log_deriv=False, divergence="nan",
                           keep_trajectory=True)
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, points = _reference_solve(*g.functions(), x, cfg, nan_guard=True)
    want = np.array(points).swapaxes(0, 1)
    assert np.isnan(want[:, 1:, 1]).all() and np.isfinite(want[:, 0]).all()
    _assert_same_bits_or_both_nan(_adjoint_points("cubic", g.params(), cfg, slab), want)


def test_forward_trajectory_is_every_step_start_and_the_end(rng):
    g = Integrand.sigmoid_affine(0.4, -0.2, 0.9)
    for cfg in (RK4_16, SolverConfig(steps=5)):
        for x in (rng.uniform(-2, 2, (3, 2)), 0.7):
            res = forward(g, cfg, x, keep_trajectory=True)
            _, _, points = _reference_solve(*g.functions(), np.asarray(x), cfg)
            want = np.stack([step[0] for step in points] + [np.asarray(res.y)])
            assert res.trajectory.dtype == float and res.trajectory.shape == want.shape
            assert res.trajectory.tobytes() == want.tobytes()


def test_zero_d_input_returns_scalars():
    g = Integrand.quadratic(0.3, 0.1, -0.2)
    res = forward(g, RK4_16, 1.3)
    assert type(res.y) is float and type(res.log_deriv) is float
    assert type(inverse(g, RK4_16.reversed(), res.y).x) is float
    assert type(forward_vjp(g, RK4_16, 1.3, 1.0, 1.0).dx) is float
    y, l, _ = integrate(*g.functions(), np.asarray(1.3), RK4_16)
    assert np.ndim(y) == np.ndim(l) == 0 and not isinstance(y, np.ndarray)
    assert y == res.y and l == res.log_deriv


def test_divergence_message_names_the_time():
    g = Integrand.cubic(0, 0, 2)
    cases = ((RK4_16, np.array([0.1, 50.0, 0.2]),
              "trajectory left |v| <= 1e+06 at t=0.0625 (rows [1])"),
             (RK4_16.reversed(), np.array([[0.1, -30.0], [0.2, 0.3]]),
              "trajectory left |v| <= 1e+06 at t=0.9375 (rows [0])"),
             (SolverConfig(steps=3), 50.0,
              "trajectory left |v| <= 1e+06 at t=0.333333"))
    for cfg, x, message in cases:
        with pytest.raises(DivergenceError) as err:
            integrate(*g.functions(), np.asarray(x), cfg)
        assert str(err.value) == message


def _still(x, **kw):
    """A 16-step solve of g = 0 (the quadratic family with a = b = c = 0), in
    which every lane stays at its start bit for bit, so it meets each step's
    guard test where it started."""
    slope = family_slope(family_functions("quadratic")[0], 0.0, 0.0, 0.0, True)
    return integrate(slope, None, x, RK4_16, **kw)


def test_guard_box_includes_its_boundary_and_nothing_past_it():
    edge, past = scalarmap.GUARD, np.nextafter(scalarmap.GUARD, np.inf)
    # one lane at +-GUARD passes the one-call check; with three lanes the sum of
    # squares exceeds GUARD^2 and the exact test passes them
    for x in ([[edge]], [[-edge]], [[edge], [-edge], [0.5]]):
        x = np.array(x)
        y, l, _ = _still(x)
        assert y.tobytes() == x.tobytes() and not l.any()
    for lane in (past, -past):
        x = np.array([[0.5], [lane], [-0.25]])
        with pytest.raises(DivergenceError) as err:
            _still(x)
        assert err.value.indices == [1]
        assert str(err.value) == "trajectory left |v| <= 1e+06 at t=0.0625 (rows [1])"
        y, _, _ = _still(x, divergence="nan")
        assert np.isnan(y[1, 0]) and y[[0, 2]].tobytes() == x[[0, 2]].tobytes()


def test_guard_passes_many_lanes_inside_the_box_untouched():
    # sum v^2 = 810 * GUARD^2 fails the one-call check; every lane passes the exact test
    x = np.full((1000, 1), 0.9 * scalarmap.GUARD)
    for divergence in ("raise", "nan"):
        y, _, _ = _still(x, divergence=divergence)
        assert y.tobytes() == x.tobytes()
    g = Integrand.sigmoid_affine(0.0, 0.5, 0.0)  # a solve that moves its lanes
    y = forward(g, RK4_16, x).y
    assert y.tobytes() == forward(g, RK4_16, x, divergence="nan").y.tobytes()
    assert np.all(y == 0.9 * scalarmap.GUARD + 0.5)


def test_guard_takes_the_same_path_on_complex_step_lanes():
    edge, past = scalarmap.GUARD, np.nextafter(scalarmap.GUARD, np.inf)
    x = np.array([[edge], [-edge], [0.9 * edge]]) + 1e-30j
    y, _, _ = _still(x)
    assert y.dtype == complex and y.tobytes() == x.tobytes()
    real = np.array([[0.5], [past], [-0.25]])
    messages = []
    for x in (real, real + 1e-30j):
        with pytest.raises(DivergenceError) as err:
            _still(x)
        messages.append(str(err.value))
        y, _, _ = _still(x, divergence="nan")
        assert np.isnan(y[1, 0]) and y[[0, 2]].tobytes() == x[[0, 2]].tobytes()
    assert messages[0] == messages[1]


def test_vjp_custom_family_gives_dx_only():
    g = Integrand.custom(lambda v, t: 0.5 * v, lambda v, t: 0.5 + 0.0 * v)
    out = forward_vjp(g, RK4_16, 1.3, 1.0, 0.0)
    assert out.dparams == (0.0, 0.0, 0.0)
    # exact for the discretized map, which sits O(h^4) from exp(1/2)
    assert out.dx == pytest.approx(math.exp(0.5), rel=1e-7)
    # a time-dependent integrand against complex-step derivatives of the solve
    g = Integrand.custom(lambda v, t: np.sin(v) * (1.0 + t), lambda v, t: np.cos(v) * (1.0 + t))
    x = np.array([-0.8, 0.1, 1.3])
    for cfg in (RK4_16, SolverConfig(steps=5)):
        want = integrate(*g.functions(), x + 1e-30j, cfg, want_log_deriv=False)[0].imag / 1e-30
        got = forward_vjp(g, cfg, x, np.ones(3), 0.0).dx
        np.testing.assert_allclose(got, want, rtol=1e-12)
    # the log-derivative's cotangent would need d2g/dv2, which a custom integrand lacks
    with pytest.raises(ValueError):
        forward_vjp(g, RK4_16, x, np.ones(3), 1.0)


def test_large_tangent_is_not_a_divergence():
    # g = 20*v from x = 1e-3: v(1) stays inside the guard box, while dv(1)/dx,
    # RK4's step factor to the n-th power, is above GUARD; the variational
    # solve's w lanes start at 2^-40, so the guard sees them inside the box too
    g = Integrand.custom(lambda v, t: 20.0 * v, lambda v, t: 20.0 + 0.0 * v)
    for n in (16, 64):
        cfg = SolverConfig(steps=n)
        z = 20.0 / n
        want = (1.0 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24) ** n
        assert forward(g, cfg, 1e-3).y < scalarmap.GUARD < want
        assert forward_vjp(g, cfg, 1e-3, 1.0, 0.0).dx == pytest.approx(want, rel=1e-13)


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


def test_derivative_positive_everywhere(rng):
    for g, x in draw_stable_cases(rng, 30):
        assert derivative(g, RK4_16, x) > 0.0


def test_sigmoid_matches_expit_without_warnings():
    expit = pytest.importorskip("scipy.special").expit
    x = np.linspace(-800.0, 800.0, 100001)
    # exp overflows just below -709.78; -746 is where exp(x) underflows to 0
    edges = np.array([-np.inf, np.inf, np.nan, -709.78, -710.0, -746.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _logistic(x)
        ends = _logistic(edges)
    want = expit(x)
    ulps = np.abs(got - want) / np.spacing(np.maximum(np.abs(got), np.abs(want)))
    assert ulps.max() <= 4
    assert ends[0] == 0.0 and ends[1] == 1.0
    # bit for bit the overflow-clipped formula, NaN payload included
    top = float(np.log(np.finfo(float).max))
    for xs, out in ((x, got), (edges, ends)):
        clipped = (xs >= -top) / (1.0 + np.exp(np.minimum(-xs, top)))
        assert out.tobytes() == clipped.tobytes()
