"""Root-finding inversion methods and the step-count benchmark."""

import math
from dataclasses import replace

import numpy as np
import pytest

from timeflow import (
    Integrand,
    RefineConfig,
    SolverConfig,
    bisection_invert,
    fixedpoint_invert,
    forward,
    run_bench,
)
from timeflow.cli import run
from timeflow.inversion import (
    DEFAULT_BENCH_INTEGRAND,
    _fixed_point,
    refine_lanes,
    trapezoid_reverse,
)

FWD = SolverConfig(steps=16)
IDENTITY = Integrand.quadratic(0, 0, 0)
SHIFT = Integrand.quadratic(0, 1, 0)
TOLERANCES = (1e-3, 1e-4, 1e-5, 1e-6)


def test_refine_config_validation():
    with pytest.raises(ValueError):
        RefineConfig(method="newton")
    with pytest.raises(ValueError):  # an unrefined inverse is refine=None
        RefineConfig(method="reverse_only")
    with pytest.raises(ValueError):
        RefineConfig(tolerance=0.0)
    # no refinement loop runs more than 200 passes, so a larger cap would be
    # silently cut to 200
    for n in (0, 201, 500):
        with pytest.raises(ValueError, match=f"1..200, not {n}"):
            RefineConfig(max_iterations=n)
    assert RefineConfig(max_iterations=200).max_iterations == 200


def test_bisection_identity_step_formula():
    # centered unit bracket, width criterion: ceil(log2(1/tol)) halvings
    rc = RefineConfig(method="bisection", tolerance=1e-6)
    res = bisection_invert(IDENTITY, FWD, 0.37, rc)
    assert res.iterations == math.ceil(math.log2(1e6)) == 20
    assert res.converged
    assert abs(res.x - 0.37) <= 1e-6


def test_bisection_shift_map():
    rc = RefineConfig(method="bisection", tolerance=1e-6)
    res = bisection_invert(SHIFT, FWD, 1.5, rc)
    assert abs(res.x - 0.5) <= 1e-6
    assert res.converged


def test_bisection_expands_bracket_when_needed():
    # the root 1.0 lies 2.5 from y = 3.5, outside the first bracket y +- 0.5,
    # so convergence to it needs the bracket to grow
    g = Integrand.quadratic(0, 2.5, 0)
    rc = RefineConfig(method="bisection", tolerance=1e-8)
    res = bisection_invert(g, FWD, 3.5, rc)
    assert res.converged
    assert abs(res.x - 1.0) <= 1e-8


def test_fixedpoint_identity_zero_iterations():
    rc = RefineConfig(method="fixed_point", tolerance=1e-10)
    res = fixedpoint_invert(IDENTITY, FWD, 0.8, rc)
    assert res.iterations == 0
    assert res.converged
    assert res.x == 0.8


def test_fixedpoint_shift_exact_from_initial_guess():
    # the reverse trapezoid integral is exact for a constant integrand
    rc = RefineConfig(method="fixed_point", tolerance=1e-12)
    res = fixedpoint_invert(SHIFT, FWD, 1.5, rc)
    assert res.iterations == 0
    assert res.x == pytest.approx(0.5, abs=1e-13)


def test_failed_fallback_keeps_fixed_point_x():
    # a flat residual has no root: the fixed-point pass leaves every lane
    # short of the tolerance, and the bisection fallback never brackets one
    rc = RefineConfig(method="fixed_point", tolerance=1e-12, max_iterations=1)
    y = np.array([0.3, 0.7])

    def q(x, lanes):
        return np.zeros_like(x)

    x, _, converged, residual = _fixed_point(q, y, np.zeros(2), rc)
    assert not converged.any()
    res = refine_lanes(q, y, np.zeros(2), rc)
    assert res.fell_back.all() and not res.converged.any()
    assert np.array_equal(res.x, x)
    assert np.array_equal(res.residual, residual)


def test_fixed_point_falls_back_to_bisection():
    rc = RefineConfig(method="fixed_point", tolerance=1e-12, max_iterations=1)
    res = fixedpoint_invert(DEFAULT_BENCH_INTEGRAND, FWD, 0.5, rc)
    assert res.fell_back and res.converged and res.iterations == 1
    assert res.residual <= 1e-12


def test_two_d_targets_fall_back_lane_by_lane():
    # 2 of these 20 lanes miss under plain fixed-point iteration; their bisection
    # fallback used to index the (5, 4) lanes with 1-D results and raise
    rng = np.random.default_rng(0)
    g = Integrand("quadratic", *rng.uniform(-0.6, 0.6, 3))
    y = rng.uniform(-1.0, 1.0, (5, 4))
    cfg = SolverConfig(steps=8)
    rc = RefineConfig("fixed_point", 1e-9)
    res, flat = fixedpoint_invert(g, cfg, y, rc), fixedpoint_invert(g, cfg, y.ravel(), rc)
    assert res.fell_back.sum() == 2 and res.converged.all()
    for field in ("x", "iterations", "converged", "residual", "fell_back"):
        got, want = getattr(res, field), getattr(flat, field)
        assert got.shape == y.shape and np.array_equal(got, want.reshape(y.shape)), field
    bis = bisection_invert(g, cfg, y, replace(rc, method="bisection"))
    assert bis.x.shape == y.shape and bis.converged.all()
    assert np.array_equal(bis.x, bisection_invert(g, cfg, y.ravel(), rc).x.reshape(y.shape))


def test_overflowed_seeds_come_back_unconverged_without_warnings():
    # the five-node trapezoid seed of these targets overflows to [nan, -inf, inf,
    # nan]: they lie outside the map's finite image, so both methods report them
    # unconverged, and under this suite's error::RuntimeWarning filter any
    # overflow or inf - inf on the way would raise instead
    g = Integrand("cubic", 0.2, -0.1, 0.3)
    cfg = SolverConfig(steps=12)
    y = np.array([-8.0, -6.0, 6.0, 8.0])
    rc = RefineConfig("fixed_point")
    for res in (fixedpoint_invert(g, cfg, y, rc), bisection_invert(g, cfg, y, rc)):
        assert res.x.shape == y.shape and not res.converged.any()
    # a lane inside the image falls back too and is bisected beside the +-inf
    # lanes, whose bracket widths are inf - inf
    y = np.array([-8.0, -6.0, 0.3, 6.0, 8.0])
    res = fixedpoint_invert(g, cfg, y, RefineConfig("fixed_point", 1e-12, 1))
    assert res.fell_back.all()
    assert res.converged.tolist() == [False, False, True, False, False]


def test_trapezoid_reverse_five_nodes():
    assert trapezoid_reverse(SHIFT, np.array([2.0]))[0] == pytest.approx(1.0, abs=1e-13)


def test_residual_tolerance_honored(rng):
    g = DEFAULT_BENCH_INTEGRAND
    ys = forward(g, FWD, rng.uniform(0, 1, 40)).y
    for tol in (1e-4, 1e-8):
        for method, fn in (("bisection", bisection_invert), ("fixed_point", fixedpoint_invert)):
            rc = RefineConfig(method=method, tolerance=tol, max_iterations=200)
            res = fn(g, FWD, ys, rc)
            assert np.all(res.converged)
            back = forward(g, FWD, res.x).y
            assert np.max(np.abs(back - ys)) <= tol


def test_damped_iteration_handles_expanding_map():
    # q(x) = 3x has |1 - q'| = 2: undamped iteration diverges, the damped
    # one must engage lambda and still converge
    q = lambda x, lanes: 3.0 * x
    rc = RefineConfig(method="fixed_point", tolerance=1e-10, max_iterations=100)
    x, steps, converged, residual = _fixed_point(q, np.array([1.5]), np.array([2.0]), rc)
    assert converged[0]
    assert abs(x[0] - 0.5) < 1e-9


def test_damping_residuals_non_increasing_once_engaged():
    history = []

    def q(x, lanes):
        history.extend(np.atleast_1d(3.0 * x).tolist())
        return 3.0 * x

    rc = RefineConfig(method="fixed_point", tolerance=1e-10, max_iterations=100)
    y = np.array([1.5])
    _fixed_point(q, y, np.array([2.0]), rc)
    residuals = [abs(v - y[0]) for v in history]
    # first call is the initial residual; once a rejection has happened the
    # accepted residual sequence cannot increase
    accepted = [residuals[0]]
    for r in residuals[1:]:
        if r <= accepted[-1]:
            accepted.append(r)
    assert accepted[-1] <= 1e-10


def test_run_bench_single_row_reproducible():
    a = run_bench(n_inputs=1, seed=42, tolerances=(1e-4,))
    b = run_bench(n_inputs=1, seed=42, tolerances=(1e-4,))
    assert a.rows == b.rows
    assert a.rows[0].mean_steps == b.rows[0].mean_steps


def test_run_bench_ratio_and_growth():
    report = run_bench(n_inputs=200, seed=3)
    bis = []
    for tol in TOLERANCES:
        fp = report.mean_steps(tol, "fixed_point")
        bi = report.mean_steps(tol, "bisection")
        assert fp < bi, tol
        assert fp / bi <= 0.65, tol
        bis.append(bi)
    growths = np.diff(bis)
    assert np.all(np.abs(growths - math.log2(10)) <= 0.5), growths


def test_run_bench_csv_format(tmp_path):
    report = run_bench(n_inputs=10, seed=0, tolerances=(1e-3, 1e-4))
    assert run(["invert-bench", "--n", "10", "--seed", "0", "--tolerances", "1e-3,1e-4",
                "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
    assert lines[0] == "tolerance,method,mean_steps,failures"
    assert len(lines) == 1 + 2 * 2
    assert "fixed_point" in lines[1]
    assert str(DEFAULT_BENCH_INTEGRAND.a) in report.summary()
