"""Monotone-target approximants: kernels, Picard solver, convergence rates."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from timeflow import (
    Kernel,
    MonotoneTarget,
    PicardConfig,
    convergence_study,
    eval_approximant,
    kernel_eval,
)
from timeflow.approx import picard_iterates

AFFINE = MonotoneTarget.affine(2.0, 1.0)
CONST = Kernel("constant")
GAUSS = Kernel("gaussian")

# normalization of exp(-t^2) on [0, 1], frozen from adaptive quadrature at
# tolerance 1e-13 (1/integral)
C1_QUADRATURE = 1.3390033289820868


def test_constant_kernel_is_one():
    assert np.all(kernel_eval(CONST, np.linspace(0, 1, 11)) == 1.0)


def test_gaussian_kernel_unit_mass_vs_quadrature():
    for s in (0.2, 0.5, 1.0, 3.0):
        k = Kernel("gaussian", s)
        mass, err = quad(lambda t: kernel_eval(k, t), 0.0, 1.0,
                         epsabs=1e-12, epsrel=1e-12)
        assert err < 1e-10
        assert abs(mass - 1.0) < 1e-10


def test_gaussian_normalization_frozen_value():
    assert kernel_eval(Kernel("gaussian", 1.0), 0.0) == pytest.approx(
        C1_QUADRATURE, abs=1e-12)


def test_kernel_positive_on_unit_interval():
    t = np.linspace(0, 1, 101)
    for s in (0.1, 1.0):
        assert np.all(kernel_eval(Kernel("gaussian", s), t) > 0.0)


def test_target_constructors_validate():
    with pytest.raises(ValueError):
        MonotoneTarget.affine(0.0, 1.0)
    with pytest.raises(ValueError):
        MonotoneTarget.custom(lambda x: -x, 1.0).check_increasing((-1, 1))
    MonotoneTarget.softplus_shift().check_increasing((-3, 3))
    MonotoneTarget.arctan_blend().check_increasing((-3, 3))


def test_identity_target_is_exact_fixed_point():
    ident = MonotoneTarget.affine(1.0, 0.0)
    xs = np.linspace(-2, 2, 9)
    for s in (0.5, 0.25, 10.0):
        for kernel in (CONST, GAUSS):
            q = eval_approximant(ident, s, kernel, xs)
            assert np.max(np.abs(q - xs)) == 0.0


def test_affine_regression_value_and_error_bound():
    # frozen from the high-resolution solver (1025 outer nodes, 6 Picard
    # iterations); the default configuration must reproduce it closely
    frozen = 1.0091589166273771
    got = eval_approximant(AFFINE, 0.25, CONST, 0.0)
    assert got == pytest.approx(frozen, abs=1e-10)
    hires = eval_approximant(AFFINE, 0.25, CONST, 0.0,
                             PicardConfig(iterations=6, quad_nodes=1025))
    assert hires == pytest.approx(frozen, abs=1e-13)
    # analytic bound (L+1) * M * exp(-1/s) / 2 with L = 2 and M bounded by
    # sup |phi(v) - v| = |v + 1| over the reached interval [0, ~0.02]
    bound = 3.0 * 1.02 * math.exp(-4.0) / 2.0
    assert abs(got - AFFINE.fn(0.0)) <= bound


def test_underflow_scale_returns_target_exactly():
    xs = np.linspace(-1, 1, 5)
    q = eval_approximant(AFFINE, 1e-4, CONST, xs)
    assert np.array_equal(q, AFFINE.fn(xs))


def test_picard_iterates_contract_fast():
    # argument rescaling gives contraction ~ (L+1)*exp(-2/s) between
    # successive iterate gaps: at least 10x per iteration for s <= 1/3
    for s in (1.0 / 3.0, 0.25):
        gaps = picard_iterates(AFFINE, s, CONST, 0.7,
                               PicardConfig(iterations=4))
        for a, b in zip(gaps, gaps[1:]):
            if a == 0.0:
                continue
            assert b <= a / 10.0, (s, gaps)


def test_approximant_strictly_increasing_across_scales():
    xs = np.linspace(-1, 1, 201)
    targets = (AFFINE, MonotoneTarget.softplus_shift(), MonotoneTarget.arctan_blend())
    for target in targets:
        for kernel in (CONST, GAUSS):
            for s in (0.5, 0.2, 4.0):
                cfg = PicardConfig(iterations=8 if s > 1 else 3)
                q = eval_approximant(target, s, kernel, xs, cfg)
                assert np.all(np.diff(q) > 0.0), (target.kind, kernel.kind, s)


def test_convergence_rate_constant_kernel():
    study = convergence_study(AFFINE, (-1, 1), [0.5, 1 / 3, 0.25, 0.2], CONST)
    assert 0.9 <= study.slope <= 1.1
    assert study.sup_errors == sorted(study.sup_errors, reverse=True)


def test_convergence_rate_gaussian_kernel():
    study = convergence_study(AFFINE, (-1, 1), [0.5, 1 / 3, 0.25, 0.2], GAUSS)
    assert 0.9 <= study.slope <= 1.2


def test_identity_study_flags_zero_errors():
    ident = MonotoneTarget.affine(1.0, 0.0)
    study = convergence_study(ident, (-1, 1), [0.5, 1 / 3, 0.25, 0.2], CONST)
    assert study.slope is None
    assert any("zero" in flag for flag in study.flags)


def test_study_csv_format(tmp_path):
    study = convergence_study(AFFINE, (-1, 1), [0.5, 1 / 3, 0.25, 0.2], CONST)
    path = tmp_path / "study.csv"
    study.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "s,inv_s,sup_error,log_error"
    assert len(lines) == 5
    assert "fitted slope" in study.summary()


def test_study_needs_four_scales():
    with pytest.raises(ValueError):
        convergence_study(AFFINE, (-1, 1), [0.5, 0.25], CONST)


def test_picard_config_validation():
    with pytest.raises(ValueError):
        PicardConfig(iterations=0)
    with pytest.raises(ValueError):
        PicardConfig(inner_ratio=1.5)
    with pytest.raises(ValueError):
        eval_approximant(AFFINE, -1.0, CONST, 0.0)


def test_import_timeflow_loads_no_scipy():
    code = (
        "import sys, timeflow\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy loaded'\n"
        "assert callable(timeflow.convergence_study)\n"
        "assert 'timeflow.approx' in sys.modules\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
