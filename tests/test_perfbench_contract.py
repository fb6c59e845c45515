"""The benchmark under perfbench/ still runs against this package.

Its traced runs rebind names inside timeflow's modules (see
perfbench/tracing.py), so renaming or removing one of them breaks the
benchmark without breaking any other test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def _run(*args):
    return subprocess.run([sys.executable, *args], cwd=PERFBENCH.parent, env=ENV,
                          capture_output=True, text=True, timeout=300)


def test_selftest_passes():
    proc = _run(str(PERFBENCH / "selftest.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _bench(workload, trace):
    proc = _run(str(PERFBENCH / "run.py"), "--workload", workload, "--seed", "1",
                "--seconds", "0.5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    return result["metrics"]


TRAIN_SOLVES = {"fit-2d": 4, "ar-8d": 32}  # one per layer, or per layer and coordinate


@pytest.mark.parametrize("workload", ["fit-2d", "ar-8d"])
def test_traced_run_is_correct_and_counts(workload):
    metrics = _bench(workload, 1)
    for name in ("autodiff.nodes.train", "scalarmap.lane_steps.train",
                 "conditioner.calls.train"):
        assert metrics[name]["value"] > 0, name
    # one integrand evaluation per stage point: 4 layers x 16 steps x 4 RK4 stages
    assert metrics["integrands.evals.sample"]["value"] == 256
    # one record per layer (4 transforms, 3 permutations), and training's solves
    # make one evaluation per stage point too: the adjoint rebuilds stage points
    # through scalarmap's own family table, which the tracer does not count
    assert metrics["autodiff.nodes.train"]["value"] == 7
    assert metrics["integrands.evals.train"]["value"] == TRAIN_SOLVES[workload] * 16 * 4
    # one conditioner pass per solve on the inverse path, and none in the backward
    assert metrics["conditioner.calls.train"]["value"] == TRAIN_SOLVES[workload]


@pytest.mark.parametrize("workload", ["fit-2d", "ar-8d"])
def test_untraced_run_is_correct(workload):
    metrics = _bench(workload, 0)
    assert metrics["sample_rows_per_s"]["value"] > 0
