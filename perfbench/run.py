"""Benchmark timeflow end to end (``--trace 0``) or per module (``--trace 1``).

    python3 perfbench/run.py --workload fit-2d --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One process runs one workload, single-threaded: the command in
BENCHMARK.json pins BLAS and OpenMP to one thread, and this file does the
same for direct runs. A run repeats whole rounds of six phases until
``--seconds`` have passed:

    train        nll_and_grad + adam_step on fixed-size batches
    epoch        train() for one epoch, with its validation pass
    log_density  untaped log-densities of held-out rows
    sample       draws from the model
    inverse      model_inverse of that sample, no refinement
    refine       model_inverse with fixed-point refinement

Every operation's output is checked outside the timed regions against a
reference computed by `checks`. The last line of stdout is one JSON
object: end-to-end metrics with ``--trace 0``, per-layer metrics from
spans at timeflow's module boundaries with ``--trace 1`` (see tracing.py),
which also writes the spans to ``perfbench/out/``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy starts its thread pool

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

PHASES = ("train", "epoch", "log_density", "sample", "inverse", "refine")
SETUP_REPEATS = 9   # child processes timed for setup_s, spread over the run; median
REFINE_SEED = 100   # the refine phase's model and inputs do not depend on --seed
REFINE_SCALE = 0.25  # every row of the refine input converges when inverted alone
REFINE_TOLERANCE = 1e-10
GRID_AXIS = np.linspace(-8.0, 8.0, 200)


@dataclass(frozen=True)
class Workload:
    dim: int
    kind: str
    family: str
    data: str            # toy2d generator name, or "synthetic-8d"
    layers: int
    hidden: tuple
    solver_steps: int
    batch: int
    steps_per_round: int
    evals_per_round: int  # log_density, sample, inverse repeats per round
    epoch_rows: int      # train() sees epoch_rows training and as many validation rows
    heldout_rows: int    # log_density input; held-out NLL check
    sample_rows: int
    refine_rows: int
    learning_rate: float


WORKLOADS = {
    # criterion-9 model; small batches, so per-op Python cost dominates
    "fit-2d": Workload(2, "coupling", "quadratic", "two_gaussians", 4, (24,), 16,
                       batch=128, steps_per_round=4, evals_per_round=1, epoch_rows=512,
                       heldout_rows=8192, sample_rows=8192, refine_rows=64,
                       learning_rate=0.001),
    # D sequential conditioner passes per layer for density and training
    "ar-8d": Workload(8, "autoregressive", "sigmoid_affine", "synthetic-8d", 4, (32,), 16,
                      batch=256, steps_per_round=1, evals_per_round=3, epoch_rows=256,
                      heldout_rows=1024, sample_rows=1024, refine_rows=16,
                      learning_rate=0.01),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_step_ms": "ms",
    "train_rows_per_s": "rows/s",
    "log_density_rows_per_s": "rows/s",
    "sample_rows_per_s": "rows/s",
    "inverse_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    """Every per-layer metric name with its unit, `<module>.<quantity>.<phase>`."""
    units = {"import.s": "s", "data.ms": "ms"}
    for phase in PHASES:
        units.update({
            f"conditioner.calls.{phase}": "count",
            f"conditioner.ms.{phase}": "ms",
            f"scalarmap.calls.{phase}": "count",
            f"scalarmap.ms.{phase}": "ms",
            f"scalarmap.lane_steps.{phase}": "count",
            f"integrands.evals.{phase}": "count",
            f"flow.ms.{phase}": "ms",
        })
    for phase in ("train", "epoch"):
        units.update({
            f"autodiff.nodes.{phase}": "count",
            f"autodiff.backward_ms.{phase}": "ms",
            f"training.ms.{phase}": "ms",
            f"training.adam_ms.{phase}": "ms",
        })
    units.update({
        "training.loop_ms.epoch": "ms",
        "inversion.calls.refine": "count",
        "inversion.passes.refine": "count",
        "inversion.ms.refine": "ms",
    })
    return units


def import_timeflow():
    """Import timeflow from this checkout's src/, never from elsewhere."""
    if not (SRC / "timeflow" / "__init__.py").is_file():
        sys.exit(f"benchmark: no timeflow sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import timeflow

    if SRC not in Path(timeflow.__file__).resolve().parents:
        sys.exit(f"benchmark: imported timeflow from {timeflow.__file__}, not {SRC}")
    return timeflow


def synthetic_8d(n, rng):
    """Each coordinate is noise plus a sine of the one before it."""
    z = rng.standard_normal((n, 8))
    x = np.empty_like(z)
    x[:, 0] = 1.5 * z[:, 0]
    for k in range(1, 8):
        x[:, k] = 0.7 * z[:, k] + np.sin(x[:, k - 1])
    return x


class Bench:
    """Inputs, models and per-operation measurements of one run."""

    def __init__(self, w: Workload, seed: int, tracer=None):
        from timeflow import data, flow, inversion, scalarmap, training

        self.flow, self.training, self.w, self.seed = flow, training, w, seed
        self.tracer = tracer
        n_fit = 2 * w.epoch_rows
        n = n_fit + w.heldout_rows
        if w.data == "synthetic-8d":
            rows = synthetic_8d(n, np.random.default_rng(seed))
        else:
            rows = data.toy2d(w.data, n, seed=seed).rows
        self.dataset = data.Dataset(w.data, rows[:n_fit], split_fractions=(0.5, 0.5, 0.0))
        self.heldout = rows[n_fit:]
        solver = scalarmap.SolverConfig(steps=w.solver_steps)
        arch = dict(n_layers=w.layers, kind=w.kind, family=w.family,
                    hidden_dims=w.hidden, solver=solver)
        self.model = flow.build_flow(w.dim, seed=seed, **arch)
        self.initial = [p.copy() for p in self.model.parameters()]

        self.refine_model = flow.randomize_parameters(
            flow.build_flow(w.dim, seed=REFINE_SEED, **arch), seed=REFINE_SEED,
            scale=REFINE_SCALE)
        self.refine_y = flow.sample(self.refine_model, w.refine_rows, seed=REFINE_SEED + 1)
        self.refine_cfg = inversion.RefineConfig("fixed_point", tolerance=REFINE_TOLERANCE)

        flow.log_density(self.model, self.heldout[:64])  # untimed warm-up call

        self.times = {phase: [] for phase in PHASES}  # seconds per successful op
        self.wall = dict.fromkeys(PHASES, 0.0)         # seconds of all ops, failed too
        self.ops = dict.fromkeys(PHASES, 0)
        self.failed = dict.fromkeys(PHASES, 0)
        self.first_failure = {}
        self.problems = []

    # --- one operation -----------------------------------------------------

    def _op(self, phase, fn, invalid=None):
        """Time fn() and return its output, or None if the operation failed.

        A raised divergence or shape fault, or an output for which
        `invalid(out)` returns a reason, counts as failed, and its time
        feeds no metric. Only the `refine` phase is expected to fail;
        `failure_problems` reports failures in any other phase. Spans
        opened between operations fall in no phase.
        """
        if self.tracer is not None:
            self.tracer.phase = phase
        self.ops[phase] += 1
        t0 = time.perf_counter()
        try:
            out = fn()
            reason = None if invalid is None else invalid(out)
        except (ArithmeticError, ValueError) as err:
            out, reason = None, f"{type(err).__name__}: {err}"
        elapsed = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.phase = "between"
        self.wall[phase] += elapsed
        if reason is not None:
            self.failed[phase] += 1
            self.first_failure.setdefault(phase, reason)
            return None
        self.times[phase].append(elapsed)
        return out

    def failure_problems(self):
        for phase in PHASES:
            if phase != "refine" and self.failed[phase]:
                self.problems.append(
                    f"{phase}: {self.failed[phase]} of {self.ops[phase]} operations"
                    f" failed, first: {self.first_failure[phase]}")

    def _check(self, result):
        ok, detail = result
        if not ok:
            self.problems.append(detail)

    def _step(self, batch):
        loss, grads = self.training.nll_and_grad(self.model, batch)
        self.params, self.adam = self.training.adam_step(
            self.adam, self.params, grads, self.w.learning_rate)
        self.model.set_parameters(self.params)
        return loss

    def round(self, r):
        """Fit the model from its initial parameters, then evaluate it.

        Every round trains from the same start on the same batches, so
        every round does the same work on the same model whatever the
        run length, and quadratic dynamics never drift into blow-up. A
        full collection, untimed, restarts the garbage collector's
        counters at the same point of every round, so the collections
        the tape triggers land in the same operations on every seed.
        """
        w, flow = self.w, self.flow
        gc.collect()
        self.params = [p.copy() for p in self.initial]
        self.model.set_parameters(self.params)
        self.adam = self.training.AdamState.init(self.params)
        train = self.dataset.train
        for i in range(w.steps_per_round):
            batch = train[(np.arange(w.batch) + i * w.batch) % train.shape[0]]
            self._op("train", lambda: self._step(batch))

        cfg = self.training.TrainConfig(epochs=1, batch_size=w.batch,
                                        learning_rate=w.learning_rate,
                                        seed=self.seed, patience=1)
        self._op("epoch", lambda: self.training.train(self.model, self.dataset, cfg),
                 invalid=_not_one_epoch)

        for k in range(w.evals_per_round):
            self._evaluate(self.seed * 1000 + r * w.evals_per_round + k)

        xr = self._op("refine", lambda: flow.model_inverse(
            self.refine_model, self.refine_y, refine=self.refine_cfg))
        if xr is not None:
            self._check(self._refine_check(xr))

    def _evaluate(self, sample_seed):
        w, flow = self.w, self.flow
        self._op("log_density", lambda: flow.log_density(self.model, self.heldout))
        y = self._op("sample", lambda: flow.sample(self.model, w.sample_rows, seed=sample_seed))
        if y is not None:
            x = self._op("inverse", lambda: flow.model_inverse(self.model, y))
            if x is not None:
                z = np.random.default_rng(sample_seed).standard_normal((w.sample_rows, w.dim))
                self._check(checks.check_round_trip(x, z))

    def _refine_check(self, x):
        """The tolerance bounds each layer's scalar-map residual, so the
        inverse is redone one layer at a time and checked per layer."""
        out, worst = checks.layerwise_inverse(
            self.flow.layer_inverse, self.flow.layer_forward, self.refine_model.layers,
            self.refine_y, self.refine_cfg)
        return checks.check_refine(x, out, worst, REFINE_TOLERANCE)

    # --- checks after the measured rounds ---------------------------------

    def final_checks(self):
        flow, model = self.flow, self.model
        rng = np.random.default_rng(self.seed + 7)

        batch = self.dataset.train[rng.choice(self.dataset.train.shape[0], 32, replace=False)]
        params = [p.copy() for p in model.parameters()]
        _, grads = self.training.nll_and_grad(model, batch)
        entries = []
        for _ in range(8):
            i = int(rng.integers(len(params)))
            entries.append((i, int(rng.integers(params[i].size))))
        self._check(checks.check_gradient(
            lambda p: -float(np.mean(flow.log_density(model, batch, params=p))),
            params, grads, entries))

        rows = self.heldout[:4]
        x = flow.model_inverse(model, rows)
        self._check(checks.check_log_density(
            lambda v: flow.model_forward(model, v)[0], x, flow.log_density(model, rows)))

        model_nll = -float(np.mean(flow.log_density(model, self.heldout)))
        self._check(checks.check_heldout(model_nll, self.heldout))

        if self.w.dim == 2:
            gx, gy = np.meshgrid(GRID_AXIS, GRID_AXIS)
            grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
            self._check(checks.check_grid_mass(
                flow.log_density(model, grid, divergence="-inf"), GRID_AXIS))

    # --- metrics ---------------------------------------------------------

    def _median(self, phase, per_op):
        if not self.times[phase]:
            self.problems.append(f"no {phase} operation succeeded")
            return 0.0
        return statistics.median(per_op(t) for t in self.times[phase])

    def end_to_end(self, setup_s):
        w = self.w
        return {
            "setup_s": setup_s,
            "train_step_ms": self._median("train", lambda t: 1e3 * t),
            "train_rows_per_s": self._median("epoch", lambda t: w.epoch_rows / t),
            "log_density_rows_per_s": self._median(
                "log_density", lambda t: w.heldout_rows / t),
            "sample_rows_per_s": self._median("sample", lambda t: w.sample_rows / t),
            "inverse_rows_per_s": self._median("inverse", lambda t: w.sample_rows / t),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self, import_s):
        tr = self.tracer
        own = tr.self_times()
        calls = tr.span_counts()

        def ms(layer, phase, names=None):
            return 1e3 * sum(t for (l, n, p), t in own.items()
                             if l == layer and p == phase and (names is None or n in names))

        ops = {phase: max(n, 1) for phase, n in self.ops.items()}
        out = {"import.s": import_s, "data.ms": ms("data", "setup")}
        for phase in PHASES:
            k = ops[phase]
            out[f"conditioner.calls.{phase}"] = calls[("conditioner", "net_eval", phase)] / k
            out[f"conditioner.ms.{phase}"] = ms("conditioner", phase) / k
            out[f"scalarmap.calls.{phase}"] = calls[("scalarmap", "integrate", phase)] / k
            out[f"scalarmap.ms.{phase}"] = ms("scalarmap", phase) / k
            out[f"scalarmap.lane_steps.{phase}"] = tr.counts[("scalarmap.lane_steps", phase)] / k
            out[f"integrands.evals.{phase}"] = tr.counts[("integrands.evals", phase)] / k
            out[f"flow.ms.{phase}"] = ms("flow", phase) / k
        for phase in ("train", "epoch"):
            k = ops[phase]
            out[f"autodiff.nodes.{phase}"] = tr.counts[("autodiff.nodes", phase)] / k
            out[f"autodiff.backward_ms.{phase}"] = ms("autodiff", phase) / k
            out[f"training.ms.{phase}"] = ms("training", phase, {"nll_and_grad"}) / k
            out[f"training.adam_ms.{phase}"] = ms("training", phase, {"adam_step"}) / k
        out["training.loop_ms.epoch"] = ms("training", "epoch", {"train"}) / ops["epoch"]
        k = ops["refine"]
        out["inversion.calls.refine"] = calls[("inversion", "fixed_point", "refine")] / k
        out["inversion.passes.refine"] = tr.counts[("inversion.passes", "refine")] / k
        out["inversion.ms.refine"] = ms("inversion", "refine") / k
        return out

    def coverage(self):
        """Share of each phase's traced wall time covered by layer self times."""
        own = self.tracer.self_times()
        share = {}
        for phase in PHASES:
            if self.wall[phase] > 0:
                covered = sum(t for (_, _, p), t in own.items() if p == phase)
                share[phase] = covered / self.wall[phase]
        return share


def _not_one_epoch(result):
    """Why a one-epoch train() result is not a whole epoch, or None.

    train() stops silently on a divergence and returns the parameters of
    its best epoch, so a failed step shows only in the history.
    """
    history = result[1]
    if len(history) != 1:
        return f"train() ran {len(history)} epochs, not 1"
    if not (np.isfinite(history[0].train_nll) and np.isfinite(history[0].val_nll)):
        return f"train() epoch is not finite: {history[0]}"
    return None


def time_setup(args):
    """Seconds from starting a fresh process to its first timed operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        sys.exit(f"benchmark: set-up process failed ({child.returncode})")
    return elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import_timeflow()
    import_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    bench = Bench(WORKLOADS[args.workload], args.seed, tracer)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    # The set-up processes run between rounds, evenly over the run, so
    # their median sees the same stretch of the machine's drift as the
    # other metrics; the run is extended by the time they take.
    setups = []
    want_setups = 0 if args.trace else SETUP_REPEATS
    start = time.perf_counter()
    deadline = start + args.seconds
    r = 0
    while True:
        if len(setups) < want_setups and (
                time.perf_counter() - start >= len(setups) * args.seconds / want_setups):
            setups.append(time_setup(args))
            deadline += setups[-1]
        bench.round(r)
        r += 1
        if time.perf_counter() >= deadline:
            break
    while len(setups) < want_setups:
        setups.append(time_setup(args))
    setup_s = statistics.median(setups) if setups else None
    if tracer is not None:
        tracer.phase = "checks"
    bench.final_checks()
    bench.failure_problems()

    if args.trace:
        coverage = bench.coverage()
        for phase, share in coverage.items():
            if not 0.9 <= share <= 1.0 + 1e-9:
                bench.problems.append(f"{phase}: self times cover {share:.3f} of its wall time")
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                    workload=args.workload, seed=args.seed, rounds=r, ops=bench.ops,
                    failed=bench.failed,
                    coverage=coverage, end_to_end=bench.end_to_end(None))
        values, units = bench.per_layer(import_s), per_layer_units()
    else:
        values, units = bench.end_to_end(setup_s), END_TO_END_UNITS
    for detail in bench.problems:
        print(f"check failed: {detail}", file=sys.stderr)
    failed = {phase: n for phase, n in bench.failed.items() if n}
    print(f"{args.workload}: {r} rounds, {sum(bench.ops.values())} operations,"
          f" failed per phase {failed}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": sum(bench.ops.values()),
        "failed": sum(bench.failed.values()),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
