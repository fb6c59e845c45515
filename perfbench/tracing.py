"""Spans and counters at the boundaries between timeflow's modules.

`install` rebinds the names through which timeflow's modules call one
another (for instance `timeflow.flow.net_eval`, `timeflow.training.backward`)
to wrappers that record one span per call, so nothing in the package's
source changes. Each span holds its layer, name, phase, start, end and
the index of the span that was open when it began. Spans stay in memory
until `dump` writes them out at the end of a run.

A layer's self time is its spans' durations minus the time covered by
their child spans, so the self times of one phase add up to the traced
time of the calls the benchmark made in it.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.spans = []  # [layer, name, phase, start, end, parent index or -1]
        self.counts = defaultdict(int)  # (counter, phase) -> total
        self._open = []

    def wrap(self, layer, name, fn, before=None):
        """`fn` with one span per call; `before(*args)` may add to counters."""
        spans, stack, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            rec = [layer, name, self.phase, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def count(self, counter, n=1):
        self.counts[(counter, self.phase)] += n

    def counting(self, counter, fn):
        """`fn` adding one to `counter` per call."""

        def counted(*args, **kwargs):
            self.counts[(counter, self.phase)] += 1
            return fn(*args, **kwargs)

        return counted

    def self_times(self):
        """Seconds of self time per (layer, name, phase)."""
        durations = [rec[4] - rec[3] for rec in self.spans]
        own = list(durations)
        for rec, dur in zip(self.spans, durations):
            if rec[5] >= 0:
                own[rec[5]] -= dur
        totals = defaultdict(float)
        for rec, t in zip(self.spans, own):
            totals[(rec[0], rec[1], rec[2])] += t
        return totals

    def span_counts(self):
        """Number of spans per (layer, name, phase)."""
        totals = defaultdict(int)
        for rec in self.spans:
            totals[(rec[0], rec[1], rec[2])] += 1
        return totals

    def dump(self, path, **extra):
        doc = dict(extra)
        doc["span_fields"] = ["layer", "name", "phase", "start_s", "end_s", "parent"]
        doc["spans"] = self.spans
        doc["counts"] = [[c, p, n] for (c, p), n in sorted(self.counts.items())]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")


def install(tracer):
    """Route timeflow's inter-module calls through `tracer`."""
    from timeflow import autodiff, data, flow, inversion, training

    span = tracer.wrap

    def lane_steps(value_fn, dv_fn, x, cfg, **_):
        tracer.count("scalarmap.lane_steps", int(np.size(autodiff.value_of(x))) * cfg.steps)

    for mod in (flow, inversion):
        mod.integrate = span("scalarmap", "integrate", mod.integrate, before=lane_steps)
    flow.net_eval = span("conditioner", "net_eval", flow.net_eval)

    family_functions = flow.family_functions

    def counted_family_functions(family):
        return tuple(tracer.counting("integrands.evals", fn) for fn in family_functions(family))

    flow.family_functions = counted_family_functions

    for name in ("layer_forward", "layer_inverse", "model_forward", "model_inverse",
                 "log_density", "sample"):
        setattr(flow, name, span("flow", name, getattr(flow, name)))
    for name in ("parameters", "set_parameters"):
        setattr(flow.FlowModel, name, span("flow", name, getattr(flow.FlowModel, name)))
    training.log_density = flow.log_density

    training.backward = span("autodiff", "backward", training.backward)
    autodiff.Node.__init__ = tracer.counting("autodiff.nodes", autodiff.Node.__init__)

    for name in ("nll_and_grad", "adam_step", "train"):
        setattr(training, name, span("training", name, getattr(training, name)))

    fixed_point = inversion._fixed_point

    def counted_fixed_point(q, y, x0, rc):
        return fixed_point(tracer.counting("inversion.passes", q), y, x0, rc)

    inversion._fixed_point = span("inversion", "fixed_point", counted_fixed_point)

    data.toy2d = span("data", "toy2d", data.toy2d)
    data.Dataset = span("data", "Dataset", data.Dataset)
