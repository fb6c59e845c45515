#!/usr/bin/env python3
"""Bisection versus fixed-point iteration for inverting a scalar map.

Both solve forward(x) = y on a strictly increasing map. Bisection halves
a bracket; the fixed-point iteration x <- y - (q(x) - x), seeded with a
five-node trapezoid discretization of the reverse-time integral, rides
the map's structure and needs roughly half the steps at equal tolerance.
"""

import numpy as np

from timeflow import Integrand, RefineConfig, SolverConfig, forward
from timeflow.inversion import bisection_invert, fixedpoint_invert, run_bench

# one input, blow by blow
g = Integrand.quadratic(0.2, 0.1, 0.1)
cfg = SolverConfig(steps=16)
x_true = 0.62
y = forward(g, cfg, x_true).y
print(f"invert y = {y:.6f} (true preimage {x_true})")
for tol in (1e-3, 1e-6, 1e-9):
    rc = RefineConfig(method="bisection", tolerance=tol)
    bi = bisection_invert(g, cfg, y, rc)
    rc = RefineConfig(method="fixed_point", tolerance=tol)
    fp = fixedpoint_invert(g, cfg, y, rc)
    print(f"  tol {tol:7.0e}:  bisection {bi.iterations:2d} steps (err {abs(bi.x - x_true):.1e})"
          f"   fixed-point {fp.iterations:2d} steps (err {abs(fp.x - x_true):.1e})")

# the averaged benchmark over 1000 uniform inputs
print()
report = run_bench(n_inputs=1000, seed=0)
print(report.summary())
print()
for tol in (1e-3, 1e-4, 1e-5, 1e-6):
    fp = report.mean_steps(tol, "fixed_point")
    bi = report.mean_steps(tol, "bisection")
    print(f"tolerance {tol:7.0e}: fixed-point/bisection step ratio {fp / bi:.2f}")
bis = [report.mean_steps(t, "bisection") for t in (1e-3, 1e-4, 1e-5, 1e-6)]
print(f"bisection growth per tolerance decade: {np.diff(bis).mean():.2f} steps"
      f" (log2(10) = {np.log2(10):.2f})")
