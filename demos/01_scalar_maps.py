#!/usr/bin/env python3
"""Tour of the scalar monotone maps.

A map sends x to v(1) where v' = g(v, t) with v(0) = x. The same dynamics
run backwards (t: 1 -> 0) give the inverse, and the time integral of
dg/dv along the trajectory gives the exact log-derivative. This script
walks through the three built-in integrand families and the basic
identities.
"""

import math

import numpy as np

from timeflow import (
    Integrand,
    RefineConfig,
    SolverConfig,
    derivative,
    forward,
    inverse,
)

fwd = SolverConfig(steps=32)
rev = fwd.reversed()

print("=== closed-form check: g(v) = v integrates to y = x * e ===")
g = Integrand.quadratic(a=1.0, b=0.0, c=0.0)
res = forward(g, fwd, 1.0)
print(f"y           = {res.y:.12f}   (e = {math.e:.12f})")
print(f"log q'(x)   = {res.log_deriv:.12f}   (exact: 1, since dg/dv = 1)")

print()
print("=== the three families bend space differently ===")
xs = np.linspace(-2.0, 2.0, 9)
for name, g in [
    ("quadratic      g = 0.3v + 0.1 + 0.2v^2", Integrand.quadratic(0.3, 0.1, 0.2)),
    ("cubic          g = 0.3v + 0.1 - 0.2v^3", Integrand.cubic(0.3, 0.1, -0.2)),
    ("sigmoid_affine g = 0.3v + 0.1 + 0.9s(v)", Integrand.sigmoid_affine(0.3, 0.1, 0.9)),
]:
    ys = forward(g, fwd, xs).y
    print(f"{name}")
    print("  x:", "  ".join(f"{v:7.3f}" for v in xs))
    print("  y:", "  ".join(f"{v:7.3f}" for v in ys))
    assert np.all(np.diff(ys) > 0), "maps are strictly increasing"

print()
print("=== explicit inverse: reverse the time limits, then polish ===")
g = Integrand.sigmoid_affine(0.4, -0.2, 1.2)
x_true = 0.83
y = forward(g, fwd, x_true).y
plain = inverse(g, rev, y)
refined = inverse(g, rev, y, RefineConfig(method="fixed_point", tolerance=1e-12))
print(f"target x                  = {x_true}")
print(f"reverse integration alone = {plain.x:.15f} (err {abs(plain.x - x_true):.2e})")
print(f"with fixed-point polish   = {refined.x:.15f}"
      f" (err {abs(refined.x - x_true):.2e}, {refined.iterations} iterations)")

print()
print("=== derivative identity: exp of the accumulated integral ===")
g = Integrand.quadratic(0.3, -0.2, 0.1)
x, h = 0.5, 1e-6
analytic = derivative(g, fwd, x)
fd = (forward(g, fwd, x + h).y - forward(g, fwd, x - h).y) / (2 * h)
print(f"exp(log-derivative) = {analytic:.12f}")
print(f"central difference  = {fd:.12f}")
print(f"relative gap        = {abs(analytic - fd) / fd:.2e}")

print()
print("=== trajectories are monotone in the initial condition ===")
g = Integrand.cubic(0.5, 0.0, -0.4)
traj = forward(g, SolverConfig(steps=8), np.array([-1.0, -0.3, 0.4, 1.1]),
               keep_trajectory=True).trajectory
for k, t in enumerate(np.linspace(0, 1, 9)):
    row = "  ".join(f"{v:7.4f}" for v in traj[k])
    print(f"t = {t:5.3f}:  {row}")
print("(columns never cross: scalar ODE trajectories preserve order)")
