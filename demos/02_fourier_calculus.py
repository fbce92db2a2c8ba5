#!/usr/bin/env python3
"""Whole-space calculus: symbols of d and delta, Riesz transforms, and the
Helmholtz-Leray split, all on the torus surrogate of R^2 and R^3."""

import numpy as np

from hodgehalf.fields import Grid, random_form
from hodgehalf.operators import (d, delta, frac_laplacian, grad_l2, heat,
                                 hess_l2, laplacian, leray_wholespace,
                                 resolvent, riesz, sector_sweep, wedge_const)

grid = Grid(2, 128, 16.0)
u = random_form(grid, [0b01, 0b10], seed=1, kind="annulus_band",
                radii=(1.0, 3.0))

print("== nilpotency and duality ==")
print(f"  |d(du)| / scale      = {d(d(u)).l2_norm() / hess_l2(u):.3e}")
print(f"  |delta(delta u)|     = {delta(delta(d(u))).l2_norm():.3e}")
lhs = d(u).l2_inner(u)
rhs = u.l2_inner(delta(u))
print(f"  <du, u> - <u, delta u> = {abs(lhs - rhs):.3e}  (torus: no boundary)")

print("\n== the Laplacian and its functions ==")
f = random_form(grid, [0], seed=2, kind="annulus_band", radii=(1.0, 3.0))
sol = resolvent(2.0 + 1.0j, f)
resid = ((2.0 + 1.0j) * sol - laplacian(sol) - f).l2_norm() / f.l2_norm()
print(f"  resolvent residual at lambda = 2+i: {resid:.3e}")
flow = heat(0.5, f)
print(f"  heat contraction |e^(0.5 D)f| / |f| = {flow.l2_norm() / f.l2_norm():.4f}")
sq = frac_laplacian(1.0, frac_laplacian(1.0, f))
print(f"  |(-D)^(1/2) twice vs -D|: {(sq + laplacian(f)).l2_norm() / hess_l2(f):.3e}")

print("\n== Riesz transforms factor the Dirac operator ==")
grid3 = Grid(3, 64, 16.0)
w = random_form(grid3, [0b001, 0b010], seed=3, kind="annulus_band",
                radii=(1.0, 2.5))
lhs = d(frac_laplacian(-1.0, w))
rhs = None
for k in range(3):
    term = riesz(k, wedge_const(np.eye(3)[k], w))
    rhs = term if rhs is None else rhs + term
print(f"  |d (-D)^(-1/2) w - sum_k R_k e_k ^ w| / |w| = "
      f"{(lhs - rhs).l2_norm() / w.l2_norm():.3e}")

print("\n== Helmholtz-Leray split ==")
pu, gu = leray_wholespace(u)
print(f"  reconstruction  |Pu + Gu - u| = {(pu + gu - u).l2_norm():.3e}")
print(f"  divergence-free |delta Pu|    = {delta(pu).l2_norm():.3e}")
print(f"  curl-free       |d Gu|        = {d(gu).l2_norm():.3e}")
print(f"  orthogonality   |<Pu, Gu>|    = {abs(pu.l2_inner(gu)):.3e}")

print("\n== resolvent-estimate sweep over the sector ==")
f = random_form(grid, [0], seed=4, kind="annulus_band", radii=(1.5, 2.5))
rows = sector_sweep(lambda lam: resolvent(lam, f), f)
ratios = [r["ratio"] for r in rows]
print(f"  {len(rows)} samples: ratio range [{min(ratios):.3f}, {max(ratios):.3f}], "
      f"spread {max(ratios) / min(ratios):.3f}")
print("  (|lambda| |u| + |lambda|^(1/2) |grad u| + |hess u|) / |f| stays bounded")
