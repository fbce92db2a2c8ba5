#!/usr/bin/env python3
"""Evolution systems on the half-space and the maximal-regularity harness.

Runs the Hodge-heat, Hodge-Stokes, and Navier-slip systems, checks the
structure the solutions must carry at every node, and sweeps the horizon to
show the global-in-time uniformity of the regularity ratio.
"""

import numpy as np

from hodgehalf.evolution import (SpaceParams, max_reg_sweep, solve_navier_slip,
                                 sweep_spectra)
from hodgehalf.fields import Grid
from hodgehalf.halfspace import (d_half, delta_half, extend, leray_halfspace,
                                 random_half_field, restrict, tangential_trace)
from hodgehalf.littlewood_paley import default_bank
from hodgehalf.operators import frac_laplacian
from hodgehalf.verify import momentum_residual_ratios

grid = Grid(2, 64, 8.0)
masks = [0b01, 0b10]

print("== Navier-slip Stokes flow ==")
u0 = leray_halfspace(random_half_field(grid, "Ht", masks, seed=1,
                                       kind="annulus_band", radii=(1.0, 2.5)))[0]
forcing = random_half_field(grid, "Ht", masks, seed=2, kind="annulus_band",
                            radii=(1.0, 2.5))
traj, grad_p = solve_navier_slip(forcing, u0, 1.0, 64)
div_worst = max(delta_half(um).l2_norm() for um in traj.u)
trace_worst = max(tangential_trace(um).l2_norm() for um in traj.u)
curl_p = max(d_half(gp).l2_norm() for gp in grad_p)
print(f"  64 steps to T=1: final |u| = {traj.u[-1].l2_norm():.4f}")
print(f"  worst |div u(t)|          = {div_worst:.3e}")
print(f"  worst wall trace          = {trace_worst:.3e}")
print(f"  worst |curl grad p(t)|    = {curl_p:.3e}")

print("\n== second-order self-convergence of the momentum residual ==")
ratios = momentum_residual_ratios(grid, seed=3, steps0=16, doublings=2)
print("  residual reduction when doubling the step count:",
      ", ".join(f"{r:.2f}" for r in ratios), "(4.0 = exactly second order)")

print("\n== maximal-regularity ratio, uniform in the horizon ==")
big = Grid(2, 128, 16.0)
bank = default_bank(big)
f = random_half_field(big, "Ht", masks, seed=4, kind="annulus_band",
                      radii=(1.0, 1.3))
pf, _ = leray_halfspace(f)
steady = restrict(frac_laplacian(-2.0, extend(pf)), "Ht")
w = leray_halfspace(random_half_field(big, "Ht", masks, seed=5,
                                      kind="annulus_band", radii=(1.0, 1.3)))[0]
u0 = steady + 0.05 * w
params = SpaceParams(0.0, 2.0, 1.0)
print("  forcing in equilibrium with the datum, measured in L^1_t Besov:")
for rep in max_reg_sweep("hodge_stokes", *sweep_spectra("hodge_stokes", f, u0),
                         (1.0, 10.0, 100.0), 256, [params], bank):
    print(f"    T = {rep.horizon:5.0f}: |u|_sup = {rep.sup_interp_norm:7.3f}, "
          f"|(du/dt, hess u)|_Lq = {rep.lq_evolution_norm:8.3f}, "
          f"ratio = {rep.ratio:.6f}")
print("  the ratio barely moves: the estimate constant is global in time")
