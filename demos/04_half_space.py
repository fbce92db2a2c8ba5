#!/usr/bin/env python3
"""Half-space machinery: reflections, traces, and the Hodge decomposition.

Everything routes through the flavored reflection extension, so the boundary
conditions of resolvent and heat outputs hold to round-off by symmetry.
"""

import numpy as np

from hodgehalf.fields import Grid, random_form
from hodgehalf.halfspace import (d_half, delta_half, extend, hodge_resolvent,
                                 leray_halfspace, navier_slip_residual,
                                 normal_trace, q_projector, random_half_field,
                                 restrict, tangential_trace)
from hodgehalf.operators import resolvent
from hodgehalf.verify import VerifyOutcome, check_tangential_duality

grid = Grid(2, 128, 16.0)

print("== reflection identity for the Hodge resolvent ==")
f = random_half_field(grid, "Ht", [0b01, 0b10], seed=1, kind="annulus_band",
                      radii=(1.0, 3.0))
lam = 5.0 * np.exp(2.0j)
u = hodge_resolvent(lam, f)
defect = (extend(u) - resolvent(lam, extend(f))).l2_norm()
print(f"  |E u - (lam - D)^(-1) E f| = {defect:.3e}  (coefficientwise)")
print(f"  tangential trace of u:     {tangential_trace(u).l2_norm():.3e}")
print(f"  tangential trace of du:    {tangential_trace(d_half(u)).l2_norm():.3e}")
print("  (both boundary conditions hold by the odd reflection symmetry)")

print("\n== trace duality against half-domain quadrature ==")
uu = random_form(grid, [0b01, 0b10, 0b11], seed=2, kind="gaussian_bump",
                 width=2.0, center=(0.5, 1.5))
psi = random_form(grid, [0, 0b01], seed=3, kind="gaussian_bump",
                  width=2.0, center=(-1.0, 1.0))
duality = VerifyOutcome("demo")
check_tangential_duality(duality, uu, psi)
info = duality.worst["tangential_trace_duality"]
print("  wall integral of <nu _| u, psi> against <u, d psi> - <delta u, psi>")
print(f"  modulus of the larger side: {info['scale']:.3e}")
print(f"  duality defect / (|u| |psi|): {info['residual']:.3e} "
      f"(tol {info['tol']:.0e})")

print("\n== half-space Hodge decomposition ==")
pu, gu = leray_halfspace(f)
nf = f.l2_norm()
print(f"  |Pu + Gu - u| / |u|   = {(pu + gu - f).l2_norm() / nf:.3e}")
print(f"  |delta Pu| / |u|      = {delta_half(pu).l2_norm() / nf:.3e}")
print(f"  |d Gu| / |u|          = {d_half(gu).l2_norm() / nf:.3e}")
print(f"  |<Pu, Gu>| / |u|^2    = {abs(pu.l2_inner(gu)) / nf ** 2:.3e}")
print(f"  wall trace of Pu      = {tangential_trace(pu).l2_norm() / nf:.3e}")

print("\n== the mirrored (normal-flavor) projector ==")
g = random_half_field(grid, "Hn", [0b01, 0b10], seed=4, kind="annulus_band",
                      radii=(1.0, 3.0))
qu, ru = q_projector(g)
print(f"  |delta Qu| / |u|      = {delta_half(qu).l2_norm() / g.l2_norm():.3e}")
print(f"  |d Ru| / |u|          = {d_half(ru).l2_norm() / g.l2_norm():.3e}")
print(f"  normal trace of Ru    = {normal_trace(ru).l2_norm() / g.l2_norm():.3e}")

print("\n== Navier-slip boundary conditions on a flat wall ==")
fine = Grid(2, 256, 16.0)
ff = random_half_field(fine, "Ht", [0b01, 0b10], seed=5, kind="annulus_band",
                       radii=(0.7, 1.8))
vel = hodge_resolvent(1.0, ff)
normal_part, stress = navier_slip_residual(vel)
print(f"  resolvent output: |nu . u| = {normal_part:.3e}, "
      f"|[(grad u + grad u^T) nu]_tan| = {stress:.3e}")
generic = restrict(random_form(fine, [0b01, 0b10], seed=6,
                               kind="gaussian_bump", width=3.0,
                               center=(0.0, 2.0)), "Ht")
np_, st_ = navier_slip_residual(generic)
print(f"  generic field:    |nu . u| = {np_:.3e}, stress residual = {st_:.3e}")
print("  (absolute Hodge conditions and slip conditions agree on the flat wall)")
