"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here, not configurable.
"""

import csv
import itertools
import time

import numpy as np
import pytest

from hodgehalf import algebra as alg
from hodgehalf.evolution import SpaceParams, max_reg_sweep, sweep_spectra
from hodgehalf.fields import Grid, random_form
from hodgehalf.halfspace import (d_half, delta_half, extend,
                                 half_l2_inner, hodge_bc_residual,
                                 hodge_resolvent, leray_halfspace,
                                 navier_slip_residual, normal_trace,
                                 random_half_field, restrict, tangential_trace)
from hodgehalf.littlewood_paley import default_bank
from hodgehalf.operators import (d, delta, frac_laplacian, grad_l2, hess_l2,
                                 leray_wholespace, resolvent)
from hodgehalf.verify import momentum_residual_ratios, series_resolvent


def report(number, name, passed, detail):
    line = f"criterion {number:2d} [{name}]: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def rel(a, b):
    return a / max(b, 1e-300)


# ---------------------------------------------------------------------------

def test_criterion_01_exterior_algebra_exhaustive():
    start = time.monotonic()
    worst = 0.0
    for n in range(1, 5):
        dim = 1 << n
        rng = np.random.default_rng(n)
        avec = rng.standard_normal(n)
        aform = alg.AlgebraElement.one_form(avec)
        vvec = rng.standard_normal(n)
        vform = alg.AlgebraElement.one_form(vvec)
        vnorm2 = float(np.dot(vvec, vvec))
        for ma, mb in itertools.product(range(dim), repeat=2):
            ka, kb = alg.degree(ma), alg.degree(mb)
            ea, eb = alg.AlgebraElement.basis(n, ma), alg.AlgebraElement.basis(n, mb)
            anti = (alg.wedge(ea, eb).coeffs
                    - (-1.0) ** (ka * kb) * alg.wedge(eb, ea).coeffs)
            worst = max(worst, float(np.abs(anti).max()))
            adj = (alg.inner(alg.wedge(aform, ea), eb)
                   - alg.inner(ea, alg.interior(avec, eb)))
            worst = max(worst, abs(adj))
        for mask in range(dim):
            k = alg.degree(mask)
            e = alg.AlgebraElement.basis(n, mask)
            star2 = (alg.hodge_star(alg.hodge_star(e)).coeffs
                     - (-1.0) ** (k * (n - k)) * e.coeffs)
            worst = max(worst, float(np.abs(star2).max()))
            lag = (alg.wedge(vform, alg.interior(vvec, e))
                   + alg.interior(vvec, alg.wedge(vform, e)))
            worst = max(worst, rel(float(np.abs(lag.coeffs - vnorm2 * e.coeffs).max()),
                                   max(vnorm2, 1.0)))
    elapsed = time.monotonic() - start
    report(1, "exterior algebra", worst < 1e-12 and elapsed < 5.0,
           f"max residual {worst:.2e}, runtime {elapsed:.2f}s")


def _fd8(arr, axis, spacing):
    w = [1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0, 4 / 5, -1 / 5, 4 / 105, -1 / 280]
    out = np.zeros_like(arr)
    for off, c in zip(range(-4, 5), w):
        if c:
            out += c * np.roll(arr, -off, axis=axis)
    return out / spacing


def test_criterion_02_derivative_symbols_vs_finite_differences():
    start = time.monotonic()
    worst_fd = 0.0
    worst_nil = 0.0
    configs = [(2, 128, 3.0), (3, 64, 5.0)]
    for n, points, width in configs:
        grid = Grid(n, points, 16.0)
        masks = [1 << a for a in range(n)]
        for seed in range(3):
            u = random_form(grid, masks, seed=seed, kind="gaussian_bump",
                            width=width,
                            center=tuple(0.5 * (seed - 1) for _ in range(n)))
            du, eu = d(u), delta(u)
            h = grid.spacing
            # degree-2 components of du against the antisymmetrized FD:
            # (du)_{ij} = d_i u_j - d_j u_i for i < j
            for mi, mj in itertools.combinations(range(n), 2):
                got = du.component((1 << mi) | (1 << mj))
                oracle = (_fd8(u.comps[1 << mj], mi, h)
                          - _fd8(u.comps[1 << mi], mj, h))
                worst_fd = max(worst_fd,
                               rel(float(np.abs(got - oracle).max()),
                                   float(np.abs(oracle).max())))
            div_oracle = sum(_fd8(u.comps[1 << m], m, h) for m in range(n))
            worst_fd = max(worst_fd,
                           rel(float(np.abs(eu.component(0) + div_oracle).max()),
                               float(np.abs(div_oracle).max())))
            surrogate = u.l2_norm() + grad_l2(u) + hess_l2(u)
            worst_nil = max(worst_nil, rel(d(du).l2_norm(), surrogate))
            worst_nil = max(worst_nil, rel(delta(eu).l2_norm(), surrogate))
    elapsed = time.monotonic() - start
    report(2, "derivative symbols", worst_fd < 1e-6 and worst_nil < 1e-10
           and elapsed < 30.0,
           f"fd residual {worst_fd:.2e}, nilpotency {worst_nil:.2e}, "
           f"runtime {elapsed:.1f}s")


def test_criterion_03_wholespace_hodge_decomposition():
    worst = {"split": 0.0, "sol": 0.0, "curl": 0.0, "orth": 0.0, "vec": 0.0}
    for n, points in ((2, 128), (3, 64)):
        grid = Grid(n, points, 16.0)
        masks = [m for m in range(1 << n) if alg.degree(m) in (1, 2)]
        for seed in range(10):
            u = random_form(grid, masks, seed=seed, kind="annulus_band",
                            radii=(1.0, 3.0))
            pu, gu = leray_wholespace(u)
            nu = u.l2_norm()
            worst["split"] = max(worst["split"], rel((pu + gu - u).l2_norm(), nu))
            worst["sol"] = max(worst["sol"], rel(delta(pu).l2_norm(), grad_l2(u)))
            worst["curl"] = max(worst["curl"], rel(d(gu).l2_norm(), grad_l2(u)))
            worst["orth"] = max(worst["orth"], rel(abs(pu.l2_inner(gu)), nu ** 2))
        # vector formula on 1-forms
        v = random_form(grid, [1 << a for a in range(n)], seed=77,
                        kind="annulus_band", radii=(1.0, 3.0))
        pv, _ = leray_wholespace(v)
        div = -1 * delta(v)
        expected = v + d(resolvent(0.0, div))
        worst["vec"] = max(worst["vec"], rel((pv - expected).l2_norm(), v.l2_norm()))
    ok = (worst["split"] < 1e-14 and worst["sol"] < 1e-10
          and worst["curl"] < 1e-10 and worst["orth"] < 1e-10
          and worst["vec"] < 1e-12)
    report(3, "whole-space Hodge decomposition", ok,
           ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))


def test_criterion_04_reflection_identity():
    grid = Grid(2, 128, 16.0)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=3,
                          kind="annulus_band", radii=(1.0, 3.0))
    worst_id = 0.0
    worst_bc = 0.0
    samples = [r * np.exp(1j * th) for r in (0.1, 1.0, 10.0, 100.0)
               for th in (0.0, 2.35, -2.35)]
    assert len(samples) == 12
    for lam in samples:
        u = hodge_resolvent(lam, f)
        lhs, rhs = extend(u), resolvent(lam, extend(f))
        worst_id = max(worst_id, rel((lhs - rhs).l2_norm(), rhs.l2_norm()))
        bc = (tangential_trace(u).l2_norm()
              + tangential_trace(d_half(u)).l2_norm())
        worst_bc = max(worst_bc, rel(bc, u.l2_norm()))
    report(4, "half-space reflection identity",
           worst_id < 1e-12 and worst_bc < 1e-8,
           f"identity {worst_id:.2e}, boundary {worst_bc:.2e}")


def test_criterion_05_resolvent_estimate_uniformity(tmp_path):
    grid = Grid(2, 128, 16.0)
    radii = [10.0 ** e for e in range(-2, 3)]
    angles = list(np.linspace(-3 * np.pi / 4, 3 * np.pi / 4, 9))
    rows = []

    f_full = random_form(grid, [0b01, 0b10], seed=5, kind="annulus_band",
                         radii=(1.5, 2.5))
    f_half = random_half_field(grid, "Ht", [0b01, 0b10], seed=6,
                               kind="annulus_band", radii=(1.5, 2.5))
    for r in radii:
        for th in angles:
            lam = r * np.exp(1j * th)
            u = resolvent(lam, f_full)
            ratio = (abs(lam) * u.l2_norm() + abs(lam) ** 0.5 * grad_l2(u)
                     + hess_l2(u)) / f_full.l2_norm()
            rows.append({"domain": "whole", "radius": r, "angle": th,
                         "ratio": ratio})
            uh = hodge_resolvent(lam, f_half)
            U, F = extend(uh), extend(f_half)
            ratio_h = (abs(lam) * U.l2_norm() + abs(lam) ** 0.5 * grad_l2(U)
                       + hess_l2(U)) / F.l2_norm()
            rows.append({"domain": "half", "radius": r, "angle": th,
                         "ratio": ratio_h})
    csv_path = tmp_path / "resolvent_sweep.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["domain", "radius", "angle",
                                                "ratio"])
        writer.writeheader()
        writer.writerows(rows)
    spreads = {}
    for domain in ("whole", "half"):
        vals = [r["ratio"] for r in rows if r["domain"] == domain]
        spreads[domain] = max(vals) / min(vals)
    report(5, "resolvent-estimate uniformity",
           all(s < 3.0 for s in spreads.values()),
           f"spread whole {spreads['whole']:.3f}, half {spreads['half']:.3f}, "
           f"csv {csv_path}")


def test_criterion_06_halfspace_hodge_decomposition():
    worst = {"idem": 0.0, "orth": 0.0, "bc": 0.0, "split": 0.0,
             "sol": 0.0, "curl": 0.0, "decouple": 0.0}
    for n, points in ((2, 128), (3, 64)):
        grid = Grid(n, points, 16.0)
        masks = [m for m in range(1 << n) if alg.degree(m) == 1]
        for seed in range(5):
            u = random_half_field(grid, "Ht", masks, seed=seed,
                                  kind="annulus_band", radii=(1.0, 3.0))
            pu, gu = leray_halfspace(u)
            nu = u.l2_norm()
            worst["split"] = max(worst["split"], rel((pu + gu - u).l2_norm(), nu))
            worst["sol"] = max(worst["sol"], rel(delta_half(pu).l2_norm(), nu))
            worst["curl"] = max(worst["curl"], rel(d_half(gu).l2_norm(), nu))
            worst["orth"] = max(worst["orth"], rel(abs(pu.l2_inner(gu)), nu ** 2))
            worst["bc"] = max(worst["bc"], rel(tangential_trace(pu).l2_norm(), nu))
            pp, _ = leray_halfspace(pu)
            worst["idem"] = max(worst["idem"], rel((pp - pu).l2_norm(), nu))
        # componentwise Neumann / Dirichlet decoupling of the resolvent,
        # against the sine / cosine series solve
        f = random_half_field(grid, "Ht",
                              [m for m in range(1 << n)
                               if alg.degree(m) in (1, 2)],
                              seed=11, width=2.0)
        lam = 2.0 * np.exp(0.4j)
        u = hodge_resolvent(lam, f)
        for mask in f.masks():
            bc = "D" if mask >> (n - 1) & 1 else "N"
            per = series_resolvent(lam, f.comps[mask], grid, bc)
            worst["decouple"] = max(
                worst["decouple"],
                rel(float(np.abs(u.comps[mask] - per).max()),
                    float(np.abs(per).max())))
    ok = (worst["idem"] < 1e-9 and worst["orth"] < 1e-8 and worst["bc"] < 1e-8
          and worst["split"] < 1e-13 and worst["sol"] < 1e-9
          and worst["curl"] < 1e-9 and worst["decouple"] < 1e-10)
    report(6, "half-space Hodge decomposition", ok,
           ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))


def test_criterion_07_trace_duality():
    worst = 0.0
    for n, points in ((2, 128), (3, 64)):
        grid = Grid(n, points, 16.0)
        rng = np.random.default_rng(60 + n)
        half_idx = grid.points // 2
        masks_mid = [m for m in range(1 << n) if alg.degree(m) in (1, 2)]
        masks_low = [m for m in range(1 << n) if alg.degree(m) in (0, 1)]
        for trial in range(10):
            cu = tuple(rng.uniform(-2, 2, n - 1)) + (rng.uniform(0.5, 2.5),)
            cp = tuple(rng.uniform(-2, 2, n - 1)) + (rng.uniform(0.5, 2.5),)
            u = random_form(grid, masks_mid, seed=500 + trial,
                            kind="gaussian_bump", width=2.0, center=cu)
            psi = random_form(grid, masks_low, seed=600 + trial,
                              kind="gaussian_bump", width=2.0, center=cp)
            scale = u.l2_norm() * psi.l2_norm()
            boundary = {m: psi.comps[m][..., half_idx] for m in psi.comps}
            lhs = tangential_trace(u).pair_with_boundary_values(boundary)
            rhs = half_l2_inner(u, d(psi)) - half_l2_inner(delta(u), psi)
            worst = max(worst, rel(abs(lhs - rhs), scale))

            psi_up = random_form(grid,
                                 [m for m in range(1 << n)
                                  if alg.degree(m) == 2],
                                 seed=700 + trial, kind="gaussian_bump",
                                 width=2.0, center=cp)
            boundary_up = {m: psi_up.comps[m][..., half_idx]
                           for m in psi_up.comps}
            lhs2 = normal_trace(u).pair_with_boundary_values(boundary_up)
            rhs2 = half_l2_inner(d(u), psi_up) - half_l2_inner(u, delta(psi_up))
            worst = max(worst, rel(abs(lhs2 - rhs2), scale))
    report(7, "trace duality", worst < 1e-6, f"worst residual {worst:.2e}")


def test_criterion_08_navier_slip_equivalence():
    grid = Grid(2, 256, 16.0)
    masks = [0b01, 0b10]
    worst_forward = 0.0
    worst_converse = 0.0
    for seed in range(5):
        # Hodge-side fields: resolvent outputs satisfy the absolute conditions
        f = random_half_field(grid, "Ht", masks, seed=seed,
                              kind="annulus_band", radii=(0.7, 1.8))
        u = hodge_resolvent(1.0 + 0.2j * seed, f)
        normal_part, stress = navier_slip_residual(u)
        worst_forward = max(worst_forward, rel(normal_part, u.l2_norm()),
                            rel(stress, u.l2_norm()))
        # slip-side fields: even tangential, odd normal components
        w = random_half_field(grid, "Ht", masks, seed=50 + seed,
                              kind="annulus_band", radii=(0.7, 1.8))
        np_, st_ = navier_slip_residual(w)
        assert rel(np_, w.l2_norm()) < 1e-7 and rel(st_, w.l2_norm()) < 1e-7
        bc_u, bc_du = hodge_bc_residual(w)
        worst_converse = max(worst_converse, rel(bc_u, w.l2_norm()),
                             rel(bc_du, w.l2_norm()))
    report(8, "Navier-slip equivalence",
           worst_forward < 1e-7 and worst_converse < 1e-7,
           f"hodge->slip {worst_forward:.2e}, slip->hodge {worst_converse:.2e}")


def test_criterion_09_maxreg_uniformity():
    start = time.monotonic()
    horizons = (1.0, 10.0, 100.0)
    results = {}

    # q = 1 runs at the stated 2-d scale
    grid2 = Grid(2, 128, 16.0)
    bank2 = default_bank(grid2)
    f2 = random_half_field(grid2, "Ht", [0b01, 0b10], seed=7,
                           kind="annulus_band", radii=(1.0, 1.3))
    pf2, _ = leray_halfspace(f2)
    u02 = restrict(frac_laplacian(-2.0, extend(pf2)), "Ht")
    w2 = random_half_field(grid2, "Ht", [0b01, 0b10], seed=8,
                           kind="annulus_band", radii=(1.0, 1.3))
    u02 = u02 + 0.05 * leray_halfspace(w2)[0]
    spectra2 = sweep_spectra("hodge_stokes", f2, u02)
    results[(0.0, 2.0, 1.0)] = [
        rep.ratio for rep in max_reg_sweep("hodge_stokes", *spectra2, horizons,
                                           256, [SpaceParams(0.0, 2.0, 1.0)],
                                           bank2)]

    # the q = 2 parameter sets fail the completeness gate in dimension 2 ...
    for s in (0.0, 0.25):
        with pytest.raises(ValueError):
            max_reg_sweep("hodge_stokes", *spectra2, [1.0], 4,
                          [SpaceParams(s, 2.0, 2.0)], bank2)

    # ... and run in dimension 3 where (C_{s+2-2/q, p, q}) holds
    grid3 = Grid(3, 32, 8.0)
    bank3 = default_bank(grid3)
    masks3 = [0b001, 0b010, 0b100]
    f3 = random_half_field(grid3, "Ht", masks3, seed=9, kind="annulus_band",
                           radii=(1.02, 1.3))
    pf3, _ = leray_halfspace(f3)
    u03 = restrict(frac_laplacian(-2.0, extend(pf3)), "Ht")
    w3 = random_half_field(grid3, "Ht", masks3, seed=10, kind="annulus_band",
                           radii=(1.02, 1.3))
    u03 = u03 + 0.05 * leray_halfspace(w3)[0]
    spectra3 = sweep_spectra("hodge_stokes", f3, u03)
    # both sets in one sweep, reported set by set
    for rep in max_reg_sweep("hodge_stokes", *spectra3, horizons, 384,
                             [SpaceParams(s, 2.0, 2.0) for s in (0.0, 0.25)],
                             bank3):
        results.setdefault((rep.s, rep.p, rep.q), []).append(rep.ratio)

    elapsed = time.monotonic() - start
    drift = {k: max(v) / min(v) for k, v in results.items()}
    finite_q1 = all(np.isfinite(r) and r > 0 for r in results[(0.0, 2.0, 1.0)])
    ok = all(dv < 1.10 for dv in drift.values()) and finite_q1 and elapsed < 600
    detail = ", ".join(f"(s={k[0]},q={int(k[2])}) drift {v:.4f}"
                       for k, v in drift.items())
    report(9, "maximal-regularity uniformity", ok,
           f"{detail}, runtime {elapsed:.0f}s")


def test_criterion_10_time_stepping_self_convergence():
    grid = Grid(2, 64, 8.0)
    ratios = momentum_residual_ratios(grid, seed=4, steps0=16, doublings=2)
    ok = all(3.6 <= r <= 4.4 for r in ratios)
    report(10, "time-stepping self-convergence", ok,
           "doubling factors " + ", ".join(f"{r:.2f}" for r in ratios))
