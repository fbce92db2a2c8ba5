"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  No tolerance is configurable.  Criteria 01-07 and
10 run the identity routines of ``hodgehalf verify``, whose tolerances live
in ``hodgehalf.verify.TOLERANCES``; every other bound is stated beside its
criterion.  Every printout line shows each bound next to the value it
limits.
"""

import csv
import time

import numpy as np
import pytest

from hodgehalf import algebra as alg
from hodgehalf.evolution import SpaceParams, max_reg_sweep, sweep_spectra
from hodgehalf.fields import Grid, random_form
from hodgehalf.halfspace import (extend, hodge_bc_residual, hodge_resolvent,
                                 leray_halfspace, navier_slip_residual,
                                 random_half_field, restrict)
from hodgehalf.littlewood_paley import default_bank
from hodgehalf.operators import (d, delta, frac_laplacian, leray_wholespace,
                                 resolvent)
from hodgehalf.verify import (VerifyOutcome, _rel as rel, check_algebra,
                              check_decoupling, check_fd_derivatives,
                              check_half_split, check_nilpotency,
                              check_resolvent, check_resolvent_sweep,
                              check_self_convergence, check_wholespace_split,
                              trace_duality)


def report(number, name, passed, detail):
    line = f"criterion {number:2d} [{name}]: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def checks(outcome):
    """Each check of an outcome: its worst residual and its tolerance."""
    return ", ".join(f"{check} {info['residual']:.2e} (tol {info['tol']:.0e})"
                     for check, info in outcome.worst.items())


# ---------------------------------------------------------------------------

def test_criterion_01_exterior_algebra_exhaustive():
    start = time.monotonic()
    outcome = VerifyOutcome("criterion 01")
    for n in range(1, 5):
        rng = np.random.default_rng(n)
        avec = rng.standard_normal(n)
        check_algebra(outcome, avec, rng.standard_normal(n))
    elapsed = time.monotonic() - start
    report(1, "exterior algebra", outcome.status == "ok" and elapsed < 5.0,
           f"{checks(outcome)}, runtime {elapsed:.2f}s (limit 5s)")


def test_criterion_02_derivative_symbols_vs_finite_differences():
    start = time.monotonic()
    outcome = VerifyOutcome("criterion 02")
    for n, points, width in [(2, 128, 3.0), (3, 64, 5.0)]:
        grid = Grid(n, points, 16.0)
        for seed in range(3):
            bump = {"seed": seed, "kind": "gaussian_bump", "width": width,
                    "center": tuple(0.5 * (seed - 1) for _ in range(n))}
            check_fd_derivatives(outcome, random_form(
                grid, [1 << a for a in range(n)], **bump))
            check_nilpotency(outcome, random_form(
                grid, [(1 << k) - 1 for k in range(n + 1)], **bump))
    elapsed = time.monotonic() - start
    report(2, "derivative symbols", outcome.status == "ok" and elapsed < 30.0,
           f"{checks(outcome)}, runtime {elapsed:.1f}s (limit 30s)")


def test_criterion_03_wholespace_hodge_decomposition():
    outcome = VerifyOutcome("criterion 03")
    for n, points in ((2, 128), (3, 64)):
        grid = Grid(n, points, 16.0)
        masks = [m for m in range(1 << n) if alg.degree(m) in (1, 2)]
        for seed in range(10):
            check_wholespace_split(outcome, random_form(
                grid, masks, seed=seed, kind="annulus_band", radii=(1.0, 3.0)))
        # vector formula on 1-forms: P = I + grad (-Delta)^(-1) div
        v = random_form(grid, [1 << a for a in range(n)], seed=77,
                        kind="annulus_band", radii=(1.0, 3.0))
        pv, _ = leray_wholespace(v)
        expected = v + d(resolvent(0.0, -1 * delta(v)))
        outcome.record("vector_formula",
                       rel((pv - expected).l2_norm(), v.l2_norm()),
                       v.l2_norm(), tol=1e-12)
    report(3, "whole-space Hodge decomposition", outcome.status == "ok",
           checks(outcome))


def test_criterion_04_reflection_identity():
    grid = Grid(2, 128, 16.0)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=3,
                          kind="annulus_band", radii=(1.0, 3.0))
    samples = [r * np.exp(1j * th) for r in (0.1, 1.0, 10.0, 100.0)
               for th in (0.0, 2.35, -2.35)]
    assert len(samples) == 12
    outcome = VerifyOutcome("criterion 04")
    for lam in samples:
        check_resolvent(outcome, lam, f)
    report(4, "half-space reflection identity", outcome.status == "ok",
           checks(outcome))


def test_criterion_05_resolvent_estimate_uniformity(tmp_path):
    grid = Grid(2, 128, 16.0)
    band = {"kind": "annulus_band", "radii": (1.5, 2.5)}
    data = {"whole": random_form(grid, [0b01, 0b10], seed=5, **band),
            "half": random_half_field(grid, "Ht", [0b01, 0b10], seed=6, **band)}
    outcomes = {domain: VerifyOutcome(f"criterion 05 {domain}")
                for domain in data}
    rows = [{"domain": domain, **row} for domain, f in data.items()
            for row in check_resolvent_sweep(outcomes[domain], f)]
    csv_path = tmp_path / "resolvent_sweep.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    spread = {domain: out.worst["resolvent_sweep_spread"]
              for domain, out in outcomes.items()}
    report(5, "resolvent-estimate uniformity",
           all(out.status == "ok" for out in outcomes.values()),
           f"spread whole {spread['whole']['residual']:.3f}, half "
           f"{spread['half']['residual']:.3f} (tol {spread['half']['tol']:g}), "
           f"csv {csv_path}")


def test_criterion_06_halfspace_hodge_decomposition():
    outcome = VerifyOutcome("criterion 06")
    for n, points in ((2, 128), (3, 64)):
        grid = Grid(n, points, 16.0)
        masks = [m for m in range(1 << n) if alg.degree(m) == 1]
        for seed in range(5):
            check_half_split(outcome, random_half_field(
                grid, "Ht", masks, seed=seed, kind="annulus_band",
                radii=(1.0, 3.0)))
        f = random_half_field(grid, "Ht",
                              [m for m in range(1 << n)
                               if alg.degree(m) in (1, 2)],
                              seed=11, width=2.0)
        check_decoupling(outcome, 2.0 * np.exp(0.4j), f)
    report(6, "half-space Hodge decomposition", outcome.status == "ok",
           checks(outcome))


def test_criterion_07_trace_duality():
    outcome = VerifyOutcome("criterion 07")
    for n, points in ((2, 128), (3, 64)):
        trace_duality(outcome, Grid(n, points, 16.0),
                      np.random.default_rng(60 + n), seed=500, trials=10)
    report(7, "trace duality", outcome.status == "ok", checks(outcome))


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
           f"hodge->slip {worst_forward:.2e}, slip->hodge "
           f"{worst_converse:.2e} (tol 1e-07)")


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
           f"{detail} (tol 1.1), runtime {elapsed:.0f}s (limit 600s)")


def test_criterion_10_time_stepping_self_convergence():
    outcome = VerifyOutcome("criterion 10")
    ratios = check_self_convergence(outcome, Grid(2, 64, 8.0), seed=4)
    report(10, "time-stepping self-convergence", outcome.status == "ok",
           "doubling factors " + ", ".join(f"{r:.2f}" for r in ratios)
           + f", {checks(outcome)}")
