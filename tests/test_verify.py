"""Verification suites: every check compares nonzero quantities."""

import numpy as np
import pytest

from hodgehalf import evolution, halfspace, verify
from hodgehalf.fields import Grid, random_form
from hodgehalf.halfspace import (HalfField, d_half, extend_spectra,
                                 hodge_resolvent, random_half_field)
from hodgehalf.operators import d
from hodgehalf.verify import (SUITES, TOLERANCES, VerifyOutcome, _zero_scale,
                              run_suite, series_resolvent, trace_duality)


@pytest.mark.parametrize("suite", SUITES)
def test_every_check_compares_nonzero_quantities(suite):
    outcome = run_suite(suite, seed=1)
    assert outcome.worst
    for check, info in outcome.worst.items():
        assert info["scale"] > 0, check
        assert info["status"] == "ok", check
    if suite == "symbols":
        assert {"d_squared_zero", "d_delta_adjoint"} <= set(outcome.worst)
    if suite == "traces":
        assert "normal_trace_duality" in outcome.worst


def test_zero_versus_zero_check_fails_as_vacuous():
    out = VerifyOutcome("probe")
    out.record("zero_with_zero", 0.0, 0.0, tol=1e-10)
    assert out.failed == 1 and out.passed == 0
    assert out.worst["zero_with_zero"]["status"] == "vacuous"
    assert out.status == "fail"


def test_record_keeps_the_worst_case_of_each_check():
    out = VerifyOutcome("probe", tol_scale=2.0)
    out.record("check", 1e-12, 3.0, tol=1e-10)
    out.record("check", 5e-11, 1.0, tol=1e-10)
    assert out.worst["check"] == {"residual": 5e-11, "scale": 3.0,
                                  "tol": 2e-10, "status": "ok"}
    out.record("other", 0.0, 0.0, tol=1e-10)
    assert (out.passed, out.failed) == (1, 1)
    out.record("check", 3e-10, 1.0, tol=1e-10)
    assert out.worst["check"]["status"] == "fail" and out.failed == 2
    for residual in (np.nan, 0.0):  # a NaN case stays the worst
        out.record("nan", residual, 1.0, tol=1e-10)
    assert np.isnan(out.worst["nan"]["residual"]) and out.failed == 3


def test_shared_tolerances_are_the_criteria_bounds():
    # the bounds criteria 01, 03, 04, 06 and 07 state; the suites and the
    # criteria read them from verify
    assert TOLERANCES == {
        "wedge_anticommutativity": 1e-12, "star_involution_sign": 1e-12,
        "wedge_interior_adjointness": 1e-12, "lagrange_identity": 1e-12,
        "nilpotence": 1e-12, "split_reconstructs": 1e-14,
        "p_part_divergence_free": 1e-10, "g_part_curl_free": 1e-10,
        "orthogonality": 1e-10, "reflection_identity": 1e-12,
        "boundary_conditions": 1e-8, "neumann_dirichlet_decoupling": 1e-10,
        "half_split_reconstructs": 1e-13, "half_orthogonality": 1e-8,
        "half_idempotence": 1e-9, "half_p_boundary": 1e-8,
        "tangential_trace_duality": 1e-6, "normal_trace_duality": 1e-6}


def test_nilpotence_past_the_top_degree_is_vacuous():
    # d o d of a 1-form in two dimensions has degree 3 and no components:
    # the residual is exactly 0 without testing anything
    grid = Grid(2, 32, 8.0)
    v = random_form(grid, [1, 2], seed=1, width=2.0)
    ddv = d(d(v))
    out = VerifyOutcome("probe")
    out.record("d_squared_zero", ddv.l2_norm(), _zero_scale(ddv, 1.0), tol=1e-10)
    assert ddv.l2_norm() == 0.0
    assert out.worst["d_squared_zero"]["status"] == "vacuous"
    assert out.failed == 1


@pytest.mark.parametrize("n, points", [(2, 64), (3, 16)])
def test_series_resolvent_matches_the_reflection_route(n, points):
    # the sine / cosine series solve of the decoupling check agrees with the
    # extension route it audits, and the two boundary rules differ
    grid = Grid(n, points, 8.0)
    normal = 1 << (n - 1)
    f = random_half_field(grid, "Ht", [0, normal], seed=4, kind="annulus_band",
                          radii=(1.0, 3.0))
    lam = 2.0 * np.exp(0.3j)

    def reflected(rows, bc):
        return hodge_resolvent(lam, HalfField(grid, bc, {0: rows})).comps[0]

    for bc in ("D", "N"):
        for rows in f.comps.values():
            want = reflected(rows, bc)
            got = series_resolvent(lam, rows, grid, bc)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    rows = f.comps[0]
    swapped = series_resolvent(lam, rows, grid, "D")
    want = reflected(rows, "N")
    assert np.abs(swapped - want).max() > 1e-3 * np.abs(want).max()


def test_decoupling_check_fails_when_the_dn_rule_is_swapped(monkeypatch):
    swap = {"D": "N", "N": "D"}
    monkeypatch.setattr(verify, "series_resolvent",
                        lambda lam, rows, grid, bc: series_resolvent(
                            lam, rows, grid, swap[bc]))
    info = run_suite("halfspace", seed=0).worst["neumann_dirichlet_decoupling"]
    assert info["status"] == "fail" and info["residual"] > 1e-3


def test_shifted_restriction_fails_the_reflection_checks(monkeypatch):
    # hodge_resolvent restricts by restrict_spectra and the reflection
    # identity's oracle by restrict, so a restriction that keeps the rows
    # one step off along x_n fails both resolvent checks
    original = halfspace.restrict_spectra

    def shifted(U_hat, flavor):
        u = original(U_hat, flavor)
        return HalfField(u.grid, flavor, {m: np.roll(a, 1, axis=-1)
                                          for m, a in u.comps.items()})

    monkeypatch.setattr(halfspace, "restrict_spectra", shifted)
    worst = run_suite("halfspace", seed=0).worst
    for check in ("reflection_identity", "neumann_dirichlet_decoupling"):
        assert worst[check]["status"] == "fail", check
        assert worst[check]["residual"] > 1e-3, check


def test_swapped_tangential_parity_fails_a_suite(monkeypatch):
    # mutation smoke test: under 'Ht' the normal-bearing components extend
    # evenly and the others oddly, the 'Hn' rule
    original = halfspace.component_parity

    def swapped(flavor, mask, n):
        return original("Hn" if flavor == "Ht" else flavor, mask, n)

    monkeypatch.setattr(halfspace, "component_parity", swapped)
    # the traces suite pairs whole-grid fields and reads no parity
    failed = {check for check, info in run_suite("halfspace", seed=0).worst.items()
              if info["status"] != "ok"}
    assert "neumann_dirichlet_decoupling" in failed
    monkeypatch.undo()
    for suite in ("halfspace", "traces"):
        assert run_suite(suite, seed=0).status == "ok"


def _swap_trace_rows(name):
    # verify's ``name`` trace with its 3-D rows under 0b001 and 0b010 swapped:
    # those of the 2-forms 0b101 and 0b110 (tangential) or of the 1-forms
    # 0b001 and 0b010 (normal)
    def mutate(monkeypatch):
        real = getattr(verify, name)

        def mutant(u):
            trace = real(u)
            if u.grid.n == 3 and {0b001, 0b010} <= set(trace.comps):
                trace.comps[0b001], trace.comps[0b010] = (trace.comps[0b010],
                                                          trace.comps[0b001])
            return trace

        monkeypatch.setattr(verify, name, mutant)
    return mutate


def _unsigned_normal_trace(monkeypatch):
    # verify's normal trace with its sign (-1)^{k+1} forced to +1, which
    # flips the trace of every even-degree component
    def mutant(u):
        return halfspace.BoundaryForm(
            u.grid, halfspace._boundary_values(u, normal=False),
            wedged_normal=True)

    monkeypatch.setattr(verify, "normal_trace", mutant)


@pytest.mark.parametrize("mutate, check", [
    (_swap_trace_rows("tangential_trace"), "tangential_trace_duality"),
    (_swap_trace_rows("normal_trace"), "normal_trace_duality"),
    (_unsigned_normal_trace, "normal_trace_duality"),
], ids=["tangential_2form_rows", "normal_1form_rows", "normal_sign"])
def test_trace_duality_catches_a_mutant(monkeypatch, mutate, check):
    # the row swaps are invisible in 2-D and on draws whose components are
    # all equal, the sign only where an even-degree component is paired;
    # criterion 07's first 3-D draw and the traces suite see each of them
    mutate(monkeypatch)
    out = VerifyOutcome("criterion 07")
    trace_duality(out, Grid(3, 64, 16.0), np.random.default_rng(63),
                  seed=500, trials=1)
    assert out.worst[check]["status"] == "fail"
    assert out.worst[check]["residual"] > 1e-3
    assert run_suite("traces", seed=0).worst[check]["status"] == "fail"


def test_pressure_check_takes_each_gradient_field_once(monkeypatch):
    # a constant forcing gives one gradient field shared by all 33 nodes
    calls = []

    def counted(u):
        calls.append(u)
        return d_half(u)

    monkeypatch.setattr(verify, "d_half", counted)
    info = run_suite("evolution", seed=0).worst["pressure_curl_free"]
    assert len(calls) == 1
    assert info["status"] == "ok" and info["scale"] > 0


def test_solenoidality_reads_the_stepper_spectra(monkeypatch):
    # delta u of each node comes from the stepper's extension spectra, so no
    # node is re-extended and re-transformed by delta_half
    calls = []
    real = halfspace.delta_half
    monkeypatch.setattr(halfspace, "delta_half",
                        lambda u: calls.append(u) or real(u))
    info = run_suite("evolution", seed=0).worst["solenoidality"]
    assert calls == []
    assert info["status"] == "ok" and info["scale"] > 0


def test_solenoidality_sees_an_unprojected_forcing(monkeypatch):
    # mutation: the Leray split in spectra hands back the input's own
    # spectra as the projected part; the suite's data are solenoidal, so it
    # is the forcing that takes the flow out of the solenoidal class
    real = evolution.leray_halfspace_hat

    def unprojected(u):
        return extend_spectra(u), real(u)[1]

    monkeypatch.setattr(evolution, "leray_halfspace_hat", unprojected)
    info = run_suite("evolution", seed=0).worst["solenoidality"]
    assert info["status"] == "fail" and info["residual"] > 1e-6


def test_evolution_suite_builds_only_what_it_reads(monkeypatch):
    # half-fields out of spectra: in evolution, grad p of the one constant
    # forcing; in verify, the datum of the semigroup check's second leg.  No
    # solve keeps a node field.  Leray splits in verify: the suite's datum,
    # and the datum and the forcing profile g of the momentum residual.
    # Splits in spectra, in evolution: the Navier-slip datum and forcing
    # (2), each momentum-residual solve's datum and midpoints, no node input
    # (17 + 33 + 65), and the three semigroup legs' data (3)
    def counted(module, name):
        calls, real = [], getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args: calls.append(None) or real(*args))
        return calls

    in_evolution = counted(evolution, "restrict_spectra")
    in_verify = counted(verify, "restrict_spectra")
    splits = counted(verify, "leray_halfspace")
    spectral_splits = counted(evolution, "leray_halfspace_hat")
    outcome = run_suite("evolution", seed=0)
    assert len(in_evolution) == 1
    assert len(in_verify) == 1
    assert len(splits) == 3
    assert len(spectral_splits) == 120
    for check, info in outcome.worst.items():
        assert info["status"] == "ok" and info["scale"] > 0, check


def test_momentum_residual_catches_a_mutant(monkeypatch):
    # mutation: the stepper weighs the midpoint forcing by dt e^{-dt |xi|^2},
    # a first-order quadrature, so halving dt only halves the residual
    grid = Grid(2, 64, 8.0)
    for r in verify.momentum_residual_ratios(grid, seed=0):
        assert 3.6 <= r <= 4.4
    real = evolution._Stepper.__init__

    def first_order(self, u0_hat, time_grid):
        real(self, u0_hat, time_grid)
        self.dt_half_step = time_grid.dt * self.full_step

    monkeypatch.setattr(evolution._Stepper, "__init__", first_order)
    ratios = verify.momentum_residual_ratios(grid, seed=0)
    assert all(not 3.6 <= r <= 4.4 for r in ratios), ratios
    assert run_suite("evolution", seed=0).status == "fail"
