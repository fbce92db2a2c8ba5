"""Verification suites: every check compares nonzero quantities."""

import ast
import pathlib

import numpy as np
import pytest

import mutants
from hodgehalf import evolution, halfspace, verify
from hodgehalf.fields import Grid, random_form
from hodgehalf.halfspace import (HalfField, d_half, hodge_resolvent,
                                 random_half_field)
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
    # the bounds criteria 01-07 and 10 print; the suites and the criteria
    # read them from verify
    assert TOLERANCES == {
        "wedge_anticommutativity": 1e-12, "star_involution_sign": 1e-12,
        "wedge_interior_adjointness": 1e-12, "lagrange_identity": 1e-12,
        "nilpotence": 1e-12, "d_vs_fd8": 1e-6, "d_squared_zero": 1e-10,
        "delta_squared_zero": 1e-10, "split_reconstructs": 1e-14,
        "p_part_divergence_free": 1e-10, "g_part_curl_free": 1e-10,
        "orthogonality": 1e-10, "reflection_identity": 1e-12,
        "boundary_conditions": 1e-8, "neumann_dirichlet_decoupling": 1e-10,
        "resolvent_sweep_spread": 3.0, "half_split_reconstructs": 1e-13,
        "half_orthogonality": 1e-8, "half_idempotence": 1e-9,
        "half_p_boundary": 1e-8, "half_p_divergence_free": 1e-9,
        "half_g_curl_free": 1e-9, "tangential_trace_duality": 1e-6,
        "normal_trace_duality": 1e-6, "self_convergence": 0.4}


def test_every_shared_check_reads_its_bound_from_the_one_table():
    # the records without tol= name exactly the TOLERANCES keys, so no
    # bound is stated twice or left unread
    tree = ast.parse(pathlib.Path(verify.__file__).read_text())
    untolled = [node.args[0] for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "record"
                and not any(kw.arg == "tol" for kw in node.keywords)]
    assert all(isinstance(arg, ast.Constant) for arg in untolled), \
        [ast.unparse(arg) for arg in untolled]
    assert {arg.value for arg in untolled} == set(TOLERANCES)


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


def test_decoupling_check_fails_when_the_dn_rule_is_swapped():
    with mutants.applied(mutants.ROWS["dn_rule_swapped"]):
        info = run_suite("halfspace", seed=0).worst[
            "neumann_dirichlet_decoupling"]
    assert info["status"] == "fail" and info["residual"] > 1e-3


def test_shifted_restriction_fails_the_reflection_checks():
    # hodge_resolvent restricts by restrict_spectra and the reflection
    # identity's oracle by restrict, so a restriction that keeps the rows
    # one step off along x_n fails both resolvent checks
    with mutants.applied(mutants.ROWS["shifted_restriction"]):
        worst = run_suite("halfspace", seed=0).worst
    for check in ("reflection_identity", "neumann_dirichlet_decoupling"):
        assert worst[check]["status"] == "fail", check
        assert worst[check]["residual"] > 1e-3, check


def test_swapped_tangential_parity_fails_a_suite():
    # under 'Ht' the normal-bearing components extend evenly and the others
    # oddly, the 'Hn' rule; the traces suite pairs whole-grid fields and
    # reads no parity
    with mutants.applied(mutants.ROWS["swapped_tangential_parity"]):
        worst = run_suite("halfspace", seed=0).worst
    assert worst["neumann_dirichlet_decoupling"]["status"] != "ok"
    for suite in ("halfspace", "traces"):
        assert run_suite(suite, seed=0).status == "ok"


@pytest.mark.parametrize("row, check", [
    ("tangential_2form_rows", "tangential_trace_duality"),
    ("normal_1form_rows", "normal_trace_duality"),
    ("normal_sign", "normal_trace_duality"),
], ids=["tangential_2form_rows", "normal_1form_rows", "normal_sign"])
def test_trace_duality_catches_a_mutant(row, check):
    # the row swaps are invisible in 2-D and on draws whose components are
    # all equal, the sign only where an even-degree component is paired;
    # criterion 07's first 3-D draw and the traces suite see each of them
    with mutants.applied(mutants.ROWS[row]):
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


def test_solenoidality_sees_an_unprojected_forcing():
    # mutation: the forcing's Leray split hands back its own spectra as the
    # projected part; the suite's data are solenoidal, so it is the forcing
    # that takes the flow out of the solenoidal class
    with mutants.applied(mutants.ROWS["unprojected_forcing"]):
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


def test_momentum_residual_catches_a_mutant():
    # mutation: the stepper weighs the midpoint forcing by dt e^{-dt |xi|^2},
    # a first-order quadrature, so halving dt only halves the residual
    grid = Grid(2, 64, 8.0)
    out = VerifyOutcome("probe")
    verify.check_self_convergence(out, grid, seed=0)
    assert out.status == "ok"
    with mutants.applied(mutants.ROWS["first_order_forcing"]):
        out = VerifyOutcome("probe")
        ratios = verify.check_self_convergence(out, grid, seed=0)
        assert all(r < 3.0 for r in ratios), ratios
        assert out.status == "fail"
        assert run_suite("evolution", seed=0).status == "fail"
