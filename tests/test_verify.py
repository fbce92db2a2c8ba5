"""Verification suites: every check compares nonzero quantities."""

import sys

import numpy as np
import pytest

from hodgehalf import evolution, halfspace, verify
from hodgehalf.fields import Grid, random_form
from hodgehalf.halfspace import (HalfField, d_half, extend_spectra,
                                 hodge_resolvent, random_half_field)
from hodgehalf.operators import d
from hodgehalf.verify import (SUITES, VerifyOutcome, _zero_scale, run_suite,
                              series_resolvent)


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
    out.record("zero_with_zero", 0.0, 1e-10, 0.0)
    assert out.failed == 1 and out.passed == 0
    assert out.worst["zero_with_zero"]["status"] == "vacuous"
    assert out.status == "fail"


def test_nilpotence_past_the_top_degree_is_vacuous():
    # d o d of a 1-form in two dimensions has degree 3 and no components:
    # the residual is exactly 0 without testing anything
    grid = Grid(2, 32, 8.0)
    v = random_form(grid, [1, 2], seed=1, width=2.0)
    ddv = d(d(v))
    out = VerifyOutcome("probe")
    out.record("d_squared_zero", ddv.l2_norm(), 1e-10, _zero_scale(ddv, 1.0))
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
    failed = {(suite, check) for suite in ("halfspace", "traces")
              for check, info in run_suite(suite, seed=0).worst.items()
              if info["status"] != "ok"}
    assert ("halfspace", "neumann_dirichlet_decoupling") in failed
    monkeypatch.undo()
    for suite in ("halfspace", "traces"):
        assert run_suite(suite, seed=0).status == "ok"


def test_pressure_check_takes_each_gradient_field_once(monkeypatch):
    # a constant forcing gives one gradient field shared by all 9 nodes
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
    # node fields: 2 endpoints each for solenoidality, the pressure check and
    # the three semigroup flows, and every node of the three momentum-residual
    # runs (17 + 33 + 65); Leray splits in verify: the suite's datum, and the
    # datum and the forcing profile g of the momentum residual
    fields, splits = [], []
    real_restrict = evolution.restrict_spectra
    real_split = verify.leray_halfspace

    def restrict(*args, **kwargs):
        # a node field is the restriction _integrate's node visit makes
        if sys._getframe(1).f_code.co_name == "visit":
            fields.append(None)
        return real_restrict(*args, **kwargs)

    monkeypatch.setattr(evolution, "restrict_spectra", restrict)
    monkeypatch.setattr(verify, "leray_halfspace",
                        lambda u: splits.append(None) or real_split(u))
    outcome = run_suite("evolution", seed=0)
    assert len(fields) == 2 + 2 + 6 + 115
    assert len(splits) == 3
    for check, info in outcome.worst.items():
        assert info["status"] == "ok" and info["scale"] > 0, check
