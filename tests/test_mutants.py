"""The mutant registry: every row fails each of its gates, and the helper."""

import pytest

import mutants
from hodgehalf import algebra, evolution, halfspace, verify


@pytest.mark.parametrize("row", mutants.MUTANTS, ids=lambda row: row.name)
def test_mutant_fails_every_gate(row):
    assert row.gates
    for check in row.gates:
        check.resolve()  # each gate's module imported as the source stands
    survivors = []
    with mutants.applied(row):
        for check in row.gates:
            try:
                check()
            except AssertionError:
                continue
            survivors.append(check)
    assert survivors == []


@pytest.mark.parametrize("old, count", [("if flavor == 'X':", 0),
                                        ("normal_bit else", 2)])
def test_an_edit_must_match_exactly_once(old, count):
    row = mutants.Mutant("probe", "hodgehalf.halfspace:component_parity",
                         old, "pass", ())
    with pytest.raises(ValueError, match=f"occurs {count} times"):
        with mutants.applied(row):
            pass


def test_applied_binds_every_hodgehalf_name_and_restores_it():
    # restrict_spectra is bound in four modules; raising(3) is a cached table
    # built from insert_sign, e_1 ^ dx_2 its entry under 0b100
    original, entry = halfspace.restrict_spectra, algebra.raising(3)[0b100]
    with mutants.applied(mutants.ROWS["shifted_restriction"]):
        assert evolution.restrict_spectra is verify.restrict_spectra \
            is halfspace.restrict_spectra is not original
    with mutants.applied(mutants.ROWS["flipped_table_sign"]):
        assert algebra.raising(3)[0b100] != entry
    assert evolution.restrict_spectra is verify.restrict_spectra is original
    assert algebra.raising(3)[0b100] == entry
