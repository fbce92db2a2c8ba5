"""Verification suites: every check compares nonzero quantities."""

import pytest

from hodgehalf.fields import Grid, random_form
from hodgehalf.operators import d
from hodgehalf.verify import SUITES, VerifyOutcome, _zero_scale, run_suite


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
