"""Fourier-multiplier calculus: d, delta, Laplacian functions, Riesz, Leray."""

import numpy as np
import pytest

import mutants
from hodgehalf.algebra import AlgebraElement, inner, interior, wedge
from hodgehalf.fields import FormField, Grid, forward_fft, random_form
from hodgehalf.operators import (SectorPoint, d, delta, frac_laplacian,
                                 grad_l2, heat, hess_l2, hodge_dirac,
                                 hodge_star_field, interior_const, laplacian,
                                 leray_wholespace, resolvent, riesz,
                                 wedge_const)
from hodgehalf.verify import (VerifyOutcome, check_resolvent_sweep,
                              check_wholespace_split, fd8)


def h2_surrogate(u):
    return u.l2_norm() + grad_l2(u) + hess_l2(u)


@pytest.fixture
def grid2():
    return Grid(2, 64, 16.0)


@pytest.fixture
def grid3():
    return Grid(3, 64, 16.0)


# ---------------------------------------------------------------------------
# exterior derivative and coderivative
# ---------------------------------------------------------------------------

def test_d_constant_is_zero(grid2):
    u = FormField(grid2, {0: np.full(grid2.shape, 1.5 + 0.5j)})
    assert d(u).l2_norm() < 1e-12


def test_d_single_mode_closed_form(grid2):
    xi0 = (np.pi / 16 * 4, np.pi / 16 * -6)
    u = random_form(grid2, [0], kind="single_mode", mode=xi0)
    du = d(u)
    for axis in range(2):
        expected = 1j * xi0[axis] * u.comps[0]
        assert np.abs(du.component(1 << axis) - expected).max() < 1e-10


def test_delta_kills_scalars(grid2):
    u = random_form(grid2, [0], seed=0, width=2.0)
    assert delta(u).l2_norm() < 1e-12


def test_d_matches_curl_fd8(grid3):
    # on 1-forms in R^3, d is the curl under the 2-form identification
    u = random_form(grid3, [0b001, 0b010, 0b100], seed=1,
                    kind="gaussian_bump", width=4.0)
    du = d(u)
    h = grid3.spacing
    ux, uy, uz = u.comps[0b001], u.comps[0b010], u.comps[0b100]
    curl = [fd8(uz, 1, h) - fd8(uy, 2, h),
            fd8(ux, 2, h) - fd8(uz, 0, h),
            fd8(uy, 0, h) - fd8(ux, 1, h)]
    ident = [du.component(0b110), -1 * du.component(0b101), du.component(0b011)]
    for got, oracle in zip(ident, curl):
        rel = np.abs(got - oracle).max() / np.abs(oracle).max()
        assert rel < 1e-6


def test_delta_matches_minus_div_fd8(grid3):
    u = random_form(grid3, [0b001, 0b010, 0b100], seed=2,
                    kind="gaussian_bump", width=4.0)
    h = grid3.spacing
    div = (fd8(u.comps[0b001], 0, h) + fd8(u.comps[0b010], 1, h)
           + fd8(u.comps[0b100], 2, h))
    got = delta(u).component(0)
    assert np.abs(got + div).max() / np.abs(div).max() < 1e-6


def test_d_delta_nilpotent(grid2):
    u = random_form(grid2, [0, 1, 2, 3], seed=3, width=2.0)
    assert d(d(u)).l2_norm() <= 1e-10 * h2_surrogate(u)
    assert delta(delta(u)).l2_norm() <= 1e-10 * h2_surrogate(u)


def test_d_delta_l2_adjoint(grid2):
    u = random_form(grid2, [0, 1], seed=4, width=2.0)
    v = random_form(grid2, [1, 2, 3], seed=5, width=2.0)
    lhs = d(u).l2_inner(v)
    rhs = u.l2_inner(delta(v))
    assert abs(lhs - rhs) <= 1e-10 * u.l2_norm() * v.l2_norm()


# ---------------------------------------------------------------------------
# Hodge-Dirac
# ---------------------------------------------------------------------------

def test_dirac_on_scalars_is_gradient(grid2):
    u = random_form(grid2, [0], seed=6, width=2.0)
    diff = hodge_dirac(u) - d(u)
    assert diff.l2_norm() < 1e-12 * u.l2_norm()


def test_dirac_single_mode_algebra_oracle(grid2):
    # at one frequency the symbol is i xi ^ . - i xi _| . on the coefficient
    xi0 = np.array([np.pi / 16 * 3, np.pi / 16 * 5])
    coeff = AlgebraElement.zero(2)
    rng = np.random.default_rng(7)
    coeff.coeffs[:] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    mode = random_form(grid2, [0], kind="single_mode", mode=tuple(xi0))
    u = FormField(grid2, {m: coeff.coeffs[m] * mode.comps[0] for m in range(4)})
    expected_coeff = (wedge(AlgebraElement.one_form(1j * xi0), coeff)
                      + (-1j) * interior(xi0, coeff))
    got = hodge_dirac(u)
    for m in range(4):
        expected = expected_coeff.coeffs[m] * mode.comps[0]
        assert np.abs(got.component(m) - expected).max() < 1e-10


def test_dirac_squared_is_hodge_laplacian(grid2):
    u = random_form(grid2, [1, 2], seed=8, kind="random_band", width=1.5)
    dd = hodge_dirac(hodge_dirac(u))
    lap = laplacian(u)
    assert (dd + lap).l2_norm() <= 1e-10 * h2_surrogate(u)


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------

def test_sector_point_validation():
    SectorPoint(1.0 + 1.0j)
    with pytest.raises(ValueError):
        SectorPoint(0.0)
    with pytest.raises(ValueError):
        SectorPoint(-1.0, mu=np.pi / 2)
    with pytest.raises(ValueError):
        SectorPoint(1.0, mu=-0.1)


def test_resolvent_single_mode(grid2):
    xi0 = (np.pi / 16 * 2, np.pi / 16 * 2)
    f = random_form(grid2, [0], kind="single_mode", mode=xi0)
    lam = 2.0 * np.exp(0.7j)
    u = resolvent(lam, f)
    expected = f.comps[0] / (lam + xi0[0] ** 2 + xi0[1] ** 2)
    assert np.abs(u.comps[0] - expected).max() < 1e-12


def test_resolvent_residual(grid2):
    f = random_form(grid2, [0, 1], seed=9, width=2.0)
    u = resolvent(1.0, f)
    resid = (1.0 * u - laplacian(u) - f).l2_norm()
    assert resid <= 1e-10 * f.l2_norm()


def test_resolvent_zero_lambda_needs_mean_free(grid2):
    f = random_form(grid2, [0], seed=10, kind="gaussian_bump", width=2.0)
    with pytest.raises(ValueError):
        resolvent(0.0, f)
    g = random_form(grid2, [0], seed=11, kind="annulus_band", radii=(1.0, 3.0))
    u = resolvent(0.0, g)
    assert (laplacian(u) + g).l2_norm() <= 1e-10 * g.l2_norm()


def test_resolvent_estimate_sweep_bounded(grid2):
    f = random_form(grid2, [0], seed=12, kind="annulus_band", radii=(1.5, 2.5))
    out = VerifyOutcome("probe")
    rows = check_resolvent_sweep(out, f)
    assert len(rows) == 45
    assert np.all(np.isfinite([r["ratio"] for r in rows]))
    assert out.status == "ok"


# ---------------------------------------------------------------------------
# heat semigroup
# ---------------------------------------------------------------------------

def test_heat_identity_and_semigroup(grid2):
    u = random_form(grid2, [0, 1], seed=13, width=2.0)
    assert (heat(0.0, u) - u).l2_norm() < 1e-14
    lhs = heat(0.3, heat(0.7, u))
    rhs = heat(1.0, u)
    assert (lhs - rhs).l2_norm() <= 1e-12 * u.l2_norm()


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_heat_contraction(grid2, t):
    u = random_form(grid2, [1], seed=14, width=1.5)
    assert heat(t, u).l2_norm() <= u.l2_norm() * (1 + 1e-12)


def test_heat_rejects_negative_time(grid2):
    with pytest.raises(ValueError):
        heat(-0.1, FormField.zero(grid2))


def test_heat_commutes_with_d_coefficientwise(grid2):
    u = random_form(grid2, [0, 1], seed=15, width=2.0)
    a = forward_fft(d(heat(0.5, u)))
    b = forward_fft(heat(0.5, d(u)))
    scale = max(np.abs(x).max() for x in a.comps.values())
    for m in a.comps:
        assert np.abs(a.comps[m] - b.component(m)).max() <= 1e-12 * scale


def test_resolvent_commutes_with_delta(grid2):
    u = random_form(grid2, [1, 2], seed=16, width=2.0)
    lam = 1.0 + 2.0j
    a = forward_fft(delta(resolvent(lam, u)))
    b = forward_fft(resolvent(lam, delta(u)))
    scale = max(np.abs(x).max() for x in a.comps.values())
    for m in a.comps:
        assert np.abs(a.comps[m] - b.component(m)).max() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# fractional Laplacian
# ---------------------------------------------------------------------------

def test_frac_laplacian_s2_is_minus_laplacian(grid2):
    u = random_form(grid2, [0, 2], seed=17, width=2.0)
    diff = frac_laplacian(2.0, u) + laplacian(u)
    # mean separates: |xi|^2 kills it on both sides
    assert diff.l2_norm() <= 1e-12 * h2_surrogate(u)


def test_frac_laplacian_square_root(grid2):
    u = random_form(grid2, [0], seed=18, kind="annulus_band", radii=(1.0, 3.0))
    twice = frac_laplacian(1.0, frac_laplacian(1.0, u))
    assert (twice + laplacian(u)).l2_norm() <= 1e-10 * h2_surrogate(u)


def test_frac_laplacian_inverse_pair(grid2):
    u = random_form(grid2, [0], seed=19, kind="annulus_band", radii=(1.0, 3.0))
    back = frac_laplacian(0.75, frac_laplacian(-0.75, u))
    assert (back - u).l2_norm() <= 1e-10 * u.l2_norm()


def test_frac_laplacian_single_mode(grid2):
    xi0 = (np.pi / 16 * 4, 0.0)
    u = random_form(grid2, [0], kind="single_mode", mode=xi0)
    got = frac_laplacian(0.5, u)
    expected = (xi0[0] ** 2) ** 0.25 * u.comps[0]
    assert np.abs(got.comps[0] - expected).max() < 1e-12


def test_frac_laplacian_rejects_mean(grid2):
    u = random_form(grid2, [0], seed=20, kind="gaussian_bump", width=2.0)
    with pytest.raises(ValueError):
        frac_laplacian(-1.0, u)


# ---------------------------------------------------------------------------
# Riesz transforms
# ---------------------------------------------------------------------------

def test_riesz_sum_of_squares(grid2):
    u = random_form(grid2, [0], seed=21, kind="annulus_band", radii=(1.0, 3.0))
    acc = FormField.zero(grid2)
    for k in range(2):
        acc = acc + riesz(k, riesz(k, u))
    assert (acc + u).l2_norm() <= 1e-10 * u.l2_norm()


def test_riesz_factorization_of_d(grid3):
    # d (-Delta)^{-1/2} agrees with sum_k R_k e_k ^ .
    u = random_form(grid3, [0b001, 0b010], seed=22, kind="annulus_band",
                    radii=(1.0, 2.5))
    lhs = d(frac_laplacian(-1.0, u))
    rhs = FormField.zero(grid3)
    basis = np.eye(3)
    for k in range(3):
        rhs = rhs + riesz(k, wedge_const(basis[k], u))
    assert (lhs - rhs).l2_norm() <= 1e-10 * u.l2_norm()


def test_riesz_single_mode(grid2):
    xi0 = (np.pi / 16 * 3, np.pi / 16 * -4)
    u = random_form(grid2, [0], kind="single_mode", mode=xi0)
    got = riesz(0, u)
    absxi = np.hypot(*xi0)
    expected = 1j * xi0[0] / absxi * u.comps[0]
    assert np.abs(got.comps[0] - expected).max() < 1e-12


def test_riesz_dirac_identity(grid2):
    # (d (-Delta)^{-1/2} + delta (-Delta)^{-1/2})^2 = I on mean-free fields
    u = random_form(grid2, [0, 1, 2, 3], seed=23, kind="annulus_band",
                    radii=(1.0, 3.0))

    def half_dirac(w):
        return d(frac_laplacian(-1.0, w)) + delta(frac_laplacian(-1.0, w))

    got = half_dirac(half_dirac(u))
    assert (got - u).l2_norm() <= 1e-10 * u.l2_norm()


# ---------------------------------------------------------------------------
# Hodge star intertwining
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ell,masks", [(1, [0b001, 0b010, 0b100]),
                                       (2, [0b011, 0b101, 0b110])])
def test_star_intertwines_d_delta(grid3, ell, masks):
    u = random_form(grid3, masks, seed=24 + ell, width=2.0)
    sign = (-1.0) ** ell
    lhs = hodge_star_field(delta(u))
    rhs = sign * d(hodge_star_field(u))
    assert (lhs - rhs).l2_norm() <= 1e-10 * h2_surrogate(u)
    lhs2 = hodge_star_field(d(u))
    rhs2 = (-1.0) ** (ell - 1) * delta(hodge_star_field(u))
    assert (lhs2 - rhs2).l2_norm() <= 1e-10 * h2_surrogate(u)


# ---------------------------------------------------------------------------
# whole-space Hodge decomposition
# ---------------------------------------------------------------------------

def test_leray_kills_gradients(grid2):
    phi = random_form(grid2, [0], seed=26, kind="annulus_band", radii=(1.0, 3.0))
    u = d(phi)
    pu, gu = leray_wholespace(u)
    assert pu.l2_norm() <= 1e-10 * u.l2_norm()
    assert (gu - u).l2_norm() <= 1e-10 * u.l2_norm()


def test_leray_fixes_divergence_free(grid3):
    # a curl of a band-limited potential is divergence free
    a = random_form(grid3, [0b001, 0b010, 0b100], seed=27, kind="annulus_band",
                    radii=(1.0, 2.5))
    u = d(a)  # 2-form, delta u != 0 in general; use 1-form route instead
    w = delta(u)  # 1-form with delta w = 0
    pw, gw = leray_wholespace(w)
    assert (pw - w).l2_norm() <= 1e-10 * w.l2_norm()
    assert gw.l2_norm() <= 1e-10 * w.l2_norm()


def test_leray_splits_and_projects(grid2):
    u = random_form(grid2, [1, 2], seed=29, kind="annulus_band", radii=(1.0, 3.0))
    outcome = VerifyOutcome("probe")
    pu, _ = check_wholespace_split(outcome, u)
    assert len(outcome.worst) == 4 and outcome.status == "ok", outcome.worst
    pp, _ = leray_wholespace(pu)
    assert (pp - pu).l2_norm() <= 1e-10 * u.l2_norm()


def test_leray_rejects_nonzero_mean(grid2):
    u = random_form(grid2, [1], seed=30, kind="gaussian_bump", width=2.0)
    with pytest.raises(ValueError):
        leray_wholespace(u)


# ---------------------------------------------------------------------------
# the sign table: field operators against the exact algebra
# ---------------------------------------------------------------------------

ALL_MASKS = [(n, mask) for n in (2, 3, 4) for mask in range(1 << n)]


def _contraction(vec, coeff):
    """vec _| coeff for a real covector, from its adjointness against the
    wedge: the dx_T coefficient is <coeff, vec ^ dx_T>.  It reads the wedge's
    merge sign (algebra.wedge_sign), not the incidence tables' insert_sign
    that algebra.interior and the field operators share."""
    a = AlgebraElement.one_form(vec)
    return AlgebraElement(coeff.n, [
        inner(coeff, wedge(a, AlgebraElement.basis(coeff.n, t)))
        for t in range(1 << coeff.n)])


def _const_case(op, n, mask, seed=31):
    """(call giving the field result, algebra oracle, sample point) for a
    constant covector acting on one random component."""
    grid = Grid(n, 8, 16.0)
    rng = np.random.default_rng(seed + mask)
    vec = rng.standard_normal(n)
    vec[0] = 0.0  # a zero entry is skipped; d and delta cover axis 0
    u = FormField(grid, {mask: rng.standard_normal(grid.shape)
                         + 1j * rng.standard_normal(grid.shape)})
    idx = (5,) + (3,) * (n - 1)
    coeff = AlgebraElement.basis(n, mask) * u.comps[mask][idx]
    if op is wedge_const:
        expected = wedge(AlgebraElement.one_form(vec), coeff)
    else:
        expected = _contraction(vec, coeff)
    return lambda: op(vec, u), expected, idx


def _mode_case(op, n, seed=7):
    """(call giving the field result, algebra oracle, mode samples) for d or
    delta on a single Fourier mode carrying every mask."""
    grid = Grid(n, 8, 16.0)
    xi0 = np.pi / 16 * np.array([1, -2, 3, 2][:n], dtype=float)
    rng = np.random.default_rng(seed + n)
    coeff = AlgebraElement(n, rng.standard_normal(1 << n)
                           + 1j * rng.standard_normal(1 << n))
    mode = random_form(grid, [0], kind="single_mode", mode=tuple(xi0))
    u = FormField(grid, {m: coeff.coeffs[m] * mode.comps[0] for m in range(1 << n)})
    if op is d:
        expected = wedge(AlgebraElement.one_form(1j * xi0), coeff)
    else:
        expected = (-1j) * _contraction(xi0, coeff)
    return lambda: op(u), expected, mode.comps[0]


def _const_error(case) -> float:
    run, expected, idx = case
    got = run()
    return max(abs(got.component(m)[idx] - expected.coeffs[m])
               for m in range(1 << got.grid.n))


def _mode_error(case) -> float:
    run, expected, mode = case
    got = run()
    return max(float(np.abs(got.component(m) - expected.coeffs[m] * mode).max())
               for m in range(1 << got.grid.n))


def _check_const_action(op):
    for n, mask in ALL_MASKS:
        case = _const_case(op, n, mask)
        assert _const_error(case) < 1e-12, (n, mask)
        # zero covector entries are skipped: no all-zero component appears
        support = {m for m in range(1 << n) if case[1].coeffs[m] != 0}
        assert set(case[0]().comps) == (support or {0}), (n, mask)


def test_wedge_const_matches_algebra():
    _check_const_action(wedge_const)


def test_interior_const_matches_algebra():
    _check_const_action(interior_const)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("op", [d, delta], ids=["d", "delta"])
def test_single_mode_matches_algebra_symbol(op, n):
    assert _mode_error(_mode_case(op, n)) < 1e-10


def test_flipped_table_sign_fails_the_algebra_checks():
    # e_1 ^ dx_2 = +dx_{12} in dimension 3; the mutant makes it -dx_{12},
    # and with it the adjoint entry e_1 _| dx_{12} = +dx_2.  The oracles are
    # built before the edit, so the lowering table and the interior and
    # delta paths are held to the true sign too
    from hodgehalf import algebra

    n, axis, mask = 3, 1, 0b100
    assert algebra.insert_sign(axis, mask) == 1
    cases = [_const_case(wedge_const, n, mask),
             _const_case(interior_const, n, mask | 1 << axis)]
    modes = [_mode_case(d, n), _mode_case(delta, n)]
    table_row = algebra.raising(n)[mask]
    with mutants.applied(mutants.ROWS["flipped_table_sign"]):
        assert algebra.raising(n)[mask] != table_row
        for case in cases:
            assert _const_error(case) > 1e-6
        for case in modes:
            assert _mode_error(case) > 1e-6
    for case in cases:
        assert _const_error(case) < 1e-12
    for case in modes:
        assert _mode_error(case) < 1e-10


@pytest.mark.parametrize("table", ["raising", "lowering"])
def test_incidence_into_caller_arrays_matches_the_fresh_sum(table):
    # the caller's arrays hold garbage: each target's first term must
    # overwrite it, and a target with no term (axis 1 skipped) is zeroed
    from hodgehalf import algebra
    from hodgehalf.operators import _apply_incidence

    n, shape = 3, (4, 5, 6)
    rng = np.random.default_rng(4)
    comps = {m: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
             for m in range(1 << n)}
    coef = [rng.standard_normal(shape), None, 2.0 - 1.0j]
    tab = getattr(algebra, table)(n)
    fresh = _apply_incidence(tab, coef, comps)
    targets = {t for m in comps for _, t, _ in tab[m]}
    out = {t: np.full(shape, np.nan + 0j) for t in targets}
    arrays = dict(out)
    got = _apply_incidence(tab, coef, comps, out=out,
                           work=np.full(shape, np.nan + 0j))
    assert got is out and all(got[t] is arrays[t] for t in targets)
    for t in targets:
        assert np.array_equal(got[t], fresh.get(t, np.zeros(shape))), t
    assert targets - set(fresh)  # some target gets no term
