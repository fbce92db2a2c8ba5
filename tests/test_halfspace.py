"""Reflection extensions, traces, half-space Hodge machinery, Navier-slip."""

import numpy as np
import pytest

from hodgehalf.algebra import degree, lowering, raising
from hodgehalf.evolution import make_a_regular
from hodgehalf.fields import (Grid, SpectralField, TestFunctionSpec,
                              forward_fft, inverse_fft, random_form, synthesize)
from hodgehalf import halfspace
from hodgehalf.halfspace import (FLAVORS, HalfField, NodeReader,
                                 component_parity, d_half, delta_half, extend,
                                 extend_spectra, half_domain_integral,
                                 half_l2_norm_from_spectra, half_shape,
                                 hodge_bc_residual,
                                 hodge_heat, hodge_resolvent, hodge_stokes_apply,
                                 leray_halfspace, leray_halfspace_checked,
                                 navier_slip_residual,
                                 normal_derivative_at_boundary, normal_trace,
                                 q_projector, random_half_field, reflect_normal,
                                 remove_extended_mean, restrict,
                                 restrict_spectra, split_residual, symmetrize,
                                 tangential_trace)
from hodgehalf.operators import (d, delta, grad_l2, hess_l2, laplacian,
                                 leray_hat, resolvent)
from hodgehalf.verify import (VerifyOutcome, check_half_split, check_resolvent,
                              series_resolvent)


@pytest.fixture
def grid2():
    return Grid(2, 64, 16.0)


@pytest.fixture
def grid3():
    return Grid(3, 32, 16.0)


def rel(a, b):
    return a / max(b, 1e-300)


# ---------------------------------------------------------------------------
# flavors, extension, restriction
# ---------------------------------------------------------------------------

def test_component_parity_table():
    n = 3
    normal = 1 << (n - 1)
    assert component_parity("Ht", 0, n) == 1          # scalar: even
    assert component_parity("Ht", normal, n) == -1    # contains the normal: odd
    assert component_parity("Hn", 0, n) == -1
    assert component_parity("Hn", normal, n) == 1
    assert component_parity("D", 0b010, n) == -1
    assert component_parity("N", normal, n) == 1


@pytest.mark.parametrize("grid", [Grid(2, 32, 8.0), Grid(3, 16, 8.0),
                                  Grid(4, 8, 4.0)], ids=["n2", "n3", "n4"])
@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("kind", ["annulus_band", "random_band"])
def test_random_half_field_is_the_restricted_symmetrized_draw(grid, flavor,
                                                              kind):
    # the stored rows alone, bit for bit those of the doubled-torus route
    masks = range(1 << grid.n)
    kwargs = {"radii": (1.0, 2.5)} if kind == "annulus_band" else {}
    got = random_half_field(grid, flavor, masks, seed=7, kind=kind, **kwargs)
    full = random_form(grid, masks, seed=7, kind=kind, **kwargs)
    want = restrict(symmetrize(full, flavor), flavor)
    assert got.flavor == flavor and list(got.comps) == list(want.comps)
    for m, a in want.comps.items():
        assert np.array_equal(got.comps[m], a), m
        assert np.abs(a[..., 1:-1]).max() > 0.0, m
        ends = got.comps[m][..., [0, -1]]
        if component_parity(flavor, m, grid.n) < 0:
            # odd: the boundary and seam rows are exactly 0
            assert not np.any(ends), m
        else:
            assert np.abs(ends).max() > 0.0, m


@pytest.mark.parametrize("grid", [Grid(2, 32, 8.0), Grid(3, 16, 8.0)],
                         ids=["n2", "n3"])
def test_random_half_field_scans_only_the_stored_rows(monkeypatch, grid):
    # the draw goes straight into the rows: the one finiteness scan per
    # component is the HalfField's, on the half_shape rows, and a non-finite
    # draw still fails it
    shapes = []
    real = np.isfinite

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counted)
    masks = range(1 << grid.n)
    random_half_field(grid, "Ht", masks, seed=3, kind="annulus_band",
                      radii=(1.0, 2.5))
    assert shapes == [half_shape(grid)] * len(masks)
    monkeypatch.setattr(halfspace, "_random_components",
                        lambda grid_, masks_, *args, **kwargs: {
                            m: np.full(grid_.shape, np.nan + 0j)
                            for m in masks_})
    with pytest.raises(ValueError, match="non-finite samples"):
        random_half_field(grid, "Ht", [0, 1], seed=3)


def test_extension_is_even_for_scalars(grid2):
    u = random_half_field(grid2, "Ht", [0], seed=0, width=2.0)
    U = extend(u)
    refl = reflect_normal(U.comps[0])
    assert np.abs(U.comps[0] - refl).max() < 1e-15


def test_extension_odd_forces_boundary_zero(grid2):
    # a normal-bearing component extends oddly with a zero boundary row
    u = random_half_field(grid2, "Ht", [0b10], seed=1, width=2.0)
    U = extend(u)
    half = grid2.points // 2
    assert np.abs(U.comps[0b10][..., half]).max() == 0.0
    refl = reflect_normal(U.comps[0b10])
    assert np.abs(U.comps[0b10] + refl).max() < 1e-15


def test_restrict_extend_identity(grid2):
    u = random_half_field(grid2, "Ht", [0b01, 0b10], seed=2, width=2.0)
    v = restrict(extend(u), "Ht")
    for m in u.comps:
        assert np.abs(v.comps[m] - u.comps[m]).max() == 0.0


def test_extend_restrict_identity_on_symmetric(grid2):
    V = symmetrize(random_form(grid2, [0b01, 0b10], seed=3, width=2.0), "Hn")
    W = extend(restrict(V, "Hn"))
    for m in V.comps:
        assert np.abs(W.comps[m] - V.comps[m]).max() == 0.0


def test_extension_of_interior_support_is_mirror_pair(grid2):
    # data supported away from the boundary extends to two disjoint copies
    spec = TestFunctionSpec("gaussian_bump", center=(0.0, 8.0), width=1.0)
    full = synthesize(spec, grid2, (0,))
    u = restrict(full, "Ht")
    U = extend(u)
    half = grid2.points // 2
    upper = U.comps[0][..., half:]
    lower = U.comps[0][..., 1:half]
    assert np.abs(upper - u.comps[0][..., :half]).max() == 0.0
    assert np.abs(lower - u.comps[0][..., half - 1:0:-1]).max() < 1e-15
    # the two copies overlap nowhere above round-off
    assert np.abs(upper[..., 0]).max() < 1e-12


def test_odd_full_field_restricts_to_zero_boundary_row(grid2):
    U = symmetrize(random_form(grid2, [0b10], seed=4, width=2.0), "Ht")
    u = restrict(U, "Ht")
    assert np.abs(u.boundary_row(0b10)).max() < 1e-15


def test_half_field_shape_validation(grid2):
    with pytest.raises(ValueError):
        HalfField(grid2, "Ht", {0: np.zeros(grid2.shape)})
    with pytest.raises(ValueError):
        HalfField(grid2, "X", {})
    with pytest.raises(ValueError, match="out of range"):
        HalfField(grid2, "Ht", {4: np.zeros(half_shape(grid2))})


def test_traces_of_different_kinds_do_not_add(grid2):
    u = random_half_field(grid2, "Ht", [0b01, 0b10], seed=3, width=2.0)
    tangential, normal = tangential_trace(u), normal_trace(u)
    assert (tangential + tangential).wedged_normal is False
    with pytest.raises(ValueError, match="tangential and a normal"):
        tangential + normal


def test_half_field_rejects_nonfinite_samples(grid2):
    # the seam row of an odd component never reaches the extension, so an
    # unchecked NaN there would hide behind l2_norm() == 0.0
    rows = np.zeros(half_shape(grid2), dtype=complex)
    rows[..., -1] = np.nan
    assert component_parity("Ht", 0b10, 2) == -1
    with pytest.raises(ValueError, match="non-finite"):
        HalfField(grid2, "Ht", {0b10: rows})


# ---------------------------------------------------------------------------
# derivatives through the extension
# ---------------------------------------------------------------------------

def test_d_half_scalar_gradient_symmetry(grid2):
    u = random_half_field(grid2, "Ht", [0], seed=5, width=2.0)
    du = d_half(u)
    # the normal component of the gradient of an even function is odd:
    # its boundary row vanishes
    assert np.abs(du.boundary_row(0b10)).max() < 1e-13


def test_commutation_residual_random_fields(grid2):
    worst = 0.0
    for trial in range(20):
        masks = [0, 0b01, 0b10, 0b11]
        u = random_half_field(grid2, "Ht", masks, seed=100 + trial, width=2.0)
        lhs = d(extend(u))
        rhs = extend(d_half(u))
        worst = max(worst, rel((lhs - rhs).l2_norm(), grad_l2(extend(u))))
        lhs2 = delta(extend(u))
        rhs2 = extend(delta_half(u))
        worst = max(worst, rel((lhs2 - rhs2).l2_norm(), grad_l2(extend(u))))
    assert worst < 1e-9


def test_d_half_flavor_mirror(grid2):
    u = random_half_field(grid2, "Hn", [0b01, 0b10], seed=6, width=2.0)
    lhs = d(extend(u))
    rhs = extend(d_half(u))
    assert (lhs - rhs).l2_norm() < 1e-9 * grad_l2(extend(u))


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def test_tangential_trace_zero_when_no_normal_components(grid2):
    u = random_half_field(grid2, "Ht", [0, 0b01], seed=7, width=2.0)
    assert tangential_trace(u).l2_norm() == 0.0


def test_tangential_trace_vector_sign(grid2):
    # on 1-forms nu _| u is -(-u_n)(., 0) = u_n(., 0) up to the stated sign
    u = random_half_field(grid2, "Hn", [0b10], seed=8, width=2.0)
    tr = tangential_trace(u)
    expected = -u.boundary_row(0b10)  # (-1)^k with k = 1
    assert np.abs(tr.component(0) - expected).max() < 1e-15


def test_normal_trace_picks_tangential_components(grid2):
    # the tangential flavor keeps both n-free boundary rows nonzero (under
    # Hn they vanish and each assertion would compare 0 with 0)
    u = random_half_field(grid2, "Ht", [0, 0b01], seed=9, width=2.0)
    tr = normal_trace(u)
    assert tr.wedged_normal
    for mask in (0, 0b01):
        assert np.abs(u.boundary_row(mask)).max() > 0.1
    # 0-form: sign (-1)^(0+1) = -1; 1-form dx1: sign (-1)^(1+1) = +1
    assert np.abs(tr.component(0) + u.boundary_row(0)).max() < 1e-15
    assert np.abs(tr.component(0b01) - u.boundary_row(0b01)).max() < 1e-15


def test_normal_trace_vanishes_for_odd_components(grid2):
    u = random_half_field(grid2, "Ht", [0b01, 0b10], seed=10, width=2.0)
    v = q_projector_free_trace = normal_trace(
        restrict(symmetrize(extend(u), "Hn"), "Hn"))
    # symmetrizing to the normal flavor kills tangential boundary rows
    assert v.l2_norm() < 1e-13


def test_half_domain_integral_oracle(grid2):
    # separable erf closed form for a shifted gaussian over the half-domain
    from math import erf, pi, sqrt

    spec = TestFunctionSpec("gaussian_bump", center=(1.0, 2.0), width=2.0)
    g = synthesize(spec, grid2, (0,))
    got = half_domain_integral(g.comps[0], grid2)

    def gauss_between(a, b, c, w):
        return w * sqrt(pi) / 2.0 * (erf((b - c) / w) - erf((a - c) / w))

    oracle = gauss_between(-16, 16, 1.0, 2.0) * gauss_between(0, 16, 2.0, 2.0)
    assert abs(got - oracle) < 1e-10 * abs(oracle)


# ---------------------------------------------------------------------------
# Hodge resolvent and heat through the reflection identity
# ---------------------------------------------------------------------------

def test_reflection_identity_sector_samples(grid2):
    f = random_half_field(grid2, "Ht", [0b01, 0b10], seed=11,
                          kind="annulus_band", radii=(1.0, 3.0))
    outcome = VerifyOutcome("probe")
    for r in (0.1, 1.0, 10.0, 100.0):
        for th in (0.0, 2.3, -2.3):
            check_resolvent(outcome, r * np.exp(1j * th), f)
    assert set(outcome.worst) == {"reflection_identity", "boundary_conditions"}
    assert outcome.status == "ok", outcome.worst


def test_hodge_resolvent_scalar_neumann(grid2):
    # scalars under Ht feel the Neumann Laplacian: normal derivative vanishes
    f = random_half_field(grid2, "Ht", [0], seed=12, width=2.0)
    u = hodge_resolvent(2.0, f)
    du = d_half(u)
    assert np.abs(du.boundary_row(0b10)).max() < 1e-10
    # matches the cosine-series Neumann resolvent componentwise
    per = series_resolvent(2.0, f.comps[0], grid2, "N")
    assert np.abs(u.comps[0] - per).max() < 1e-13


def test_hodge_resolvent_dirichlet_components(grid3):
    # normal-bearing components solve Dirichlet problems: boundary rows vanish
    nbit = 1 << 2
    masks = [nbit, nbit | 0b001]
    f = random_half_field(grid3, "Ht", masks, seed=13, width=2.0)
    lam = 1.5 * np.exp(0.4j)
    u = hodge_resolvent(lam, f)
    for m in masks:
        assert np.abs(u.boundary_row(m)).max() < 1e-13
        per = series_resolvent(lam, f.comps[m], grid3, "D")
        assert np.abs(u.comps[m] - per).max() <= 1e-10 * np.abs(per).max()


def test_hodge_resolvent_pde_residual(grid2):
    f = random_half_field(grid2, "Ht", [0b01, 0b10], seed=14, width=2.0)
    lam = 1.0
    u = hodge_resolvent(lam, f)
    U, F = extend(u), extend(f)
    resid = (lam * U - laplacian(U) - F).l2_norm()
    assert resid < 1e-9 * F.l2_norm()


def test_hodge_resolvent_estimate_sweep(grid2):
    f = random_half_field(grid2, "Ht", [0b01, 0b10], seed=15,
                          kind="annulus_band", radii=(1.5, 2.5))
    ratios = []
    for r in [10.0 ** e for e in range(-2, 3)]:
        for th in np.linspace(-3 * np.pi / 4, 3 * np.pi / 4, 9):
            lam = r * np.exp(1j * th)
            u = hodge_resolvent(lam, f)
            U = extend(u)
            F = extend(f)
            val = (abs(lam) * U.l2_norm() + abs(lam) ** 0.5 * grad_l2(U)
                   + hess_l2(U)) / F.l2_norm()
            ratios.append(val)
    ratios = np.array(ratios)
    assert np.all(np.isfinite(ratios))
    assert ratios.max() / ratios.min() < 3.0


def test_hodge_heat_identity_semigroup_commutation(grid2):
    u0 = random_half_field(grid2, "Ht", [0, 0b01, 0b10], seed=16, width=2.0)
    assert (hodge_heat(0.0, u0) - u0).l2_norm() < 1e-14
    a = hodge_heat(0.4, hodge_heat(0.6, u0))
    b = hodge_heat(1.0, u0)
    assert (a - b).l2_norm() <= 1e-12 * u0.l2_norm()
    lhs = d_half(hodge_heat(0.5, u0))
    rhs = hodge_heat(0.5, d_half(u0))
    assert (lhs - rhs).l2_norm() <= 1e-9 * grad_l2(extend(u0))


def test_hodge_resolvent_at_zero_refuses_a_mean_as_resolvent_does(grid2):
    f, _ = remove_extended_mean(
        random_half_field(grid2, "Ht", [0, 0b01, 0b10], seed=17, width=2.0))
    with_mean = HalfField(grid2, "Ht",
                          {**f.comps, 0: f.comps[0] + 1e-9 * f.l2_norm()})
    with pytest.raises(ValueError, match="mean-free") as want:
        resolvent(0.0, extend(with_mean))
    with pytest.raises(ValueError, match="mean-free") as got:
        hodge_resolvent(0.0, with_mean)
    assert str(got.value) == str(want.value)
    # the mean-free field passes, and -Delta u = f on the extension
    U, F = extend(hodge_resolvent(0.0, f)), extend(f)
    assert (-1 * laplacian(U) - F).l2_norm() <= 1e-9 * F.l2_norm()


def test_hodge_resolvent_refuses_the_negative_real_axis(grid2):
    f = random_half_field(grid2, "Ht", [0b01, 0b10], seed=18, width=2.0)
    with pytest.raises(ValueError, match="negative real axis"):
        hodge_resolvent(-1.0, f)


def test_hodge_heat_refuses_negative_time(grid2):
    u0 = random_half_field(grid2, "Ht", [0b01, 0b10], seed=19, width=2.0)
    with pytest.raises(ValueError, match="t >= 0"):
        hodge_heat(-0.1, u0)


@pytest.mark.parametrize("n, points", [(2, 32), (3, 16)])
def test_functions_of_the_laplacian_make_no_full_transform(fft_counts, n,
                                                           points):
    # the resolvent, the heat semigroup and make_a_regular run between
    # extend_spectra and restrict_spectra: no transform covers all n axes
    grid = Grid(n, points, 8.0)
    f = random_half_field(grid, "Ht", [1 << a for a in range(n)], seed=22,
                          kind="annulus_band", radii=(1.0, 2.5))
    fft_counts.clear()
    hodge_resolvent(1.0, f)
    hodge_heat(0.5, f)
    make_a_regular(f)
    assert fft_counts[n] == 0
    assert fft_counts[1] > 0


# ---------------------------------------------------------------------------
# Hodge decomposition on the half-space
# ---------------------------------------------------------------------------

def make_tangential_field(grid, seed):
    return random_half_field(grid, "Ht", [0b01, 0b10], seed=seed,
                             kind="annulus_band", radii=(1.0, 3.0))


def test_leray_halfspace_properties(grid2):
    u = make_tangential_field(grid2, 17)
    outcome = VerifyOutcome("probe")
    pu, gu = check_half_split(outcome, u)
    assert len(outcome.worst) == 4 and outcome.status == "ok", outcome.worst
    nu = u.l2_norm()
    assert delta_half(pu).l2_norm() <= 1e-9 * nu
    assert d_half(gu).l2_norm() <= 1e-9 * nu


def test_leray_halfspace_fixes_solenoidal(grid2):
    u = make_tangential_field(grid2, 18)
    pu, _ = leray_halfspace(u)
    again, moved = leray_halfspace(pu)
    assert (again - pu).l2_norm() <= 1e-9 * pu.l2_norm()
    assert moved.l2_norm() <= 1e-9 * pu.l2_norm()


def test_leray_halfspace_kills_gradients(grid2):
    phi = random_half_field(grid2, "Ht", [0], seed=19, kind="annulus_band",
                            radii=(1.0, 3.0))
    u = d_half(phi)
    pu, gu = leray_halfspace(u)
    assert pu.l2_norm() <= 1e-9 * u.l2_norm()
    assert (gu - u).l2_norm() <= 1e-9 * u.l2_norm()


def test_leray_halfspace_requires_tangential_flavor(grid2):
    u = random_half_field(grid2, "Hn", [0b01, 0b10], seed=20, width=2.0)
    with pytest.raises(ValueError):
        leray_halfspace(u)


def test_leray_decompose_recombine_idempotent(grid2):
    u = make_tangential_field(grid2, 21)
    pu, gu = leray_halfspace(u)
    pu2, gu2 = leray_halfspace(pu + gu)
    assert (pu2 - pu).l2_norm() <= 1e-9 * u.l2_norm()
    assert (gu2 - gu).l2_norm() <= 1e-9 * u.l2_norm()


def test_q_projector_mirror(grid2):
    u = random_half_field(grid2, "Hn", [0b01, 0b10], seed=22,
                          kind="annulus_band", radii=(1.0, 3.0))
    qu, ru = q_projector(u)
    nu = u.l2_norm()
    assert (qu + ru - u).l2_norm() <= 1e-13 * nu
    assert delta_half(qu).l2_norm() <= 1e-9 * nu
    assert d_half(ru).l2_norm() <= 1e-9 * nu
    assert normal_trace(ru).l2_norm() <= 1e-8 * nu
    assert abs(qu.l2_inner(ru)) <= 1e-8 * nu ** 2
    # solenoidal fields are fixed
    qq, rr = q_projector(qu)
    assert (qq - qu).l2_norm() <= 1e-9 * nu
    # exact fields with the normal condition are annihilated
    psi = random_half_field(grid2, "Hn", [0], seed=23, kind="annulus_band",
                            radii=(1.0, 3.0))
    w = d_half(psi)
    qw, rw = q_projector(w)
    assert qw.l2_norm() <= 1e-9 * w.l2_norm()


def test_hodge_stokes_apply(grid2):
    u = make_tangential_field(grid2, 24)
    pu, gu = leray_halfspace(u)
    au = hodge_stokes_apply(pu)
    target = restrict(-1 * laplacian(extend(pu)), "Ht")
    assert (au - target).l2_norm() <= 1e-9 * hess_l2(extend(pu))
    with pytest.raises(ValueError):
        hodge_stokes_apply(gu)  # gradients are outside the domain


# ---------------------------------------------------------------------------
# Navier-slip boundary conditions
# ---------------------------------------------------------------------------

def test_onesided_derivative_oracle():
    # the one-sided stencil reproduces the analytic normal derivative
    grid = Grid(2, 256, 16.0)
    x = grid.axis_coords()
    xn = grid.spacing * np.arange(grid.points // 2 + 1)
    field = (np.exp(-np.square(x[:, None]) / 9.0)
             * np.sin(0.7 * xn[None, :] + 0.3))
    got = normal_derivative_at_boundary(field.astype(complex), grid)
    expected = np.exp(-np.square(x) / 9.0) * 0.7 * np.cos(0.3)
    assert np.abs(got - expected).max() < 1e-8


def test_navier_slip_residual_on_hodge_fields():
    grid = Grid(2, 256, 16.0)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=25,
                          kind="annulus_band", radii=(0.7, 1.8))
    u = hodge_resolvent(1.0, f)
    normal_part, stress = navier_slip_residual(u)
    scale = max(u.l2_norm(), 1e-300)
    assert normal_part / scale < 1e-7
    assert stress / scale < 1e-7


def test_navier_slip_residual_generic_field_nonzero():
    grid = Grid(2, 256, 16.0)
    # generic smooth field with no particular boundary behavior
    full = random_form(grid, [0b01, 0b10], seed=26, kind="gaussian_bump",
                       width=3.0, center=(0.0, 2.0))
    u = restrict(full, "Ht")
    normal_part, stress = navier_slip_residual(u)
    assert stress > 1e-3 * u.l2_norm()


def test_navier_slip_equivalence_converse():
    # fields built to satisfy the slip conditions pass the Hodge check
    grid = Grid(2, 256, 16.0)
    w = random_half_field(grid, "Ht", [0b01, 0b10], seed=27,
                          kind="annulus_band", radii=(0.7, 1.8))
    normal_part, stress = navier_slip_residual(w)
    scale = w.l2_norm()
    assert normal_part / scale < 1e-7 and stress / scale < 1e-7
    bc_u, bc_du = hodge_bc_residual(w)
    assert bc_u / scale < 1e-7 and bc_du / scale < 1e-7


def test_navier_slip_residual_requires_vectors(grid2):
    u = random_half_field(grid2, "Ht", [0], seed=28, width=2.0)
    with pytest.raises(ValueError):
        navier_slip_residual(u)


def test_navier_slip_zero_normal_even_tangential():
    # u_n identically zero with even tangential components: the normal part
    # vanishes exactly and the stress residual is stencil truncation only
    grid = Grid(2, 256, 16.0)
    u = random_half_field(grid, "Ht", [0b01], seed=29, kind="annulus_band",
                          radii=(0.7, 1.8))
    u = u + HalfField.zero(grid, "Ht", [0b10])
    normal_part, stress = navier_slip_residual(u)
    assert normal_part == 0.0
    assert stress < 1e-7 * u.l2_norm()


def test_half_field_flavor_mismatch_guarded(grid2):
    a = random_half_field(grid2, "Ht", [0b01], seed=30, width=2.0)
    b = random_half_field(grid2, "Hn", [0b01], seed=31, width=2.0)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a.l2_inner(b)
    with pytest.raises(ValueError, match="flavor mismatch"):
        a.with_flavor("D").l2_inner(b.with_flavor("N"))


# ---------------------------------------------------------------------------
# half-row quadrature: pairings, norms and means without an extension
# ---------------------------------------------------------------------------

QUADRATURE_GRIDS = [Grid(2, 16, 4.0), Grid(3, 8, 4.0), Grid(4, 8, 4.0)]


def raw_half_field(grid, flavor, seed):
    """Every component, with a mean; odd ones carry nonzero boundary and seam
    rows, which their extension drops."""
    rng = np.random.default_rng(seed)
    shape = half_shape(grid)
    return HalfField(grid, flavor, {
        m: (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            + (0.5 - 0.25j) * (m + 1)) for m in range(1 << grid.n)})


def quadrature_error(grid, flavor, seed=0):
    """Worst relative gap of l2_inner, l2_norm and remove_extended_mean from
    the extension oracle 0.5 * <ext u, ext v> and the extension mean."""
    u = raw_half_field(grid, flavor, seed)
    v = raw_half_field(grid, flavor, seed + 1)
    ext_u = extend(u)
    want = 0.5 * ext_u.l2_inner(extend(v))
    errs = [abs(u.l2_inner(v) - want) / abs(want)]
    want_norm = np.sqrt(0.5 * ext_u.l2_inner(ext_u).real)
    errs.append(abs(u.l2_norm() - want_norm) / want_norm)
    shifted, worst = remove_extended_mean(u)
    means = {m: np.mean(a) for m, a in ext_u.comps.items()
             if component_parity(flavor, m, grid.n) > 0}
    if means:
        top = max(abs(x) for x in means.values())
        errs.append(abs(worst - top) / top)
        for m, mean in means.items():
            errs.append(np.abs(shifted.comps[m] - (u.comps[m] - mean)).max()
                        / abs(mean))
    else:
        assert worst == 0.0
    for m in set(u.comps) - set(means):
        assert np.array_equal(shifted.comps[m], u.comps[m])
    return max(errs)


@pytest.mark.parametrize("grid", QUADRATURE_GRIDS, ids=lambda g: f"n{g.n}")
@pytest.mark.parametrize("flavor", FLAVORS)
def test_half_row_quadrature_matches_extension(grid, flavor):
    assert quadrature_error(grid, flavor) <= 1e-13


@pytest.mark.parametrize("parity", [1, -1])
@pytest.mark.parametrize("end_scale", [1.0, 1e8], ids=["ends-even", "ends-big"])
def test_half_row_sum_matches_the_weighted_sum(parity, end_scale):
    # nonzero end rows, up to 1e8 times the rest: an odd component's must not
    # enter at all, an even one's at half weight
    rng = np.random.default_rng(4)
    shape = (6, 5, 9)
    a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for _ in range(2))
    for arr in (a, b):
        arr[..., [0, -1]] *= end_scale
    weights = np.ones(shape[-1])
    weights[[0, -1]] = 0.5 if parity > 0 else 0.0
    for other, want in ((None, np.sum(a * weights)),
                        (b, np.sum(a * np.conj(b) * weights))):
        got = halfspace._half_row_sum(a, parity, other)
        assert abs(got - want) <= 1e-14 * abs(want), (other is None, got, want)


def _trapezoid_variant(even_end, odd_end):
    """An independent weighted row sum with chosen end-row weights."""
    def row_sum(a, parity, b=None):
        weights = np.ones(a.shape[-1])
        weights[[0, -1]] = even_end if parity > 0 else odd_end
        product = a if b is None else a * np.conj(b)
        return complex(np.sum(product * weights))
    return row_sum


@pytest.mark.parametrize("even_end, odd_end, caught", [
    (0.5, 0.0, False),   # the rule itself: the harness below is faithful
    (1.0, 0.0, True),    # end rows counted whole
    (0.5, 0.5, True),    # odd components keep their end rows
])
def test_half_row_quadrature_mutations_are_caught(monkeypatch, even_end,
                                                  odd_end, caught):
    # every gate must move: the half-field norms and pairing, and the
    # divergence column NodeReader sums by the same rule
    monkeypatch.setattr(halfspace, "_half_row_sum",
                        _trapezoid_variant(even_end, odd_end))
    for gate in (quadrature_error, reader_divergence_error):
        worst = max(gate(grid, flavor)
                    for grid in QUADRATURE_GRIDS for flavor in FLAVORS)
        assert (worst > 1e-3) if caught else (worst <= 1e-13), gate.__name__


def reader_divergence_error(grid, flavor):
    """Worst relative gap, over the degrees 1..n of white-noise spectra, of
    NodeReader's divergence from the extension oracle: |delta U| restricted
    and re-extended, over sqrt 2 (no half-row sum)."""
    worst = 0.0
    for k in range(1, grid.n + 1):
        state = white_noise_spectra(grid, k)
        got = NodeReader(grid, flavor, state)(state)["divergence"]
        ext = extend(restrict(delta(inverse_fft(SpectralField(grid, state))),
                              flavor))
        want = np.sqrt(0.5 * ext.l2_inner(ext).real)
        worst = max(worst, abs(got - want) / want)
    return worst


def _half_domain_integral_fftn(values, grid):
    """The n-D transform formula that half_domain_integral replaced."""
    line = np.fft.fftn(values)[(0,) * (grid.n - 1)]
    k = np.fft.fftfreq(grid.points) * grid.points
    coeff = np.zeros(grid.points, dtype=complex)
    coeff[0] = grid.length
    odd = (np.abs(k) % 2) == 1
    coeff[odd] = -2.0 * grid.length * 1j / (np.pi * k[odd])
    tangential_volume = (2.0 * grid.length) ** (grid.n - 1)
    return tangential_volume * np.sum(line * coeff) / grid.points ** grid.n


@pytest.mark.parametrize("grid", [Grid(2, 32, 8.0), Grid(3, 16, 8.0)],
                         ids=["n2", "n3"])
def test_half_domain_integral_matches_nd_transform(grid):
    rng = np.random.default_rng(3)
    values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    want = _half_domain_integral_fftn(values, grid)
    assert abs(half_domain_integral(values, grid) - want) <= 1e-13 * abs(want)


# ---------------------------------------------------------------------------
# full-band white noise: odd symbols vanish on the Nyquist planes
# ---------------------------------------------------------------------------

NOISE_GRIDS = [Grid(2, 32, 8.0), Grid(3, 16, 8.0)]
PROJECTORS = {"Ht": leray_halfspace, "Hn": q_projector}


def white_noise(grid, flavor, seed=0):
    return remove_extended_mean(raw_half_field(grid, flavor, seed))[0]


def projector_residuals(grid, flavor):
    """Relative residuals of the flavor's projector on white noise."""
    project = PROJECTORS[flavor]
    u = white_noise(grid, flavor)
    nu = u.l2_norm()
    pu, gu = project(u)
    return {"split": (pu + gu - u).l2_norm() / nu,
            "idempotent": (project(pu)[0] - pu).l2_norm() / nu,
            "delta_pu": delta_half(pu).l2_norm() / nu,
            "d_gu": d_half(gu).l2_norm() / nu}


@pytest.mark.parametrize("grid", NOISE_GRIDS, ids=["n2", "n3"])
@pytest.mark.parametrize("flavor", sorted(PROJECTORS))
def test_white_noise_projector_at_round_off(grid, flavor):
    res = projector_residuals(grid, flavor)
    assert max(res.values()) <= 1e-13, res


@pytest.mark.parametrize("grid", NOISE_GRIDS, ids=["n2", "n3"])
@pytest.mark.parametrize("flavor", FLAVORS)
def test_white_noise_d_squared_vanishes(grid, flavor):
    u = white_noise(grid, flavor)
    assert d_half(d_half(u)).l2_norm() <= 1e-13 * u.l2_norm()


@pytest.mark.parametrize("grid", NOISE_GRIDS, ids=["n2", "n3"])
@pytest.mark.parametrize("flavor", sorted(PROJECTORS))
def test_white_noise_catches_a_nyquist_symbol(monkeypatch, grid, flavor):
    # mutation: the odd symbols read the true xi at k = N/2 again
    monkeypatch.setattr(Grid, "odd_freqs", Grid.freqs)
    res = projector_residuals(grid, flavor)
    # P leaves the flavor's symmetry class on the normal Nyquist plane: the
    # Ht split then shows in delta(Pu), the mirror Hn split in d(Gu)
    assert res["idempotent"] > 1e-3, res
    assert max(res["delta_pu"], res["d_gu"]) > 1e-3, res


# ---------------------------------------------------------------------------
# half-row transforms against the whole-torus routes they replace
# ---------------------------------------------------------------------------

def component_gap(got, want):
    """Worst sample gap between two fields of the same components, relative
    to the largest sample of the oracle ``want``."""
    assert set(got.comps) == set(want.comps)
    scale = max(np.abs(a).max() for a in want.comps.values())
    return max(np.abs(got.comps[m] - want.comps[m]).max()
               for m in want.comps) / scale


@pytest.mark.parametrize("grid", QUADRATURE_GRIDS, ids=lambda g: f"n{g.n}")
@pytest.mark.parametrize("flavor", FLAVORS)
def test_extend_spectra_matches_the_extension_transform(grid, flavor):
    # odd components carry nonzero end rows, which the extension drops
    u = raw_half_field(grid, flavor, seed=5)
    assert component_gap(extend_spectra(u), forward_fft(extend(u))) <= 1e-12


@pytest.mark.parametrize("grid", QUADRATURE_GRIDS, ids=lambda g: f"n{g.n}")
@pytest.mark.parametrize("flavor", FLAVORS)
def test_restrict_spectra_matches_the_restricted_inverse(grid, flavor):
    # white-noise spectra of no symmetry class: the end-row rules must match
    rng = np.random.default_rng(6)
    U = SpectralField(grid, {
        m: rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        for m in range(1 << grid.n)})
    want = restrict(inverse_fft(U), flavor)
    assert component_gap(restrict_spectra(U, flavor), want) <= 1e-12


# four blocks of first-axis rows, the last one shorter (halfspace._row_blocks)
BLOCKED_GRID = Grid(3, 48, 8.0)


@pytest.mark.parametrize("grid", QUADRATURE_GRIDS + [
    pytest.param(BLOCKED_GRID, id="n3-48")], ids=lambda g: f"n{g.n}")
@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("op, whole", [(d_half, d), (delta_half, delta)],
                         ids=["d", "delta"])
def test_half_derivatives_match_the_extension_route(grid, flavor, op, whole):
    u = raw_half_field(grid, flavor, seed=7)
    for k in range(grid.n + 1):
        uk = HalfField(grid, flavor, {m: a for m, a in u.comps.items()
                                      if degree(m) == k})
        want = restrict(whole(extend(uk)), flavor)
        got = op(uk)
        if not want.comps:  # d of an n-form, delta of a 0-form
            assert not got.comps
            continue
        assert component_gap(got, want) <= 1e-12, k


@pytest.mark.parametrize("grid", QUADRATURE_GRIDS, ids=lambda g: f"n{g.n}")
@pytest.mark.parametrize("flavor", FLAVORS)
def test_half_row_transforms_leave_their_inputs_alone(grid, flavor):
    # the transforms run in place on arrays they allocate, never on an input,
    # and hand back no view of one
    u = raw_half_field(grid, flavor, seed=8)
    rng = np.random.default_rng(9)
    U = SpectralField(grid, {
        m: rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        for m in range(1 << grid.n)})
    calls = [(extend_spectra, u), (d_half, u), (delta_half, u),
             (lambda S: restrict_spectra(S, flavor), U)]
    if flavor in PROJECTORS:
        calls.append((PROJECTORS[flavor], white_noise(grid, flavor)))
    for op, arg in calls:
        before = {m: a.tobytes() for m, a in arg.comps.items()}
        out = op(arg)
        assert {m: a.tobytes() for m, a in arg.comps.items()} == before, op
        for part in out if isinstance(out, tuple) else (out,):
            assert not any(np.shares_memory(a, b) for a in part.comps.values()
                           for b in arg.comps.values()), op


# ---------------------------------------------------------------------------
# the half-space Leray split, one block of frequency rows at a time
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("grid, blocks", [
    (BLOCKED_GRID, 4), (Grid(3, 64, 8.0), 8), (Grid(2, 64, 8.0), 1),
    (Grid(4, 12, 8.0), 1)], ids=["n3-48", "n3-64", "n2-64", "n4-12"])
@pytest.mark.parametrize("flavor", sorted(PROJECTORS))
def test_leray_split_in_blocks_is_the_extension_route(grid, blocks, flavor):
    # bit for bit: the blocks change where the work runs, not the numbers
    assert len(halfspace._row_blocks(grid)) == blocks
    u = white_noise(grid, flavor)
    for k in range(grid.n + 1):
        uk = HalfField(grid, flavor, {m: a for m, a in u.comps.items()
                                      if degree(m) == k})
        got = PROJECTORS[flavor](uk)
        want = [restrict_spectra(part, flavor)
                for part in leray_hat(extend_spectra(uk))]
        for g, w in zip(got, want):
            assert g.flavor == flavor
            assert list(g.comps) == list(w.comps), k
            for m in w.comps:
                assert np.array_equal(g.comps[m], w.comps[m]), (k, m)


@pytest.mark.parametrize("grid", [Grid(2, 16, 4.0), BLOCKED_GRID],
                         ids=["n2", "n3-48"])
@pytest.mark.parametrize("flavor", sorted(PROJECTORS))
def test_leray_split_refuses_a_mean_as_leray_hat_does(grid, flavor):
    # the guard reads the stored rows; the spectral route refuses the same
    # input with the same message
    u = white_noise(grid, flavor, seed=3)
    even = min(m for m in u.comps if component_parity(flavor, m, grid.n) > 0)
    shifted = dict(u.comps)
    shifted[even] = u.comps[even] + 1e-9 * u.l2_norm()
    v = HalfField(grid, flavor, shifted)
    with pytest.raises(ValueError, match="mean-free") as want:
        leray_hat(extend_spectra(v))
    with pytest.raises(ValueError, match="mean-free") as got:
        PROJECTORS[flavor](v)
    assert str(got.value) == str(want.value)
    PROJECTORS[flavor](u)  # the mean-free field itself passes


@pytest.mark.parametrize("flavor", FLAVORS)
def test_leray_split_refuses_the_other_flavors(flavor):
    u = random_half_field(Grid(2, 16, 4.0), flavor, [0b01, 0b10], seed=20,
                          width=2.0)
    for want, project in PROJECTORS.items():
        if flavor != want:
            with pytest.raises(ValueError, match="flavor fields"):
                project(u)
    if flavor != "Ht":
        with pytest.raises(ValueError, match="flavor fields"):
            leray_halfspace_checked(u)


@pytest.mark.parametrize("grid", QUADRATURE_GRIDS + [
    pytest.param(Grid(3, 64, 8.0), id="n3-64")], ids=lambda g: f"n{g.n}")
@pytest.mark.parametrize("flavor", FLAVORS)
def test_incidence_norms_from_tangential_spectra(grid, flavor):
    # |delta_half| and |d_half| read from the stored rows' tangential spectra,
    # on every degree of white noise whose odd components carry nonzero end
    # rows; 64^3 runs its normal derivatives in eight blocks
    u = raw_half_field(grid, flavor, seed=11)
    tangential = tuple(range(grid.n - 1))
    for k in range(grid.n + 1):
        uk = HalfField(grid, flavor, {m: a for m, a in u.comps.items()
                                      if degree(m) == k})
        rows = {m: np.fft.fftn(a, axes=tangential) for m, a in uk.comps.items()}
        for table, unit, op in [(lowering(grid.n), -1j, delta_half),
                                (raising(grid.n), 1j, d_half)]:
            image = op(uk)
            want = image.l2_norm()
            got = halfspace._incidence_norm_from_rows(grid, flavor, rows,
                                                      table, unit)
            assert abs(got - want) <= 1e-12 * want, (k, op.__name__)
            assert (want > 0.1 * uk.l2_norm()) == bool(image.comps)


@pytest.mark.parametrize("grid", [Grid(2, 64, 8.0), Grid(3, 64, 8.0),
                                  BLOCKED_GRID], ids=["n2", "n3-64", "n3-48"])
def test_checked_split_is_the_split_with_its_checks(grid):
    u = white_noise(grid, "Ht", seed=12)
    pu, gu = leray_halfspace(u)
    p2, g2, p_divergence, g_curl = leray_halfspace_checked(u)
    for got, want in [(p2, pu), (g2, gu)]:
        assert list(got.comps) == list(want.comps)
        for m in want.comps:
            assert np.array_equal(got.comps[m], want.comps[m]), m
    scale = u.l2_norm()
    assert abs(p_divergence - delta_half(pu).l2_norm()) <= 1e-13 * scale
    assert abs(g_curl - d_half(gu).l2_norm()) <= 1e-13 * scale
    assert split_residual(u, pu, gu) == (pu + gu - u).l2_norm()
    # a part off by a tenth of u shows in the residual at that size
    off = pu + 0.1 * u
    assert split_residual(u, off, gu) == (off + gu - u).l2_norm() > 0.09 * scale

def split_inputs(grid, flavor):
    """Mean-free white noise of every degree, of all degrees at once, and
    inputs lacking components the split reaches: the first component of
    each degree 1..n-1 alone, and a 1-form without its normal component."""
    u = white_noise(grid, flavor, seed=14)
    inputs = [u] + [HalfField(grid, flavor, {m: a for m, a in u.comps.items()
                                             if degree(m) == k})
                    for k in range(grid.n + 1)]
    for k in range(1, grid.n):
        first = min(m for m in u.comps if degree(m) == k)
        inputs.append(HalfField(grid, flavor, {first: u.comps[first]}))
    inputs.append(HalfField(grid, flavor, {1 << a: u.comps[1 << a]
                                           for a in range(grid.n - 1)}))
    return inputs


@pytest.mark.parametrize("grid", [Grid(2, 16, 4.0), BLOCKED_GRID],
                         ids=["n2", "n3-48"])
@pytest.mark.parametrize("flavor", sorted(PROJECTORS))
def test_split_leaves_its_inputs_alone(grid, flavor):
    # the split writes Pu over spectra it takes itself and runs in buffers of
    # its own: every input array keeps its bytes, no part is a view of one,
    # and a component of P that u lacks still gets the extension route's
    # numbers, in the extension route's component order
    splits = [PROJECTORS[flavor]]
    if flavor == "Ht":
        splits.append(lambda v: leray_halfspace_checked(v)[:2])
    for u in split_inputs(grid, flavor):
        want = [restrict_spectra(part, flavor)
                for part in leray_hat(extend_spectra(u))]
        for split in splits:
            before = {m: a.tobytes() for m, a in u.comps.items()}
            got = split(u)
            assert {m: a.tobytes() for m, a in u.comps.items()} == before
            for g, w in zip(got, want):
                assert list(g.comps) == list(w.comps), sorted(u.comps)
                for m, a in g.comps.items():
                    assert np.array_equal(a, w.comps[m]), (sorted(u.comps), m)
                    assert not any(np.shares_memory(a, b)
                                   for b in u.comps.values())


def test_checked_split_footprint():
    # a 48^3 1-form runs in four blocks of 14, 14, 14 and 6 rows.  Besides
    # the input, the checked split may hold its two parts (six stored-row
    # components) and, for one block, the three extension buffers, delta's
    # one target and d's three: seven block extensions, and one more for the
    # block's frequency tables and row sums.  Holding u's tangential spectra
    # beside fresh Pu arrays would cost three components more, over five
    # block extensions at this grid.
    import tracemalloc

    grid = BLOCKED_GRID
    assert [len(range(grid.points)[b])
            for b in halfspace._row_blocks(grid)] == [14, 14, 14, 6]
    u = white_noise(grid, "Ht", seed=15)
    u = HalfField(grid, "Ht", {m: a for m, a in u.comps.items()
                               if degree(m) == 1})
    component = u.comps[1].nbytes
    block = 14 * grid.points ** 2 * np.dtype(complex).itemsize
    bound = 6 * component + 8 * block
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        pu, gu, _, _ = leray_halfspace_checked(u)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert len(pu.comps) == len(gu.comps) == 3
    assert peak <= bound, (peak, bound)

# ---------------------------------------------------------------------------
# the node reader of solve against the field oracles
# ---------------------------------------------------------------------------

def white_noise_spectra(grid, k, seed=0):
    """Spectra of every degree-k component, white noise of no symmetry class:
    the restriction's seam row and the end-row weights all matter."""
    rng = np.random.default_rng(seed)
    return {m: rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            for m in range(1 << grid.n) if degree(m) == k}


def reader_columns(grid, flavor, k):
    """The reader's columns on degree-k white noise, and their oracles: the
    divergence by the whole-torus route (n-D inverse transform, delta of the
    torus field, restriction), the trace on the restricted field."""
    state = white_noise_spectra(grid, k)
    got = NodeReader(grid, flavor, state)(state)
    spectra = SpectralField(grid, state)
    want = {"l2": half_l2_norm_from_spectra(spectra),
            "divergence": restrict(delta(inverse_fft(spectra)), flavor).l2_norm(),
            "tangential_trace":
                tangential_trace(restrict_spectra(spectra, flavor)).l2_norm()}
    return got, want


@pytest.mark.parametrize("grid", QUADRATURE_GRIDS, ids=lambda g: f"n{g.n}")
@pytest.mark.parametrize("flavor", FLAVORS)
def test_node_reader_matches_the_field_oracles(grid, flavor):
    for k in range(grid.n + 1):
        got, want = reader_columns(grid, flavor, k)
        assert list(got) == ["l2", "divergence", "tangential_trace"]
        for column, w in want.items():
            if k == 0 and column != "l2":
                # a 0-form has no delta and no normal-bearing component
                assert got[column] == w == 0.0
            else:
                assert abs(got[column] - w) <= 1e-12 * w, (k, column)
                assert w > 0.1 * want["l2"], (k, column)


@pytest.mark.parametrize("grid", QUADRATURE_GRIDS, ids=lambda g: f"n{g.n}")
@pytest.mark.parametrize("flavor", FLAVORS)
def test_node_reader_divergence_is_delta_half_in_the_symmetry_class(grid,
                                                                    flavor):
    # spectra of an extension: then restricting delta of the torus field is
    # delta_half of the half-field (odd end rows, which extend drops, included)
    u = raw_half_field(grid, flavor, seed=8)
    for k in range(1, grid.n + 1):
        uk = HalfField(grid, flavor, {m: a for m, a in u.comps.items()
                                      if degree(m) == k})
        state = extend_spectra(uk).comps
        want = delta_half(uk).l2_norm()
        got = NodeReader(grid, flavor, state)(state)["divergence"]
        assert abs(got - want) <= 1e-12 * want, k
        assert want > 0.1 * uk.l2_norm(), k


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("k", [1, 2])
def test_node_reader_keeps_no_state_between_nodes(flavor, k):
    # one reader serves every node from the same work arrays; a column left
    # over from the previous node would differ from a fresh reader's
    grid = Grid(3, 8, 4.0)
    first, second = (white_noise_spectra(grid, k, seed) for seed in (1, 2))
    reader = NodeReader(grid, flavor, first)
    assert reader(first) == NodeReader(grid, flavor, first)(first)
    assert reader(second) == NodeReader(grid, flavor, second)(second)
    assert reader(first) == NodeReader(grid, flavor, first)(first)


def test_node_reader_refuses_other_components():
    grid = Grid(2, 16, 4.0)
    reader = NodeReader(grid, "Ht", [1, 2])
    with pytest.raises(ValueError, match="components"):
        reader(white_noise_spectra(grid, 2))
    with pytest.raises(ValueError, match="flavor"):
        NodeReader(grid, "X", [1, 2])
