"""Hodge-heat / Hodge-Stokes / Navier-slip solvers and regularity reports."""

import math

import numpy as np
import pytest

from hodgehalf.evolution import (SpaceParams, TimeGrid, _Stepper,
                                 make_a_regular, max_reg_report,
                                 solve_hodge_heat, solve_hodge_stokes,
                                 solve_navier_slip, streaming_max_reg)
from hodgehalf.fields import Grid, synthesize, TestFunctionSpec
from hodgehalf.halfspace import (HalfField, d_half, delta_half, extend,
                                 leray_halfspace, random_half_field, restrict,
                                 tangential_trace)
from hodgehalf.littlewood_paley import build_bank, default_bank
from hodgehalf.operators import frac_laplacian, laplacian
from hodgehalf.verify import momentum_residual_ratios


@pytest.fixture
def grid():
    return Grid(2, 64, 8.0)


def solenoidal_field(grid, seed):
    u = random_half_field(grid, "Ht", [0b01, 0b10], seed=seed,
                          kind="annulus_band", radii=(1.0, 2.5))
    return leray_halfspace(u)[0]


def steady_datum(forcing):
    pf, _ = leray_halfspace(forcing)
    return restrict(frac_laplacian(-2.0, extend(pf)), forcing.flavor)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 4)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    assert TimeGrid(2.0, 8).dt == 0.25


# ---------------------------------------------------------------------------
# Hodge heat
# ---------------------------------------------------------------------------

def test_heat_decoupled_boundary_conditions(grid):
    # a single normal-bearing component flows under the Dirichlet extension
    u0 = random_half_field(grid, "Ht", [0b10], seed=0, width=1.5)
    traj = solve_hodge_heat(None, u0, 1.0, 16)
    for um in traj.u:
        assert np.abs(um.boundary_row(0b10)).max() <= 1e-8 * max(um.l2_norm(), 1e-30)
    # and a scalar flows under Neumann: normal derivative vanishes
    v0 = random_half_field(grid, "Ht", [0], seed=1, width=1.5)
    traj = solve_hodge_heat(None, v0, 1.0, 16)
    for vm in traj.u:
        dv = d_half(vm)
        assert np.abs(dv.boundary_row(0b10)).max() <= 1e-8


def test_heat_single_mode_closed_form(grid):
    # constant forcing, zero start: u(t) = (1 - exp(-t |xi|^2)) f / |xi|^2
    xi0 = (np.pi / 8 * 2, np.pi / 8 * 3)
    mode = synthesize(TestFunctionSpec("single_mode", mode=xi0), grid, (0,))
    f = restrict(mode, "N").with_flavor("N")
    u0 = HalfField.zero(grid, "N", [0])
    horizon, steps = 1.0, 128
    traj = solve_hodge_heat(f, u0, horizon, steps)
    absq = xi0[0] ** 2 + xi0[1] ** 2
    # the even extension of a generic mode is not the mode itself; compare
    # against the extended forcing evolved mode by mode
    F = extend(f)
    expected_full = Fband = None
    import numpy.fft as fft
    fhat = fft.fftn(F.comps[0])
    absq_grid = grid.freq_sq()
    factor = np.zeros_like(absq_grid, dtype=complex)
    nz = absq_grid > 0
    factor[nz] = (1 - np.exp(-horizon * absq_grid[nz])) / absq_grid[nz]
    factor[~nz] = horizon
    expected = fft.ifftn(fhat * factor)
    got = extend(traj.u[-1]).comps[0]
    err = np.abs(got - expected).max() / np.abs(expected).max()
    assert err < 1e-4  # second-order in dt = 1/128


def test_heat_self_convergence_second_order(grid):
    u0 = random_half_field(grid, "Ht", [0, 0b01], seed=2,
                           kind="annulus_band", radii=(1.0, 2.5))

    def forcing(t):
        g = random_half_field(grid, "Ht", [0, 0b01], seed=3,
                              kind="annulus_band", radii=(1.0, 2.5))
        return (1.0 + 0.3 * math.sin(2.0 * t)) * g

    errors = []
    reference = solve_hodge_heat(forcing, u0, 1.0, 256).u[-1]
    for steps in (16, 32, 64):
        got = solve_hodge_heat(forcing, u0, 1.0, steps).u[-1]
        errors.append((got - reference).l2_norm())
    assert 3.6 <= errors[0] / errors[1] <= 4.4
    assert 3.6 <= errors[1] / errors[2] <= 4.4


def test_heat_snapshot_forcing_matches_callable(grid):
    u0 = random_half_field(grid, "Ht", [0], seed=4, width=1.5)
    g = random_half_field(grid, "Ht", [0], seed=5, width=1.5)
    times = TimeGrid(1.0, 16).nodes()
    snaps = [float(np.cos(t)) * g for t in times]
    traj_a = solve_hodge_heat(snaps, u0, 1.0, 16)
    traj_b = solve_hodge_heat(lambda t: float(np.cos(t)) * g, u0, 1.0, 16)
    diff = (traj_a.u[-1] - traj_b.u[-1]).l2_norm()
    # snapshot averaging vs exact midpoint differ at second order only
    assert diff <= 1e-3 * traj_b.u[-1].l2_norm()
    with pytest.raises(ValueError):
        solve_hodge_heat(snaps[:-1], u0, 1.0, 16)


def test_stepper_in_place_updates_leave_inputs_alone():
    grid = Grid(2, 32, 8.0)
    tg = TimeGrid(1.0, 8)
    # the forcing carries a mask the datum lacks: the state gets a copy of
    # the cached forcing term there, not the term itself
    u0 = random_half_field(grid, "Ht", [0b01], seed=25, kind="annulus_band",
                           radii=(1.0, 2.5))
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=26,
                          kind="annulus_band", radii=(1.0, 2.5))
    f_hat = {m: np.fft.fftn(a) for m, a in extend(f).comps.items()}
    f_kept = {m: a.copy() for m, a in f_hat.items()}
    stepper = _Stepper(u0, tg)
    assert 0b10 not in stepper.state and 0b10 in f_hat

    absq = grid.freq_sq()
    naive = {m: np.fft.fftn(a) for m, a in extend(u0).comps.items()}
    snapshots = []
    for _ in range(tg.steps):
        stepper.advance(f_hat)
        # u <- e^{dt Delta} u + dt e^{(dt/2) Delta} f_hat
        naive = {m: np.exp(-tg.dt * absq) * naive.get(m, 0.0)
                 + tg.dt * np.exp(-0.5 * tg.dt * absq) * f_hat[m]
                 for m in f_hat}
        scale = max(np.abs(a).max() for a in naive.values())
        assert set(stepper.state) == set(naive)
        for m, a in naive.items():
            assert np.abs(stepper.state[m] - a).max() <= 1e-14 * scale
        snap = stepper.spectra()
        snapshots.append((snap, {m: a.copy() for m, a in snap.items()}))
    for m, a in f_hat.items():
        assert np.array_equal(a, f_kept[m])
    for snap, kept in snapshots:
        for m, a in snap.items():
            assert np.array_equal(a, kept[m])


# ---------------------------------------------------------------------------
# Hodge-Stokes
# ---------------------------------------------------------------------------

def test_stokes_energy_decay(grid):
    u0 = solenoidal_field(grid, 6)
    traj = solve_hodge_stokes(None, u0, 1.0, 32)
    norms = [um.l2_norm() for um in traj.u]
    for a, b in zip(norms, norms[1:]):
        assert b <= a * (1 + 1e-12)


def test_stokes_gradient_forcing_is_inert(grid):
    u0 = solenoidal_field(grid, 7)
    phi = random_half_field(grid, "Ht", [0], seed=8, kind="annulus_band",
                            radii=(1.0, 2.5))
    grad = d_half(phi)
    forced = solve_hodge_stokes(grad, u0, 1.0, 32)
    free = solve_hodge_stokes(None, u0, 1.0, 32)
    diff = (forced.u[-1] - free.u[-1]).l2_norm()
    assert diff <= 1e-9 * u0.l2_norm()


def test_stokes_solution_stays_projected(grid):
    u0 = solenoidal_field(grid, 9)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=10,
                          kind="annulus_band", radii=(1.0, 2.5))
    traj = solve_hodge_stokes(f, u0, 1.0, 32)
    for um in traj.u:
        pu, _ = leray_halfspace(um)
        assert (pu - um).l2_norm() <= 1e-9 * max(um.l2_norm(), 1e-30)
        assert delta_half(um).l2_norm() <= 1e-9 * max(um.l2_norm(), 1e-30)
        assert tangential_trace(um).l2_norm() <= 1e-8 * max(um.l2_norm(), 1e-30)


def test_stokes_rejects_nonsolenoidal_start(grid):
    u0 = random_half_field(grid, "Ht", [0b01, 0b10], seed=11,
                           kind="annulus_band", radii=(1.0, 2.5))
    with pytest.raises(ValueError):
        solve_hodge_stokes(None, u0, 1.0, 8)
    traj = solve_hodge_stokes(None, u0, 1.0, 8, auto_project=True)
    pu, _ = leray_halfspace(u0)
    assert (traj.u[0] - pu).l2_norm() <= 1e-12 * u0.l2_norm()


def test_stokes_semigroup_consistency(grid):
    u0 = solenoidal_field(grid, 12)
    a = solve_hodge_stokes(None, u0, 0.5, 16)
    b = solve_hodge_stokes(None, a.u[-1], 0.5, 16)
    c = solve_hodge_stokes(None, u0, 1.0, 32)
    assert (b.u[-1] - c.u[-1]).l2_norm() <= 1e-10 * u0.l2_norm()


# ---------------------------------------------------------------------------
# Navier-slip
# ---------------------------------------------------------------------------

def test_navier_slip_pure_gradient_forcing(grid):
    phi = random_half_field(grid, "Ht", [0], seed=13, kind="annulus_band",
                            radii=(1.0, 2.5))
    grad = d_half(phi)
    u0 = HalfField.zero(grid, "Ht", [0b01, 0b10])
    traj, grad_p = solve_navier_slip(grad, u0, 1.0, 16)
    for um in traj.u:
        assert um.l2_norm() <= 1e-10 * grad.l2_norm()
    for gp in grad_p:
        assert (gp - grad).l2_norm() <= 1e-10 * grad.l2_norm()


def test_navier_slip_solenoidal_forcing_no_pressure(grid):
    u0 = solenoidal_field(grid, 14)
    f = solenoidal_field(grid, 15)
    traj, grad_p = solve_navier_slip(f, u0, 1.0, 16)
    for gp in grad_p:
        assert gp.l2_norm() <= 1e-9 * f.l2_norm()


def test_navier_slip_pressure_is_curl_free(grid):
    u0 = solenoidal_field(grid, 16)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=17,
                          kind="annulus_band", radii=(1.0, 2.5))
    traj, grad_p = solve_navier_slip(f, u0, 1.0, 16)
    for gp in grad_p:
        assert d_half(gp).l2_norm() <= 1e-9 * max(gp.l2_norm(), 1e-30)


def test_navier_slip_momentum_self_convergence(grid):
    ratios = momentum_residual_ratios(grid, seed=18, steps0=16, doublings=2)
    for r in ratios:
        assert 3.6 <= r <= 4.4


@pytest.mark.parametrize("kind", ["constant", "snapshots", "callable"])
def test_navier_slip_pressure_comes_from_the_forcing_split(grid, monkeypatch,
                                                           kind):
    # one Leray split per distinct forcing input, shared by the projected
    # forcing and grad p; the datum takes one more
    from hodgehalf import evolution

    u0 = solenoidal_field(grid, 27)
    g = random_half_field(grid, "Ht", [0b01, 0b10], seed=28,
                          kind="annulus_band", radii=(1.0, 2.5))
    steps = 8
    times = TimeGrid(1.0, steps).nodes()
    if kind == "constant":
        forcing, splits = g, 2
        node_inputs = [g] * (steps + 1)
    elif kind == "snapshots":
        forcing, splits = [float(np.cos(t)) * g for t in times], steps + 2
        node_inputs = forcing
    else:
        # split at every midpoint and every stored node
        forcing, splits = (lambda t: float(np.cos(t)) * g), 2 * steps + 2
        node_inputs = [forcing(t) for t in times]
    calls = []

    def counted(u):
        calls.append(u)
        return leray_halfspace(u)

    monkeypatch.setattr(evolution, "leray_halfspace", counted)
    traj, grad_p = solve_navier_slip(forcing, u0, 1.0, steps)
    assert len(calls) == splits
    assert len(grad_p) == steps + 1
    for gp, f_m in zip(grad_p, node_inputs):
        want = leray_halfspace(f_m)[1]
        assert gp.masks() == want.masks()
        for mask in want.masks():
            assert np.array_equal(gp.component(mask), want.component(mask))
    if kind == "constant":
        # one field at every node, as Trajectory.f holds one projected forcing
        assert all(gp is grad_p[0] for gp in grad_p)
        assert all(fm is traj.f[0] for fm in traj.f)


def test_node_forcing_is_evaluated_once_per_node(grid, monkeypatch):
    # the stored snapshot and the observer share one evaluation of a callable
    # forcing: 8 midpoints + 9 nodes + the datum = 18 Leray splits either way
    from hodgehalf import evolution

    u0 = solenoidal_field(grid, 29)
    g = random_half_field(grid, "Ht", [0b01, 0b10], seed=30,
                          kind="annulus_band", radii=(1.0, 2.5))
    calls = []

    def counted(u):
        calls.append(u)
        return leray_halfspace(u)

    monkeypatch.setattr(evolution, "leray_halfspace", counted)
    runs = []
    for observer in (None, lambda m, t, state, f_hat: None):
        calls.clear()
        runs.append(solve_navier_slip(lambda t: float(np.cos(t)) * g, u0,
                                      1.0, 8, observer=observer))
        assert len(calls) == 18
    (plain, grad_plain), (observed, grad_observed) = runs
    for a, b in zip(plain.u + plain.f + grad_plain,
                    observed.u + observed.f + grad_observed):
        assert a.masks() == b.masks()
        for mask in a.masks():
            assert np.array_equal(a.component(mask), b.component(mask))


def test_navier_slip_needs_vector_fields(grid):
    u0 = random_half_field(grid, "Ht", [0], seed=19, width=1.5)
    with pytest.raises(ValueError):
        solve_navier_slip(None, u0, 1.0, 4)


# ---------------------------------------------------------------------------
# maximal-regularity reports
# ---------------------------------------------------------------------------

def test_max_reg_zero_data_gives_zero_ratio(grid):
    bank = default_bank(grid)
    u0 = HalfField.zero(grid, "Ht", [0b01, 0b10])
    traj = solve_hodge_stokes(None, u0, 1.0, 8)
    report = max_reg_report(traj, SpaceParams(0.0, 2.0, 1.0), "hodge_stokes",
                            bank)
    assert report.ratio == 0.0
    assert report.sup_interp_norm == 0.0


def test_max_reg_refuses_incomplete_space(grid):
    bank = default_bank(grid)
    u0 = HalfField.zero(grid, "Ht", [0b01, 0b10])
    traj = solve_hodge_stokes(None, u0, 1.0, 4)
    with pytest.raises(ValueError, match="completeness"):
        max_reg_report(traj, SpaceParams(0.0, 2.0, 2.0), "hodge_stokes", bank)
        # s + 2 - 2/q = 1 = n/p with q = 2 in dimension 2: predicate fails


def test_max_reg_report_matches_streaming(grid):
    bank = default_bank(grid)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=20,
                          kind="annulus_band", radii=(1.0, 2.2))
    u0 = steady_datum(f)
    params = SpaceParams(0.0, 2.0, 1.0)
    traj = solve_hodge_stokes(f, u0, 1.0, 32, auto_project=True)
    a = max_reg_report(traj, params, "hodge_stokes", bank)
    b = streaming_max_reg("hodge_stokes", f, u0, 1.0, 32, params, bank)
    assert abs(a.ratio - b.ratio) <= 1e-12 * max(a.ratio, 1e-30)
    assert abs(a.sup_interp_norm - b.sup_interp_norm) <= 1e-12 * a.sup_interp_norm


def test_max_reg_ratio_uniform_in_horizon(grid):
    bank = default_bank(grid)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=21,
                          kind="annulus_band", radii=(1.0, 1.4))
    w = solenoidal_field(grid, 22)
    u0 = steady_datum(f) + 0.05 * w
    params = SpaceParams(0.0, 2.0, 1.0)
    ratios = []
    for horizon in (1.0, 10.0, 100.0):
        rep = streaming_max_reg("hodge_stokes", f, u0, horizon, 256, params,
                                bank)
        ratios.append(rep.ratio)
    assert max(ratios) / min(ratios) < 1.1
    assert all(np.isfinite(r) and r > 0 for r in ratios)


def test_max_reg_q_infinity_needs_regular_datum(grid):
    bank = default_bank(grid)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=23,
                          kind="annulus_band", radii=(1.0, 2.2))
    u0 = steady_datum(f)
    # s + 2 - 2/q = 0.5 < n/p keeps the completeness gate open at q = inf
    params = SpaceParams(-1.5, 2.0, math.inf)
    with pytest.raises(ValueError, match="regular"):
        streaming_max_reg("hodge_stokes", f, u0, 1.0, 8, params, bank)
    regular = make_a_regular(u0)
    rep = streaming_max_reg("hodge_stokes", f, regular, 1.0, 8, params, bank,
                            a_regular_checked=True)
    assert np.isfinite(rep.ratio)


def test_max_reg_refuses_data_outside_the_bank_window(grid):
    # |xi| in [5, 9] lies wholly outside the window [0, 1]: leakage 1.0
    bank = build_bank(grid, 0, 1)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=27,
                          kind="annulus_band", radii=(5.0, 9.0))
    u0 = steady_datum(f)
    zero = HalfField.zero(grid, "Ht", [0b01, 0b10])
    params = SpaceParams(0.0, 2.0, 1.0)
    for forcing, datum in ((f, u0), (f, zero), (None, u0)):
        with pytest.raises(ValueError, match="escapes the bank window"):
            streaming_max_reg("hodge_stokes", forcing, datum, 1.0, 16, params,
                              bank)
        traj = solve_hodge_stokes(forcing, datum, 1.0, 4, auto_project=True)
        with pytest.raises(ValueError, match="escapes the bank window"):
            max_reg_report(traj, params, "hodge_stokes", bank)


def test_max_reg_report_row_shape(grid):
    bank = default_bank(grid)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=24,
                          kind="annulus_band", radii=(1.0, 2.2))
    u0 = steady_datum(f)
    rep = streaming_max_reg("hodge_stokes", f, u0, 1.0, 8,
                            SpaceParams(0.0, 2.0, 1.0), bank)
    row = rep.row()
    for key in ("system", "s", "p", "q", "T", "lhs_sup", "lhs_lq", "rhs_f",
                "rhs_u0", "ratio"):
        assert key in row
    assert row["ratio"] > 0


# ---------------------------------------------------------------------------
# closed-form p = 2 reports
# ---------------------------------------------------------------------------

REPORT_FIELDS = ("sup_interp_norm", "lq_evolution_norm", "rhs_forcing_norm",
                 "rhs_initial_norm", "ratio")


def _closed_form_cases(grid):
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=30,
                          kind="annulus_band", radii=(1.0, 2.2))
    steady = steady_datum(f)
    p2 = SpaceParams(0.0, 2.0, 1.0)
    cases = {f"stokes-{name}": ("hodge_stokes", f, datum, p2, False)
             for name, datum in (("steady", steady), ("zero", 0.0 * steady),
                                 ("anti_steady", -1.0 * steady),
                                 ("twice_steady", 2.0 * steady))}
    cases["stokes-no_forcing"] = ("hodge_stokes", None, steady, p2, False)
    cases["stokes-q1.5"] = ("hodge_stokes", f, steady,
                            SpaceParams(0.0, 2.0, 1.5), False)
    cases["stokes-q_inf"] = ("hodge_stokes", f, make_a_regular(steady),
                             SpaceParams(-1.5, 2.0, math.inf), True)
    cases["stokes-inhomogeneous"] = ("hodge_stokes", f, steady,
                                     SpaceParams(0.0, 2.0, 1.0,
                                                 homogeneous=False), False)
    for flavor in ("D", "N", "Ht", "Hn"):
        g = random_half_field(grid, flavor, [0, 0b01, 0b10, 0b11], seed=31,
                              kind="annulus_band", radii=(1.0, 2.2))
        datum = restrict(frac_laplacian(-2.0, extend(g)), flavor)
        cases[f"heat-{flavor}"] = ("hodge_heat", g, datum, p2, False)
    # a mean on the zero shell, lam = 0, which only inhomogeneous norms admit
    g = random_half_field(grid, "N", [0], seed=35, kind="annulus_band",
                          radii=(1.0, 2.2))
    with_mean = HalfField(grid, "N", {0: g.comps[0] + 0.3})
    cases["heat-N-mean-inhomogeneous"] = (
        "hodge_heat", with_mean, 2.0 * with_mean,
        SpaceParams(0.0, 2.0, 1.0, homogeneous=False), False)
    # the forcing carries a mask the datum lacks
    u0 = random_half_field(grid, "Ht", [0b01], seed=32, kind="annulus_band",
                           radii=(1.0, 2.2))
    cases["heat-forcing_mask_absent_from_u0"] = ("hodge_heat", f, u0, p2, False)
    return cases


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("horizon", [1.0, 100.0])
def test_closed_form_report_matches_the_stepped_trajectory(grid, monkeypatch,
                                                           horizon):
    from hodgehalf import evolution

    bank = default_bank(grid)
    steps = 32
    for name, (system, f, u0, params, regular) in _closed_form_cases(grid).items():
        if system == "hodge_heat":
            traj = solve_hodge_heat(f, u0, horizon, steps)
        else:
            traj = solve_hodge_stokes(f, u0, horizon, steps, auto_project=True)
        stepped = max_reg_report(traj, params, system, bank,
                                 a_regular_checked=regular)
        with monkeypatch.context() as patch:
            # the closed form takes no step
            patch.setattr(evolution, "_Stepper", None)
            closed = streaming_max_reg(system, f, u0, horizon, steps, params,
                                       bank, a_regular_checked=regular)
        for key in REPORT_FIELDS:
            want, got = getattr(stepped, key), getattr(closed, key)
            assert abs(got - want) <= 1e-12 * abs(want), (name, key, got, want)
        if name == "stokes-zero":
            assert closed.rhs_initial_norm == 0.0
        elif name != "stokes-no_forcing":
            assert closed.rhs_forcing_norm > 0.0 and closed.ratio > 0.0


def test_max_reg_time_quadrature_is_the_trapezoid_rule(grid):
    # the weights of a constant integrand sum to T: half-weight end nodes
    from hodgehalf.littlewood_paley import besov_norm

    bank = default_bank(grid)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=36,
                          kind="annulus_band", radii=(1.0, 2.2))
    u0 = steady_datum(f)
    for params in (SpaceParams(0.0, 2.0, 1.0), SpaceParams(-0.5, 2.0, 2.0)):
        norm = besov_norm(params, extend(leray_halfspace(f)[0]), bank)
        for stepped in (False, True):
            horizon = 10.0
            if stepped:
                traj = solve_hodge_stokes(f, u0, horizon, 8, auto_project=True)
                rep = max_reg_report(traj, params, "hodge_stokes", bank)
            else:
                rep = streaming_max_reg("hodge_stokes", f, u0, horizon, 8,
                                        params, bank)
            want = horizon ** (1.0 / params.q) * norm
            assert abs(rep.rhs_forcing_norm - want) <= 1e-12 * want


def test_closed_form_time_derivative_against_long_double():
    # steady datum at T = 1: du/dt = c f with c ~ 1e-6 is all that is left,
    # the hard case for both float64 routes; the reference runs the stepper's
    # recurrence in long double from the same float64 spectra
    from hodgehalf.evolution import (_closed_form_rows, _projected_datum,
                                     _shell_grams, _spectra_of)

    grid = Grid(2, 64, 8.0)
    bank = default_bank(grid)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=33,
                          kind="annulus_band", radii=(1.0, 2.2))
    pf = leray_halfspace(f)[0]
    u0 = _projected_datum(steady_datum(f), auto_project=True)
    tg = TimeGrid(1.0, 256)
    u_hat, f_hat = _spectra_of(u0), _spectra_of(pf)
    closed = np.concatenate([e_dt for _, _, e_dt in _closed_form_rows(
        bank, tg, _shell_grams(bank, u_hat, f_hat))])

    absq = grid.freq_sq()
    stepped = []
    solve_hodge_heat(pf, u0, 1.0, tg.steps, store=False,
                     observer=lambda m, t, state, fh: stepped.append(
                         bank.shell_energy(-absq * state[k] + fh[k]
                                           for k in state)))
    lam = absq.astype(np.longdouble)
    dt = np.longdouble(tg.horizon) / tg.steps
    full, half = np.exp(-dt * lam), dt * np.exp(-0.5 * dt * lam)
    u = {k: a.astype(np.clongdouble) for k, a in u_hat.items()}
    g = {k: a.astype(np.clongdouble) for k, a in f_hat.items()}
    reference = []
    for _ in range(tg.steps + 1):
        density = sum(np.abs(-lam * u[k] + g[k]) ** 2 for k in u)
        reference.append(bank.shell_sum(density.astype(float)))
        u = {k: full * u[k] + half * g[k] for k in u}
    reference = np.array(reference)

    def error(rows):
        # node 0's du/dt is the round-off of the datum's steadiness, which no
        # float64 route resolves; from node 1 on it is c f
        diff = np.abs(rows - reference)[1:].sum(axis=1)
        return float((diff / reference[1:].sum(axis=1)).max())

    assert error(closed) <= 2.0 * error(np.array(stepped))
    assert error(closed) < 1e-7


def test_closed_form_fft_count_does_not_grow_with_steps(grid, monkeypatch):
    # neither the transforms nor the lattice-to-shell reductions (one
    # np.bincount each; two per node when stepping) depend on the node count
    bank = default_bank(grid)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=34,
                          kind="annulus_band", radii=(1.0, 2.2))
    u0 = steady_datum(f)
    counts = []
    count = {}
    for module, name in ((np.fft, "fftn"), (np.fft, "ifftn"), (np, "bincount")):
        orig = getattr(module, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            count[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    for steps in (8, 256):
        count.update(fftn=0, ifftn=0, bincount=0)
        streaming_max_reg("hodge_stokes", f, u0, 10.0, steps,
                          SpaceParams(0.0, 2.0, 1.0), bank)
        counts.append(dict(count))
    assert counts[0] == counts[1]
    assert counts[0]["fftn"] > 0 and counts[0]["bincount"] == 5
