"""Hodge-heat / Hodge-Stokes / Navier-slip solvers and regularity reports."""

import math

import numpy as np
import pytest

import mutants
from hodgehalf.evolution import (SpaceParams, TimeGrid, _Stepper,
                                 make_a_regular, max_reg_report, max_reg_sweep,
                                 refusal, solve_hodge_heat, solve_hodge_stokes,
                                 solve_navier_slip, steady_sweep_spectra,
                                 streaming_max_reg, sweep_spectra)
from hodgehalf.fields import Grid, SpectralField, random_form
from hodgehalf.halfspace import (HalfField, d_half, delta_half, extend,
                                 extend_spectra, leray_halfspace,
                                 leray_halfspace_hat, random_half_field,
                                 restrict, restrict_spectra, tangential_trace)
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
    for horizon in (math.nan, math.inf):
        with pytest.raises(ValueError, match="final time must be finite"):
            TimeGrid(horizon, 4)
    assert TimeGrid(2.0, 8).dt == 0.25


# ---------------------------------------------------------------------------
# Hodge heat
# ---------------------------------------------------------------------------

def test_heat_decoupled_boundary_conditions(grid):
    # a single normal-bearing component flows under the Dirichlet extension
    u0 = random_half_field(grid, "Ht", [0b10], seed=0, width=1.5)
    traj = solve_hodge_heat(None, u0, 1.0, 16)
    for um in traj.u:
        assert np.abs(um.comps[0b10][..., 0]).max() <= 1e-8 * max(um.l2_norm(), 1e-30)
    # and a scalar flows under Neumann: normal derivative vanishes
    v0 = random_half_field(grid, "Ht", [0], seed=1, width=1.5)
    traj = solve_hodge_heat(None, v0, 1.0, 16)
    for vm in traj.u:
        dv = d_half(vm)
        assert np.abs(dv.comps[0b10][..., 0]).max() <= 1e-8


def test_heat_single_mode_closed_form(grid):
    # constant forcing, zero start: u(t) = (1 - exp(-t |xi|^2)) f / |xi|^2
    xi0 = (np.pi / 8 * 2, np.pi / 8 * 3)
    mode = random_form(grid, [0], kind="single_mode", mode=xi0)
    f = restrict(mode, "N")
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
    stepper = _Stepper(extend_spectra(u0), tg)
    assert 0b10 not in stepper.state and 0b10 in f_hat

    absq = grid.freq_sq()
    naive = {m: np.fft.fftn(a) for m, a in extend(u0).comps.items()}
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
    for m, a in f_hat.items():
        assert np.array_equal(a, f_kept[m])


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


def test_projected_datum_checks_only_when_not_auto_projecting(grid, monkeypatch):
    from hodgehalf.evolution import _projected_datum

    u0 = random_half_field(grid, "Ht", [0b01, 0b10], seed=12,
                           kind="annulus_band", radii=(1.0, 2.5))
    with pytest.raises(ValueError, match="not solenoidal"):
        solve_navier_slip(None, u0, 1.0, 4)
    with pytest.raises(ValueError, match="not solenoidal"):
        _projected_datum(u0, auto_project=False)
    pu0 = restrict_spectra(
        _projected_datum(leray_halfspace(u0)[0], auto_project=False), "Ht")
    norms = []
    real = HalfField.l2_norm
    monkeypatch.setattr(HalfField, "l2_norm",
                        lambda self: norms.append(self) or real(self))
    got = restrict_spectra(_projected_datum(u0, auto_project=True), "Ht")
    assert norms == []
    assert (got - leray_halfspace(u0)[0]).l2_norm() == 0.0
    assert (got - pu0).l2_norm() <= 1e-12 * u0.l2_norm()


@pytest.mark.parametrize("eps, accepted", [(1e-10, True), (1e-8, False)])
def test_projected_datum_guard_sits_at_1e_9(grid, eps, accepted):
    # the datum P u0 + eps G u0 with both parts of unit norm: the projector
    # moves it by eps relative, on either side of the 1e-9 guard
    u0 = random_half_field(grid, "Ht", [0b01, 0b10], seed=12,
                           kind="annulus_band", radii=(1.0, 2.5))
    pu, gu = leray_halfspace(u0)
    datum = (1.0 / pu.l2_norm()) * pu + (eps / gu.l2_norm()) * gu
    for solve in (solve_hodge_stokes, lambda *a: solve_navier_slip(*a)[0]):
        if not accepted:
            with pytest.raises(ValueError, match="not solenoidal"):
                solve(None, datum, 1.0, 4)
            continue
        traj = solve(None, datum, 1.0, 4)
        want = leray_halfspace(datum)[0]
        for mask in want.masks():
            assert np.array_equal(traj.u[0].component(mask), want.component(mask))
        assert (traj.u[0] - (1.0 / pu.l2_norm()) * pu).l2_norm() <= 1e-14


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


def test_navier_slip_observed_returns_only_the_gradients(grid):
    # with an observer the solve returns no trajectory, yet grad p at every
    # node; the observer sees the states the stored trajectory keeps
    u0 = solenoidal_field(grid, 16)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=17,
                          kind="annulus_band", radii=(1.0, 2.5))
    for forcing in (f, lambda t: float(np.cos(t)) * f):  # constant, callable
        full, grad_full = solve_navier_slip(forcing, u0, 1.0, 8)
        seen = []
        traj, grad_seen = solve_navier_slip(
            forcing, u0, 1.0, 8,
            observer=lambda m, t, state: seen.append(restrict_spectra(
                SpectralField(grid, state), "Ht")))
        assert traj is None and len(full.u) == len(seen) == 9
        assert len(grad_seen) == 9
        for a, b in zip(seen + grad_seen, full.u + grad_full):
            assert a.masks() == b.masks()
            for mask in a.masks():
                assert np.array_equal(a.component(mask), b.component(mask))


@pytest.mark.parametrize("system", ["hodge_heat", "hodge_stokes",
                                    "navier_slip"])
@pytest.mark.parametrize("kind", ["constant", "callable"])
def test_observed_solve_builds_only_the_gradients(grid, monkeypatch, system,
                                                  kind):
    # an observed solve restricts no node field: only navier_slip goes back
    # to physical space, once per distinct node input (for grad p)
    from hodgehalf import evolution

    u0 = solenoidal_field(grid, 31)
    g = random_half_field(grid, "Ht", [0b01, 0b10], seed=32,
                          kind="annulus_band", radii=(1.0, 2.5))
    forcing = g if kind == "constant" else (lambda t: float(np.cos(t)) * g)
    calls = []
    real = evolution.restrict_spectra
    monkeypatch.setattr(evolution, "restrict_spectra",
                        lambda *args: calls.append(None) or real(*args))
    nodes = []

    def observer(m, t, state):
        nodes.append(m)

    if system == "hodge_heat":
        assert solve_hodge_heat(forcing, u0, 1.0, 8, observer=observer) is None
    elif system == "hodge_stokes":
        assert solve_hodge_stokes(forcing, u0, 1.0, 8,
                                  observer=observer) is None
    else:
        traj, grad_p = solve_navier_slip(forcing, u0, 1.0, 8,
                                         observer=observer)
        assert traj is None and len(grad_p) == 9
    assert nodes == list(range(9))
    want = 0 if system != "navier_slip" else 1 if kind == "constant" else 9
    assert len(calls) == want


def test_navier_slip_momentum_self_convergence(grid):
    ratios = momentum_residual_ratios(grid, seed=18, steps0=16, doublings=2)
    for r in ratios:
        assert 3.6 <= r <= 4.4


@pytest.mark.parametrize("kind", ["constant", "callable"])
def test_navier_slip_pressure_comes_from_the_forcing_split(grid, monkeypatch,
                                                           kind):
    # one Leray split in spectra per distinct forcing input, shared by the
    # projected forcing and grad p; the datum takes one more.  The parts a
    # caller receives are those of the physical split, bit for bit
    from hodgehalf import evolution

    u0 = solenoidal_field(grid, 27)
    g = random_half_field(grid, "Ht", [0b01, 0b10], seed=28,
                          kind="annulus_band", radii=(1.0, 2.5))
    steps = 8
    times = TimeGrid(1.0, steps).nodes()
    if kind == "constant":
        forcing, splits = g, 2
        node_inputs = [g] * (steps + 1)
    else:
        # split at every midpoint and every stored node
        forcing, splits = (lambda t: float(np.cos(t)) * g), 2 * steps + 2
        node_inputs = [forcing(t) for t in times]
    calls = []

    def counted(u):
        calls.append(u)
        return leray_halfspace_hat(u)

    monkeypatch.setattr(evolution, "leray_halfspace_hat", counted)
    traj, grad_p = solve_navier_slip(forcing, u0, 1.0, steps)
    assert len(calls) == splits
    assert len(grad_p) == steps + 1
    for gp, fm, f_m in zip(grad_p, traj.f, node_inputs):
        for got, want in zip((fm, gp), leray_halfspace(f_m)):
            assert got.masks() == want.masks()
            for mask in want.masks():
                assert np.array_equal(got.component(mask),
                                      want.component(mask))
    if kind == "constant":
        # one field at every node, as Trajectory.f holds one projected forcing
        assert all(gp is grad_p[0] for gp in grad_p)
        assert all(fm is traj.f[0] for fm in traj.f)


def test_node_forcing_is_evaluated_once_per_node(grid, monkeypatch):
    # a callable forcing is split once per midpoint and, where the solve
    # keeps it, once per node: the datum + 8 midpoints + 9 nodes = 18 Leray
    # splits for a stored Stokes solve and for navier_slip, whose grad p
    # keeps every node with or without an observer; an observed Stokes
    # solve keeps no node input and makes the datum + 8 midpoints = 9
    from hodgehalf import evolution

    u0 = solenoidal_field(grid, 29)
    g = random_half_field(grid, "Ht", [0b01, 0b10], seed=30,
                          kind="annulus_band", radii=(1.0, 2.5))
    calls = []

    def counted(u):
        calls.append(u)
        return leray_halfspace_hat(u)

    monkeypatch.setattr(evolution, "leray_halfspace_hat", counted)
    forcing = lambda t: float(np.cos(t)) * g  # noqa: E731
    for solve, observed, splits in ((solve_hodge_stokes, False, 18),
                                    (solve_hodge_stokes, True, 9),
                                    (solve_navier_slip, False, 18),
                                    (solve_navier_slip, True, 18)):
        calls.clear()
        observer = (lambda m, t, state: None) if observed else None
        solve(forcing, u0, 1.0, 8, observer=observer)
        assert len(calls) == splits, (solve.__name__, observed)


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


def test_max_reg_refuses_q_infinity(grid):
    # reports measure q < inf only: every entry point refuses q = inf, even
    # on an operator-regular datum, before it reads a spectrum
    bank = default_bank(grid)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=23,
                          kind="annulus_band", radii=(1.0, 2.2))
    u0 = make_a_regular(steady_datum(f))
    # s + 2 - 2/q = 0.5 < n/p keeps the completeness gate open at q = inf
    params = SpaceParams(-1.5, 2.0, math.inf)
    assert refusal(params, grid.n).startswith("q = inf")
    match = r"^refusing the report: q = inf"
    with pytest.raises(ValueError, match=match):
        streaming_max_reg("hodge_stokes", f, u0, 1.0, 8, params, bank)
    with pytest.raises(ValueError, match=match):
        max_reg_sweep("hodge_stokes", *sweep_spectra("hodge_stokes", f, u0),
                      [1.0], 8, [params], bank)
    traj = solve_hodge_stokes(f, u0, 1.0, 8, auto_project=True)
    with pytest.raises(ValueError, match=match):
        max_reg_report(traj, params, "hodge_stokes", bank)


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


def test_max_reg_guards_the_datum_under_an_in_window_forcing(grid):
    # the closed form guards the forcing, then the datum, on all shells:
    # mass of the datum beyond the window is refused although no shell the
    # band sums read carries it
    bank = build_bank(grid, 0, 1)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=28,
                          kind="annulus_band", radii=(1.0, 1.3))
    far = random_half_field(grid, "Ht", [0b01, 0b10], seed=29,
                            kind="annulus_band", radii=(5.0, 9.0))
    u0 = steady_datum(f) + 1e-3 * leray_halfspace(far)[0]
    params = SpaceParams(0.0, 2.0, 1.0)
    assert streaming_max_reg("hodge_stokes", f, steady_datum(f), 1.0, 16,
                             params, bank).ratio > 0
    with pytest.raises(ValueError, match="escapes the bank window"):
        streaming_max_reg("hodge_stokes", f, u0, 1.0, 16, params, bank)
    # the stepped node path of the oracle
    traj = solve_hodge_stokes(f, u0, 1.0, 16, auto_project=True)
    with pytest.raises(ValueError, match="escapes the bank window"):
        max_reg_report(traj, params, "hodge_stokes", bank)


def test_p2_max_reg_builds_no_lattice_table(grid):
    # the p = 2 paths read shell tables only; p != 2 builds the lattice
    # tables on first use, once per bank
    bank = default_bank(grid)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=30,
                          kind="annulus_band", radii=(1.0, 2.2))
    u0 = steady_datum(f)
    p2 = SpaceParams(0.0, 2.0, 1.0)
    for forcing in (f, None):  # closed form
        spectra = sweep_spectra("hodge_stokes", forcing, u0)
        max_reg_sweep("hodge_stokes", *spectra, [1.0, 4.0], 8, [p2], bank)
        assert not {"abs_freq", "psi", "low", "phi_unit"} & vars(bank).keys()
    # stepped nodes, from the oracle
    max_reg_report(solve_hodge_stokes(f, u0, 1.0, 8, auto_project=True), p2,
                   "hodge_stokes", bank)
    assert not {"abs_freq", "psi", "low", "phi_unit"} & vars(bank).keys()
    spectra = sweep_spectra("hodge_stokes", f, u0)
    max_reg_sweep("hodge_stokes", *spectra, [1.0], 2,
                  [SpaceParams(0.0, 3.0, 1.0)], bank)
    assert {"abs_freq", "psi"} <= vars(bank).keys()
    psi = bank.psi
    max_reg_sweep("hodge_stokes", *spectra, [1.0], 2,
                  [SpaceParams(0.0, 3.0, 1.0)], bank)
    assert bank.psi is psi


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
    cases = {f"stokes-{name}": ("hodge_stokes", f, datum, p2)
             for name, datum in (("steady", steady), ("zero", 0.0 * steady),
                                 ("anti_steady", -1.0 * steady),
                                 ("twice_steady", 2.0 * steady))}
    cases["stokes-no_forcing"] = ("hodge_stokes", None, steady, p2)
    cases["stokes-q1.5"] = ("hodge_stokes", f, steady,
                            SpaceParams(0.0, 2.0, 1.5))
    cases["stokes-inhomogeneous"] = ("hodge_stokes", f, steady,
                                     SpaceParams(0.0, 2.0, 1.0,
                                                 homogeneous=False))
    for flavor in ("D", "N", "Ht", "Hn"):
        g = random_half_field(grid, flavor, [0, 0b01, 0b10, 0b11], seed=31,
                              kind="annulus_band", radii=(1.0, 2.2))
        datum = restrict(frac_laplacian(-2.0, extend(g)), flavor)
        cases[f"heat-{flavor}"] = ("hodge_heat", g, datum, p2)
    # a mean on the zero shell, lam = 0, which only inhomogeneous norms admit
    g = random_half_field(grid, "N", [0], seed=35, kind="annulus_band",
                          radii=(1.0, 2.2))
    with_mean = HalfField(grid, "N", {0: g.comps[0] + 0.3})
    cases["heat-N-mean-inhomogeneous"] = (
        "hodge_heat", with_mean, 2.0 * with_mean,
        SpaceParams(0.0, 2.0, 1.0, homogeneous=False))
    # the forcing carries a mask the datum lacks
    u0 = random_half_field(grid, "Ht", [0b01], seed=32, kind="annulus_band",
                           radii=(1.0, 2.2))
    cases["heat-forcing_mask_absent_from_u0"] = ("hodge_heat", f, u0, p2)
    return cases


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("horizon", [1.0, 100.0])
def test_closed_form_report_matches_the_stepped_trajectory(grid, horizon):
    from hodgehalf import evolution

    bank = default_bank(grid)
    steps = 32
    for name, case in _closed_form_cases(grid).items():
        system, f, u0, params = case
        stepped = _stepped_report(case, bank, horizon, steps)
        with pytest.MonkeyPatch.context() as patch:
            # the closed form takes no step
            patch.setattr(evolution, "_Stepper", None)
            closed = streaming_max_reg(system, f, u0, horizon, steps, params,
                                       bank)
        for key in REPORT_FIELDS:
            want, got = getattr(stepped, key), getattr(closed, key)
            assert abs(got - want) <= 1e-12 * abs(want), (name, key, got, want)
        if name == "stokes-zero":
            assert closed.rhs_initial_norm == 0.0
        elif name != "stokes-no_forcing":
            assert closed.rhs_forcing_norm > 0.0 and closed.ratio > 0.0


def _stepped_report(case, bank, horizon, steps):
    """max_reg_report of a _closed_form_cases case on its stored trajectory."""
    system, f, u0, params = case
    if system == "hodge_heat":
        traj = solve_hodge_heat(f, u0, horizon, steps)
    else:
        traj = solve_hodge_stokes(f, u0, horizon, steps, auto_project=True)
    return max_reg_report(traj, params, system, bank)


@pytest.fixture(scope="module")
def stepped_reports():
    """(bank, cases, stepped): the _closed_form_cases on the ``grid``
    fixture's grid and their stepped reports at T = 1 and 100, 32 steps."""
    grid = Grid(2, 64, 8.0)
    bank = default_bank(grid)
    cases = _closed_form_cases(grid)
    stepped = {(name, horizon): _stepped_report(case, bank, horizon, 32)
               for name, case in cases.items() for horizon in (1.0, 100.0)}
    return bank, cases, stepped


@pytest.mark.parametrize("row", ["dt_cross_sign", "u_cross_factor", "flat_t2",
                                 "weight_row"])
def test_closed_form_catches_a_mutant(stepped_reports, row):
    # each piece of the closed form's block table shows: on some case and
    # horizon the mutated closed form misses the stepped report by more than
    # the 1e-12 of test_closed_form_report_matches_the_stepped_trajectory
    # (the zero shell's t^2 G_ff only once the mean's growth sets the sup)
    bank, cases, stepped = stepped_reports
    missed = []
    with mutants.applied(mutants.ROWS[row]):
        for name, horizon in stepped:
            system, f, u0, params = cases[name]
            closed = streaming_max_reg(system, f, u0, horizon, 32, params,
                                       bank)
            want = stepped[name, horizon]
            missed += [(name, horizon, key) for key in REPORT_FIELDS
                       if abs(getattr(closed, key) - getattr(want, key))
                       > 1e-12 * abs(getattr(want, key))]
    assert missed


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
    # recurrence in long double from the same float64 spectra.  The closed
    # form's rows are summed shell by shell from the coefficients and the
    # monomials that its block table contracts
    from hodgehalf.evolution import _closed_form, _monomials, _shell_grams

    grid = Grid(2, 64, 8.0)
    bank = default_bank(grid)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=33,
                          kind="annulus_band", radii=(1.0, 2.2))
    pf = leray_halfspace(f)[0]
    u0 = leray_halfspace(steady_datum(f))[0]
    tg = TimeGrid(1.0, 256)
    u_hat, f_hat = extend_spectra(u0).comps, extend_spectra(pf).comps
    lam = bank.window_absq
    form = _closed_form(lam, tg.dt, _shell_grams(bank, u_hat, f_hat).on(
        bank.window_shells))
    monomials = _monomials(tg.nodes()[:, None], lam)[:, :-2].reshape(
        -1, 3, lam.size)
    closed = np.einsum("ks,mks->ms", form.dt, monomials)

    absq = grid.freq_sq()
    stepped = []
    solve_hodge_heat(pf, u0, 1.0, tg.steps,
                     observer=lambda m, t, state: stepped.append(
                         bank.shell_energy(-absq * state[k] + f_hat[k]
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
    # the closed form evaluates only the window's shells
    reference = np.array(reference)[:, bank.window_shells]
    stepped = np.array(stepped)[:, bank.window_shells]

    def error(rows):
        # node 0's du/dt is the round-off of the datum's steadiness, which no
        # float64 route resolves; from node 1 on it is c f
        diff = np.abs(rows - reference)[1:].sum(axis=1)
        return float((diff / reference[1:].sum(axis=1)).max())

    assert error(closed) <= 2.0 * error(stepped)
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


# ---------------------------------------------------------------------------
# horizon sweeps
# ---------------------------------------------------------------------------

def _stored_trajectory(system, f, u0, horizon, steps):
    if system == "hodge_heat":
        return solve_hodge_heat(f, u0, horizon, steps)
    if system == "hodge_stokes":
        return solve_hodge_stokes(f, u0, horizon, steps, auto_project=True)
    return solve_navier_slip(f, u0, horizon, steps, auto_project=True)[0]


@pytest.mark.parametrize("system, params, steps", [
    ("hodge_heat", SpaceParams(0.0, 2.0, 1.0), 32),
    ("hodge_stokes", SpaceParams(0.0, 2.0, 1.0), 32),
    ("navier_slip", SpaceParams(-0.5, 2.0, 2.0), 32),
    ("hodge_stokes", SpaceParams(0.0, 3.0, 1.0), 4),  # p != 2: stepped
])
def test_max_reg_sweep_matches_per_horizon_reports(grid, system, params,
                                                   steps):
    bank = default_bank(grid)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=40,
                          kind="annulus_band", radii=(1.0, 2.2))
    # off equilibrium, so du/dt carries the datum's decay as well
    u0 = steady_datum(f) + 0.1 * solenoidal_field(grid, 41)
    horizons = [1.0, 4.0, 16.0]
    swept = max_reg_sweep(system, *sweep_spectra(system, f, u0), horizons,
                          steps, [params], bank)
    assert [rep.horizon for rep in swept] == horizons
    for horizon, rep in zip(horizons, swept):
        one = streaming_max_reg(system, f, u0, horizon, steps, params, bank)
        assert rep == one
        oracle = max_reg_report(_stored_trajectory(system, f, u0, horizon,
                                                   steps), params, system, bank)
        assert rep.system == oracle.system and rep.horizon == oracle.horizon
        for key in REPORT_FIELDS:
            want, got = getattr(oracle, key), getattr(rep, key)
            assert want > 0.0
            assert abs(got - want) <= 1e-12 * want, (horizon, key, got, want)


def test_stepped_sweep_forms_no_node_field(monkeypatch):
    # a p != 2 sweep reads every node from the stepper's spectra: no state or
    # forcing goes back to a half-field
    from hodgehalf import evolution

    grid = Grid(2, 32, 8.0)
    bank = default_bank(grid)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=45,
                          kind="annulus_band", radii=(1.0, 2.2))
    spectra = sweep_spectra("hodge_stokes", f, steady_datum(f))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return restrict_spectra(*args, **kwargs)

    monkeypatch.setattr(evolution, "restrict_spectra", counted)
    reports = max_reg_sweep("hodge_stokes", *spectra, [1.0, 4.0], 4,
                            [SpaceParams(0.0, 3.0, 1.0)], bank)
    assert [rep.horizon for rep in reports] == [1.0, 4.0]
    assert all(rep.ratio > 0.0 for rep in reports)
    assert calls == []


def test_sweep_measures_its_forcing_once(monkeypatch):
    # block norms depend on the layout (p, homogeneous) alone: the forcing's
    # blocks are measured once per layout and sweep, whatever the number of
    # sets and horizons; a stepped node measures u, its Hessian and du/dt
    # once per p != 2 layout, and the closed form measures no node through
    # block_norms
    from hodgehalf import evolution
    from hodgehalf.littlewood_paley import block_norms

    grid = Grid(2, 32, 8.0)
    bank = default_bank(grid)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=46,
                          kind="annulus_band", radii=(1.0, 2.2))
    spectra = sweep_spectra("hodge_stokes", f, steady_datum(f))
    forcing = list(spectra[1].comps.values())
    calls = []

    def counted(params, comps, bank, energy=None):
        comps = list(comps)
        calls.append(len(comps) == len(forcing)
                     and all(a is b for a, b in zip(comps, forcing)))
        return block_norms(params, comps, bank, energy)

    monkeypatch.setattr(evolution, "block_norms", counted)
    steps = 4
    p3 = [SpaceParams(s, 3.0, 1.0) for s in (0.0, 0.25, 0.5)]
    inhomogeneous = SpaceParams(0.0, 3.0, 1.0, homogeneous=False)
    p15 = SpaceParams(0.0, 1.5, 1.0)
    p2 = [SpaceParams(0.0, 2.0, 1.0), SpaceParams(-0.5, 2.0, 2.0)]
    # (sets, layouts, stepped layouts)
    for sets, layouts, stepped in (([p3[0]], 1, 1), (p2[:1], 1, 0),
                                   (p3, 1, 1), (p2, 1, 0),
                                   (p3 + [inhomogeneous, p15], 3, 3),
                                   (p2 + p3 + [p15], 3, 2)):
        for horizons in ([1.0], [1.0, 4.0, 16.0]):
            calls.clear()
            reports = max_reg_sweep("hodge_stokes", *spectra, horizons, steps,
                                    sets, bank)
            assert len(reports) == len(sets) * len(horizons)
            assert calls.count(True) == layouts
            assert len(calls) == layouts + 3 * stepped * (steps + 1) * len(
                horizons)


def test_sweep_takes_each_input_energy_once(monkeypatch):
    # the datum and the forcing are guarded on their shell energies, taken
    # once per sweep whatever the sets and horizons: directly at p != 2, as
    # the Gram sums G_uu and G_ff (with G_rr the third) when a set has p = 2
    from hodgehalf.littlewood_paley import FilterBank

    grid = Grid(2, 32, 8.0)
    bank = default_bank(grid)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=47,
                          kind="annulus_band", radii=(1.0, 2.2))
    spectra = sweep_spectra("hodge_stokes", f, steady_datum(f))
    calls = []
    real = FilterBank.shell_energy

    def counted(self, comps):
        calls.append(1)
        return real(self, comps)

    monkeypatch.setattr(FilterBank, "shell_energy", counted)
    p3 = SpaceParams(0.0, 3.0, 1.0)
    p2 = SpaceParams(0.0, 2.0, 1.0)
    more = [SpaceParams(0.0, 3.0, 1.0, homogeneous=False),
            SpaceParams(0.0, 1.5, 1.0)]
    for sets, energies in (([p3], 2), ([p3] + more, 2), ([p2], 3),
                           ([p2, p3] + more, 3)):
        calls.clear()
        max_reg_sweep("hodge_stokes", *spectra, [1.0, 4.0, 16.0], 4, sets,
                      bank)
        assert len(calls) == energies, sets


@pytest.mark.parametrize("system", ["hodge_heat", "hodge_stokes"])
def test_steady_sweep_spectra_serve_every_set_unchanged(grid, system):
    # the Stokes system steps P f, the heat system f itself, and the datum
    # is A^{-1} of what is stepped, in spectra; sweeps at p = 2 and p != 2
    # leave both spectra as they were, so a caller can measure several sets
    # on them
    bank = default_bank(grid)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=44,
                          kind="annulus_band", radii=(1.0, 2.2))
    u0_hat, f_hat = steady_sweep_spectra(system, f)
    want = f if system == "hodge_heat" else leray_halfspace(f)[0]
    datum = restrict_spectra(u0_hat, "Ht")
    steady = restrict(frac_laplacian(-2.0, extend(want)), "Ht")
    assert (datum - steady).l2_norm() <= 1e-12 * datum.l2_norm()
    stepped = restrict_spectra(f_hat, "Ht")
    assert (stepped - want).l2_norm() <= 1e-12 * want.l2_norm()
    before = [{k: a.copy() for k, a in x.comps.items()} for x in (u0_hat, f_hat)]
    for params, steps in ((SpaceParams(0.0, 2.0, 1.0), 8),
                          (SpaceParams(0.0, 3.0, 1.0), 4)):
        reports = max_reg_sweep(system, u0_hat, f_hat, [1.0, 4.0], steps,
                                [params], bank)
        assert [rep.horizon for rep in reports] == [1.0, 4.0]
    for x, old in zip((u0_hat, f_hat), before):
        assert all(np.array_equal(x.comps[k], a) for k, a in old.items())
    with pytest.raises(ValueError, match="unknown system"):
        steady_sweep_spectra("bogus", f)
    with pytest.raises(ValueError, match="unknown system"):
        sweep_spectra("bogus", f, f)
    # half-fields are not spectra, in either place
    params = SpaceParams(0.0, 2.0, 1.0)
    for datum, forcing in ((f, f), (f, None), (u0_hat, f)):
        with pytest.raises(TypeError, match="sweep_spectra"):
            max_reg_sweep(system, datum, forcing, [1.0], 8, [params], bank)
    with pytest.raises(TypeError, match="max_reg_report"):
        sweep_spectra(system, lambda t: f, f)
    with pytest.raises(ValueError, match="tangential-flavor forcing"):
        steady_sweep_spectra(system, HalfField(f.grid, "Hn", f.comps))


def _with_even_mean(u, relative):
    """u plus a constant on its evenly extended Ht component (mask 0b01),
    ``relative`` times |u|."""
    comps = dict(u.comps)
    comps[0b01] = comps[0b01] + relative * u.l2_norm()
    return HalfField(u.grid, u.flavor, comps)


@pytest.mark.parametrize("system", ["hodge_stokes", "navier_slip"])
def test_closed_form_refuses_a_mean(grid, system):
    # the spectral projection keeps the projector's mean-free guard: a mean
    # of 1e-9 |u| is far above its 1e-12 |u| bound, yet it moves no report
    # number by enough for any other guard to notice
    bank = default_bank(grid)
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=42,
                          kind="annulus_band", radii=(1.0, 2.2))
    u0 = steady_datum(f)
    params = SpaceParams(0.0, 2.0, 1.0)
    assert max_reg_sweep(system, *sweep_spectra(system, f, u0), [1.0, 4.0], 8,
                         [params], bank)
    for forcing, datum in ((_with_even_mean(f, 1e-9), u0),
                           (f, _with_even_mean(u0, 1e-9)),
                           (None, _with_even_mean(u0, 1e-9))):
        with pytest.raises(ValueError, match="Helmholtz-Leray projector "
                                             "needs a mean-free field"):
            max_reg_sweep(system, *sweep_spectra(system, forcing, datum),
                          [1.0, 4.0], 8, [params], bank)


@pytest.mark.parametrize("system", ["hodge_stokes", "navier_slip"])
def test_closed_form_refuses_a_non_tangential_flavor(grid, system):
    f = random_half_field(grid, "Ht", [0b01, 0b10], seed=43,
                          kind="annulus_band", radii=(1.0, 2.2))
    u0 = steady_datum(f)
    with pytest.raises(ValueError, match="uses the tangential flavor"):
        sweep_spectra(system, f, HalfField(u0.grid, "N", u0.comps))
    with pytest.raises(ValueError, match="acts on tangential-flavor fields"):
        sweep_spectra(system, HalfField(f.grid, "Hn", f.comps), u0)


# ---------------------------------------------------------------------------
# a transform-free reference at p != 2
# ---------------------------------------------------------------------------

# The Neumann half-space mode e^{i xi'.x'} cos(xi_n x_n) extends evenly, and
# its Dirichlet twin e^{i xi'.x'} sin(xi_n x_n) oddly, to the same expression
# on the torus.  Every block of either, of its Hessian and of its unforced
# heat flow's du/dt = -|xi|^2 u is its symbol at |xi| times the field, whose
# modulus depends on x_n alone.  So the reports of a sweep are e^{-t |xi|^2}
# times sums of known samples, with no transform: at p = 3 against the
# stepped blocks, at p = 2 against the closed form's shell sums.  Each report
# number is held to HALF_MODE_TOL = 1e-13 relative, the round-off of the
# block sums (a few hundred terms of O(1) relative error 1e-16 each).
HALF_MODES = [(Grid(2, 64, 8.0), (3, 4)), (Grid(3, 16, 4.0), (1, 2, 2))]
HALF_MODE_PARAMS = [SpaceParams(0.0, 3.0, 1.0),
                    SpaceParams(-0.5, 3.0, 2.0, homogeneous=False),
                    SpaceParams(-0.25, 2.0, 2.0)]
HALF_MODE_TOL = 1e-13
# the normal profile of each flavor and, for the mixed Hessian entries
# d_a d_n, of its derivative: cos and sin swap
HALF_MODE_FLAVORS = {"N": (np.cos, np.sin), "D": (np.sin, np.cos)}


def half_mode(grid, k, flavor):
    xi = [math.pi / grid.length * kk for kk in k]
    phase = sum(a * x for a, x in zip(xi[:-1], grid.coords()[:-1]))
    rows = grid.spacing * np.arange(grid.points // 2 + 1)
    profile = HALF_MODE_FLAVORS[flavor][0]
    return HalfField(grid, flavor,
                     {0: np.exp(1j * phase) * profile(xi[-1] * rows)})


def half_mode_reference(grid, k, flavor, params, bank, horizon, steps):
    """The report numbers of the unforced heat flow of
    half_mode(grid, k, flavor)."""
    from hodgehalf.littlewood_paley import radial_cutoff

    xi = [math.pi / grid.length * kk for kk in k]
    tangential, normal = sum(a * a for a in xi[:-1]), xi[-1] ** 2
    lam = tangential + normal
    x = grid.axis_coords()
    profile, mixed = (np.abs(f(xi[-1] * x)) for f in HALF_MODE_FLAVORS[flavor])
    # |u|, |Hessian| (each off-diagonal entry counted twice) and |du/dt| along
    # x_n; the mixed tangential-normal entries carry the other profile
    mags = {"u": profile, "dt": lam * profile,
            "hess": np.sqrt((tangential ** 2 + normal ** 2) * profile ** 2
                            + 2.0 * tangential * normal * mixed ** 2)}
    cells = grid.cell_volume * grid.points ** (grid.n - 1)
    lp = {key: (cells * np.sum(m ** params.p)) ** (1.0 / params.p)
          for key, m in mags.items()}

    r = math.sqrt(lam)

    def annulus(j):
        return float(radial_cutoff(r / 2.0 ** (j + 1)) - radial_cutoff(r / 2.0 ** j))

    if params.homogeneous:
        blocks = [(j, annulus(j)) for j in range(bank.j_min, bank.j_max + 1)]
    else:
        blocks = [(-1, float(radial_cutoff(r)))] + [
            (j, annulus(j)) for j in range(max(bank.j_min, 0), bank.j_max + 1)]

    def besov(s, norm):
        vals = np.array([2.0 ** (s * j) * sym * norm for j, sym in blocks])
        return float(np.sum(vals ** params.q) ** (1.0 / params.q))

    t = np.linspace(0.0, horizon, steps + 1)
    decay = np.exp(-t * lam)
    interp = decay * besov(params.s + 2.0 - 2.0 / params.q, lp["u"])
    evol = decay * (besov(params.s, lp["dt"]) + besov(params.s, lp["hess"]))
    w = np.full(t.size, horizon / steps)
    w[[0, -1]] *= 0.5
    lhs_lq = float(np.sum(w * evol ** params.q) ** (1.0 / params.q))
    return {"sup_interp_norm": interp.max(), "lq_evolution_norm": lhs_lq,
            "rhs_initial_norm": interp[0],
            "ratio": (interp.max() + lhs_lq) / interp[0]}


def half_mode_misses(flavor):
    """(grid, k, params, T, field, got, want) of every report number of
    max_reg_sweep off half_mode_reference by more than HALF_MODE_TOL
    relative, for the ``flavor`` mode, on banks built at the call."""
    missed = []
    horizons, steps = [0.25, 1.0], 4
    for grid_, k in HALF_MODES:
        bank = default_bank(grid_)
        spectra = sweep_spectra("hodge_heat", None, half_mode(grid_, k, flavor))
        for params in HALF_MODE_PARAMS:
            reports = max_reg_sweep("hodge_heat", *spectra, horizons, steps,
                                    [params], bank)
            for horizon, rep in zip(horizons, reports):
                assert rep.rhs_forcing_norm == 0.0
                want = half_mode_reference(grid_, k, flavor, params, bank,
                                           horizon, steps)
                missed += [(grid_, k, params, horizon, key, getattr(rep, key),
                            value) for key, value in want.items()
                           if not abs(getattr(rep, key) - value)
                           <= HALF_MODE_TOL * value]
    return missed


def test_p3_sweep_of_a_half_space_mode():
    # and the p = 2 set, for the Neumann mode and its Dirichlet twin
    for flavor in HALF_MODE_FLAVORS:
        assert half_mode_misses(flavor) == [], flavor


@pytest.mark.parametrize("row", ["hessian_sqrt2", "moved_block"])
def test_half_space_mode_reference_catches_a_mutant(row):
    # the off-diagonal second derivatives counted once, not twice; psi_1
    # built as psi_0, one octave down; each seen on both flavors
    with mutants.applied(mutants.ROWS[row]):
        for flavor in HALF_MODE_FLAVORS:
            assert half_mode_misses(flavor), flavor
