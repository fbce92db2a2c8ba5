"""Named verification suites: each runs a batch of identity checks at desk scale.

A check records its worst residual against a tolerance, together with the
scale of the quantities it compared; a suite aggregates checks into a
VerifyOutcome.  A check whose scale is exactly 0 compared nothing (0 with 0,
or a result with no components) and fails as vacuous.  Tolerances scale
uniformly with tol_scale so a caller can tighten or loosen a whole run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import algebra as alg
from .fields import Grid, random_form
from .halfspace import (d_half, extend, half_l2_inner, hodge_resolvent,
                        leray_halfspace, normal_trace, random_half_field,
                        restrict, tangential_trace)
from .operators import (_lam_value, d, delta, grad_l2, hess_l2,
                        leray_wholespace, resolvent, sector_sweep)

SUITES = ("algebra", "symbols", "decomposition", "halfspace", "traces",
          "evolution")


@dataclass
class VerifyOutcome:
    """Aggregated result of one suite run."""

    suite: str
    passed: int = 0
    failed: int = 0
    worst: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        return "ok" if self.failed == 0 else "fail"

    def record(self, name: str, residual: float, tol: float, scale: float):
        """``scale``: the magnitude of the compared quantities, largest case."""
        if scale == 0.0:
            status = "vacuous"
        else:
            status = "ok" if residual <= tol else "fail"
        self.worst[name] = {"residual": float(residual), "tol": float(tol),
                            "scale": float(scale), "status": status}
        if status == "ok":
            self.passed += 1
        else:
            self.failed += 1


def _rel(num: float, den: float) -> float:
    return num / max(den, 1e-300)


def _zero_scale(result, size: float) -> float:
    """Scale of a check that compares ``result`` with 0.

    ``size`` bounds the terms that must cancel; a result without components
    (say, a form of degree above n) compares nothing.
    """
    return size if result.comps else 0.0


# ---------------------------------------------------------------------------

def suite_algebra(seed: int = 0, tol_scale: float = 1.0) -> VerifyOutcome:
    out = VerifyOutcome("algebra")
    rng = np.random.default_rng(seed)
    worst_anti = worst_star = worst_adj = worst_lagr = worst_nilp = 0.0
    size_anti = size_star = size_adj = size_lagr = size_nilp = 0.0
    for n in range(1, alg.MAX_DIM + 1):
        dim = 1 << n
        for ma, mb in itertools.product(range(dim), repeat=2):
            ka, kb = alg.degree(ma), alg.degree(mb)
            ab = alg.wedge(alg.AlgebraElement.basis(n, ma),
                           alg.AlgebraElement.basis(n, mb))
            ba = alg.wedge(alg.AlgebraElement.basis(n, mb),
                           alg.AlgebraElement.basis(n, ma))
            sign = -1.0 if (ka * kb) % 2 else 1.0
            worst_anti = max(worst_anti,
                             float(np.abs(ab.coeffs - sign * ba.coeffs).max()))
            size_anti = max(size_anti, float(np.abs(ab.coeffs).max()),
                            float(np.abs(ba.coeffs).max()))
        for mask in range(dim):
            u = alg.AlgebraElement.basis(n, mask)
            k = alg.degree(mask)
            ss = alg.hodge_star(alg.hodge_star(u))
            sign = -1.0 if (k * (n - k)) % 2 else 1.0
            worst_star = max(worst_star,
                             float(np.abs(ss.coeffs - sign * u.coeffs).max()))
            size_star = max(size_star, float(np.abs(ss.coeffs).max()))
        a = rng.standard_normal(n)
        for mu, mv in itertools.product(range(dim), repeat=2):
            u = alg.AlgebraElement.basis(n, mu)
            v = alg.AlgebraElement.basis(n, mv)
            lhs = alg.inner(alg.wedge(alg.AlgebraElement.one_form(a), u), v)
            rhs = alg.inner(u, alg.interior(a, v))
            worst_adj = max(worst_adj, abs(lhs - rhs))
            size_adj = max(size_adj, abs(lhs), abs(rhs))
        vvec = rng.standard_normal(n)
        vform = alg.AlgebraElement.one_form(vvec)
        vnorm2 = float(np.dot(vvec, vvec))
        for mask in range(dim):
            u = alg.AlgebraElement.basis(n, mask)
            lag = (alg.wedge(vform, alg.interior(vvec, u))
                   + alg.interior(vvec, alg.wedge(vform, u)))
            worst_lagr = max(worst_lagr,
                             _rel(float(np.abs(lag.coeffs - vnorm2 * u.coeffs).max()),
                                  vnorm2))
            size_lagr = max(size_lagr, float(np.abs(lag.coeffs).max()), vnorm2)
            nil_w = alg.wedge(vform, alg.wedge(vform, u))
            nil_i = alg.interior(vvec, alg.interior(vvec, u))
            worst_nilp = max(worst_nilp, float(np.abs(nil_w.coeffs).max()),
                             float(np.abs(nil_i.coeffs).max()))
            # v ^ v ^ u and v _| v _| u cancel terms of size |v|^2 |u|
            size_nilp = max(size_nilp, vnorm2)
    out.record("wedge_anticommutativity", worst_anti, 1e-12 * tol_scale,
               size_anti)
    out.record("star_involution_sign", worst_star, 1e-12 * tol_scale, size_star)
    out.record("wedge_interior_adjointness", worst_adj, 1e-12 * tol_scale,
               size_adj)
    out.record("lagrange_identity", worst_lagr, 1e-12 * tol_scale, size_lagr)
    out.record("nilpotence", worst_nilp, 1e-12 * tol_scale, size_nilp)
    return out


def _fd8_derivative(arr: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    w = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0,
                  4 / 5, -1 / 5, 4 / 105, -1 / 280])
    out = np.zeros_like(arr)
    for off, c in zip(range(-4, 5), w):
        if c:
            out += c * np.roll(arr, -off, axis=axis)
    return out / spacing


def suite_symbols(seed: int = 0, tol_scale: float = 1.0) -> VerifyOutcome:
    out = VerifyOutcome("symbols")
    grid = Grid(2, 128, 16.0)
    u = random_form(grid, [0], seed=seed, width=2.0)
    v = random_form(grid, [1, 2], seed=seed + 1, width=2.0)

    # d of a scalar against 8th-order finite differences
    du = d(u)
    worst = size = 0.0
    for axis in range(2):
        oracle = _fd8_derivative(u.comps[0], axis, grid.spacing)
        size = max(size, float(np.abs(oracle).max()))
        worst = max(worst, _rel(
            float(np.abs(du.component(1 << axis) - oracle).max()),
            float(np.abs(oracle).max())))
    out.record("d_vs_fd8", worst, 1e-6 * tol_scale, size)

    # d o d from 0-forms to 2-forms: the mixed partials must cancel
    ddu = d(du)
    surrogate_u = u.l2_norm() + grad_l2(u) + hess_l2(u)
    out.record("d_squared_zero", _rel(ddu.l2_norm(), surrogate_u),
               1e-10 * tol_scale, _zero_scale(ddu, surrogate_u))
    dde = delta(delta(d(v)))
    surrogate_v = v.l2_norm() + grad_l2(v) + hess_l2(v)
    out.record("delta_squared_zero", _rel(dde.l2_norm(), surrogate_v),
               1e-10 * tol_scale, _zero_scale(dde, surrogate_v))

    # <du, v> = <u, delta v> for the 0-form u and the 1-form v
    lhs = du.l2_inner(v)
    rhs = u.l2_inner(delta(v))
    out.record("d_delta_adjoint", _rel(abs(lhs - rhs), u.l2_norm() * v.l2_norm()),
               1e-10 * tol_scale, max(abs(lhs), abs(rhs)))

    rows = sector_sweep(random_form(grid, [0], seed=seed + 2,
                                    kind="annulus_band", radii=(1.5, 2.5)))
    ratios = [r["ratio"] for r in rows]
    out.record("resolvent_sweep_spread", max(ratios) / min(ratios),
               3.0 * tol_scale, max(ratios))
    return out


def suite_decomposition(seed: int = 0, tol_scale: float = 1.0) -> VerifyOutcome:
    out = VerifyOutcome("decomposition")
    grid = Grid(2, 128, 16.0)
    worst_split = worst_sol = worst_curl = worst_orth = worst_idem = 0.0
    size_split = size_sol = size_curl = size_orth = size_idem = 0.0
    for trial in range(5):
        u = random_form(grid, [1, 2], seed=seed + 10 * trial,
                        kind="annulus_band", radii=(1.0, 3.0))
        pu, gu = leray_wholespace(u)
        nu = u.l2_norm()
        worst_split = max(worst_split, _rel((pu + gu - u).l2_norm(), nu))
        size_split = max(size_split, nu)
        div_pu, curl_gu = delta(pu), d(gu)
        worst_sol = max(worst_sol, _rel(div_pu.l2_norm(), grad_l2(u)))
        size_sol = max(size_sol, _zero_scale(div_pu, grad_l2(u)))
        worst_curl = max(worst_curl, _rel(curl_gu.l2_norm(), grad_l2(u)))
        size_curl = max(size_curl, _zero_scale(curl_gu, grad_l2(u)))
        worst_orth = max(worst_orth, _rel(abs(pu.l2_inner(gu)), nu ** 2))
        size_orth = max(size_orth, pu.l2_norm() * gu.l2_norm())
        pp, _ = leray_wholespace(pu)
        worst_idem = max(worst_idem, _rel((pp - pu).l2_norm(), nu))
        size_idem = max(size_idem, pu.l2_norm())
    out.record("split_reconstructs", worst_split, 1e-14 * tol_scale, size_split)
    out.record("p_part_divergence_free", worst_sol, 1e-10 * tol_scale, size_sol)
    out.record("g_part_curl_free", worst_curl, 1e-10 * tol_scale, size_curl)
    out.record("orthogonality", worst_orth, 1e-10 * tol_scale, size_orth)
    out.record("idempotence", worst_idem, 1e-10 * tol_scale, size_idem)
    return out


def suite_halfspace(seed: int = 0, tol_scale: float = 1.0) -> VerifyOutcome:
    out = VerifyOutcome("halfspace")
    grid = Grid(2, 128, 16.0)
    masks = [1, 2]
    f = random_half_field(grid, "Ht", masks, seed=seed, kind="annulus_band",
                          radii=(1.0, 3.0))

    worst_reflex = worst_bc = size_reflex = size_bc = 0.0
    for lam in (1.0, 10.0 * np.exp(0.5j), 0.1 * np.exp(-2.0j)):
        u = hodge_resolvent(lam, f)
        lhs = extend(u)
        rhs = resolvent(lam, extend(f))
        worst_reflex = max(worst_reflex,
                           _rel((lhs - rhs).l2_norm(), rhs.l2_norm()))
        size_reflex = max(size_reflex, rhs.l2_norm())
        trace_u, trace_du = tangential_trace(u), tangential_trace(d_half(u))
        tt = trace_u.l2_norm() + trace_du.l2_norm()
        worst_bc = max(worst_bc, _rel(tt, u.l2_norm()))
        size_bc = max(size_bc, _zero_scale(trace_u, u.l2_norm()),
                      _zero_scale(trace_du, u.l2_norm()))
    out.record("reflection_identity", worst_reflex, 1e-12 * tol_scale,
               size_reflex)
    out.record("boundary_conditions", worst_bc, 1e-8 * tol_scale, size_bc)

    # componentwise Dirichlet / Neumann decoupling, against a sine / cosine
    # series solve along the normal axis that never forms the extension
    lam = 2.0 * np.exp(0.3j)
    u = hodge_resolvent(lam, f)
    worst_dec = size_dec = 0.0
    for mask in masks:
        bc = "D" if mask >> (grid.n - 1) & 1 else "N"
        per = series_resolvent(lam, f.comps[mask], grid, bc)
        worst_dec = max(worst_dec, _rel(float(np.abs(u.comps[mask] - per).max()),
                                        float(np.abs(per).max())))
        size_dec = max(size_dec, float(np.abs(per).max()))
    out.record("neumann_dirichlet_decoupling", worst_dec, 1e-10 * tol_scale,
               size_dec)

    pu, gu = leray_halfspace(f)
    nf = f.l2_norm()
    out.record("half_split_reconstructs", _rel((pu + gu - f).l2_norm(), nf),
               1e-13 * tol_scale, nf)
    out.record("half_orthogonality", _rel(abs(pu.l2_inner(gu)), nf ** 2),
               1e-8 * tol_scale, pu.l2_norm() * gu.l2_norm())
    pp, _ = leray_halfspace(pu)
    out.record("half_idempotence", _rel((pp - pu).l2_norm(), nf),
               1e-9 * tol_scale, pu.l2_norm())
    trace_pu = tangential_trace(pu)
    out.record("half_p_boundary", _rel(trace_pu.l2_norm(), nf),
               1e-8 * tol_scale, _zero_scale(trace_pu, nf))
    return out


def series_resolvent(lam, rows: np.ndarray, grid: Grid, bc: str) -> np.ndarray:
    """(lambda - Delta)^(-1) of half rows, Dirichlet ('D') or Neumann ('N').

    An independent route to scalar_resolvent: a Fourier transform along the
    tangential axes and, along the normal axis, a dense solve for the
    coefficients of a DST-I (Dirichlet: sin(pi k j / H) on the interior rows
    j, k = 1 .. H - 1) or DCT-I (Neumann: cos(pi k j / H), j, k = 0 .. H)
    series, H = N / 2 rows at spacing L / H, normal frequency pi k / L.
    """
    half = grid.points // 2
    if bc == "D":
        index = np.arange(1, half)
        basis = np.sin(np.pi * np.outer(index, index) / half)
    elif bc == "N":
        index = np.arange(half + 1)
        basis = np.cos(np.pi * np.outer(index, index) / half)
    else:
        raise ValueError(f"unknown boundary rule {bc!r}")
    tangential = tuple(range(grid.n - 1))
    spectrum = np.fft.fftn(rows, axes=tangential)[..., index]
    # series coefficients along the normal axis: basis @ coeffs = rows
    coeffs = np.linalg.solve(basis, np.moveaxis(spectrum, -1, 0).reshape(index.size, -1))
    xi_t_sq = sum(xi[..., 0] ** 2 for xi in grid.freqs()[:-1])
    xi_n_sq = (np.pi * index / grid.length) ** 2
    symbol = 1.0 / (_lam_value(lam) + xi_t_sq.reshape(-1)[None, :] + xi_n_sq[:, None])
    solved = (basis @ (coeffs * symbol)).reshape((index.size,) + spectrum.shape[:-1])
    out = np.zeros(rows.shape, dtype=complex)
    out[..., index] = np.fft.ifftn(np.moveaxis(solved, 0, -1), axes=tangential)
    return out


def suite_traces(seed: int = 0, tol_scale: float = 1.0,
                 pairs: int = 10) -> VerifyOutcome:
    out = VerifyOutcome("traces")
    grid = Grid(2, 128, 16.0)
    worst_tan = worst_nor = size_tan = size_nor = 0.0
    rng = np.random.default_rng(seed)
    for trial in range(pairs):
        center_u = (rng.uniform(-3, 3), rng.uniform(0.5, 3.0))
        center_v = (rng.uniform(-3, 3), rng.uniform(0.5, 3.0))
        u = random_form(grid, [1, 2], seed=seed + 100 + trial,
                        kind="gaussian_bump", width=2.0, center=center_u)
        psi = random_form(grid, [0, 1], seed=seed + 200 + trial,
                          kind="gaussian_bump", width=2.0, center=center_v)
        scale = u.l2_norm() * psi.l2_norm()

        lhs = tangential_trace(u).pair_with_boundary_values(
            {m: psi.comps[m][..., grid.points // 2] for m in psi.comps})
        rhs = half_l2_inner(u, d(psi)) - half_l2_inner(delta(u), psi)
        worst_tan = max(worst_tan, _rel(abs(lhs - rhs), scale))
        size_tan = max(size_tan, abs(lhs), abs(rhs))

        # the normal trace of a 1-form is a 2-form: test it with dx_1 ^ dx_2
        psi_up = random_form(grid, [3], seed=seed + 300 + trial,
                             kind="gaussian_bump", width=2.0, center=center_v)
        lhs2 = normal_trace(u).pair_with_boundary_values(
            {m: psi_up.comps[m][..., grid.points // 2] for m in psi_up.comps})
        rhs2 = half_l2_inner(d(u), psi_up) - half_l2_inner(u, delta(psi_up))
        worst_nor = max(worst_nor, _rel(abs(lhs2 - rhs2), scale))
        size_nor = max(size_nor, abs(lhs2), abs(rhs2))
    out.record("tangential_trace_duality", worst_tan, 1e-6 * tol_scale, size_tan)
    out.record("normal_trace_duality", worst_nor, 1e-6 * tol_scale, size_nor)
    return out


def suite_evolution(seed: int = 0, tol_scale: float = 1.0) -> VerifyOutcome:
    from .evolution import solve_hodge_stokes, solve_navier_slip

    out = VerifyOutcome("evolution")
    grid = Grid(2, 64, 8.0)
    masks = [1, 2]
    u0 = random_half_field(grid, "Ht", masks, seed=seed, kind="annulus_band",
                           radii=(1.0, 2.5))
    u0, _ = leray_halfspace(u0)
    fconst = random_half_field(grid, "Ht", masks, seed=seed + 1,
                               kind="annulus_band", radii=(1.0, 2.5))

    traj = solve_hodge_stokes(fconst, u0, 1.0, 32)
    worst_sol = size_sol = 0.0
    from .halfspace import delta_half
    for um in traj.u:
        div = delta_half(um)
        worst_sol = max(worst_sol,
                        _rel(div.l2_norm(), max(um.l2_norm(), 1e-300)))
        size_sol = max(size_sol, _zero_scale(div, um.l2_norm()))
    out.record("solenoidality", worst_sol, 1e-9 * tol_scale, size_sol)

    # pressure gradient is curl-free
    _, grad_p = solve_navier_slip(fconst, u0, 1.0, 8)
    worst_curl = size_curl = 0.0
    # a constant forcing gives one gradient field at every node
    for gp in {id(gp): gp for gp in grad_p}.values():
        curl = d_half(gp)
        worst_curl = max(worst_curl,
                         _rel(curl.l2_norm(), max(gp.l2_norm(), 1e-300)))
        size_curl = max(size_curl, _zero_scale(curl, gp.l2_norm()))
    out.record("pressure_curl_free", worst_curl, 1e-9 * tol_scale, size_curl)

    # second-order self-convergence of the momentum residual
    ratios = momentum_residual_ratios(grid, seed=seed, steps0=16)
    for i, r in enumerate(ratios):
        out.record(f"self_convergence_doubling_{i}", abs(r - 4.0),
                   0.4 * tol_scale, r)

    # semigroup consistency with f = 0
    traj_a = solve_hodge_stokes(None, u0, 0.5, 16)
    traj_b = solve_hodge_stokes(None, traj_a.u[-1], 0.5, 16)
    traj_c = solve_hodge_stokes(None, u0, 1.0, 32)
    diff = (traj_b.u[-1] - traj_c.u[-1]).l2_norm()
    out.record("semigroup_consistency", _rel(diff, u0.l2_norm()),
               1e-10 * tol_scale, traj_c.u[-1].l2_norm())
    return out


def momentum_residual_ratios(grid: Grid, seed: int = 0, steps0: int = 16,
                             doublings: int = 2, horizon: float = 1.0) -> list[float]:
    """Momentum-residual reduction factors under time-step doubling."""
    from .evolution import solve_navier_slip
    from .operators import laplacian

    masks = [1 << a for a in range(grid.n)]
    u0 = random_half_field(grid, "Ht", masks, seed=seed, kind="annulus_band",
                           radii=(1.0, 2.5))
    u0, _ = leray_halfspace(u0)
    g = random_half_field(grid, "Ht", masks, seed=seed + 1,
                          kind="annulus_band", radii=(1.0, 2.5))

    def forcing(t):
        return (1.0 + 0.5 * np.sin(2.0 * np.pi * t / horizon)) * g

    residuals = []
    for level in range(doublings + 1):
        steps = steps0 * 2 ** level
        traj, grad_p = solve_navier_slip(forcing, u0, horizon, steps)
        dt = traj.time_grid.dt
        worst = 0.0
        times = traj.times()
        for m in range(steps):
            t_mid = times[m] + 0.5 * dt
            fmid = forcing(t_mid)
            pf, gp = leray_halfspace(fmid)
            du = (1.0 / dt) * (traj.u[m + 1] - traj.u[m])
            mid = 0.5 * (traj.u[m + 1] + traj.u[m])
            lap = restrict(laplacian(extend(mid)), "Ht")
            resid = du - lap + gp - fmid
            worst = max(worst, resid.l2_norm())
        residuals.append(worst)
    return [residuals[i] / residuals[i + 1] for i in range(doublings)]


def run_suite(name: str, seed: int = 0, tol_scale: float = 1.0) -> VerifyOutcome:
    table = {"algebra": suite_algebra, "symbols": suite_symbols,
             "decomposition": suite_decomposition, "halfspace": suite_halfspace,
             "traces": suite_traces, "evolution": suite_evolution}
    if name not in table:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    return table[name](seed=seed, tol_scale=tol_scale)
