"""One routine per identity check, and named suites that run them at desk scale.

A check records, case by case, its residual against a tolerance together with
the scale of the quantities it compared; the outcome keeps the worst residual
and the largest scale.  A check whose scale is exactly 0 compared nothing (0
with 0, or a result with no components) and fails as vacuous.  The identity
routines own their formulas, scales and tolerances; the acceptance criteria
call them at their stated grids.  Tolerances scale uniformly with the
outcome's tol_scale, so a caller can tighten or loosen a whole run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra as alg
from .fields import Grid, SpectralField, random_form
from .halfspace import (NodeReader, d_half, extend, extend_spectra,
                        half_l2_inner, half_l2_norm_from_spectra,
                        hodge_resolvent, leray_halfspace, normal_trace,
                        random_half_field, restrict_spectra, tangential_trace)
from .operators import (_lam_value, d, delta, grad_l2, hess_l2,
                        leray_wholespace, resolvent, sector_sweep)

SUITES = ("algebra", "symbols", "decomposition", "halfspace", "traces",
          "evolution")

# The tolerance of every check that a suite and an acceptance criterion
# share, before tol_scale; the criteria state these bounds.
TOLERANCES = {
    # exterior algebra (criterion 01)
    "wedge_anticommutativity": 1e-12, "star_involution_sign": 1e-12,
    "wedge_interior_adjointness": 1e-12, "lagrange_identity": 1e-12,
    "nilpotence": 1e-12,
    # whole-space split (criterion 03)
    "split_reconstructs": 1e-14, "p_part_divergence_free": 1e-10,
    "g_part_curl_free": 1e-10, "orthogonality": 1e-10,
    # hodge_resolvent (criteria 04 and 06)
    "reflection_identity": 1e-12, "boundary_conditions": 1e-8,
    "neumann_dirichlet_decoupling": 1e-10,
    # half-space split (criterion 06)
    "half_split_reconstructs": 1e-13, "half_orthogonality": 1e-8,
    "half_idempotence": 1e-9, "half_p_boundary": 1e-8,
    # trace duality (criterion 07)
    "tangential_trace_duality": 1e-6, "normal_trace_duality": 1e-6,
}


@dataclass
class VerifyOutcome:
    """Per check, the worst residual and the largest scale of every case
    recorded, with its tolerance and status."""

    suite: str
    tol_scale: float = 1.0
    worst: dict = field(default_factory=dict)
    guard: str = ""

    @property
    def passed(self) -> int:
        return sum(info["status"] == "ok" for info in self.worst.values())

    @property
    def failed(self) -> int:
        return len(self.worst) - self.passed

    @property
    def status(self) -> str:
        return "ok" if self.failed == 0 else "fail"

    def record(self, name: str, residual: float, scale: float,
               tol: float | None = None):
        """Fold one case of check ``name`` into its entry; ``scale`` is the
        magnitude of the quantities the case compared, ``tol`` the bound
        before tol_scale (by default TOLERANCES[name]).  A NaN residual or
        scale stays the worst."""
        info = self.worst.setdefault(name, {"residual": 0.0, "scale": 0.0})
        info["residual"] = float(np.max((info["residual"], residual)))
        info["tol"] = float((TOLERANCES[name] if tol is None else tol)
                            * self.tol_scale)
        info["scale"] = float(np.max((info["scale"], scale)))
        if info["scale"] == 0.0:
            info["status"] = "vacuous"
        else:
            info["status"] = "ok" if info["residual"] <= info["tol"] else "fail"


def _rel(num: float, den: float) -> float:
    return num / max(den, 1e-300)


def _zero_scale(result, size: float) -> float:
    """Scale of a check that compares ``result`` with 0.

    ``size`` bounds the terms that must cancel; a result without components
    (say, a form of degree above n) compares nothing.
    """
    return size if result.comps else 0.0


def _max_abs(a) -> float:
    return float(np.abs(a).max())


# ---------------------------------------------------------------------------
# one routine per identity
# ---------------------------------------------------------------------------

def check_algebra(out: VerifyOutcome, avec, vvec):
    """The exterior-algebra identities in dimension n = len(a) over every basis
    element (and pair), with a for wedge-interior adjointness and v for
    Lagrange's identity v ^ (v _| u) + v _| (v ^ u) = |v|^2 u and nilpotence."""
    n = len(avec)
    basis = [alg.AlgebraElement.basis(n, m) for m in range(1 << n)]
    for (ma, ea), (mb, eb) in itertools.product(enumerate(basis), repeat=2):
        ab, ba = alg.wedge(ea, eb).coeffs, alg.wedge(eb, ea).coeffs
        sign = -1.0 if (alg.degree(ma) * alg.degree(mb)) % 2 else 1.0
        out.record("wedge_anticommutativity", _max_abs(ab - sign * ba),
                   max(_max_abs(ab), _max_abs(ba)))
    for mask, u in enumerate(basis):
        k = alg.degree(mask)
        ss = alg.hodge_star(alg.hodge_star(u)).coeffs
        sign = -1.0 if (k * (n - k)) % 2 else 1.0
        out.record("star_involution_sign", _max_abs(ss - sign * u.coeffs),
                   _max_abs(ss))
    aform = alg.AlgebraElement.one_form(avec)
    for u, v in itertools.product(basis, repeat=2):
        lhs = alg.inner(alg.wedge(aform, u), v)
        rhs = alg.inner(u, alg.interior(avec, v))
        out.record("wedge_interior_adjointness", abs(lhs - rhs),
                   max(abs(lhs), abs(rhs)))
    vform = alg.AlgebraElement.one_form(vvec)
    vnorm2 = float(np.dot(vvec, vvec))
    for u in basis:
        lag = (alg.wedge(vform, alg.interior(vvec, u))
               + alg.interior(vvec, alg.wedge(vform, u))).coeffs
        out.record("lagrange_identity",
                   _rel(_max_abs(lag - vnorm2 * u.coeffs), vnorm2),
                   max(_max_abs(lag), vnorm2))
        nil_w = alg.wedge(vform, alg.wedge(vform, u)).coeffs
        nil_i = alg.interior(vvec, alg.interior(vvec, u)).coeffs
        # v ^ v ^ u and v _| v _| u cancel terms of size |v|^2 |u|
        out.record("nilpotence", max(_max_abs(nil_w), _max_abs(nil_i)), vnorm2)


def check_wholespace_split(out: VerifyOutcome, u):
    """The whole-space Hodge split u = Pu + Gu: it reconstructs u, delta Pu
    and d Gu vanish against |grad u|, and the parts are orthogonal.  Returns
    (Pu, Gu)."""
    pu, gu = leray_wholespace(u)
    nu, gradu = u.l2_norm(), grad_l2(u)
    div_pu, curl_gu = delta(pu), d(gu)
    out.record("split_reconstructs", _rel((pu + gu - u).l2_norm(), nu), nu)
    out.record("p_part_divergence_free", _rel(div_pu.l2_norm(), gradu),
               _zero_scale(div_pu, gradu))
    out.record("g_part_curl_free", _rel(curl_gu.l2_norm(), gradu),
               _zero_scale(curl_gu, gradu))
    out.record("orthogonality", _rel(abs(pu.l2_inner(gu)), nu ** 2),
               pu.l2_norm() * gu.l2_norm())
    return pu, gu


def check_resolvent(out: VerifyOutcome, lam, f):
    """hodge_resolvent against the whole-space resolvent of the extension
    (E u = (lam - Delta)^(-1) E f), and the absolute boundary conditions
    nu _| u = 0 and nu _| du = 0 of its output."""
    u = hodge_resolvent(lam, f)
    rhs = resolvent(lam, extend(f))
    out.record("reflection_identity",
               _rel((extend(u) - rhs).l2_norm(), rhs.l2_norm()), rhs.l2_norm())
    trace_u, trace_du = tangential_trace(u), tangential_trace(d_half(u))
    nu = u.l2_norm()
    out.record("boundary_conditions",
               _rel(trace_u.l2_norm() + trace_du.l2_norm(), nu),
               max(_zero_scale(trace_u, nu), _zero_scale(trace_du, nu)))


def check_decoupling(out: VerifyOutcome, lam, f):
    """Componentwise Dirichlet / Neumann decoupling of hodge_resolvent, against
    a sine / cosine series solve along the normal axis that never forms the
    extension (series_resolvent)."""
    u = hodge_resolvent(lam, f)
    for mask in f.masks():
        bc = "D" if mask >> (f.grid.n - 1) & 1 else "N"
        per = series_resolvent(lam, f.comps[mask], f.grid, bc)
        out.record("neumann_dirichlet_decoupling",
                   _rel(_max_abs(u.comps[mask] - per), _max_abs(per)),
                   _max_abs(per))


def check_half_split(out: VerifyOutcome, u):
    """The half-space Hodge split of a tangential half-field: it reconstructs
    u, its parts are orthogonal, P is idempotent and Pu has no tangential
    trace.  Returns (Pu, Gu)."""
    pu, gu = leray_halfspace(u)
    nu = u.l2_norm()
    out.record("half_split_reconstructs", _rel((pu + gu - u).l2_norm(), nu), nu)
    out.record("half_orthogonality", _rel(abs(pu.l2_inner(gu)), nu ** 2),
               pu.l2_norm() * gu.l2_norm())
    pp, _ = leray_halfspace(pu)
    out.record("half_idempotence", _rel((pp - pu).l2_norm(), nu), pu.l2_norm())
    trace_pu = tangential_trace(pu)
    out.record("half_p_boundary", _rel(trace_pu.l2_norm(), nu),
               _zero_scale(trace_pu, nu))
    return pu, gu


def _boundary_rows(psi) -> dict:
    return {m: a[..., psi.grid.points // 2] for m, a in psi.comps.items()}


def check_tangential_duality(out: VerifyOutcome, u, psi):
    """Green's formula of the tangential trace on the half-space x_n > 0:
    int_wall <nu _| u, psi> = <u, d psi> - <delta u, psi> over the half."""
    lhs = tangential_trace(u).pair_with_boundary_values(_boundary_rows(psi))
    rhs = half_l2_inner(u, d(psi)) - half_l2_inner(delta(u), psi)
    out.record("tangential_trace_duality",
               _rel(abs(lhs - rhs), u.l2_norm() * psi.l2_norm()),
               max(abs(lhs), abs(rhs)))


def check_normal_duality(out: VerifyOutcome, u, psi):
    """Green's formula of the normal trace on the half-space x_n > 0:
    int_wall <nu ^ u, psi> = <d u, psi> - <u, delta psi> over the half."""
    lhs = normal_trace(u).pair_with_boundary_values(_boundary_rows(psi))
    rhs = half_l2_inner(d(u), psi) - half_l2_inner(u, delta(psi))
    out.record("normal_trace_duality",
               _rel(abs(lhs - rhs), u.l2_norm() * psi.l2_norm()),
               max(abs(lhs), abs(rhs)))


def trace_duality(out: VerifyOutcome, grid: Grid, rng, seed: int, trials: int):
    """Both trace dualities on ``trials`` draws of Gaussian bumps (width 2)
    near the wall, u and psi with components of every degree 0..n, so that
    every sign of both trace rules enters a pairing.  The centres come from
    ``rng``; draw ``trial`` seeds u and the psi of the tangential and of the
    normal duality with seed + trial, seed + 100 + trial and
    seed + 200 + trial."""
    n = grid.n

    def bumps(draw_seed, center):
        return random_form(grid, list(range(1 << n)), seed=draw_seed,
                           kind="gaussian_bump", width=2.0, center=center)

    for trial in range(trials):
        cu = tuple(rng.uniform(-2, 2, n - 1)) + (rng.uniform(0.5, 2.5),)
        cp = tuple(rng.uniform(-2, 2, n - 1)) + (rng.uniform(0.5, 2.5),)
        u = bumps(seed + trial, cu)
        check_tangential_duality(out, u, bumps(seed + 100 + trial, cp))
        check_normal_duality(out, u, bumps(seed + 200 + trial, cp))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_algebra(out: VerifyOutcome, seed: int = 0):
    rng = np.random.default_rng(seed)
    for n in range(1, alg.MAX_DIM + 1):
        avec = rng.standard_normal(n)
        check_algebra(out, avec, rng.standard_normal(n))


def fd8(arr: np.ndarray, axis: int, spacing: float) -> np.ndarray:
    """8th-order centred finite difference along ``axis`` of a periodic array."""
    w = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0,
                  4 / 5, -1 / 5, 4 / 105, -1 / 280])
    out = np.zeros_like(arr)
    for off, c in zip(range(-4, 5), w):
        if c:
            out += c * np.roll(arr, -off, axis=axis)
    return out / spacing


def suite_symbols(out: VerifyOutcome, seed: int = 0):
    grid = Grid(2, 128, 16.0)
    u = random_form(grid, [0], seed=seed, width=2.0)
    v = random_form(grid, [1, 2], seed=seed + 1, width=2.0)

    # d of a scalar against 8th-order finite differences
    du = d(u)
    for axis in range(2):
        oracle = fd8(u.comps[0], axis, grid.spacing)
        out.record("d_vs_fd8", _rel(_max_abs(du.component(1 << axis) - oracle),
                                    _max_abs(oracle)),
                   _max_abs(oracle), tol=1e-6)

    # d o d from 0-forms to 2-forms: the mixed partials must cancel
    ddu = d(du)
    surrogate_u = u.l2_norm() + grad_l2(u) + hess_l2(u)
    out.record("d_squared_zero", _rel(ddu.l2_norm(), surrogate_u),
               _zero_scale(ddu, surrogate_u), tol=1e-10)
    dde = delta(delta(d(v)))
    surrogate_v = v.l2_norm() + grad_l2(v) + hess_l2(v)
    out.record("delta_squared_zero", _rel(dde.l2_norm(), surrogate_v),
               _zero_scale(dde, surrogate_v), tol=1e-10)

    # <du, v> = <u, delta v> for the 0-form u and the 1-form v
    lhs = du.l2_inner(v)
    rhs = u.l2_inner(delta(v))
    out.record("d_delta_adjoint", _rel(abs(lhs - rhs), u.l2_norm() * v.l2_norm()),
               max(abs(lhs), abs(rhs)), tol=1e-10)

    rows = sector_sweep(random_form(grid, [0], seed=seed + 2,
                                    kind="annulus_band", radii=(1.5, 2.5)))
    ratios = [r["ratio"] for r in rows]
    out.record("resolvent_sweep_spread", max(ratios) / min(ratios),
               max(ratios), tol=3.0)


def suite_decomposition(out: VerifyOutcome, seed: int = 0):
    grid = Grid(2, 128, 16.0)
    for trial in range(5):
        u = random_form(grid, [1, 2], seed=seed + 10 * trial,
                        kind="annulus_band", radii=(1.0, 3.0))
        pu, _ = check_wholespace_split(out, u)
        pp, _ = leray_wholespace(pu)
        out.record("idempotence", _rel((pp - pu).l2_norm(), u.l2_norm()),
                   pu.l2_norm(), tol=1e-10)


def suite_halfspace(out: VerifyOutcome, seed: int = 0):
    grid = Grid(2, 128, 16.0)
    f = random_half_field(grid, "Ht", [1, 2], seed=seed, kind="annulus_band",
                          radii=(1.0, 3.0))
    for lam in (1.0, 10.0 * np.exp(0.5j), 0.1 * np.exp(-2.0j)):
        check_resolvent(out, lam, f)
    check_decoupling(out, 2.0 * np.exp(0.3j), f)
    check_half_split(out, f)


def series_resolvent(lam, rows: np.ndarray, grid: Grid, bc: str) -> np.ndarray:
    """(lambda - Delta)^(-1) of half rows, Dirichlet ('D') or Neumann ('N').

    An independent route to hodge_resolvent: a Fourier transform along the
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


def suite_traces(out: VerifyOutcome, seed: int = 0):
    """Trace duality on ten draws at 2-D 128^2 and one at 3-D 64^3 (L = 16),
    so that a rule of a 3-D-only component is seen too."""
    rng = np.random.default_rng(seed)
    trace_duality(out, Grid(2, 128, 16.0), rng, seed + 100, trials=10)
    trace_duality(out, Grid(3, 64, 16.0), rng, seed + 400, trials=1)


def suite_evolution(out: VerifyOutcome, seed: int = 0):
    from .evolution import solve_hodge_stokes, solve_navier_slip

    grid = Grid(2, 64, 8.0)
    masks = [1, 2]
    u0 = random_half_field(grid, "Ht", masks, seed=seed, kind="annulus_band",
                           radii=(1.0, 2.5))
    u0, _ = leray_halfspace(u0)
    fconst = random_half_field(grid, "Ht", masks, seed=seed + 1,
                               kind="annulus_band", radii=(1.0, 2.5))
    reader = NodeReader(grid, "Ht", masks)

    def observer(m, t, state):
        # |delta u| and |u| of the node, both from the stepper's spectra; a
        # form whose delta has no component compares nothing
        columns = reader(state)
        norm = columns["l2"]
        out.record("solenoidality", _rel(columns["divergence"], norm),
                   norm if reader.targets else 0.0, tol=1e-9)

    # pressure gradient is curl-free; a constant forcing gives one gradient
    # field at every node
    _, grad_p = solve_navier_slip(fconst, u0, 1.0, 32, observer=observer)
    for gp in {id(gp): gp for gp in grad_p}.values():
        curl = d_half(gp)
        out.record("pressure_curl_free", _rel(curl.l2_norm(), gp.l2_norm()),
                   _zero_scale(curl, gp.l2_norm()), tol=1e-9)

    # second-order self-convergence of the momentum residual
    ratios = momentum_residual_ratios(grid, seed=seed, steps0=16)
    for i, r in enumerate(ratios):
        out.record(f"self_convergence_doubling_{i}", abs(r - 4.0), r, tol=0.4)

    # semigroup consistency with f = 0: two half-horizon legs, the second
    # restarted from the first one's end as a half-field, against one leg
    def end(u, horizon, steps):
        last = {}  # the state spectra of the last node visited
        solve_hodge_stokes(None, u, horizon, steps,
                           observer=lambda m, t, state: last.update(state))
        return SpectralField(grid, last)

    two_legs = end(restrict_spectra(end(u0, 0.5, 16), "Ht"), 0.5, 16)
    one_leg = end(u0, 1.0, 32)
    out.record("semigroup_consistency",
               _rel(half_l2_norm_from_spectra(two_legs - one_leg),
                    u0.l2_norm()),
               half_l2_norm_from_spectra(one_leg), tol=1e-10)


def momentum_residual_ratios(grid: Grid, seed: int = 0, steps0: int = 16,
                             doublings: int = 2) -> list[float]:
    """Momentum-residual reduction factors under time-step doubling, T = 1.

    Over step m of the Stokes solve forced by c(t) g, the residual of
    du/dt - Delta u + grad p - f at the midpoint is R = (S_{m+1} - S_m) / dt
    + |xi|^2 (S_{m+1} + S_m) / 2 + c(t_mid)(G - g), read from the state
    spectra S the solve hands its observer; G is the gradient part of g."""
    from .evolution import TimeGrid, solve_hodge_stokes

    masks = [1 << a for a in range(grid.n)]
    u0 = random_half_field(grid, "Ht", masks, seed=seed, kind="annulus_band",
                           radii=(1.0, 2.5))
    u0, _ = leray_halfspace(u0)
    g = random_half_field(grid, "Ht", masks, seed=seed + 1,
                          kind="annulus_band", radii=(1.0, 2.5))
    # G is split here once and independently of the solver's splits
    _, grad_g = leray_halfspace(g)
    gap = (extend_spectra(grad_g) - extend_spectra(g)).comps
    half_absq = 0.5 * grid.freq_sq()

    def profile(t):
        return 1.0 + 0.5 * np.sin(2.0 * np.pi * t)

    residuals = []
    for level in range(doublings + 1):
        tg = TimeGrid(1.0, steps0 * 2 ** level)
        times, previous, worst = tg.nodes(), {}, []

        def observer(m, t, state):
            if m:
                c = profile(times[m - 1] + 0.5 * tg.dt)
                worst.append(half_l2_norm_from_spectra(SpectralField(grid, {
                    k: (1.0 / tg.dt) * (a - previous[k])
                    + half_absq * (a + previous[k]) + c * gap[k]
                    for k, a in state.items()})))
            previous.update((k, a.copy()) for k, a in state.items())

        solve_hodge_stokes(lambda t: profile(t) * g, u0, tg.horizon,
                           tg.steps, observer=observer)
        residuals.append(max(worst))
    return [residuals[i] / residuals[i + 1] for i in range(doublings)]


def run_suite(name: str, seed: int = 0, tol_scale: float = 1.0) -> VerifyOutcome:
    """The outcome of suite ``name``.  A numerical guard raised inside the
    suite (a ValueError) ends it: the checks that ran keep their entries,
    and the guard is the failing check ``guard``, its message in
    ``outcome.guard``."""
    table = {"algebra": suite_algebra, "symbols": suite_symbols,
             "decomposition": suite_decomposition, "halfspace": suite_halfspace,
             "traces": suite_traces, "evolution": suite_evolution}
    if name not in table:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    out = VerifyOutcome(name, tol_scale)
    try:
        table[name](out, seed=seed)
    except ValueError as exc:
        out.guard = str(exc)
        out.record("guard", math.nan, math.nan, tol=0.0)
    return out
