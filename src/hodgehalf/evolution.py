"""Time-dependent solvers on the half-space and the maximal-regularity harness.

All solvers are exact in space (spectral multipliers on the flavored
extension) and second order in time: one step of the mild solution reads

    u_{m+1} = e^{dt Delta} u_m + dt e^{(dt/2) Delta} f(t_m + dt/2),

the exponential-midpoint quadrature of the Duhamel integral.  Stepping the
semigroup itself is exact, so the only time error is the forcing quadrature.

The regularity reports measure the trajectory in time-Lebesgue / space-Besov
norms.  Spatial Besov norms of half-space fields are computed on the flavored
extension (a fixed bounded extension standing in for the quotient norm), and
the time derivative is evaluated through the mild identity du/dt = Delta u + f
rather than by finite differences, so the report never mixes time-stepping
error into the estimate it measures.

For p = 2 a report needs only |k|^2 shell energies (see littlewood_paley):
E_u of the state, which gives the interpolation norm and, because
sum_{a,b} |xi_a xi_b|^2 = |xi|^4, the Hessian norm as |xi|^4 E_u shell by
shell; and E_dt of du/dt.  The symbols are radial, so the shell sums are
exact regroupings of the lattice sums.  A stepped node reduces the stepper's
spectra, du/dt = -|xi|^2 u_hat + f_hat summed pointwise.  With a constant or
absent forcing streaming_max_reg does not step: the stepper's recurrence sums
in closed form, and five per-shell Gram sums of the datum and the forcing give
E_u and E_dt at every node (_closed_form_rows).  There du/dt is written in
the basis (r, f), r = u0 - f / |xi|^2 the datum less the steady state, since
in the basis (u0, f) a steady datum leaves du/dt as the difference of O(1)
terms.  The stepper still runs for callable or snapshot forcings, for p != 2,
and in max_reg_report, the oracle the closed form is tested against.
Both drivers refuse an initial datum or forcing whose spectrum leaks
out of the bank window, reading the leakage from the same shell energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import FormField, Grid, SpectralField
from .halfspace import HalfField, extend, leray_halfspace, restrict
from .littlewood_paley import (FilterBank, SpaceParams, completeness_ok,
                               lp_besov_norm, require_in_window,
                               shell_besov_norm)
from .operators import resolvent


@dataclass(frozen=True)
class TimeGrid:
    """Uniform nodes t_m = m T / M on [0, T]."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("final time must be positive")
        if self.steps < 1:
            raise ValueError("need at least one step")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass
class Trajectory:
    """Node snapshots of a solve: solution, forcing, and the initial datum."""

    time_grid: TimeGrid
    u: list
    f: list
    u0: HalfField
    flavor: str = "Ht"

    def times(self) -> np.ndarray:
        return self.time_grid.nodes()


def _forcing_callable(f):
    """Normalize a forcing argument to a callable t -> HalfField or None.

    Snapshot lists come back as a callable carrying a .snapshots attribute;
    the solvers read the nodes directly and average adjacent pairs for the
    step midpoints.
    """
    if f is None:
        return None
    if isinstance(f, HalfField):
        return lambda t: f
    if callable(f):
        return f
    if isinstance(f, (list, tuple)):
        snapshots = list(f)

        def from_snapshots(t):
            raise TypeError("snapshot forcing is only defined at solver nodes")

        from_snapshots.snapshots = snapshots
        return from_snapshots
    raise TypeError("forcing must be None, a HalfField, a callable, or snapshots")


class _Stepper:
    """Shared spectral stepping core working on extended spectra.

    The state arrays are owned by the stepper and updated in place; spectra()
    hands out copies.
    """

    def __init__(self, u0: HalfField, time_grid: TimeGrid):
        self.grid = u0.grid
        self.flavor = u0.flavor
        absq = self.grid.freq_sq()
        dt = time_grid.dt
        self.full_step = np.exp(-dt * absq)
        self.dt_half_step = dt * np.exp(-0.5 * dt * absq)
        self.state = _spectra_of(u0)
        # dt e^{(dt/2) Delta} f_hat for the forcing dict last seen: a constant
        # forcing passes the same dict at every step
        self._forcing = None
        self._terms = {}

    def field(self) -> HalfField:
        full = FormField(self.grid, {m: np.fft.ifftn(a)
                                     for m, a in self.state.items()})
        return restrict(full, self.flavor)

    def spectra(self) -> dict[int, np.ndarray]:
        return {m: a.copy() for m, a in self.state.items()}

    def advance(self, f_mid_hat: dict[int, np.ndarray] | None):
        for a in self.state.values():
            a *= self.full_step
        if f_mid_hat is None:
            return
        if f_mid_hat is not self._forcing:
            self._forcing = f_mid_hat
            self._terms = {m: self.dt_half_step * spec
                           for m, spec in f_mid_hat.items()}
        for m, term in self._terms.items():
            if m in self.state:
                self.state[m] += term
            else:
                self.state[m] = term.copy()


def _spectra_of(u: HalfField) -> dict[int, np.ndarray]:
    return {m: np.fft.fftn(a) for m, a in extend(u).comps.items()}


def solve_hodge_heat(f, u0: HalfField, horizon: float, steps: int,
                     observer=None, store: bool = True) -> Trajectory:
    """Mild solution of the flavored Hodge-heat system du/dt - Delta u = f.

    The boundary conditions ride on the flavor of u0 and hold at every node.
    ``f`` may be None, a constant HalfField, a callable t -> HalfField, or a
    list of node snapshots (midpoints are then averaged, still second order).
    ``observer(m, t, state, f_hat)`` runs at every node when provided, with
    the stepper's extended state spectra (owned by the stepper, updated in
    place) and the node forcing spectra (None without forcing); pass
    store=False to keep only the endpoint snapshots (streaming use).
    """
    tg = TimeGrid(horizon, steps)
    forcing = _forcing_callable(f)
    snaps_in = getattr(forcing, "snapshots", None)
    if snaps_in is not None and len(snaps_in) != steps + 1:
        raise ValueError(f"need {steps + 1} forcing snapshots, got {len(snaps_in)}")
    constant = f if isinstance(f, HalfField) else None
    constant_hat = _spectra_of(constant) if constant is not None else None
    stepper = _Stepper(u0, tg)
    times = tg.nodes()

    def f_at(t, m):
        if forcing is None:
            return None
        if constant is not None:
            return constant
        if snaps_in is not None:
            return snaps_in[m]
        return forcing(t)

    def f_mid_hat(m, t_mid):
        if forcing is None:
            return None
        if constant_hat is not None:
            return constant_hat
        if snaps_in is not None:
            return _spectra_of(0.5 * (snaps_in[m] + snaps_in[m + 1]))
        return _spectra_of(forcing(t_mid))

    u_nodes, f_nodes = [], []

    def visit(m):
        # one evaluation of the node forcing serves the snapshot and observer
        keep = store or m in (0, steps)
        if not keep and observer is None:
            return
        f_m = f_at(times[m], m)
        if keep:
            u_nodes.append(stepper.field())
            f_nodes.append(f_m)
        if observer is not None:
            if forcing is None or constant_hat is not None:
                f_hat = constant_hat
            else:
                f_hat = _spectra_of(f_m)
            observer(m, times[m], stepper.state, f_hat)

    visit(0)
    for m in range(steps):
        t_mid = times[m] + 0.5 * tg.dt
        stepper.advance(f_mid_hat(m, t_mid))
        visit(m + 1)
    return Trajectory(tg, u_nodes, f_nodes, u0, u0.flavor)


def _projected_datum(u0: HalfField, auto_project: bool,
                     sol_tol: float = 1e-9) -> HalfField:
    """Leray projection of a Stokes datum; refuses one it moves unless asked."""
    if u0.flavor != "Ht":
        raise ValueError("the Hodge-Stokes solver uses the tangential flavor")
    pu0 = leray_halfspace(u0)[0]
    defect = (u0 - pu0).l2_norm()
    if defect > sol_tol * max(u0.l2_norm(), 1e-300) and not auto_project:
        raise ValueError(f"initial datum is not solenoidal (projector moves "
                         f"it by {defect:.3e}); pass auto_project=True")
    return pu0


def _split_forcing(f, tg: TimeGrid, keep_gradients: bool):
    """Leray-split a forcing once per distinct input: (projected, gradients).

    ``projected`` is the forcing argument for solve_hodge_heat.  A constant
    forcing is split once, snapshots once each, a callable at every
    evaluation.  With ``keep_gradients`` the node gradient parts come back
    as a list (one shared field for a constant forcing; for a callable, those
    of its node evaluations); otherwise, and without forcing, ``gradients``
    is None and no gradient part outlives its split.
    """
    forcing = _forcing_callable(f)
    if forcing is None:
        return None, None
    if isinstance(f, HalfField):
        pf, gf = leray_halfspace(f)
        return pf, [gf] * (tg.steps + 1) if keep_gradients else None
    snaps = getattr(forcing, "snapshots", None)
    if snaps is not None:
        parts = [leray_halfspace(s) for s in snaps]
        return ([p for p, _ in parts],
                [g for _, g in parts] if keep_gradients else None)
    node_of = {t: m for m, t in enumerate(tg.nodes())}
    gradients = [None] * (tg.steps + 1) if keep_gradients else None

    def projected(t):
        pf, gf = leray_halfspace(forcing(t))
        if gradients is not None and t in node_of:
            gradients[node_of[t]] = gf
        return pf

    return projected, gradients


def solve_hodge_stokes(f, u0: HalfField, horizon: float, steps: int,
                       auto_project: bool = False, observer=None,
                       sol_tol: float = 1e-9, store: bool = True) -> Trajectory:
    """Mild solution of the Hodge-Stokes system: heat flow of projected data.

    u0 must be solenoidal with vanishing tangential trace (checked via the
    Leray projector; pass auto_project=True to project instead of failing).
    The forcing is projected once per distinct input: once if constant, once
    per snapshot, once per evaluation of a callable.
    """
    pu0 = _projected_datum(u0, auto_project, sol_tol)
    projected, _ = _split_forcing(f, TimeGrid(horizon, steps),
                                  keep_gradients=False)
    return solve_hodge_heat(projected, pu0, horizon, steps, observer=observer,
                            store=store)


def solve_navier_slip(f, u0: HalfField, horizon: float, steps: int,
                      auto_project: bool = False,
                      observer=None) -> tuple[Trajectory, list]:
    """Stokes flow of a vector field under Navier-slip boundary conditions.

    Returns the velocity trajectory and the pressure-gradient snapshots
    grad p(t_m) = (I - P) f(t_m), the exact complement of the projected
    forcing, read from the same Leray split that projects the forcing; on the
    flat boundary the slip conditions coincide with the tangential Hodge
    conditions, so the velocity solve is the Stokes one.  For a constant or
    absent forcing every entry of grad p is the same field, as the entries
    of ``Trajectory.f`` are, so callers must not mutate them in place.
    ``observer`` is passed to solve_hodge_heat.
    """
    if u0.degrees() != [1]:
        raise ValueError("the Navier-slip system runs on vector fields")
    pu0 = _projected_datum(u0, auto_project)
    projected, grad_p = _split_forcing(f, TimeGrid(horizon, steps),
                                    keep_gradients=True)
    traj = solve_hodge_heat(projected, pu0, horizon, steps, observer=observer)
    if grad_p is None:
        grad_p = [HalfField.zero(u0.grid, u0.flavor, u0.masks())] * (steps + 1)
    return traj, grad_p


# ---------------------------------------------------------------------------
# maximal-regularity reports
# ---------------------------------------------------------------------------

@dataclass
class MaxRegReport:
    """One maximal-regularity measurement of a trajectory."""

    system: str
    s: float
    p: float
    q: float
    horizon: float
    sup_interp_norm: float
    lq_evolution_norm: float
    rhs_forcing_norm: float
    rhs_initial_norm: float
    ratio: float
    extras: dict = field(default_factory=dict)

    def row(self) -> dict:
        out = {"system": self.system, "s": self.s, "p": self.p,
               "q": self.q, "T": self.horizon,
               "lhs_sup": self.sup_interp_norm,
               "lhs_lq": self.lq_evolution_norm,
               "rhs_f": self.rhs_forcing_norm,
               "rhs_u0": self.rhs_initial_norm,
               "ratio": self.ratio}
        out.update(self.extras)
        return out


def _hessian_spectra(comps_hat: dict[int, np.ndarray], grid: Grid) -> dict:
    """Spectra of all second derivatives, stacked as extra components."""
    out = {}
    xi = grid.freqs()
    key = 0
    for _, arr in sorted(comps_hat.items()):
        for a in range(grid.n):
            for b in range(a, grid.n):
                w = 2.0 if b > a else 1.0  # off-diagonal pairs counted twice
                out[key] = math.sqrt(w) * (-(xi[a] * xi[b]) * arr)
                key += 1
    return out


class _MaxRegAccumulator:
    """Streams node data into the three norms of the regularity estimate.

    Construction runs the guards both drivers share: the completeness
    predicate of the interpolation space and, for q = infinity, the caller's
    word that the datum is operator-regular.  Node 0 carries the initial
    datum: its interpolation norm is the rhs_u0 term.  The datum and every
    distinct forcing, the inputs, are guarded against window leakage;
    derived spectra are not.  The norm of a forcing seen at consecutive nodes
    is computed once.  At p = 2 the nodes arrive as rows of shell energies
    (E_u, E_dt), from the stepper's spectra (node) or from the closed form
    (shell_rows directly).
    """

    def __init__(self, grid: Grid, bank: FilterBank, params: SpaceParams,
                 tg: TimeGrid, a_regular_checked: bool):
        interp = SpaceParams(params.s + 2.0 - 2.0 / params.q, params.p,
                             params.q, homogeneous=params.homogeneous)
        if not completeness_ok(interp, grid.n):
            raise ValueError(
                f"refusing the report: the space with s = {interp.s}, p = {interp.p}, "
                f"q = {interp.q} fails the completeness predicate in dimension {grid.n} "
                f"(needs s < n/p, or q = 1 and s <= n/p)")
        if math.isinf(params.q) and not a_regular_checked:
            raise ValueError("q = infinity reports need operator-regular initial "
                             "data; build it with make_a_regular and pass "
                             "a_regular_checked=True")
        self.grid = grid
        self.bank = bank
        self.params = params
        self.interp = interp
        self.tg = tg
        self.neg_absq = -grid.freq_sq()
        self._work = np.empty(grid.shape, dtype=complex)
        self.sup_norm = 0.0
        self.rhs_u0 = 0.0
        self.evol_acc = 0.0
        self.evol_max = 0.0
        self.rhs_acc = 0.0
        self.rhs_max = 0.0
        self._fhat = None  # forcing spectra whose norm is self._rhs
        self._rhs = 0.0

    def forcing(self, energy: np.ndarray | None, fhat=None):
        """Take the forcing of the nodes to come from its shell energy.

        None means no forcing; ``fhat``, its spectra, is needed for p != 2.
        """
        if energy is None:
            self._rhs = 0.0
            return
        require_in_window(self.bank, energy, self.params.homogeneous)
        if self.params.p == 2.0:
            self._rhs = shell_besov_norm(self.params, energy, self.bank)
        else:
            self._rhs = lp_besov_norm(self.params, SpectralField(self.grid, fhat),
                                      self.bank)

    def _time_derivative(self, state, fhat):
        """Spectra of the mild du/dt = Delta u + f, component by component.

        The components come one at a time in a single work array, refilled
        in place; a consumer that keeps them must copy.
        """
        for k, a in state.items():
            np.multiply(self.neg_absq, a, out=self._work)
            if fhat is not None and k in fhat:
                self._work += fhat[k]
            yield k, self._work
        if fhat is not None:
            for k, a in fhat.items():
                if k not in state:
                    yield k, a

    def node(self, m: int, t: float, state: dict[int, np.ndarray],
             fhat: dict[int, np.ndarray] | None):
        """One node of a stepped trajectory, from its spectra."""
        grid, bank, params = self.grid, self.bank, self.params
        if fhat is not self._fhat:
            self._fhat = fhat
            self.forcing(None if fhat is None
                         else bank.shell_energy(fhat.values()), fhat)
        e_u = bank.shell_energy(state.values())
        dudt = self._time_derivative(state, fhat)
        if params.p == 2.0:
            e_dt = bank.shell_energy(a for _, a in dudt)
            self.shell_rows(m, e_u[None], e_dt[None])
            return
        if m == 0:
            require_in_window(bank, e_u, params.homogeneous)
        interp = lp_besov_norm(self.interp, SpectralField(grid, state), bank)
        dudt = SpectralField(grid, {k: a.copy() for k, a in dudt})
        hess = SpectralField(grid, _hessian_spectra(state, grid))
        evol = lp_besov_norm(params, dudt, bank) + lp_besov_norm(params, hess, bank)
        self._add(m, np.array([interp]), np.array([evol]))

    def shell_rows(self, m0: int, e_u: np.ndarray, e_dt: np.ndarray):
        """p = 2 nodes m0, m0 + 1, ... from rows of shell energies of u, du/dt."""
        bank, params = self.bank, self.params
        if m0 == 0:
            require_in_window(bank, e_u[0], params.homogeneous)
        interp = shell_besov_norm(self.interp, e_u, bank)
        # |Hessian|^2 = |xi|^4 |u_hat|^2 pointwise
        evol = (shell_besov_norm(params, e_dt, bank)
                + shell_besov_norm(params, bank.shell_absq ** 2 * e_u, bank))
        self._add(m0, interp, evol)

    def _add(self, m0: int, interp: np.ndarray, evol: np.ndarray):
        tg, q = self.tg, self.params.q
        m = m0 + np.arange(interp.size)
        w = np.where((m == 0) | (m == tg.steps), 0.5 * tg.dt, tg.dt)
        if m0 == 0:
            self.rhs_u0 = float(interp[0])
        self.sup_norm = max(self.sup_norm, float(interp.max()))
        if math.isinf(q):
            self.evol_max = max(self.evol_max, float(evol.max()))
            self.rhs_max = max(self.rhs_max, self._rhs)
        else:
            self.evol_acc += float(np.sum(w * evol ** q))
            self.rhs_acc += float(np.sum(w)) * self._rhs ** q

    def lq_evolution(self) -> float:
        if math.isinf(self.params.q):
            return self.evol_max
        return self.evol_acc ** (1.0 / self.params.q)

    def lq_forcing(self) -> float:
        if math.isinf(self.params.q):
            return self.rhs_max
        return self.rhs_acc ** (1.0 / self.params.q)

    def report(self, system: str) -> MaxRegReport:
        """The measurement once every node has been seen."""
        lhs = self.sup_norm + self.lq_evolution()
        rhs = self.lq_forcing() + self.rhs_u0
        ratio = 0.0 if lhs == 0.0 else lhs / rhs
        return MaxRegReport(system, self.params.s, self.params.p, self.params.q,
                            self.tg.horizon, self.sup_norm, self.lq_evolution(),
                            self.lq_forcing(), self.rhs_u0, ratio)


# nodes x shells entries per block of the closed-form tables, about the size
# of one lattice array
_BLOCK_ENTRIES = 1 << 14


def _x_over_sinh(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x / sinh x and 1 - x / sinh x for x >= 0, each to a few ulps.

    Below x = 1 both come from the series sinh x - x = x^3 sum_j x^{2j} /
    (2j + 3)! (nine terms, remainder under 1e-19 relative), so the small
    1 - x / sinh x is not a difference of nearly equal numbers; above, from
    x / sinh x = 2x e^{-x} / (1 - e^{-2x}), which cannot overflow.
    """
    small = x < 1.0
    xs = np.where(small, x, 0.0)
    x2 = xs * xs
    series = np.zeros_like(xs)
    for j in reversed(range(9)):
        series = series * x2 + 1.0 / math.factorial(2 * j + 3)
    excess = xs * x2 * series
    sinh = xs + excess
    pos = sinh > 0
    rho = np.divide(xs, sinh, out=np.ones_like(xs), where=pos)
    rest = np.divide(excess, sinh, out=np.zeros_like(xs), where=pos)
    xl = np.where(small, 1.0, x)
    rho_large = 2.0 * xl * np.exp(-xl) / -np.expm1(-2.0 * xl)
    return (np.where(small, rho, rho_large),
            np.where(small, rest, 1.0 - rho_large))


@dataclass
class _ShellGrams:
    """Per-shell Gram sums Re sum_comp sum_{|k|^2 = s} conj(a) b of the data.

    u: the datum u0_hat, f: the forcing f_hat, r = u0_hat - f_hat / |xi|^2
    (u0_hat on the zero shell), the datum less the steady state of f.
    """

    uu: np.ndarray
    uf: np.ndarray
    ff: np.ndarray
    rr: np.ndarray
    rf: np.ndarray


def _shell_grams(bank: FilterBank, u_hat: dict[int, np.ndarray],
                 f_hat: dict[int, np.ndarray]) -> _ShellGrams:
    absq = bank.grid.freq_sq()
    inv_absq = np.divide(1.0, absq, out=np.zeros_like(absq), where=absq > 0)
    r_hat = dict(u_hat)
    for k, f in f_hat.items():
        r_hat[k] = r_hat[k] - inv_absq * f if k in r_hat else -inv_absq * f

    def cross(a, b):
        density = np.zeros(bank.grid.shape)
        for k in a.keys() & b.keys():
            density += a[k].real * b[k].real + a[k].imag * b[k].imag
        return bank.shell_sum(density)

    return _ShellGrams(bank.shell_energy(u_hat.values()), cross(u_hat, f_hat),
                       bank.shell_energy(f_hat.values()),
                       bank.shell_energy(r_hat.values()), cross(r_hat, f_hat))


def _closed_form_rows(bank: FilterBank, tg: TimeGrid, gram: _ShellGrams):
    """Shell energies (E_u, E_dt) of the stepped trajectory, blocks of nodes.

    The stepper's recurrence u_{m+1} = e^{-dt lam} u_m + dt e^{-dt lam / 2} f
    with a constant f sums to u_m = a u0 + g f, with a = e^{-t_m lam},
    g = (1 - a)(x / sinh x) / lam and x = lam dt / 2, and its mild time
    derivative -lam u_m + f to -lam a r + c f, with c = (1 - a)(1 - x / sinh x)
    (lam = 0: g = t_m, c = 1).  Each coefficient depends on |k|^2 alone, so
    the energies are quadratic forms in the per-shell Gram sums.  In the
    (r, f) basis a steady datum (r ~ 0) leaves E_dt ~ c^2 G_ff with no
    cancellation of O(1) terms.  Yields (m0, E_u, E_dt), rows m0, m0 + 1, ...
    """
    lam = bank.shell_absq
    flat = lam == 0.0
    rho, rest = _x_over_sinh(0.5 * tg.dt * lam)
    rho_over_lam = np.divide(rho, lam, out=np.zeros_like(lam), where=~flat)
    times = tg.nodes()
    block = max(1, _BLOCK_ENTRIES // lam.size)
    for m0 in range(0, times.size, block):
        t = times[m0:m0 + block, None]
        a = np.exp(-t * lam)
        one_minus_a = -np.expm1(-t * lam)
        g = one_minus_a * rho_over_lam
        g[:, flat] = t
        c = one_minus_a * rest
        c[:, flat] = 1.0
        la = lam * a
        e_u = a * a * gram.uu + 2.0 * a * g * gram.uf + g * g * gram.ff
        e_dt = la * la * gram.rr - 2.0 * la * c * gram.rf + c * c * gram.ff
        # round-off can take a near-zero quadratic form below 0
        np.maximum(e_u, 0.0, out=e_u)
        np.maximum(e_dt, 0.0, out=e_dt)
        yield m0, e_u, e_dt


def make_a_regular(seed_field: HalfField, lam: float = 1.0) -> HalfField:
    """Apply the resolvent twice; regular enough data for q = infinity reports."""
    pu, _ = leray_halfspace(seed_field)
    once = restrict(resolvent(lam, extend(pu)), pu.flavor)
    return restrict(resolvent(lam, extend(once)), pu.flavor)


def max_reg_report(traj: Trajectory, params: SpaceParams, system: str,
                   bank: FilterBank, a_regular_checked: bool = False) -> MaxRegReport:
    """Measure a stored trajectory against the maximal-regularity estimate.

    lhs: sup-in-time interpolation norm plus the L^q-in-time norm of the pair
    (du/dt, second derivatives), each in the base Besov norm.  rhs: L^q-in-time
    forcing norm plus the interpolation norm of the initial datum.  The ratio
    of the two sides is the reported quantity.
    """
    tg = traj.time_grid
    # a constant forcing is stored as one object at every node: transform it once
    f_spectra = {}
    for fm in traj.f:
        if fm is not None and id(fm) not in f_spectra:
            f_spectra[id(fm)] = _spectra_of(fm)

    acc = _MaxRegAccumulator(traj.u0.grid, bank, params, tg, a_regular_checked)
    for m, (um, fm, t) in enumerate(zip(traj.u, traj.f, tg.nodes())):
        acc.node(m, t, _spectra_of(um), None if fm is None else f_spectra[id(fm)])
    return acc.report(system)


def streaming_max_reg(system: str, f, u0: HalfField, horizon: float, steps: int,
                      params: SpaceParams, bank: FilterBank,
                      a_regular_checked: bool = False) -> MaxRegReport:
    """Solve and measure in one pass without storing the trajectory.

    Produces the same numbers as max_reg_report on the stored trajectory;
    used for sweeps whose snapshots would not fit comfortably in memory.
    At p = 2 with a constant or absent forcing the nodes come from the
    closed form, with no time stepping and no transform per node.
    """
    if system not in ("hodge_heat", "hodge_stokes", "navier_slip"):
        raise ValueError(f"unknown system {system!r}")
    tg = TimeGrid(horizon, steps)
    acc = _MaxRegAccumulator(u0.grid, bank, params, tg, a_regular_checked)
    if params.p == 2.0 and (f is None or isinstance(f, HalfField)):
        if system != "hodge_heat":
            u0 = _projected_datum(u0, auto_project=True)
            f, _ = _split_forcing(f, tg, keep_gradients=False)
        f_hat = {} if f is None else _spectra_of(f)
        gram = _shell_grams(bank, _spectra_of(u0), f_hat)
        acc.forcing(None if f is None else gram.ff)
        for m0, e_u, e_dt in _closed_form_rows(bank, tg, gram):
            acc.shell_rows(m0, e_u, e_dt)
    elif system == "hodge_heat":
        solve_hodge_heat(f, u0, horizon, steps, observer=acc.node, store=False)
    else:
        solve_hodge_stokes(f, u0, horizon, steps, observer=acc.node,
                           auto_project=True, store=False)
    return acc.report(system)
