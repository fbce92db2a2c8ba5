"""Time-dependent solvers on the half-space and the maximal-regularity harness.

All solvers are exact in space (spectral multipliers on the flavored
extension) and second order in time: one step of the mild solution reads

    u_{m+1} = e^{dt Delta} u_m + dt e^{(dt/2) Delta} f(t_m + dt/2),

the exponential-midpoint quadrature of the Duhamel integral.  Stepping the
semigroup itself is exact, so the only time error is the forcing quadrature.

The Hodge-Stokes semigroup is heat flow on the Leray-projected extension, a
multiplier between extend_spectra and restrict_spectra, so the Stokes-type
solvers split each input once, in spectra (leray_halfspace_hat), and step
the projected spectra as they come.  Only the parts a caller receives go
back to physical space: grad p of solve_navier_slip and the node fields a
Trajectory keeps.  The datum's gradient part is only measured, for the
auto_project=False guard, and never inverted.

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
exact regroupings of the lattice sums.  Only the window's shells, where some
block of the bank is nonzero, are summed; the leakage guard of an input reads
all shells.  A stepped node reduces the stepper's spectra,
du/dt = -|xi|^2 u_hat + f_hat summed pointwise, to shell energies and those
to block energies (shell_block_weights); stepped and closed-form nodes meet
at the same block energies and one evaluator, block_besov_norm.

max_reg_sweep is the one driver.  It measures a parameter set over every
horizon from one pair of extension spectra, the datum's and those of a
constant or absent forcing; nothing but the node times depends on the
horizon.  At p = 2 it does not step: the stepper's recurrence sums in closed
form (_closed_form), and five per-shell Gram sums of the datum and the
forcing, taken once, make E_u and E_dt on each of the window's shells a
quadratic form in a = e^{-t lam} and b = 1 - a.  A p = 2 block energy is
linear in the shell energies, so the coefficients, folded once per horizon
with the bank's block weights (_block_table), take the monomials a^2, ab
and b^2 of a block of nodes to the block energies of u, its Hessian and
du/dt in one matrix product; no per-shell row is formed.  There du/dt is
written in the basis (r, f), r = u0 - f / |xi|^2 the datum less the steady
state, since in the basis (u0, f) a steady datum leaves du/dt as the
difference of O(1) terms.  At p != 2 it steps a copy of the datum spectra
per horizon and reads each node from the stepper's spectra.  Two builders
form the spectra, each Leray-projected in spectra for the Stokes-type
systems (leray_hat, no physical P u0 or P f): sweep_spectra from a datum
and a forcing, one transform per component of each, and
steady_sweep_spectra from a forcing alone, the steady datum A^{-1} f_hat
built on the spectra f_hat the system steps (P f, or f for hodge_heat);
hodgehalf maxreg forms them once and measures every (s, p, q) on them.
max_reg_report measures a stored trajectory of any forcing, time-dependent
ones included; it is the oracle the driver is tested against.  Both refuse
an initial datum or forcing whose spectrum leaks out of the bank window,
reading the leakage from the same shell energies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .fields import Grid, SpectralField
from .halfspace import (HalfField, extend_spectra, half_l2_norm_from_spectra,
                        leray_halfspace_hat, restrict_spectra)
from .littlewood_paley import (FilterBank, SpaceParams, block_besov_norm,
                               completeness_ok, lp_besov_norm,
                               require_in_window, shell_besov_norm,
                               shell_block_weights)
from .operators import frac_symbol, leray_hat, resolvent_hat

SYSTEMS = ("hodge_heat", "hodge_stokes", "navier_slip")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform nodes t_m = m T / M on [0, T]."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not math.isfinite(self.horizon):
            raise ValueError(f"final time must be finite, got {self.horizon}")
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


class _Stepper:
    """Shared spectral stepping core working on extended spectra.

    The stepper takes ownership of the datum spectra it is given and updates
    the state arrays in place.
    """

    def __init__(self, u0_hat: SpectralField, time_grid: TimeGrid):
        self.grid = u0_hat.grid
        absq = self.grid.freq_sq()
        dt = time_grid.dt
        self.full_step = np.exp(-dt * absq)
        self.dt_half_step = dt * np.exp(-0.5 * dt * absq)
        self.state = u0_hat.comps
        # dt e^{(dt/2) Delta} f_hat for the forcing dict last seen: a constant
        # forcing passes the same dict at every step
        self._forcing = None
        self._terms = {}

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
    return extend_spectra(u).comps


class _Input:
    """One forcing input as a solve reads it: the extension spectra the
    stepper adds and the node field Trajectory.f stores, each made on first
    use from the one the input came as (a heat forcing as its field, a
    projected one as its spectra), and the gradient part ``grad`` of a
    Navier-slip node (None otherwise)."""

    def __init__(self, flavor: str, field: HalfField | None = None,
                 hat: SpectralField | None = None,
                 grad: HalfField | None = None):
        self.flavor, self.grad = flavor, grad
        self._field, self._hat = field, hat

    @property
    def hat(self) -> dict[int, np.ndarray]:
        if self._hat is None:
            self._hat = extend_spectra(self._field)
        return self._hat.comps

    @property
    def field(self) -> HalfField:
        if self._field is None:
            self._field = restrict_spectra(self._hat, self.flavor)
        return self._field


def _forcing_reader(f, read):
    """(mid, node) of a forcing argument: mid(m, t) the spectra the stepper
    adds over step m (t its midpoint), node(m, t) the _Input of node m; both
    None without forcing.

    ``read(u, node)`` makes the _Input of an input field, ``node`` telling a
    node input from a midpoint one.  A constant forcing is read once, for
    every node and step; a callable at every evaluation.
    """
    if f is None:
        return (lambda m, t: None), (lambda m, t: None)
    if isinstance(f, HalfField):
        entry = read(f, True)
        return (lambda m, t: entry.hat), (lambda m, t: entry)
    if callable(f):
        return (lambda m, t: read(f(t), False).hat,
                lambda m, t: read(f(t), True))
    raise TypeError("forcing must be None, a HalfField or a callable")


def _integrate(reader, u0_hat: SpectralField, flavor: str, tg: TimeGrid,
               observer, store: bool, gradients: list | None = None,
               u0: HalfField | None = None) -> Trajectory:
    """Step the datum spectra u0_hat through the forcing ``reader``
    (_forcing_reader) and visit the nodes.

    A kept node is restricted to a ``flavor`` half-field.  A node's forcing
    input is read once and serves its snapshot, its gradient part (appended
    to ``gradients`` when given) and the observer.  Trajectory.u0 is
    ``u0``, or the node-0 field when None.
    """
    mid, node = reader
    stepper = _Stepper(u0_hat, tg)
    times = tg.nodes()
    u_nodes, f_nodes = [], []

    def visit(m):
        keep = store or m in (0, tg.steps)
        if not keep and observer is None and gradients is None:
            return
        entry = node(m, times[m])
        if keep:
            u_nodes.append(restrict_spectra(
                SpectralField(stepper.grid, stepper.state), flavor))
            f_nodes.append(None if entry is None else entry.field)
        if gradients is not None and entry is not None:
            gradients.append(entry.grad)
        if observer is not None:
            observer(m, times[m], stepper.state,
                     None if entry is None else entry.hat)

    visit(0)
    for m in range(tg.steps):
        stepper.advance(mid(m, times[m] + 0.5 * tg.dt))
        visit(m + 1)
    return Trajectory(tg, u_nodes, f_nodes, u_nodes[0] if u0 is None else u0,
                      flavor)


def solve_hodge_heat(f, u0: HalfField, horizon: float, steps: int,
                     observer=None, store: bool = True) -> Trajectory:
    """Mild solution of the flavored Hodge-heat system du/dt - Delta u = f.

    The boundary conditions ride on the flavor of u0 and hold at every node.
    ``f`` may be None, a constant HalfField or a callable t -> HalfField.
    ``observer(m, t, state, f_hat)`` runs at every node when provided, with
    the stepper's extended state spectra (owned by the stepper, updated in
    place) and the node forcing spectra (None without forcing); pass
    store=False to keep only the endpoint snapshots (streaming use).
    """
    tg = TimeGrid(horizon, steps)
    reader = _forcing_reader(f, lambda u, node: _Input(u.flavor, field=u))
    return _integrate(reader, extend_spectra(u0), u0.flavor, tg, observer,
                      store, u0=u0)


def _projected_datum(u0: HalfField, auto_project: bool) -> SpectralField:
    """Spectra of the Leray projection of a Stokes datum,
    leray_halfspace_hat(u0)[0]; refuses a datum the projector moves by more
    than 1e-9 relative, |G u0| read from the gradient spectra, unless asked to
    project.  The gradient spectra are dropped on return."""
    if u0.flavor != "Ht":
        raise ValueError("the Hodge-Stokes solver uses the tangential flavor")
    pu0_hat, gu0_hat = leray_halfspace_hat(u0)
    if not auto_project:
        defect = half_l2_norm_from_spectra(gu0_hat)
        if defect > 1e-9 * max(u0.l2_norm(), 1e-300):
            raise ValueError(f"initial datum is not solenoidal (projector "
                             f"moves it by {defect:.3e}); pass "
                             f"auto_project=True")
    return pu0_hat


def _split_forcing(f, keep_gradients: bool):
    """The _forcing_reader of a Stokes-type forcing: each input Leray-split
    once, in spectra (leray_halfspace_hat), its projected spectra handed to
    the stepper and restricted only for the node fields Trajectory.f keeps.

    A constant forcing is split once, a callable at every evaluation.  With
    ``keep_gradients`` a node input also restricts its gradient part, grad p
    at that node; otherwise, and at a midpoint, the gradient spectra are
    dropped at once.
    """
    def read(u, node):
        p_hat, g_hat = leray_halfspace_hat(u)
        grad = None
        if keep_gradients and node:
            grad = restrict_spectra(g_hat, u.flavor)
        return _Input(u.flavor, hat=p_hat, grad=grad)

    return _forcing_reader(f, read)


def _stokes_flow(f, u0: HalfField, horizon: float, steps: int,
                 auto_project: bool, observer, store: bool,
                 gradients: list | None) -> Trajectory:
    tg = TimeGrid(horizon, steps)
    pu0_hat = _projected_datum(u0, auto_project)
    reader = _split_forcing(f, keep_gradients=gradients is not None)
    return _integrate(reader, pu0_hat, u0.flavor, tg, observer, store,
                      gradients)


def solve_hodge_stokes(f, u0: HalfField, horizon: float, steps: int,
                       auto_project: bool = False, observer=None,
                       store: bool = True) -> Trajectory:
    """Mild solution of the Hodge-Stokes system: heat flow of projected data.

    u0 must be solenoidal with vanishing tangential trace (checked via the
    Leray projector; pass auto_project=True to project instead of failing).
    The datum and the forcing are split in spectra and stepped from there
    (_projected_datum, _split_forcing): once if the forcing is constant, once
    per evaluation of a callable.  Trajectory.u0 is the projected datum, the
    node-0 field.
    """
    return _stokes_flow(f, u0, horizon, steps, auto_project, observer, store,
                        None)


def solve_navier_slip(f, u0: HalfField, horizon: float, steps: int,
                      auto_project: bool = False, observer=None,
                      store: bool = True) -> tuple[Trajectory, list]:
    """Stokes flow of a vector field under Navier-slip boundary conditions.

    Returns the velocity trajectory and the pressure-gradient snapshots
    grad p(t_m) = (I - P) f(t_m), the exact complement of the projected
    forcing, read from the same Leray split that projects the forcing; on the
    flat boundary the slip conditions coincide with the tangential Hodge
    conditions, so the velocity solve is the Stokes one.  For a constant or
    absent forcing every entry of grad p is the same field, as the entries
    of ``Trajectory.f`` are, so callers must not mutate them in place.
    ``observer`` and ``store`` act as in solve_hodge_heat: with store=False
    the trajectory keeps only the endpoint velocities, while grad p keeps
    every node, whatever the forcing.
    """
    if u0.degrees() != [1]:
        raise ValueError("the Navier-slip system runs on vector fields")
    grad_p = []
    traj = _stokes_flow(f, u0, horizon, steps, auto_project, observer, store,
                        grad_p)
    if not grad_p:
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
    derived spectra are not.  forcing() and node() guard on all shells;
    the closed form's caller guards its datum itself.  The norm of a
    forcing seen at consecutive nodes is computed once.  At p = 2 the nodes
    arrive as block energies of u, its Hessian and du/dt (blocks), from the
    stepper's spectra (node) or from the closed form directly.
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
            self._rhs = shell_besov_norm(
                self.params, energy[self.bank.window_shells], self.bank)
        else:
            self._rhs = lp_besov_norm(self.params, SpectralField(self.grid, fhat),
                                      self.bank)

    @functools.cached_property
    def _dt_buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """-|xi|^2 and the work array of _time_derivative, made at the first
        stepped node (the closed form needs neither)."""
        return -self.grid.freq_sq(), np.empty(self.grid.shape, dtype=complex)

    def _time_derivative(self, state, fhat):
        """Spectra of the mild du/dt = Delta u + f, component by component.

        The components come one at a time in a single work array, refilled
        in place; a consumer that keeps them must copy.
        """
        neg_absq, work = self._dt_buffers
        for k, a in state.items():
            np.multiply(neg_absq, a, out=work)
            if fhat is not None and k in fhat:
                work += fhat[k]
            yield k, work
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
        if m == 0:
            require_in_window(bank, e_u, params.homogeneous)
        dudt = self._time_derivative(state, fhat)
        if params.p == 2.0:
            window = bank.window_shells
            e_u = e_u[window]
            e_dt = bank.shell_energy(a for _, a in dudt)[window]
            # |Hessian|^2 = |xi|^4 |u_hat|^2 pointwise
            shells = np.stack((e_u, bank.window_absq ** 2 * e_u, e_dt))
            weights = shell_block_weights(params.homogeneous, bank)
            self.blocks(m, (shells @ weights.T)[None])
            return
        interp = lp_besov_norm(self.interp, SpectralField(grid, state), bank)
        dudt = SpectralField(grid, {k: a.copy() for k, a in dudt})
        hess = SpectralField(grid, _hessian_spectra(state, grid))
        evol = lp_besov_norm(params, dudt, bank) + lp_besov_norm(params, hess, bank)
        self._add(m, np.array([interp]), np.array([evol]))

    def blocks(self, m0: int, energies: np.ndarray):
        """p = 2 nodes m0, m0 + 1, ... from their block energies.

        ``energies[m, i]`` holds the energies of the blocks of
        shell_block_weights of u (i = 0), its Hessian (1) and du/dt (2) at
        node m0 + m.  The caller has guarded the datum's energy on all shells.
        """
        bank, params = self.bank, self.params
        interp = block_besov_norm(self.interp, energies[:, 0], bank)
        evol = (block_besov_norm(params, energies[:, 2], bank)
                + block_besov_norm(params, energies[:, 1], bank))
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


# nodes x shells entries per block of the closed-form monomials (three per
# shell), about the size of one lattice array
_BLOCK_ENTRIES = 1 << 14
_EXP_FLOOR = 350.0


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

    def on(self, shells: np.ndarray) -> "_ShellGrams":
        """The sums on the given shells only."""
        return _ShellGrams(self.uu[shells], self.uf[shells], self.ff[shells],
                           self.rr[shells], self.rf[shells])


def _shell_grams(bank: FilterBank, u_hat: dict[int, np.ndarray],
                 f_hat: dict[int, np.ndarray]) -> _ShellGrams:
    inv_absq = frac_symbol(bank.grid, -2.0)
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


@dataclass
class _ClosedForm:
    """Coefficients of the closed form's shell energies on the window's shells.

    Rows k = 0, 1, 2 weigh the monomials a^2, ab and b^2 of _monomials:
    E_u = sum_k u[k] m_k and E_dt = sum_k dt[k] m_k shell by shell.  On the
    zero shell (a = 1, b = 0) E_u also adds flat[0] t + flat[1] t^2.
    """

    u: np.ndarray
    dt: np.ndarray
    flat: np.ndarray


def _closed_form(lam: np.ndarray, dt: float, gram: _ShellGrams) -> _ClosedForm:
    """The closed form of the stepped trajectory's shell energies.

    The stepper's recurrence u_{m+1} = e^{-dt lam} u_m + dt e^{-dt lam / 2} f
    with a constant f sums to u_m = a u0 + b (rho / lam) f, with a = e^{-t_m
    lam}, b = 1 - a and rho = x / sinh x, x = lam dt / 2, and its mild time
    derivative -lam u_m + f to -lam a r + b rest f, rest = 1 - rho.  So
    E_u = a^2 G_uu + ab 2 (rho / lam) G_uf + b^2 (rho / lam)^2 G_ff and
    E_dt = a^2 lam^2 G_rr - ab 2 lam rest G_rf + b^2 rest^2 G_ff.  On the
    zero shell u_m = u0 + t_m f and du/dt = f.  In the (r, f) basis a steady
    datum (r ~ 0) leaves E_dt ~ b^2 rest^2 G_ff with no cancellation of O(1)
    terms.  ``lam`` and ``gram`` are on the window's shells, the zero shell
    first.
    """
    rho, rest = _x_over_sinh(0.5 * dt * lam)
    rho_over_lam = np.divide(rho, lam, out=np.zeros_like(lam), where=lam > 0)
    u_coef = np.stack((gram.uu, 2.0 * rho_over_lam * gram.uf,
                       rho_over_lam ** 2 * gram.ff))
    dt_coef = np.stack((lam ** 2 * gram.rr, -2.0 * lam * rest * gram.rf,
                        rest ** 2 * gram.ff))
    dt_coef[0, 0] = gram.ff[0]
    return _ClosedForm(u_coef, dt_coef,
                       np.array([2.0 * gram.uf[0], gram.ff[0]]))


def _monomials(t: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Rows (a^2, ab, b^2 on each shell of ``lam``, then t, t^2) at the node
    times ``t``, a column: a = e^{-t lam} and b = 1 - a = -expm1(-t lam).

    -t lam is floored at -_EXP_FLOOR.  An a below e^{-350} ~ 1e-152 moves
    a block energy by under 1e-152 of node 0's or of the node's own b^2
    terms, far below what a double resolves; floored there, a^2 stays a
    normal number, where np.exp and the products would take their subnormal
    path, tens of times slower per element.
    """
    shells = lam.size
    out = np.empty((t.shape[0], 3 * shells + 2))
    b = np.multiply(-t, lam)
    np.maximum(b, -_EXP_FLOOR, out=b)
    a = np.exp(b)
    np.expm1(b, out=b)
    np.negative(b, out=b)
    np.multiply(a, a, out=out[:, :shells])
    np.multiply(a, b, out=out[:, shells:2 * shells])
    np.multiply(b, b, out=out[:, 2 * shells:3 * shells])
    out[:, -2:] = t ** np.arange(1, 3)
    return out


def _block_table(form: _ClosedForm, weights: np.ndarray,
                 lam: np.ndarray) -> np.ndarray:
    """The closed form folded with the block weights (shell_block_weights).

    Row i of the table weighs monomial i of _monomials; column c * blocks + j
    gives block j's energy of u (c = 0), of its Hessian, |xi|^4 E_u (1), and
    of du/dt (2).  The t and t^2 rows reach only the zero shell's E_u, which
    the Hessian weighs by |xi|^4 = 0.
    """
    blocks = weights.shape[0]
    coef = np.stack((form.u, lam ** 2 * form.u, form.dt), axis=-1)
    table = np.zeros((coef.shape[0] * coef.shape[1] + 2, 3, blocks))
    table[:-2] = (coef[..., None]
                  * weights.T[:, None, :]).reshape(-1, 3, blocks)
    table[-2:, 0] = form.flat[:, None] * weights[:, 0]
    return table.reshape(table.shape[0], 3 * blocks)


def _closed_form_energies(bank: FilterBank, tg: TimeGrid, gram: _ShellGrams,
                          weights: np.ndarray) -> np.ndarray:
    """Block energies of the stepped trajectory at every node, as
    _MaxRegAccumulator.blocks takes them.

    ``gram`` holds the Gram sums on the window's shells, the only ones
    evaluated, as no block weighs the others.  One matrix product per block
    of nodes, their monomials by _block_table, gives the energies of every
    block of u, its Hessian and du/dt.
    """
    lam = bank.window_absq
    table = _block_table(_closed_form(lam, tg.dt, gram), weights, lam)
    times = tg.nodes()
    out = np.empty((times.size, table.shape[1]))
    block = max(1, _BLOCK_ENTRIES // lam.size)
    for m0 in range(0, times.size, block):
        np.matmul(_monomials(times[m0:m0 + block, None], lam), table,
                  out=out[m0:m0 + block])
    # round-off can take a near-zero block energy below 0
    np.maximum(out, 0.0, out=out)
    return out.reshape(times.size, 3, weights.shape[0])


def make_a_regular(seed_field: HalfField) -> HalfField:
    """Apply the resolvent at lambda = 1 twice to the Leray projection, all
    on the extension spectra; regular enough data for q = infinity reports."""
    once = resolvent_hat(1.0, leray_halfspace_hat(seed_field)[0])
    return restrict_spectra(resolvent_hat(1.0, once), "Ht")


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


def sweep_spectra(system: str, f: HalfField | None,
                  u0: HalfField) -> tuple[SpectralField, SpectralField | None]:
    """Extension spectra (u0_hat, f_hat) for max_reg_sweep of the datum
    ``u0`` and the constant forcing ``f``; f_hat is None without forcing.

    For the Stokes-type systems both are Leray-projected in spectra as the
    stepped solve projects them, behind the same guards: the datum by
    _projected_datum with auto_project, the forcing by leray_halfspace_hat.
    A time-dependent forcing has no such pair: max_reg_report measures it on
    a stored trajectory.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    if not (f is None or isinstance(f, HalfField)):
        raise TypeError("a sweep takes a constant HalfField forcing or None; "
                        "measure a time-dependent one with max_reg_report")
    if system == "hodge_heat":
        return extend_spectra(u0), None if f is None else extend_spectra(f)
    return (_projected_datum(u0, auto_project=True),
            None if f is None else leray_halfspace_hat(f)[0])


def steady_sweep_spectra(system: str,
                         f: HalfField) -> tuple[SpectralField, SpectralField]:
    """Extension spectra (u0_hat, f_hat) of a sweep from the steady datum
    A^{-1} f_hat of the constant forcing ``f``, for max_reg_sweep.

    The forcing's extension spectra are taken once, and the datum is formed
    on the spectra the system steps, never as a half-field: the Stokes-type
    systems step P f, Leray-split in spectra, hodge_heat the forcing as
    given.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    if f.flavor != "Ht":
        raise ValueError("the steady datum A^{-1} P f needs a tangential-flavor "
                         "forcing")
    f_hat = extend_spectra(f)
    if system != "hodge_heat":
        f_hat = leray_hat(f_hat)[0]
    return f_hat.apply_multiplier(frac_symbol(f.grid, -2.0)), f_hat


def max_reg_sweep(system: str, u0_hat: SpectralField,
                  f_hat: SpectralField | None, horizons, steps: int,
                  params: SpaceParams, bank: FilterBank,
                  a_regular_checked: bool = False) -> list[MaxRegReport]:
    """Measure over each horizon, without storing a trajectory.

    Produces, horizon by horizon, the numbers of max_reg_report on the
    stored trajectory of M = ``steps`` steps.  ``u0_hat`` and ``f_hat`` are
    the extension spectra of the datum and of a constant forcing (None: no
    forcing) as sweep_spectra or steady_sweep_spectra form them, measured as
    they are and left unchanged, so several parameter sets can read the same
    spectra.  The parameter guards of every report (completeness,
    q = infinity) run before the spectra are read.  At p = 2 the five shell
    Gram sums are taken once and each horizon sums the closed form straight
    into block energies, with no time stepping; at p != 2 each horizon steps
    a copy of the datum spectra (the stepper updates its state in place)
    through the same forcing spectra.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    if not (isinstance(u0_hat, SpectralField)
            and (f_hat is None or isinstance(f_hat, SpectralField))):
        raise TypeError("max_reg_sweep measures extension spectra; form them "
                        "from half-fields with sweep_spectra")
    accs = [_MaxRegAccumulator(u0_hat.grid, bank, params, TimeGrid(h, steps),
                               a_regular_checked) for h in horizons]
    f_comps = None if f_hat is None else f_hat.comps
    if params.p == 2.0:
        gram = _shell_grams(bank, u0_hat.comps, f_comps or {})
        # the inputs are guarded on all shells, the forcing first; node 0's
        # E_u is the datum's G_uu
        for acc in accs:
            acc.forcing(None if f_hat is None else gram.ff)
        require_in_window(bank, gram.uu, params.homogeneous)
        gram = gram.on(bank.window_shells)
        weights = shell_block_weights(params.homogeneous, bank)
        for acc in accs:
            acc.blocks(0, _closed_form_energies(bank, acc.tg, gram, weights))
    else:
        for acc in accs:
            stepper = _Stepper(u0_hat.map(np.copy), acc.tg)
            for m, t in enumerate(acc.tg.nodes()):
                if m:
                    stepper.advance(f_comps)
                acc.node(m, t, stepper.state, f_comps)
    return [acc.report(system) for acc in accs]


def streaming_max_reg(system: str, f, u0: HalfField, horizon: float, steps: int,
                      params: SpaceParams, bank: FilterBank,
                      a_regular_checked: bool = False) -> MaxRegReport:
    """max_reg_sweep of the half-field datum and forcing over one horizon."""
    return max_reg_sweep(system, *sweep_spectra(system, f, u0), [horizon],
                         steps, params, bank, a_regular_checked)[0]
