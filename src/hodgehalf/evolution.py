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
Trajectory keeps, which a solve given an observer does not return: it hands
the observer (m, t, state), every node's time and state spectra
(_integrate), keeps nothing and reads a node's forcing only for grad p.
The datum's gradient part is only measured, for the auto_project=False
guard, and never inverted.

The regularity reports measure the trajectory in time-Lebesgue / space-Besov
norms.  Spatial Besov norms of half-space fields are computed on the flavored
extension (a fixed bounded extension standing in for the quotient norm), and
the time derivative is evaluated through the mild identity du/dt = Delta u + f
rather than by finite differences, so the report never mixes time-stepping
error into the estimate it measures.

Every node reaches the report as the L^p norms of the dyadic blocks of u,
its Hessian and du/dt (_node_blocks, by block_norms), and _report sums a
whole trajectory's: _lq_aggregate over the blocks, then _time_lq, its
trapezoid twin over the nodes.  Reports measure q < infinity only: refusal
is the one rule that refuses one and words why.  A stepped node takes the
block norms of the stepper's spectra, with du/dt = -|xi|^2 u_hat + f_hat
summed pointwise and the Hessian's spectra from _hessian_spectra, at p = 2
from |k|^2 shell energies, at other p by inverting each block.  The
leakage guard of an input reads all shells.

max_reg_sweep is the one driver.  It measures a list of parameter sets
over every horizon from one pair of extension spectra, the datum's and
those of a constant or absent forcing.  Nothing but the node times depends
on the horizon, and a block's L^p norm depends only on the layout (p and
the homogeneity): s only weighs the blocks and q only sums them.  At p = 2
it does not step: the stepper's recurrence sums in closed form
(_closed_form), and five per-shell Gram sums of the datum and the forcing,
taken once per sweep, make E_u and E_dt on each of the window's shells a
quadratic form in a = e^{-t lam} and b = 1 - a.  A p = 2 block energy is
linear in the shell energies, so the coefficients, folded once per
homogeneity and horizon with the bank's block weights (_block_table), take
the monomials a^2, ab and b^2 of a block of nodes to the block energies of
u, its Hessian (by sum_{a,b} |xi_a xi_b|^2 = |xi|^4, |xi|^4 E_u) and du/dt
in one matrix product, and only the Parseval step block_l2_norms turns
them into block norms.  There du/dt is written in the basis (r, f),
r = u0 - f / |xi|^2 the datum less the steady state, since in the basis
(u0, f) a steady datum leaves du/dt as the difference of O(1) terms.  At
p != 2 one copy of the datum spectra, stepped per horizon, serves every
p != 2 set, and each node's blocks are measured once per layout.  Two
builders form the spectra, each Leray-projected in spectra for the
Stokes-type systems (leray_hat, no physical P u0 or P f): sweep_spectra
from a datum and a forcing, one transform per component of each, and
steady_sweep_spectra from a forcing alone, the steady datum A^{-1} f_hat
built on the spectra f_hat the system steps (P f, or f for hodge_heat);
hodgehalf maxreg forms them once and measures all its sets in one sweep.
max_reg_report measures a stored trajectory of any forcing, time-dependent
ones included, through the same _node_blocks and _report; it is the oracle
the driver is tested against.  Both refuse what refusal refuses, and
an initial datum or forcing whose spectrum leaks out of the bank window,
reading the leakage from the same shell energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Grid, SpectralField
from .halfspace import (HalfField, extend_spectra, half_l2_norm_from_spectra,
                        leray_halfspace_hat, restrict_spectra)
from .littlewood_paley import (FilterBank, SpaceParams, _lq_aggregate,
                               block_l2_norms, block_norms, completeness_ok,
                               require_in_window, shell_block_weights)
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
    """Node snapshots of a solve: solution and forcing."""

    time_grid: TimeGrid
    u: list
    f: list


class _Stepper:
    """Shared spectral stepping core working on extended spectra.

    The stepper takes ownership of the datum spectra it is given and updates
    the state arrays in place.
    """

    def __init__(self, u0_hat: SpectralField, time_grid: TimeGrid):
        absq = u0_hat.grid.freq_sq()
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
    """(mid, node) of a forcing argument: mid(t) the spectra the stepper adds
    over the step whose midpoint is t, node(t) the _Input of the node at t;
    both None without forcing.

    ``read(u, node)`` makes the _Input of an input field, ``node`` telling a
    node input from a midpoint one.  A constant forcing is read once, for
    every node and step; a callable at every evaluation.
    """
    if f is None:
        return (lambda t: None), (lambda t: None)
    if isinstance(f, HalfField):
        entry = read(f, True)
        return (lambda t: entry.hat), (lambda t: entry)
    if callable(f):
        return (lambda t: read(f(t), False).hat,
                lambda t: read(f(t), True))
    raise TypeError("forcing must be None, a HalfField or a callable")


def _integrate(mid, u0_hat: SpectralField, tg: TimeGrid, visit):
    """Step the datum spectra u0_hat, adding mid(t) over the step whose
    midpoint is t, and hand every node to ``visit(m, t, state)``, state the
    stepper's spectra, updated in place: the one loop that advances a
    _Stepper, and it keeps nothing."""
    stepper = _Stepper(u0_hat, tg)
    times = tg.nodes()
    visit(0, times[0], stepper.state)
    for m in range(tg.steps):
        stepper.advance(mid(times[m] + 0.5 * tg.dt))
        visit(m + 1, times[m + 1], stepper.state)


def _solve(tg: TimeGrid, u0_hat: SpectralField, reader, flavor: str,
           observer, gradients: list | None = None) -> Trajectory | None:
    """_integrate for a solve: pass every node to the ``observer`` and
    return None, or, without one, return the Trajectory of every node as a
    ``flavor`` half-field.  ``gradients``, when given, receives each node
    input's gradient part.  A node's forcing input is read only where it is
    kept: in the Trajectory or as a gradient."""
    mid, node = reader
    u_nodes, f_nodes = [], []

    def visit(m, t, state):
        entry = node(t) if observer is None or gradients is not None else None
        if gradients is not None and entry is not None:
            gradients.append(entry.grad)
        if observer is not None:
            return observer(m, t, state)
        u_nodes.append(restrict_spectra(SpectralField(u0_hat.grid, state),
                                        flavor))
        f_nodes.append(None if entry is None else entry.field)

    _integrate(mid, u0_hat, tg, visit)
    if observer is not None:
        return None
    return Trajectory(tg, u_nodes, f_nodes)


def solve_hodge_heat(f, u0: HalfField, horizon: float, steps: int,
                     observer=None) -> Trajectory | None:
    """Mild solution of the flavored Hodge-heat system du/dt - Delta u = f.

    The boundary conditions ride on the flavor of u0 and hold at every node.
    ``f`` may be None, a constant HalfField or a callable t -> HalfField.
    Without an ``observer`` the solve returns the Trajectory of every node.
    With one it returns None, builds no node field and reads no node forcing:
    ``observer(m, t, state)`` runs at every node with the stepper's extended
    state spectra, updated in place.
    """
    reader = _forcing_reader(f, lambda u, node: _Input(u.flavor, field=u))
    return _solve(TimeGrid(horizon, steps), extend_spectra(u0), reader,
                  u0.flavor, observer)


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


def solve_hodge_stokes(f, u0: HalfField, horizon: float, steps: int,
                       auto_project: bool = False,
                       observer=None) -> Trajectory | None:
    """Mild solution of the Hodge-Stokes system: heat flow of projected data.

    u0 must be solenoidal with vanishing tangential trace (checked via the
    Leray projector; pass auto_project=True to project instead of failing).
    The datum and the forcing are split in spectra and stepped from there
    (_projected_datum, _split_forcing): once if the forcing is constant, once
    per evaluation of a callable.  ``observer`` acts as in solve_hodge_heat;
    a Trajectory's u[0] is the projected datum.
    """
    return _solve(TimeGrid(horizon, steps), _projected_datum(u0, auto_project),
                  _split_forcing(f, keep_gradients=False), u0.flavor,
                  observer)


def solve_navier_slip(f, u0: HalfField, horizon: float, steps: int,
                      auto_project: bool = False,
                      observer=None) -> tuple[Trajectory | None, list]:
    """Stokes flow of a vector field under Navier-slip boundary conditions.

    Returns the velocity trajectory and the pressure-gradient snapshots
    grad p(t_m) = (I - P) f(t_m), the exact complement of the projected
    forcing, read from the same Leray split that projects the forcing; on the
    flat boundary the slip conditions coincide with the tangential Hodge
    conditions, so the velocity solve is the Stokes one.  For a constant or
    absent forcing every entry of grad p is the same field, as the entries
    of ``Trajectory.f`` are, so callers must not mutate them in place.
    With an ``observer`` (as in solve_hodge_heat) the trajectory is None;
    grad p keeps every node either way, so each node's forcing is split
    either way.
    """
    if u0.degrees() != [1]:
        raise ValueError("the Navier-slip system runs on vector fields")
    grad_p = []
    traj = _solve(TimeGrid(horizon, steps), _projected_datum(u0, auto_project),
                  _split_forcing(f, keep_gradients=True), u0.flavor,
                  observer, grad_p)
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

    def row(self) -> dict:
        return {"system": self.system, "s": self.s, "p": self.p,
                "q": self.q, "T": self.horizon,
                "lhs_sup": self.sup_interp_norm,
                "lhs_lq": self.lq_evolution_norm,
                "rhs_f": self.rhs_forcing_norm,
                "rhs_u0": self.rhs_initial_norm,
                "ratio": self.ratio}


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


def interpolation_space(params: SpaceParams) -> SpaceParams:
    """The interpolation space B^{s + 2 - 2/q}_{p,q} of the estimate measured
    in ``params``."""
    return SpaceParams(params.s + 2.0 - 2.0 / params.q, params.p, params.q,
                       homogeneous=params.homogeneous)


def refusal(params: SpaceParams, n: int) -> str:
    """Why a report in ``params`` in dimension ``n`` is refused, or "" when
    it is not: its interpolation space fails the completeness predicate, or
    q = infinity, which no report measures."""
    interp = interpolation_space(params)
    if not completeness_ok(interp, n):
        return (f"completeness predicate fails for s={interp.s:g} "
                f"p={params.p:g} q={params.q:g} n={n}")
    if math.isinf(params.q):
        return "q = inf is not measured; reports take q < inf"
    return ""


def _report_space(params: SpaceParams, n: int) -> SpaceParams:
    """The interpolation space of a report in ``params``, after the refusal
    every report runs."""
    reason = refusal(params, n)
    if reason:
        raise ValueError(f"refusing the report: {reason}")
    return interpolation_space(params)


def _node_blocks(layouts: list[SpaceParams], state: dict[int, np.ndarray],
                 fhat: dict[int, np.ndarray] | None, neg_absq: np.ndarray,
                 bank: FilterBank,
                 energy: np.ndarray | None = None) -> list[np.ndarray]:
    """The block norms of one node in each layout: for every entry of
    ``layouts``, whose p and homogeneity name a layout, a (3, blocks) array,
    rows u, its Hessian and du/dt.

    ``state`` and ``fhat`` are the node's spectra and its forcing's (None:
    no forcing); ``energy`` is the state's shell energy when known.  The
    Hessian (_hessian_spectra) and the mild du/dt = -|xi|^2 u_hat + f_hat,
    ``neg_absq`` = -|xi|^2, are formed once for every layout.
    """
    fhat = fhat or {}
    hess = list(_hessian_spectra(state, bank.grid).values())
    dt = [neg_absq * a + fhat[k] if k in fhat else neg_absq * a
          for k, a in state.items()]
    dt += [a for k, a in fhat.items() if k not in state]
    return [np.stack((block_norms(params, state.values(), bank, energy),
                      block_norms(params, hess, bank),
                      block_norms(params, dt, bank)))
            for params in layouts]


def _time_lq(values: np.ndarray, tg: TimeGrid, q: float) -> float:
    """The L^q norm in time of node values on ``tg``, q < infinity, by the
    trapezoid rule: the time-axis twin of _lq_aggregate."""
    w = np.full(values.size, tg.dt)
    w[[0, -1]] *= 0.5
    return float(np.sum(w * values ** q)) ** (1.0 / q)


def _report(system: str, params: SpaceParams, interp: SpaceParams,
            tg: TimeGrid, bank: FilterBank, norms: np.ndarray,
            rhs: np.ndarray) -> MaxRegReport:
    """The MaxRegReport of ``params`` over the nodes of ``tg``.

    ``norms[m, i]`` holds the block norms of u (i = 0), its Hessian (1) and
    du/dt (2) at node m, ``rhs[m]`` the Besov norm of node m's forcing.
    Node 0 carries the initial datum: its norm in the interpolation space
    ``interp`` is the rhs_u0 term.
    """
    sup = _lq_aggregate(interp, norms[:, 0], bank)
    evol = (_lq_aggregate(params, norms[:, 2], bank)
            + _lq_aggregate(params, norms[:, 1], bank))
    lhs_sup, rhs_u0 = float(sup.max()), float(sup[0])
    lhs_lq, rhs_f = _time_lq(evol, tg, params.q), _time_lq(rhs, tg, params.q)
    lhs = lhs_sup + lhs_lq
    ratio = 0.0 if lhs == 0.0 else lhs / (rhs_f + rhs_u0)
    return MaxRegReport(system, params.s, params.p, params.q, tg.horizon,
                        lhs_sup, lhs_lq, rhs_f, rhs_u0, ratio)


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
    """Block energies of the stepped trajectory at every node, shaped as
    _report takes their norms (block_l2_norms).

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
    on the extension spectra: a solenoidal datum in the domain of A^2, A the
    Hodge-Stokes operator, the operator-regular data the q = infinity
    estimate of the theory asks for.  Reports refuse q = infinity
    (refusal)."""
    once = resolvent_hat(1.0, leray_halfspace_hat(seed_field)[0])
    return restrict_spectra(resolvent_hat(1.0, once), "Ht")


def max_reg_report(traj: Trajectory, params: SpaceParams, system: str,
                   bank: FilterBank) -> MaxRegReport:
    """Measure a stored trajectory against the maximal-regularity estimate.

    lhs: sup-in-time interpolation norm plus the L^q-in-time norm of the pair
    (du/dt, second derivatives), each in the base Besov norm.  rhs: L^q-in-time
    forcing norm plus the interpolation norm of the initial datum.  The ratio
    of the two sides is the reported quantity.
    """
    tg = traj.time_grid
    interp = _report_space(params, traj.u[0].grid.n)
    # a constant forcing is stored as one object at every node: transform,
    # guard and measure it once
    forcings = {}
    for fm in traj.f:
        if fm is not None and id(fm) not in forcings:
            fhat = extend_spectra(fm).comps
            energy = bank.shell_energy(fhat.values())
            require_in_window(bank, energy, params.homogeneous)
            forcings[id(fm)] = fhat, _lq_aggregate(
                params, block_norms(params, fhat.values(), bank, energy), bank)

    neg_absq = -traj.u[0].grid.freq_sq()
    norms, rhs = [], []
    for m, (um, fm) in enumerate(zip(traj.u, traj.f)):
        fhat, norm = (None, 0.0) if fm is None else forcings[id(fm)]
        state = extend_spectra(um).comps
        energy = None
        if m == 0:
            energy = bank.shell_energy(state.values())
            require_in_window(bank, energy, params.homogeneous)
        norms.append(_node_blocks([params], state, fhat, neg_absq, bank,
                                  energy)[0])
        rhs.append(norm)
    return _report(system, params, interp, tg, bank, np.array(norms),
                   np.array(rhs))


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
                  sets: list[SpaceParams], bank: FilterBank
                  ) -> list[MaxRegReport]:
    """Measure every parameter set over each horizon, without storing a
    trajectory.

    Produces the numbers of max_reg_report on the stored trajectory of
    M = ``steps`` steps, set by set and, within a set, horizon by horizon.
    ``u0_hat`` and ``f_hat`` are the extension spectra of the datum and of a
    constant forcing (None: no forcing) as sweep_spectra or
    steady_sweep_spectra form them, left unchanged.  The refusal of every
    set runs before the spectra are read.  The inputs' shell energies are taken once, and block norms once
    per layout: the forcing's per sweep, a node's per horizon.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    if not (isinstance(u0_hat, SpectralField)
            and (f_hat is None or isinstance(f_hat, SpectralField))):
        raise TypeError("max_reg_sweep measures extension spectra; form them "
                        "from half-fields with sweep_spectra")
    grids = [TimeGrid(h, steps) for h in horizons]
    interps = [_report_space(params, u0_hat.grid.n) for params in sets]
    layouts = {(params.p, params.homogeneous): params for params in sets}
    closed = {key[1] for key in layouts if key[0] == 2.0}
    stepped = [key for key in layouts if key[0] != 2.0]
    u_comps, f_comps = u0_hat.comps, None if f_hat is None else f_hat.comps
    if closed:
        gram = _shell_grams(bank, u_comps, f_comps or {})
        u_energy, f_energy = gram.uu, gram.ff
        gram = gram.on(bank.window_shells)
    else:
        u_energy = bank.shell_energy(u_comps.values())
        f_energy = None if f_comps is None else bank.shell_energy(
            f_comps.values())
    # the inputs are guarded on all shells, the forcing first
    for params in sets:
        if f_comps is not None:
            require_in_window(bank, f_energy, params.homogeneous)
        require_in_window(bank, u_energy, params.homogeneous)
    f_blocks = {} if f_comps is None else {
        key: block_norms(params, f_comps.values(), bank, f_energy)
        for key, params in layouts.items()}

    norms = {}  # (layout, horizon index) -> (M + 1, 3, blocks)
    for homogeneous in closed:
        weights = shell_block_weights(homogeneous, bank)
        for i, tg in enumerate(grids):
            norms[(2.0, homogeneous), i] = block_l2_norms(
                _closed_form_energies(bank, tg, gram, weights), bank)
    if stepped:
        neg_absq = -u0_hat.grid.freq_sq()
        stepped_sets = [layouts[key] for key in stepped]
        for i, tg in enumerate(grids):
            nodes = []
            _integrate(lambda t: f_comps, u0_hat.map(np.copy), tg,
                       lambda m, t, state: nodes.append(_node_blocks(
                           stepped_sets, state, f_comps, neg_absq, bank)))
            for k, key in enumerate(stepped):
                norms[key, i] = np.array([node[k] for node in nodes])

    reports = []
    for params, interp in zip(sets, interps):
        key = (params.p, params.homogeneous)
        rhs = 0.0 if f_comps is None else _lq_aggregate(params, f_blocks[key],
                                                        bank)
        reports += [_report(system, params, interp, tg, bank, norms[key, i],
                            np.full(tg.steps + 1, rhs))
                    for i, tg in enumerate(grids)]
    return reports


def streaming_max_reg(system: str, f, u0: HalfField, horizon: float, steps: int,
                      params: SpaceParams, bank: FilterBank) -> MaxRegReport:
    """max_reg_sweep of the half-field datum and forcing over one horizon,
    for one parameter set."""
    return max_reg_sweep(system, *sweep_spectra(system, f, u0), [horizon],
                         steps, [params], bank)[0]
