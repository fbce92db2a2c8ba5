"""Littlewood-Paley filter banks and Besov / Sobolev norms on the torus lattice.

The base cutoff is a smooth radial bump equal to 1 on the ball of radius 3/4
and supported in the ball of radius 4/3, built from the classical exp(-1/t)
mollifier.  The annulus filters psi_j(xi) = phi(2^(-j-1) xi) - phi(2^(-j) xi)
telescope exactly, are supported in 3 * 2^(j-2) <= |xi| <= 2^(j+3) / 3, and
adjacent-only overlap: psi_j psi_k = 0 for |j - k| >= 2.

A finite dyadic window [j_min, j_max] replaces j in Z.  Homogeneous norms
require the spectrum to live inside the covered band (low-frequency leakage
below the window is an error); inhomogeneous norms fold everything below the
unit scale into the low-pass block.

p = 2 norms are evaluated on |k|^2 shells.  Every symbol of the bank is a
function of |xi| alone, and |xi|^2 = (pi/L)^2 |k|^2 for the integer wave
vector k, so all lattice points with the same integer |k|^2 carry the same
symbol values.  By Parseval a p = 2 block norm is therefore a sum over shells
of psi_j^2 times the shell energy sum_comp sum_{|k|^2 = shell} |u_hat|^2;
one np.bincount gathers those energies and the band sums act on a few hundred
or thousand shells instead of every lattice point.  The reduction is exact:
it only regroups the terms of the sum.  The band sums read only the window's
shells (FilterBank.window_shells), those where some psi_j or the unit-scale
low pass is nonzero; every other shell would add an exact zero.  The leakage
guard still reads every shell, since leakage is the mass outside the window.

Every Besov norm is one evaluator in two parts.  block_norms gives the L^p
norm of each block, in _block_labels order, and is the only place that
branches on p: at p = 2 each block energy is one row of shell_block_weights
applied to the shell energies and its norm follows by Parseval
(block_l2_norms); any other p inverts each block.  _lq_aggregate sums the
2^{js}-weighted norms in l^q, for one set of blocks or one per node of a
trajectory.  evolution's closed form folds the weights into its own table
and shares only block_l2_norms.  The lattice tables (abs_freq, psi, low,
phi_unit) serve the physical-space blocks, p != 2 and the Sobolev norms and
are built on first use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fields import FormField, Grid, forward_fft, inverse_fft, lp_quadrature

LEAK_TOL = 1e-10


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def radial_cutoff(r: np.ndarray) -> np.ndarray:
    """The base profile phi as a function of |xi|: 1 on [0, 3/4], 0 from 4/3."""
    return _smooth_step((4.0 / 3.0 - np.asarray(r, dtype=float)) / (4.0 / 3.0 - 0.75))


@dataclass
class SpaceParams:
    """Names a Besov or Sobolev norm: (s, p, q, homogeneous, kind)."""

    s: float
    p: float
    q: float = 2.0
    homogeneous: bool = True
    kind: str = "besov"

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise ValueError(f"s must be finite, got {self.s}")
        if not 1.0 < self.p < math.inf:
            raise ValueError("p must lie in (1, inf)")
        if not 1.0 <= self.q:
            raise ValueError("q must lie in [1, inf]")
        if self.kind not in ("besov", "sobolev"):
            raise ValueError("kind must be 'besov' or 'sobolev'")


def completeness_ok(params: SpaceParams, n: int) -> bool:
    """Completeness predicate: s < n/p, or q = 1 and s <= n/p.

    Sobolev spaces use the q = p instance of the same predicate.
    """
    q = params.p if params.kind == "sobolev" else params.q
    if params.s < n / params.p:
        return True
    return q == 1 and params.s <= n / params.p


class FilterBank:
    """The dyadic family (phi_low, psi_{j_min} .. psi_{j_max}) on a grid lattice."""

    def __init__(self, grid: Grid, j_min: int, j_max: int):
        if j_min > j_max:
            raise ValueError("need j_min <= j_max")
        lattice_min = np.pi / grid.length
        upper = 2.0 ** (j_max + 3) / 3.0
        lower = 3.0 * 2.0 ** (j_min - 2)
        if upper > grid.nyquist + 1e-12:
            raise ValueError(f"psi_{j_max} support reaches {upper:.3g}, beyond "
                             f"the per-axis band limit {grid.nyquist:.3g}")
        if lower < lattice_min - 1e-12:
            raise ValueError(f"psi_{j_min} support starts at {lower:.3g}, below "
                             f"the smallest nonzero frequency {lattice_min:.3g}")
        self.grid = grid
        self.j_min = j_min
        self.j_max = j_max

        # |k|^2 shell tables for the p = 2 evaluator, built once per bank:
        # one bank serves every report of a CLI sweep unchanged
        k = np.rint(np.fft.fftfreq(grid.points) * grid.points).astype(np.int64)
        ksq = np.zeros(grid.shape, dtype=np.int64)
        for axis in range(grid.n):
            ksq = ksq + k.reshape((1,) * axis + (-1,) + (1,) * (grid.n - axis - 1)) ** 2
        # a presence table of the integer |k|^2 lists the shells in order,
        # and its running count numbers them
        ksq = ksq.ravel()
        present = np.bincount(ksq) > 0
        shells = np.flatnonzero(present)
        self.shell_index = (np.cumsum(present, dtype=np.intp) - 1)[ksq]
        self.shell_absq = (np.pi / grid.length) ** 2 * shells.astype(float)
        shell_abs = np.sqrt(self.shell_absq)
        psi_sq = np.array([_annulus(shell_abs, j) ** 2 for j in self.window])
        phi_unit_sq = radial_cutoff(shell_abs) ** 2
        # the shells some block weighs, the zero shell among them (phi_unit);
        # every other shell adds exact zeros to a p = 2 norm
        self.window_shells = np.flatnonzero(psi_sq.any(axis=0) | (phi_unit_sq > 0))
        self.window_absq = self.shell_absq[self.window_shells]
        self.shell_psi_sq = psi_sq[:, self.window_shells]
        self.shell_phi_unit_sq = phi_unit_sq[self.window_shells]
        self._shell_outside = {
            True: (shell_abs > 1.5 * 2.0 ** j_max) | (shell_abs < 2.0 ** j_min),
            False: shell_abs > 1.5 * 2.0 ** j_max}

    # lattice tables, built on first use: the p = 2 evaluator reads none
    @functools.cached_property
    def abs_freq(self) -> np.ndarray:
        return np.sqrt(self.grid.freq_sq())

    @functools.cached_property
    def psi(self) -> dict[int, np.ndarray]:
        return {j: _annulus(self.abs_freq, j) for j in self.window}

    @functools.cached_property
    def low(self) -> np.ndarray:
        return radial_cutoff(self.abs_freq / 2.0 ** self.j_min)

    @functools.cached_property
    def phi_unit(self) -> np.ndarray:
        """The unit-scale cutoff, the inhomogeneous low-pass block."""
        return radial_cutoff(self.abs_freq)

    @property
    def window(self) -> range:
        return range(self.j_min, self.j_max + 1)

    def covered_mask(self) -> np.ndarray:
        """Lattice points where blocks plus low pass telescope exactly to 1."""
        return self.abs_freq <= 1.5 * 2.0 ** self.j_max

    def shell_energy(self, spectra) -> np.ndarray:
        """Per-shell energy sum_comp sum_{|k|^2 = shell} |a|^2 of some spectra.

        Each array is read once, before the next is drawn, so a generator may
        hand out one work array refilled in place.
        """
        density = np.zeros(self.grid.shape)
        sq = np.empty(self.grid.shape)
        for a in spectra:
            np.square(a.real, out=sq)
            density += sq
            np.square(a.imag, out=sq)
            density += sq
        return self.shell_sum(density)

    def shell_sum(self, density: np.ndarray) -> np.ndarray:
        """Sum a lattice density over each |k|^2 shell."""
        return np.bincount(self.shell_index, weights=density.ravel(),
                           minlength=self.shell_absq.size)

    def shell_leakage(self, energy: np.ndarray, homogeneous: bool = True) -> float:
        """Fraction of the shell energy the window cannot fully represent."""
        total = float(energy.sum())
        bad = float(energy[self._shell_outside[homogeneous]].sum())
        return bad / total if total > 0 else 0.0

    def leakage(self, u: FormField, homogeneous: bool = True) -> float:
        """Fraction of spectral mass the window cannot fully represent."""
        energy = self.shell_energy(forward_fft(u).comps.values())
        return self.shell_leakage(energy, homogeneous)


def _annulus(absxi: np.ndarray, j: int) -> np.ndarray:
    """psi_j as a function of |xi|."""
    return radial_cutoff(absxi / 2.0 ** (j + 1)) - radial_cutoff(absxi / 2.0 ** j)


def require_in_window(bank: FilterBank, energy: np.ndarray,
                      homogeneous: bool = True) -> None:
    """Refuse data whose shell energy leaks more than LEAK_TOL out of the window."""
    leak = bank.shell_leakage(energy, homogeneous)
    if leak > LEAK_TOL:
        raise ValueError(f"spectral mass fraction {leak:.3e} escapes the bank "
                         f"window [{bank.j_min}, {bank.j_max}]")


def build_bank(grid: Grid, j_min: int, j_max: int) -> FilterBank:
    """Construct the Littlewood-Paley family over a dyadic window."""
    return FilterBank(grid, j_min, j_max)


def default_bank(grid: Grid) -> FilterBank:
    """Widest window the lattice supports."""
    j_max = int(math.floor(math.log2(3.0 * grid.nyquist / 8.0)))
    j_min = int(math.ceil(math.log2(np.pi / (3.0 * grid.length)) + 2))
    while 2.0 ** (j_max + 3) / 3.0 > grid.nyquist:
        j_max -= 1
    while 3.0 * 2.0 ** (j_min - 2) < np.pi / grid.length:
        j_min += 1
    if j_min > j_max:
        raise ValueError("lattice too coarse for a dyadic window")
    return FilterBank(grid, j_min, j_max)


def dyadic_block(bank: FilterBank, j: int, u: FormField) -> FormField:
    """The block at scale 2^j: inverse FFT of psi_j times the spectrum."""
    if j not in bank.psi:
        raise ValueError(f"block {j} outside the window [{bank.j_min}, {bank.j_max}]")
    return inverse_fft(forward_fft(u).apply_multiplier(bank.psi[j]))


def low_pass(bank: FilterBank, u: FormField) -> FormField:
    """The remainder below the window, phi(2^(-j_min) xi) times the spectrum."""
    return inverse_fft(forward_fft(u).apply_multiplier(bank.low))


def _block_labels(params: SpaceParams, bank: FilterBank) -> list[int]:
    """Scales j of the blocks a Besov norm aggregates.

    Homogeneous: the whole window.  Inhomogeneous: -1 labels the unit-scale
    low pass, followed by the window scales j >= 0.
    """
    if params.homogeneous:
        return list(bank.window)
    return [-1] + [j for j in bank.window if j >= 0]


def shell_block_weights(homogeneous: bool, bank: FilterBank) -> np.ndarray:
    """(blocks, window shells) weights of the p = 2 block energies.

    Row i weighs the shells of the i-th block of _block_labels: psi_j^2 over
    the window (FilterBank.shell_psi_sq) for homogeneous norms; the unit-scale
    low pass squared and the j >= 0 rows for inhomogeneous ones.  Read from
    the bank at every call.
    """
    if homogeneous:
        return bank.shell_psi_sq
    return np.vstack((bank.shell_phi_unit_sq,
                      bank.shell_psi_sq[np.asarray(bank.window) >= 0]))


def block_l2_norms(energies: np.ndarray, bank: FilterBank) -> np.ndarray:
    """L^2 norms of blocks from their energies, sqrt(E cell volume / N^n)
    by Parseval, for an array of energies of any shape."""
    scale = bank.grid.cell_volume / bank.grid.points ** bank.grid.n
    return np.sqrt(energies * scale)


def block_norms(params: SpaceParams, spectra, bank: FilterBank,
                energy: np.ndarray | None = None) -> np.ndarray:
    """L^p norms of the dyadic blocks of some spectra, in _block_labels order.

    ``spectra`` is a collection of component spectra; derived ones may stack
    more components than a form has (evolution._hessian_spectra).  This is
    the one place the Besov path branches on p.  p = 2 reads the block
    energies by Parseval from ``energy``, the shell energies on all shells
    (FilterBank.shell_energy of the spectra when None).  Any other p inverts
    each block and sums its pointwise magnitude by quadrature.  The caller
    guards the window (require_in_window).
    """
    if params.p == 2.0:
        if energy is None:
            energy = bank.shell_energy(spectra)
        weights = shell_block_weights(params.homogeneous, bank)
        return block_l2_norms(energy[bank.window_shells] @ weights.T, bank)
    labels = _block_labels(params, bank)
    if params.homogeneous:
        blocks = [bank.psi[j] for j in labels]
    else:
        blocks = [bank.phi_unit] + [bank.psi[j] for j in labels[1:]]
    norms = []
    for sym in blocks:
        mag_sq = sum(np.abs(np.fft.ifftn(a * sym)) ** 2 for a in spectra)
        norms.append(lp_quadrature(np.sqrt(mag_sq), bank.grid, params.p))
    return np.asarray(norms)


def _lq_aggregate(params: SpaceParams, norms: np.ndarray, bank: FilterBank):
    """The Besov norm of block norms: the l^q sum of 2^{js} times ``norms``
    over the last axis, the blocks of _block_labels (block_norms).

    A leading axis holds one set of blocks per row, a node of a trajectory
    say; the result is a float for one set, else one norm per row.
    """
    labels = np.asarray(_block_labels(params, bank), dtype=float)
    terms = 2.0 ** (params.s * labels) * norms
    if math.isinf(params.q):
        out = np.max(terms, axis=-1, initial=0.0)
    else:
        out = np.sum(terms ** params.q, axis=-1) ** (1.0 / params.q)
    return float(out) if out.ndim == 0 else out


def besov_norm(params: SpaceParams, u: FormField, bank: FilterBank) -> float:
    """Besov norm: the l^q aggregate of 2^{js} L^p block norms.

    Homogeneous: blocks over the window, with a leakage check at both ends.
    Inhomogeneous: the unit-scale low pass plays the block at j = -1 and
    only scales j >= 0 contribute.  The block norms come from block_norms,
    the sum from _lq_aggregate.
    """
    if params.kind != "besov":
        raise ValueError("params.kind must be 'besov'")
    spectra = forward_fft(u).comps.values()
    energy = bank.shell_energy(spectra)
    require_in_window(bank, energy, params.homogeneous)
    return _lq_aggregate(params, block_norms(params, spectra, bank, energy),
                         bank)


def sobolev_norm(params: SpaceParams, u: FormField, bank: FilterBank) -> float:
    """Sobolev norm: L^p of the resummed |xi|^s-filtered blocks.

    Homogeneous: | sum_j (-Delta)^{s/2} block_j u |_p over the window.
    Inhomogeneous: | (I - Delta)^{s/2} u |_p directly.
    """
    if params.kind != "sobolev":
        raise ValueError("params.kind must be 'sobolev'")
    grid = bank.grid
    uh = forward_fft(u)
    if params.homogeneous:
        require_in_window(bank, bank.shell_energy(uh.comps.values()))
        window_sum = np.zeros(grid.shape)
        for j in bank.window:
            window_sum = window_sum + bank.psi[j]
        absxi = bank.abs_freq
        symbol = np.zeros(grid.shape)
        nz = absxi > 0
        symbol[nz] = absxi[nz] ** params.s
        filtered = uh.apply_multiplier(symbol * window_sum)
    else:
        symbol = (1.0 + bank.abs_freq ** 2) ** (params.s / 2.0)
        filtered = uh.apply_multiplier(symbol)
    if params.p == 2.0:
        return filtered.l2_norm()
    return inverse_fft(filtered).lp_norm(params.p)


def space_norm(params: SpaceParams, u: FormField, bank: FilterBank) -> float:
    """Dispatch on params.kind."""
    if params.kind == "besov":
        return besov_norm(params, u, bank)
    return sobolev_norm(params, u, bank)
