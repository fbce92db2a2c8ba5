"""Whole-space differential operators realized as Fourier multipliers.

Everything here acts on the torus surrogate of R^n.  The exterior derivative
and coderivative act per frequency through the algebra symbols i xi ^ and
-i xi _| ; functions of the (Hodge) Laplacian are scalar radial multipliers
applied componentwise.

Zero-mode rule: every negative-power multiplier maps the xi = 0 coefficient
to 0, and operations that invert the Laplacian refuse inputs whose mean
exceeds MEAN_FREE_TOL times the L^2 norm, both read from the spectra they
already take.  This mirrors the restriction of homogeneous calculus to fields
whose spectrum avoids the origin.

Nyquist rule: the odd symbols of d and delta read xi~, which is xi with the
k = N/2 entry of every axis set to 0 (Grid.odd_freqs).  That mode is its own
mirror image, so only a zero symbol there commutes with the reflection
x_n -> -x_n and keeps the flavored extensions of the half-space in their
symmetry class; the Leray projector inverts sum xi~^2 to match, so it stays
an orthogonal projector on the Nyquist planes too.  The radial multipliers
(laplacian, resolvent, heat, frac_laplacian) and riesz keep the true xi, so
(d + delta)^2 = -Delta holds off the Nyquist planes only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import lowering, raising
from .fields import FormField, Grid, SpectralField, forward_fft, inverse_fft

MEAN_FREE_TOL = 1e-12


@dataclass(frozen=True)
class SectorPoint:
    """A spectral parameter lambda inside the open sector of half-angle mu."""

    lam: complex
    mu: float = 3.0 * np.pi / 4.0

    def __post_init__(self):
        lam = complex(self.lam)
        if not 0.0 <= self.mu < np.pi:
            raise ValueError("sector half-angle must lie in [0, pi)")
        if lam == 0:
            raise ValueError("lambda = 0 is not in any sector")
        if self.mu == 0.0:
            if not (lam.real > 0 and lam.imag == 0):
                raise ValueError("sector of angle 0 is the positive real axis")
        elif abs(np.angle(lam)) >= self.mu:
            raise ValueError(f"lambda = {lam} lies outside the sector of "
                             f"half-angle {self.mu}")


def _lam_value(lam) -> complex:
    """Accept a SectorPoint or a bare complex off the closed negative real axis."""
    if isinstance(lam, SectorPoint):
        return complex(lam.lam)
    lam = complex(lam)
    if lam != 0 and lam.imag == 0 and lam.real < 0:
        raise ValueError(f"lambda = {lam} lies on the negative real axis, "
                         "outside every sector")
    return lam


# ---------------------------------------------------------------------------
# d, delta, Hodge-Dirac
# ---------------------------------------------------------------------------

def _apply_incidence(table, coef, comps: dict[int, np.ndarray], out=None,
                     work=None) -> dict:
    """Sum sign * coef[axis] * comps[mask] into the targets of an incidence
    table (algebra.raising or algebra.lowering); axes whose coefficient is
    None are skipped.

    A target's first term is written by np.multiply and every later one is
    formed in one work array and added in place, so no temporary is made per
    term.  Given ``out`` (target -> array, for every target the table
    reaches) and ``work``, the sum goes into the caller's arrays: the first
    term overwrites a target, and a target that gets no term is zeroed.
    """
    acc = {} if out is None else out
    written = set()
    for mask, arr in comps.items():
        for axis, target, sign in table[mask]:
            if coef[axis] is None:
                continue
            factor = sign * coef[axis]
            if target not in written:
                written.add(target)
                acc[target] = np.multiply(factor, arr, out=acc.get(target))
                continue
            if work is None:
                work = np.empty_like(acc[target])
            np.multiply(factor, arr, out=work)
            acc[target] += work
    for target in acc.keys() - written:
        acc[target].fill(0.0)
    return acc


def _d_hat(uh: SpectralField) -> SpectralField:
    """Symbol i xi ^ . applied to the coefficient algebra at every frequency."""
    coef = [1j * xi for xi in uh.grid.odd_freqs()]
    return SpectralField(uh.grid, _apply_incidence(raising(uh.grid.n), coef, uh.comps))


def _delta_hat(uh: SpectralField) -> SpectralField:
    """Symbol -i xi _| . , the coderivative side of the same sign table."""
    coef = [-1j * xi for xi in uh.grid.odd_freqs()]
    return SpectralField(uh.grid, _apply_incidence(lowering(uh.grid.n), coef, uh.comps))


def d(u: FormField) -> FormField:
    """Exterior derivative; degree-raising, d o d = 0."""
    return inverse_fft(_d_hat(forward_fft(u)))


def delta(u: FormField) -> FormField:
    """Coderivative (interior derivative); degree-lowering, delta o delta = 0."""
    return inverse_fft(_delta_hat(forward_fft(u)))


def hodge_dirac(u: FormField) -> FormField:
    """d + delta; off the Nyquist planes its square is minus the Laplacian."""
    uh = forward_fft(u)
    return inverse_fft(_d_hat(uh) + _delta_hat(uh))


# ---------------------------------------------------------------------------
# functions of the Laplacian
# ---------------------------------------------------------------------------

def _refuse_mean(worst: float, norm: float, what: str):
    """Refuse a worst component mean above MEAN_FREE_TOL * |u|."""
    if worst > MEAN_FREE_TOL * max(norm, 1e-300):
        raise ValueError(f"{what} needs a mean-free field; component mean "
                         f"{worst:.3e} exceeds {MEAN_FREE_TOL:.0e} * |u|")


def _require_mean_free(uh: SpectralField, what: str):
    """Refuse a field whose component means exceed MEAN_FREE_TOL * |u|, read
    from its spectra: a mean is the zero-mode coefficient over N^n, |u| the
    Parseval norm."""
    npts = uh.grid.points ** uh.grid.n
    worst = max((abs(a.flat[0]) / npts for a in uh.comps.values()), default=0.0)
    _refuse_mean(worst, uh.l2_norm(), what)


def laplacian(u: FormField) -> FormField:
    """Componentwise Laplacian Delta u (multiplier -|xi|^2)."""
    return inverse_fft(forward_fft(u).apply_multiplier(-u.grid.freq_sq()))


def resolvent_hat(lam, fh: SpectralField) -> SpectralField:
    """The multiplier (lambda + |xi|^2)^(-1) of resolvent on spectra: lam is
    a complex number or a SectorPoint, and lam = 0 takes mean-free spectra
    only and applies frac_symbol(grid, -2), 0 on the zero mode."""
    lam = _lam_value(lam)
    if lam == 0:
        _require_mean_free(fh, "the resolvent at lambda = 0")
        return fh.apply_multiplier(frac_symbol(fh.grid, -2.0))
    return fh.apply_multiplier(1.0 / (lam + fh.grid.freq_sq()))


def resolvent(lam, f: FormField) -> FormField:
    """Solve lambda u - Delta u = f by resolvent_hat on the spectra of f."""
    return inverse_fft(resolvent_hat(lam, forward_fft(f)))


def heat_hat(t: float, uh: SpectralField) -> SpectralField:
    """The multiplier e^{-t |xi|^2} of heat on spectra, t >= 0."""
    if t < 0:
        raise ValueError("the heat semigroup needs t >= 0")
    return uh.apply_multiplier(np.exp(-t * uh.grid.freq_sq()))


def heat(t: float, u: FormField) -> FormField:
    """Heat semigroup e^{t Delta} u (multiplier e^{-t |xi|^2}), t >= 0."""
    return inverse_fft(heat_hat(t, forward_fft(u)))


def frac_symbol(grid: Grid, s: float) -> np.ndarray:
    """The multiplier |xi|^s of (-Delta)^{s/2}, 0 on the zero mode."""
    absq = grid.freq_sq()
    symbol = np.zeros(grid.shape)
    nz = absq > 0
    symbol[nz] = absq[nz] ** (s / 2.0)
    return symbol


def frac_laplacian(s: float, u: FormField) -> FormField:
    """(-Delta)^{s/2} u (multiplier |xi|^s); the zero mode is mapped to 0."""
    uh = forward_fft(u)
    if s < 0:
        _require_mean_free(uh, f"(-Delta)^({s}/2)")
    return inverse_fft(uh.apply_multiplier(frac_symbol(u.grid, s)))


def riesz(axis: int, u: FormField) -> FormField:
    """Riesz transform along one axis (symbol i xi_axis / |xi|), zero mode 0."""
    grid = u.grid
    if not 0 <= axis < grid.n:
        raise ValueError(f"axis {axis} out of range for dimension {grid.n}")
    absxi = np.sqrt(grid.freq_sq())
    xi = np.broadcast_to(grid.freqs()[axis], grid.shape)
    symbol = np.zeros(grid.shape, dtype=complex)
    nz = absxi > 0
    symbol[nz] = 1j * xi[nz] / absxi[nz]
    return inverse_fft(forward_fft(u).apply_multiplier(symbol))


# ---------------------------------------------------------------------------
# constant-coefficient algebra actions on fields
# ---------------------------------------------------------------------------

def hodge_star_field(u: FormField) -> FormField:
    """Pointwise Hodge star: each component moves to its complement with
    the sign that makes dx_I ^ *dx_I the volume form."""
    from .algebra import wedge_sign

    full = (1 << u.grid.n) - 1
    out: dict[int, np.ndarray] = {}
    for mask, arr in u.comps.items():
        comp = full ^ mask
        term = wedge_sign(mask, comp) * arr
        out[comp] = out[comp] + term if comp in out else term
    return FormField(u.grid, out)


def _const_action(table, vec, u: FormField) -> FormField:
    coef = [None if a == 0 else a for a in np.asarray(vec)]
    out = _apply_incidence(table, coef, u.comps)
    return FormField(u.grid, out) if out else FormField.zero(u.grid)


def wedge_const(vec, u: FormField) -> FormField:
    """Wedge a constant real covector onto a field, pointwise."""
    return _const_action(raising(u.grid.n), vec, u)


def interior_const(vec, u: FormField) -> FormField:
    """Contract a field with a constant real covector, pointwise."""
    return _const_action(lowering(u.grid.n), vec, u)


# ---------------------------------------------------------------------------
# Hodge decomposition on the whole space
# ---------------------------------------------------------------------------

_LERAY = "the Helmholtz-Leray projector"


def _leray_core(comps: dict[int, np.ndarray], xi: list[np.ndarray],
                out: dict[int, np.ndarray] | None = None) -> tuple[dict, dict]:
    """(P u_hat, G u_hat) of the spectra ``comps`` on the frequencies ``xi``
    (Grid.odd_freqs(), or a block of its rows): G = d Delta~^{-1} delta.

    delta's targets are fresh arrays, so Delta~^{-1} scales them in place.
    The zero mode, where sum xi~^2 vanishes, maps to 0; the guard against a
    mean is the caller's.  P is written into ``out[m]`` for the masks ``out``
    holds, which may be ``comps`` itself (P over the input, as u - G is
    elementwise), and into fresh arrays otherwise, with the same ufunc.
    """
    w = _apply_incidence(lowering(len(xi)), [-1j * x for x in xi], comps)
    # d delta + delta d has the symbol sum xi~^2; inverting that keeps P an
    # orthogonal projector on the Nyquist planes as well
    absq = sum(x ** 2 for x in xi)
    inv = np.divide(1.0, absq, out=np.zeros(absq.shape), where=absq > 0)
    for a in w.values():
        a *= inv
    del absq, inv  # freed before G's targets are made
    g = _apply_incidence(raising(len(xi)), [1j * x for x in xi], w)
    # P = u - G over the components of either, as field subtraction forms it
    out = {} if out is None else out
    p = {}
    for m in set(comps) | set(g):
        dst = out.get(m)
        if m in g:
            p[m] = np.subtract(comps.get(m, 0.0), g[m], out=dst)
        elif dst is None:
            p[m] = comps[m].copy()
        else:
            if dst is not comps[m]:
                np.copyto(dst, comps[m])
            p[m] = dst
    return p, g


def leray_hat(uh: SpectralField) -> tuple[SpectralField, SpectralField]:
    """The split of leray_wholespace on spectra: (P u_hat, G u_hat).

    The input must be mean-free (the projector is undefined on the zero
    mode); behind that guard, _leray_core does the split, the same core that
    halfspace runs on blocks of frequency rows of an extension.
    """
    _require_mean_free(uh, _LERAY)
    p, g = _leray_core(uh.comps, uh.grid.odd_freqs())
    return SpectralField(uh.grid, p), SpectralField(uh.grid, g)


def leray_wholespace(u: FormField) -> tuple[FormField, FormField]:
    """Split u = Pu + Gu with delta(Pu) = 0 and Gu = d (-Delta)^{-1} delta u.

    P is the generalized Helmholtz-Leray projector I - d (-Delta)^{-1} delta,
    applied to the spectra by leray_hat.
    """
    p_hat, g_hat = leray_hat(forward_fft(u))
    return inverse_fft(p_hat), inverse_fft(g_hat)


# ---------------------------------------------------------------------------
# spectral Sobolev seminorms
# ---------------------------------------------------------------------------

def grad_l2(u: FormField) -> float:
    """(sum_k |d_k u|_2^2)^(1/2), computed spectrally."""
    uh = forward_fft(u)
    absq = u.grid.freq_sq()
    total = sum(float(np.sum(absq * np.abs(a) ** 2)) for a in uh.comps.values())
    scale = u.grid.cell_volume / u.grid.points ** u.grid.n
    return float(np.sqrt(total * scale))


def hess_l2(u: FormField) -> float:
    """(sum_{k,l} |d_k d_l u|_2^2)^(1/2) = | |xi|^2 u^ |_2, computed spectrally."""
    uh = forward_fft(u)
    absq = u.grid.freq_sq()
    total = sum(float(np.sum(absq ** 2 * np.abs(a) ** 2)) for a in uh.comps.values())
    scale = u.grid.cell_volume / u.grid.points ** u.grid.n
    return float(np.sqrt(total * scale))


def resolvent_ratio(lam, f: FormField) -> float:
    """(|lam| |u|_2 + |lam|^(1/2) |grad u|_2 + |hess u|_2) / |f|_2 for the resolvent."""
    lam = _lam_value(lam)
    u = resolvent(lam, f)
    nf = f.l2_norm()
    return (abs(lam) * u.l2_norm() + abs(lam) ** 0.5 * grad_l2(u) + hess_l2(u)) / nf


def sector_sweep(f: FormField) -> list[dict]:
    """Resolvent-estimate sweep over a sector sample; returns one row per lambda.

    The sample: decade radii 1e-2 .. 1e2 and nine angles |theta| <= 3 pi/4.
    """
    rows = []
    for r in [10.0 ** e for e in range(-2, 3)]:
        for th in np.linspace(-3 * np.pi / 4, 3 * np.pi / 4, 9):
            lam = r * np.exp(1j * th)
            rows.append({"radius": r, "angle": th, "lam": lam,
                         "ratio": resolvent_ratio(lam, f)})
    return rows
