"""Half-space machinery: reflection extensions, traces, and Hodge operators.

The half-space sits inside the symmetric torus as the rows x_n >= 0 of the
last axis.  The boundary plane x_n = 0 is a grid plane, and the torus seam
x_n = -L (equivalently +L) is the second fixed point of the reflection
x_n -> -x_n.  A HalfField stores N/2 + 1 rows, x_n in {0, h, ..., L}; keeping
the seam row makes extension followed by restriction the identity on
symmetric fields, so reflection identities hold to round-off instead of to
quadrature accuracy.

Extension flavors follow the componentwise rule: under the tangential flavor
'Ht' a component whose multi-index contains the normal axis extends oddly
(Dirichlet reflection, boundary and seam rows forced to zero) and evenly
otherwise; the normal flavor 'Hn' swaps the rule; 'D' and 'N' force one rule
on every component.  The flavored extensions commute with d, delta, the
Helmholtz-Leray projector and functions of the Laplacian, so a half-space
operator is the whole-space one applied to the extension, then restricted.

Tangential transforms commute with the normal reflection, so the operators
below that work in spectra never transform the mirrored rows along a
tangential axis.  extend_spectra transforms the tangential axes on the
N/2 + 1 stored rows, parity-extends them and transforms the normal axis;
restrict_spectra runs the mirror image.  d_half, delta_half, hodge_resolvent
and hodge_heat are whole-space symbols between the two, so no transform of
theirs covers all n axes of the doubled torus.

The split decompose runs and the node reader of solve keep routes of their
own, with the same numbers, each tested against d_half and delta_half:
leray_halfspace and q_projector run leray_hat one block of first-axis
tangential frequency rows at a time (_half_leray_rows),
leray_halfspace_checked reads |delta_half Pu| and |d_half Gu| from the parts'
stored rows in tangential spectra (_incidence_norm_from_rows), and NodeReader
reads a node's columns from the extension spectra an evolution stepper holds.
"""

from __future__ import annotations

import numpy as np

from .algebra import degree, lowering, raising
from .fields import (FieldCore, FormField, Grid, SpectralField, _check_same_grid,
                     _random_components)
from .operators import (_LERAY, _apply_incidence, _d_hat, _delta_hat,
                        _leray_core, _refuse_mean, heat_hat, leray_hat,
                        resolvent_hat)

FLAVORS = ("D", "N", "Ht", "Hn")


def half_shape(grid: Grid) -> tuple[int, ...]:
    return (grid.points,) * (grid.n - 1) + (grid.points // 2 + 1,)


def component_parity(flavor: str, mask: int, n: int) -> int:
    """-1 for odd (Dirichlet) extension of this component, +1 for even."""
    if flavor == "D":
        return -1
    if flavor == "N":
        return 1
    normal_bit = mask >> (n - 1) & 1
    if flavor == "Ht":
        return -1 if normal_bit else 1
    if flavor == "Hn":
        return 1 if normal_bit else -1
    raise ValueError(f"unknown boundary flavor {flavor!r}")


class HalfField(FieldCore):
    """Algebra-valued samples on the half-grid x_n >= 0, tagged with a flavor.

    L^2 pairings and norms are read on the N/2 + 1 stored rows with the DCT-I
    trapezoid weights: 1 on interior rows and, on the boundary and seam rows,
    1/2 for a component that extends evenly and 0 for one that extends oddly.
    The extension holds each interior row twice and each end row once (even)
    or not at all (odd, where extend writes zeros), so the weighted sum is
    exactly half the torus sum of the extension, without building it.
    """

    checked = True

    def __init__(self, grid: Grid, flavor: str, comps: dict[int, np.ndarray]):
        if flavor not in FLAVORS:
            raise ValueError(f"unknown boundary flavor {flavor!r}")
        if grid.n < 2:
            raise ValueError("half-space fields need dimension >= 2")
        self.flavor = flavor
        super().__init__(grid, comps, half_shape(grid))

    @classmethod
    def zero(cls, grid: Grid, flavor: str, masks=(0,)) -> "HalfField":
        shape = half_shape(grid)
        return cls(grid, flavor, {m: np.zeros(shape, dtype=complex) for m in masks})

    def _like(self, comps: dict[int, np.ndarray]) -> "HalfField":
        return HalfField(self.grid, self.flavor, comps)

    def _check_like(self, other: "HalfField"):
        super()._check_like(other)
        if self.flavor != other.flavor:
            raise ValueError(f"boundary flavor mismatch: {self.flavor} vs "
                             f"{other.flavor}")

    def l2_inner(self, other: "HalfField") -> complex:
        """L^2(half-space) pairing: half the torus pairing of the extensions.

        Valid only for matching flavors (matching componentwise parities make
        every product even in x_n); mixed flavors are rejected.
        """
        self._check_like(other)
        acc = 0.0 + 0.0j
        for m in set(self.comps) & set(other.comps):
            parity = component_parity(self.flavor, m, self.grid.n)
            acc += _half_row_sum(self.comps[m], parity, other.comps[m])
        return complex(acc * self.grid.cell_volume)

    def l2_norm(self) -> float:
        total = 0.0
        for m, a in self.comps.items():
            parity = component_parity(self.flavor, m, self.grid.n)
            total += _half_row_sum(a, parity, a).real
        return float(np.sqrt(max(total * self.grid.cell_volume, 0.0)))


def _half_row_lines(a: np.ndarray, parity: int,
                    b: np.ndarray | None = None) -> np.ndarray:
    """Per line along x_n, the sum of a * conj(b) (of a alone when b is
    None) over the stored rows, with the trapezoid weights of a component of
    this parity.

    Each line sums its interior rows from a view (np.sum, or np.vecdot for
    the product) and adds its weighted end rows, so no weighted copy of a is
    made.  An odd component's end rows never enter the sum: a full sum less
    the end rows would cancel when they outweigh the rest.
    """
    end = 0.5 if parity > 0 else 0.0
    if b is None:
        lines = np.sum(a[..., 1:-1], axis=-1)
        if end:
            lines += end * (a[..., 0] + a[..., -1])
    else:
        lines = np.vecdot(b[..., 1:-1], a[..., 1:-1])
        if end:
            lines += end * (np.conj(b[..., 0]) * a[..., 0]
                            + np.conj(b[..., -1]) * a[..., -1])
    return lines


def _half_row_sum(a: np.ndarray, parity: int,
                  b: np.ndarray | None = None) -> complex:
    """Sum of a * conj(b) (of a alone when b is None) over the stored rows,
    with the trapezoid weights of a component of this parity
    (_half_row_lines): half the torus sum of the same product of the
    extensions."""
    return complex(np.sum(_half_row_lines(a, parity, b)))


# ---------------------------------------------------------------------------
# extension / restriction / symmetrization
# ---------------------------------------------------------------------------

def _extend_array(arr: np.ndarray, parity: int, points: int,
                  out: np.ndarray | None = None) -> np.ndarray:
    """The ``parity`` extension of stored rows to the torus' ``points`` rows
    along x_n, written into ``out`` when given, else into a fresh array.

    Stored row j is torus row N/2 + j; the mirrored rows N/2 - j are copied
    (even) or negated (odd) straight from the stored rows with np.copyto and
    np.negative, so no scaled temporary is formed.  The seam row (torus row
    0) is the stored seam row for an even component; an odd reflection
    forces it and the boundary row to zero.
    """
    half = points // 2
    if out is None:
        out = np.empty(arr.shape[:-1] + (points,), dtype=complex)
    np.copyto(out[..., half:], arr[..., :half])
    if parity > 0:
        np.copyto(out[..., 0], arr[..., half])
        np.copyto(out[..., 1:half], arr[..., half - 1:0:-1])
    else:
        np.negative(arr[..., half - 1:0:-1], out=out[..., 1:half])
        out[..., [0, half]] = 0.0
    return out


def extend(u: HalfField) -> FormField:
    """Flavored reflection extension to the full symmetric torus."""
    comps = {}
    for mask, arr in u.comps.items():
        parity = component_parity(u.flavor, mask, u.grid.n)
        comps[mask] = _extend_array(arr, parity, u.grid.points)
    return FormField(u.grid, comps)


def _restrict_array(arr: np.ndarray, parity: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """The stored rows of a torus array, written into ``out`` when given; an
    odd component's seam row is 0."""
    half = arr.shape[-1] // 2
    block = out
    if block is None:
        block = np.empty(arr.shape[:-1] + (half + 1,), dtype=complex)
    block[..., :half] = arr[..., half:]
    block[..., half] = arr[..., 0] if parity > 0 else 0.0
    return block


def restrict(U: FormField, flavor: str) -> HalfField:
    """Keep the rows x_n in {0, ..., L}; the seam row x_n = L wraps to -L."""
    comps = {}
    for mask, arr in U.comps.items():
        parity = component_parity(flavor, mask, U.grid.n)
        comps[mask] = _restrict_array(arr, parity)
    return HalfField(U.grid, flavor, comps)


def extend_spectra(u: HalfField) -> SpectralField:
    """Spectra of the flavored extension, forward_fft(extend(u)).

    The tangential axes are transformed on the N/2 + 1 stored rows, the
    rows are then parity-extended, and only the normal-axis transform runs
    over the doubled torus.
    """
    grid = u.grid
    tangential = tuple(range(grid.n - 1))
    comps = {}
    for mask, arr in u.comps.items():
        parity = component_parity(u.flavor, mask, grid.n)
        # one output array for all the tangential axes, then the normal
        # pass in place on the extension
        rows = np.fft.fftn(arr, axes=tangential, out=np.empty_like(arr))
        ext = _extend_array(rows, parity, grid.points)
        comps[mask] = np.fft.fftn(ext, axes=(grid.n - 1,), out=ext)
    return SpectralField(grid, comps)


def restrict_spectra(U_hat: SpectralField, flavor: str) -> HalfField:
    """The half-field whose flavored extension has these spectra,
    restrict(inverse_fft(U_hat), flavor).

    The normal axis is inverted over the doubled torus; the stored rows are
    kept as restrict keeps them, and only they are inverted along the
    tangential axes.
    """
    grid = U_hat.grid
    tangential = tuple(range(grid.n - 1))
    comps = {}
    for mask, a in U_hat.comps.items():
        parity = component_parity(flavor, mask, grid.n)
        rows = _restrict_array(np.fft.ifftn(a, axes=(grid.n - 1,)), parity)
        comps[mask] = np.fft.ifftn(rows, axes=tangential, out=rows)
    return HalfField(grid, flavor, comps)


# entries of the extension that one block of first-axis rows holds per
# component, N^(n-1) per row; chosen by measurement, it keeps 128^2, 32^3 and
# 16^3 in one block and cuts a 64^3 extension into eight
_BLOCK_ENTRIES = 1 << 15


def _block_rows(grid: Grid) -> int:
    """First-axis rows per block: max(1, _BLOCK_ENTRIES // N^(n-1)), at most
    N."""
    return min(grid.points,
               max(1, _BLOCK_ENTRIES // grid.points ** (grid.n - 1)))


def _row_blocks(grid: Grid) -> list[slice]:
    """Slices of the first axis, _block_rows rows each (the last one may be
    shorter), over which the normal-axis work of the Leray split and of its
    checks (_incidence_norm_from_rows) runs.  That work never mixes rows of
    the first axis, whether they hold samples or tangential frequencies."""
    rows = _block_rows(grid)
    return [slice(r, r + rows) for r in range(0, grid.points, rows)]


def _block_buffer(grid: Grid, last: int) -> np.ndarray:
    """An uninitialized array for one full block of first-axis rows, with
    ``last`` entries along x_n (N for an extension, N/2 + 1 for stored
    rows); a shorter last block uses its leading rows."""
    shape = (_block_rows(grid),) + (grid.points,) * (grid.n - 2) + (last,)
    return np.empty(shape, dtype=complex)


def reflect_normal(arr: np.ndarray) -> np.ndarray:
    """Samples of x -> arr at the reflected point (x', -x_n) on the torus."""
    points = arr.shape[-1]
    idx = (points - np.arange(points)) % points
    return np.take(arr, idx, axis=-1)


def symmetrize(U: FormField, flavor: str) -> FormField:
    """Project a torus field onto the exact symmetry class of a flavor."""
    comps = {}
    for mask, arr in U.comps.items():
        parity = component_parity(flavor, mask, U.grid.n)
        comps[mask] = 0.5 * (arr + parity * reflect_normal(arr))
    return FormField(U.grid, comps)


def random_half_field(grid: Grid, flavor: str, masks, seed: int = 0,
                      **kwargs) -> HalfField:
    """Random smooth half-field whose extension is exactly symmetric:
    restrict(symmetrize(random_form(...), flavor), flavor), bit for bit, with
    only the stored rows formed.  Stored row j is torus row N/2 + j, so its
    symmetrized value is 0.5 (a[N/2 + j] + p a[N/2 - j]); the seam row
    j = N/2 reads torus row 0 twice, and an odd component's seam is 0.  The
    sum or difference is written straight into the rows and then halved in
    place, which rounds as 0.5 * (a + p a') does.  The draw itself is
    random_form's raw arrays, on the slabs its band reaches; only the
    HalfField scans for non-finite samples, as every row is a sum or
    difference of the samples it reads."""
    half = grid.points // 2
    comps = {}
    for mask, a in _random_components(grid, masks, seed, **kwargs).items():
        even = component_parity(flavor, mask, grid.n) > 0
        rows = np.empty(half_shape(grid), dtype=complex)
        (np.add if even else np.subtract)(a[..., half:], a[..., half:0:-1],
                                          out=rows[..., :half])
        if even:
            np.add(a[..., 0], a[..., 0], out=rows[..., half])
        else:
            rows[..., half] = 0.0
        rows *= 0.5
        comps[mask] = rows
    return HalfField(grid, flavor, comps)


# ---------------------------------------------------------------------------
# derivatives through the extension
# ---------------------------------------------------------------------------

def _normal_derivative(rows: np.ndarray, parity: int, symbol: np.ndarray,
                       target_parity: int, dst: np.ndarray,
                       out: np.ndarray) -> np.ndarray:
    """The normal-axis multiplier ``symbol`` on the ``parity`` extension of
    one block of stored rows (_row_blocks), restricted with
    ``target_parity`` into ``dst``.  The extension is written into the
    leading rows of the block buffer ``out`` (_block_buffer) and transformed
    there in place, so a caller reuses one buffer over all its blocks."""
    ext = _extend_array(rows, parity, out.shape[-1], out=out[:len(rows)])
    normal = (ext.ndim - 1,)
    np.fft.fftn(ext, axes=normal, out=ext)
    ext *= symbol
    return _restrict_array(np.fft.ifftn(ext, axes=normal, out=ext),
                           target_parity, out=dst)


def d_half(u: HalfField) -> HalfField:
    """restrict(d(extend(u))), by d's symbol on the extension spectra."""
    return restrict_spectra(_d_hat(extend_spectra(u)), u.flavor)


def delta_half(u: HalfField) -> HalfField:
    """restrict(delta(extend(u))), by delta's symbol on the extension
    spectra."""
    return restrict_spectra(_delta_hat(extend_spectra(u)), u.flavor)


def _incidence_norm_from_rows(grid: Grid, flavor: str,
                              rows: dict[int, np.ndarray], table,
                              unit: complex) -> float:
    """|d_half(u)| for (raising, 1j), |delta_half(u)| for (lowering, -1j),
    for the half-field u whose stored rows have the tangential spectra
    ``rows``, with no tangential transform.

    Each target is formed one block of first-axis rows (_row_blocks) at a
    time, in a block-sized accumulator and work array, with one extension
    buffer for the normal derivatives (_block_buffer); nothing of the size
    of a component is allocated.  A tangential derivative is the
    multiplication by sign * unit * xi~_axis, with the block's slice of
    xi~_0; it keeps the component's parity, and an odd target's end rows
    weigh 0 in the trapezoid row sum, so the end rows extend zeroes never
    enter the norm.  A normal one is _normal_derivative on the
    spectra, which re-extends the restricted rows.  Each block writes its
    lines' trapezoid row sums (_half_row_lines) into one array of lines, so
    a target's sum is _half_row_sum's, bit for bit; the norm is that sum at
    the target's parity over N^(n-1), Parseval along the tangential axes.
    """
    normal = grid.n - 1
    coef = [unit * xi for xi in grid.odd_freqs()]
    terms: dict[int, list] = {}
    for mask in rows:
        for axis, target, sign in table[mask]:
            terms.setdefault(target, []).append((mask, axis, sign * coef[axis]))
    acc = _block_buffer(grid, grid.points // 2 + 1)
    work = np.empty_like(acc)
    ext = _block_buffer(grid, grid.points)
    lines = np.empty(half_shape(grid)[:-1], dtype=complex)
    total = 0.0
    for target, entries in terms.items():
        target_parity = component_parity(flavor, target, grid.n)
        for block in _row_blocks(grid):
            size = len(lines[block])
            for i, (mask, axis, symbol) in enumerate(entries):
                term = work[:size] if i else acc[:size]
                if axis == normal:
                    _normal_derivative(rows[mask][block],
                                       component_parity(flavor, mask, grid.n),
                                       symbol, target_parity, term, ext)
                else:
                    np.multiply(rows[mask][block],
                                symbol[block] if axis == 0 else symbol,
                                out=term)
                if i:
                    acc[:size] += term
            lines[block] = _half_row_lines(acc[:size], target_parity,
                                           acc[:size])
        total += np.sum(lines).real
    tangential_points = grid.points ** normal
    return float(np.sqrt(max(total * grid.cell_volume / tangential_points,
                             0.0)))


def half_l2_norm_from_spectra(U_hat: SpectralField) -> float:
    """L^2(half-space) norm of the half-field whose flavored extension has
    these spectra: by Parseval, the torus norm over sqrt 2.  It is not
    finite when a coefficient is not."""
    return float(U_hat.l2_norm() / np.sqrt(2.0))


class NodeReader:
    """The solve.csv columns of a node, read from its extension spectra.

    Built once per run for one (grid, flavor, masks); every call reads the
    spectra of one node, such as the state an evolution stepper hands its
    observer, and builds no field:

    - ``l2``: half_l2_norm_from_spectra, Parseval on the torus;
    - ``divergence``: |delta_half(u)| for the half-field u whose extension
      has these spectra (for spectra outside the flavor's symmetry class,
      the norm of the restriction of delta of the torus field), with delta's
      symbol accumulated in place into target arrays made once, then per
      target one normal-axis inverse transform in place, its stored rows
      (_restrict_array) in one buffer made once and summed by
      HalfField.l2_norm's own trapezoid rule (_half_row_sum), and Parseval
      along the tangential axes, which divides by N^(n-1) in place of
      inverting them;
    - ``tangential_trace``: |tangential_trace(u)|.  At the boundary row,
      torus index N/2, the normal phase is e^{i pi k_n} = (-1)^{k_n}, so
      each normal-bearing component's row has the tangential spectra
      sum_{k_n} (-1)^{k_n} U_hat(k', k_n) / N, and Parseval gives its norm
      with no transform.
    """

    def __init__(self, grid: Grid, flavor: str, masks):
        if flavor not in FLAVORS:
            raise ValueError(f"unknown boundary flavor {flavor!r}")
        self.grid = grid
        self.masks = frozenset(masks)
        self._table = lowering(grid.n)
        self._coef = [-1j * xi for xi in grid.odd_freqs()]
        targets = sorted({t for m in self.masks for _, t, _ in self._table[m]})
        self.targets = tuple(targets)
        self._acc = {t: np.empty(grid.shape, dtype=complex) for t in targets}
        self._work = np.empty(grid.shape, dtype=complex)
        self._parity = {t: component_parity(flavor, t, grid.n)
                        for t in targets}
        self._rows = np.empty(half_shape(grid), dtype=complex)
        tangential_points = grid.points ** (grid.n - 1)
        self._div_scale = grid.cell_volume / tangential_points
        self._trace_scale = grid.spacing ** (grid.n - 1) / tangential_points
        self._phases = (np.where(np.arange(grid.points) % 2, -1.0, 1.0)
                        / grid.points)

    def __call__(self, spectra: dict[int, np.ndarray]) -> dict[str, float]:
        if spectra.keys() != self.masks:
            raise ValueError(f"node components {sorted(spectra)} are not the "
                             f"reader's {sorted(self.masks)}")
        l2 = half_l2_norm_from_spectra(SpectralField(self.grid, spectra))
        return {"l2": l2, "divergence": self._divergence(spectra),
                "tangential_trace": self._tangential_trace(spectra)}

    def _divergence(self, spectra) -> float:
        _apply_incidence(self._table, self._coef, spectra, out=self._acc,
                         work=self._work)
        total = 0.0
        for t, acc in self._acc.items():
            np.fft.ifftn(acc, axes=(self.grid.n - 1,), out=acc)
            parity = self._parity[t]
            rows = _restrict_array(acc, parity, out=self._rows)
            total += _half_row_sum(rows, parity, rows).real
        return float(np.sqrt(total * self._div_scale))

    def _tangential_trace(self, spectra) -> float:
        nbit = 1 << (self.grid.n - 1)
        total = 0.0
        for mask, a in spectra.items():
            if mask & nbit:
                row = a @ self._phases
                total += np.vdot(row, row).real
        return float(np.sqrt(total * self._trace_scale))


def hodge_resolvent(lam, f: HalfField) -> HalfField:
    """Resolvent of the Hodge Laplacian with the boundary flavor of f.

    Realized by the reflection identity: solve on the extension spectra.
    The output satisfies the flavored boundary conditions exactly because the
    normal-bearing (resp. normal-free) components of the extension are odd.
    """
    return restrict_spectra(resolvent_hat(lam, extend_spectra(f)), f.flavor)


def hodge_heat(t: float, u0: HalfField) -> HalfField:
    """Heat semigroup of the Hodge Laplacian via the same reflection route."""
    return restrict_spectra(heat_hat(t, extend_spectra(u0)), u0.flavor)


# ---------------------------------------------------------------------------
# boundary traces
# ---------------------------------------------------------------------------

class BoundaryForm(FieldCore):
    """A form on the boundary plane, indexed by tangential multi-indices.

    For tangential traces the stored mask is the surviving index I' of a
    component u_{I', n}; for normal traces it is the tangential index I of a
    component that got wedged into dx_{(I, n)} (``wedged_normal=True``).
    """

    def __init__(self, grid: Grid, comps: dict[int, np.ndarray],
                 wedged_normal: bool = False):
        self.wedged_normal = wedged_normal
        super().__init__(grid, comps, (grid.points,) * (grid.n - 1))

    def _like(self, comps: dict[int, np.ndarray]) -> "BoundaryForm":
        return BoundaryForm(self.grid, comps, self.wedged_normal)

    def _check_like(self, other: "BoundaryForm"):
        super()._check_like(other)
        if self.wedged_normal != other.wedged_normal:
            raise ValueError("cannot combine a tangential and a normal trace")

    def l2_norm(self) -> float:
        cell = self.grid.spacing ** (self.grid.n - 1)
        total = sum(np.vdot(a, a).real for a in self.comps.values())
        return float(np.sqrt(total * cell))

    def pair_with_boundary_values(self, values: dict[int, np.ndarray]) -> complex:
        """Integral over the boundary of <self, values>, exact for band-limited rows.

        ``values`` maps ambient masks to boundary-row samples; for a normal
        trace the stored tangential mask I pairs with the ambient mask (I, n).
        """
        nbit = 1 << (self.grid.n - 1)
        cell = self.grid.spacing ** (self.grid.n - 1)
        acc = 0.0 + 0.0j
        for mask, arr in self.comps.items():
            ambient = (mask | nbit) if self.wedged_normal else mask
            if ambient in values:
                acc += np.sum(arr * np.conj(values[ambient]))
        return complex(acc * cell)


def _boundary_values(u, normal: bool) -> dict[int, np.ndarray]:
    """Boundary-plane samples per ambient mask of the components whose
    multi-index contains the normal axis (``normal``) or omits it.

    A HalfField gives its first stored row and a FormField its torus row
    x_n = 0, index N/2.
    """
    grid = u.grid
    nbit = 1 << (grid.n - 1)
    kept = {m: a for m, a in u.comps.items() if bool(m & nbit) == normal}
    if isinstance(u, HalfField):
        return {m: a[..., 0] for m, a in kept.items()}
    half = grid.points // 2
    return {m: a[..., half] for m, a in kept.items()}


def tangential_trace(u) -> BoundaryForm:
    """nu _| u at the boundary: (-1)^k sum over I' of u_{I', n}(., 0) dx_{I'}.

    ``u`` is a HalfField or a FormField; NodeReader reads its norm from the
    spectra of an extension.
    """
    nbit = 1 << (u.grid.n - 1)
    comps = {}
    for mask, row in _boundary_values(u, normal=True).items():
        sign = -1 if degree(mask) & 1 else 1
        comps[mask ^ nbit] = sign * row
    return BoundaryForm(u.grid, comps, wedged_normal=False)


def normal_trace(u) -> BoundaryForm:
    """nu ^ u at the boundary: (-1)^{k+1} sum over n-free I of u_I(., 0) dx_{(I, n)}."""
    comps = {}
    for mask, row in _boundary_values(u, normal=False).items():
        sign = 1 if degree(mask) & 1 else -1
        comps[mask] = sign * row
    return BoundaryForm(u.grid, comps, wedged_normal=True)


# ---------------------------------------------------------------------------
# half-domain quadrature (exact for band-limited integrands)
# ---------------------------------------------------------------------------

def half_domain_integral(values: np.ndarray, grid: Grid) -> complex:
    """Integral over x_n in [0, L] of the trigonometric interpolant of samples.

    Exact for integrands resolved on the lattice: tangential axes integrate
    to their zero modes, and the normal axis uses the closed-form integral of
    each Fourier mode over half the period.
    """
    if values.shape != grid.shape:
        raise ValueError("values must be sampled on the full grid")
    # the tangential zero-mode line of the n-D spectrum: the tangential sum,
    # transformed along the normal axis
    line = np.fft.fft(values.sum(axis=tuple(range(grid.n - 1))))
    points = grid.points
    k = np.fft.fftfreq(points) * points
    # int_0^L of one mode: L at k = 0, 0 for even k, and the e^{i pi k} phase
    # of the x = -L grid origin makes the odd-k weight -2 L i / (pi k).
    coeff = np.zeros(points, dtype=complex)
    coeff[0] = grid.length
    odd = (np.abs(k) % 2) == 1
    coeff[odd] = -2.0 * grid.length * 1j / (np.pi * k[odd])
    tangential_volume = (2.0 * grid.length) ** (grid.n - 1)
    return complex(tangential_volume * np.sum(line * coeff) / points ** grid.n)


def pointwise_pairing(u: FormField, v: FormField) -> np.ndarray:
    """<u(x), v(x)> at every grid point (Hermitian in the second argument)."""
    _check_same_grid(u.grid, v.grid)
    acc = np.zeros(u.grid.shape, dtype=complex)
    for m in set(u.comps) & set(v.comps):
        acc += u.comps[m] * np.conj(v.comps[m])
    return acc


def half_l2_inner(u: FormField, v: FormField) -> complex:
    """L^2 pairing over the half-domain of two full-grid fields."""
    return half_domain_integral(pointwise_pairing(u, v), u.grid)


# ---------------------------------------------------------------------------
# Hodge decomposition on the half-space
# ---------------------------------------------------------------------------

def remove_extended_mean(u: HalfField) -> tuple[HalfField, float]:
    """Subtract each component's extension mean; returns (field, worst mean).

    Odd-extending components have mean zero already; subtracting a constant
    from an even one preserves its symmetry class.  Used to re-anchor the
    zero mode of fields that passed through the single-precision container.
    """
    comps = {}
    worst = 0.0
    cells = u.grid.points ** u.grid.n
    for mask, arr in u.comps.items():
        parity = component_parity(u.flavor, mask, u.grid.n)
        if parity > 0:
            mean = 2.0 * _half_row_sum(arr, parity) / cells
            comps[mask] = arr - mean
            worst = max(worst, abs(mean))
        else:
            comps[mask] = arr
    return HalfField(u.grid, u.flavor, comps), worst


def _half_leray_rows(u: HalfField) -> tuple[dict, dict]:
    """The stored rows of both parts of leray_hat(extend_spectra(u)), in the
    flavor of u, still in tangential spectra, with restrict_spectra's numbers
    once _tangential_inverse runs on them; one block of first-axis tangential
    frequency rows at a time, so no array holds the whole extension.

    leray_hat's guard is read on the stored rows first: an extension's mean
    is twice the trapezoid mean of an even component (odd ones have none, as
    remove_extended_mean reads them) and its norm is sqrt 2 |u|, summed as
    HalfField.l2_norm sums it.  Then each component's tangential transform
    is taken once, into a fresh array.  Per block (_split_block) the rows
    are parity-extended into one block buffer per component, made once per
    call, transformed along the normal axis there, and split there by
    _leray_core, which writes P over the extension.  G is inverted along the
    normal axis and restricted into its output; P is inverted and restricted
    over the block's rows of u's own spectra, which the extension already
    holds, so u's spectra become Pu's rows.  A component of P that u lacks
    gets a fresh output.  So besides u, the call holds the two parts, the
    block buffers and one block's Leray temporaries.
    """
    grid, flavor = u.grid, u.flavor
    tangential = tuple(range(grid.n - 1))
    parity = {m: component_parity(flavor, m, grid.n) for m in range(1 << grid.n)}
    cells = grid.points ** grid.n
    worst = total = 0.0
    for m, a in u.comps.items():
        total += _half_row_sum(a, parity[m], a).real
        if parity[m] > 0:
            worst = max(worst, abs(2.0 * _half_row_sum(a, 1)) / cells)
    _refuse_mean(worst, np.sqrt(max(2.0 * total * grid.cell_volume, 0.0)),
                 _LERAY)
    rows = {m: np.fft.fftn(a, axes=tangential, out=np.empty_like(a))
            for m, a in u.comps.items()}
    buffers = {m: _block_buffer(grid, grid.points) for m in rows}
    parts: tuple[dict, dict] = ({}, {})
    for block in _row_blocks(grid):
        _split_block(grid, rows, block, buffers, parity, parts)
    return parts


def _split_block(grid: Grid, rows: dict[int, np.ndarray], block: slice,
                 buffers: dict[int, np.ndarray], parity: dict[int, int],
                 parts: tuple[dict, dict]) -> None:
    """One block of _half_leray_rows: extend, transform and split the
    block's rows in ``buffers``, then invert and restrict both parts into
    ``parts``, P over ``rows``.  Its temporaries die on return, so none
    outlives its block."""
    normal = grid.n - 1
    ext = {}
    for m, r in rows.items():
        e = _extend_array(r[block], parity[m], grid.points,
                          out=buffers[m][:len(r[block])])
        ext[m] = np.fft.fftn(e, axes=(normal,), out=e)
    xi = grid.odd_freqs()
    split = _leray_core(ext, [xi[0][block]] + xi[1:], out=ext)
    for part, out, own in zip(split, parts, (rows, {})):
        for m, a in part.items():
            if m not in out:
                out[m] = own[m] if m in own else np.empty(half_shape(grid),
                                                          dtype=complex)
            _restrict_array(np.fft.ifftn(a, axes=(normal,), out=a),
                            parity[m], out=out[m][block])


def _tangential_inverse(grid: Grid, flavor: str,
                        rows: dict[int, np.ndarray]) -> HalfField:
    """The half-field whose stored rows have the tangential spectra
    ``rows``, inverted in place."""
    tangential = tuple(range(grid.n - 1))
    for a in rows.values():
        np.fft.ifftn(a, axes=tangential, out=a)
    return HalfField(grid, flavor, rows)


def _half_leray(u: HalfField) -> tuple[HalfField, HalfField]:
    """restrict_spectra of both parts of leray_hat(extend_spectra(u)), in the
    flavor of u, with the same numbers (_half_leray_rows)."""
    return tuple(_tangential_inverse(u.grid, u.flavor, part)
                 for part in _half_leray_rows(u))


def _require_tangential(u: HalfField) -> None:
    if u.flavor != "Ht":
        raise ValueError("the Leray projector acts on tangential-flavor fields")


def leray_halfspace(u: HalfField) -> tuple[HalfField, HalfField]:
    """Helmholtz-Leray split of a tangential-flavor field: u = Pu + Gu.

    Pu is divergence-free with vanishing tangential trace; Gu is exact.
    Realized as restriction of the whole-space projector applied to the
    spectra of the tangential extension, which commutes with the flavored
    symmetry.
    """
    _require_tangential(u)
    return _half_leray(u)


def leray_halfspace_hat(u: HalfField) -> tuple[SpectralField, SpectralField]:
    """leray_halfspace(u) left in spectra: both parts of
    leray_hat(extend_spectra(u)), whose restrict_spectra are leray_halfspace's
    parts bit for bit.  It holds the whole extension, where leray_halfspace
    works one block of rows at a time; the evolution solvers step these
    spectra and restrict only the parts a caller receives."""
    _require_tangential(u)
    return leray_hat(extend_spectra(u))


def leray_halfspace_checked(u: HalfField
                            ) -> tuple[HalfField, HalfField, float, float]:
    """(Pu, Gu, |delta_half(Pu)|, |d_half(Gu)|): leray_halfspace(u) with the
    norms that show the split, read from the parts' stored rows while they
    are still tangential spectra (_incidence_norm_from_rows), before the
    same tangential inverse leray_halfspace takes.

    The split and the checks each run in block buffers made once per call,
    so besides u the call holds Pu, Gu and one set of block-sized arrays.
    The normal derivatives re-extend the restricted rows, so a wrong
    restriction shows in the norms; the tangential inverse is not checked
    here, but by the parts against u (split_residual).
    """
    _require_tangential(u)
    grid = u.grid
    p_rows, g_rows = _half_leray_rows(u)
    p_divergence = _incidence_norm_from_rows(grid, u.flavor, p_rows,
                                             lowering(grid.n), -1j)
    g_curl = _incidence_norm_from_rows(grid, u.flavor, g_rows,
                                       raising(grid.n), 1j)
    return (_tangential_inverse(grid, u.flavor, p_rows),
            _tangential_inverse(grid, u.flavor, g_rows), p_divergence, g_curl)


def split_residual(u: HalfField, pu: HalfField, gu: HalfField) -> float:
    """(pu + gu - u).l2_norm(), bit for bit, formed one component at a time
    in one work array, with no merged field."""
    u._check_like(pu)
    u._check_like(gu)
    work = np.empty(half_shape(u.grid), dtype=complex)
    total = 0.0
    # the masks in the order the merged fields would hold them
    for m in set(pu.comps) | set(gu.comps) | set(u.comps):
        np.add(pu.component(m), gu.component(m), out=work)
        np.subtract(work, u.component(m), out=work)
        parity = component_parity(u.flavor, m, u.grid.n)
        total += _half_row_sum(work, parity, work).real
    return float(np.sqrt(max(total * u.grid.cell_volume, 0.0)))


def q_projector(u: HalfField) -> tuple[HalfField, HalfField]:
    """Mirror split of a normal-flavor field: u = Qu + Ru.

    Qu is divergence-free (no boundary condition); Ru is exact with vanishing
    normal trace.  Same whole-space projector, normal-flavor extension.
    """
    if u.flavor != "Hn":
        raise ValueError("the mirror projector acts on normal-flavor fields")
    return _half_leray(u)


def hodge_stokes_apply(u: HalfField) -> HalfField:
    """The Stokes operator delta d on the projected class; equals -Delta there.

    Rejects inputs outside the domain (fields the projector moves by more
    than 1e-9 relative).
    """
    if u.flavor != "Ht":
        raise ValueError("the Hodge-Stokes operator uses the tangential flavor")
    pu, _ = leray_halfspace(u)
    defect = (u - pu).l2_norm()
    scale = max(u.l2_norm(), 1e-300)
    if defect > 1e-9 * scale:
        raise ValueError(f"field is not solenoidal: projector moves it by "
                         f"{defect / scale:.3e} relative")
    return delta_half(d_half(u))


# ---------------------------------------------------------------------------
# Navier-slip boundary conditions for vector fields
# ---------------------------------------------------------------------------

def _onesided_derivative_coeffs() -> np.ndarray:
    """Weights of the eighth-order one-sided first-derivative stencil on
    nodes 0..8."""
    nodes = np.arange(9, dtype=float)
    rhs = np.zeros(9)
    rhs[1] = 1.0
    vand = np.vander(nodes, increasing=True).T
    return np.linalg.solve(vand, rhs)


def normal_derivative_at_boundary(rows: np.ndarray, grid: Grid) -> np.ndarray:
    """One-sided finite-difference d/dx_n at x_n = 0 of half-grid samples.

    Honest for any smooth half-space data: no symmetry assumption enters.
    """
    w = _onesided_derivative_coeffs()
    out = np.zeros(rows.shape[:-1], dtype=complex)
    for i, c in enumerate(w):
        out += c * rows[..., i]
    return out / grid.spacing


def _tangential_derivative_row(row: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """Spectral tangential derivative of a boundary-plane sample array."""
    xi = grid.freq_axis()
    shape = [1] * (grid.n - 1)
    shape[axis] = grid.points
    mult = 1j * xi.reshape(shape)
    return np.fft.ifftn(np.fft.fftn(row) * mult)


def navier_slip_residual(u: HalfField) -> tuple[float, float]:
    """Boundary L^2 norms of (nu . u, tangential part of (grad u + grad u^T) nu).

    For a flat boundary with nu = -e_n the tangential stress rows are
    -(d_k u_n + d_n u_k) for k < n; the normal derivative is evaluated by a
    one-sided stencil so the check stays honest on generic fields.
    """
    grid = u.grid
    if u.degrees() != [1]:
        raise ValueError("Navier-slip conditions apply to vector fields")
    nbit = 1 << (grid.n - 1)
    cell = grid.spacing ** (grid.n - 1)
    un_row = u.component(nbit)[..., 0]
    normal_part = float(np.sqrt(np.sum(np.abs(un_row) ** 2) * cell))
    stress = 0.0
    for axis in range(grid.n - 1):
        dk_un = _tangential_derivative_row(un_row, grid, axis)
        dn_uk = normal_derivative_at_boundary(u.component(1 << axis), grid)
        row = dk_un + dn_uk
        stress += float(np.sum(np.abs(row) ** 2) * cell)
    return normal_part, float(np.sqrt(stress))


def hodge_bc_residual(u: HalfField) -> tuple[float, float]:
    """Boundary L^2 norms of (nu _| u, nu _| d u) for a tangential-flavor field."""
    return tangential_trace(u).l2_norm(), tangential_trace(d_half(u)).l2_norm()
