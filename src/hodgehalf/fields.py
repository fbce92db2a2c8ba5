"""Sampled algebra-valued fields on a uniform periodic grid, plus FFT transport.

A large torus [-L, L)^n stands in for R^n: every analytic test input decays
below round-off at the torus edge, so periodization error sits far under the
tolerances used by the verification suites.

Conventions.  The forward FFT is unnormalized (numpy's), the inverse carries
1/N^n, and the frequency lattice is in physical units xi = (pi/L) * integer,
so multiplier formulas use the true |xi|.  The coefficient at xi = 0 is the
grid sum, i.e. N^n times the mean.

Band draws (annulus_band, random_band) invert only the lattice lines that
can hold a coefficient.  An annulus r0 <= |xi| <= r1 has none outside the
per-axis slabs |xi_a| <= r1, two wrap-around runs of lines per axis; the
inverse runs axis by axis, last axis first as ifftn does, and along axis a
only over the lines whose earlier coordinates lie in the slabs.  A skipped
line is all zero and every other line gets the same one-axis transform, so
each draw is bit for bit ifftn(coeff * envelope) / max on the full lattice.
The generator is the floor: both Gaussians of every lattice point are still
drawn, so the stream and the seeds are those of a full-lattice draw, and
they take about 8 of the 14 ms of a 64^3 component.

Grid tables.  Grid.freq_sq() is built once per grid value (an equal Grid
built elsewhere gets the same object) and kept while the process lives, for
the GRID_TABLES grids asked for last: one read-only N^n float64 array per
grid, 2 MiB at 64^3, so at most 8 MiB at 64^3.  operators.frac_symbol and
littlewood_paley's banks are kept the same way; every such table is made
non-writeable (read_only), so no caller can change it for the others.
Keeping them pays only in a process that asks for a grid's tables again (a
benchmark or test loop, hodgehalf verify); a single command run from a shell
builds each table once either way.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .algebra import degree

_MAGIC = b"HHF1"


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L)^n with an even number of points per axis."""

    n: int
    points: int
    length: float = 16.0

    def __post_init__(self):
        if self.n < 1 or self.n > 4:
            raise ValueError("dimension must be in 1..4")
        if self.points < 4 or self.points % 2:
            raise ValueError("points per axis must be even and >= 4")
        if not 0 < self.length < math.inf:
            raise ValueError(f"half length must be finite and positive, got "
                             f"{self.length}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.length / self.points

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.n

    def axis_coords(self) -> np.ndarray:
        return -self.length + self.spacing * np.arange(self.points)

    def coords(self) -> list[np.ndarray]:
        """Open (broadcastable) coordinate arrays, one per axis."""
        x = self.axis_coords()
        return [x.reshape((1,) * m + (-1,) + (1,) * (self.n - m - 1))
                for m in range(self.n)]

    def freq_axis(self) -> np.ndarray:
        k = np.fft.fftfreq(self.points) * self.points
        return (np.pi / self.length) * k

    def freqs(self) -> list[np.ndarray]:
        """Open frequency arrays xi_m in physical units, FFT ordering."""
        xi = self.freq_axis()
        return [xi.reshape((1,) * m + (-1,) + (1,) * (self.n - m - 1))
                for m in range(self.n)]

    def odd_freqs(self) -> list[np.ndarray]:
        """freqs() with the Nyquist entry k = N/2 set to 0, for odd symbols.

        The Nyquist mode is its own mirror image (-N/2 = N/2 mod N), so an odd
        symbol such as i xi can only be equivariant under x -> -x there if it
        vanishes.
        """
        xi = self.freq_axis()
        xi[self.points // 2] = 0.0
        return [xi.reshape((1,) * m + (-1,) + (1,) * (self.n - m - 1))
                for m in range(self.n)]

    def freq_sq(self) -> np.ndarray:
        """|xi|^2 on the full lattice, one read-only array per grid value."""
        return _freq_sq(self)

    @property
    def nyquist(self) -> float:
        """Largest resolvable per-axis frequency magnitude."""
        return np.pi / self.length * (self.points // 2)


def read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made non-writeable: a table shared by every caller."""
    a.flags.writeable = False
    return a


# grid tables are kept for this many argument tuples (a grid, or a grid with
# an exponent or a window), the least recently used one dropped first
GRID_TABLES = 4


@functools.lru_cache(maxsize=GRID_TABLES)
def _freq_sq(grid: Grid) -> np.ndarray:
    out = np.zeros(grid.shape)
    for xi in grid.freqs():
        out = out + xi ** 2
    return read_only(out)


def _check_same_grid(a: Grid, b: Grid):
    if a != b:
        raise ValueError(f"grid mismatch: {a} vs {b}")


class FieldCore:
    """Components keyed by multi-index bitmask, one complex array each.

    Absent components are identically zero.  Instances are treated as values;
    operations return new fields, rebuilt through ``_like`` so a subclass
    keeps its tags.  Subclasses fix the sample shape and add their norms.
    ``checked`` subclasses refuse masks outside 0 <= mask < 2^n and
    non-finite samples.
    """

    checked = False

    def __init__(self, grid: Grid, comps: dict[int, np.ndarray], shape: tuple):
        self.grid = grid
        self._shape = shape
        self.comps = {}
        for mask, arr in comps.items():
            mask = int(mask)
            arr = np.asarray(arr, dtype=complex)
            if arr.shape != shape:
                raise ValueError(f"component {mask}: shape {arr.shape} does not "
                                 f"match the sample shape {shape}")
            if self.checked:
                if not 0 <= mask < 1 << grid.n:
                    raise ValueError(f"component mask {mask} is out of range "
                                     f"for dimension {grid.n}")
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"component {mask} has non-finite samples")
            self.comps[mask] = arr

    def _like(self, comps: dict[int, np.ndarray]):
        return type(self)(self.grid, comps)

    def _check_like(self, other):
        _check_same_grid(self.grid, other.grid)

    def degrees(self) -> list[int]:
        return sorted({degree(m) for m in self.comps})

    def masks(self) -> list[int]:
        return sorted(self.comps)

    def component(self, mask: int) -> np.ndarray:
        if mask in self.comps:
            return self.comps[mask]
        return np.zeros(self._shape, dtype=complex)

    def map(self, fn):
        return self._like({m: fn(a) for m, a in self.comps.items()})

    def _merge(self, other, op):
        self._check_like(other)
        masks = set(self.comps) | set(other.comps)
        return self._like({m: op(self.component(m), other.component(m))
                           for m in masks})

    def __add__(self, other):
        return self._merge(other, np.add)

    def __sub__(self, other):
        return self._merge(other, np.subtract)

    def __mul__(self, c):
        return self._like({m: a * c for m, a in self.comps.items()})

    __rmul__ = __mul__


class FormField(FieldCore):
    """Algebra-valued samples: one complex array per multi-index bitmask."""

    checked = True

    def __init__(self, grid: Grid, comps: dict[int, np.ndarray]):
        super().__init__(grid, comps, grid.shape)

    @classmethod
    def zero(cls, grid: Grid, masks=(0,)) -> "FormField":
        return cls(grid, {m: np.zeros(grid.shape, dtype=complex) for m in masks})

    # -- quadrature ---------------------------------------------------------

    def pointwise_abs(self) -> np.ndarray:
        """Euclidean magnitude over components at every grid point."""
        acc = np.zeros(self.grid.shape)
        for a in self.comps.values():
            acc += np.abs(a) ** 2
        return np.sqrt(acc)

    def l2_inner(self, other: "FormField") -> complex:
        _check_same_grid(self.grid, other.grid)
        acc = 0.0 + 0.0j
        for m in set(self.comps) & set(other.comps):
            acc += np.sum(self.comps[m] * np.conj(other.comps[m]))
        return complex(acc * self.grid.cell_volume)

    def l2_norm(self) -> float:
        return float(np.sqrt(max(self.l2_inner(self).real, 0.0)))

    def lp_norm(self, p: float) -> float:
        """Quadrature L^p norm of the pointwise magnitude; p = inf is the max."""
        return lp_quadrature(self.pointwise_abs(), self.grid, p)


class SpectralField(FieldCore):
    """Fourier coefficients of a FormField, same component layout.

    Unchecked: its data is derived, and derived spectra may stack extra
    components (such as Hessian entries) past 2^n.
    """

    def __init__(self, grid: Grid, comps: dict[int, np.ndarray]):
        super().__init__(grid, comps, grid.shape)

    def apply_multiplier(self, symbol: np.ndarray) -> "SpectralField":
        """Multiply every component by a frequency symbol array."""
        return self.map(lambda a: a * symbol)

    def l2_norm(self) -> float:
        """Parseval L^2 norm matching FormField.l2_norm; not finite when a
        coefficient is not."""
        total = sum(np.vdot(a, a).real for a in self.comps.values())
        scale = self.grid.cell_volume / self.grid.points ** self.grid.n
        return float(np.sqrt(total * scale))


def lp_quadrature(mag: np.ndarray, grid: Grid, p: float) -> float:
    """Quadrature L^p norm of pointwise magnitudes on the grid; p = inf is the max."""
    if p < 1:
        raise ValueError("p must satisfy 1 <= p <= inf")
    if np.isinf(p):
        return float(mag.max())
    return float((np.sum(mag ** p) * grid.cell_volume) ** (1.0 / p))


def forward_fft(u: FormField) -> SpectralField:
    return SpectralField(u.grid, {m: np.fft.fftn(a) for m, a in u.comps.items()})


def inverse_fft(uh: SpectralField) -> FormField:
    return FormField(uh.grid, {m: np.fft.ifftn(a) for m, a in uh.comps.items()})


# ---------------------------------------------------------------------------
# test-function synthesis
# ---------------------------------------------------------------------------

@dataclass
class TestFunctionSpec:
    """Recipe for an analytic or randomized test input.

    kinds:
      gaussian_bump  exp(-|x - center|^2 / width^2); width is the 1/e radius,
                     so samples beyond 6 widths sit below 1e-12 of the peak
      single_mode    exp(i x . mode), mode on the frequency lattice
      annulus_band   random spectrum supported in radii[0] <= |xi| <= radii[1]
      random_band    random spectrum with Gaussian envelope exp(-|xi|^2 w^2/2)
    """

    __test__ = False  # not a pytest class, despite the name

    kind: str
    center: tuple = ()
    width: float = 2.0
    radii: tuple = (0.75, 4.0 / 3.0)
    mode: tuple = ()
    seed: int = 0
    mean_free: bool = True
    amplitude: complex = 1.0


def synthesize(spec: TestFunctionSpec, grid: Grid, masks=(0,)) -> FormField:
    """Realize a TestFunctionSpec as a FormField with the given components,
    drawn in turn from one generator seeded with ``spec.seed``."""
    rng = np.random.default_rng(spec.seed)
    draw = _component_draw(spec, grid)
    return FormField(grid, {mask: draw(rng, first=i == 0)
                            for i, mask in enumerate(masks)})


def _component_draw(spec: TestFunctionSpec, grid: Grid):
    """The samples of one component of ``spec`` as a function of a generator
    and of whether it is the first component drawn.  A band kind makes its
    slabs and envelope here, once for every component drawn with it.  A
    later bump or mode takes a phase from the generator, and a bump also a
    centre offset of up to half a width per axis, so that no two components
    of one draw are equal."""
    if spec.kind == "gaussian_bump":
        def bump(rng, first):
            if first:
                return spec.amplitude * _gaussian(grid, spec.center, spec.width)
            center = np.add(spec.center or (0.0,) * grid.n,
                            spec.width * rng.uniform(-0.5, 0.5, grid.n))
            return (spec.amplitude * _phase(rng)
                    * _gaussian(grid, tuple(center), spec.width))
        return bump
    if spec.kind == "single_mode":
        def mode(rng, first):
            samples = spec.amplitude * _single_mode(grid, spec.mode)
            return samples if first else _phase(rng) * samples
        return mode
    if spec.kind == "annulus_band":
        return _BandDraw(grid, spec.radii, None)
    if spec.kind == "random_band":
        return _BandDraw(grid, None, spec.width, spec.mean_free)
    raise ValueError(f"unknown test-function kind {spec.kind!r}")


def _phase(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


def _gaussian(grid: Grid, center, width: float) -> np.ndarray:
    if width <= 0:
        raise ValueError("width must be positive")
    c = list(center) if center else [0.0] * grid.n
    # periodized separable product: three images per axis keep the sampled
    # function smooth across the torus seam (remainder ~ exp(-(3L/w)^2))
    out = np.ones(grid.shape)
    period = 2.0 * grid.length
    for m, x in enumerate(grid.coords()):
        factor = sum(np.exp(-(x - c[m] + k * period) ** 2 / width ** 2)
                     for k in (-1, 0, 1))
        out = out * factor
    return out.astype(complex)


def _single_mode(grid: Grid, mode) -> np.ndarray:
    xi0 = np.asarray(mode, dtype=float)
    if xi0.shape != (grid.n,):
        raise ValueError("mode must have one frequency per axis")
    step = np.pi / grid.length
    k = xi0 / step
    if np.max(np.abs(k - np.round(k))) > 1e-9:
        raise ValueError("mode is not on the frequency lattice")
    if np.max(np.abs(k)) > grid.points // 2 - 1:
        raise ValueError("mode exceeds the resolvable band")
    phase = np.zeros(grid.shape)
    for m, x in enumerate(grid.coords()):
        phase = phase + xi0[m] * x
    return np.exp(1j * phase)


def _slabs(keep: np.ndarray) -> list[slice]:
    """The runs of consecutive indices in the sorted index array ``keep``."""
    cuts = np.flatnonzero(np.diff(keep) != 1) + 1
    return [slice(int(run[0]), int(run[-1]) + 1)
            for run in np.split(keep, cuts) if run.size]


class _BandDraw:
    """Draws of one band kind on one grid: component samples from a generator.

    An annulus r0 <= |xi| <= r1 holds coefficients only where every
    |xi_a| <= r1, on two wrap-around slabs of lines per axis (one when the
    annulus reaches the Nyquist plane); the Gaussian envelope of random_band
    has one slab per axis, the whole axis.  The envelope is made once per
    draw, on each block of the slabs' product, from the same elementwise
    formula the full lattice would use, and shared read-only by every
    component.  Every lattice point outside the blocks has |xi| > r1, where
    the full envelope is exactly 0 (sqrt(fl(x^2)) = |x| in binary floating
    point, and adding squares only increases the sum).
    """

    def __init__(self, grid: Grid, radii, width, mean_free: bool = True):
        n = grid.n
        xi = grid.freq_axis()
        if radii is not None:
            r0, r1 = map(float, radii)
            # the lattice's largest |xi|, read from the per-axis extremes: the
            # rounded sum of squares is monotone in every term
            top = 0.0
            for _ in range(n):
                top = top + (xi ** 2).max()
            if r1 > np.sqrt(top):
                raise ValueError("annulus exceeds the resolvable band")
            slabs = _slabs(np.flatnonzero(np.abs(xi) <= r1))
        else:
            slabs = [slice(0, grid.points)]
        self.shape = grid.shape
        self.zero_mean = mean_free or radii is not None
        self.blocks = []
        for block in itertools.product(slabs, repeat=n):
            # |xi|^2 summed axis by axis, in the order of Grid.freq_sq
            absxi = np.sqrt(sum(xi[lines].reshape((-1,) + (1,) * (n - a - 1))
                                ** 2 for a, lines in enumerate(block)))
            if radii is not None:
                # smooth radial envelope vanishing at the annulus edges
                t = np.clip((absxi - r0) / (r1 - r0), 0.0, 1.0)
                envelope = np.where((absxi >= r0) & (absxi <= r1),
                                    np.sin(np.pi * t) ** 2, 0.0)
            else:
                envelope = np.exp(-absxi ** 2 * float(width) ** 2 / 2.0)
            envelope.flags.writeable = False
            self.blocks.append((block, envelope))
        # the one-axis inverse passes, last axis first as in ifftn: along
        # axis a only the lines whose earlier coordinates lie in the slabs
        # (the later axes are already transformed, so every line of them)
        self.passes = [(a, lead + (slice(None),) * (n - a))
                       for a in reversed(range(n))
                       for lead in itertools.product(slabs, repeat=a)]
        self._normals = np.empty((2,) + grid.shape)

    def __call__(self, rng, first: bool) -> np.ndarray:
        """One component: ifftn(coeff * envelope) / max over the torus, bit
        for bit, with the coefficients' real and imaginary parts the
        generator's next two shape-sized standard normal draws.  The first
        component is drawn as every other one."""
        normals = self._normals
        rng.standard_normal(out=normals)  # the stream of two shape-sized draws
        u = np.zeros(self.shape, dtype=complex)
        for block, envelope in self.blocks:
            np.multiply(normals[0][block], envelope, out=u.real[block])
            np.multiply(normals[1][block], envelope, out=u.imag[block])
        if self.zero_mean:
            u[(0,) * u.ndim] = 0.0
        for axis, lines in self.passes:
            view = u[lines]
            np.fft.ifftn(view, axes=(axis,), out=view)
        scale = np.abs(u).max()
        if scale > 0:
            u /= scale
        return u


def _random_components(grid: Grid, masks, seed: int = 0,
                       kind: str = "random_band", **kwargs) -> dict:
    """The raw, unchecked component arrays of random_form, by mask."""
    draw = _component_draw(TestFunctionSpec(kind=kind, **kwargs), grid)
    return {mask: draw(np.random.default_rng(seed * 1009 + i), first=i == 0)
            for i, mask in enumerate(sorted(masks))}


def random_form(grid: Grid, masks, seed: int = 0, kind: str = "random_band",
                **kwargs) -> FormField:
    """Random smooth field with independent components, seeded per component
    (seed * 1009 + i for the i-th mask in sorted order).  A band kind's slabs
    and envelope are made once for all components; the components are
    checked once, by the one FormField built from them."""
    return FormField(grid, _random_components(grid, masks, seed, kind,
                                              **kwargs))


# ---------------------------------------------------------------------------
# serialization: flat binary container + JSON sidecar
# ---------------------------------------------------------------------------

def save_field(path: str, u, metadata: dict | None = None):
    """Write a field to ``path`` (binary) and ``path + '.json'`` (sidecar).

    Binary layout: magic, int32 n, int32 N, float64 L, int32 component count,
    int32 masks, then little-endian complex64 payload per component, C-order.
    Half-space fields store their half-grid samples; the sidecar records the
    flavor so they round-trip.
    """
    from .halfspace import HalfField  # local import to avoid a cycle

    grid = u.grid
    meta = dict(metadata or {})
    if isinstance(u, HalfField):
        meta["field_type"] = "half"
        meta["flavor"] = u.flavor
    else:
        meta["field_type"] = "full"
    masks = u.masks()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<iid i", grid.n, grid.points, grid.length,
                             len(masks)))
        fh.write(struct.pack(f"<{len(masks)}i", *masks))
        for m in masks:
            fh.write(np.ascontiguousarray(u.comps[m], dtype="<c8"))
    meta.update(n=grid.n, points=grid.points, length=grid.length, masks=masks)
    with open(path + ".json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


def load_field(path: str):
    """Read a field written by save_field; returns FormField or HalfField.

    A container whose header, sidecar and payload size disagree, or whose
    sidecar describes no field, is refused with a ValueError that names the
    file, before any sample is read.  The samples are then read one
    component at a time through one reusable complex64 buffer into each
    component's complex128 array, so the payload is never held whole.
    """
    from .halfspace import HalfField, half_shape

    with open(path + ".json") as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: sidecar is not JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: sidecar is not a JSON object")
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a field container")
        head = fh.read(20)
        if len(head) != 20:
            raise ValueError(f"{path}: truncated header")
        n, points, length, ncomp = struct.unpack("<iid i", head)
        raw_masks = fh.read(4 * max(ncomp, 0))
        if len(raw_masks) != 4 * ncomp:
            raise ValueError(f"{path}: truncated or corrupt header")
        masks = list(struct.unpack(f"<{ncomp}i", raw_masks))
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        header = {"n": n, "points": points, "length": length, "masks": masks}
        for key, value in header.items():
            if meta.get(key) != value:
                raise ValueError(f"{path}: header has {key} = {value}, "
                                 f"sidecar has {meta.get(key)}")
        if len(set(masks)) != ncomp:
            raise ValueError(f"{path}: repeated component masks {masks}")
        try:
            grid = Grid(n, points, length)
            half = meta.get("field_type") == "half"
            if half and "flavor" not in meta:
                raise ValueError("half-field sidecar names no flavor")
            shape = half_shape(grid) if half else grid.shape
            count = int(np.prod(shape))
            if payload != 8 * count * ncomp:
                raise ValueError(f"payload has {payload} bytes, expected "
                                 f"{8 * count * ncomp} for {ncomp} components "
                                 f"of shape {shape}")
            buffer = np.empty(shape, dtype="<c8")
            comps = {}
            for m in masks:
                if fh.readinto(buffer) != buffer.nbytes:
                    raise ValueError("payload ended before its last sample")
                comps[m] = buffer.astype(complex)
            if half:
                return HalfField(grid, meta["flavor"], comps)
            return FormField(grid, comps)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
