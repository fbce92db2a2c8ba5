"""Grid, FFT transport, test-function synthesis, norms, and serialization."""

import itertools
import json
import math
import re
import struct

import numpy as np
import pytest

from hodgehalf.fields import (FormField, Grid, TestFunctionSpec, forward_fft,
                              inverse_fft, load_field, random_form, save_field,
                              synthesize)
from hodgehalf.halfspace import BoundaryForm


@pytest.fixture
def grid2():
    return Grid(2, 64, 16.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(2, 63, 16.0)  # odd
    with pytest.raises(ValueError):
        Grid(2, 64, -1.0)
    with pytest.raises(ValueError):
        Grid(5, 64, 16.0)


@pytest.mark.parametrize("length", [math.nan, math.inf])
def test_grid_refuses_a_length_not_finite_and_positive(length):
    # a NaN length has no order, so "length <= 0" would let it through, and
    # an infinite one would fail later, deep in a draw or a bank
    with pytest.raises(ValueError, match="half length must be finite and "
                                         "positive"):
        Grid(2, 16, length)


def test_grid_lattice(grid2):
    x = grid2.axis_coords()
    assert x[0] == -16.0 and abs(x[-1] - (16.0 - grid2.spacing)) < 1e-14
    xi = grid2.freq_axis()
    assert xi[0] == 0.0
    assert abs(xi[1] - np.pi / 16.0) < 1e-15


def test_fft_round_trip(grid2):
    u = random_form(grid2, [0, 1, 3], seed=0, width=2.0)
    v = inverse_fft(forward_fft(u))
    for m in u.comps:
        rel = np.abs(v.comps[m] - u.comps[m]).max() / np.abs(u.comps[m]).max()
        assert rel < 1e-12


def test_constant_spectrum(grid2):
    c = 2.0 - 1.0j
    u = FormField(grid2, {0: np.full(grid2.shape, c)})
    uh = forward_fft(u)
    assert abs(uh.comps[0][0, 0] - c * grid2.points ** 2) < 1e-9
    off = uh.comps[0].copy()
    off[0, 0] = 0
    assert np.abs(off).max() < 1e-9


def test_single_mode_spectrum(grid2):
    xi0 = (np.pi / 16.0 * 3, np.pi / 16.0 * -5)
    u = synthesize(TestFunctionSpec("single_mode", mode=xi0), grid2, (0,))
    uh = forward_fft(u)
    mags = np.abs(uh.comps[0])
    assert (mags > 1e-6).sum() == 1
    assert abs(mags[3, -5] - grid2.points ** 2) < 1e-6


def test_parseval_against_quadrature(grid2):
    u = random_form(grid2, [0, 1], seed=1, kind="random_band", width=1.5)
    direct = 0.0
    for arr in u.comps.values():
        direct += np.sum(np.abs(arr) ** 2) * grid2.cell_volume
    uh = forward_fft(u)
    spectral = sum(np.sum(np.abs(a) ** 2) for a in uh.comps.values())
    spectral *= grid2.cell_volume / grid2.points ** 2
    assert abs(direct - spectral) / direct < 1e-10
    assert abs(uh.l2_norm() - u.l2_norm()) / u.l2_norm() < 1e-10
    want = np.sqrt(spectral)
    assert abs(uh.l2_norm() - want) <= 1e-14 * want


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)],
                         ids=["nan", "inf", "imaginary_inf"])
def test_spectral_and_trace_norms_see_a_non_finite_coefficient(grid2, bad):
    uh = forward_fft(random_form(grid2, [0, 1], seed=4))
    uh.comps[1][3, 5] = bad
    assert not np.isfinite(uh.l2_norm())
    trace = BoundaryForm(grid2, {0: np.ones(grid2.points, dtype=complex)})
    trace.comps[0][2] = bad
    assert not np.isfinite(trace.l2_norm())


def test_translation_is_unimodular_phase(grid2):
    u = random_form(grid2, [0], seed=2, width=2.0)
    shifted = FormField(grid2, {0: np.roll(u.comps[0], 1, axis=0)})
    a, b = forward_fft(u).comps[0], forward_fft(shifted).comps[0]
    phase = np.exp(-1j * grid2.spacing * grid2.freqs()[0])
    expected = np.broadcast_to(phase, grid2.shape) * a
    assert np.abs(b - expected).max() < 1e-12 * np.abs(a).max()


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind, options", [
    ("gaussian_bump", {"width": 2.0, "center": (1.0, 2.0, 0.5)}),
    ("single_mode", {"mode": (np.pi / 4, -np.pi / 8, np.pi / 2)}),
    ("annulus_band", {"radii": (1.0, 3.0)}), ("random_band", {"width": 2.0})])
def test_no_two_components_of_a_draw_are_equal(kind, options):
    # a check that pairs two components sees a rule that swaps them only if
    # they differ; the first component is the one-mask draw
    grid, masks = Grid(3, 16, 8.0), list(range(1, 8))
    spec = TestFunctionSpec(kind, seed=3, **options)
    for draw in (lambda m: random_form(grid, m, seed=3, kind=kind, **options),
                 lambda m: synthesize(spec, grid, m)):
        u = draw(masks)
        for a, b in itertools.combinations(masks, 2):
            assert not np.allclose(u.comps[a], u.comps[b]), (a, b)
        assert np.array_equal(u.comps[1], draw([1]).comps[1])


def test_gaussian_decay(grid2):
    width = 1.5
    u = synthesize(TestFunctionSpec("gaussian_bump", width=width), grid2, (0,))
    peak = np.abs(u.comps[0]).max()
    r2 = np.zeros(grid2.shape)
    for x in grid2.coords():
        r2 = r2 + np.asarray(x) ** 2
    far = np.abs(u.comps[0])[r2 > (6 * width) ** 2]
    assert far.max() < 1e-12 * peak


def test_annulus_band_support(grid2):
    u = synthesize(TestFunctionSpec("annulus_band", radii=(0.75, 4 / 3), seed=3),
                   grid2, (0,))
    uh = forward_fft(u).comps[0]
    absxi = np.sqrt(grid2.freq_sq())
    outside = (absxi < 0.75 - 1e-12) | (absxi > 4 / 3 + 1e-12)
    assert np.abs(uh[outside]).max() < 1e-12 * np.abs(uh).max()
    # zero mode vanishes up to FFT round trip: S_0 class
    assert abs(uh[0, 0]) < 1e-12 * np.abs(uh).max()


BANDS = [("annulus_band", {"radii": (1.0, 2.5)}),
         ("random_band", {"width": 1.5})]


def _formula_envelope(grid, kind, kwargs):
    """The band envelope on the full lattice, from the kinds' formulas."""
    absxi = np.sqrt(grid.freq_sq())
    if kind == "annulus_band":
        r0, r1 = kwargs["radii"]
        t = np.clip((absxi - r0) / (r1 - r0), 0.0, 1.0)
        return np.where((absxi >= r0) & (absxi <= r1),
                        np.sin(np.pi * t) ** 2, 0.0)
    return np.exp(-absxi ** 2 * kwargs["width"] ** 2 / 2.0)


def _formula_draw(grid, kind, kwargs, seed, envelope):
    """ifftn(coeff * envelope) / max, coefficients from a generator seeded
    with ``seed``, on the full lattice."""
    rng = np.random.default_rng(seed)
    spectrum = (rng.standard_normal(grid.shape)
                + 1j * rng.standard_normal(grid.shape)) * envelope
    if kind == "annulus_band" or kwargs.get("mean_free", True):
        spectrum[(0,) * grid.n] = 0.0
    want = np.fft.ifftn(spectrum)
    return want / np.abs(want).max()


def _slab_lines(grid, kind, kwargs):
    """The lines of one axis that can hold a coefficient: |xi_a| <= r1 for an
    annulus, every line for the Gaussian envelope."""
    if kind == "annulus_band":
        return np.flatnonzero(np.abs(grid.freq_axis()) <= kwargs["radii"][1])
    return np.arange(grid.points)


@pytest.mark.parametrize("kind, kwargs", BANDS, ids=[k for k, _ in BANDS])
def test_band_draws_share_one_read_only_envelope(grid2, monkeypatch, kind,
                                                 kwargs):
    from hodgehalf import fields

    made = []
    band_draw = fields._BandDraw

    def counted(*args, **kw):
        made.append(band_draw(*args, **kw))
        return made[-1]

    monkeypatch.setattr(fields, "_BandDraw", counted)
    masks = [0, 1, 2, 3]
    u = random_form(grid2, masks, seed=4, kind=kind, **kwargs)
    # every component has a seed of its own: no two are equal
    comps = [u.comps[m] for m in masks]
    for i, a in enumerate(comps):
        for b in comps[:i]:
            assert np.abs(a - b).max() > 0.1
    # the draws are those of the formula on the full lattice
    envelope = _formula_envelope(grid2, kind, kwargs)
    for i, m in enumerate(masks):
        want = _formula_draw(grid2, kind, kwargs, 4 * 1009 + i, envelope)
        assert np.array_equal(u.comps[m], want)
    # one envelope serves all four components: the formula's on the blocks
    # of the slab lines' product, and exactly 0 on every other lattice point
    (shared,) = made
    lines = _slab_lines(grid2, kind, kwargs)
    assert lines.size == (25 if kind == "annulus_band" else grid2.points)
    assert len(shared.blocks) == (4 if kind == "annulus_band" else 1)
    covered = np.zeros(grid2.shape, dtype=int)
    for block, part in shared.blocks:
        assert np.array_equal(part, envelope[block])
        covered[block] += 1
        # it cannot be written through
        assert not part.flags.writeable
        with pytest.raises(ValueError):
            part[0, 0] = 1.0
    inside = np.zeros(grid2.shape, dtype=int)
    inside[np.ix_(lines, lines)] = 1
    assert np.array_equal(covered, inside)
    assert not np.any(envelope[inside == 0])


def test_annulus_beyond_the_band_is_refused_on_every_call(grid2):
    for _ in range(3):
        with pytest.raises(ValueError, match="annulus exceeds"):
            random_form(grid2, [0, 1], seed=0, kind="annulus_band",
                        radii=(1.0, 100.0))


@pytest.mark.parametrize("grid", [Grid(2, 64, 16.0), Grid(3, 16, 8.0),
                                  Grid(4, 8, 4.0)], ids=["n2", "n3", "n4"])
def test_annulus_up_to_the_lattice_corner_is_drawn(grid):
    # the largest |xi| on the lattice is the corner's, every axis at Nyquist
    corner = np.sqrt(grid.freq_sq()).max()
    u = random_form(grid, [0], seed=1, kind="annulus_band",
                    radii=(1.0, corner))
    assert abs(np.abs(u.comps[0]).max() - 1.0) < 1e-15
    with pytest.raises(ValueError, match="annulus exceeds"):
        random_form(grid, [0], seed=1, kind="annulus_band",
                    radii=(1.0, np.nextafter(corner, np.inf)))


# (grid, kind, options, slab lines per axis, slabs per axis).  On Grid(3, 16,
# 8.0) the lattice step is pi/8 and the Nyquist frequency pi; on Grid(4, 8,
# 4.0) they are pi/4 and pi.  An annulus with r1 past Nyquist keeps every
# line; r1 = 2.5 keeps |k| <= 6 of 16, r1 = 2.0 keeps |k| <= 2 of 8, each in
# two wrap-around slabs.
PRUNED = [
    (Grid(3, 16, 8.0), "annulus_band", {"radii": (1.0, 4.0)}, 16, 1),
    (Grid(3, 16, 8.0), "annulus_band", {"radii": (1.0, 2.5)}, 13, 2),
    (Grid(3, 16, 8.0), "random_band", {"width": 1.5}, 16, 1),
    (Grid(4, 8, 4.0), "annulus_band", {"radii": (0.5, 3.5)}, 8, 1),
    (Grid(4, 8, 4.0), "annulus_band", {"radii": (1.0, 2.0)}, 5, 2),
    (Grid(4, 8, 4.0), "random_band", {"width": 1.0, "mean_free": False},
     8, 1),
]


def _origin(view):
    """Lattice index of a view's first element in the array it views."""
    base = view.base
    offset = (view.ctypes.data - base.ctypes.data) // base.itemsize
    return np.unravel_index(offset, base.shape)


@pytest.mark.parametrize("grid, kind, kwargs, count, slabs", PRUNED,
                         ids=["n3-nyquist", "n3-pruned", "n3-gaussian",
                              "n4-nyquist", "n4-pruned", "n4-gaussian"])
def test_band_draw_transforms_only_the_slab_lines(fft_counts, monkeypatch,
                                                  grid, kind, kwargs, count,
                                                  slabs):
    n, points = grid.n, grid.points
    origins = []
    ifftn = np.fft.ifftn

    def located(a, *args, **kw):
        origins.append(_origin(a))
        return ifftn(a, *args, **kw)

    monkeypatch.setattr(np.fft, "ifftn", located)
    masks = [0, (1 << n) - 1]
    u = random_form(grid, masks, seed=6, kind=kind, **kwargs)
    lines = _slab_lines(grid, kind, kwargs)
    assert lines.size == count
    # per component sum_a slabs^a one-axis passes, last axis first; along
    # axis a each earlier coordinate lies in the slab lines, each later one
    # (already transformed) runs over the whole axis
    per = sum(slabs ** a for a in range(n))
    assert fft_counts == {1: per * len(masks)}
    calls = list(zip(fft_counts.calls, origins))
    need = {(a,) + k for a in range(n)
            for k in itertools.product(lines, repeat=a)}
    for c in range(len(masks)):
        covered = []
        axes_seen = []
        for (axes, shape), origin in calls[c * per:(c + 1) * per]:
            (a,) = axes
            axes_seen.append(a)
            assert shape[a:] == (points,) * (n - a)
            assert all(o == 0 for o in origin[a:])
            lead = [range(o, o + w) for o, w in zip(origin[:a], shape[:a])]
            later = list(itertools.product(range(points), repeat=n - a - 1))
            covered += [(a,) + k + rest for k in itertools.product(*lead)
                        for rest in later]
        assert axes_seen == sorted(axes_seen, reverse=True)
        # every line that can hold a coefficient, each exactly once
        assert len(covered) == len(set(covered))
        assert {t[:t[0] + 1] for t in covered} == need
        assert len(covered) == sum(count ** a * points ** (n - 1 - a)
                                   for a in range(n))
    # bit for bit the full-lattice formula
    monkeypatch.setattr(np.fft, "ifftn", ifftn)
    envelope = _formula_envelope(grid, kind, kwargs)
    for i, m in enumerate(masks):
        want = _formula_draw(grid, kind, kwargs, 6 * 1009 + i, envelope)
        assert np.array_equal(u.comps[m], want), m


def test_single_mode_rejects_off_lattice(grid2):
    with pytest.raises(ValueError):
        synthesize(TestFunctionSpec("single_mode", mode=(0.1, 0.0)), grid2, (0,))
    big = np.pi / 16.0 * 100
    with pytest.raises(ValueError):
        synthesize(TestFunctionSpec("single_mode", mode=(big, 0.0)), grid2, (0,))


def test_synthesize_unknown_kind(grid2):
    with pytest.raises(ValueError):
        synthesize(TestFunctionSpec("box"), grid2, (0,))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def test_lp_norm_plateau(grid2):
    # indicator of a grid-aligned box of measure m has L^p norm m^(1/p)
    arr = np.zeros(grid2.shape, dtype=complex)
    arr[10:18, 20:36] = 1.0
    measure = 8 * 16 * grid2.cell_volume
    u = FormField(grid2, {0: arr})
    for p in (1.0, 2.0, 3.0):
        assert abs(u.lp_norm(p) - measure ** (1 / p)) < 1e-12
    assert u.lp_norm(math.inf) == 1.0


def test_lp_norm_homogeneity(grid2):
    u = random_form(grid2, [0, 2], seed=4, width=2.0)
    for p in (1.0, 2.0, 4.0, math.inf):
        assert abs(u.lp_norm(p) * 2 - (2 * u).lp_norm(p)) < 1e-12 * u.lp_norm(p)


def test_lp_norm_gaussian_value():
    # |exp(-|x|^2/2)|_L2 over R^2 equals sqrt(pi); width sqrt(2) realizes it
    grid = Grid(2, 128, 16.0)
    u = synthesize(TestFunctionSpec("gaussian_bump", width=math.sqrt(2.0)),
                   grid, (0,))
    assert abs(u.lp_norm(2.0) - math.sqrt(math.pi)) < 1e-8


def test_lp_norm_rejects_small_p(grid2):
    u = FormField.zero(grid2)
    with pytest.raises(ValueError):
        u.lp_norm(0.5)


def test_nonfinite_rejected(grid2):
    arr = np.zeros(grid2.shape)
    arr[0, 0] = np.nan
    with pytest.raises(ValueError):
        FormField(grid2, {0: arr})


@pytest.mark.parametrize("mask", [-1, 4, 99])
def test_out_of_range_mask_rejected(grid2, mask):
    with pytest.raises(ValueError, match="out of range"):
        FormField(grid2, {mask: np.zeros(grid2.shape)})


def test_triangle_inequality(grid2):
    u = random_form(grid2, [1], seed=5, width=2.0)
    v = random_form(grid2, [1], seed=6, width=2.0)
    for p in (1.0, 2.0, 3.0):
        assert (u + v).lp_norm(p) <= u.lp_norm(p) + v.lp_norm(p) + 1e-12


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path, grid2):
    u = random_form(grid2, [0, 1, 2], seed=7, width=2.0)
    path = str(tmp_path / "field.hhf")
    save_field(path, u, metadata={"note": "round trip"})
    v = load_field(path)
    assert isinstance(v, FormField)
    assert v.grid == grid2
    assert v.masks() == u.masks()
    for m in u.comps:
        # container stores complex64: single precision round trip
        assert np.abs(v.comps[m] - u.comps[m]).max() < 1e-6


def test_save_load_half_field(tmp_path, grid2):
    from hodgehalf.halfspace import random_half_field

    u = random_half_field(grid2, "Ht", [1, 2], seed=8, width=2.0)
    path = str(tmp_path / "half.hhf")
    save_field(path, u)
    v = load_field(path)
    assert v.flavor == "Ht"
    for m in u.comps:
        assert np.abs(v.comps[m] - u.comps[m]).max() < 1e-6


def test_save_field_writes_the_header_and_c8_payload(tmp_path):
    from hodgehalf.halfspace import HalfField

    grid = Grid(2, 4, 1.5)
    a0 = (np.arange(16.0) * (0.5 - 0.25j)).reshape(4, 4)
    a3 = (np.arange(16.0) + 1j / 3.0).reshape(4, 4).T  # not C-contiguous
    rows = (np.arange(12.0) - 2.5j).reshape(4, 3)
    for field, masks, arrays in [
            (FormField(grid, {3: a3, 0: a0}), [0, 3], [a0, a3]),
            (HalfField(grid, "Ht", {1: rows}), [1], [rows])]:
        path = str(tmp_path / "small.hhf")
        save_field(path, field)
        want = (b"HHF1" + struct.pack("<iidi", 2, 4, 1.5, len(masks))
                + struct.pack(f"<{len(masks)}i", *masks)
                + b"".join(a.astype("<c8").tobytes() for a in arrays))
        with open(path, "rb") as fh:
            assert fh.read() == want


def test_load_rejects_garbage(tmp_path):
    path = str(tmp_path / "bad.hhf")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 64)
    with open(path + ".json", "w") as fh:
        fh.write("{}")
    with pytest.raises(ValueError):
        load_field(path)


def _saved_field(tmp_path, grid2):
    path = str(tmp_path / "field.hhf")
    save_field(path, random_form(grid2, [1, 2], seed=9, width=2.0))
    return path


@pytest.mark.parametrize("change", [-8, -1, 1, 8])
def test_load_rejects_wrong_payload_size(tmp_path, grid2, change):
    path = _saved_field(tmp_path, grid2)
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[:change] if change < 0 else data + b"\x00" * change)
    with pytest.raises(ValueError, match=re.escape(f"{path}: payload has")):
        load_field(path)


@pytest.mark.parametrize("key,value", [("n", 3), ("points", 32),
                                       ("length", 8.0), ("masks", [1, 3])])
def test_load_rejects_sidecar_disagreeing_with_header(tmp_path, grid2, key,
                                                      value):
    path = _saved_field(tmp_path, grid2)
    with open(path + ".json") as fh:
        meta = json.load(fh)
    meta[key] = value
    with open(path + ".json", "w") as fh:
        json.dump(meta, fh)
    with pytest.raises(ValueError, match=re.escape(f"{path}: header has {key}")):
        load_field(path)


def test_load_rejects_out_of_range_mask(tmp_path, grid2):
    # mask 99 names axes a 2-D field does not have
    path = _saved_field(tmp_path, grid2)
    _rewrite_header(path, [1, 99])
    with pytest.raises(ValueError, match=re.escape(f"{path}: component mask 99")):
        load_field(path)


def _rewrite_header(path, masks, ncomp=None):
    with open(path, "r+b") as fh:
        fh.seek(20)
        fh.write(struct.pack("<i", len(masks) if ncomp is None else ncomp))
        fh.write(struct.pack(f"<{len(masks)}i", *masks))
    with open(path + ".json") as fh:
        meta = json.load(fh)
    meta["masks"] = masks
    with open(path + ".json", "w") as fh:
        json.dump(meta, fh)


def test_load_rejects_corrupt_header(tmp_path, grid2):
    path = _saved_field(tmp_path, grid2)
    _rewrite_header(path, [1, 1])
    with pytest.raises(ValueError, match="repeated component masks"):
        load_field(path)
    _rewrite_header(path, [1, 2], ncomp=-2)
    with pytest.raises(ValueError, match="corrupt header"):
        load_field(path)
    with open(path, "r+b") as fh:
        fh.truncate(12)
    with pytest.raises(ValueError, match="truncated header"):
        load_field(path)
