"""Filter-bank invariants and Besov / Sobolev norm checks."""

import math

import numpy as np
import pytest

import mutants
from hodgehalf.fields import FormField, Grid, random_form
from hodgehalf.littlewood_paley import (FilterBank, SpaceParams,
                                        _lq_aggregate, besov_norm,
                                        block_norms, build_bank,
                                        completeness_ok, default_bank,
                                        dyadic_block, low_pass, radial_cutoff,
                                        sobolev_norm)
from hodgehalf.operators import frac_symbol, laplacian


@pytest.fixture(scope="module")
def grid():
    return Grid(2, 128, 16.0)


@pytest.fixture(scope="module")
def bank(grid):
    return default_bank(grid)


def single_core_field(grid, j=0, seed=0, masks=(0,)):
    """Random field whose spectrum sits where exactly psi_j equals one."""
    lo, hi = 4.0 / 3.0 * 2.0 ** j, 1.5 * 2.0 ** j
    pad = 0.02 * 2.0 ** j
    return random_form(grid, masks, seed=seed, kind="annulus_band",
                       radii=(lo + pad, hi - pad))


# ---------------------------------------------------------------------------
# profile and bank construction
# ---------------------------------------------------------------------------

def test_radial_cutoff_plateaus():
    r = np.linspace(0, 2, 2001)
    phi = radial_cutoff(r)
    assert np.all(phi[r <= 0.75] == 1.0)
    assert np.all(phi[r >= 4.0 / 3.0] == 0.0)
    assert np.all((phi >= 0) & (phi <= 1))
    assert np.all(np.diff(phi) <= 1e-12)  # radially nonincreasing


def test_bank_supports(bank):
    r = bank.abs_freq
    for j, psi in bank.psi.items():
        outside = (r < 3 * 2.0 ** (j - 2) - 1e-12) | (r > 2.0 ** (j + 3) / 3 + 1e-12)
        assert np.abs(psi[outside]).max() == 0.0
        assert psi.min() >= -1e-15 and psi.max() <= 1.0 + 1e-15


def test_bank_telescoping_partition(bank):
    total = bank.low.copy()
    for j in bank.window:
        total = total + bank.psi[j]
    covered = bank.covered_mask()
    assert np.abs(total[covered] - 1.0).max() <= 1e-12
    # a narrower ball |xi| <= 3 * 2^(j_max - 1) / 4 sits inside the covered set
    narrow = bank.abs_freq <= 3.0 * 2.0 ** (bank.j_max - 1) / 4.0
    assert np.abs(total[narrow] - 1.0).max() <= 1e-12


def test_bank_adjacent_overlap_only(bank):
    for j in bank.window:
        for k in bank.window:
            if abs(j - k) >= 2:
                prod = bank.psi[j] * bank.psi[k]
                assert np.abs(prod).max() == 0.0


def test_psi0_vanishes_outside_support():
    # psi_0(r) = phi(r/2) - phi(r) vanishes at r = 0.5 and from r = 8/3 on
    def psi0(r):
        return radial_cutoff(np.asarray(r) / 2.0) - radial_cutoff(np.asarray(r))

    assert psi0(0.5) == 0.0
    assert psi0(0.7) == 0.0
    for r in (8.0 / 3.0, 3.0, 10.0):
        assert psi0(r) == 0.0
    assert psi0(1.4) > 0.99  # plateau between 4/3 and 3/2


def test_psi_dyadic_dilation(grid, bank):
    # psi_1(xi) = psi_0(xi / 2) pointwise on the lattice
    half = radial_cutoff(bank.abs_freq / 2.0 / 2.0) - radial_cutoff(bank.abs_freq / 2.0)
    assert np.abs(bank.psi[1] - half).max() <= 1e-15


def test_bank_window_validation(grid):
    with pytest.raises(ValueError):
        build_bank(grid, 0, 12)  # way past the band limit
    with pytest.raises(ValueError):
        build_bank(grid, -40, 0)  # below the lattice resolution
    with pytest.raises(ValueError):
        build_bank(grid, 2, 1)


# ---------------------------------------------------------------------------
# dyadic blocks
# ---------------------------------------------------------------------------

def test_blocks_vanish_off_annulus(grid, bank):
    u = random_form(grid, [0], seed=1, kind="annulus_band", radii=(0.76, 1.32))
    for j in bank.window:
        if abs(j) >= 2:
            blk = dyadic_block(bank, j, u)
            assert blk.l2_norm() <= 1e-12 * u.l2_norm()


def test_block_resynthesis(grid, bank):
    u = random_form(grid, [0, 1], seed=2, kind="annulus_band", radii=(1.0, 3.0))
    acc = low_pass(bank, u)
    for j in bank.window:
        acc = acc + dyadic_block(bank, j, u)
    assert (acc - u).l2_norm() <= 1e-10 * u.l2_norm()


def test_blocks_almost_orthogonal(grid, bank):
    u = random_form(grid, [0], seed=3, kind="annulus_band", radii=(1.0, 3.0))
    for j in bank.window:
        for k in bank.window:
            if abs(j - k) >= 2:
                bj = dyadic_block(bank, j, u)
                bjk = dyadic_block(bank, k, bj)
                assert bjk.l2_norm() <= 1e-13 * u.l2_norm()


def test_block_outside_window_rejected(grid, bank):
    u = random_form(grid, [0], seed=4, width=2.0)
    with pytest.raises(ValueError):
        dyadic_block(bank, bank.j_max + 1, u)


# ---------------------------------------------------------------------------
# Besov norms
# ---------------------------------------------------------------------------

def test_besov_zero_field(grid, bank):
    params = SpaceParams(0.5, 2.0, 2.0)
    assert besov_norm(params, FormField.zero(grid), bank) == 0.0


def test_besov_equals_l2_on_single_core(grid, bank):
    u = single_core_field(grid, j=0, seed=5)
    params = SpaceParams(0.0, 2.0, 2.0)
    value = besov_norm(params, u, bank)
    assert abs(value - u.l2_norm()) <= 0.05 * u.l2_norm()


def test_besov_dilation_scaling():
    # u(2 .) scales the homogeneous norm by 2^(s - n/p); a refined lattice
    # keeps both spectra inside one dyadic window
    n = 2
    fine = Grid(2, 256, 16.0)
    fine_bank = default_bank(fine)

    def sampled(scale):
        # modulated gaussian, spectrum near |xi| = 2.2 * scale, width ~ 1/3;
        # the modulation sits on the frequency lattice so nothing leaks at
        # the torus seam
        x = fine.coords()
        r2 = sum((scale * np.asarray(xi)) ** 2 for xi in x)
        phase = sum(0.5 * np.pi * scale * np.asarray(xi) for xi in x)
        return FormField(fine, {0: np.exp(-r2 / 36.0) * np.exp(1j * phase)})

    base = sampled(1.0)
    dilated = sampled(2.0)
    for s, p, q in [(0.0, 2.0, 2.0), (0.5, 2.0, 1.0), (0.3, 3.0, 2.0)]:
        params = SpaceParams(s, p, q)
        ratio = (besov_norm(params, dilated, fine_bank)
                 / besov_norm(params, base, fine_bank))
        expected = 2.0 ** (s - n / p)
        assert abs(ratio - expected) <= 0.05 * expected


def test_besov_absolute_homogeneity(grid, bank):
    u = single_core_field(grid, j=1, seed=6)
    params = SpaceParams(0.7, 2.0, 4.0)
    a = besov_norm(params, 3.0 * u, bank)
    b = 3.0 * besov_norm(params, u, bank)
    assert abs(a - b) <= 1e-12 * b


def test_besov_q_monotonicity(grid, bank):
    u = random_form(grid, [0], seed=7, kind="annulus_band", radii=(1.0, 3.0))
    values = [besov_norm(SpaceParams(0.25, 2.0, q), u, bank)
              for q in (1.0, 2.0, 4.0, math.inf)]
    for a, b in zip(values, values[1:]):
        assert a >= b - 1e-12


def test_besov_triangle_inequality(grid, bank):
    u = random_form(grid, [0], seed=8, kind="annulus_band", radii=(1.0, 3.0))
    v = random_form(grid, [0], seed=9, kind="annulus_band", radii=(1.0, 3.0))
    params = SpaceParams(0.5, 2.0, 2.0)
    assert (besov_norm(params, u + v, bank)
            <= besov_norm(params, u, bank) + besov_norm(params, v, bank) + 1e-12)


def test_besov_leakage_rejected(grid, bank):
    u = random_form(grid, [0], seed=10, kind="gaussian_bump", width=2.0)
    # a gaussian bump has a nonzero mean: low-frequency mass below the window
    with pytest.raises(ValueError):
        besov_norm(SpaceParams(0.0, 2.0, 2.0), u, bank)


def test_leakage_is_the_mass_fraction_outside_the_window():
    # two lattice modes of known amplitude: one at |xi| = 5 pi/8 inside the
    # window [0, 2], one at |xi| = sqrt(2) pi/8 < 2^0 below it.  Homogeneous,
    # the one below leaks: exactly a_out^2 / (a_in^2 + a_out^2), here to
    # 1e-14 relative.  Inhomogeneous, the low-pass block holds it and only
    # the transform's round-off leaks (5e-32 measured, bound 1e-28).
    grid = Grid(2, 64, 8.0)
    bank = build_bank(grid, 0, 2)
    step = np.pi / grid.length
    a_in, a_out = 2.0, 0.5
    u = (a_in * random_form(grid, [0], kind="single_mode", mode=(5 * step, 0.0))
         + a_out * random_form(grid, [0], kind="single_mode",
                               mode=(step, -step)))
    want = a_out ** 2 / (a_in ** 2 + a_out ** 2)
    assert abs(bank.leakage(u) - want) <= 1e-14 * want
    assert bank.leakage(u, homogeneous=False) <= 1e-28


# the p = 2 evaluator, block_norms from shell energies and _lq_aggregate,
# against a point-by-point lattice sum; the 3-d window
# [0, 1] needs pi/L in [2/3, 3/4] on a 16-point axis
SHELL_CASES = [(Grid(2, 64, 8.0), 0, 2), (Grid(3, 16, 4.5), 0, 1)]


def lattice_besov_p2(params, spectra, grid, j_min, j_max):
    """p = 2 Besov norm summed over every lattice point, no shell tables."""
    axes = np.meshgrid(*[2 * np.pi * np.fft.fftfreq(grid.points, grid.spacing)]
                       * grid.n, indexing="ij")
    absxi = np.sqrt(sum(x ** 2 for x in axes))
    density = sum(np.abs(a) ** 2 for a in spectra)

    def annulus(j):
        return radial_cutoff(absxi / 2.0 ** (j + 1)) - radial_cutoff(absxi / 2.0 ** j)

    if params.homogeneous:
        blocks = [(j, annulus(j)) for j in range(j_min, j_max + 1)]
    else:
        blocks = [(-1, radial_cutoff(absxi))] + [
            (j, annulus(j)) for j in range(max(j_min, 0), j_max + 1)]
    scale = grid.cell_volume / grid.points ** grid.n
    vals = np.array([2.0 ** (params.s * j) * math.sqrt(np.sum(sym ** 2 * density) * scale)
                     for j, sym in blocks])
    if math.isinf(params.q):
        return float(vals.max())
    return float(np.sum(vals ** params.q) ** (1.0 / params.q))


def random_spectra(grid, seed, count=2):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            for _ in range(count)]


def assert_shell_matches_lattice(bank, spectra):
    grid = bank.grid
    for homogeneous in (True, False):
        for q in (1.0, 2.0, math.inf):
            params = SpaceParams(0.5, 2.0, q, homogeneous=homogeneous)
            want = lattice_besov_p2(params, spectra, grid, bank.j_min, bank.j_max)
            got = _lq_aggregate(params, block_norms(params, spectra, bank), bank)
            assert abs(got - want) <= 1e-12 * want, (homogeneous, q, got, want)


@pytest.mark.parametrize("grid_, j_min, j_max", SHELL_CASES)
def test_shell_evaluator_matches_lattice_sum(grid_, j_min, j_max):
    bank = build_bank(grid_, j_min, j_max)
    assert bank.shell_absq.size < grid_.points ** grid_.n
    assert_shell_matches_lattice(bank, random_spectra(grid_, seed=40))


@pytest.mark.parametrize("grid_, j_min, j_max", SHELL_CASES)
def test_shell_oracle_catches_a_zeroed_band(grid_, j_min, j_max):
    # a bank of its own with one psi_j^2 row zeroed in a copy: the shared
    # banks of build_bank are read-only
    spectra = random_spectra(grid_, seed=41)
    for row in range(j_max - j_min + 1):
        bank = FilterBank(grid_, j_min, j_max)
        bank.shell_psi_sq = bank.shell_psi_sq.copy()
        bank.shell_psi_sq[row] = 0.0
        with pytest.raises(AssertionError):
            assert_shell_matches_lattice(bank, spectra)


@pytest.mark.parametrize("grid_, weighed, shells", [
    (Grid(2, 128, 16.0), 885, 1621), (Grid(3, 32, 8.0), 156, 464)],
    ids=["2d", "3d"])
def test_window_shells_are_the_weighed_shells(grid_, weighed, shells):
    # the benchmark grids' default banks: exactly the shells of the lattice
    # points where some psi_j or the unit-scale low pass is nonzero
    bank = default_bank(grid_)
    weight = bank.phi_unit ** 2 + sum(psi ** 2 for psi in bank.psi.values())
    want = np.unique(bank.shell_index[weight.ravel() > 0])
    assert np.array_equal(bank.window_shells, want)
    assert (bank.window_shells.size, bank.shell_absq.size) == (weighed, shells)
    assert bank.window_shells[0] == 0 and bank.shell_absq[0] == 0.0
    assert np.array_equal(bank.window_absq, bank.shell_absq[bank.window_shells])
    assert bank.shell_psi_sq.shape == (len(bank.window), weighed)
    assert bank.shell_phi_unit_sq.shape == (weighed,)


@pytest.mark.parametrize("grid_", [Grid(2, 128, 16.0), Grid(3, 32, 8.0)],
                         ids=["2d", "3d"])
def test_shell_index_is_the_sorted_unique_index(grid_):
    # the presence-table index numbers the shells as np.unique's inverse does
    bank = default_bank(grid_)
    ksq = np.rint(grid_.freq_sq() / (np.pi / grid_.length) ** 2).astype(np.int64)
    shells, index = np.unique(ksq.ravel(), return_inverse=True)
    assert np.array_equal(bank.shell_index, index)
    assert bank.shell_index.dtype == np.intp
    assert np.array_equal(bank.shell_absq,
                          (np.pi / grid_.length) ** 2 * shells.astype(float))


def test_grid_tables_are_shared_and_read_only():
    # equal grids built apart share every table; no caller can write into one
    grid, twin = Grid(2, 32, 8.0), Grid(2, 32, 8.0)
    assert grid is not twin
    bank = default_bank(grid)
    assert default_bank(twin) is bank is build_bank(twin, bank.j_min,
                                                    bank.j_max)
    assert twin.freq_sq() is grid.freq_sq()
    assert frac_symbol(twin, -2.0) is frac_symbol(grid, -2.0)
    for table in (grid.freq_sq(), frac_symbol(grid, -2.0),
                  frac_symbol(grid, 1.0), bank.shell_index,
                  bank.shell_psi_sq, bank.low, bank.psi[bank.j_min]):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


def test_a_mutant_row_gets_its_own_bank():
    # the caches are cleared as a row is applied and as it is undone, so the
    # row's psi_j reach the bank and the original ones come back
    grid = Grid(2, 128, 16.0)
    bank = default_bank(grid)
    with mutants.applied(mutants.ROWS["moved_block"]):
        moved = default_bank(grid)
        assert not np.array_equal(moved.shell_psi_sq, bank.shell_psi_sq)
    back = default_bank(grid)
    assert back is not moved
    for name in ("shell_index", "window_shells", "shell_psi_sq",
                 "shell_phi_unit_sq"):
        assert np.array_equal(getattr(back, name), getattr(bank, name)), name


def test_lattice_tables_are_built_on_first_use(grid):
    # p = 2 norms read shell tables only; a lattice table is built when it is
    # first read and then kept.  A bank of its own on the default window: the
    # shared one may hold lattice tables another norm built
    window = default_bank(grid)
    bank = FilterBank(grid, window.j_min, window.j_max)
    u = random_form(grid, [0, 1], seed=12, kind="annulus_band", radii=(1.0, 3.0))
    for homogeneous in (True, False):
        besov_norm(SpaceParams(0.5, 2.0, 2.0, homogeneous=homogeneous), u, bank)
    assert not {"abs_freq", "psi", "low", "phi_unit"} & vars(bank).keys()
    low = bank.low
    assert bank.low is low
    assert np.array_equal(low, radial_cutoff(np.sqrt(grid.freq_sq())
                                             / 2.0 ** bank.j_min))


def test_besov_p2_matches_lattice_sum(grid, bank):
    # besov_norm on in-window data runs the same shell evaluator
    u = random_form(grid, [0, 1], seed=12, kind="annulus_band", radii=(1.0, 3.0))
    spectra = [np.fft.fftn(a) for a in u.comps.values()]
    for params in (SpaceParams(0.5, 2.0, 1.0),
                   SpaceParams(0.5, 2.0, 2.0, homogeneous=False)):
        want = lattice_besov_p2(params, spectra, grid, bank.j_min, bank.j_max)
        assert abs(besov_norm(params, u, bank) - want) <= 1e-12 * want


def test_besov_inhomogeneous_accepts_low_frequencies(grid, bank):
    u = random_form(grid, [0], seed=11, kind="gaussian_bump", width=2.0)
    params = SpaceParams(0.5, 2.0, 2.0, homogeneous=False)
    value = besov_norm(params, u, bank)
    assert np.isfinite(value) and value > 0


# ---------------------------------------------------------------------------
# a transform-free reference at every p
# ---------------------------------------------------------------------------

# A lattice mode e^{i xi.x} makes every block its symbol at |xi| times the
# mode, of constant modulus 1, so the block's L^p norm is psi_j(|xi|)
# (2L)^{n/p}, or phi(|xi|) (2L)^{n/p} for the inhomogeneous low pass: a Besov
# norm with no transform and no bank table
LATTICE_MODES = [(Grid(2, 128, 16.0), (3, 5)), (Grid(2, 128, 16.0), (10, -7)),
                 (Grid(2, 128, 16.0), (0, 12)), (Grid(3, 32, 8.0), (2, -3, 4))]
MODE_PARAMS = [SpaceParams(0.0, 3.0, 1.0), SpaceParams(0.25, 1.5, 2.0),
               SpaceParams(-0.3, 7.0, 3.0), SpaceParams(0.5, 2.0, 2.0),
               SpaceParams(-0.2, 4.0, 1.5, homogeneous=False)]
MODE_TOL = 1e-13


def lattice_mode(grid, k):
    phase = sum(math.pi / grid.length * kk * x for kk, x in zip(k, grid.coords()))
    return FormField(grid, {0: np.exp(1j * phase)})


def mode_besov_reference(params, grid, k, j_min, j_max):
    """The Besov norm of lattice_mode(grid, k) from the profile at |xi|."""
    r = math.pi / grid.length * math.sqrt(sum(kk * kk for kk in k))

    def annulus(j):
        return float(radial_cutoff(r / 2.0 ** (j + 1)) - radial_cutoff(r / 2.0 ** j))

    if params.homogeneous:
        blocks = [(j, annulus(j)) for j in range(j_min, j_max + 1)]
    else:
        blocks = [(-1, float(radial_cutoff(r)))] + [
            (j, annulus(j)) for j in range(max(j_min, 0), j_max + 1)]
    volume = (2.0 * grid.length) ** (grid.n / params.p)
    vals = np.array([2.0 ** (params.s * j) * sym * volume for j, sym in blocks])
    return float(np.sum(vals ** params.q) ** (1.0 / params.q))


def lattice_mode_misses():
    """(grid, k, params, got, want) of every case off the reference by more
    than MODE_TOL relative, on banks built at the call."""
    missed = []
    for grid_, k in LATTICE_MODES:
        bank = default_bank(grid_)
        u = lattice_mode(grid_, k)
        for params in MODE_PARAMS:
            want = mode_besov_reference(params, grid_, k, bank.j_min, bank.j_max)
            got = besov_norm(params, u, bank)
            if not abs(got - want) <= MODE_TOL * want:
                missed.append((grid_, k, params, got, want))
    return missed


def test_besov_norm_of_lattice_modes():
    assert lattice_mode_misses() == []


def test_lattice_mode_reference_catches_a_moved_block():
    # psi_1 built as psi_0, one octave down: its L^p norm moves at p = 2 and
    # at p != 2
    with mutants.applied(mutants.ROWS["moved_block"]):
        missed = lattice_mode_misses()
    assert {params.p for *_, params, _, _ in missed} == {1.5, 2.0, 3.0, 4.0, 7.0}


# The same modes under sobolev_norm: the resummed filter is the symbol at
# |xi| times the mode, so the norm is |xi|^s sum_j psi_j(|xi|) (2L)^{n/p}
# (homogeneous) or (1 + |xi|^2)^{s/2} (2L)^{n/p} (inhomogeneous)
SOBOLEV_MODE_PARAMS = [
    SpaceParams(s, p, kind="sobolev")
    for s, p in ((0.0, 3.0), (0.25, 1.5), (-0.3, 7.0), (0.5, 2.0))] + [
    SpaceParams(s, p, homogeneous=False, kind="sobolev")
    for s, p in ((-0.2, 4.0), (1.0, 3.0))]


def mode_sobolev_reference(params, grid, k, j_min, j_max):
    """The Sobolev norm of lattice_mode(grid, k) from the profile at |xi|."""
    r = math.pi / grid.length * math.sqrt(sum(kk * kk for kk in k))
    if params.homogeneous:
        window = sum(float(radial_cutoff(r / 2.0 ** (j + 1))
                           - radial_cutoff(r / 2.0 ** j))
                     for j in range(j_min, j_max + 1))
        symbol = r ** params.s * window
    else:
        symbol = (1.0 + r * r) ** (params.s / 2.0)
    return symbol * (2.0 * grid.length) ** (grid.n / params.p)


def sobolev_mode_misses():
    """(grid, k, params, got, want) of every case off the reference by more
    than MODE_TOL relative, on banks built at the call."""
    missed = []
    for grid_, k in LATTICE_MODES:
        bank = default_bank(grid_)
        u = lattice_mode(grid_, k)
        for params in SOBOLEV_MODE_PARAMS:
            want = mode_sobolev_reference(params, grid_, k, bank.j_min,
                                          bank.j_max)
            got = sobolev_norm(params, u, bank)
            if not abs(got - want) <= MODE_TOL * want:
                missed.append((grid_, k, params, got, want))
    return missed


def test_sobolev_norm_of_lattice_modes():
    assert sobolev_mode_misses() == []


def test_sobolev_mode_reference_catches_a_dropped_block():
    # psi_1 dropped from the bank: the homogeneous window sum no longer
    # telescopes to 1 on modes that block reaches, at p = 2 and p != 2; the
    # inhomogeneous Bessel symbol reads no block
    with mutants.applied(mutants.ROWS["dropped_block"]):
        missed = sobolev_mode_misses()
    assert {params.p for *_, params, _, _ in missed} == {1.5, 2.0, 3.0, 7.0}
    assert all(params.homogeneous for *_, params, _, _ in missed)


# ---------------------------------------------------------------------------
# Sobolev norms
# ---------------------------------------------------------------------------

def test_sobolev_s0_is_lp(grid, bank):
    u = random_form(grid, [0, 1], seed=12, kind="annulus_band", radii=(1.0, 3.0))
    for p in (2.0, 3.0):
        params = SpaceParams(0.0, p, kind="sobolev")
        assert abs(sobolev_norm(params, u, bank) - u.lp_norm(p)) \
            <= 1e-10 * u.lp_norm(p)


def test_sobolev_s2_is_laplacian(grid, bank):
    u = random_form(grid, [0], seed=13, kind="annulus_band", radii=(1.0, 3.0))
    params = SpaceParams(2.0, 2.0, kind="sobolev")
    target = laplacian(u).l2_norm()
    assert abs(sobolev_norm(params, u, bank) - target) <= 1e-8 * target


def test_sobolev_besov_agree_at_s0_single_core(grid, bank):
    u = single_core_field(grid, j=1, seed=14)
    hs = sobolev_norm(SpaceParams(0.0, 2.0, kind="sobolev"), u, bank)
    bs = besov_norm(SpaceParams(0.0, 2.0, 2.0), u, bank)
    assert abs(hs - bs) <= 0.05 * hs


@pytest.mark.parametrize("s", [0.25, 0.5])
def test_sobolev_besov_ratio_window(grid, bank, s):
    # equivalence with ratio in [0.8, 1.25] on octave bands centered at the
    # block plateaus (the constants drift with how spectra sit inside blocks)
    for j, radii in [(0, (1.3, 1.6)), (1, (2.6, 3.2))]:
        for seed in range(3):
            u = random_form(grid, [0], seed=20 + seed, kind="annulus_band",
                            radii=radii)
            hs = sobolev_norm(SpaceParams(s, 2.0, kind="sobolev"), u, bank)
            bs = besov_norm(SpaceParams(s, 2.0, 2.0), u, bank)
            assert 0.8 <= hs / bs <= 1.25


def test_sobolev_inhomogeneous_bessel(grid, bank):
    # (I - Delta)^{s/2} with s = 2 equals u - Delta u in L^p
    u = random_form(grid, [0], seed=15, kind="gaussian_bump", width=2.0)
    params = SpaceParams(2.0, 2.0, homogeneous=False, kind="sobolev")
    target = (u - laplacian(u)).l2_norm()
    assert abs(sobolev_norm(params, u, bank) - target) <= 1e-10 * target


# ---------------------------------------------------------------------------
# completeness predicate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("s,p,q,n,expected", [
    (0.5, 2.0, 2.0, 2, True),      # 0.5 < 2/2 = 1
    (1.0, 2.0, 1.0, 2, True),      # q = 1 and s = n/p
    (1.0, 2.0, 2.0, 2, False),     # neither clause
    (1.5, 2.0, 2.0, 3, False),     # s = n/p, q > 1
    (1.5, 2.0, 1.0, 3, True),
    (-1.0, 4.0, math.inf, 3, True),
])
def test_completeness_predicate(s, p, q, n, expected):
    assert completeness_ok(SpaceParams(s, p, q), n) is expected


def test_completeness_sobolev_uses_qp():
    # sobolev kind ignores q and uses q = p
    params = SpaceParams(1.0, 2.0, 1.0, kind="sobolev")
    assert completeness_ok(params, 2) is False


def test_space_params_validation():
    with pytest.raises(ValueError):
        SpaceParams(0.0, 1.0)
    with pytest.raises(ValueError):
        SpaceParams(0.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        SpaceParams(0.0, 2.0, kind="triebel")
    for s in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="s must be finite"):
            SpaceParams(s, 2.0)
