"""One registry of source mutants and the tier-1 gates each must fail.

A row is one source edit of a function or method, ``module:qualname``: an
``old`` text that occurs exactly once in its source and the ``new`` text that
replaces it.  A gate is a tier-1 test, or a helper a tier-1 test asserts on,
bound to one parameter set of that test (``Gate``), so every gate passes as
the source stands and raises AssertionError when its check fails.
tests/test_mutants.py runs every row against its gates.  A test that asserts
more than that a gate fails (by how much a residual moves, or which command
exit it gives) applies its row with ``applied``.
"""

from __future__ import annotations

import __future__
import contextlib
import functools
import importlib
import inspect
import pathlib
import sys
import tempfile
import textwrap
from dataclasses import dataclass

import pytest

from hodgehalf.fields import Grid
from hodgehalf.operators import delta


@dataclass(frozen=True)
class Mutant:
    name: str
    target: str
    old: str
    new: str
    gates: tuple


@dataclass(frozen=True)
class Gate:
    """The test or helper ``module::name`` of tests/ bound to ``args``;
    ``tmp`` hands it a fresh temporary directory first (its tmp_path)."""
    test: str
    args: tuple = ()
    tmp: bool = False

    def resolve(self):
        module, name = self.test.split("::")
        return getattr(importlib.import_module(module), name)

    def __call__(self):
        if not self.tmp:
            return self.resolve()(*self.args)
        with tempfile.TemporaryDirectory() as tmp:
            return self.resolve()(pathlib.Path(tmp), *self.args)


def gate(test: str, *args) -> Gate:
    return Gate(test, args)


TESTS = pathlib.Path(__file__).resolve().parent


def _bound_modules():
    """The hodgehalf modules and the test modules, whose names may bind a
    target."""
    return [m for name, m in sorted(sys.modules.items())
            if name == "hodgehalf" or name.startswith("hodgehalf.")
            or pathlib.Path(getattr(m, "__file__", None) or "/").parent
            == TESTS]


def _clear_caches():
    # tables cached from the original (algebra.raising and lowering, the
    # shared filter banks, Grid.freq_sq, frac_symbol) are rebuilt from the
    # mutant, and again once it is undone
    for module in _bound_modules():
        for value in vars(module).values():
            if isinstance(value, functools._lru_cache_wrapper):
                value.cache_clear()


@contextlib.contextmanager
def applied(mutant: Mutant):
    """Run the block with the target's source edited, exec'd in its module's
    globals and bound wherever a hodgehalf module or a test module binds the
    target (module globals and module-level dicts, as bench/tracer.py finds
    them), or on the class of a method.  Refuses unless ``old`` occurs
    exactly once in the source."""
    module_name, qualname = mutant.target.split(":")
    owner = module = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    orig = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(inspect.unwrap(orig)))
    count = source.count(mutant.old)
    if count != 1:
        raise ValueError(f"mutant {mutant.name}: {mutant.old!r} occurs "
                         f"{count} times in {mutant.target}, not once")
    namespace = {}
    exec(compile(source.replace(mutant.old, mutant.new),
                 f"<mutant {mutant.name}>", "exec",
                 flags=__future__.annotations.compiler_flag,
                 dont_inherit=True), vars(module), namespace)
    new = namespace[name]
    try:
        with pytest.MonkeyPatch.context() as patch:
            if inspect.isclass(owner):
                patch.setattr(owner, name, new)
            for mod in _bound_modules() if owner is module else ():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        patch.setattr(mod, key, new)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is orig:
                                patch.setitem(value, k, new)
            _clear_caches()
            yield
    finally:
        _clear_caches()


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------


EVOLUTION_GRID = Grid(2, 64, 8.0)      # test_evolution's ``grid`` fixture
HALFSPACE_GRID = Grid(2, 64, 16.0)     # test_halfspace's ``grid2`` fixture
HALF_MODE = gate("test_evolution::test_p3_sweep_of_a_half_space_mode")
MAX_REG_STREAMING = gate("test_evolution::"
                         "test_max_reg_report_matches_streaming",
                         EVOLUTION_GRID)
CLOSED_FORM_MATCH = ("test_evolution::"
                     "test_closed_form_report_matches_the_stepped_trajectory")
WINDOW_SHELLS = gate("test_littlewood_paley::"
                     "test_window_shells_are_the_weighed_shells",
                     Grid(2, 128, 16.0), 885, 1621)


def stored_rows(test, flavors, *args):
    """A test_halfspace test on each of its grids (QUADRATURE_GRIDS), at
    each of ``flavors``, with ``args`` after the flavor."""
    return tuple(gate(f"test_halfspace::{test}",
                      Grid(n, 16 if n == 2 else 8, 4.0), flavor, *args)
                 for n in (2, 3, 4) for flavor in flavors)


def traces_3d(which):
    return gate("test_halfspace::test_3d_traces_carry_every_boundary_row",
                which)


# the 3-D rows under 0b001 and 0b010 of a trace swapped: those of the
# 2-forms 0b101 and 0b110 (tangential) or of the 1-forms (normal)
SWAP_3D_ROWS = ("    if u.grid.n == 3 and {0b001, 0b010} <= set(comps):\n"
                "        comps[0b001], comps[0b010] = comps[0b010], "
                "comps[0b001]\n")

MUTANTS = (
    # -- the half-space split and its container round trip -------------------
    Mutant("skipped_inverse", "hodgehalf.halfspace:leray_halfspace_checked",
           "return (_tangential_inverse(grid, u.flavor, p_rows),",
           "return (HalfField(grid, u.flavor, p_rows),",
           (gate("test_halfspace::test_checked_split_is_the_split_with_its_"
                 "checks", Grid(2, 64, 8.0)),)),
    Mutant("seam_row", "hodgehalf.halfspace:_restrict_array",
           "arr[..., 0] if parity > 0", "arr[..., 1] if parity > 0",
           (gate("test_evolution::test_heat_single_mode_closed_form",
                 EVOLUTION_GRID),)),
    Mutant("nyquist_symbol", "hodgehalf.fields:Grid.odd_freqs",
           "xi[self.points // 2] = 0.0", "pass",
           (Gate("test_cli::test_decompose_single_precision_round_trip",
                 (Grid(3, 32, 16.0),), tmp=True),)),
    Mutant("shifted_restriction", "hodgehalf.halfspace:restrict_spectra",
           "comps[mask] = np.fft.ifftn(rows, axes=tangential, out=rows)",
           "comps[mask] = np.roll(np.fft.ifftn(rows, axes=tangential, "
           "out=rows), 1, axis=-1)",
           (gate("test_halfspace::test_hodge_resolvent_scalar_neumann",
                 HALFSPACE_GRID),)),
    Mutant("swapped_tangential_parity", "hodgehalf.halfspace:component_parity",
           "return -1 if normal_bit else 1", "return 1 if normal_bit else -1",
           (gate("test_halfspace::test_component_parity_table"),)),
    Mutant("dn_rule_swapped", "hodgehalf.verify:check_decoupling",
           '"D" if mask >> (f.grid.n - 1) & 1 else "N"',
           '"N" if mask >> (f.grid.n - 1) & 1 else "D"',
           (gate("test_verify::test_every_check_compares_nonzero_quantities",
                 "halfspace"),)),
    # -- trapezoid rules and Parseval factors of the stored rows -------------
    Mutant("parseval_sqrt2", "hodgehalf.halfspace:half_l2_norm_from_spectra",
           "np.sqrt(2.0)", "1.5",
           (Gate("test_cli::test_solve_free_decay_matches_semigroup",
                 tmp=True),)),
    Mutant("boundary_phase", "hodgehalf.halfspace:NodeReader.__init__",
           "np.where(np.arange(grid.points) % 2, -1.0, 1.0)",
           "np.ones(grid.points)",
           stored_rows("test_node_reader_matches_the_field_oracles",
                       ("D", "N", "Ht", "Hn"))),
    Mutant("even_end_whole", "hodgehalf.halfspace:_half_row_lines",
           "end = 0.5 if parity > 0 else 0.0",
           "end = 1.0 if parity > 0 else 0.0",
           (gate("test_halfspace::test_half_row_sum_matches_the_weighted_sum",
                 1, 1.0),)),
    Mutant("odd_end_kept", "hodgehalf.halfspace:_half_row_lines",
           "end = 0.5 if parity > 0 else 0.0", "end = 0.5",
           (gate("test_halfspace::test_half_row_sum_matches_the_weighted_sum",
                 -1, 1.0),)),
    # an odd component's end rows kept in its extension, so every operator
    # through the extension differentiates them; the stored-row sums, which
    # never extend, no longer match the extension's
    Mutant("odd_ends_differentiated", "hodgehalf.halfspace:_extend_array",
           "out[..., [0, half]] = 0.0",
           "out[..., [0, half]] = arr[..., [half, 0]]",
           stored_rows("test_half_row_quadrature_matches_extension",
                       ("D", "Ht", "Hn"))),
    # -- sign tables and trace rules ------------------------------------------
    Mutant("flipped_table_sign", "hodgehalf.algebra:insert_sign",
           "return -1 if below & 1 else 1",
           "return -1 if (below & 1) != ((axis, mask) == (1, 0b100)) else 1",
           (gate("test_algebra::test_adjointness_exhaustive", 3),
            gate("test_algebra::test_nilpotence", 3),
            gate("test_operators::test_interior_const_matches_algebra"),
            gate("test_operators::test_single_mode_matches_algebra_symbol",
                 delta, 3))),
    Mutant("tangential_sign", "hodgehalf.halfspace:tangential_trace",
           "sign = -1 if degree(mask) & 1 else 1", "sign = 1",
           (gate("test_halfspace::test_tangential_trace_vector_sign",
                 HALFSPACE_GRID), traces_3d("tangential"))),
    Mutant("normal_sign", "hodgehalf.halfspace:normal_trace",
           "sign = 1 if degree(mask) & 1 else -1", "sign = 1",
           (gate("test_halfspace::test_normal_trace_picks_tangential_"
                 "components", HALFSPACE_GRID), traces_3d("normal"))),
    Mutant("tangential_2form_rows", "hodgehalf.halfspace:tangential_trace",
           "    return BoundaryForm(u.grid, comps, wedged_normal=False)",
           SWAP_3D_ROWS
           + "    return BoundaryForm(u.grid, comps, wedged_normal=False)",
           (traces_3d("tangential"),)),
    Mutant("normal_1form_rows", "hodgehalf.halfspace:normal_trace",
           "    return BoundaryForm(u.grid, comps, wedged_normal=True)",
           SWAP_3D_ROWS
           + "    return BoundaryForm(u.grid, comps, wedged_normal=True)",
           (traces_3d("normal"),)),
    # -- the evolution stepper and its forcing splits -------------------------
    Mutant("even_normal_part", "hodgehalf.evolution:_Stepper.advance",
           "self.state[m] = term.copy()\n",
           "self.state[m] = term.copy()\n"
           "    self.state[2] += 0.1 * self.state[1]\n",
           (gate("test_evolution::test_stokes_solution_stays_projected",
                 EVOLUTION_GRID),)),
    Mutant("first_order_forcing", "hodgehalf.evolution:_Stepper.__init__",
           "self.dt_half_step = dt * np.exp(-0.5 * dt * absq)",
           "self.dt_half_step = dt * self.full_step",
           (gate("test_evolution::test_heat_single_mode_closed_form",
                 EVOLUTION_GRID),)),
    Mutant("unprojected_forcing", "hodgehalf.evolution:_split_forcing",
           "p_hat, g_hat = leray_halfspace_hat(u)",
           "p_hat, g_hat = extend_spectra(u), leray_halfspace_hat(u)[1]",
           (gate("test_evolution::test_navier_slip_pure_gradient_forcing",
                 EVOLUTION_GRID),)),
    Mutant("unprojected_datum", "hodgehalf.evolution:_projected_datum",
           "pu0_hat, gu0_hat = leray_halfspace_hat(u0)",
           "pu0_hat, gu0_hat = extend_spectra(u0), leray_halfspace_hat(u0)[1]",
           (gate("test_evolution::test_stokes_rejects_nonsolenoidal_start",
                 EVOLUTION_GRID),)),
    # -- maximal regularity: closed form, Hessian, time rule, blocks ----------
    Mutant("dt_cross_sign", "hodgehalf.evolution:_closed_form",
           "-2.0 * lam * rest * gram.rf", "2.0 * lam * rest * gram.rf",
           (gate("test_evolution::"
                 "test_closed_form_time_derivative_against_long_double"),
            gate("test_evolution::test_forced_sweep_of_a_half_space_mode"))),
    Mutant("u_cross_factor", "hodgehalf.evolution:_closed_form",
           "2.0 * rho_over_lam * gram.uf", "rho_over_lam * gram.uf",
           (MAX_REG_STREAMING,)),
    # only the mean's growth over T = 100 reads the zero shell's t^2 G_ff
    Mutant("flat_t2", "hodgehalf.evolution:_closed_form",
           "np.array([2.0 * gram.uf[0], gram.ff[0]])",
           "np.array([2.0 * gram.uf[0], 0.0])",
           (gate("test_evolution::"
                 "test_closed_form_report_matches_the_stepped_trajectory",
                 EVOLUTION_GRID, 100.0),)),
    # on the README grid's 885 shells the 33 nodes make two blocks, the
    # second from t = 0.56 T: the cases' shells (|xi| in [1, 2.2]) have all
    # relaxed there at T = 100, and at T = 10 none has, but 6 ln 2 cuts them
    Mutant("relaxed_tail_dropped", "hodgehalf.evolution:_closed_form_energies",
           "            out[m0:m1] += tail[live]\n", "            pass\n",
           (gate(CLOSED_FORM_MATCH, Grid(2, 128, 16.0), 100.0),)),
    Mutant("relaxed_cut_early", "hodgehalf.evolution:_closed_form_energies",
           "np.searchsorted(times[m0] * lam, _RELAXED)",
           "np.searchsorted(times[m0] * lam, 6.0 * math.log(2.0))",
           (gate(CLOSED_FORM_MATCH, Grid(2, 128, 16.0), 10.0),)),
    Mutant("weight_row", "hodgehalf.evolution:_block_table",
           "blocks = weights.shape[0]\n",
           "weights = weights.copy()\n    weights[1] = 0.0\n"
           "    blocks = weights.shape[0]\n",
           (MAX_REG_STREAMING,)),
    Mutant("hessian_sqrt2", "hodgehalf.evolution:_hessian_spectra",
           "w = 2.0 if b > a else 1.0", "w = 1.0",
           (MAX_REG_STREAMING,)),
    Mutant("time_trapezoid_ends", "hodgehalf.evolution:_time_lq",
           "w[[0, -1]] *= 0.5", "w[[0, -1]] *= 1.0",
           (HALF_MODE,
            gate("test_evolution::"
                 "test_max_reg_time_quadrature_is_the_trapezoid_rule",
                 EVOLUTION_GRID))),
    Mutant("moved_block", "hodgehalf.littlewood_paley:_annulus",
           "    return radial_cutoff(",
           "    absxi = 2.0 * absxi if j == 1 else absxi\n"
           "    return radial_cutoff(",
           (WINDOW_SHELLS,)),
    Mutant("dropped_block", "hodgehalf.littlewood_paley:_annulus",
           "    return radial_cutoff(",
           "    if j == 1:\n        return 0.0 * absxi\n"
           "    return radial_cutoff(",
           (HALF_MODE, WINDOW_SHELLS)),
)

ROWS = {m.name: m for m in MUTANTS}
