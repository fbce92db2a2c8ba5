"""Command-line driver: exit codes, CSV reports, field container round trips."""

import collections
import csv
import hashlib
import importlib.util
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from hodgehalf import halfspace
from hodgehalf.cli import main
from hodgehalf.evolution import (SpaceParams, max_reg_sweep, refusal,
                                 sweep_spectra)
from hodgehalf.fields import Grid, save_field
from hodgehalf.halfspace import (d_half, extend_spectra, random_half_field,
                                 restrict_spectra)
from hodgehalf.littlewood_paley import default_bank
from hodgehalf.operators import frac_symbol, leray_hat


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_verify_algebra_suite_passes(tmp_path, capsys):
    code = main(["verify", "--suite", "algebra", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "wedge_anticommutativity" in out
    rows = read_csv(tmp_path / "verify.csv")
    assert all(row["status"] == "ok" for row in rows)
    assert all(float(row["scale"]) > 0 for row in rows)


def test_verify_unknown_suite_is_config_error(tmp_path, capsys):
    code = main(["verify", "--suite", "nonsense", "--out", str(tmp_path)])
    assert code == 2


def test_verify_guard_in_a_suite_fails_that_suite(tmp_path, monkeypatch,
                                                 capsys):
    # a numerical guard raised inside a suite is a failing check of that
    # suite (exit 1), not a configuration error (exit 2)
    from hodgehalf import verify

    def guard(u):
        raise ValueError("the Helmholtz-Leray projector needs a mean-free "
                         "field; component mean 1.000e-03 exceeds 1e-10 * |u|")

    monkeypatch.setattr(verify, "leray_halfspace", guard)
    code = main(["verify", "--suite", "halfspace", "--out", str(tmp_path)])
    assert code == 1
    assert "mean-free" in capsys.readouterr().out
    rows = read_csv(tmp_path / "verify.csv")
    assert [(r["suite"], r["check"], r["status"]) for r in rows] == \
        [("halfspace", "guard", "fail")]


def test_verify_impossible_tolerance_fails(tmp_path):
    code = main(["verify", "--suite", "algebra", "--out", str(tmp_path),
                 "--tol-scale", "1e-300"])
    assert code == 1


def test_verify_missing_config_file(tmp_path):
    code = main(["verify", "--config", str(tmp_path / "absent.json")])
    assert code == 2


def test_decompose_gradient_field(tmp_path, capsys):
    grid = Grid(2, 64, 16.0)
    phi = random_half_field(grid, "Ht", [0], seed=1, kind="annulus_band",
                            radii=(1.0, 2.5))
    grad = d_half(phi)
    field_path = str(tmp_path / "grad.hhf")
    save_field(field_path, grad)
    cfg = write_config(tmp_path, {"field": field_path})
    code = main(["decompose", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "decompose.json") as fh:
        report = json.load(fh)
    # a gradient lands entirely in the exact part
    assert report["g_mass_fraction"] > 0.999999
    assert report["p_mass_fraction"] < 1e-6
    assert os.path.exists(tmp_path / "p_part.hhf")
    assert os.path.exists(tmp_path / "g_part.hhf")


def _stored_half_field(tmp_path, grid, seed):
    """A decompose config naming a stored tangential half 1-form."""
    u = random_half_field(grid, "Ht", [1 << a for a in range(grid.n)],
                          seed=seed, kind="annulus_band", radii=(1.0, 3.0))
    field_path = str(tmp_path / "u.hhf")
    save_field(field_path, u)  # complex64 payload
    return write_config(tmp_path, {"field": field_path})


def _decompose_stored(tmp_path, grid, seed):
    cfg = _stored_half_field(tmp_path, grid, seed)
    code = main(["decompose", "--config", cfg, "--out", str(tmp_path)])
    with open(tmp_path / "decompose.json") as fh:
        return code, json.load(fh)


@pytest.mark.parametrize("grid", [Grid(2, 64, 16.0), Grid(3, 32, 16.0)],
                         ids=["n2", "n3"])
def test_decompose_single_precision_round_trip(tmp_path, grid):
    # single-precision noise reaches the Nyquist planes; the odd symbols
    # vanish there, so the split stays clean to round-off
    code, report = _decompose_stored(tmp_path, grid, seed=3)
    assert code == 0
    assert report["p_divergence"] <= 1e-13
    assert report["g_curl"] <= 1e-13
    assert report["orthogonality_defect"] <= 1e-13


def _skip_one_tangential_inverse(monkeypatch):
    # Pu stays in tangential spectra
    real = halfspace._tangential_inverse
    calls = []

    def mutant(grid, flavor, rows):
        calls.append(1)
        if len(calls) == 1:
            return halfspace.HalfField(grid, flavor, rows)
        return real(grid, flavor, rows)

    monkeypatch.setattr(halfspace, "_tangential_inverse", mutant)


def _seam_from_wrong_row(monkeypatch):
    # an even component's seam row x_n = L is read from torus row 1, the
    # mirror of x_n = L - h, in place of row 0
    def mutant(arr, parity, out=None):
        half = arr.shape[-1] // 2
        if out is None:
            out = np.empty(arr.shape[:-1] + (half + 1,), dtype=complex)
        out[..., :half] = arr[..., half:]
        out[..., half] = arr[..., 1] if parity > 0 else 0.0
        return out

    monkeypatch.setattr(halfspace, "_restrict_array", mutant)


def _nyquist_symbol(monkeypatch):
    # the odd symbols read the true xi at k = N/2 again
    monkeypatch.setattr(Grid, "odd_freqs", Grid.freqs)


@pytest.mark.parametrize("mutate, key", [
    (_skip_one_tangential_inverse, "split_residual"),
    (_seam_from_wrong_row, "g_curl"),
    (_nyquist_symbol, "p_divergence"),
], ids=["skipped_inverse", "seam_row", "nyquist_symbol"])
def test_decompose_catches_a_mutant(tmp_path, monkeypatch, mutate, key):
    mutate(monkeypatch)
    code, report = _decompose_stored(tmp_path, Grid(2, 64, 16.0), seed=3)
    assert code == 1
    assert report[key] > 1e-8


@pytest.mark.parametrize("n, points", [(2, 32), (3, 16), (3, 64)])
def test_decompose_fft_count(tmp_path, fft_counts, n, points):
    # the split transforms 3n components (n forward, 2n inverse), each by a
    # tangential pass on the stored rows (n - 1 axes) and a normal-axis pass
    # per block of first-axis rows; |delta_half(Pu)| and |d_half(Gu)| are
    # read from the parts' tangential spectra, where only their 2 + 2 (n - 1)
    # normal derivatives transform (a forward and an inverse pass per block).
    # At n = 2 the keys 1 and n - 1 coincide.
    grid = Grid(n, points, 8.0)
    blocks = len(halfspace._row_blocks(grid))
    assert blocks == (8 if points == 64 else 1)
    cfg = _stored_half_field(tmp_path, grid, seed=3)
    fft_counts.clear()
    assert main(["decompose", "--config", cfg, "--out", str(tmp_path)]) == 0
    normal = [shape for axes, shape in fft_counts.calls if axes == (n - 1,)]
    assert len(normal) == blocks * 5 * n
    expected = collections.Counter()
    expected[1] += len(normal)
    expected[n - 1] += 3 * n
    assert fft_counts == expected
    # no pass covers all n axes, a pass that leaves out the normal axis runs
    # on the N/2 + 1 stored rows, and with more than one block no pass takes
    # an array of the doubled torus' shape
    for axes, shape in fft_counts.calls:
        assert axes is not None and len(axes) < n
        assert blocks == 1 or shape != grid.shape
        assert shape[-1] == (points if n - 1 in axes else points // 2 + 1)


def test_decompose_missing_field_is_config_error(tmp_path):
    cfg = write_config(tmp_path, {"field": str(tmp_path / "absent.hhf")})
    assert main(["decompose", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_decompose_bad_container_is_config_error(tmp_path, capsys):
    grid = Grid(2, 32, 8.0)
    u = random_half_field(grid, "Ht", [1, 2], seed=1, kind="annulus_band",
                          radii=(1.0, 2.5))
    field_path = str(tmp_path / "cut.hhf")
    save_field(field_path, u)
    with open(field_path, "r+b") as fh:
        fh.truncate(os.path.getsize(field_path) - 8)
    cfg = write_config(tmp_path, {"field": field_path})
    assert main(["decompose", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"{field_path}: payload has" in capsys.readouterr().err


def test_bench_tracer_wraps_and_restores(tmp_path):
    # the benchmark's --trace mode patches these names where they are bound
    from hodgehalf import cli, halfspace

    spec = importlib.util.spec_from_file_location(
        "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    originals = [(cli, "run_solve", cli.run_solve),
                 (cli.COMMANDS, "solve", cli.COMMANDS["solve"]),
                 (halfspace, "extend", halfspace.extend),
                 (np.fft, "fftn", np.fft.fftn)]
    l2_norm = halfspace.HalfField.__dict__["l2_norm"]
    cfg = write_config(tmp_path, {
        "grid": {"n": 2, "points": 16, "length": 8.0},
        "system": "navier_slip", "T": 0.1, "M": 2})
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
        stats = tracer.take()
    finally:
        tracer.uninstall()
    assert stats["calls"]["cli.run_solve"] == 1
    assert stats["calls"]["halfspace.HalfField.l2_norm"] > 0
    assert stats["fft"]["cli.run_solve"] == stats["fft_calls"] > 0
    for owner, key, orig in originals:
        now = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        assert now is orig, key
    assert halfspace.HalfField.__dict__["l2_norm"] is l2_norm


def test_solve_free_decay_matches_semigroup(tmp_path):
    cfg = write_config(tmp_path, {
        "grid": {"n": 2, "points": 64, "length": 8.0},
        "system": "hodge_stokes", "T": 1.0, "M": 16, "forcing": "none"})
    code = main(["solve", "--config", cfg, "--out", str(tmp_path), "--seed", "3"])
    assert code == 0
    rows = read_csv(tmp_path / "solve.csv")
    assert len(rows) == 17
    norms = [float(r["l2"]) for r in rows]
    # pure semigroup decay: nonincreasing norms, strictly below the start
    assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))
    assert norms[-1] < norms[0]
    assert all(float(r["divergence"]) < 1e-9 * max(norms[0], 1e-30) for r in rows)
    # spectral decay oracle: rebuild the same seeded datum and evolve exactly
    from hodgehalf.cli import RunConfig, _corpus_field
    from hodgehalf.halfspace import extend, leray_halfspace
    from hodgehalf.operators import heat

    grid = Grid(2, 64, 8.0)
    cfg_obj = RunConfig(command="solve", grid_n=2, grid_points=64,
                        grid_length=8.0, seed=3)
    u0, _ = leray_halfspace(_corpus_field(cfg_obj, grid))
    U0 = extend(u0)
    for m, row in enumerate(rows):
        t = float(row["t"])
        expected = heat(t, U0).l2_norm() / np.sqrt(2.0)
        assert abs(float(row["l2"]) - expected) <= 1e-10 * max(expected, 1e-30)


def _solve_rows(tmp_path, payload, seed):
    cfg = write_config(tmp_path, payload)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path),
                 "--seed", str(seed)]) == 0
    return read_csv(tmp_path / "solve.csv")


SOLVE_CASES = [("hodge_heat", "D"), ("hodge_heat", "N"), ("hodge_heat", "Ht"),
               ("hodge_heat", "Hn"), ("hodge_stokes", "Ht"),
               ("navier_slip", "Ht")]


def _solve_payload(system, flavor, **extra):
    return dict({"grid": {"n": 2, "points": 32, "length": 8.0},
                 "system": system, "flavor": flavor, "T": 1.0, "M": 8}, **extra)


def _rebuilt_trajectory(system, flavor, seed):
    """The run of _solve_payload through the solver API, every node stored."""
    from hodgehalf.cli import RunConfig, _corpus_field
    from hodgehalf.evolution import (solve_hodge_heat, solve_hodge_stokes,
                                     solve_navier_slip)

    grid = Grid(2, 32, 8.0)
    u0 = _corpus_field(RunConfig(command="solve", seed=seed), grid,
                       flavor=flavor)
    f = random_half_field(grid, flavor, u0.masks(), seed=seed + 1,
                          kind="annulus_band", radii=(1.0, 2.5))
    if system == "hodge_heat":
        return solve_hodge_heat(f, u0, 1.0, 8)
    if system == "hodge_stokes":
        return solve_hodge_stokes(f, u0, 1.0, 8, auto_project=True)
    return solve_navier_slip(f, u0, 1.0, 8, auto_project=True)[0]


@pytest.mark.parametrize("system, flavor", SOLVE_CASES)
def test_solve_divergence_matches_delta_half(tmp_path, system, flavor):
    # the CLI reads delta u from the stepper's spectra; the oracle rebuilds
    # the run through the solver API and applies delta_half to each node
    from hodgehalf.halfspace import delta_half

    rows = _solve_rows(tmp_path, _solve_payload(system, flavor), seed=5)
    traj = _rebuilt_trajectory(system, flavor, seed=5)
    assert len(rows) == len(traj.u) == 9
    for row, um in zip(rows, traj.u):
        want = delta_half(um).l2_norm()
        # the CSV prints 12 significant digits: allow half its last place
        printed = 0.5 * 10.0 ** (math.floor(math.log10(want)) - 11) if want else 0.0
        assert abs(float(row["divergence"]) - want) \
            <= 1e-12 * float(row["l2"]) + printed


@pytest.mark.parametrize("system, flavor", SOLVE_CASES)
def test_solve_spectral_columns_match_node_fields(tmp_path, monkeypatch,
                                                  system, flavor):
    # l2 (Parseval) and tangential_trace (the boundary row summed from the
    # spectra) against the half-row norm and the trace of each node field
    from hodgehalf import cli
    from hodgehalf.halfspace import tangential_trace

    written = []
    monkeypatch.setattr(cli, "_write_csv",
                        lambda path, rows: written.append(rows))
    cfg = write_config(tmp_path, _solve_payload(system, flavor))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path),
                 "--seed", "5"]) == 0
    rows = written[0]
    traj = _rebuilt_trajectory(system, flavor, seed=5)
    assert len(rows) == len(traj.u) == 9
    traces = []
    for row, um in zip(rows, traj.u):
        l2, trace = um.l2_norm(), tangential_trace(um).l2_norm()
        assert l2 > 0
        assert abs(row["l2"] - l2) <= 1e-13 * l2
        assert abs(row["tangential_trace"] - trace) <= 1e-13 * l2
        traces.append(trace / l2)
    # the normal component extends evenly under N and Hn only: there the
    # trace is O(l2), so the comparison above is not one of round-off
    if flavor in ("N", "Hn"):
        assert min(traces) > 1e-3
    else:
        assert max(traces) < 1e-14


def test_solve_trace_sees_an_even_normal_part(tmp_path, monkeypatch):
    # mutation: every step adds to the normal component an even part (a copy
    # of the tangential one), which the odd Ht extension forbids; the
    # boundary row is then nonzero and the trace column must say so
    from hodgehalf.evolution import _Stepper

    payload = _solve_payload("navier_slip", "Ht")
    rows = _solve_rows(tmp_path, payload, seed=5)
    assert all(float(r["tangential_trace"]) <= 1e-9 * float(r["l2"])
               for r in rows)

    real = _Stepper.advance

    def advance(self, f_mid_hat):
        real(self, f_mid_hat)
        self.state[2] += 0.1 * self.state[1]

    monkeypatch.setattr(_Stepper, "advance", advance)
    rows = _solve_rows(tmp_path, payload, seed=5)
    assert all(float(r["tangential_trace"]) > 1e-9 * float(r["l2"])
               for r in rows[1:])


def _solve_with_nan_at_node(tmp_path, monkeypatch, node):
    """Run solve with a NaN patched into one coefficient of the state at
    ``node`` of 8; returns the exit code."""
    from hodgehalf.evolution import _Stepper

    real = _Stepper.advance
    calls = []

    def advance(self, f_mid_hat):
        real(self, f_mid_hat)
        calls.append(None)
        if len(calls) == node:
            self.state[1][1, 1] = np.nan

    monkeypatch.setattr(_Stepper, "advance", advance)
    cfg = write_config(tmp_path, _solve_payload("navier_slip", "Ht"))
    return main(["solve", "--config", cfg, "--out", str(tmp_path)])


def test_solve_non_finite_node_is_refused(tmp_path, monkeypatch):
    assert _solve_with_nan_at_node(tmp_path, monkeypatch, node=3) == 2
    assert not os.path.exists(tmp_path / "solve.csv")


def test_solve_non_finite_error_names_the_node(tmp_path, capsys):
    # a numerical failure on a valid configuration is a run error, not a
    # config problem, at an inner node and at the last one (M = 8), which no
    # endpoint field is built from before the observer sees it
    for node in (3, 8):
        with pytest.MonkeyPatch.context() as patch:
            assert _solve_with_nan_at_node(tmp_path, patch, node=node) == 2
        err = capsys.readouterr().err
        assert f"node {node} " in err
        assert err.startswith("run error: solve: ")


@pytest.mark.parametrize("system, flavor", [("hodge_heat", "N"),
                                            ("navier_slip", "Ht")])
def test_solve_snapshots_match_stored_nodes(tmp_path, system, flavor):
    # the snapshots are built in the observer; the oracle saves the stored
    # node fields of the same run, and the files must agree byte for byte
    cfg = write_config(tmp_path, _solve_payload(system, flavor,
                                                save_snapshots=True))
    out = tmp_path / "cli"
    assert main(["solve", "--config", cfg, "--out", str(out),
                 "--seed", "5"]) == 0
    traj = _rebuilt_trajectory(system, flavor, seed=5)
    oracle = tmp_path / "oracle"
    oracle.mkdir()
    for m in (0, 2, 4, 6, 8):
        name = f"snapshot_{m:05d}.hhf"
        save_field(str(oracle / name), traj.u[m],
                   metadata={"t": traj.time_grid.nodes()[m]})
        for suffix in ("", ".json"):
            assert (out / (name + suffix)).read_bytes() \
                == (oracle / (name + suffix)).read_bytes()
    assert len(list(out.glob("snapshot_*"))) == 10


def _leaky_split(monkeypatch, leaky_call):
    """Patch the solvers' Leray split so that its ``leaky_call``-th call (1:
    the datum, 2: the forcing) hands back the input's extension spectra as
    the projected part and no gradient part; returns the list of calls."""
    from hodgehalf import evolution
    from hodgehalf.fields import SpectralField
    from hodgehalf.halfspace import extend_spectra

    real = evolution.leray_halfspace_hat
    calls = []

    def leaky(u):
        calls.append(u)
        if len(calls) != leaky_call:
            return real(u)
        uh = extend_spectra(u)
        return uh, SpectralField(u.grid, {m: np.zeros_like(a)
                                          for m, a in uh.comps.items()})

    monkeypatch.setattr(evolution, "leray_halfspace_hat", leaky)
    return calls


def test_solve_divergence_sees_an_unprojected_forcing(tmp_path, monkeypatch):
    # mutation: the forcing split returns the forcing's own spectra as the
    # projected part, so the flow leaves the solenoidal class and the column
    # must say so
    payload = _solve_payload("navier_slip", "Ht")
    rows = _solve_rows(tmp_path, payload, seed=5)
    assert all(float(r["divergence"]) <= 1e-9 * float(r["l2"]) for r in rows)

    calls = _leaky_split(monkeypatch, leaky_call=2)
    rows = _solve_rows(tmp_path, payload, seed=5)
    assert len(calls) == 2
    assert any(float(r["divergence"]) > 1e-9 * float(r["l2"]) for r in rows)


def test_solve_divergence_sees_an_unprojected_datum(tmp_path, monkeypatch):
    # mutation: the stepper starts from the unprojected datum's spectra while
    # the forcing keeps its projection; the datum's divergence decays but
    # never reaches round-off within T = 1, so every node must show it
    payload = _solve_payload("navier_slip", "Ht")
    calls = _leaky_split(monkeypatch, leaky_call=1)
    rows = _solve_rows(tmp_path, payload, seed=5)
    assert len(calls) == 2
    assert all(float(r["divergence"]) > 1e-9 * float(r["l2"]) for r in rows)


@pytest.mark.parametrize("n, points", [(2, 32), (3, 16)])
def test_solve_fft_count(tmp_path, fft_counts, n, points):
    # The datum and the forcing are drawn on the annulus 1 <= |xi| <= 2.5.
    # The lattice step is pi/8, so |xi_a| <= 2.5 holds for |k| <= 6 < N/2:
    # two wrap-around slabs of lines per axis (k = 0..6 and k = -6..-1).  A
    # draw inverts axis by axis, last axis first, and along axis a only the
    # lines whose earlier coordinates lie in those slabs: 2^a one-axis passes
    # (one per choice of slab on each earlier axis), so sum_a 2^a = 2^n - 1
    # per component, for n components of each of the two draws.  Each
    # half-space transform of one component is a normal-axis pass (1 axis)
    # and a tangential pass on the stored rows (n - 1 axes): n to extend each
    # of the datum and the forcing before their splits in spectra, which the
    # stepper reads, and n to restrict grad p; the observed solve keeps no
    # node field, and the datum's gradient part is never inverted.  Per node
    # one normal-axis pass for the
    # divergence (a 1-form's delta has one component); its tangential sum and
    # the boundary row are read by Parseval, with no (n-1)-D pass.  At n = 2
    # the keys 1 and n - 1 coincide.
    assert 6 * math.pi / 8.0 <= 2.5 < 7 * math.pi / 8.0 and 6 < points // 2
    steps = 4
    _solve_rows(tmp_path, {"grid": {"n": n, "points": points, "length": 8.0},
                           "system": "navier_slip", "T": 1.0, "M": steps},
                seed=0)
    expected = collections.Counter()
    expected[1] += 2 * n * (2 ** n - 1) + 3 * n + steps + 1
    expected[n - 1] += 3 * n
    assert fft_counts == expected


@pytest.mark.parametrize("options, message", [
    ({"system": "bogus"}, "unknown system 'bogus'"),
    ({"T": -1.0}, "final time must be positive"),
    ({"T": 0.0}, "final time must be positive"),
    ({"M": 0}, "need at least one step"),
    ({"T": math.nan}, "final time must be finite"),
    ({"T": math.inf}, "final time must be finite"),
])
def test_solve_bad_run_is_refused_before_any_work(tmp_path, fft_counts,
                                                  capsys, options, message):
    cfg = write_config(tmp_path, dict(
        {"grid": {"n": 2, "points": 32, "length": 8.0}, "T": 1.0, "M": 8},
        **options))
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err
    assert not fft_counts
    assert not os.path.exists(tmp_path / "solve.csv")


@pytest.mark.parametrize("s", [math.nan, math.inf])
def test_normtable_non_finite_s_is_config_error(tmp_path, capsys, s):
    cfg = write_config(tmp_path, {
        "grid": {"n": 2, "points": 32, "length": 8.0},
        "norms": [{"kind": "besov", "s": s, "p": 2.0, "q": 2.0}]})
    assert main(["normtable", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "configuration error: s must be finite" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "normtable.csv")


def test_normtable_zero_field(tmp_path):
    cfg = write_config(tmp_path, {
        "grid": {"n": 2, "points": 64, "length": 16.0},
        "corpus_size": 2,
        "norms": [{"kind": "besov", "s": 0.5, "p": 2.0, "q": 2.0},
                  {"kind": "sobolev", "s": 1.0, "p": 2.0}]})
    code = main(["normtable", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "normtable.csv")
    assert len(rows) == 4
    assert {row["kind"] for row in rows} == {"besov", "sobolev"}
    for row in rows:
        assert float(row["value"]) > 0


def test_maxreg_csv_with_rejected_row(tmp_path):
    cfg = write_config(tmp_path, {
        "grid": {"n": 2, "points": 64, "length": 16.0},
        "spq": [[0.0, 2.0, 1.0], [0.0, 2.0, 2.0]],
        "T": [1.0, 4.0], "M": 32, "radii": [1.0, 1.3]})
    code = main(["maxreg", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    rows = read_csv(tmp_path / "maxreg.csv")
    rejected = [r for r in rows if r["status"] == "rejected"]
    accepted = [r for r in rows if r["status"] == "ok"]
    # (0, 2, 2) fails the completeness gate in dimension 2
    assert len(rejected) == 1 and "completeness" in rejected[0]["reason"]
    assert len(accepted) == 2
    for row in accepted:
        assert float(row["ratio"]) > 0
    spread = read_csv(tmp_path / "maxreg_spread.csv")
    assert len(spread) == 1
    assert float(spread[0]["spread"]) < 1.1


def test_maxreg_rejects_a_q_infinity_set_and_runs_the_others(tmp_path):
    # reports measure q < inf only, so a q = inf set is a rejected row, as a
    # set failing the completeness gate is, with the reason of the refusal
    # the library raises
    cfg = write_config(tmp_path, {
        "grid": {"n": 2, "points": 64, "length": 16.0},
        "spq": [[0.0, 2.0, 2.0], [-2.0, 2.0, math.inf], [0.0, 2.0, 1.0]],
        "T": [1.0, 4.0], "M": 32, "radii": [1.0, 1.3]})
    assert main(["maxreg", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "maxreg.csv")
    rejected = {r["q"]: r["reason"] for r in rows if r["status"] == "rejected"}
    assert "completeness" in rejected.pop("2")
    assert rejected.pop("inf") == refusal(SpaceParams(-2.0, 2.0, math.inf), 2)
    assert refusal(SpaceParams(-2.0, 2.0, math.inf), 2).startswith("q = inf")
    assert not rejected
    accepted = [r for r in rows if r["status"] == "ok"]
    assert [(r["q"], r["T"]) for r in accepted] == [("1", "1"), ("1", "4")]
    assert len(read_csv(tmp_path / "maxreg_spread.csv")) == 1


@pytest.mark.parametrize("command, payload", [
    ("solve", [1, 2]),
    ("solve", {"grid": 5}),
    ("solve", {"radii": 3}),
    ("solve", {"M": [4]}),
    ("maxreg", {"spq": 5}),
    ("maxreg", {"bank": 3}),
    ("normtable", {"norms": [5]}),
    ("verify", {"suites": 5}),
    ("decompose", {"field": 5}),
    ("normtable", {"out": 5}),
], ids=["list", "grid", "radii", "M", "spq", "bank", "norms", "suites",
        "field", "out"])
def test_malformed_config_value_is_config_error(tmp_path, monkeypatch, capsys,
                                                command, payload):
    monkeypatch.chdir(tmp_path)  # without --out the "out" key is read
    cfg = write_config(tmp_path, payload)
    code = main([command, "--config", cfg])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("n, points", [(2, 32), (3, 16)])
def test_maxreg_fft_count(tmp_path, fft_counts, monkeypatch, n, points):
    # The forcing is drawn on the annulus 1 <= |xi| <= 1.3.  The lattice step
    # is pi/8, so |xi_a| <= 1.3 holds for |k| <= 3 < N/2: two wrap-around
    # slabs of lines per axis.  A draw inverts axis by axis, last axis first,
    # and along axis a only the lines whose earlier coordinates lie in those
    # slabs: 2^a one-axis passes, so 2^n - 1 per component for n components.
    # Its extension spectra are taken once, a normal-axis pass (1 axis) and a
    # tangential pass on the stored rows (n - 1 axes) per component, and
    # Leray-split once in spectra; the steady datum is formed on the
    # projected spectra and never restricted, and every accepted (s, p, q)
    # and horizon reads the same spectra: n component transforms, whatever
    # the sets, T and M are.  At n = 2 the keys 1 and n - 1 coincide.  No
    # array is transformed twice along the same axes.
    assert 3 * math.pi / 8.0 <= 1.3 < 4 * math.pi / 8.0 and 3 < points // 2
    draw = n * (2 ** n - 1)
    inputs = []
    for kind in ("fftn", "ifftn"):
        def hashed(a, s=None, axes=None, *args, _counted=getattr(np.fft, kind),
                   **kwargs):
            a = np.asarray(a)
            inputs.append(hashlib.sha256(
                repr((axes, a.shape, a.dtype.str)).encode()
                + np.ascontiguousarray(a).tobytes()).hexdigest())
            return _counted(a, s, axes, *args, **kwargs)

        monkeypatch.setattr(np.fft, kind, hashed)
    seen = []
    for spq in ([[0.0, 2.0, 1.0]],
                [[0.0, 2.0, 1.0], [-0.5, 2.0, 2.0], [0.25, 2.0, 1.5]]):
        for horizons in ([1.0], [1.0, 10.0, 100.0]):
            for steps in (8, 64):
                fft_counts.clear()
                inputs.clear()
                cfg = write_config(tmp_path, {
                    "grid": {"n": n, "points": points, "length": 8.0},
                    "spq": spq, "T": horizons, "M": steps,
                    "radii": [1.0, 1.3]})
                assert main(["maxreg", "--config", cfg, "--out",
                             str(tmp_path)]) == 0
                rows = read_csv(tmp_path / "maxreg.csv")
                assert [r["status"] for r in rows] == \
                    ["ok"] * len(spq) * len(horizons)
                seen.append(dict(fft_counts))
                assert len(set(inputs)) == len(inputs) == draw + 2 * n
    expected = collections.Counter()
    expected[1] += draw + n
    expected[n - 1] += n
    assert seen == [expected] * 8


@pytest.mark.parametrize("spq", [
    [[0.0, 2.0, 1.0], [-0.5, 2.0, 2.0], [0.25, 2.0, 1.5]],
    [[0.0, 3.0, 1.0], [0.25, 3.0, 1.0], [0.5, 3.0, 1.0]]], ids=["p2", "p3"])
def test_maxreg_sets_share_one_pass(tmp_path, fft_counts, monkeypatch, spq):
    # block norms depend on (p, homogeneous) alone, so three sets of one
    # layout make exactly the transforms and the lattice-to-shell reductions
    # (np.bincount) of one set: at p = 2 one set of Gram sums, at p = 3 one
    # stepped pass per horizon whose nodes invert their blocks
    reductions = []
    real = np.bincount

    def counted(*args, **kwargs):
        reductions.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", counted)
    seen = []
    for sets in (spq[:1], spq):
        fft_counts.clear()
        reductions.clear()
        cfg = write_config(tmp_path, {
            "grid": {"n": 2, "points": 32, "length": 8.0}, "spq": sets,
            "T": [1.0, 4.0], "M": 4, "radii": [1.0, 1.3]})
        assert main(["maxreg", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "maxreg.csv")
        assert [r["status"] for r in rows] == ["ok"] * 2 * len(sets)
        seen.append((list(fft_counts.calls), len(reductions)))
    assert seen[0] == seen[1]
    # the draw and the extension spectra make 10 transforms (see
    # test_maxreg_fft_count); only the stepped nodes add more
    assert (len(seen[0][0]) > 10) == (spq[0][1] != 2.0)


def _steady_half_datum(system, forcing):
    """The steady datum as a half-field, restrict_spectra(A^{-1} f_hat) of
    the spectra the system steps: P f_hat, or f_hat for hodge_heat."""
    f_hat = extend_spectra(forcing)
    if system != "hodge_heat":
        f_hat = leray_hat(f_hat)[0]
    return restrict_spectra(f_hat.apply_multiplier(
        frac_symbol(forcing.grid, -2.0)), forcing.flavor)


@pytest.mark.parametrize("system", ["hodge_stokes", "hodge_heat"])
def test_maxreg_spectral_datum_is_the_half_field_route(tmp_path, system):
    # the command measures its steady datum on the spectra the system
    # steps; max_reg_sweep on the restricted datum, re-extended and
    # re-projected, must give the same rows to round-off (the CSV keeps 12
    # digits), for a closed-form p = 2 set and a stepped p = 3 set
    grid = Grid(2, 32, 8.0)
    spq = [[0.0, 2.0, 1.0], [0.0, 3.0, 1.0]]
    horizons, steps = [1.0, 4.0], 4
    cfg = write_config(tmp_path, {
        "grid": {"n": 2, "points": 32, "length": 8.0}, "system": system,
        "spq": spq, "T": horizons, "M": steps, "radii": [1.0, 1.3],
        "seed": 3})
    code = main(["maxreg", "--config", cfg, "--out", str(tmp_path)])
    rows = read_csv(tmp_path / "maxreg.csv")
    forcing = random_half_field(grid, "Ht", [0b01, 0b10], seed=4,
                                kind="annulus_band", radii=(1.0, 1.3))
    u0 = _steady_half_datum(system, forcing)
    bank = default_bank(grid)
    spectra = sweep_spectra(system, forcing, u0)
    sweeps = [max_reg_sweep(system, *spectra, horizons, steps,
                            [SpaceParams(s, p, q)], bank) for s, p, q in spq]
    # the command exits 1 exactly when the reference's ratio drifts over T
    drift = any(max(r.ratio for r in reps) > 1.1 * min(r.ratio for r in reps)
                for reps in sweeps)
    assert code == (1 if drift else 0)
    want = [rep.row() for reps in sweeps for rep in reps]
    assert len(rows) == len(want) == 4
    for got, ref in zip(rows, want):
        assert got["status"] == "ok"
        for key in ("s", "p", "q", "T"):
            assert float(got[key]) == ref[key]
        for key in ("lhs_sup", "lhs_lq", "rhs_f", "rhs_u0", "ratio"):
            assert ref[key] > 0.0
            assert abs(float(got[key]) - ref[key]) <= 1e-11 * ref[key], \
                (got, ref, key)


def test_maxreg_heat_datum_is_steady(tmp_path, monkeypatch):
    # hodge_heat steps the forcing as drawn, so its steady datum is A^{-1} f:
    # on the README configuration the ratio holds over T.  The Stokes datum
    # A^{-1} P f is not steady for it, and the drift check must see that
    from hodgehalf import cli

    cfg = write_config(tmp_path, {
        "grid": {"n": 2, "points": 128, "length": 16.0},
        "system": "hodge_heat", "spq": [[0.0, 2.0, 1.0], [0.0, 2.0, 2.0]],
        "T": [1.0, 10.0, 100.0], "M": 256, "radii": [1.0, 1.3]})

    def spread(code):
        rows = read_csv(tmp_path / "maxreg_spread.csv")
        assert len(rows) == 1
        return code, float(rows[0]["spread"])

    code, value = spread(main(["maxreg", "--config", cfg, "--out",
                               str(tmp_path)]))
    assert code == 0 and value <= 1.1

    def projected_datum(system, forcing):
        f_hat = extend_spectra(forcing)
        return (leray_hat(f_hat)[0].apply_multiplier(
            frac_symbol(forcing.grid, -2.0)), f_hat)

    monkeypatch.setattr(cli, "steady_sweep_spectra", projected_datum)
    code, value = spread(main(["maxreg", "--config", cfg, "--out",
                               str(tmp_path)]))
    assert code == 1 and value > 1.1


@pytest.mark.parametrize("spq", [[[0.0, 2.0, 2.0]], [[0.0, 2.0, 1.0]]],
                         ids=["all_rejected", "accepted"])
def test_maxreg_unknown_system_is_config_error(tmp_path, fft_counts, capsys,
                                               spq):
    # (0, 2, 2) fails the completeness gate in 2-D, (0, 2, 1) passes it; the
    # system is refused either way, before any transform or output
    cfg = write_config(tmp_path, {
        "grid": {"n": 2, "points": 32, "length": 8.0}, "system": "bogus",
        "spq": spq, "T": [1.0], "M": 8})
    assert main(["maxreg", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "configuration error: unknown system 'bogus'" in \
        capsys.readouterr().err
    assert not fft_counts
    assert not os.path.exists(tmp_path / "maxreg.csv")


@pytest.mark.parametrize("options, message", [
    ({"spq": []}, "names no (s, p, q)"),
    ({"T": []}, "names no final time"),
    ({"spq": [[0.0, 2.0]]}, "is not an (s, p, q) triple"),
    ({"spq": [[0.0, 2.0, 1.0, 1.0]]}, "is not an (s, p, q) triple"),
    ({"T": [1.0, 0.0]}, "final time must be positive"),
    ({"T": [-1.0]}, "final time must be positive"),
    ({"T": [math.inf]}, "final time must be finite"),
    ({"T": [math.nan]}, "final time must be finite"),
    ({"M": 0}, "need at least one step"),
    ({"spq": [[0.0, 1.0, 1.0]]}, "p must lie in (1, inf)"),
    ({"spq": [[0.0, 2.0, 0.5]]}, "q must lie in [1, inf]"),
    ({"spq": [[math.nan, 2.0, 1.0]]}, "s must be finite"),
    ({"spq": [[0.0, 2.0, 1.0], [math.inf, 2.0, 1.0]]}, "s must be finite"),
], ids=["no_spq", "no_T", "short_spq", "long_spq", "zero_T", "negative_T",
        "infinite_T", "nan_T", "no_steps", "p", "q", "nan_s", "infinite_s"])
def test_maxreg_bad_config_is_refused_before_any_work(tmp_path, fft_counts,
                                                      capsys, options,
                                                      message):
    cfg = write_config(tmp_path, dict(
        {"grid": {"n": 2, "points": 32, "length": 8.0},
         "spq": [[0.0, 2.0, 1.0]], "T": [1.0], "M": 8}, **options))
    assert main(["maxreg", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert not fft_counts
    assert not os.path.exists(tmp_path / "maxreg.csv")


def test_maxreg_with_every_set_rejected_draws_nothing(tmp_path, fft_counts):
    cfg = write_config(tmp_path, {
        "grid": {"n": 2, "points": 32, "length": 8.0},
        "spq": [[0.0, 2.0, 2.0], [-2.0, 2.0, math.inf]], "T": [1.0], "M": 8})
    assert main(["maxreg", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert [r["status"] for r in read_csv(tmp_path / "maxreg.csv")] == \
        ["rejected"] * 2
    assert not fft_counts


def test_maxreg_data_outside_bank_window_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "grid": {"n": 2, "points": 64, "length": 8.0}, "bank": [0, 1],
        "spq": [[0.0, 2.0, 1.0]], "T": [1.0], "M": 8, "radii": [5.0, 9.0]})
    code = main(["maxreg", "--config", cfg, "--out", str(tmp_path)])
    assert code == 2
    assert "escapes the bank window" in capsys.readouterr().err


def test_outputs_deterministic_for_fixed_seed(tmp_path):
    cfg = write_config(tmp_path, {
        "grid": {"n": 2, "points": 64, "length": 16.0},
        "corpus_size": 1,
        "norms": [{"kind": "besov", "s": 0.25, "p": 2.0, "q": 1.0}]})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["normtable", "--config", cfg, "--out", str(out_a),
                 "--seed", "7"]) == 0
    assert main(["normtable", "--config", cfg, "--out", str(out_b),
                 "--seed", "7"]) == 0
    assert (out_a / "normtable.csv").read_bytes() == \
        (out_b / "normtable.csv").read_bytes()


@pytest.mark.parametrize("command, flag, value", [
    ("decompose", "--suite", "algebra"), ("solve", "--suite", "algebra"),
    ("maxreg", "--suite", "algebra"), ("normtable", "--suite", "algebra"),
    ("decompose", "--seed", "3"), ("solve", "--tol-scale", "2"),
    ("normtable", "--tol-scale", "2")])
def test_a_flag_its_command_never_reads_is_refused(command, flag, value,
                                                   capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_parser_is_built_once_and_reused(tmp_path, monkeypatch):
    from hodgehalf import cli

    seen = []
    for name in ("verify", "normtable"):
        monkeypatch.setitem(cli.COMMANDS, name,
                            lambda cfg: seen.append(cfg) or 0)
    assert main(["normtable", "--seed", "4", "--out", str(tmp_path)]) == 0
    assert main(["verify", "--suite", "algebra", "--tol-scale", "2"]) == 0
    assert [c.command for c in seen] == ["normtable", "verify"]
    assert (seen[0].seed, seen[0].out_dir, seen[0].tol_scale) == \
        (4, str(tmp_path), 1.0)
    assert (seen[1].seed, seen[1].suites, seen[1].tol_scale) == \
        (0, ["algebra"], 2.0)
    assert cli._parser() is cli._parser()
