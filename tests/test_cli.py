"""Command-line driver: exit codes, CSV reports, field container round trips."""

import collections
import csv
import hashlib
import importlib.util
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

import mutants
from hodgehalf import fields, halfspace, operators
from hodgehalf.cli import main
from hodgehalf.evolution import (SpaceParams, max_reg_sweep, refusal,
                                 sweep_spectra)
from hodgehalf.fields import Grid, save_field
from hodgehalf.halfspace import (d_half, extend_spectra, random_half_field,
                                 restrict_spectra)
from hodgehalf.littlewood_paley import FilterBank, default_bank
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


def test_verify_guard_in_a_suite_fails_that_suite(tmp_path, capsys):
    # a numerical guard raised inside a suite is a failing check of that
    # suite (exit 1), not a configuration error (exit 2), and the checks
    # that ran before it keep their rows: under whole even end rows the
    # split's mean-free guard fires after the resolvent checks
    with mutants.applied(mutants.ROWS["even_end_whole"]):
        code = main(["verify", "--suite", "halfspace", "--out",
                     str(tmp_path)])
    assert code == 1
    assert "mean-free" in capsys.readouterr().out
    rows = read_csv(tmp_path / "verify.csv")
    assert [(r["suite"], r["check"]) for r in rows] == [
        ("halfspace", check) for check in (
            "reflection_identity", "boundary_conditions",
            "neumann_dirichlet_decoupling", "guard")]
    assert rows[-1]["status"] == "fail"


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


@pytest.mark.parametrize("row, key", [
    ("skipped_inverse", "split_residual"),
    ("seam_row", "g_curl"),
    ("nyquist_symbol", "p_divergence"),
], ids=["skipped_inverse", "seam_row", "nyquist_symbol"])
def test_decompose_catches_a_mutant(tmp_path, row, key):
    # the command's own tolerance check flags each: Pu left in tangential
    # spectra, an even seam row x_n = L read from torus row 1 (the mirror of
    # x_n = L - h) in place of row 0, the odd symbols reading the true xi at
    # k = N/2
    with mutants.applied(mutants.ROWS[row]):
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
    # a sidecar that is not JSON is refused with the container named too
    with open(field_path + ".json", "w") as fh:
        fh.write("{not json")
    assert main(["decompose", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"configuration error: {field_path}: sidecar is not JSON: ")


@pytest.mark.parametrize("edit, message", [
    (lambda meta: [1, 2], "sidecar is not a JSON object"),
    (lambda meta: {k: v for k, v in meta.items() if k != "flavor"},
     "half-field sidecar names no flavor"),
], ids=["not-object", "no-flavor"])
def test_decompose_sidecar_without_a_field_is_config_error(tmp_path, capsys,
                                                           edit, message):
    # a sidecar that does not describe a field is refused with its file named,
    # not a traceback (exit 1 would read as a tolerance failure)
    cfg = _stored_half_field(tmp_path, Grid(2, 16, 8.0), seed=1)
    field_path = str(tmp_path / "u.hhf")
    with open(field_path + ".json") as fh:
        meta = json.load(fh)
    with open(field_path + ".json", "w") as fh:
        json.dump(edit(meta), fh)
    assert main(["decompose", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"configuration error: {field_path}: "
                                       f"{message}\n")


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
    from hodgehalf.halfspace import extend, leray_halfspace
    from hodgehalf.operators import heat

    u0, _ = leray_halfspace(random_half_field(
        Grid(2, 64, 8.0), "Ht", [1, 2], seed=3, kind="annulus_band",
        radii=(1.0, 2.5)))
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
    from hodgehalf.evolution import (solve_hodge_heat, solve_hodge_stokes,
                                     solve_navier_slip)

    u0, f = (random_half_field(Grid(2, 32, 8.0), flavor, [1, 2], seed=s,
                               kind="annulus_band", radii=(1.0, 2.5))
             for s in (seed, seed + 1))
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


def test_solve_trace_sees_an_even_normal_part(tmp_path):
    # mutation: every step adds to the normal component an even part (a copy
    # of the tangential one), which the odd Ht extension forbids; the
    # boundary row is then nonzero and the trace column must say so
    payload = _solve_payload("navier_slip", "Ht")
    rows = _solve_rows(tmp_path, payload, seed=5)
    assert all(float(r["tangential_trace"]) <= 1e-9 * float(r["l2"])
               for r in rows)
    with mutants.applied(mutants.ROWS["even_normal_part"]):
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


def test_solve_divergence_sees_an_unprojected_forcing(tmp_path):
    # mutation: the forcing split returns the forcing's own spectra as the
    # projected part, so the flow leaves the solenoidal class and the column
    # must say so
    payload = _solve_payload("navier_slip", "Ht")
    rows = _solve_rows(tmp_path, payload, seed=5)
    assert all(float(r["divergence"]) <= 1e-9 * float(r["l2"]) for r in rows)
    with mutants.applied(mutants.ROWS["unprojected_forcing"]):
        rows = _solve_rows(tmp_path, payload, seed=5)
    assert any(float(r["divergence"]) > 1e-9 * float(r["l2"]) for r in rows)


def test_solve_divergence_sees_an_unprojected_datum(tmp_path):
    # mutation: the stepper starts from the unprojected datum's spectra while
    # the forcing keeps its projection; the datum's divergence decays but
    # never reaches round-off within T = 1, so every node must show it
    payload = _solve_payload("navier_slip", "Ht")
    with mutants.applied(mutants.ROWS["unprojected_datum"]):
        rows = _solve_rows(tmp_path, payload, seed=5)
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


@pytest.mark.parametrize("command, payload, key", [
    ("solve", {"grid": {"n": True}}, "grid.n"),
    ("maxreg", {"grid": {"points": 16.9}}, "grid.points"),
    ("normtable", {"seed": 2.9}, "seed"),
    ("solve", {"M": 4.7}, "M"),
    ("solve", {"M": True}, "M"),
    ("maxreg", {"M": "4"}, "M"),
    ("normtable", {"corpus_size": 2.5}, "corpus_size"),
    ("maxreg", {"bank": [0, "2"]}, "bank"),
    ("normtable", {"bank": [0.5, 2]}, "bank"),
    ("verify", {"suites": "algebra"}, "suites"),
], ids=["grid.n-bool", "grid.points-fraction", "seed-fraction", "M-fraction",
        "M-bool", "M-string", "corpus_size-fraction", "bank-string",
        "bank-fraction", "suites-string"])
def test_integer_config_key_takes_only_integers(tmp_path, capsys, command,
                                                payload, key):
    # refused, not truncated or coerced: "M": 4.7 would run 4 steps, "M":
    # true 1 step, and "suites": "algebra" names the suites a, l, g, ...
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"configuration error: config key {key!r} is malformed: ")
    assert not out.exists()


# small base configs, so that a value the readers let through runs quickly
_BASE = {"verify": {}, "decompose": {},
         "solve": {"grid": {"n": 2, "points": 16, "length": 8.0},
                   "T": 0.1, "M": 2},
         "maxreg": {"grid": {"n": 2, "points": 32, "length": 8.0},
                    "spq": [[0.0, 2.0, 1.0]], "T": [1.0, 2.0], "M": 8},
         "normtable": {"grid": {"n": 2, "points": 32, "length": 8.0},
                       "corpus_size": 1}}


@pytest.mark.parametrize("command, payload, message", [
    ("solve", {"T": "0.1"}, "config key 'T' is malformed: '0.1' is not a "
                            "number"),
    ("solve", {"grid": {"n": 2, "points": 16, "length": "8"}},
     "config key 'grid.length' is malformed: '8' is not a number"),
    ("maxreg", {"tol_scale": "2"}, "config key 'tol_scale' is malformed: "),
    ("maxreg", {"radii": ["1", "1.3"]}, "config key 'radii' is malformed: "),
    ("maxreg", {"spq": [["0", "2", "1"]]}, "config key 'spq' is malformed: "),
    ("solve", {"T": True}, "config key 'T' is malformed: True is not a "
                           "number"),
    ("solve", {"grid": {"n": 2, "points": 16, "length": True}},
     "config key 'grid.length' is malformed: "),
    ("solve", {"save_snapshots": "no"},
     "config key 'save_snapshots' is malformed: 'no' is not true or false"),
    ("solve", {"forcing": "zero"}, "unknown forcing 'zero'; choose from "
                                   "random, none"),
    ("normtable", {"norms": [{"s": 0.0, "p": 2.0, "homogeneous": "false"}]},
     "config key 'norms.homogeneous' is malformed: "),
    ("normtable", {"norms": [{"s": 0.0, "p": 2.0, "qq": 3}]},
     "config key 'norms.qq' is not read by normtable"),
    ("normtable", {"norms": [{"p": 2.0}]}, "config key 'norms.s' is missing"),
    ("maxreg", {"bank": [0, 1, 2]}, "config key 'bank' is malformed: "
                                    "[0, 1, 2] is not a pair of integers"),
    ("solve", {"radii": [1.0]}, "config key 'radii' is malformed: [1.0] is "
                                "not a pair of numbers"),
    ("verify", {"suites": []}, "config key 'suites' is malformed: names no "
                               "suite"),
    ("normtable", {"norms": []}, "config key 'norms' is malformed: "),
    ("normtable", {"corpus_size": 0}, "config key 'corpus_size' is "
                                      "malformed: 0 is not a positive"),
    ("maxreg", {"bank": []}, "config key 'bank' is malformed: "),
], ids=["T-string", "length-string", "tol_scale-string", "radii-strings",
        "spq-strings", "T-bool", "length-bool", "save_snapshots-string",
        "forcing-unknown", "homogeneous-string", "norms-unread-key",
        "norms-no-s", "bank-triple", "radii-single", "suites-empty",
        "norms-empty", "corpus_size-zero", "bank-empty"])
def test_config_value_read_wrongly_is_refused(tmp_path, capsys, command,
                                              payload, message):
    # each was read as something else: a string or a bool as a number, "no"
    # as true, any forcing but "none" as random; or named no key, or ran
    # nothing and exited 0
    cfg = write_config(tmp_path, dict(_BASE[command], **payload))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: "
                                              f"{message}")
    assert not out.exists()


@pytest.mark.parametrize("command, flags, options", [
    ("decompose", ["--tol-scale", "nan"], {}),
    ("decompose", [], {"tol_scale": math.nan}),
    ("decompose", ["--tol-scale", "2"], {"tol_scale": math.inf}),
    ("maxreg", ["--tol-scale", "nan"], {}),
    ("maxreg", [], {"tol_scale": math.nan}),
    ("verify", ["--suite", "algebra", "--tol-scale", "nan"], {}),
], ids=["decompose-flag", "decompose-key", "decompose-inf", "maxreg-flag",
        "maxreg-key", "verify-flag"])
def test_tolerance_scale_not_finite_is_refused(tmp_path, capsys, command,
                                               flags, options):
    # "x > 1e-8 * nan" is False, so a NaN scale would pass every check
    if command == "decompose":
        cfg = _stored_half_field(tmp_path, Grid(2, 32, 8.0), seed=1)
        options = dict(json.loads(Path(cfg).read_text()), **options)
    cfg = write_config(tmp_path, dict(_BASE[command], **options))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: tolerance scale (--tol-scale times config key "
        "'tol_scale') must be finite and positive, got ")
    assert not out.exists()


def test_readme_key_table_is_each_command_table():
    # README lists every command's keys with their defaults; a JSON default,
    # read by the key's reader, is the table's default
    from hodgehalf.cli import TABLES

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n")[1].split("\n## ")[0]
    listed = {name: {} for name in TABLES}
    for key, commands, default in re.findall(
            r"^\| `(\w+)` \| ([a-z, ]+) \| .*? \| ([^|]+) \|$", section,
            re.M):
        for name in TABLES if commands == "all" else commands.split(", "):
            assert key not in listed[name], (name, key)
            listed[name][key] = default
    assert {name: set(keys) for name, keys in listed.items()} == \
        {name: set(table) for name, table in TABLES.items()}
    for name, keys in listed.items():
        for key, default in keys.items():
            reader, want = TABLES[name][key]
            if default.startswith("`"):
                assert reader(json.loads(default.strip("`"))) == want, key
            else:  # "required", or no value
                assert want is ... or want is None, key


@pytest.mark.parametrize("command, payload, key", [
    ("verify", {"suite": "algebra"}, "suite"),
    ("decompose", {"feild": "u.hhf"}, "feild"),
    ("solve", {"sytem": "hodge_heat"}, "sytem"),
    ("solve", {"grid": {"n": 2, "point": 16}}, "grid.point"),
    ("maxreg", {"sqp": [[0, 3, 1]]}, "sqp"),
    ("normtable", {"tol_scale": 2.0}, "tol_scale"),
], ids=["verify", "decompose", "solve", "solve-grid", "maxreg", "normtable"])
def test_unread_config_key_is_config_error(tmp_path, capsys, command, payload,
                                           key):
    # a misspelt key would otherwise run the default silently
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"configuration error: config key "
                                       f"{key!r} is not read by {command}\n")
    assert not out.exists()


@pytest.mark.parametrize("n, points", [(2, 32), (3, 16)])
def test_a_second_maxreg_builds_no_grid_table(tmp_path, monkeypatch, n,
                                              points):
    # the bank, |xi|^2 and |xi|^-2 depend on the grid alone and are kept: a
    # second command on an equal grid builds none of them
    banks = []
    init = FilterBank.__init__

    def counted(self, *args, **kwargs):
        banks.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FilterBank, "__init__", counted)
    mutants._clear_caches()
    cfg = write_config(tmp_path, {
        "grid": {"n": n, "points": points, "length": 8.0},
        "spq": [[0.0, 2.0, 1.0]], "T": [1.0, 10.0], "M": 8,
        "radii": [1.0, 1.3]})
    seen = []
    for _ in range(2):
        banks.clear()
        before = (fields._freq_sq.cache_info().misses,
                  operators.frac_symbol.cache_info().misses)
        assert main(["maxreg", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert read_csv(tmp_path / "maxreg.csv")[0]["status"] == "ok"
        seen.append((len(banks),
                     fields._freq_sq.cache_info().misses - before[0],
                     operators.frac_symbol.cache_info().misses - before[1]))
    assert seen == [(1, 1, 1), (0, 0, 0)]


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
    # each run reads exactly its command's table
    assert [set(c) for c in seen] == [set(cli.TABLES["normtable"]),
                                      set(cli.TABLES["verify"])]
    assert (seen[0]["seed"], seen[0]["out"]) == (4, str(tmp_path))
    assert "tol_scale" not in seen[0]  # normtable reads no tolerance
    assert (seen[1]["seed"], seen[1]["suites"], seen[1]["tol_scale"],
            seen[1]["out"]) == (0, ("algebra",), 2.0, ".")
    assert cli._parser() is cli._parser()
