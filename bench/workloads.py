"""The three benchmark workloads: maxreg, decompose and solve.

Each workload drives ``hodgehalf.cli.main`` in-process as a closed loop with
one client: a command starts only when the previous one has returned and its
outputs have been checked.  Set-up makes every input from the seed (configs,
and for ``decompose`` the field containers) and runs one untimed warm-up
command per grid.  A check that finds an output wrong marks the command
failed and ``wrong``; a command the program itself reports as failing its
tolerance (exit code 1, with the report backing it up) is failed but not
wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
import struct
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# bound besov_norm enforces on out-of-window mass; the p = 2 streaming path
# of maxreg skips that guard, so the benchmark applies it to the inputs
LEAK_TOL = 1e-10
# largest ratio drift across the T sweep, as in acceptance criterion 09
SPREAD_TOL = 1.1
# tolerance hodgehalf decompose applies to its four residuals
DECOMPOSE_TOL = 1e-8
# |p + g - u| / |u| with all three fields stored as complex64
SPLIT_TOL = 1e-6
# solenoidality tolerance of the verify evolution suite
SOLVE_TOL = 1e-9
# agreement with outputs recorded at the commit that defined the benchmark
REF_RTOL = 1e-9

HORIZONS = [1.0, 10.0, 100.0]
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


@dataclass
class Command:
    label: str
    grid: str  # "2d" or "3d"
    argv: list
    out: str
    input: str = ""  # the stored field a decompose command reads


@dataclass
class Outcome:
    label: str
    grid: str
    seconds: float
    reasons: list = field(default_factory=list)
    wrong: bool = False
    values: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.reasons)

    def bad(self, reason: str):
        """Record an output that failed one of the benchmark's checks."""
        self.reasons.append(reason)
        self.wrong = True


def run_cli(argv, tracer=None) -> int:
    """One in-process CLI command with its printout discarded."""
    from hodgehalf.cli import main

    if tracer is not None:
        tracer.begin_command()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_container(path: str) -> dict[int, np.ndarray]:
    """Read a field container without going through hodgehalf."""
    with open(path + ".json") as fh:
        meta = json.load(fh)
    with open(path, "rb") as fh:
        if fh.read(4) != b"HHF1":
            raise ValueError(f"{path}: bad magic")
        n, points, _, ncomp = struct.unpack("<iidi", fh.read(20))
        masks = struct.unpack(f"<{ncomp}i", fh.read(4 * ncomp))
        payload = np.frombuffer(fh.read(), dtype="<c8")
    shape = (points,) * n
    if meta.get("field_type") == "half":
        shape = shape[:-1] + (points // 2 + 1,)
    if payload.size != ncomp * math.prod(shape):
        raise ValueError(f"{path}: payload holds {payload.size} samples, "
                         f"expected {ncomp * math.prod(shape)}")
    comps = payload.reshape((ncomp,) + shape).astype(complex)
    return dict(zip(masks, comps))


def _container_header_bytes(path: str) -> int:
    with open(path, "rb") as fh:
        fh.seek(20)
        (ncomp,) = struct.unpack("<i", fh.read(4))
    return 24 + 4 * ncomp


def _mismatches(got, want, where: str) -> list[str]:
    if isinstance(want, dict):
        out = []
        for key, sub in want.items():
            if key not in got:
                out.append(f"{where}.{key} missing")
            else:
                out.extend(_mismatches(got[key], sub, f"{where}.{key}"))
        return out
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where} has {len(got)} entries, reference {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in _mismatches(g, w, f"{where}[{i}]")]
    if not abs(got - want) <= REF_RTOL * abs(want):
        return [f"{where} = {got!r}, reference {want!r}"]
    return []


def _write_json(path: str, payload) -> str:
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


class Workload:
    """Inputs, commands and output checks of one workload."""

    name = ""

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.commands: list[Command] = []
        self.grids: dict = {}
        path = os.path.join(REFERENCE_DIR, f"{self.name}.json")
        with open(path) as fh:
            self.reference = json.load(fh).get(str(seed))

    def _dir(self, *parts) -> str:
        path = os.path.join(self.work, *parts)
        os.makedirs(path, exist_ok=True)
        return path

    def setup(self, tracer=None):
        raise NotImplementedError

    def check(self, cmd: Command, code: int, outcome: Outcome):
        raise NotImplementedError

    def corrupt(self, cmd: Command):
        """Damage one output of ``cmd`` so that its check must fail."""
        raise NotImplementedError

    def run_round(self, tracer=None, corrupt_label=None,
                  after=None) -> list[Outcome]:
        """Every command once; ``after(seconds)`` runs untimed after each."""
        outcomes = []
        for cmd in self.commands:
            shutil.rmtree(cmd.out, ignore_errors=True)
            os.makedirs(cmd.out)
            t0 = perf_counter()
            try:
                code = run_cli(cmd.argv, tracer)
            except Exception as exc:  # a crash is a failed, wrong command
                outcome = Outcome(cmd.label, cmd.grid, perf_counter() - t0)
                outcome.bad(f"raised {type(exc).__name__}: {exc}")
                outcomes.append(outcome)
                if after is not None:
                    after(outcome.seconds)
                continue
            outcome = Outcome(cmd.label, cmd.grid, perf_counter() - t0)
            if cmd.label == corrupt_label:
                self.corrupt(cmd)
            try:
                self.check(cmd, code, outcome)
            except (OSError, ValueError, KeyError) as exc:
                outcome.bad(f"unreadable output: {type(exc).__name__}: {exc}")
            if self.reference is not None and not outcome.wrong:
                want = self.reference.get(cmd.label)
                if want is None:
                    outcome.bad("no recorded output for this command")
                else:
                    for msg in _mismatches(outcome.values, want, cmd.label):
                        outcome.bad(f"differs from recorded output: {msg}")
            outcomes.append(outcome)
            if after is not None:
                after(outcome.seconds)
        return outcomes


# ---------------------------------------------------------------------------


class MaxReg(Workload):
    """hodgehalf maxreg on the README configuration and the criterion-09 grid."""

    name = "maxreg"
    SPECS = {
        "2d": {"grid": {"n": 2, "points": 128, "length": 16.0},
               "spq": [[0.0, 2.0, 1.0], [0.0, 2.0, 2.0]], "M": 256,
               "radii": [1.0, 1.3]},
        "3d": {"grid": {"n": 3, "points": 32, "length": 8.0},
               "spq": [[0.0, 2.0, 2.0]], "M": 384, "radii": [1.02, 1.3]},
    }

    def setup(self, tracer=None):
        from hodgehalf.fields import Grid
        from hodgehalf.halfspace import extend, random_half_field
        from hodgehalf.littlewood_paley import default_bank

        for tag, spec in self.SPECS.items():
            config = dict(spec, system="hodge_stokes", T=HORIZONS,
                          seed=self.seed)
            grid = Grid(**spec["grid"])
            self.grids[tag] = grid
            # the forcing the CLI synthesizes from this config
            forcing = random_half_field(
                grid, "Ht", [1 << a for a in range(grid.n)],
                seed=self.seed + 1, kind="annulus_band",
                radii=tuple(spec["radii"]))
            leak = default_bank(grid).leakage(extend(forcing))
            if not leak <= LEAK_TOL:
                raise RuntimeError(f"maxreg {tag} forcing leaks {leak:.3e} of "
                                   f"its mass outside the bank window")
            path = _write_json(os.path.join(self._dir("in"), f"{tag}.json"),
                               config)
            out = self._dir("out", tag)
            self.commands.append(Command(tag, tag, ["maxreg", "--config", path,
                                                    "--out", out], out))
            warm = _write_json(os.path.join(self._dir("in"), f"warm-{tag}.json"),
                               dict(config, T=[1.0], M=8))
            code = run_cli(["maxreg", "--config", warm, "--out",
                            self._dir("warm", tag)], tracer)
            if code != 0:
                raise RuntimeError(f"maxreg warm-up on {tag} exited {code}")

    def check(self, cmd, code, outcome):
        n = self.grids[cmd.grid].n
        if code != 0:
            outcome.reasons.append(f"exit {code}")
        rows = read_csv(os.path.join(cmd.out, "maxreg.csv"))
        for s, p, q in self.SPECS[cmd.grid]["spq"]:
            got = [r for r in rows if (float(r["s"]), float(r["p"]),
                                       float(r["q"])) == (s, p, q)]
            gate = s + 2.0 - 2.0 / q
            complete = gate < n / p or (q == 1 and gate <= n / p)
            tag = f"(s={s:g},p={p:g},q={q:g})"
            if not complete:
                if [r["status"] for r in got] != ["rejected"]:
                    outcome.bad(f"{tag} fails the completeness predicate "
                                f"but was not rejected")
                continue
            if sorted(float(r["T"]) for r in got) != HORIZONS:
                outcome.bad(f"{tag} rows cover T = {[r['T'] for r in got]}")
                continue
            for r in got:
                nums = [float(r[k]) for k in
                        ("lhs_sup", "lhs_lq", "rhs_f", "rhs_u0", "ratio")]
                if r["status"] != "ok":
                    outcome.bad(f"{tag} T={r['T']} status {r['status']}")
                if not all(math.isfinite(x) and x > 0 for x in nums):
                    outcome.bad(f"{tag} T={r['T']} non-finite or "
                                f"non-positive norms {nums}")
                outcome.values[f"s{s:g}_p{p:g}_q{q:g}_T{float(r['T']):g}"] = nums
            ratios = [float(r["ratio"]) for r in got]
            if not all(math.isfinite(x) and x > 0 for x in ratios):
                continue
            spread = max(ratios) / min(ratios)
            if not spread <= SPREAD_TOL:
                outcome.bad(f"{tag} ratio spread {spread:.4f} > {SPREAD_TOL}")

    def corrupt(self, cmd):
        path = os.path.join(cmd.out, "maxreg.csv")
        rows = read_csv(path)
        last = [r for r in rows if r["status"] == "ok"][-1]
        last["ratio"] = repr(1.5 * float(last["ratio"]))
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)


class Decompose(Workload):
    """hodgehalf decompose once per stored tangential half 1-form."""

    name = "decompose"
    BATCHES = {"2d": ({"n": 2, "points": 128, "length": 16.0}, 20),
               "3d": ({"n": 3, "points": 64, "length": 16.0}, 3)}
    RADII = (1.0, 3.0)
    CHECKED = ("split_residual", "p_divergence", "g_curl",
               "orthogonality_defect")

    def setup(self, tracer=None):
        from hodgehalf.fields import Grid, save_field
        from hodgehalf.halfspace import random_half_field

        for b, (tag, (spec, count)) in enumerate(self.BATCHES.items()):
            grid = Grid(**spec)
            self.grids[tag] = grid
            for i in range(count + 1):
                u = random_half_field(grid, "Ht", [1 << a for a in range(grid.n)],
                                      seed=self.seed * 100 + 50 * b + i,
                                      kind="annulus_band", radii=self.RADII)
                label = f"{tag}-{i:02d}" if i < count else f"warm-{tag}"
                field_path = os.path.join(self._dir("in"), f"{label}.hhf")
                save_field(field_path, u)
                config = _write_json(os.path.join(self._dir("in"),
                                                  f"{label}.json"),
                                     {"field": field_path})
                out = self._dir("out", label)
                argv = ["decompose", "--config", config, "--out", out]
                if i < count:
                    self.commands.append(Command(label, tag, argv, out,
                                                 field_path))
                else:
                    code = run_cli(argv, tracer)
                    if code not in (0, 1):
                        raise RuntimeError(f"decompose warm-up on {tag} "
                                           f"exited {code}")

    def check(self, cmd, code, outcome):
        with open(os.path.join(cmd.out, "decompose.json")) as fh:
            report = json.load(fh)
        over = [f"{k} {report[k]:.3g} > {DECOMPOSE_TOL:g}" for k in self.CHECKED
                if not report[k] <= DECOMPOSE_TOL]
        if code == 1 and over:
            outcome.reasons.append("exit 1: " + ", ".join(over))
        elif code == 1:
            outcome.bad("exit 1 although every reported residual is within "
                        f"{DECOMPOSE_TOL:g}")
        elif code == 0 and over:
            outcome.bad("exit 0 although " + ", ".join(over))
        elif code != 0:
            outcome.bad(f"exit {code}")
        u = read_container(cmd.input)
        p = read_container(os.path.join(cmd.out, "p_part.hhf"))
        g = read_container(os.path.join(cmd.out, "g_part.hhf"))
        if not set(p) == set(g) == set(u):
            outcome.bad(f"masks differ: input {sorted(u)}, p {sorted(p)}, "
                        f"g {sorted(g)}")
            return
        num = sum(float(np.sum(np.abs(p[m] + g[m] - u[m]) ** 2)) for m in u)
        den = sum(float(np.sum(np.abs(u[m]) ** 2)) for m in u)
        split = math.sqrt(num / den)
        if not split <= SPLIT_TOL:
            outcome.bad(f"stored p + g misses the input by {split:.3g} "
                        f"> {SPLIT_TOL:g}")
        outcome.values = {k: report[k] for k in
                          ("norm", "p_mass_fraction", "g_mass_fraction")}

    def corrupt(self, cmd):
        path = os.path.join(cmd.out, "p_part.hhf")
        stored = np.memmap(path, dtype="<c8", mode="r+",
                           offset=_container_header_bytes(path))
        stored[: stored.size // 8] += np.float32(1e-2) * np.abs(stored).max()
        stored.flush()
        del stored


class Solve(Workload):
    """hodgehalf solve, Navier-slip with random constant forcing."""

    name = "solve"
    GRIDS = {"2d": {"n": 2, "points": 128, "length": 16.0},
             "3d": {"n": 3, "points": 32, "length": 16.0}}
    T, M = 1.0, 64

    def setup(self, tracer=None):
        from hodgehalf.fields import Grid

        for tag, spec in self.GRIDS.items():
            self.grids[tag] = Grid(**spec)
            config = {"grid": spec, "system": "navier_slip", "T": self.T,
                      "M": self.M, "forcing": "random", "seed": self.seed}
            path = _write_json(os.path.join(self._dir("in"), f"{tag}.json"),
                               config)
            out = self._dir("out", tag)
            self.commands.append(Command(tag, tag, ["solve", "--config", path,
                                                    "--out", out], out))
            warm = _write_json(os.path.join(self._dir("in"), f"warm-{tag}.json"),
                               dict(config, M=4))
            code = run_cli(["solve", "--config", warm, "--out",
                            self._dir("warm", tag)], tracer)
            if code != 0:
                raise RuntimeError(f"solve warm-up on {tag} exited {code}")

    def check(self, cmd, code, outcome):
        if code != 0:
            outcome.bad(f"exit {code}")
        rows = read_csv(os.path.join(cmd.out, "solve.csv"))
        if len(rows) != self.M + 1:
            outcome.bad(f"{len(rows)} nodes, expected {self.M + 1}")
            return
        l2, grad_p = [], []
        for m, row in enumerate(rows):
            t, norm, div, trace, gp = (float(row[k]) for k in (
                "t", "l2", "divergence", "tangential_trace", "grad_p_l2"))
            if not abs(t - m * self.T / self.M) <= 1e-12:
                outcome.bad(f"node {m} at t = {t}")
            if not (math.isfinite(norm) and norm > 0 and math.isfinite(gp)):
                outcome.bad(f"node {m}: l2 {norm}, grad_p_l2 {gp}")
                continue
            for what, value in (("divergence", div), ("tangential_trace", trace)):
                if not value / norm <= SOLVE_TOL:
                    outcome.bad(f"node {m}: {what}/l2 {value / norm:.3g} "
                                f"> {SOLVE_TOL:g}")
            l2.append(norm)
            grad_p.append(gp)
        outcome.values = {"l2": l2, "grad_p_l2": grad_p}

    def corrupt(self, cmd):
        path = os.path.join(cmd.out, "solve.csv")
        rows = read_csv(path)
        mid = rows[len(rows) // 2]
        mid["divergence"] = repr(1e-6 * float(mid["l2"]))
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)


WORKLOADS = {w.name: w for w in (MaxReg, Decompose, Solve)}
