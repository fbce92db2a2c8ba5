"""Command-line front end: verify / decompose / solve / maxreg / normtable.

Configuration is JSON, tabular reports are CSV (12 significant digits), and
fields travel in the binary container with a JSON sidecar.  Exit codes:
0 all checks passed, 1 a tolerance was violated, 2 a configuration error
(printed as "configuration error: ...") or a run that could not complete,
such as a solve whose state stops being finite ("run error: ...").
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

from .evolution import (SYSTEMS, SpaceParams, TimeGrid, max_reg_sweep, refusal,
                        solve_hodge_heat, solve_hodge_stokes,
                        solve_navier_slip, steady_sweep_spectra)
from .fields import Grid, SpectralField, load_field, random_form, save_field
from .halfspace import (FLAVORS, HalfField, NodeReader, random_half_field,
                        leray_halfspace_checked, remove_extended_mean,
                        restrict_spectra, split_residual, tangential_trace)
from .littlewood_paley import build_bank, default_bank, space_norm
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_TOL = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


class RunError(Exception):
    """A run that could not complete on a valid configuration."""


# ---------------------------------------------------------------------------
# configuration: one table per command, every key read once, before any work
# ---------------------------------------------------------------------------
# A reader takes a key's JSON value and returns what the command reads, or
# raises TypeError saying why the value is malformed (ConfigError where it
# words the whole message).

def _int(value) -> int:
    """An integer; int() would take a bool, a string or a fraction."""
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise TypeError(f"{value!r} is not an integer")


def _count(value) -> int:
    if _int(value) < 1:
        raise TypeError(f"{value!r} is not a positive integer")
    return int(value)


def _seed(value) -> int:
    """A non-negative integer: the draws seed generators with it."""
    if _int(value) < 0:
        raise TypeError(f"{value!r} is not a non-negative integer")
    return int(value)


def _num(value) -> float:
    """An int or a float, never a bool or a string.  A non-finite number is
    read as it is: the value it builds (Grid, TimeGrid, SpaceParams) refuses
    it where it has no meaning."""
    if type(value) in (int, float):
        return float(value)
    raise TypeError(f"{value!r} is not a number")


def _exact(kind: type, noun: str):
    """Reader of a value of type ``kind`` exactly: a bool is no int."""
    def read(value):
        if type(value) is not kind:
            raise TypeError(f"{value!r} is not {noun}")
        return value
    return read


_bool = _exact(bool, "true or false")
_str = _exact(str, "a string")


def _one_of(noun: str, names):
    """Reader of one of ``names``; any other value is an unknown ``noun``."""
    def read(value):
        if value not in names:
            raise ConfigError(f"unknown {noun} {value!r}; choose from "
                              f"{', '.join(names)}")
        return value
    return read


def _list(item, noun: str, size: int = 0):
    """Reader of a list whose entries ``item`` reads: ``size`` of them, with
    ``noun`` naming the list, or where size is 0 any number but none, with
    ``noun`` naming one entry."""
    def read(value):
        if not isinstance(value, list) or size and len(value) != size:
            raise TypeError(f"{value!r} is not {noun if size else 'a list'}")
        if not value:
            raise TypeError(f"names no {noun}")
        return tuple(item(entry) for entry in value)
    return read


def _parse(table: dict, value, path: str = "") -> dict:
    """Every key of ``table``, which maps it to (reader, default), read from
    the JSON object ``value``: an absent key takes its default, and a
    default of ``...`` makes it required.  A key the table does not list is
    a KeyError naming it.  ``path`` prefixes a nested object's keys."""
    if not isinstance(value, dict):
        raise TypeError(f"{value!r} is not an object")
    for key in sorted(value.keys() - table.keys()):
        raise KeyError(path + key)
    parsed = {}
    for key, (reader, default) in table.items():
        if key not in value and default is ...:
            raise ConfigError(f"config key {path + key!r} is missing")
        try:
            parsed[key] = reader(value[key]) if key in value else default
        except TypeError as exc:
            raise ConfigError(f"config key {path + key!r} is malformed: "
                              f"{exc}") from None
    return parsed


def _object(build, table: dict, path: str):
    """Reader of a JSON object through ``table``, passed to ``build``."""
    return lambda value: build(**_parse(table, value, path))


def _spq(value) -> SpaceParams:
    return SpaceParams(*_list(_num, "an (s, p, q) triple", 3)(value))


def _radii(value) -> tuple:
    """An annulus r0 <= |xi| <= r1, 0 <= r0 < r1.  RunConfig.from_args
    refuses an r1 past the grid's band, the draw one with no lattice point."""
    r0, r1 = _list(_num, "a pair of numbers", 2)(value)
    if not 0 <= r0 < r1:
        raise TypeError(f"{value!r} is not a pair 0 <= r0 < r1")
    return r0, r1


_grid = _object(Grid, {"n": (_int, 2), "points": (_int, 128),
                       "length": (_num, 16.0)}, "grid.")
_norm = _object(SpaceParams, {  # one normtable entry
    "kind": (_one_of("kind", ("besov", "sobolev")), "besov"),
    "s": (_num, ...), "p": (_num, ...), "q": (_num, 2.0),
    "homogeneous": (_bool, True)}, "norms.")
_GRID = (_grid, _grid({}))
_SYSTEM = (_one_of("system", SYSTEMS), "hodge_stokes")
_BANK = (_list(_int, "a pair of integers", 2), None)  # None: default_bank

# each command's keys, "out" included
TABLES = {
    "verify": {"suites": (_list(_one_of("suite", SUITES), "suite"), SUITES),
               "seed": (_seed, 0), "tol_scale": (_num, 1.0)},
    "decompose": {"field": (_str, ...), "tol_scale": (_num, 1.0)},
    "solve": {"grid": _GRID, "seed": (_seed, 0), "system": _SYSTEM,
              "T": (_num, 1.0), "M": (_int, 64),
              "flavor": (_one_of("flavor", FLAVORS), "Ht"),
              "forcing": (_one_of("forcing", ("random", "none")), "random"),
              "save_snapshots": (_bool, False), "radii": (_radii, (1.0, 2.5))},
    "maxreg": {"grid": _GRID, "seed": (_seed, 0), "tol_scale": (_num, 1.0),
               "system": _SYSTEM,
               "spq": (_list(_spq, "(s, p, q)"), (SpaceParams(0.0, 2.0),)),
               "T": (_list(_num, "final time"), (1.0, 10.0, 100.0)),
               "M": (_int, 256), "bank": _BANK, "radii": (_radii, (1.0, 1.3))},
    "normtable": {"grid": _GRID, "seed": (_seed, 0), "bank": _BANK,
                  "norms": (_list(_norm, "norm"), (SpaceParams(0.0, 2.0),)),
                  "corpus_size": (_count, 3), "radii": (_radii, (1.0, 2.5))},
}
for _table in TABLES.values():
    _table["out"] = (_str, ".")


class RunConfig(dict):
    """Every key of a command's table: the value a flag or the config gives,
    else the table's default."""

    def output(self, name: str) -> str:
        """The path of output ``name`` in the out directory, made if absent."""
        os.makedirs(self["out"], exist_ok=True)
        return os.path.join(self["out"], name)

    @classmethod
    def from_args(cls, command: str, args) -> "RunConfig":
        options = {}
        if args.config:
            try:
                with open(args.config) as fh:
                    options = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {args.config}: {exc}")
        if not isinstance(options, dict):
            raise ConfigError(f"config {args.config} is not a JSON object")
        # a flag sets its key, read as the key is; --tol-scale multiplies it
        flags = {"seed": args.seed, "out": args.out or None,
                 "suites": [args.suite] if args.suite else None}
        options.update((k, v) for k, v in flags.items() if v is not None)
        try:
            cfg = cls(_parse(TABLES[command], options))
        except KeyError as exc:
            raise ConfigError(f"config key {exc.args[0]!r} is not read by "
                              f"{command}") from None
        if "radii" in cfg and cfg["radii"][1] > cfg["grid"].abs_freq_max:
            raise ConfigError(f"config key 'radii' is malformed: "
                              f"{list(cfg['radii'])} reaches past the grid's "
                              f"largest |xi|, {cfg['grid'].abs_freq_max:.6g}")
        if "tol_scale" in cfg:
            cfg["tol_scale"] *= args.tol_scale
            if not 0 < cfg["tol_scale"] < math.inf:
                raise ConfigError(f"tolerance scale (--tol-scale times config "
                                  f"key 'tol_scale') must be finite and "
                                  f"positive, got {cfg['tol_scale']}")
        return cfg


def _write_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        if rows:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows({k: _fmt(v) for k, v in r.items()} for r in rows)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, complex):
        return f"{value.real:.12g}{value.imag:+.12g}j"
    return str(value)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def run_verify(cfg: RunConfig) -> int:
    """Run the named suites; print one line per check and a summary."""
    failed = 0
    rows = []
    outcomes = [run_suite(name, seed=cfg["seed"], tol_scale=cfg["tol_scale"])
                for name in cfg["suites"]]
    for outcome in outcomes:
        if outcome.guard:
            print(f"[{outcome.suite}] guard raised: {outcome.guard}")
        for check, info in outcome.worst.items():
            status = info["status"]
            print(f"[{outcome.suite}] {check}: residual {info['residual']:.3e} "
                  f"(tol {info['tol']:.1e}, scale {info['scale']:.3e}) "
                  f"{status if status == 'ok' else status.upper()}")
            rows.append({"suite": outcome.suite, "check": check,
                         "residual": info["residual"], "tol": info["tol"],
                         "scale": info["scale"], "status": status})
        failed += outcome.failed
    _write_csv(cfg.output("verify.csv"), rows)
    print(f"verify: {sum(o.passed for o in outcomes)} passed, {failed} failed")
    return EXIT_OK if failed == 0 else EXIT_TOL


def run_decompose(cfg: RunConfig) -> int:
    """Split a stored tangential half-field and write parts plus a report.

    The report's numbers, all but the norm of u relative to it, come by
    three routes: the mass fractions, the orthogonality defect and the
    tangential trace from the norms and pairing of the physical parts; the
    split residual from the physical parts against the loaded u
    (split_residual); the divergence of Pu and the curl of Gu from the
    parts' stored rows while they are still tangential spectra
    (leray_halfspace_checked).
    """
    path = cfg["field"]
    if not os.path.exists(path):
        raise ConfigError(f"field container {path} does not exist")
    u = load_field(path)
    if not isinstance(u, HalfField):
        raise ConfigError("decompose expects a half-space field container")
    # the container is single precision; re-anchor the zero mode before
    # projecting so the strict mean-free guard sees clean input
    u, removed_mean = remove_extended_mean(u)
    pu, gu, p_divergence, g_curl = leray_halfspace_checked(u)
    save_field(cfg.output("p_part.hhf"), pu)
    save_field(cfg.output("g_part.hhf"), gu)
    u_norm = u.l2_norm()
    norm = max(u_norm, 1e-300)
    report = {
        "input": path,
        "norm": u_norm,
        "zero_mode_removed": removed_mean,
        "p_mass_fraction": (pu.l2_norm() / norm) ** 2,
        "g_mass_fraction": (gu.l2_norm() / norm) ** 2,
        "split_residual": split_residual(u, pu, gu) / norm,
        "p_divergence": p_divergence / norm,
        "g_curl": g_curl / norm,
        "orthogonality_defect": abs(pu.l2_inner(gu)) / norm ** 2,
        "p_tangential_trace": tangential_trace(pu).l2_norm() / norm,
    }
    with open(cfg.output("decompose.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(json.dumps(report, indent=2, sort_keys=True))
    tol = 1e-8 * cfg["tol_scale"]
    bad = max(report["split_residual"], report["p_divergence"],
              report["g_curl"], report["orthogonality_defect"]) > tol
    return EXIT_TOL if bad else EXIT_OK


def _corpus_field(cfg: RunConfig, flavor: str, seed: int) -> HalfField:
    """A random half 1-form on the annulus of config key 'radii'."""
    grid = cfg["grid"]
    return random_half_field(grid, flavor, [1 << a for a in range(grid.n)],
                             seed=seed, kind="annulus_band",
                             radii=cfg["radii"])


def run_solve(cfg: RunConfig) -> int:
    """Drive one evolution run and emit per-node diagnostics as CSV."""
    grid, system, flavor = cfg["grid"], cfg["system"], cfg["flavor"]
    horizon, steps = cfg["T"], cfg["M"]
    TimeGrid(horizon, steps)  # refuses T <= 0 and M < 1 before any work
    if system != "hodge_heat" and flavor != "Ht":
        raise ConfigError("Stokes-type systems use the tangential flavor")
    u0 = _corpus_field(cfg, flavor, cfg["seed"])
    forcing = (_corpus_field(cfg, flavor, cfg["seed"] + 1)
               if cfg["forcing"] == "random" else None)
    # every node column is read from the stepper's extension spectra by one
    # reader whose work arrays serve all nodes; no node field is built
    # except the snapshots asked for
    reader = NodeReader(grid, flavor, u0.masks())
    stride = max(1, steps // 4) if cfg["save_snapshots"] else None
    rows, snapshots = [], []

    def observer(m, t, state):
        columns = reader(state)
        if not math.isfinite(columns["l2"]):
            raise RunError(f"solve: the state at node {m} (t = {t:g}) is "
                           f"not finite")
        rows.append({"t": t, **columns})
        if stride is not None and m % stride == 0:
            snapshots.append((m, t, restrict_spectra(SpectralField(grid, state),
                                                     flavor)))

    grad_p = None
    if system == "hodge_heat":
        solve_hodge_heat(forcing, u0, horizon, steps, observer=observer)
    elif system == "hodge_stokes":
        solve_hodge_stokes(forcing, u0, horizon, steps, auto_project=True,
                           observer=observer)
    else:
        _, grad_p = solve_navier_slip(forcing, u0, horizon, steps,
                                      auto_project=True, observer=observer)
    if grad_p is not None:
        grad_p_l2 = {}  # a constant forcing gives one gradient field at every node
        for row, gp in zip(rows, grad_p):
            if id(gp) not in grad_p_l2:
                grad_p_l2[id(gp)] = gp.l2_norm()
            row["grad_p_l2"] = grad_p_l2[id(gp)]
    path = cfg.output("solve.csv")
    _write_csv(path, rows)
    for m, t, um in snapshots:
        save_field(cfg.output(f"snapshot_{m:05d}.hhf"), um, metadata={"t": t})
    print(f"solve: {system}, T={horizon}, M={steps}, wrote {path}")
    return EXIT_OK


def run_maxreg(cfg: RunConfig) -> int:
    """Sweep maximal-regularity reports over (s, p, q) and T; emit CSV.

    The configuration is checked before any transform.  The forcing is
    drawn before any set is refused, so that its draw refuses what it cannot
    draw whether or not a set runs.  steady_sweep_spectra takes its
    extension spectra once and forms the steady datum on the spectra the
    system steps (A^{-1} P f, split in spectra, for the Stokes-type systems;
    A^{-1} f for hodge_heat), never as a half-field.  One max_reg_sweep call
    measures every accepted (s, p, q) on those spectra: one set of Gram sums
    serves the p = 2 sets and one stepped pass per horizon all the others.
    """
    grid, system, spq = cfg["grid"], cfg["system"], cfg["spq"]
    horizons, steps = cfg["T"], cfg["M"]
    for horizon in horizons:
        TimeGrid(horizon, steps)  # refuses T <= 0, T not finite and M < 1
    bank = (build_bank(grid, *cfg["bank"]) if cfg["bank"]
            else default_bank(grid))
    forcing = _corpus_field(cfg, "Ht", cfg["seed"] + 1)

    rows = []
    accepted = []
    for params in spq:
        reason = refusal(params, grid.n)
        if reason:
            rows.append({"system": system, "s": params.s, "p": params.p,
                         "q": params.q, "T": "", "lhs_sup": "", "lhs_lq": "",
                         "rhs_f": "", "rhs_u0": "", "ratio": "",
                         "status": "rejected", "reason": reason})
        else:
            accepted.append(params)
    done = []
    if accepted:
        done = [dict(report.row(), status="ok", reason="")
                for report in max_reg_sweep(
                    system, *steady_sweep_spectra(system, forcing), horizons,
                    steps, accepted, bank)]
    rows.extend(done)

    # flag ratio drift across the horizon sweep per parameter set
    spread_rows = []
    for params in spq:
        s, p, q = params.s, params.p, params.q
        got = [r for r in done if (r["s"], r["p"], r["q"]) == (s, p, q)]
        if len(got) >= 2:
            ratios = [r["ratio"] for r in got]
            spread_rows.append({"s": s, "p": p, "q": q,
                                "ratio_min": min(ratios),
                                "ratio_max": max(ratios),
                                "spread": max(ratios) / max(min(ratios), 1e-300)})
    path = cfg.output("maxreg.csv")
    _write_csv(path, rows)
    if spread_rows:
        _write_csv(cfg.output("maxreg_spread.csv"), spread_rows)
    print(f"maxreg: {len(rows)} rows -> {path}")
    drift = any(r["spread"] > 1.1 * cfg["tol_scale"] for r in spread_rows)
    return EXIT_TOL if drift else EXIT_OK


def run_normtable(cfg: RunConfig) -> int:
    """Besov / Sobolev norm table of a randomized corpus, one CSV row per norm."""
    grid = cfg["grid"]
    bank = (build_bank(grid, *cfg["bank"]) if cfg["bank"]
            else default_bank(grid))
    rows = []
    for i in range(cfg["corpus_size"]):
        u = random_form(grid, [0], seed=cfg["seed"] + i, kind="annulus_band",
                        radii=cfg["radii"])
        for params in cfg["norms"]:
            rows.append({"field_id": i, "kind": params.kind, "s": params.s,
                         "p": params.p, "q": params.q,
                         "homogeneous": params.homogeneous,
                         "value": space_norm(params, u, bank)})
    path = cfg.output("normtable.csv")
    _write_csv(path, rows)
    print(f"normtable: {len(rows)} rows -> {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------

# the flag of each key a flag may set, added to every command whose table
# has the key
_FLAGS = {"suites": ("--suite", {"help": "restrict verify to one suite"}),
          "seed": ("--seed", {"type": int, "help": "corpus seed"}),
          "tol_scale": ("--tol-scale", {
              "type": float, "default": 1.0,
              "help": "multiply every tolerance by this factor"})}
_HELP = {"verify": "run identity-check suites",
         "decompose": "Hodge-split a stored half-space field",
         "solve": "run an evolution system and emit diagnostics",
         "maxreg": "maximal-regularity ratio sweep",
         "normtable": "emit a Besov/Sobolev norm table"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodgehalf",
        description="spectral exterior-calculus verification and solver driver")
    sub = parser.add_subparsers(dest="command", required=True)
    # besides --config and --out, each command takes the flags of the keys
    # its table reads; an absent flag reads as its default
    for name, table in TABLES.items():
        p = sub.add_parser(name, help=_HELP[name])
        p.add_argument("--config", default=None, help="JSON configuration path")
        p.add_argument("--out", default=None, help="output directory")
        p.set_defaults(suite=None, seed=None, tol_scale=1.0)
        for key, (flag, spec) in _FLAGS.items():
            if key in table:
                p.add_argument(flag, **spec)
    return parser


COMMANDS = {"verify": run_verify, "decompose": run_decompose,
            "solve": run_solve, "maxreg": run_maxreg,
            "normtable": run_normtable}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing leaves it as
    it was)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = RunConfig.from_args(args.command, args)
        return COMMANDS[args.command](cfg)
    except RunError as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConfigError, KeyError, ValueError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
