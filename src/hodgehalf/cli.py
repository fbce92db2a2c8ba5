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
from dataclasses import dataclass, field

from .evolution import (SYSTEMS, SpaceParams, TimeGrid, max_reg_sweep, refusal,
                        solve_hodge_heat, solve_hodge_stokes,
                        solve_navier_slip, steady_sweep_spectra)
from .fields import Grid, SpectralField, load_field, random_form, save_field
from .halfspace import (HalfField, NodeReader, leray_halfspace_checked,
                        random_half_field, remove_extended_mean,
                        restrict_spectra, split_residual, tangential_trace)
from .littlewood_paley import FilterBank, build_bank, default_bank, space_norm
from .verify import SUITES, VerifyOutcome, run_suite

EXIT_OK = 0
EXIT_TOL = 1
EXIT_CONFIG = 2


@dataclass
class RunConfig:
    """Parsed run configuration shared by all commands."""

    command: str
    grid_n: int = 2
    grid_points: int = 128
    grid_length: float = 16.0
    suites: list = field(default_factory=lambda: list(SUITES))
    seed: int = 0
    tol_scale: float = 1.0
    out_dir: str = "."
    options: dict = field(default_factory=dict)

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
        grid = _read(options, "grid", {}, dict)
        cfg = cls(command=command,
                  grid_n=_read(grid, "n", 2, int),
                  grid_points=_read(grid, "points", 128, int),
                  grid_length=_read(grid, "length", 16.0, float),
                  seed=args.seed if args.seed is not None
                  else _read(options, "seed", 0, int),
                  tol_scale=args.tol_scale * _read(options, "tol_scale", 1.0, float),
                  out_dir=args.out or _read(options, "out", ".", os.fspath),
                  options=options)
        if args.suite:
            cfg.suites = [args.suite]
        elif "suites" in options:
            cfg.suites = _read(options, "suites", None, list)
        if cfg.tol_scale <= 0:
            raise ConfigError("tolerance scale must be positive")
        return cfg

    def grid(self) -> Grid:
        return Grid(self.grid_n, self.grid_points, self.grid_length)

    def radii(self, default: tuple) -> tuple:
        """Annulus radii of the synthesized corpus, config key 'radii'."""
        return _read(self.options, "radii", default, lambda r: tuple(_floats(r)))

    def bank(self, grid: Grid) -> FilterBank:
        """Bank over the window [j_min, j_max] of config key 'bank', else the
        widest window the grid supports."""
        window = _read(self.options, "bank", None,
                       lambda w: w and [int(j) for j in w])
        if not window:
            return default_bank(grid)
        j_min, j_max = window
        return build_bank(grid, j_min, j_max)


def _read(options: dict, key: str, default, convert):
    """``convert(options.get(key, default))``; a value of the wrong type is a
    configuration error, not a traceback."""
    try:
        return convert(options.get(key, default))
    except TypeError as exc:
        raise ConfigError(f"config key {key!r} is malformed: {exc}") from None


def _floats(values) -> list[float]:
    return [float(x) for x in values]


def _norm_params(entry: dict) -> SpaceParams:
    """One normtable entry: s and p required, q = 2 and homogeneous Besov
    by default."""
    return SpaceParams(float(entry["s"]), float(entry["p"]),
                       float(entry.get("q", 2.0)),
                       homogeneous=bool(entry.get("homogeneous", True)),
                       kind=entry.get("kind", "besov"))


class ConfigError(Exception):
    pass


class RunError(Exception):
    """A run that could not complete on a valid configuration."""


def _write_csv(path: str, rows: list[dict]) -> None:
    if not rows:
        with open(path, "w", newline="") as fh:
            fh.write("")
        return
    keys = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})


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
    for name in cfg.suites:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}; choose from "
                              f"{', '.join(SUITES)}")
    outcomes = [_guarded_suite(name, cfg) for name in cfg.suites]
    for outcome in outcomes:
        for check, info in outcome.worst.items():
            status = info["status"]
            print(f"[{outcome.suite}] {check}: residual {info['residual']:.3e} "
                  f"(tol {info['tol']:.1e}, scale {info['scale']:.3e}) "
                  f"{status if status == 'ok' else status.upper()}")
            rows.append({"suite": outcome.suite, "check": check,
                         "residual": info["residual"], "tol": info["tol"],
                         "scale": info["scale"], "status": status})
        failed += outcome.failed
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_csv(os.path.join(cfg.out_dir, "verify.csv"), rows)
    print(f"verify: {sum(o.passed for o in outcomes)} passed, {failed} failed")
    return EXIT_OK if failed == 0 else EXIT_TOL


def _guarded_suite(name: str, cfg: RunConfig) -> VerifyOutcome:
    """run_suite; a guard raised inside the suite (a ValueError) is printed
    and recorded as the suite's failing check ``guard``."""
    try:
        return run_suite(name, seed=cfg.seed, tol_scale=cfg.tol_scale)
    except ValueError as exc:
        print(f"[{name}] guard raised: {exc}")
        outcome = VerifyOutcome(name, cfg.tol_scale)
        outcome.record("guard", math.nan, math.nan, tol=0.0)
        return outcome


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
    path = _read(cfg.options, "field", None, lambda p: p and os.fspath(p))
    if not path:
        raise ConfigError("decompose needs config key 'field' (container path)")
    if not os.path.exists(path):
        raise ConfigError(f"field container {path} does not exist")
    u = load_field(path)
    if not isinstance(u, HalfField):
        raise ConfigError("decompose expects a half-space field container")
    # the container is single precision; re-anchor the zero mode before
    # projecting so the strict mean-free guard sees clean input
    u, removed_mean = remove_extended_mean(u)
    pu, gu, p_divergence, g_curl = leray_halfspace_checked(u)
    os.makedirs(cfg.out_dir, exist_ok=True)
    save_field(os.path.join(cfg.out_dir, "p_part.hhf"), pu)
    save_field(os.path.join(cfg.out_dir, "g_part.hhf"), gu)
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
    with open(os.path.join(cfg.out_dir, "decompose.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(json.dumps(report, indent=2, sort_keys=True))
    tol = 1e-8 * cfg.tol_scale
    bad = max(report["split_residual"], report["p_divergence"],
              report["g_curl"], report["orthogonality_defect"]) > tol
    return EXIT_TOL if bad else EXIT_OK


def _corpus_field(cfg: RunConfig, grid: Grid, flavor: str = "Ht") -> HalfField:
    opts = cfg.options
    masks = [1 << a for a in range(grid.n)]
    kind = opts.get("corpus_kind", "annulus_band")
    return random_half_field(grid, flavor, masks, seed=cfg.seed, kind=kind,
                             radii=cfg.radii((1.0, 2.5)))


def run_solve(cfg: RunConfig) -> int:
    """Drive one evolution run and emit per-node diagnostics as CSV."""
    opts = cfg.options
    system = opts.get("system", "hodge_stokes")
    grid = cfg.grid()
    horizon = _read(opts, "T", 1.0, float)
    steps = _read(opts, "M", 64, int)
    flavor = opts.get("flavor", "Ht")
    if system not in SYSTEMS:
        raise ConfigError(f"unknown system {system!r}")
    TimeGrid(horizon, steps)  # refuses T <= 0 and M < 1 before any work
    if system != "hodge_heat" and flavor != "Ht":
        raise ConfigError("Stokes-type systems use the tangential flavor")
    u0 = _corpus_field(cfg, grid, flavor=flavor)
    forcing = None
    if opts.get("forcing", "random") != "none":
        forcing = random_half_field(grid, flavor, u0.masks(), seed=cfg.seed + 1,
                                    kind=opts.get("corpus_kind", "annulus_band"),
                                    radii=cfg.radii((1.0, 2.5)))
    # every node column is read from the stepper's extension spectra by one
    # reader whose work arrays serve all nodes; no node field is built
    # except the snapshots asked for
    reader = NodeReader(grid, flavor, u0.masks())
    stride = max(1, steps // 4) if opts.get("save_snapshots") else None
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
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_csv(os.path.join(cfg.out_dir, "solve.csv"), rows)
    for m, t, um in snapshots:
        save_field(os.path.join(cfg.out_dir, f"snapshot_{m:05d}.hhf"), um,
                   metadata={"t": t})
    print(f"solve: {system}, T={horizon}, M={steps}, wrote "
          f"{os.path.join(cfg.out_dir, 'solve.csv')}")
    return EXIT_OK


def _parameter_sets(entries) -> list[SpaceParams]:
    """The (s, p, q) entries of config key 'spq', each a SpaceParams."""
    sets = []
    for entry in entries:
        values = _floats(entry)
        if len(values) != 3:
            raise ConfigError(f"config key 'spq' entry {entry!r} is not an "
                              f"(s, p, q) triple")
        sets.append(SpaceParams(*values))
    return sets


def run_maxreg(cfg: RunConfig) -> int:
    """Sweep maximal-regularity reports over (s, p, q) and T; emit CSV.

    The configuration is checked before any transform.  The forcing is
    drawn and steady_sweep_spectra takes its extension spectra once and
    forms the steady datum on the spectra the system steps (A^{-1} P f,
    split in spectra, for the Stokes-type systems; A^{-1} f for hodge_heat),
    never as a half-field.  One max_reg_sweep call measures every accepted
    (s, p, q) on those spectra: one set of Gram sums serves the p = 2 sets
    and one stepped pass per horizon all the others.
    """
    opts = cfg.options
    grid = cfg.grid()
    spq = _read(opts, "spq", [[0.0, 2.0, 2.0]], _parameter_sets)
    horizons = _read(opts, "T", [1.0, 10.0, 100.0], _floats)
    steps = _read(opts, "M", 256, int)
    system = opts.get("system", "hodge_stokes")
    if system not in SYSTEMS:
        raise ConfigError(f"unknown system {system!r}")
    if not spq:
        raise ConfigError("config key 'spq' names no (s, p, q)")
    if not horizons:
        raise ConfigError("config key 'T' names no final time")
    for horizon in horizons:
        TimeGrid(horizon, steps)  # refuses T <= 0, T not finite and M < 1
    bank = cfg.bank(grid)

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
        forcing = random_half_field(grid, "Ht", [1 << a for a in range(grid.n)],
                                    seed=cfg.seed + 1,
                                    kind=opts.get("corpus_kind", "annulus_band"),
                                    radii=cfg.radii((1.0, 1.3)))
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
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_csv(os.path.join(cfg.out_dir, "maxreg.csv"), rows)
    if spread_rows:
        _write_csv(os.path.join(cfg.out_dir, "maxreg_spread.csv"), spread_rows)
    print(f"maxreg: {len(rows)} rows -> {os.path.join(cfg.out_dir, 'maxreg.csv')}")
    drift = any(r["spread"] > 1.1 * cfg.tol_scale for r in spread_rows)
    return EXIT_TOL if drift else EXIT_OK


def run_normtable(cfg: RunConfig) -> int:
    """Besov / Sobolev norm table of a randomized corpus, one CSV row per norm."""
    opts = cfg.options
    grid = cfg.grid()
    bank = cfg.bank(grid)
    norms = _read(opts, "norms", [
        {"kind": "besov", "s": 0.0, "p": 2.0, "q": 2.0, "homogeneous": True}],
        lambda entries: [_norm_params(e) for e in entries])
    count = _read(opts, "corpus_size", 3, int)
    radii = cfg.radii((1.0, 2.5))
    rows = []
    for i in range(count):
        u = random_form(grid, [0], seed=cfg.seed + i, kind="annulus_band",
                        radii=radii)
        for params in norms:
            rows.append({"field_id": i, "kind": params.kind, "s": params.s,
                         "p": params.p, "q": params.q,
                         "homogeneous": params.homogeneous,
                         "value": space_norm(params, u, bank)})
    os.makedirs(cfg.out_dir, exist_ok=True)
    _write_csv(os.path.join(cfg.out_dir, "normtable.csv"), rows)
    print(f"normtable: {len(rows)} rows -> "
          f"{os.path.join(cfg.out_dir, 'normtable.csv')}")
    return EXIT_OK


# ---------------------------------------------------------------------------

_FLAGS = {"--suite": {"help": "restrict verify to one suite"},
          "--seed": {"type": int, "help": "corpus seed"},
          "--tol-scale": {"type": float, "default": 1.0,
                          "help": "multiply every tolerance by this factor"}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodgehalf",
        description="spectral exterior-calculus verification and solver driver")
    sub = parser.add_subparsers(dest="command", required=True)
    # besides --config and --out, each command takes the flags it reads; an
    # absent flag reads as its default
    for name, help_text, flags in [
            ("verify", "run identity-check suites", _FLAGS),
            ("decompose", "Hodge-split a stored half-space field",
             ["--tol-scale"]),
            ("solve", "run an evolution system and emit diagnostics",
             ["--seed"]),
            ("maxreg", "maximal-regularity ratio sweep",
             ["--seed", "--tol-scale"]),
            ("normtable", "emit a Besov/Sobolev norm table", ["--seed"])]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="JSON configuration path")
        p.add_argument("--out", default=None, help="output directory")
        p.set_defaults(suite=None, seed=None, tol_scale=1.0)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
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
