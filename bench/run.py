"""Benchmark of the hodgehalf command line: workloads maxreg, decompose, solve.

    python3 bench/run.py --workload maxreg --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from anywhere; it imports the package from ``src/`` beside this
directory and writes only under ``.bench_tmp/`` (inputs and outputs, removed
at exit) and ``.bench_out/`` (one manifest per run) at the repository root.

``--trace 0`` times the program untouched and prints the end-to-end metrics,
with every time scaled to a reference host speed (see ``hostspeed.py``).
``--trace 1`` alternates untraced and traced rounds and prints the per-layer
metrics of one traced set-up plus one traced round (see ``tracer.py``).  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs each workload in its own
process and prints every metric of all three.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import fmean, median  # noqa: E402

# one thread everywhere, set before numpy loads: the runs measure the
# program, not the scheduler of a small shared machine
THREAD_ENV = {"HODGEHALF_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)
# compile the package from source in every run, so no run finds bytecode an
# earlier one left behind and every set-up pays the same import cost
sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAMES = ("maxreg", "decompose", "solve")
SETUP_SAMPLES = 3  # fresh processes
SETUP_BURST_S = 0.3  # least host-speed sampling after each set-up
END_TO_END = {"setup_s": "s", "run_s": "s", "run_2d_s": "s", "run_3d_s": "s",
              "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_package() -> bool:
    """Import hodgehalf, with every layer, from ``src/`` beside ``bench/``."""
    if not (ROOT / "src" / "hodgehalf" / "__init__.py").is_file():
        print(f"bench: no hodgehalf sources under {ROOT / 'src'}",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(ROOT / "src"))
    import hodgehalf.cli  # noqa: F401
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not load_package():
        return 2
    from workloads import WORKLOADS

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        if args.setup_only:
            wall, factor = timed_setup(workload)
            print(json.dumps({"wall_s": wall, "factor": factor}))
            return 0
        run = traced_run if args.trace else untraced_run
        result, manifest = run(workload, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(result, manifest, args)
    return 0


# ---------------------------------------------------------------------------
# measurement


def round_seconds(outcomes, grid=None) -> float:
    return sum(o.seconds for o in outcomes if grid in (None, o.grid))


def measure(workload, seconds, tracer=None, after=None):
    """Closed-loop rounds until the next one would overrun ``seconds``.

    With a tracer, rounds alternate untraced / traced, starting untraced;
    ``after`` runs untimed after each untraced command.
    Returns (untraced rounds, traced rounds, traced statistics per round).
    """
    plain, traced, stats, walls = [], [], [], []
    start = perf_counter()
    while True:
        gc.collect()
        t0 = perf_counter()
        plain.append(workload.run_round(after=after))
        if tracer is not None:
            gc.collect()
            tracer.install()
            try:
                traced.append(workload.run_round(tracer))
            finally:
                tracer.uninstall()
            stats.append(tracer.take())
        walls.append(perf_counter() - t0)
        if perf_counter() - start + median(walls) > seconds:
            return plain, traced, stats


def timed_setup(workload) -> tuple[float, float]:
    """Set up; return (wall seconds since start, host-speed factor)."""
    from hostspeed import HostSpeed

    workload.setup()
    wall = perf_counter() - T_START
    host = HostSpeed()
    host.burst(max(SETUP_BURST_S, 0.1 * wall))
    return wall, host.factor()


def setup_probe(args) -> tuple[float, float]:
    """Set-up of a fresh process: imports, inputs, warm-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "1",
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["wall_s"], out["factor"]


def untraced_run(workload, args):
    from hostspeed import Sampler

    workload.setup()
    with Sampler() as host:
        rounds, _, _ = measure(workload, args.seconds, after=host.after)
        speed = host.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = [setup_probe(args) for _ in range(SETUP_SAMPLES)]

    # each grid's mean command time per round, at the reference host speed
    run = {grid: fmean(round_seconds(r, grid) for r in rounds)
           * speed["factor"] for grid in workload.grids}
    values = {
        "setup_s": median(wall * f for wall, f in setup),
        "run_s": sum(run.values()),
        "run_2d_s": run["2d"],
        "run_3d_s": run["3d"],
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    manifest = make_manifest(
        workload, args, rounds,
        setup_samples=[{"wall_s": w, "factor": f} for w, f in setup],
        host=speed,
        wall={"run_s_median": median(round_seconds(r) for r in rounds),
              "setup_s_median": median(w for w, _ in setup)})
    return summarize(rounds, metrics), manifest


def traced_run(workload, args):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        workload.setup(tracer)
    finally:
        tracer.uninstall()
    setup_stats = tracer.take()
    plain, traced, stats = measure(workload, args.seconds, tracer)
    overhead = (median(round_seconds(r) for r in traced)
                / median(round_seconds(r) for r in plain) - 1.0)
    metrics = layer_metrics(setup_stats, stats, overhead)
    manifest = make_manifest(workload, args, plain + traced,
                             trace_overhead_frac=overhead,
                             trace_setup=setup_stats, trace_rounds=stats)
    return summarize(plain + traced, metrics), manifest


def layer_metrics(setup, rounds, overhead) -> dict:
    """Per-layer metrics of one set-up plus one (median) round."""
    from tracer import SPANS, TARGETS

    def total(key, span=None):
        pick = (lambda s: s[key]) if span is None else (lambda s: s[key][span])
        return pick(setup) + median(pick(r) for r in rounds)

    out = {}
    for span in SPANS:
        out[f"{span}.calls"] = (total("calls", span), "count")
        out[f"{span}.self_s"] = (total("self_s", span), "s")
        out[f"{span}.fft"] = (total("fft", span), "count")
    for layer in TARGETS:
        busy = sum(out[f"{layer}.{n}.self_s"][0] for n in TARGETS[layer])
        fft_s = total("layer_fft_s", layer)
        frac = busy / (busy + fft_s) if busy + fft_s > 0 else 0.0
        out[f"layer.{layer}.nonfft_frac"] = (frac, "frac")
    calls = total("fft_calls")
    out["fft.calls"] = (calls, "count")
    out["fft.s"] = (total("fft_s"), "s")
    out["fft.bytes"] = (total("fft_bytes"), "B")
    out["fft.redundant_frac"] = (total("fft_redundant") / calls if calls else 0.0,
                                 "frac")
    out["trace.overhead_frac"] = (overhead, "frac")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def summarize(rounds, metrics) -> dict:
    """Count each command of the workload once, failed if any run of it was.

    Every round repeats the same commands on the same inputs, and how many
    rounds fit in the run depends on the machine's speed; counting commands,
    not executions, makes ``attempted`` and ``failed`` a property of the seed.
    """
    outcomes = [o for r in rounds for o in r]
    failed = {o.label for o in outcomes if o.failed}
    return {"correct": not any(o.wrong for o in outcomes),
            "attempted": len({o.label for o in outcomes}),
            "failed": len(failed),
            "metrics": metrics}


# ---------------------------------------------------------------------------
# manifest and printout


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cache_sizes() -> dict:
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (Path(index, f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        out[f"L{level}{suffix}"] = size
    return out


def make_manifest(workload, args, rounds, **extra) -> dict:
    import numpy as np

    grids = {}
    for tag, grid in workload.grids.items():
        points = grid.points ** grid.n
        grids[tag] = {"grid": f"{grid.points}^{grid.n}", "length": grid.length,
                      "component_bytes": 16 * points,
                      "field_bytes": 16 * points * grid.n}
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "working_sets": grids,
        "rounds": [[{"label": o.label, "seconds": o.seconds,
                     "reasons": o.reasons} for o in r] for r in rounds],
        **extra,
    }


def report(result, manifest, args):
    rounds = manifest["rounds"]
    outcomes = [o for r in rounds for o in r]
    print(f"workload {args.workload}, seed {args.seed}, {len(rounds)} rounds "
          f"of {len(rounds[0])} commands, one client, closed loop")
    failures = {}
    for o in outcomes:
        for reason in o["reasons"]:
            failures[(o["label"], reason)] = failures.get((o["label"], reason),
                                                          0) + 1
    for (label, reason), count in failures.items():
        print(f"  failed {label} ({count}x): {reason}")
    print(f"ops_failed_frac {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']}/{result['attempted']} commands, "
          f"{len(outcomes)} checked executions), correct {result['correct']}")
    if "host" in manifest:
        speed = manifest["host"]
        print(f"host-speed factor {speed['factor']:.4f} "
              f"({speed['passes']} kernel passes)")
        print(f"raw wall medians: round {manifest['wall']['run_s_median']:.4f}"
              f" s, set-up {manifest['wall']['setup_s_median']:.4f} s")
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"manifest": manifest, "result": result},
                               indent=1))
    print(f"manifest {path.relative_to(ROOT)}")
    print(json.dumps(result))


def run_all(args) -> int:
    """Each workload in its own process; print every metric of all three."""
    results, code = {}, 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            code = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(f"\n{'workload':10s} {'metric':44s} {'value':>14s} unit")
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"{name:10s} {metric:44s} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:10s} {'ops_failed_frac':44s} "
              f"{res['failed'] / res['attempted']:>14.6g} "
              f"({res['failed']}/{res['attempted']}), correct {res['correct']}")
    print(json.dumps(results))
    return code


if __name__ == "__main__":
    sys.exit(main())
