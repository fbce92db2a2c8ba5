"""Record each workload's checked outputs for a range of seeds.

    python3 bench/record_reference.py --seeds 0-15

Runs set-up and one round of every workload per seed and writes the values
its checks extract (maxreg norms and ratios, decompose norm and mass
fractions, solve node norms) to ``reference/<workload>.json``.  Later runs
with a recorded seed compare against them at relative tolerance
``workloads.REF_RTOL``.  Record only at a commit whose outputs are trusted:
a round with a wrong output is refused.
"""

import argparse
import json
import shutil
import sys
import tempfile

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-15", help="first-last, inclusive")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    if not run.load_package():
        return 2
    from workloads import REFERENCE_DIR, WORKLOADS

    scratch = run.ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    for name, cls in WORKLOADS.items():
        recorded = {}
        for seed in range(first, last + 1):
            work = tempfile.mkdtemp(prefix=f"record-{name}-", dir=scratch)
            try:
                workload = cls(seed, work)
                workload.reference = None
                workload.setup()
                outcomes = workload.run_round()
            finally:
                shutil.rmtree(work, ignore_errors=True)
            wrong = [o for o in outcomes if o.wrong]
            if wrong:
                print(f"{name} seed {seed}: {wrong[0].label}: "
                      f"{wrong[0].reasons}", file=sys.stderr)
                return 1
            recorded[str(seed)] = {o.label: o.values for o in outcomes}
            print(f"{name} seed {seed}: {len(outcomes)} commands recorded")
        with open(f"{REFERENCE_DIR}/{name}.json", "w") as fh:
            fh.write("{\n" + ",\n".join(
                f"{json.dumps(seed)}: {json.dumps(values, sort_keys=True)}"
                for seed, values in recorded.items()) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
