"""Corruption self-test: each workload's output checks can fail.

    python3 bench/selftest.py [--seed N]

For every workload: set up, run one clean round, then a round in which one
command's output is damaged right after the command returns (maxreg: one
ratio scaled by 1.5; decompose: a stretch of the stored p part shifted;
solve: one node's divergence set to 1e-6 of its norm).  The damaged command
must be counted failed and wrong, and the failed count must grow by one
when that command passed in the clean round.  Exits 0 when every workload
shows this, 1 otherwise.
"""

import argparse
import shutil
import sys
import tempfile

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if not run.load_package():
        return 2
    from workloads import WORKLOADS

    scratch = run.ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    all_ok = True
    for name, cls in WORKLOADS.items():
        work = tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=scratch)
        try:
            workload = cls(args.seed, work)
            workload.setup()
            clean = workload.run_round()
            target = next((o for o in clean if not o.failed), clean[0])
            hit = workload.run_round(corrupt_label=target.label)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        damaged = next(o for o in hit if o.label == target.label)
        before = sum(o.failed for o in clean)
        after = sum(o.failed for o in hit)
        others_same = all(a.reasons == b.reasons for a, b in zip(clean, hit)
                          if a.label != target.label)
        ok = (not any(o.wrong for o in clean) and damaged.wrong
              and others_same and after == before + (not target.failed))
        all_ok &= ok
        print(f"{name}: damaged {target.label}; failed {before}/{len(clean)} "
              f"clean, {after}/{len(hit)} damaged; "
              f"{damaged.reasons[-1] if damaged.reasons else 'not caught'} "
              f"-> {'ok' if ok else 'FAIL'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
