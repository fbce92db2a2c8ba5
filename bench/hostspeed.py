"""Host speed, sampled between the timed commands by a fixed kernel.

The machine this benchmark was written on shares its cores, caches and
memory bandwidth with other tenants, and its speed drifts: over a few
minutes the same command took between 1x and 2x its fastest time, in
spells of seconds to minutes.  Raw wall times of runs made minutes apart
therefore disagree by more than any useful regression bound.  A fixed
kernel run between the commands slows down with them, so the ratio of
command time to kernel time is steady where neither is.

Contention does not slow every kind of work alike: FFTs and memory-bound
passes lose more than interpreter work.  The kernel therefore has one part
per kind of work the workloads do, and each part is scaled by its own
reference time before the parts are averaged:

- ``py``: a pure-Python integer loop (the stepper's and CLI's interpreter
  work);
- ``pyobj``: building and walking small dicts, lists and strings
  (container and report bookkeeping);
- ``fft``: a 64^3 complex FFT round trip (4 MiB, beyond L2);
- ``elem``: an elementwise pass over 4 MiB arrays (L2/L3 traffic);
- ``big``: the same over 16 MiB arrays (L3 and memory bandwidth).

``Sampler.after`` runs whole passes of the kernel for ``SHARE`` of every
command's time (carrying the remainder over), so its samples are spread
over the run in proportion to time, as the commands' slow-downs are.
``factor`` is ``1 / mean over parts of (mean part time / REF)``: a time
multiplied by it is the time the command would take on a host where every
part takes its ``REF``.  The kernel uses numpy alone, never hodgehalf, so a
change to the program leaves it as it is.

During the timed rounds the kernel runs in a child process (``Sampler``),
one CPU shared with the benchmark and never at the same time, so that its
arrays stay out of the workload process's peak resident memory.

    python3 bench/hostspeed.py --serve   # the child: reads "burst <s>" lines
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from statistics import fmean
from time import perf_counter

import numpy as np

# share of the timed command time spent on the kernel
SHARE = 0.1
# seconds each part takes on the reference host: close to the fastest
# times seen on the 2-vCPU Sapphire Rapids VM (2.0 GHz, KVM) the benchmark
# was written on
REF = {"py": 1.05e-3, "pyobj": 0.62e-3, "fft": 14e-3, "elem": 1.3e-3,
       "big": 11e-3}


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.cube = (rng.standard_normal((64, 64, 64))
                     + 1j * rng.standard_normal((64, 64, 64)))
        self.small = rng.standard_normal(1 << 19)
        self.large = rng.standard_normal(1 << 21)
        self.parts = {"py": self._py, "pyobj": self._pyobj, "fft": self._fft,
                      "elem": self._elem, "big": self._big}
        self.samples: dict[str, list[float]] = {p: [] for p in self.parts}
        self.kernel()  # plans the transform; the first pass is not a sample
        for times in self.samples.values():
            times.clear()

    @staticmethod
    def _py():
        s = 0
        for i in range(20000):
            s += i * i

    @staticmethod
    def _pyobj():
        d = {}
        for i in range(3000):
            d[i] = [i, str(i)]
        sum(len(v) for v in d.values())

    def _fft(self):
        np.fft.ifftn(np.fft.fftn(self.cube))

    def _elem(self):
        float(np.sum(self.small * 1.5 + self.small * self.small))

    def _big(self):
        float(np.sum(self.large * 1.5 + self.large * self.large))

    def kernel(self) -> float:
        """One pass over every part; returns its seconds.

        The cyclic collector is held off during the pass: the parts make no
        cycles, and a collection of the caller's objects is not host speed.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            for name, part in self.parts.items():
                t0 = perf_counter()
                part()
                self.samples[name].append(perf_counter() - t0)
            return perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def burst(self, seconds: float):
        """Sample for ``seconds`` without a break."""
        end = perf_counter() + seconds
        while perf_counter() < end:
            self.kernel()

    def slowdown(self) -> dict[str, float]:
        """Mean time of each part over its reference time."""
        return {p: fmean(t) / REF[p] for p, t in self.samples.items()}

    def factor(self) -> float:
        return 1.0 / fmean(self.slowdown().values())

    def report(self) -> dict:
        return {"factor": self.factor(), "passes": len(self.samples["py"]),
                "slowdown": self.slowdown()}


class Sampler:
    """``HostSpeed`` in a child process, driven between the timed commands.

    Both processes are pinned to one CPU, the lowest this process may use,
    and the benchmark waits while the child runs, so the kernel sees the
    same core as the commands.  Use it as a context manager: leaving it
    stops the child and waits for it, on every path.
    """

    def __init__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.owed = 0.0
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("host-speed sampler did not start")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _ask(self, line: str) -> str:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError("host-speed sampler exited")
        return answer

    def after(self, busy_s: float):
        """Sample for SHARE of ``busy_s`` seconds of timed work."""
        self.owed += SHARE * busy_s
        if self.owed > 0:
            self.owed -= float(self._ask(f"burst {self.owed!r}"))

    def finish(self) -> dict:
        """Stop sampling; return ``HostSpeed.report`` of the child."""
        report = json.loads(self._ask("report"))
        self.close()
        return report

    def close(self):
        """End of input stops the child; kill it if it does not stop."""
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def serve() -> int:
    """Child side of ``Sampler``: answer burst and report requests."""
    host = HostSpeed()
    print("ready", flush=True)
    for line in sys.stdin:
        verb, *rest = line.split()
        if verb == "burst":
            owed = float(rest[0])
            spent = 0.0
            while spent < owed:
                spent += host.kernel()
            print(repr(spent), flush=True)
        elif verb == "report":
            print(json.dumps(host.report()), flush=True)
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--serve"]:
        sys.exit("usage: hostspeed.py --serve")
    sys.exit(serve())
