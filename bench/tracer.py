"""Per-layer spans around hodgehalf functions, plus FFT accounting.

The tracer wraps each function in ``TARGETS`` at every place where a
hodgehalf module binds it (module globals and module-level dicts such as
``cli.COMMANDS``), wraps ``HalfField`` methods on the class, and wraps
``numpy.fft.fftn``/``ifftn`` so that inline call sites are counted too.
Nothing is patched until ``install()``; ``uninstall()`` puts every original
back, so untraced rounds run the unmodified program.

A span's self time is its duration minus the time covered by child spans.
Each transform is a child span of the innermost open span: its time is
charged to that span's layer as FFT time and excluded from the span's self
time, and it counts once towards the ``fft`` total of every distinct span
open at that moment (inclusive counts).  Hashing the transform input, done
to find repeated transforms, is excluded from every self time and FFT time;
it shows only in the traced-versus-untraced overhead.
"""

from __future__ import annotations

import functools
import hashlib
import sys
from time import perf_counter

import numpy as np

TARGETS = {
    "cli": ["run_maxreg", "run_decompose", "run_solve"],
    "evolution": ["streaming_max_reg", "solve_hodge_heat",
                  "solve_hodge_stokes", "solve_navier_slip"],
    "littlewood_paley": ["default_bank", "build_bank"],
    "halfspace": ["extend", "restrict", "leray_halfspace", "d_half",
                  "delta_half", "tangential_trace", "remove_extended_mean",
                  "HalfField.l2_norm", "HalfField.l2_inner"],
    "operators": ["leray_wholespace", "d", "delta", "frac_laplacian"],
    "fields": ["forward_fft", "inverse_fft", "save_field", "load_field",
               "random_form"],
}

SPANS = [f"{layer}.{name}" for layer, names in TARGETS.items()
         for name in names]

# bytes a transform moves, as computed (not measured): complex128 in and out
FFT_BYTES_PER_POINT = 2 * 16


class Tracer:
    """Collects span and FFT statistics between ``install`` and ``take``."""

    def __init__(self):
        self._patches = []
        self._stack = []  # open frames: [span name, child seconds]
        self._seen = set()
        self.reset()

    def reset(self):
        self.calls = dict.fromkeys(SPANS, 0)
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.fft = dict.fromkeys(SPANS, 0)
        self.layer_fft_s = dict.fromkeys(TARGETS, 0.0)
        self.fft_calls = 0
        self.fft_s = 0.0
        self.fft_bytes = 0
        self.fft_redundant = 0

    def take(self) -> dict:
        """Return the statistics gathered so far and start afresh."""
        out = {"calls": self.calls, "self_s": self.self_s, "fft": self.fft,
               "layer_fft_s": self.layer_fft_s, "fft_calls": self.fft_calls,
               "fft_s": self.fft_s, "fft_bytes": self.fft_bytes,
               "fft_redundant": self.fft_redundant}
        self.reset()
        return out

    def begin_command(self):
        """Repeated transforms are counted within one command only."""
        self._seen.clear()

    # -- patching ------------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "hodgehalf" or name.startswith("hodgehalf.")]
        for layer, names in TARGETS.items():
            home = sys.modules[f"hodgehalf.{layer}"]
            for name in names:
                span = f"{layer}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(home, cls_name)
                    self._set(cls, attr, self._wrap(span, cls.__dict__[attr]))
                    continue
                orig = getattr(home, name)
                wrapper = self._wrap(span, orig)
                for mod in mods:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, key, wrapper)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is orig:
                                    self._set(value, k, wrapper)
        for kind in ("fftn", "ifftn"):
            self._set(np.fft, kind, self._wrap_fft(kind, getattr(np.fft, kind)))

    def uninstall(self):
        while self._patches:
            owner, key, orig = self._patches.pop()
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, span, fn):
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                tracer.calls[span] += 1
                tracer.self_s[span] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return functools.wraps(fn)(traced)

    def _wrap_fft(self, kind, fn):
        stack = self._stack
        tracer = self

        def traced(a, *args, **kwargs):
            t0 = perf_counter()
            out = fn(a, *args, **kwargs)
            dur = perf_counter() - t0
            # hash after the transform, so that hashing does not warm its input
            arr = np.ascontiguousarray(a)
            digest = hashlib.blake2b(arr.view(np.uint8).reshape(-1),
                                     digest_size=16).digest()
            key = (kind, arr.shape, arr.dtype.str, digest)
            if key in tracer._seen:
                tracer.fft_redundant += 1
            else:
                tracer._seen.add(key)
            tracer.fft_calls += 1
            tracer.fft_s += dur
            tracer.fft_bytes += FFT_BYTES_PER_POINT * out.size
            for span in {frame[0] for frame in stack}:
                tracer.fft[span] += 1
            if stack:
                tracer.layer_fft_s[stack[-1][0].split(".")[0]] += dur
                stack[-1][1] += perf_counter() - t0
            return out

        return functools.wraps(fn)(traced)
