"""Fixtures shared by the test modules."""

import collections

import numpy as np
import pytest


class FFTCounts(collections.defaultdict):
    """Counts of np.fft.fftn/ifftn calls keyed by the number of transformed
    axes (len(axes) when given, else np.ndim of the input), with each call's
    (axes, input shape) in ``calls``."""

    def __init__(self):
        super().__init__(int)
        self.calls = []

    def clear(self):
        super().clear()
        self.calls.clear()


@pytest.fixture
def fft_counts(monkeypatch):
    """The FFTCounts of the np.fft.fftn/ifftn calls made during the test."""
    counts = FFTCounts()
    for kind in ("fftn", "ifftn"):
        orig = getattr(np.fft, kind)

        def counted(a, s=None, axes=None, *args, _orig=orig, **kwargs):
            counts[np.ndim(a) if axes is None else len(axes)] += 1
            counts.calls.append((axes, np.shape(a)))
            return _orig(a, s, axes, *args, **kwargs)

        monkeypatch.setattr(np.fft, kind, counted)
    return counts
