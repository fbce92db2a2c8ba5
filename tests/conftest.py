"""Fixtures shared by the test modules."""

import collections

import numpy as np
import pytest


@pytest.fixture
def fft_counts(monkeypatch):
    """Counts of np.fft.fftn/ifftn calls made during the test, keyed by the
    number of transformed axes: len(axes) when given, else np.ndim of the
    input."""
    counts = collections.defaultdict(int)
    for kind in ("fftn", "ifftn"):
        orig = getattr(np.fft, kind)

        def counted(a, s=None, axes=None, *args, _orig=orig, **kwargs):
            counts[np.ndim(a) if axes is None else len(axes)] += 1
            return _orig(a, s, axes, *args, **kwargs)

        monkeypatch.setattr(np.fft, kind, counted)
    return counts
