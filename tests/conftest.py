"""Fixtures shared by the test modules."""

import collections

import numpy as np
import pytest


@pytest.fixture
def fft_counts(monkeypatch):
    """Counts of np.fft.fftn/ifftn calls made during the test, keyed by the
    dimension of the transformed array (np.ndim of the input)."""
    counts = collections.defaultdict(int)
    for kind in ("fftn", "ifftn"):
        orig = getattr(np.fft, kind)

        def counted(a, *args, _orig=orig, **kwargs):
            counts[np.ndim(a)] += 1
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, kind, counted)
    return counts
