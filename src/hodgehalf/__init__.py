"""Spectral exterior calculus on the torus and the half-space.

Import from the submodules, by topic: ``algebra`` (exact exterior
algebra), ``fields`` (grids, FFT transport, test inputs through
``random_form``, serialization), ``operators`` (Fourier-multiplier calculus
and the whole-space Hodge decomposition), ``littlewood_paley`` (dyadic
filter banks and Besov / Sobolev norms), ``halfspace`` (reflection
extensions, traces, half-space Hodge machinery), ``evolution`` (heat /
Stokes / Navier-slip solvers and regularity reports), ``verify`` (the
verification suites), ``cli`` (the command-line driver).
"""

__version__ = "0.1.0"
