"""Exact exterior algebra on the complexified Lambda = Lambda^0 + ... + Lambda^n.

Basis covectors dx_I are indexed by bitmasks: bit ``m`` set means axis ``m``
(0-based) belongs to the strictly increasing multi-index I.  An element of the
full algebra is a flat coefficient vector of length 2^n ordered by bitmask, so
component lookup is O(1) and wedge signs reduce to inversion parities of bit
patterns.

Sign conventions.  The only primitive sign is the merge parity of the wedge
product; the contraction (interior product) is *derived* from adjointness
against the orthonormal inner product,

    <a ^ u, v> = <u, a _| v>,

so there is no independent sign convention that could drift out of sync.
Contraction directions are treated as real covectors (they enter linearly);
all identities involving |v|^2 assume a real direction v, which covers every
use in this library (lattice frequencies, unit normals, basis vectors).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

# Exhaustive-test budget: 2^n coefficients per element stays tiny up to here.
MAX_DIM = 4


def multi_indices(n: int, k: int) -> list[tuple[int, ...]]:
    """All strictly increasing k-tuples of axes in 0..n-1, in mask order."""
    out = [axes_of(m) for m in range(1 << n) if bin(m).count("1") == k]
    return sorted(out)


def mask_of(axes) -> int:
    """Bitmask of a strictly increasing axis tuple."""
    mask = 0
    prev = -1
    for a in axes:
        if a <= prev:
            raise ValueError("multi-index axes must be strictly increasing")
        mask |= 1 << a
        prev = a
    return mask


def axes_of(mask: int) -> tuple[int, ...]:
    """Strictly increasing axis tuple of a bitmask."""
    return tuple(a for a in range(mask.bit_length()) if mask >> a & 1)


def degree(mask: int) -> int:
    return bin(mask).count("1")


def wedge_sign(mask_a: int, mask_b: int) -> int:
    """Sign of dx_A ^ dx_B relative to dx_{A u B}; 0 if A and B overlap.

    Equals (-1)^inv where inv counts pairs (a in A, b in B) with a > b,
    i.e. the inversions of the concatenated index sequence.
    """
    if mask_a & mask_b:
        return 0
    inv = 0
    b = mask_b
    while b:
        low = b & -b
        # bits of A above this element of B
        inv += bin(mask_a & ~(low | (low - 1))).count("1")
        b ^= low
    return -1 if inv & 1 else 1


def insert_sign(axis: int, mask: int) -> int:
    """Sign of e_axis ^ dx_mask; 0 if axis already in mask."""
    if mask >> axis & 1:
        return 0
    below = bin(mask & ((1 << axis) - 1)).count("1")
    return -1 if below & 1 else 1


@functools.lru_cache(maxsize=None)
def raising(n: int) -> tuple:
    """Incidence table of e_axis ^ . in dimension n: entry [mask] lists
    (axis, target, sign), ascending in axis, with e_axis ^ dx_mask = sign dx_target."""
    return tuple(tuple((axis, mask | 1 << axis, insert_sign(axis, mask))
                       for axis in range(n) if not mask >> axis & 1)
                 for mask in range(1 << n))


@functools.lru_cache(maxsize=None)
def lowering(n: int) -> tuple:
    """Incidence table of the adjoint e_axis _| . : entry [mask] lists
    (axis, target, sign), ascending in axis, with e_axis _| dx_mask = sign dx_target."""
    return tuple(tuple((axis, mask ^ 1 << axis, insert_sign(axis, mask ^ 1 << axis))
                       for axis in range(n) if mask >> axis & 1)
                 for mask in range(1 << n))


@dataclass
class AlgebraElement:
    """Element of the full complexified exterior algebra over C^n.

    coeffs[mask] is the coefficient of dx_{axes_of(mask)}; len(coeffs) == 2^n.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (1 << self.n,):
            raise ValueError(
                f"need {1 << self.n} coefficients for dimension {self.n}, "
                f"got shape {self.coeffs.shape}"
            )

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "AlgebraElement":
        return cls(n, np.zeros(1 << n, dtype=complex))

    @classmethod
    def basis(cls, n: int, mask: int) -> "AlgebraElement":
        out = cls.zero(n)
        out.coeffs[mask] = 1.0
        return out

    @classmethod
    def scalar(cls, n: int, value: complex) -> "AlgebraElement":
        out = cls.zero(n)
        out.coeffs[0] = value
        return out

    @classmethod
    def one_form(cls, components) -> "AlgebraElement":
        comps = np.asarray(components, dtype=complex)
        out = cls.zero(comps.size)
        for m in range(comps.size):
            out.coeffs[1 << m] = comps[m]
        return out

    # -- structure ----------------------------------------------------------

    def degrees(self) -> list[int]:
        return sorted({degree(m) for m in range(1 << self.n)
                       if self.coeffs[m] != 0})

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.n, self.coeffs + other.coeffs)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(self.n, self.coeffs - other.coeffs)

    def __mul__(self, c) -> "AlgebraElement":
        return AlgebraElement(self.n, self.coeffs * c)

    __rmul__ = __mul__

    def _check(self, other: "AlgebraElement"):
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} != {other.n}")


def wedge(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Exterior product, bilinear and graded-anticommutative."""
    a._check(b)
    out = AlgebraElement.zero(a.n)
    nz_a = np.nonzero(a.coeffs)[0]
    nz_b = np.nonzero(b.coeffs)[0]
    for ma in nz_a:
        ca = a.coeffs[ma]
        for mb in nz_b:
            s = wedge_sign(int(ma), int(mb))
            if s:
                out.coeffs[ma | mb] += s * ca * b.coeffs[mb]
    return out


def interior(direction, u: AlgebraElement) -> AlgebraElement:
    """Contraction a _| u by a covector, the adjoint of wedging with a.

    ``direction`` is a length-n sequence; the operation is linear in it.
    Lowers each degree by one; on 0-forms the result is 0.
    """
    a = np.asarray(direction, dtype=complex)
    if a.shape != (u.n,):
        raise ValueError(f"dimension mismatch: direction has shape {a.shape}, "
                         f"element lives in dimension {u.n}")
    out = AlgebraElement.zero(u.n)
    for mask in np.nonzero(u.coeffs)[0]:
        mask = int(mask)
        c = u.coeffs[mask]
        m = mask
        while m:
            low = m & -m
            axis = low.bit_length() - 1
            # adjoint of e_axis ^ . : same merge sign, bit removed
            out.coeffs[mask ^ low] += insert_sign(axis, mask ^ low) * a[axis] * c
            m ^= low
    return out


def hodge_star(u: AlgebraElement) -> AlgebraElement:
    """Hodge star of u, degree l -> n - l, with dx_I ^ *dx_I = volume form."""
    full = (1 << u.n) - 1
    out = AlgebraElement.zero(u.n)
    for mask in range(1 << u.n):
        c = u.coeffs[mask]
        if c != 0:
            comp = full ^ mask
            out.coeffs[comp] += wedge_sign(mask, comp) * c
    return out


def inner(u: AlgebraElement, v: AlgebraElement) -> complex:
    """Hermitian inner product; the basis dx_I is orthonormal.

    Linear in the first slot, conjugate-linear in the second; cross-degree
    pairs contribute nothing since distinct masks never meet.
    """
    u._check(v)
    return complex(np.sum(u.coeffs * np.conj(v.coeffs)))
