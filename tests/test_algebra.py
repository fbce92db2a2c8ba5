"""Exhaustive and randomized checks of the exterior-algebra kernel."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgehalf.algebra import (MAX_DIM, AlgebraElement, axes_of, degree,
                               hodge_star, inner, interior, multi_indices,
                               wedge)


def basis(n, mask):
    return AlgebraElement.basis(n, mask)


def random_element(n, rng, degree_only=None):
    out = AlgebraElement.zero(n)
    for mask in range(1 << n):
        if degree_only is None or degree(mask) == degree_only:
            out.coeffs[mask] = rng.standard_normal() + 1j * rng.standard_normal()
    return out


# ---------------------------------------------------------------------------
# multi-index bookkeeping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, MAX_DIM + 1))
def test_multi_index_counts(n):
    from math import comb
    for k in range(n + 1):
        idx = multi_indices(n, k)
        assert len(idx) == comb(n, k)
        for axes in idx:
            assert list(axes) == sorted(set(axes))
            assert axes_of(sum(1 << a for a in axes)) == axes


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def test_wedge_basis_examples():
    # dx1 ^ dx2 = dx12 and dx2 ^ dx1 = -dx12
    n = 3
    ab = wedge(basis(n, 0b001), basis(n, 0b010))
    ba = wedge(basis(n, 0b010), basis(n, 0b001))
    assert ab.coeffs[0b011] == 1
    assert ba.coeffs[0b011] == -1
    # overlapping indices annihilate
    assert np.all(wedge(basis(n, 0b001), basis(n, 0b011)).coeffs == 0)


def test_wedge_cross_product_identification():
    # for 1-forms in R^3, a ^ u is the 2-form identified with a x u
    rng = np.random.default_rng(0)
    a = rng.standard_normal(3)
    u = rng.standard_normal(3)
    w = wedge(AlgebraElement.one_form(a), AlgebraElement.one_form(u))
    cross = np.cross(a, u)
    # identification: v <-> v1 dx23 - v2 dx13 + v3 dx12
    assert abs(w.coeffs[0b110] - cross[0]) < 1e-14
    assert abs(-w.coeffs[0b101] - cross[1]) < 1e-14
    assert abs(w.coeffs[0b011] - cross[2]) < 1e-14


@pytest.mark.parametrize("n", range(1, MAX_DIM + 1))
def test_wedge_graded_anticommutativity_exhaustive(n):
    for ma, mb in itertools.product(range(1 << n), repeat=2):
        ka, kb = degree(ma), degree(mb)
        ab = wedge(basis(n, ma), basis(n, mb))
        ba = wedge(basis(n, mb), basis(n, ma))
        sign = (-1.0) ** (ka * kb)
        assert np.abs(ab.coeffs - sign * ba.coeffs).max() == 0


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        wedge(AlgebraElement.zero(2), AlgebraElement.zero(3))


# ---------------------------------------------------------------------------
# interior product (contraction)
# ---------------------------------------------------------------------------

def test_interior_kills_scalars():
    u = AlgebraElement.basis(3, 0) * 2.5
    out = interior([1.0, 2.0, 3.0], u)
    assert np.all(out.coeffs == 0)


def test_interior_from_adjointness_oracle():
    # derive e1 _| dx12 from scratch: solve <e1 ^ w, dx12> = <w, X> over the basis
    n = 3
    target = basis(n, 0b011)
    e1 = AlgebraElement.one_form([1.0, 0.0, 0.0])
    derived = AlgebraElement.zero(n)
    for mask in range(1 << n):
        w = basis(n, mask)
        derived.coeffs[mask] = np.conj(inner(wedge(e1, w), target))
    got = interior([1.0, 0.0, 0.0], target)
    assert np.abs(derived.coeffs - got.coeffs).max() == 0
    # and the value is dx2
    assert got.coeffs[0b010] == 1
    assert np.abs(np.delete(got.coeffs, 0b010)).max() == 0


def test_interior_dot_product_identification():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(3)
    u = rng.standard_normal(3)
    out = interior(a, AlgebraElement.one_form(u))
    assert abs(out.coeffs[0] - np.dot(a, u)) < 1e-14


def test_interior_cross_product_identification():
    # 2-forms in R^3: a _| u = -a x u under v <-> (v1 dx23, -v2 dx13, v3 dx12)
    rng = np.random.default_rng(2)
    a = rng.standard_normal(3)
    v = rng.standard_normal(3)
    two_form = AlgebraElement.zero(3)
    two_form.coeffs[0b110] = v[0]
    two_form.coeffs[0b101] = -v[1]
    two_form.coeffs[0b011] = v[2]
    out = interior(a, two_form)
    expected = -np.cross(a, v)
    got = np.array([out.coeffs[0b001], out.coeffs[0b010], out.coeffs[0b100]])
    assert np.abs(got - expected).max() < 1e-14


# ---------------------------------------------------------------------------
# Hodge star
# ---------------------------------------------------------------------------

def test_star_of_one_is_volume():
    for n in range(1, MAX_DIM + 1):
        out = hodge_star(basis(n, 0))
        assert out.coeffs[(1 << n) - 1] == 1
        assert np.abs(out.coeffs[:-1]).max() == 0


def test_star_from_defining_pairing():
    # brute force: *v is the unique element with u ^ *v = <u, v> vol over the basis
    n = 3
    vol = (1 << n) - 1
    for mv in range(1 << n):
        v = basis(n, mv)
        sv = hodge_star(v)
        for mu in range(1 << n):
            u = basis(n, mu)
            pairing = wedge(u, sv).coeffs[vol]
            assert pairing == inner(u, v)
    # spot value: *dx1 = dx23
    assert hodge_star(basis(3, 0b001)).coeffs[0b110] == 1


@pytest.mark.parametrize("n", range(1, MAX_DIM + 1))
def test_star_involution_sign_exhaustive(n):
    for mask in range(1 << n):
        k = degree(mask)
        ss = hodge_star(hodge_star(basis(n, mask)))
        sign = (-1.0) ** (k * (n - k))
        assert np.abs(ss.coeffs - sign * basis(n, mask).coeffs).max() == 0


# ---------------------------------------------------------------------------
# inner product and the coupled identities
# ---------------------------------------------------------------------------

def test_inner_orthonormal_basis():
    assert inner(basis(3, 0b011), basis(3, 0b011)) == 1
    assert inner(basis(3, 0b011), basis(3, 0b101)) == 0


def test_inner_hermitian():
    rng = np.random.default_rng(3)
    u = random_element(3, rng)
    v = random_element(3, rng)
    assert abs(inner(u, v) - np.conj(inner(v, u))) < 1e-13


@pytest.mark.parametrize("n", range(1, MAX_DIM + 1))
def test_adjointness_exhaustive(n):
    rng = np.random.default_rng(10 + n)
    a = rng.standard_normal(n)
    af = AlgebraElement.one_form(a)
    for mu, mv in itertools.product(range(1 << n), repeat=2):
        u, v = basis(n, mu), basis(n, mv)
        assert abs(inner(wedge(af, u), v) - inner(u, interior(a, v))) < 1e-14


@given(st.integers(1, MAX_DIM), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_adjointness_random_elements(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    u = random_element(n, rng)
    v = random_element(n, rng)
    lhs = inner(wedge(AlgebraElement.one_form(a), u), v)
    rhs = inner(u, interior(a, v))
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) / scale < 1e-12


@given(st.integers(1, MAX_DIM), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_lagrange_identity(n, seed):
    # v ^ (v _| u) + v _| (v ^ u) = |v|^2 u for real v
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    vf = AlgebraElement.one_form(v)
    vv = float(np.dot(v, v))
    for mask in range(1 << n):
        u = basis(n, mask)
        lhs = wedge(vf, interior(v, u)) + interior(v, wedge(vf, u))
        assert np.abs(lhs.coeffs - vv * u.coeffs).max() <= 1e-12 * max(vv, 1.0)


@pytest.mark.parametrize("n", range(1, MAX_DIM + 1))
def test_nilpotence(n):
    rng = np.random.default_rng(20 + n)
    a = rng.standard_normal(n)
    af = AlgebraElement.one_form(a)
    for mask in range(1 << n):
        u = basis(n, mask)
        assert np.abs(wedge(af, wedge(af, u)).coeffs).max() < 1e-14
        assert np.abs(interior(a, interior(a, u)).coeffs).max() < 1e-14


def test_star_degree_map():
    n = 4
    for mask in range(1 << n):
        out = hodge_star(basis(n, mask))
        nz = np.nonzero(out.coeffs)[0]
        assert len(nz) == 1
        assert degree(int(nz[0])) == n - degree(mask)
