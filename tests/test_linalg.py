"""Adjoint action, Killing form, and numerical subspace tools."""

from __future__ import annotations

from random import Random

import numpy as np
import pytest

from knotslope.linalg import (E, F, H, KILLING_GRAM, SL2_BASIS, adjoint_of,
                              as_sl2, left_nullspace, nullspace,
                              orthonormal_row_basis, rank_with_tol,
                              sl2_coordinates, sl2_inverse,
                              subspace_intersection)

from helpers import random_sl2


def test_basis_and_coordinates_roundtrip():
    rng = Random(1)
    for _ in range(50):
        coeffs = np.array([complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                           for _ in range(3)])
        X = coeffs[0] * E + coeffs[1] * H + coeffs[2] * F
        assert np.allclose(np.array(sl2_coordinates(X)), coeffs)


def test_adjoint_of_standard_parabolic_is_frozen():
    A = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    expected = np.array([[1, 0, 0],
                         [2, 1, 0],
                         [-1, -1, 1]], dtype=complex)
    assert np.allclose(adjoint_of(A), expected)
    # the E-direction is fixed: row vector (1,0,0) maps to itself
    v = np.array([1.0, 0.0, 0.0])
    assert np.allclose(v @ adjoint_of(A), v)


def test_adjoint_of_diagonal_is_frozen():
    lam = 3.0 + 0.5j
    A = np.diag([lam, 1.0 / lam]).astype(complex)
    expected = np.diag([lam ** -2, 1.0, lam ** 2])
    assert np.allclose(adjoint_of(A), expected)


def test_adjoint_is_a_homomorphism():
    rng = Random(2)
    for _ in range(100):
        A = random_sl2(rng)
        B = random_sl2(rng)
        lhs = adjoint_of(A @ B)
        rhs = adjoint_of(A) @ adjoint_of(B)
        assert np.allclose(lhs, rhs, atol=1e-10 * (1 + np.abs(rhs).max()))


def test_adjoint_of_a_stack_matches_each_matrix():
    rng = Random(6)
    stack = np.array([random_sl2(rng, scale=2.0) for _ in range(8)])
    stacked = adjoint_of(stack)
    assert stacked.shape == (8, 3, 3)
    for A, Ad in zip(stack, stacked):
        assert np.array_equal(Ad, adjoint_of(A))


def test_adjoint_preserves_killing_form_and_volume():
    rng = Random(3)
    G = np.array(KILLING_GRAM, dtype=complex)
    for _ in range(50):
        Ad = adjoint_of(random_sl2(rng))
        assert np.allclose(Ad @ G @ Ad.T, G, atol=1e-9 * (1 + np.abs(Ad).max() ** 2))
        assert abs(np.linalg.det(Ad) - 1.0) < 1e-9 * (1 + np.abs(Ad).max() ** 3)


def test_adjoint_row_convention_realizes_conjugation():
    # row i of Ad(A) holds the coordinates of A^-1 X_i A
    rng = Random(4)
    for _ in range(50):
        A = random_sl2(rng)
        Ad = adjoint_of(A)
        Ainv = sl2_inverse(A)
        for i, X in enumerate(SL2_BASIS):
            direct = np.array(sl2_coordinates(Ainv @ X @ A))
            assert np.allclose(Ad[i], direct, atol=1e-10 * (1 + np.abs(Ad).max()))


def test_fixed_vectors_are_commuting_directions():
    # v (Ad - I) = 0 exactly when sum_i v_i X_i commutes with A
    rng = Random(5)
    lam = 1.7 - 0.3j
    A = np.diag([lam, 1.0 / lam]).astype(complex)
    Ad = adjoint_of(A)
    v = np.array([0.0, 1.0, 0.0])  # H commutes with any diagonal matrix
    assert np.allclose(v @ (Ad - np.eye(3)), 0.0)
    X = v[0] * E + v[1] * H + v[2] * F
    assert np.allclose(X @ A, A @ X)
    # and a generic direction does not
    w = np.array([1.0, 0.0, 0.0])
    assert not np.allclose(w @ (Ad - np.eye(3)), 0.0)


def test_as_sl2_rejects_bad_input():
    with pytest.raises(ValueError):
        as_sl2(np.eye(3))
    with pytest.raises(ValueError):
        as_sl2(2.0 * np.eye(2))  # det 4
    A = as_sl2([[1, 1], [0, 1]])
    assert A.dtype == complex


def test_sl2_inverse_is_adjugate():
    rng = Random(6)
    for _ in range(50):
        A = random_sl2(rng)
        assert np.allclose(A @ sl2_inverse(A), np.eye(2), atol=1e-12 * (1 + np.abs(A).max() ** 2))


def test_rank_with_tol():
    A = np.array([[1.0, 0.0], [0.0, 1e-12]])
    assert rank_with_tol(A) == 1
    assert rank_with_tol(np.eye(3)) == 3
    assert rank_with_tol(np.zeros((2, 2))) == 0


def test_nullspace_rows_are_orthonormal_and_annihilated():
    A = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]], dtype=complex)
    N = nullspace(A)
    assert N.shape == (2, 3)
    assert np.allclose(A @ N.T, 0.0, atol=1e-12)
    assert np.allclose(N @ N.conj().T, np.eye(2), atol=1e-12)
    # zero matrix: everything is in the kernel
    Z = nullspace(np.zeros((2, 4)))
    assert Z.shape == (4, 4)


def test_left_nullspace():
    A = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]], dtype=complex)
    L = left_nullspace(A)
    assert np.allclose(L @ A, 0.0, atol=1e-12)
    assert L.shape[0] == 2  # rank 1, three rows


def test_orthonormal_row_basis_spans_input():
    rng = Random(8)
    M = np.array([[1, 2, 3], [2, 4, 6], [0, 1, 0]], dtype=complex)
    B = orthonormal_row_basis(M)
    assert B.shape == (2, 3)
    # every original row lies in the span of B
    coeff, res, *_ = np.linalg.lstsq(B.T, M.T, rcond=None)
    assert np.allclose(B.T @ coeff, M.T, atol=1e-12)


def test_subspace_intersection_crafted():
    e1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0, 0.0], dtype=complex)
    e3 = np.array([0.0, 0.0, 1.0], dtype=complex)
    inter = subspace_intersection(np.vstack([e1, e2]), np.vstack([e2, e3]))
    assert inter.shape == (1, 3)
    assert np.allclose(np.abs(inter[0]), e2)
    nothing = subspace_intersection(e1[None, :], e3[None, :])
    assert nothing.shape[0] == 0
    full = subspace_intersection(np.vstack([e1, e2]), np.vstack([e1 + e2, e1 - e2]))
    assert full.shape[0] == 2


def test_subspace_intersection_random_containment():
    rng = Random(9)
    rand = np.random.default_rng(9)
    for _ in range(25):
        U = rand.normal(size=(2, 4)) + 1j * rand.normal(size=(2, 4))
        W = np.vstack([U[0], rand.normal(size=4) + 1j * rand.normal(size=4)])
        inter = subspace_intersection(U, W)
        assert inter.shape[0] >= 1
        for v in inter:
            # v must lie in both row spans
            for S in (U, W):
                coeff, *_ = np.linalg.lstsq(S.T, v, rcond=None)
                assert np.allclose(S.T @ coeff, v, atol=1e-8)
