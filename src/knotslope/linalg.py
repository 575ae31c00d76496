"""Dense complex linear algebra over sl(2, C) and tolerance-based subspaces.

Conventions used throughout the package:

* sl(2) carries the ordered basis ``(E, H, F)`` with ``E = [[0,1],[0,0]]``,
  ``H = [[1,0],[0,-1]]``, ``F = [[0,0],[1,0]]``; a traceless matrix
  ``X = v1*E + v2*H + v3*F`` has coordinates ``(X[0,1], X[0,0], X[1,0])``.
* Coordinate vectors are rows and matrices act on the right:
  ``adjoint_of(A)`` is the matrix whose row ``i`` holds the coordinates of
  ``A^-1 @ X_i @ A``, so ``v @ adjoint_of(A)`` is the coordinate vector of
  ``A^-1 (v.X) A`` and ``adjoint_of(A @ B) = adjoint_of(A) @ adjoint_of(B)``.
* A row vector ``v`` satisfies ``v @ (adjoint_of(A) - I) = 0`` exactly when
  the matrix ``v1*E + v2*H + v3*F`` commutes with ``A``.
* The Killing form in this basis is ``KILLING_GRAM``; every adjoint matrix
  ``T`` satisfies ``T @ KILLING_GRAM @ T.T = KILLING_GRAM``.
"""

from __future__ import annotations

import numpy as np

E = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
H = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
F = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SL2_BASIS = (E, H, F)

KILLING_GRAM = np.array([[0.0, 0.0, 4.0],
                         [0.0, 8.0, 0.0],
                         [4.0, 0.0, 0.0]], dtype=complex)


def as_sl2(A, det_tol: float = 1e-9) -> np.ndarray:
    """Coerce to a 2x2 complex array and check ``det A = 1``."""
    A = np.asarray(A, dtype=complex)
    if A.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {A.shape}")
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    scale = 1.0 + float(np.abs(A).max()) ** 2
    if abs(det - 1.0) > det_tol * scale:
        raise ValueError(f"matrix is not in SL(2): det = {det}")
    return A


def sl2_inverse(A: np.ndarray) -> np.ndarray:
    """Inverse of a determinant-1 matrix, ``[[d,-b],[-c,a]]``."""
    return np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]], dtype=complex)


def sl2_coordinates(X: np.ndarray) -> np.ndarray:
    """Coordinates of a traceless 2x2 matrix in the (E, H, F) basis."""
    return np.array([X[0, 1], X[0, 0], X[1, 0]], dtype=complex)


def adjoint_of(A) -> np.ndarray:
    """The 3x3 matrix of ``X -> A^-1 X A`` on sl(2), rows in (E, H, F), for
    each matrix of a ``(..., 2, 2)`` stack; ``det A = 1`` is assumed."""
    A = np.asarray(A, dtype=complex)
    if A.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 matrices, got shape {A.shape}")
    a, b, c, d = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    entries = [d * d, c * d, -c * c,
               2 * b * d, a * d + b * c, -2 * a * c,
               -b * b, -a * b, a * a]
    return np.stack(entries, axis=-1).reshape(A.shape[:-2] + (3, 3))


def _singular_triplet(A: np.ndarray):
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    return np.linalg.svd(A, full_matrices=True)


def rank_with_tol(A, tol: float = 1e-8) -> int:
    """Numerical rank: singular values above ``tol`` times the largest."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def orthonormal_row_basis(A, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal rows spanning the row space of ``A``."""
    _, s, vh = _singular_triplet(A)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((0, np.atleast_2d(A).shape[1]), dtype=complex)
    r = int(np.count_nonzero(s > tol * s[0]))
    return vh[:r]


def nullspace(A, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal rows ``v`` with ``A @ v = 0``."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    _, s, vh = _singular_triplet(A)
    n = A.shape[1]
    if s.size == 0 or s[0] == 0.0:
        return np.eye(n, dtype=complex)
    r = int(np.count_nonzero(s > tol * s[0]))
    return vh[r:].conj()


def left_nullspace(A, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal rows ``v`` with ``v @ A = 0``."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    return nullspace(A.T, tol)


def subspace_intersection(U, W, tol: float = 1e-8) -> np.ndarray:
    """A row basis of ``rowspace(U) ∩ rowspace(W)``.

    Both inputs are orthonormalized first; the intersection is recovered
    from the null space of the stacked system ``x_U @ U = x_W @ W``.
    """
    U = orthonormal_row_basis(U, tol)
    W = orthonormal_row_basis(W, tol)
    n = U.shape[1] if U.size else (W.shape[1] if W.size else 0)
    if U.shape[0] == 0 or W.shape[0] == 0:
        return np.zeros((0, n), dtype=complex)
    stacked = np.vstack([U, -W])  # rows; solve x @ stacked = 0
    coeffs = left_nullspace(stacked, tol)
    if coeffs.shape[0] == 0:
        return np.zeros((0, n), dtype=complex)
    vectors = coeffs[:, : U.shape[0]] @ U
    return orthonormal_row_basis(vectors, tol)
