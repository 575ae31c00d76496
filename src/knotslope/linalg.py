"""Dense complex linear algebra over sl(2, C), on stacks of matrices.

``sl2_inverse``, ``adjoint_of``, ``svd_stack`` and ``rank_cut`` take
``(N, ...)`` stacks of matrices; ``nullspace`` is the one single-matrix
tool, a null space cut at ``tol`` times the largest singular value.

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


def as_sl2(A) -> np.ndarray:
    """Coerce to a 2x2 complex array and check ``det A = 1`` to within
    ``1e-9·(1 + max|A_ij|^2)``."""
    A = np.asarray(A, dtype=complex)
    if A.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {A.shape}")
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    top = float(np.abs(A).max())
    scale = 1.0 + top * top
    if abs(det - 1.0) > 1e-9 * scale:
        raise ValueError(f"matrix is not in SL(2): det = {det}")
    return A


def sl2_inverse(A) -> np.ndarray:
    """``[[d, -b], [-c, a]]`` of each matrix of a ``(..., 2, 2)`` stack:
    the inverse at determinant 1."""
    A = np.asarray(A, dtype=complex)
    out = np.empty_like(A)
    out[..., 0, 0] = A[..., 1, 1]
    out[..., 0, 1] = -A[..., 0, 1]
    out[..., 1, 0] = -A[..., 1, 0]
    out[..., 1, 1] = A[..., 0, 0]
    return out


def sl2_coordinates(X) -> np.ndarray:
    """Coordinates in the (E, H, F) basis of the traceless part ``X -
    tr(X)/2 I`` of each matrix of a ``(..., 2, 2)`` stack."""
    X = np.asarray(X, dtype=complex)
    return np.stack([X[..., 0, 1], (X[..., 0, 0] - X[..., 1, 1]) / 2,
                     X[..., 1, 0]], axis=-1)


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


def svd_stack(A) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors (``full_matrices``) of
    every matrix of an ``(N, m, n)`` stack, in one ``np.linalg.svd`` call.

    LAPACK rejects a whole stack when one matrix is not finite; such a
    matrix gets NaN singular values and vectors instead, and the rest of
    the stack is unaffected.
    """
    A = np.asarray(A, dtype=complex)
    N, m, n = A.shape
    s = np.full((N, min(m, n)), np.nan)
    vh = np.full((N, n, n), np.nan, dtype=complex)
    ok = np.isfinite(A).all(axis=(1, 2))
    _, s[ok], vh[ok] = np.linalg.svd(A[ok], full_matrices=True)
    return s, vh


def rank_cut(s, tol: float = 1e-8) -> np.ndarray:
    """Numerical ranks from singular values ``(..., k)``: the count above
    ``tol`` times the largest, and 0 where the largest is 0 or NaN."""
    s = np.asarray(s)
    return np.count_nonzero(s > tol * s[..., :1], axis=-1)


def nullspace(A, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal rows ``v`` with ``A @ v = 0``."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    _, s, vh = np.linalg.svd(A, full_matrices=True)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(A.shape[1], dtype=complex)
    return vh[int(rank_cut(s, tol)):].conj()
