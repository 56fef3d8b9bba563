"""Eigenvalues and eigenvectors of stacks of real nonsymmetric matrices.

Every function takes a single ``(n, n)`` matrix or a ``(..., n, n)`` stack
and makes one LAPACK call (``geev`` through ``numpy.linalg``) for the whole
stack. ``eigen_pair`` also returns W = V^-1: its rows are the left
eigenvectors, scaled so that W V = I, which is the normalization the
eigenvalue derivative d(lambda_i)/dM = W[i, :]^T V[:, i]^T needs.
"""

import numpy as np


class ConvergenceError(RuntimeError):
    """LAPACK did not converge (or returned singular eigenvectors)."""


def _checked(M):
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains non-finite entries")
    return M


def eig_values(M):
    """All eigenvalues of each matrix of a stack, complex, shape (..., n)."""
    M = _checked(M)
    try:
        lam = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalues did not converge: {exc}") from exc
    return lam.astype(complex)


def eigen_pair(M):
    """(lam, V, W) for each matrix of a stack: eigenvalues, right
    eigenvectors as the columns of V, and W = V^-1."""
    M = _checked(M)
    try:
        lam, V = np.linalg.eig(M)
        W = np.linalg.inv(V)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvectors did not converge: {exc}") from exc
    return lam.astype(complex), V.astype(complex), W.astype(complex)
