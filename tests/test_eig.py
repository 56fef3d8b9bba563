"""Nonsymmetric eigenvalues, moduli and eigenvectors."""

import numpy as np
import pytest

from bkmpc.numerics import ConvergenceError, eig_values
from bkmpc.numerics.eig import eigen_pair
from helpers import lu_det


def eig_moduli(M):
    """Eigenvalue moduli, sorted descending."""
    return np.sort(np.abs(eig_values(M)), axis=-1)[..., ::-1]


def test_diagonal_moduli():
    mods = eig_moduli(np.diag([0.5, -0.9]))
    assert np.allclose(mods, [0.9, 0.5], atol=1e-14)


def test_rotation_moduli():
    mods = eig_moduli(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(mods, [1.0, 1.0], atol=1e-12)


def test_product_of_moduli_equals_abs_det():
    rng = np.random.default_rng(31)
    for _ in range(40):
        M = rng.standard_normal((8, 8))
        mods = eig_moduli(M)
        prod = float(np.prod(mods))
        det = abs(lu_det(M))
        assert abs(prod - det) <= 1e-8 * max(det, 1e-12)


def test_similarity_invariance():
    rng = np.random.default_rng(37)
    for _ in range(20):
        M = rng.standard_normal((6, 6))
        S = np.eye(6) + 0.3 * rng.standard_normal((6, 6))
        Ms = np.linalg.solve(S, M @ S)
        a = eig_moduli(M)
        b = eig_moduli(Ms)
        assert np.max(np.abs(a - b)) <= 1e-8 * max(1.0, a[0])


def test_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(41)
    for n in [1, 2, 3, 5, 8, 12, 15]:
        for _ in range(10):
            M = rng.standard_normal((n, n))
            mine = eig_moduli(M)
            ref = np.sort(np.abs(np.linalg.eigvals(M)))[::-1]
            assert np.max(np.abs(mine - ref)) <= 1e-9 * max(1.0, ref[0])


def test_hard_cases():
    # permutation (cyclic), defective Jordan block, upper triangular
    P = np.roll(np.eye(6), 1, axis=0)
    assert np.allclose(eig_moduli(P), np.ones(6), atol=1e-8)
    J = np.eye(4) * 0.5 + np.diag(np.ones(3), 1)
    assert np.allclose(eig_moduli(J), 0.5 * np.ones(4), atol=1e-4)
    U = np.triu(np.arange(1.0, 17.0).reshape(4, 4))
    ref = np.sort(np.abs(np.diag(U)))[::-1]
    assert np.allclose(eig_moduli(U), ref, atol=1e-10)


def test_linalg_error_becomes_convergence_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    M = np.random.default_rng(43).standard_normal((6, 6))
    monkeypatch.setattr(np.linalg, "eigvals", fail)
    monkeypatch.setattr(np.linalg, "eig", fail)
    for solve in (eig_values, eigen_pair):
        with pytest.raises(ConvergenceError) as ei:
            solve(M)
        assert isinstance(ei.value.__cause__, np.linalg.LinAlgError)


def test_eigen_pair_residuals_on_a_stack():
    rng = np.random.default_rng(47)
    M = rng.standard_normal((5, 6, 6))
    lam, V, W = eigen_pair(M)
    assert lam.shape == (5, 6) and V.shape == W.shape == (5, 6, 6)
    assert np.any(lam.imag != 0.0)
    norm = lambda X: np.linalg.norm(X, axis=(1, 2))
    L = lam[:, None, :]
    assert np.all(norm(M @ V - V * L) <= 1e-12 * norm(M) * norm(V))
    assert np.all(norm(W @ M - np.swapaxes(L, 1, 2) * W) <= 1e-12 * norm(M) * norm(W))
    assert np.allclose(W @ V, np.eye(6), atol=1e-10)
    assert np.array_equal(eig_values(M), np.stack([eig_values(m) for m in M]))


def test_rejects_nonsquare():
    with pytest.raises(ValueError):
        eig_values(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        eig_values(np.array([[1.0, np.inf], [0.0, 1.0]]))
