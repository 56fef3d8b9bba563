"""Dense small-matrix kernels.

Provides the matrix exponential (scaling and squaring with a fixed
degree-13 diagonal rational approximant), its directional (Frechet)
derivative by the Al-Mohy--Higham recurrence on that same approximant,
and the stabilized hold integral ``phi1(a, d) = (exp(a*d) - 1)/a``.

All routines operate on float64 ndarrays and accept an arbitrary number
of leading batch axes on the matrix arguments. Each matrix of a batch
gets its own scaling exponent, the smallest s with ||M||_1 / 2**s <=
theta13 (Higham 2005), so a result never depends on the other matrices
of its stack: every matrix of a batched call equals its solo call bit
for bit.
"""

import math

import numpy as np


class DimensionError(ValueError):
    """Operands have incompatible or non-square shapes."""


class DomainError(ValueError):
    """Input contains non-finite entries or lies outside the valid domain."""


# Degree-13 diagonal rational approximant coefficients and its 1-norm
# switching radius. With ||A||_1 <= theta13 the approximant is accurate
# to double-precision roundoff; larger inputs are halved s times first.
_B13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA13 = 5.371920351148152

# The coefficients divided by b0. At A = 0 the denominator V - U is then
# exactly I, so exp(0) = I and L(0, E) = E hold exactly without a special
# case (a LAPACK solve with b0 * I returns 1 - 1.1e-16 on the diagonal).
_B = tuple(b / _B13[0] for b in _B13)


def _as_square(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DimensionError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise DomainError(f"{name} contains non-finite entries")
    return M


def _norms(M):
    """1-norms of the matrices of M, flattened over the batch axes."""
    return np.abs(M).sum(axis=-2).max(axis=-1).ravel() if M.size else np.zeros(0)


def _squarings(norm1):
    """Per-matrix squaring counts s with norm1 / 2**s <= theta13, or None
    when no matrix needs any (the input is then used unscaled)."""
    if not norm1.size or norm1.max() <= _THETA13:
        return None
    return np.ceil(np.log2(np.maximum(norm1, _THETA13) / _THETA13)).astype(int)


def _pade13(A):
    """Parts of the approximant r(A) = (V - U)^-1 (V + U) of a (B, n, n)
    stack: the powers (A2, A4, A6), the inner sums (W1, Z1, W), U = A W
    and V = A6 Z1 + Z2."""
    b = _B
    eye = np.eye(A.shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    W1 = b[13] * A6 + b[11] * A4 + b[9] * A2
    Z1 = b[12] * A6 + b[10] * A4 + b[8] * A2
    W = A6 @ W1 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye
    V = A6 @ Z1 + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye
    return (A2, A4, A6), (W1, Z1, W), A @ W, V


def matrix_exp(M):
    """exp(M) for square M, batched over leading axes.

    Scaling and squaring: halve each matrix until its 1-norm is below the
    degree-13 switching radius, evaluate the rational approximant, then
    square back. exp(0) is the identity exactly.
    """
    M = _as_square(M, "matrix_exp input")
    n = M.shape[-1]
    norm1 = _norms(M)
    if not norm1.any():
        # exp(0) is the identity exactly; keeps the zero-coupling step
        # bit-identical to the plain diagonal hold step
        return np.broadcast_to(np.eye(n), M.shape).copy()
    A = M.reshape(norm1.size, n, n)
    s = _squarings(norm1)
    if s is not None:
        A = A * np.ldexp(1.0, -s)[:, None, None]
    _, _, U, V = _pade13(A)
    X = np.linalg.solve(V - U, V + U)
    if s is not None:
        for j in range(1, s.max() + 1):
            i = np.flatnonzero(s >= j)
            X[i] = X[i] @ X[i]
    return X.reshape(M.shape)


def matrix_exp_frechet(M, E):
    """Return (exp(M), L(M, E)) with L the directional derivative of exp.

    E has M's shape, or M's shape with one direction axis inserted before
    the matrix axes, ``(..., k, n, n)``; L has E's shape. The derivative
    is that of the same scaled approximant that gives exp(M), by the
    recurrence of Al-Mohy and Higham (SIAM J. Matrix Anal. Appl. 30(4),
    2009, Alg. 6.4) on n x n matrices: the k directions share the powers
    of A, the approximant's parts and one inverse of V - U, which serves
    both r = (V - U)^-1 (V + U) and the derivative's solve. Squaring back
    takes L <- r L + L r along with r <- r r.
    """
    M = _as_square(M, "matrix_exp_frechet M")
    E = _as_square(E, "matrix_exp_frechet E")
    batch, n = M.shape[:-2], M.shape[-1]
    if E.shape != M.shape and E.shape[:-3] + E.shape[-2:] != M.shape:
        raise DimensionError(
            f"direction shape {E.shape} is neither the matrix shape {M.shape} "
            "nor that shape with one direction axis before the matrix axes"
        )
    B = math.prod(batch)
    k = E.shape[-3] if E.ndim > M.ndim else 1
    A = M.reshape(B, n, n)
    D = E.reshape(B, k, n, n)
    s = _squarings(_norms(M))
    if s is not None:
        scale = np.ldexp(1.0, -s)[:, None, None]
        A = A * scale
        D = D * scale[:, None]
    (A2, A4, A6), (W1, Z1, W), U, V = _pade13(A)
    Q_inv = np.linalg.inv(V - U)
    X = Q_inv @ (V + U)

    # derivatives of the parts toward each direction; a new axis 1 on the
    # shared parts broadcasts them over the k directions
    A, A2, A4, A6, W1, Z1, W, Q_inv, R = (
        T[:, None] for T in (A, A2, A4, A6, W1, Z1, W, Q_inv, X)
    )
    b = _B
    M2 = A @ D + D @ A
    M4 = A2 @ M2 + M2 @ A2
    M6 = A4 @ M2 + M4 @ A2
    Lw = A6 @ (b[13] * M6 + b[11] * M4 + b[9] * M2) + M6 @ W1
    Lw += b[7] * M6 + b[5] * M4 + b[3] * M2
    Lu = A @ Lw + D @ W
    Lv = A6 @ (b[12] * M6 + b[10] * M4 + b[8] * M2) + M6 @ Z1
    Lv += b[6] * M6 + b[4] * M4 + b[2] * M2
    L = Q_inv @ (Lu + Lv + (Lu - Lv) @ R)
    if s is not None:
        for j in range(1, s.max() + 1):
            i = np.flatnonzero(s >= j)
            Xi = X[i]
            L[i] = Xi[:, None] @ L[i] + L[i] @ Xi[:, None]
            X[i] = Xi @ Xi
    return X.reshape(M.shape), L.reshape(E.shape)


# Below |a*d| < _PHI1_SMALL the series for phi1 and its a-partial is exact
# to double precision with the retained terms; above it the closed forms
# are free of cancellation thanks to expm1.
_PHI1_SMALL = 1e-4


def phi1(a, delta):
    """Elementwise (exp(a*delta) - 1)/a with the continuous limit delta at a=0.

    Built on expm1 so there is no cancellation as a -> 0. Total on finite
    inputs; broadcasts like a normal binary ufunc.
    """
    a = np.asarray(a, dtype=float)
    delta = np.asarray(delta, dtype=float)
    x = a * delta
    safe_a = np.where(a == 0.0, 1.0, a)
    return np.where(a == 0.0, delta, np.expm1(x) / safe_a)


def phi1_partials(a, delta):
    """Partials (d phi1/d a, d phi1/d delta), elementwise.

    d/d delta = exp(a*delta) exactly; d/d a uses the series
    d^2/2 + a d^3/3 + a^2 d^4/8 near a*delta = 0 to avoid cancellation in
    (delta*exp(a*delta) - phi1)/a.
    """
    a = np.asarray(a, dtype=float)
    delta = np.asarray(delta, dtype=float)
    x = a * delta
    d_delta = np.exp(x)
    small = np.abs(x) < _PHI1_SMALL
    safe_a = np.where(small, 1.0, a)
    series = delta**2 / 2.0 + a * delta**3 / 3.0 + (a * delta**2) ** 2 / 8.0
    exact = (delta * np.exp(x) - phi1(a, delta)) / safe_a
    d_a = np.where(small, series, exact)
    return d_a, d_delta
