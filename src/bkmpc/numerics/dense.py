"""Dense small-matrix kernels.

Provides the matrix exponential (scaling and squaring with the degree-16
Taylor polynomial T16, evaluated by Paterson--Stockmeyer in A^4 with
matrix products only, no linear solve), its directional (Frechet)
derivative L(M, E) on that same polynomial, as a matrix for the tape's
adjoint or as its action L(M, E) v for the SCP linearization, and the
stabilized hold integral ``phi1(a, d) = (exp(a*d) - 1)/a``. The action
takes two routes: a matrix that needs no squaring by matrix-vector
products alone, one that needs squarings through its derivative
matrices, squared back with the exponential and then applied.

All routines operate on float64 ndarrays and accept an arbitrary number
of leading batch axes on the matrix arguments. Each matrix of a batch
gets its own scaling exponent, the smallest s with ||M||_1 / 2**s <=
theta (Higham 2005), so a result never depends on the other matrices of
its stack: every matrix of a batched call equals its solo call bit for
bit. So the kernels can walk a stack in blocks, keeping their largest
temporaries under ``_BLOCK_BYTES`` whatever the stack's size, and still
return exactly the one-block result: a block is a stack of its own.
M's finiteness is read from its 1-norms, with no mask of the stack: a
non-finite norm raises ``DomainError``. E and v are checked entry by entry.
"""

import math

import numpy as np


class DimensionError(ValueError):
    """Operands have incompatible or non-square shapes."""


class DomainError(ValueError):
    """Input contains non-finite entries or lies outside the valid domain."""


# 1-norm switching radius: the backward-error radius of T16 in double
# precision (Al-Mohy and Higham, SIAM J. Sci. Comput. 33(2), 2011); the
# tail sum_{k>16} theta^k / k! is below 2**-53 up to 0.82.
_THETA = 0.78

# byte budget of a kernel's largest temporaries: a block's powers P of
# ``_taylor16`` and its derivative matrices dP or Krylov rows K and F
_BLOCK_BYTES = 1 << 20

# T16(A) = B0 + A4 (B1 + A4 (B2 + A4 (B3 + A4 / 16!))), B_j = sum_{i<4}
# A^i / (4j + i)!. Row j of _C holds B_j's coefficients on the powers
# [I, A, A^2, A^3, A^4]; row 3 adds the 1/16! of A^4, so it gives the
# first Horner iterate Y3. c0 = c1 = 1: exp(0) = I and L(0, E) = E exactly.
_C = np.array([
    [1.0 / math.factorial(4 * j + i) if i < 4 or j == 3 else 0.0 for i in range(5)]
    for j in range(4)
])

# dT16(A)[E] = sum_a A^a E sum_b _HANKEL[a, b] A^b: 1/(a+b+1)! for a + b < 16
_HANKEL = np.array([[1.0 / math.factorial(a + b + 1) if a + b < 16 else 0.0
                     for b in range(16)] for a in range(16)])


def _as_square(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DimensionError(f"{name} must be square, got shape {M.shape}")
    return M


def _norms(M, name):
    """1-norms of the matrices of M, flattened over the batch axes, in one
    pass; a NaN or infinite entry, or an overflowing column sum, raises."""
    norm1 = np.einsum("...ij->...j", np.abs(M)).max(axis=-1, initial=0.0).ravel()
    if not np.isfinite(norm1).all():
        raise DomainError(f"{name} has a non-finite entry or 1-norm")
    return norm1


def _squarings(norm1):
    """Per-matrix squaring counts: the smallest s >= 0 with
    norm1 / 2**s <= theta."""
    return np.ceil(np.log2(np.maximum(norm1, _THETA) / _THETA)).astype(int)


def _blocks(count, matrix_bytes):
    """Slices over ``count`` matrices of at most ``matrix_bytes`` each."""
    step = max(1, _BLOCK_BYTES // matrix_bytes)
    return [slice(i, i + step) for i in range(0, count, step)]


def _taylor16(M, s, X):
    """T16 of the (B, n, n) stack M, each matrix halved s[i] times, into X
    in six products, with the parts its derivative reuses: the powers
    P = [I, A, A^2, A^3, A^4] of the halved stack A and the Horner iterates
    Y_j = B_j + A^4 Y_{j+1} in Y[j] for j = 1, 2, 3 (Y[0] is B0)."""
    P = np.empty((5,) + M.shape)
    P[0] = np.eye(M.shape[-1])
    if s.any():
        np.multiply(M, np.ldexp(1.0, -s)[:, None, None], out=P[1])
    else:
        P[1] = M
    np.matmul(P[1], P[1], out=P[2])
    np.matmul(P[2], P[1], out=P[3])
    np.matmul(P[2], P[2], out=P[4])
    Y = (_C @ P.reshape(5, -1)).reshape((4,) + M.shape)
    for j in (2, 1):
        Y[j] += np.matmul(P[4], Y[j + 1], out=X)
    np.matmul(P[4], Y[1], out=X)
    X += Y[0]
    return P, Y


def _square_back(X, s, *Ls):
    """Square each matrix of X back s[i] times, carrying each L of ``Ls``
    by L <- X L + L X."""
    for j in range(1, s.max(initial=0) + 1):
        i = np.flatnonzero(s >= j)
        Xi = X[i]
        for L in Ls:
            L[i] = Xi @ L[i] + L[i] @ Xi
        X[i] = Xi @ Xi


def matrix_exp(M):
    """exp(M) for square M, batched over leading axes.

    Scaling and squaring: halve each matrix until its 1-norm is below the
    switching radius, evaluate T16, then square back, block by block.
    A zero matrix needs no squaring, and T16(0) is the identity exactly
    (``_C``'s c0 = 1), which keeps the zero-coupling step bit-identical
    to the plain diagonal hold step.
    """
    M = _as_square(M, "matrix_exp input")
    n = M.shape[-1]
    s = _squarings(_norms(M, "matrix_exp input"))
    flat = M.reshape(s.size, n, n)
    X = np.empty(flat.shape)
    for b in _blocks(s.size, 5 * 8 * n * n):
        Xb, sb = X[b], s[b]
        _taylor16(flat[b], sb, Xb)
        _square_back(Xb, sb)
    return X.reshape(M.shape)


def matrix_exp_frechet(M, E):
    """L(M, E), the directional derivative of exp at M toward E.

    E has M's shape. The derivative is that of the same scaled polynomial
    that gives exp(M), by the product rule on its products: dA^2 = A D +
    D A, dA^3 = dA^2 A + A^2 D, dA^4 = dA^2 A^2 + A^2 dA^2, the blocks'
    derivatives from one coefficient product over [D, dA^2, dA^3, dA^4],
    and dY_j = dB_j + dA^4 Y_{j+1} + A^4 dY_{j+1} along Horner: 12
    products and no solve. Squaring back takes L <- X L + L X along with
    X <- X X; X, the exponential, is each block's scratch.
    """
    M = _as_square(M, "matrix_exp_frechet M")
    E = _as_square(E, "matrix_exp_frechet E")
    if not np.isfinite(E).all():
        raise DomainError("matrix_exp_frechet E contains non-finite entries")
    if E.shape != M.shape:
        raise DimensionError(f"direction shape {E.shape} is not the matrix shape {M.shape}")
    n = M.shape[-1]
    s = _squarings(_norms(M, "matrix_exp_frechet M"))
    Mf, Ef = M.reshape(s.size, n, n), E.reshape(s.size, n, n)
    L = np.empty(Ef.shape)
    for b in _blocks(s.size, 5 * 8 * n * n):
        X = np.empty(Mf[b].shape)
        P, Y = _taylor16(Mf[b], s[b], X)
        _frechet_block(P, Y, Ef[b], s[b], L[b])
        _square_back(X, s[b], L[b])
    return L.reshape(E.shape)


def _frechet_block(P, Y, E, s, L):
    """L of the (B, n, n) directions E halved s[i] times, unsquared, at
    the powers P and Horner iterates Y of a ``_taylor16``."""
    A, A2, A4 = P[1], P[2], P[4]
    # dP = [D, dA^2, dA^3, dA^4] of the halved directions; L is scratch
    # until the last Horner step
    dP = np.empty((4,) + L.shape)
    D = dP[0]
    if s.any():
        np.multiply(E, np.ldexp(1.0, -s)[:, None, None], out=D)
    else:
        D[...] = E
    np.matmul(A, D, out=dP[1])
    dP[1] += np.matmul(D, A, out=L)
    np.matmul(dP[1], A, out=dP[2])
    dP[2] += np.matmul(A2, D, out=L)
    np.matmul(dP[1], A2, out=dP[3])
    dP[3] += np.matmul(A2, dP[1], out=L)
    dY = (_C[:, 1:] @ dP.reshape(4, -1)).reshape(dP.shape)
    for j in (2, 1):
        dY[j] += np.matmul(dP[3], Y[j + 1], out=L)
        dY[j] += np.matmul(A4, dY[j + 1], out=L)
    dY[0] += np.matmul(dP[3], Y[1], out=L)
    np.matmul(A4, dY[1], out=L)
    L += dY[0]


def matrix_exp_frechet_action(M, E, v):
    """(exp(M), Lv), Lv[..., :, j] = L(M, E[j]) v, for a stack M (..., n, n),
    k directions E (k, n, n) that it shares and vectors v (..., n).

    exp(M) is ``matrix_exp(M)``'s bit for bit. A matrix that needs no
    squaring (X = T16(M)) takes matrix-vector products only: L(M, E) v =
    sum_a M^a E sum_b M^b v / (a+b+1)!, from the Krylov rows M^b v by
    doubling with M, M^2, M^4, M^8, one product with those Hankel weights
    and one with E, then Horner in M. A matrix that needs squarings takes,
    within its block, the derivative matrices of ``matrix_exp_frechet``,
    L(M, E_j) for one direction after another, squares them back with X
    and applies them to v, so its work and temporaries grow with k, not
    with its norm. Each matrix equals its solo call bit for bit.
    """
    M, E = _as_square(M, "frechet action M"), _as_square(E, "frechet action E")
    v = np.asarray(v, dtype=float)
    n, k = M.shape[-1], E.shape[0]
    if E.shape != (k, n, n) or v.shape != M.shape[:-1]:
        raise DimensionError(f"E {E.shape} and v {v.shape} do not fit M {M.shape}")
    if not (np.isfinite(E).all() and np.isfinite(v).all()):
        raise DomainError("frechet action E or v has a non-finite entry")
    s = _squarings(_norms(M, "frechet action M"))
    Mf, vf = M.reshape(s.size, n, n), v.reshape(s.size, 1, n)
    X, Lv = np.empty(Mf.shape), np.empty((s.size, k, n))
    Et = E.transpose(2, 0, 1).reshape(n, k * n)  # a row w times Et: [(E_j w)^T]_j
    # per matrix: the squaring route's copied powers and iterates and its k
    # derivative matrices, or the Krylov and derivative rows
    for b in _blocks(s.size, 8 * n * max(8 * n, 16 * (k + 1))):
        Xb, Lb, sb, vb = X[b], Lv[b], s[b], vf[b]
        P, Y = _taylor16(Mf[b], sb, Xb)
        if not sb.any():
            Lb[...] = _unscaled_action(P, vb, Et)
            continue
        i = np.flatnonzero(sb == 0)
        Lb[i] = _unscaled_action(P[:, i], vb[i], Et)
        i = np.flatnonzero(sb)
        # keep the parts of the matrices that need squarings, freeing the rest
        P, Y, Xi, si = P[:, i], Y[:, i], Xb[i], sb[i]
        Ls = [np.empty(Xi.shape) for _ in range(k)]
        for Ej, L in zip(E, Ls):
            _frechet_block(P, Y, Ej, si, L)
        _square_back(Xi, si, *Ls)
        Xb[i] = Xi
        for j, L in enumerate(Ls):
            Lb[i, j] = (vb[i] @ np.swapaxes(L, 1, 2))[:, 0]
    return X.reshape(M.shape), np.swapaxes(Lv, 1, 2).reshape(M.shape[:-1] + (k,))


def _unscaled_action(P, v, Et):
    """Rows L(A, E_j) v of the matrices A = P[1] of a ``_taylor16`` with no
    squaring, for rows v."""
    B, _, n = v.shape
    k = Et.shape[1] // n
    At = np.swapaxes(P[[1, 2, 4, 4]], 2, 3).copy()  # A, A^2, A^4, A^8, transposed
    np.matmul(At[2], At[2], out=At[3])
    # row b of K is A^b v, filled by doubling
    K = np.empty((B, 16, n))
    K[:, :1] = v
    for j in range(4):
        np.matmul(K[:, : 1 << j], At[j], out=K[:, 1 << j : 2 << j])
    # rows (a, j) of F: E_j sum_b A^b v / (a+b+1)!, then Horner sum_a A^a F_a
    F = ((_HANKEL @ K) @ Et).reshape(B, 16 * k, n)
    for j in (3, 2, 1, 0):
        F[:, : k << j] += F[:, k << j : 2 * k << j] @ At[j]
    return F[:, :k]


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
