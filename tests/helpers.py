"""Shared oracles and utilities for the test suite.

Oracles here are deliberately independent of the code paths they check:
the exponential oracle is a plain Taylor sum in extended precision, the
determinant oracle is a tiny partial-pivot LU, the box-QP oracle
enumerates every active set, and gradient checks are central finite
differences over tape leaves.
"""

import numpy as np

from bkmpc.numerics import Tape, backward
from bkmpc.numerics import autodiff as ad


def taylor_expm(M, terms=200):
    """exp(M) by truncated Taylor series, accumulated in extended precision."""
    M = np.asarray(M, dtype=np.longdouble)
    n = M.shape[0]
    acc = np.eye(n, dtype=np.longdouble)
    term = np.eye(n, dtype=np.longdouble)
    for k in range(1, terms + 1):
        term = term @ M / k
        acc = acc + term
    return acc.astype(float)


def spectral_penalty(a_disc, margin):
    """sum_j max(0, |lambda_j| - (1 - margin)) for one square matrix."""
    return float(ad.eig_penalty(Tape().leaf(a_disc), margin).value)


def lu_det(M):
    """Determinant via partial-pivot LU elimination."""
    A = np.array(M, dtype=float)
    n = A.shape[0]
    det = 1.0
    for k in range(n):
        p = k + int(np.argmax(np.abs(A[k:, k])))
        if A[p, k] == 0.0:
            return 0.0
        if p != k:
            A[[k, p]] = A[[p, k]]
            det = -det
        det *= A[k, k]
        A[k + 1 :, k:] -= np.outer(A[k + 1 :, k] / A[k, k], A[k, k:])
    return det


def fd_gradient(f, x0, h=1e-6):
    """Central-difference gradient of a scalar function of one ndarray."""
    x0 = np.asarray(x0, dtype=float)
    g = np.zeros_like(x0)
    it = np.nditer(x0, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        step = h * (1.0 + abs(x0[i]))
        xp = x0.copy()
        xp[i] += step
        xm = x0.copy()
        xm[i] -= step
        g[i] = (f(xp) - f(xm)) / (2.0 * step)
        it.iternext()
    return g


def tape_gradcheck(build, values, rtol, h=1e-6):
    """Compare backward() against central differences.

    ``build(tape, leaves)`` returns a scalar Var from the given leaf Vars;
    ``values`` is the list of leaf arrays. Returns the worst relative
    error over the leaves (gradient-norm relative).
    """
    tape = Tape()
    leaves = [tape.leaf(v) for v in values]
    out = build(tape, leaves)
    grads = backward(tape, out)

    worst = 0.0
    for k, v in enumerate(values):

        def scalar_f(x, k=k):
            t2 = Tape()
            l2 = [t2.leaf(x if j == k else values[j]) for j in range(len(values))]
            return float(build(t2, l2).value)

        g_fd = fd_gradient(scalar_f, v, h=h)
        g_ad = grads[leaves[k]]
        denom = max(np.linalg.norm(g_fd), np.linalg.norm(g_ad), 1e-12)
        worst = max(worst, np.linalg.norm(g_ad - g_fd) / denom)
    return worst


def enumerate_box_qp(p):
    """Brute-force oracle: try every active-set sign pattern.

    Only sensible for strictly convex problems of small dimension; walks
    all 3^n assignments of {free, at-lb, at-ub}, solves the reduced
    equality system, and keeps the best primal/dual-feasible candidate.
    """
    n = p.n
    best_x, best_obj = None, np.inf
    for code in range(3**n):
        pattern = []
        c = code
        for _ in range(n):
            pattern.append(c % 3)
            c //= 3
        x = np.empty(n)
        free = [i for i, s in enumerate(pattern) if s == 0]
        for i, s in enumerate(pattern):
            if s == 1:
                x[i] = p.lb[i]
            elif s == 2:
                x[i] = p.ub[i]
        if free:
            idx = np.array(free)
            fixed = np.array([i for i in range(n) if pattern[i] != 0], dtype=int)
            rhs = -p.g[idx]
            if fixed.size:
                rhs = rhs - p.H[np.ix_(idx, fixed)] @ x[fixed]
            try:
                x[idx] = np.linalg.solve(p.H[np.ix_(idx, idx)], rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(x[idx] < p.lb[idx] - 1e-9) or np.any(x[idx] > p.ub[idx] + 1e-9):
                continue
        grad = p.H @ x + p.g
        ok = True
        for i, s in enumerate(pattern):
            if s == 1 and grad[i] < -1e-9:
                ok = False
            elif s == 2 and grad[i] > 1e-9:
                ok = False
        if not ok:
            continue
        obj = float(0.5 * x @ p.H @ x + p.g @ x)
        if obj < best_obj - 1e-15:
            best_obj = obj
            best_x = x.copy()
    return best_x, best_obj
