"""Dense box-constrained convex QP solver.

Minimizes ``0.5 x'Hx + g'x`` over ``lb <= x <= ub`` (H symmetric positive
semidefinite) by projected Newton (Bertsekas 1982, *SIAM J. Control
Optim.* 20(2); the "boxQP" of Tassa, Mansard and Todorov, ICRA 2014).

Each iteration evaluates grad = Hx + g and splits the entries: an entry
is clamped when it sits at a bound and the gradient points out of the
box, and free otherwise. The solve ends ``solved`` when the largest free
gradient entry is within the stationarity tolerance; the box multiplier
is then -grad on the clamped entries and 0 on the free ones, so a
``solved`` status certifies the KKT residual of :func:`kkt_residual`.
Otherwise a Newton step on the free block, by one LU solve, is searched
along the projection arc ``clip(x + a d)``, a = 1, 1/2, 1/4, ..., until
the Armijo condition holds. A step that is not finite or not downhill (a
singular block of a positive semidefinite H) is solved again with the
least diagonal shift, growing tenfold from roundoff level, that passes a
Cholesky factorization. When no Newton trial passes, a projected-gradient
step is searched the same way. An accepted step always lowers the
objective; when neither search finds a lower point, the objective cannot
fall further in floating point and the solve ends ``stalled``.

Warm starting clips the previous solution into the new box.
"""

from contextlib import suppress
from dataclasses import dataclass

import numpy as np

_EPS = np.finfo(float).eps

#: Armijo sufficient-decrease fraction of the first-order prediction
_ARMIJO = 1e-4

#: absolute stationarity tolerance of ``solved``, and the gradient
#: evaluations a solve makes before it ends ``max-iter``
_EPS_ABS, _MAX_ITER = 1e-6, 4000

#: step halvings a search tries before giving up; enough to bring a
#: Newton step on a block shifted at roundoff level back to unit scale
_HALVINGS = 64


@dataclass
class QpProblem:
    """0.5 x'Hx + g'x over a box; H is symmetrized on intake."""

    H: np.ndarray
    g: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        self.H = 0.5 * (np.asarray(self.H, dtype=float) + np.asarray(self.H, dtype=float).T)
        self.g = np.asarray(self.g, dtype=float)
        self.lb = np.asarray(self.lb, dtype=float)
        self.ub = np.asarray(self.ub, dtype=float)

    @property
    def n(self):
        return self.g.shape[0]


@dataclass
class QpSolution:
    x: np.ndarray
    dual: np.ndarray  # box multiplier (stationarity: Hx + g + dual = 0)
    objective: float
    iterations: int
    status: str  # "solved" | "max-iter" | "stalled" | "infeasible-box"


def kkt_residual(p, x, dual):
    """(box-feasibility, stationarity) infinity norms at (x, dual)."""
    x = np.asarray(x, dtype=float)
    primal = float(
        np.max(np.maximum.reduce([p.lb - x, x - p.ub, np.zeros_like(x)]))
    )
    dual_res = float(np.max(np.abs(p.H @ x + p.g + np.asarray(dual, dtype=float))))
    return primal, dual_res


def _newton_direction(H, grad, free):
    """Newton step on the free block, zero on the clamped entries; None
    when neither the LU step nor any shift up to the block's largest
    diagonal entry serves (H not positive semidefinite, or not finite)."""
    d = np.zeros_like(grad)
    block, g = (H, grad) if free.all() else (H[free][:, free], grad[free])
    with suppress(np.linalg.LinAlgError):
        d[free] = -np.linalg.solve(block, g)
    if -np.inf < float(grad @ d) < 0.0:  # false for a zero or non-finite d
        return d
    scale = float(np.max(np.diag(block)))
    for shift in (0.0, *(_EPS * scale * 10.0 ** np.arange(17))):
        shifted = block if shift == 0.0 else block + shift * np.eye(len(block))
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            continue
        d[free] = -np.linalg.solve(shifted, g)
        return d
    return None


def _arc_search(p, x, grad, d):
    """The first ``clip(x + a d)``, a = 1, 1/2, ..., that lowers the
    objective by at least ``_ARMIJO`` times the first-order prediction,
    or None. The objective change of a step s is evaluated as
    s'(grad + Hs/2), which keeps its accuracy near the optimum where the
    objective values themselves agree to roundoff."""
    a = 1.0
    for _ in range(_HALVINGS):
        x_new = np.clip(x + a * d, p.lb, p.ub)
        s = x_new - x
        slope = float(grad @ s)
        if slope < 0.0 and slope + 0.5 * float(s @ (p.H @ s)) <= _ARMIJO * slope:
            return x_new
        a *= 0.5
    return None


def solve_box_qp(p, warm=None):
    """See module docstring. ``warm`` is a previous QpSolution."""
    if np.any(p.lb > p.ub):
        nan = np.full(p.n, np.nan)
        return QpSolution(nan, nan, np.nan, 0, "infeasible-box")

    if warm is not None and warm.x.shape == (p.n,) and np.all(np.isfinite(warm.x)):
        x = np.clip(warm.x, p.lb, p.ub)
    else:
        x = np.clip(np.zeros(p.n), p.lb, p.ub)

    abs_h = np.abs(p.H)
    g_max = float(np.max(np.abs(p.g), initial=0.0))
    # a projected-gradient step of 1 / (largest row sum of |H|) passes
    # Armijo without halving: that sum bounds the curvature
    row_max = float(np.max(abs_h.sum(axis=1), initial=0.0))
    pg_scale = 1.0 / max(row_max, np.finfo(float).tiny)
    it = 0
    while True:
        it += 1
        grad = p.H @ x + p.g
        clamped = ((x <= p.lb) & (grad >= 0.0)) | ((x >= p.ub) & (grad <= 0.0))
        free = ~clamped
        stationarity = float(np.max(np.abs(grad[free]), initial=0.0))
        # the certified bound stays absolute so that "solved" implies a
        # 1e-6 KKT residual on O(1)-scaled problems; the noise term only
        # matters below evaluation roundoff, and its |H| @ |x| is formed only
        # when the bound row_max * max|x|, slackened for rounding, cannot refuse
        eval_noise = row_max * float(np.max(np.abs(x), initial=0.0)) * (1.0 + 1e-12) + g_max
        if stationarity <= 100.0 * p.n * _EPS * eval_noise:
            eval_noise = float(np.max(abs_h @ np.abs(x), initial=0.0)) + g_max
        if stationarity <= max(_EPS_ABS, 100.0 * p.n * _EPS * eval_noise):
            status = "solved"
            break
        if it >= _MAX_ITER:
            status = "max-iter"
            break
        d = _newton_direction(p.H, grad, free)
        x_new = None if d is None else _arc_search(p, x, grad, d)
        if x_new is None:
            x_new = _arc_search(p, x, grad, -pg_scale * grad)
        if x_new is None:
            status = "stalled"
            break
        x = x_new

    dual = np.where(clamped, -grad, 0.0)
    obj = float(0.5 * x @ p.H @ x + p.g @ x)
    return QpSolution(x, dual, obj, it, status)
