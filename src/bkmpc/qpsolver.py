"""Dense box-constrained convex QP solver.

Minimizes ``0.5 x'Hx + g'x`` over ``lb <= x <= ub`` with over-relaxed
operator splitting (ADMM): the smooth part owns an (H + rho I) solve with
a cached Cholesky factor, the box is handled by projection, and scaled
duals accumulate the clipping offsets. The penalty parameter is rebalanced
from the primal/dual residual ratio every 25 iterations (refactoring when
it moves). Termination requires the reported feasible iterate to satisfy
the true KKT stationarity residual, not just the internal splitting
residuals, so a ``solved`` status directly certifies the solution.

Warm starting seeds both the primal iterate and the box multiplier; the
multiplier is returned in unscaled form so it survives penalty-parameter
changes between calls.
"""

from dataclasses import dataclass

import numpy as np


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
    primal_residual: float
    dual_residual: float
    iterations: int
    status: str  # "solved" | "max-iter" | "infeasible-box"


def kkt_residual(p, x, dual):
    """(box-feasibility, stationarity) infinity norms at (x, dual)."""
    x = np.asarray(x, dtype=float)
    primal = float(
        np.max(np.maximum.reduce([p.lb - x, x - p.ub, np.zeros_like(x)]))
    )
    dual_res = float(np.max(np.abs(p.H @ x + p.g + np.asarray(dual, dtype=float))))
    return primal, dual_res


def _factor(H, rho):
    n = H.shape[0]
    try:
        return np.linalg.cholesky(H + rho * np.eye(n))
    except np.linalg.LinAlgError:
        # near-singular shifted system; cheap diagonal regularization
        return np.linalg.cholesky(H + (rho + 1e-9) * np.eye(n) + 1e-9 * np.eye(n))


def _chol_solve(L, b):
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


def solve_box_qp(
    p,
    warm=None,
    eps_abs=1e-6,
    eps_rel=1e-6,
    max_iter=4000,
    rho=0.1,
    over_relax=1.6,
    rho_interval=25,
):
    """See module docstring. ``warm`` is a previous QpSolution."""
    if np.any(p.lb > p.ub):
        nan = np.full(p.n, np.nan)
        return QpSolution(nan, nan, np.nan, np.inf, np.inf, 0, "infeasible-box")

    if warm is not None and warm.x.shape == (p.n,) and np.all(np.isfinite(warm.x)):
        z = np.clip(warm.x, p.lb, p.ub)
        y = np.asarray(warm.dual, dtype=float) / rho
    else:
        z = np.clip(np.zeros(p.n), p.lb, p.ub)
        y = np.zeros(p.n)

    L = _factor(p.H, rho)
    best = None
    for it in range(1, max_iter + 1):
        x = _chol_solve(L, rho * (z - y) - p.g)
        x_relaxed = over_relax * x + (1.0 - over_relax) * z
        z_prev = z
        z = np.clip(x_relaxed + y, p.lb, p.ub)
        y = y + x_relaxed - z

        lam = rho * y
        r_split = float(np.max(np.abs(x - z)))
        s_split = float(np.max(np.abs(rho * (z - z_prev))))
        stationarity = float(np.max(np.abs(p.H @ z + p.g + lam)))

        scale_p = max(np.max(np.abs(x)), np.max(np.abs(z)), 1e-30)
        scale_d = max(np.max(np.abs(lam)), 1e-30)
        tol_p = max(eps_abs, eps_rel * scale_p)
        tol_d = max(eps_abs, eps_rel * scale_d)
        # the certified stationarity bound stays absolute so that a
        # "solved" status implies a 1e-6 KKT residual on O(1)-scaled
        # problems; the second term only matters when the objective is so
        # large that 1e-6 sits below evaluation roundoff
        eval_noise = float(
            np.max(np.abs(p.H) @ np.abs(z)) + np.max(np.abs(p.g))
        )
        tol_station = max(eps_abs, 100.0 * p.n * np.finfo(float).eps * eval_noise)
        if best is None or stationarity < best[0]:
            best = (stationarity, z.copy(), lam.copy(), r_split)
        if r_split <= tol_p and s_split <= tol_d and stationarity <= tol_station:
            obj = float(0.5 * z @ p.H @ z + p.g @ z)
            return QpSolution(z, lam, obj, r_split, stationarity, it, "solved")

        if it % rho_interval == 0 and s_split > 0.0:
            ratio = np.sqrt(r_split / max(s_split, 1e-30))
            new_rho = float(np.clip(rho * ratio, 1e-6, 1e6))
            if new_rho > 1.2 * rho or new_rho < rho / 1.2:
                y = y * (rho / new_rho)  # keep the unscaled multiplier
                rho = new_rho
                L = _factor(p.H, rho)

    _, z_best, lam_best, r_best = best
    obj = float(0.5 * z_best @ p.H @ z_best + p.g @ z_best)
    return QpSolution(
        z_best, lam_best, obj, r_best, best[0], max_iter, "max-iter"
    )

