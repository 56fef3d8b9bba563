"""Box QP solver against analytic optima and the active-set oracle."""

import numpy as np
import pytest

from bkmpc.qpsolver import QpProblem, kkt_residual, solve_box_qp
from helpers import enumerate_box_qp


def random_problem(rng, n, box_scale=1.0):
    A = rng.standard_normal((n, n))
    H = A.T @ A + np.eye(n)  # strictly convex
    g = rng.standard_normal(n) * 2.0
    lb = -box_scale * rng.uniform(0.2, 1.5, n)
    ub = box_scale * rng.uniform(0.2, 1.5, n)
    return QpProblem(H, g, lb, ub)


def test_clipped_scalar_optimum():
    p = QpProblem(np.eye(1), np.array([-1.0]), np.array([-0.5]), np.array([0.5]))
    sol = solve_box_qp(p)
    assert sol.status == "solved"
    assert sol.x[0] == pytest.approx(0.5, abs=1e-8)


def test_interior_analytic_optimum():
    p = QpProblem(
        np.diag([2.0, 2.0]),
        np.array([-2.0, 0.0]),
        np.full(2, -10.0),
        np.full(2, 10.0),
    )
    sol = solve_box_qp(p)
    assert np.allclose(sol.x, [1.0, 0.0], atol=1e-7)
    assert sol.objective == pytest.approx(-1.0, abs=1e-7)


def test_matches_enumeration_oracle():
    rng = np.random.default_rng(61)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        p = random_problem(rng, n)
        sol = solve_box_qp(p)
        assert sol.status == "solved"
        x_ref, _ = enumerate_box_qp(p)
        assert x_ref is not None
        assert np.max(np.abs(sol.x - x_ref)) <= 1e-6
        prim, dual = kkt_residual(p, sol.x, sol.dual)
        assert prim <= 1e-9 and dual <= 1e-6


def test_kkt_residual_examples():
    p = QpProblem(
        np.diag([2.0, 2.0]), np.array([-2.0, 0.0]), np.full(2, -10.0), np.full(2, 10.0)
    )
    prim, dual = kkt_residual(p, np.array([1.0, 0.0]), np.zeros(2))
    assert prim <= 1e-12 and dual <= 1e-12
    prim, dual = kkt_residual(p, np.array([0.5, 0.5]), np.zeros(2))
    assert prim == 0.0
    assert dual == pytest.approx(1.0, abs=1e-12)  # ||Hx + g||_inf


def test_infeasible_box():
    p = QpProblem(np.eye(2), np.zeros(2), np.array([1.0, 0.0]), np.array([-1.0, 1.0]))
    assert solve_box_qp(p).status == "infeasible-box"


def test_objective_scaling_invariance():
    rng = np.random.default_rng(67)
    p = random_problem(rng, 5)
    base = solve_box_qp(p).x
    for alpha in (3.0, 50.0):
        scaled = QpProblem(alpha * p.H, alpha * p.g, p.lb, p.ub)
        assert np.max(np.abs(solve_box_qp(scaled).x - base)) <= 1e-6


def test_warm_start_consistency_and_idempotence():
    rng = np.random.default_rng(71)
    p = random_problem(rng, 6)
    cold = solve_box_qp(p)
    warm = solve_box_qp(p, warm=cold)
    assert np.max(np.abs(warm.x - cold.x)) <= 1e-6
    assert warm.iterations <= 5
    # warm start from a nearby problem's solution also agrees with cold
    p2 = QpProblem(p.H, p.g + 0.01, p.lb, p.ub)
    w2 = solve_box_qp(p2, warm=cold)
    c2 = solve_box_qp(p2)
    assert np.max(np.abs(w2.x - c2.x)) <= 1e-6


def test_monotone_box_tightening():
    rng = np.random.default_rng(73)
    p = random_problem(rng, 4)
    wide = solve_box_qp(p).objective
    tight = QpProblem(p.H, p.g, 0.5 * p.lb, 0.5 * p.ub)
    assert solve_box_qp(tight).objective >= wide - 1e-9


def test_solution_always_feasible():
    rng = np.random.default_rng(79)
    for _ in range(20):
        p = random_problem(rng, 5, box_scale=0.3)
        sol = solve_box_qp(p)
        assert np.all(sol.x >= p.lb - 1e-15) and np.all(sol.x <= p.ub + 1e-15)


def test_unbounded_box_entries():
    p = QpProblem(
        np.diag([1.0, 1.0]),
        np.array([-3.0, 2.0]),
        np.array([-np.inf, -0.5]),
        np.array([np.inf, 0.5]),
    )
    sol = solve_box_qp(p)
    assert np.allclose(sol.x, [3.0, -0.5], atol=1e-7)


def test_intake_symmetrization():
    H = np.array([[2.0, 1.0], [0.0, 2.0]])
    p = QpProblem(H, np.zeros(2), -np.ones(2), np.ones(2))
    assert np.array_equal(p.H, p.H.T)
