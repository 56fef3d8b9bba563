"""Box QP solver against analytic optima and the active-set oracle, and
the factorizations its Newton step makes."""

import numpy as np
import pytest

from bkmpc import model as mdl
from bkmpc import qpsolver
from bkmpc import scp_mpc as mpc
from bkmpc import simulators as sim
from bkmpc.qpsolver import QpProblem, QpSolution, kkt_residual, solve_box_qp
from helpers import enumerate_box_qp


def random_problem(rng, n, box_scale=1.0):
    A = rng.standard_normal((n, n))
    H = A.T @ A + np.eye(n)  # strictly convex
    g = rng.standard_normal(n) * 2.0
    lb = -box_scale * rng.uniform(0.2, 1.5, n)
    ub = box_scale * rng.uniform(0.2, 1.5, n)
    return QpProblem(H, g, lb, ub)


def objective(p, x):
    return float(0.5 * x @ p.H @ x + p.g @ x)


def assert_matches_oracle(p):
    sol = solve_box_qp(p)
    assert sol.status == "solved"
    x_ref, _ = enumerate_box_qp(p)
    assert x_ref is not None
    assert np.max(np.abs(sol.x - x_ref)) <= 1e-6
    prim, dual = kkt_residual(p, sol.x, sol.dual)
    assert prim <= 1e-9 and dual <= 1e-6


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
        assert_matches_oracle(random_problem(rng, n))


def test_matches_enumeration_oracle_n7_n8():
    rng = np.random.default_rng(62)
    for n in (7, 7, 8, 8):
        assert_matches_oracle(random_problem(rng, n))


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


def test_psd_hessian_zero_curvature_direction():
    # r_weights=(0,) makes the condensed H singular; the free block then
    # fails a plain Cholesky
    p = QpProblem(np.diag([1.0, 0.0]), np.array([-1.0, -1.0]), np.full(2, -2.0), np.full(2, 2.0))
    sol = solve_box_qp(p)
    assert sol.status == "solved"
    assert np.allclose(sol.x, [1.0, 2.0], atol=1e-8)


def test_psd_hessian_low_rank():
    rng = np.random.default_rng(83)
    A = rng.standard_normal((8, 20))
    p = QpProblem(A.T @ A, 3.0 * rng.standard_normal(20), -rng.uniform(0.2, 1.5, 20), rng.uniform(0.2, 1.5, 20))
    sol = solve_box_qp(p)
    assert sol.status == "solved"
    prim, dual = kkt_residual(p, sol.x, sol.dual)
    assert prim == 0.0 and dual <= 1e-6


def test_linear_objective_goes_to_the_corner():
    # H = 0: no shift makes the free block factor, so only the
    # projected-gradient step moves
    p = QpProblem(np.zeros((3, 3)), np.array([1.0, -2.0, 0.5]), np.full(3, -1.0), np.array([1.0, 3.0, 2.0]))
    sol = solve_box_qp(p)
    assert sol.status == "solved"
    assert np.array_equal(sol.x, [-1.0, 3.0, -1.0])
    assert sol.objective == pytest.approx(-7.5, abs=1e-12)


def test_ill_conditioned_n90():
    rng = np.random.default_rng(89)
    Q, _ = np.linalg.qr(rng.standard_normal((90, 90)))
    H = (Q * np.logspace(0.0, -8.0, 90)) @ Q.T
    p = QpProblem(H, rng.standard_normal(90), -rng.uniform(0.5, 2.0, 90), rng.uniform(0.5, 2.0, 90))
    assert np.linalg.cond(p.H) == pytest.approx(1e8, rel=1e-2)
    sol = solve_box_qp(p)
    assert sol.status == "solved"
    prim, dual = kkt_residual(p, sol.x, sol.dual)
    assert prim == 0.0 and dual <= 1e-6


def test_fixed_entries_and_infinite_box():
    rng = np.random.default_rng(97)
    p = random_problem(rng, 6)
    p.lb[[1, 4]] = p.ub[[1, 4]] = [0.3, -0.2]
    sol = solve_box_qp(p)
    assert sol.status == "solved"
    assert sol.x[1] == 0.3 and sol.x[4] == -0.2
    assert_matches_oracle(p)

    free = QpProblem(p.H, p.g, np.full(6, -np.inf), np.full(6, np.inf))
    sol = solve_box_qp(free)
    assert sol.status == "solved"
    assert sol.iterations == 2  # one Newton step, then the check
    assert np.allclose(sol.x, np.linalg.solve(p.H, -p.g), atol=1e-9)
    assert np.array_equal(sol.dual, np.zeros(6))


def test_ascent_newton_direction_falls_back_to_projected_gradient(monkeypatch):
    # a Newton direction that points uphill is never taken: every arc
    # trial is refused and the projected-gradient step moves instead
    monkeypatch.setattr(qpsolver, "_newton_direction", lambda H, grad, free: grad)
    rng = np.random.default_rng(107)
    A = 0.3 * rng.standard_normal((5, 5))
    p = QpProblem(np.eye(5) + A.T @ A, 2.0 * rng.standard_normal(5), -0.5 * np.ones(5), 0.5 * np.ones(5))
    sol = solve_box_qp(p)
    assert sol.iterations > 2
    assert sol.objective < objective(p, np.zeros(5))
    assert_matches_oracle(p)


def test_non_finite_problem_stalls_at_once():
    H = np.eye(3)
    H[0, 1] = H[1, 0] = np.nan
    sol = solve_box_qp(QpProblem(H, np.ones(3), -np.ones(3), np.ones(3)))
    assert sol.status == "stalled" and sol.iterations == 1


def test_warm_resolve_from_optimum_takes_one_iteration():
    rng = np.random.default_rng(101)
    for n in (5, 30):
        p = random_problem(rng, n, box_scale=0.3)
        cold = solve_box_qp(p)
        again = solve_box_qp(p, warm=cold)
        assert again.status == "solved" and again.iterations == 1
        assert np.array_equal(again.x, cold.x)


def test_objective_not_above_clipped_warm_start():
    rng = np.random.default_rng(103)
    for _ in range(20):
        p = random_problem(rng, 12, box_scale=0.5)
        start = 2.0 * rng.standard_normal(12)
        warm = QpSolution(start, np.zeros(12), 0.0, 0, "solved")
        sol = solve_box_qp(p, warm=warm)
        assert sol.status == "solved"
        assert sol.objective <= objective(p, np.clip(start, p.lb, p.ub))


def _counting(monkeypatch, name):
    """Replace ``np.linalg.<name>`` by a wrapper; returns the list of the
    first arguments of its calls."""
    calls, real = [], getattr(np.linalg, name)

    def wrapper(a, *args):
        calls.append(a)
        return real(a, *args)

    monkeypatch.setattr(np.linalg, name, wrapper)
    return calls


def _newton_solves(monkeypatch, fail_first=False):
    """Wrap ``qpsolver._newton_direction`` and ``np.linalg.solve``; returns
    one (unshifted free block, arguments of the direction's solve calls)
    pair per direction. With ``fail_first`` each direction's first solve
    raises ``LinAlgError``, which forces the shift ladder."""
    steps, inside = [], []
    real_solve, real_direction = np.linalg.solve, qpsolver._newton_direction

    def solve(a, *args):
        if inside:
            calls = steps[-1][1]
            calls.append(a)
            if fail_first and len(calls) == 1:
                raise np.linalg.LinAlgError("forced")
        return real_solve(a, *args)

    def direction(H, grad, free):
        steps.append((H[free][:, free], []))
        inside.append(True)
        try:
            return real_direction(H, grad, free)
        finally:
            inside.pop()

    monkeypatch.setattr(np.linalg, "solve", solve)
    monkeypatch.setattr(qpsolver, "_newton_direction", direction)
    return steps


def _one_unshifted_solve_each(steps):
    """Whether every direction made exactly one solve, on its unshifted block."""
    return all(len(calls) == 1 and np.array_equal(calls[0], block) for block, calls in steps)


def test_positive_definite_newton_direction_is_one_lu_solve(monkeypatch):
    # on a positive definite block the direction is the LU solve of the
    # free block, bit for bit, and the only solve, on the unshifted block;
    # with no entry clamped, the solve reads H itself, not a copy
    rng = np.random.default_rng(109)
    p = random_problem(rng, 8)
    grad = rng.standard_normal(8)
    masks = (np.ones(8, dtype=bool), np.array([1, 0, 1, 1, 0, 1, 1, 0], dtype=bool))
    expected = [-np.linalg.solve(p.H[free][:, free], grad[free]) for free in masks]
    steps = _newton_solves(monkeypatch)
    for free, want in zip(masks, expected):
        d = qpsolver._newton_direction(p.H, grad, free)
        assert np.array_equal(d[free], want)
        assert np.array_equal(d[~free], np.zeros((~free).sum()))
    assert len(steps) == 2 and steps[0][1][0] is p.H
    assert _one_unshifted_solve_each(steps)


def _coupled_scp5_episode():
    hyper = mdl.hyper_for("cartpole", "bilinear", latent_dim=3, rank=3, conv_kernel=5, hidden=8)
    n, m = hyper.state_dim, hyper.control_dim
    params = mdl.init_params(hyper, np.zeros(n), np.ones(n), np.ones(m), seed=7)
    rng = np.random.default_rng(3)
    for key in ("cpl_l", "cpl_r"):
        params.arrays[key] = 0.5 * rng.standard_normal(params.arrays[key].shape)
    return mpc.run_episode(
        sim.preset("cartpole-ti"), params, mpc.mpc_preset("cartpole", episode_len=10),
        controller="scp5", seed=11,
    )


def test_scp5_episode_never_enters_the_shift_ladder(monkeypatch):
    # the condensed QPs of a coupled model's closed loop have positive
    # definite free blocks, so every Newton step is one LU solve of the
    # unshifted block
    steps = _newton_solves(monkeypatch)
    log = _coupled_scp5_episode()
    assert log.qp_iters.sum() > 0 and len(steps) > 0
    assert _one_unshifted_solve_each(steps)


def test_forced_shift_ladder_fails_the_one_solve_check(monkeypatch):
    # the check above sees the ladder: with every shift-0 solve failing,
    # the same episode still runs, through shifted solves, and fails it
    steps = _newton_solves(monkeypatch, fail_first=True)
    log = _coupled_scp5_episode()
    assert log.qp_iters.sum() > 0 and len(steps) > 0
    assert all(len(calls) >= 2 for _, calls in steps)
    assert not _one_unshifted_solve_each(steps)


def test_singular_free_block_is_solved_through_the_shift_fallback(monkeypatch):
    # H = [[1, 1], [1, 1]] is positive semidefinite and exactly singular:
    # its LU solve fails, and the LU solve of the block with its diagonal
    # raised (above H's 1) gives the step
    solves = _counting(monkeypatch, "solve")
    p = QpProblem(np.ones((2, 2)), np.array([-1.0, -2.0]), np.full(2, -2.0), np.full(2, 2.0))
    sol = solve_box_qp(p)
    assert sol.status == "solved"
    assert np.allclose(sol.x, [-1.0, 2.0], atol=1e-8)
    shifted = [a for a in solves if np.diag(a).max() > 1.0]
    assert shifted and len(solves) > len(shifted)  # shift 0 fails, a positive shift passes


def test_noise_bound_decides_both_ways_at_a_large_objective_scale():
    # at a curvature of 1e12 the stationarity tolerance is set by
    # evaluation noise. Here only the |H| @ |x| term can certify the
    # Newton step's result: its gradient roundoff, about 1.6e-4, is far
    # above both 1e-6 and the g term, so a cheap bound that refused it
    # would leave the solve unsolved
    eps = np.finfo(float).eps
    H = 1e12 * np.array([[1.0, 1e-4 - 1.0], [1e-4 - 1.0, 1.0]])
    p = QpProblem(H, np.array([-1.3e8, -0.7e8]), np.full(2, -10.0), np.full(2, 10.0))
    sol = solve_box_qp(p)
    assert sol.status == "solved" and sol.iterations == 2
    assert kkt_residual(p, sol.x, sol.dual)[1] > max(1e-6, 100.0 * 2 * eps * 1.3e8)

    # where the bound row_max * max|x| cannot refuse but the product does,
    # the solve goes on: a warm start one unit off the optimum of a badly
    # scaled diagonal problem is refused, then solved by one Newton step
    H = np.diag([1e15, 1.0])
    g = np.array([-1e12 - 0.3, -1e6 + 0.7])
    p = QpProblem(H, g, np.full(2, -1e9), np.full(2, 1e9))
    start = np.linalg.solve(H, -g) + [0.0, 1.0]
    noise = np.max(np.abs(H) @ np.abs(start)) + np.max(np.abs(g))
    bound = np.max(np.abs(H).sum(axis=1)) * np.max(np.abs(start)) + np.max(np.abs(g))
    assert 100.0 * 2 * eps * noise < 1.0 < 100.0 * 2 * eps * bound  # 1: the start's stationarity
    sol = solve_box_qp(p, warm=QpSolution(start, np.zeros(2), 0.0, 0, "solved"))
    assert sol.status == "solved" and sol.iterations == 2
