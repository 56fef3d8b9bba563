"""Linearization exactness, condensation, trust-region loop, episodes."""

import dataclasses

import numpy as np
import pytest

from bkmpc import datagen as dg
from bkmpc import model as mdl
from bkmpc import qpsolver
from bkmpc import results
from bkmpc import scp_mpc as mpc
from bkmpc import simulators as sim
from bkmpc.model import ContractViolation
from bkmpc.numerics import autodiff as ad
from bkmpc.numerics import dense
from helpers import FIXTURE_CHECKPOINTS, FIXTURES, linearize_by_matrices


def make_bundle(dz, m, n, rng):
    return mdl.OperatorBundle(
        a_act=rng.uniform(-1.0, 0.5, dz),
        delta=rng.uniform(0.1, 1.0, dz),
        b_cont=rng.standard_normal((dz, m)),
        decoder=rng.standard_normal((n, dz)),
        control_mean=rng.standard_normal(m),
        control_std=rng.uniform(0.5, 2.0, m),
    )


def make_coupling(dz, m, rng, scale=0.3):
    return scale * rng.standard_normal((m, dz, dz))


def tiny_mpc_params(system="cartpole", kind="bilinear", seed=3, dz=3):
    hyper = mdl.hyper_for(
        system, kind, latent_dim=dz, rank=dz, conv_kernel=5, hidden=8
    )
    n, m = hyper.state_dim, hyper.control_dim
    return mdl.init_params(hyper, np.zeros(n), np.ones(n), np.ones(m), seed=seed)


#: plan length of the solves built here directly, the models' default
#: horizon
HORIZON = 30


def solve_constants(cfg, params, bundle, horizon):
    """(w, dec_scaled, diff): the constants of a solve that ``scp_solve``
    hands ``condense``, for a ``horizon``-step plan."""
    return (
        mpc.cost_weights(cfg, horizon),
        params.state_std[:, None] * bundle.decoder,
        mpc._increment_difference(bundle.control_std, horizon),
    )


def step_map(bundle, G, z, u, period):
    lat, _ = mdl.rollout(z, u[None, :], bundle, G, period)
    return lat[1]


def test_linearize_zero_coupling_exact():
    rng = np.random.default_rng(5)
    b = make_bundle(4, 2, 3, rng)
    u = rng.standard_normal((6, 2))
    z = mpc.plan_rollout(b, None, rng.standard_normal(4), u, 1.0)
    a_t, b_t = mpc.linearize(b.held, None, u, z, 1.0)
    e_d = np.exp(b.a_act * b.delta)
    for k in range(6):
        assert np.array_equal(a_t[k], np.diag(e_d))
    # with an explicitly zero coupling tensor the result is identical
    a_t0, b_t0 = mpc.linearize(b.held, np.zeros((2, 4, 4)), u, z, 1.0)
    assert np.array_equal(a_t, a_t0) and np.array_equal(b_t, b_t0)


def test_linearize_matches_finite_differences():
    rng = np.random.default_rng(7)
    for dz, m, reach in [(2, 1, 1.0), (4, 3, 1.0), (8, 1, 1.0), (4, 2, 8.0)]:
        b = make_bundle(dz, m, 3, rng)
        G = make_coupling(dz, m, rng)
        # control sizes from 1/reach**2 to reach times the base draw; the
        # steps need up to 2 squarings at reach 1 and 3 at reach 8
        u_plan = 0.5 * rng.standard_normal((4, m)) * np.geomspace(reach**-2, reach, 4)[:, None]
        squarings = dense._squarings(dense._norms(mdl.generator(G, u_plan, 1.0), "P"))
        assert reach == 1.0 or (squarings.min() == 0 and squarings.max() >= 2)
        z0 = rng.standard_normal(dz)
        z_nom = mpc.plan_rollout(b, G, z0, u_plan, 1.0)
        a_t, b_t = mpc.linearize(b.held, G, u_plan, z_nom, 1.0)
        h = 1e-6
        for k in range(4):
            zk, uk = z_nom[k], u_plan[k]
            fd_a = np.zeros((dz, dz))
            for i in range(dz):
                e = np.zeros(dz)
                e[i] = h
                fd_a[:, i] = (
                    step_map(b, G, zk + e, uk, 1.0) - step_map(b, G, zk - e, uk, 1.0)
                ) / (2 * h)
            fd_b = np.zeros((dz, m))
            for j in range(m):
                e = np.zeros(m)
                e[j] = h
                fd_b[:, j] = (
                    step_map(b, G, zk, uk + e, 1.0) - step_map(b, G, zk, uk - e, 1.0)
                ) / (2 * h)
            assert np.linalg.norm(a_t[k] - fd_a) <= 1e-5 * max(
                np.linalg.norm(fd_a), 1e-9
            )
            assert np.linalg.norm(b_t[k] - fd_b) <= 1e-5 * max(
                np.linalg.norm(fd_b), 1e-9
            )


@pytest.mark.parametrize("ckpt", FIXTURE_CHECKPOINTS)
def test_linearize_matches_the_matrix_oracle_on_fixtures(ckpt):
    # the committed bench models at a held initial history, along the
    # zero plan and a random one: A_tilde is the matrix exponential's bit
    # for bit, B_tilde the contraction of the full derivative matrices
    params = mdl.load_checkpoint(FIXTURES / ckpt)
    h = params.hyper
    cfg = sim.preset(ckpt.removesuffix("-bilinear.bkcp"))
    rng = np.random.default_rng(73)
    x0 = dg.sample_initial_state(cfg, rng)
    bundle, z0 = mdl.bundle_for_history(
        params, np.tile(x0, (h.lookback, 1)),
        np.tile(sim.neutral_control(cfg), (h.lookback, 1)),
    )
    G = mdl.coupling(params.arrays)
    for u in (np.zeros((h.horizon, h.control_dim)),
              rng.standard_normal((h.horizon, h.control_dim))):
        z_nom = mpc.plan_rollout(bundle, G, z0, u, h.coupling_period)
        a_t, b_t = mpc.linearize(bundle.held, G, u, z_nom, h.coupling_period)
        a_ref, b_ref = linearize_by_matrices(bundle.held, G, u, z_nom, h.coupling_period)
        assert np.array_equal(a_t, a_ref)
        assert np.abs(b_t - b_ref).max() <= 1e-13 * np.abs(b_ref).max()


def test_linearize_scalar_closed_form():
    # dz = m = 1: A = e^{GuT} e^{a d}, B = T G e^{GuT}(e^{a d} z + bphi u)
    #             + e^{GuT} bphi
    rng = np.random.default_rng(9)
    a, d, bc, g = -0.4, 0.5, 1.3, 0.6
    b = mdl.OperatorBundle(
        a_act=np.array([a]),
        delta=np.array([d]),
        b_cont=np.array([[bc]]),
        decoder=np.eye(1),
        control_mean=np.zeros(1),
        control_std=np.ones(1),
    )
    G = np.array([[[g]]])
    u, z, T = 0.7, 1.1, 0.8
    z_nom = mpc.plan_rollout(b, G, np.array([z]), np.array([[u]]), T)
    a_t, b_t = mpc.linearize(b.held, G, np.array([[u]]), z_nom, T)
    ed = np.exp(a * d)
    ep = np.exp(g * u * T)
    bphi = (np.exp(a * d) - 1) / a * bc
    assert a_t[0, 0, 0] == pytest.approx(ep * ed, rel=1e-12)
    assert b_t[0, 0, 0] == pytest.approx(T * g * ep * (ed * z + bphi * u) + ep * bphi, rel=1e-12)


def default_cfg(system="cartpole", **kw):
    return mpc.mpc_preset(system, **kw)


def test_mpc_presets():
    # the reactor preset tracks the published operating point,
    # composition-heavy in every vessel, with tiny duty-increment weights
    cfg = mpc.mpc_preset("rscp", episode_len=7)
    comp = (1e4, 1e4, 1.0)
    assert cfg.q_weights == comp * 3 and cfg.p_weights == comp * 3
    assert cfg.r_weights == (5e-12,) * 3
    assert np.array_equal(cfg.x_ref, sim.RSCP_X_SET)
    assert cfg.episode_len == 7
    with pytest.raises(KeyError, match="no MPC preset"):
        mpc.mpc_preset("pendulum")


def test_episode_rejects_an_unknown_controller_and_a_negative_lead():
    params = tiny_mpc_params("cartpole", seed=7)
    with pytest.raises(KeyError, match="unknown controller"):
        mpc.check_controller(params, "scp3", 0)
    with pytest.raises(ValueError, match="lead"):
        mpc.run_episode(sim.preset("cartpole-ti"), params, default_cfg(), lead=-1)


def test_episode_rejects_a_lead_whose_window_overruns_the_plan():
    # a commitment window holds lead + 1 planned controls, so it must fit
    # in the model's horizon: on a 5-step horizon lead 4 re-plans every 5
    # steps, and a lead of 5 or more is refused before the first step
    hyper = mdl.hyper_for(
        "cartpole", "bilinear", latent_dim=3, rank=3, conv_kernel=5, hidden=8,
        horizon=5,
    )
    params = mdl.init_params(hyper, np.zeros(4), np.ones(4), np.ones(1), seed=7)
    cfg_sim = sim.preset("cartpole-ti")
    log = mpc.run_episode(
        cfg_sim, params, default_cfg(episode_len=12), controller="scp1", lead=4,
        seed=11,
    )
    assert log.steps > 5
    assert np.flatnonzero(log.scp_iters > 0).tolist() == list(range(0, log.steps, 5))
    for lead in (5, 9):
        with pytest.raises(ValueError, match=f"horizon 5, got {lead}"):
            mpc.run_episode(
                cfg_sim, params, default_cfg(episode_len=12), controller="scp1",
                lead=lead, seed=11,
            )


def test_a_solve_forms_the_held_step_once(monkeypatch):
    # the frozen bundle keeps its held step: a 5-iteration solve (six
    # rollouts, linearizations) and then every step's discretize in the
    # closed loop read it, so phi1 runs once per solve
    calls = []
    real = ad.phi1

    def phi1(a, delta):
        calls.append(1)
        return real(a, delta)

    monkeypatch.setattr(ad, "phi1", phi1)
    rng = np.random.default_rng(37)
    b = make_bundle(3, 1, 4, rng)
    _, info, _ = mpc.scp_solve(
        default_cfg(), tiny_mpc_params(dz=3), b, make_coupling(3, 1, rng),
        rng.standard_normal(3), np.zeros((HORIZON, 1)), np.zeros(1),
        np.array([-20.0]), np.array([20.0]), iterations=5,
    )
    assert len(info.accepted) == 5
    assert len(calls) == 1
    calls.clear()
    log = run_smoke_episode("bilinear", "scp5", lead=1, steps=8)
    assert log.solves > 1
    assert len(calls) == log.solves


def test_condense_scalar_closed_form():
    # horizon 1: q (C (z1 + b du) - ref)^2 + r (u0 + du - uprev)^2
    rng = np.random.default_rng(11)
    b = mdl.OperatorBundle(
        a_act=np.array([-0.3]),
        delta=np.array([0.6]),
        b_cont=np.array([[0.9]]),
        decoder=np.array([[1.4]]),
        control_mean=np.zeros(1),
        control_std=np.ones(1),
    )
    params = tiny_mpc_params(dz=1)
    params.state_mean = np.zeros(4)
    params.state_std = np.ones(4)
    qw, rw, ref, uprev = 2.0, 0.7, 0.3, -0.2
    cfg = mpc.MpcConfig(
        q_weights=(0.0,) * 4,
        p_weights=(qw, 0, 0, 0),
        r_weights=(rw,),
        x_ref=(ref, 0, 0, 0),
    )
    dec = np.zeros((4, 1))
    dec[0, 0] = 1.4
    b = dataclasses.replace(b, decoder=dec)
    u0 = np.array([[0.25]])
    z0 = np.array([0.8])
    z_nom = mpc.plan_rollout(b, None, z0, u0, 1.0)
    a_t, b_t = mpc.linearize(b.held, None, u0, z_nom, 1.0)
    res = mpc.cost_residuals(cfg, params, b, z_nom, u0, np.array([uprev]))
    box = mpc.control_box(b, np.array([-10.0]), np.array([10.0]))
    qp = mpc.QpProblem(
        *mpc.condense(a_t, b_t, res, *solve_constants(cfg, params, b, 1)),
        *mpc.increment_box(u0, box, 10.0),
    )
    # hand-derived quadratic: minimize q(c(z1 + bphi du) - ref)^2
    #                       + r(u0 + du - uprev)^2
    c = 1.4
    bphi = (np.exp(-0.18) - 1) / (-0.3) * 0.9
    z1 = float(z_nom[1, 0])
    Hq = 2 * (qw * (c * bphi) ** 2 + rw)
    gq = 2 * (qw * c * bphi * (c * z1 - ref) + rw * (0.25 - uprev))
    assert qp.H[0, 0] == pytest.approx(Hq, rel=1e-12)
    assert qp.g[0] == pytest.approx(gq, rel=1e-12)
    du_closed = -gq / Hq
    from bkmpc.qpsolver import solve_box_qp

    sol = solve_box_qp(qp)
    # solved-status certifies a 1e-6 stationarity residual; the implied
    # primal accuracy is that residual over the curvature
    assert sol.x[0] == pytest.approx(du_closed, abs=1e-6 / Hq * 2)


def test_condense_is_exact_quadratic_model_of_plan_cost():
    # linear dynamics make the plan cost quadratic in the increments, so
    # the condensed (H, g) reproduce every cost change exactly, the
    # cross-step control-increment terms included
    rng = np.random.default_rng(29)
    params = tiny_mpc_params(system="rscp", kind="linear", dz=4)
    n, m, Hz = 9, 3, 6
    params.state_mean = rng.standard_normal(n)
    params.state_std = rng.uniform(0.5, 2.0, n)
    b = make_bundle(4, m, n, rng)
    cfg = mpc.MpcConfig(
        q_weights=tuple(rng.uniform(0.5, 2.0, n)),
        p_weights=tuple(rng.uniform(2.0, 5.0, n)),
        r_weights=tuple(rng.uniform(0.5, 2.0, m)),
        x_ref=tuple(rng.standard_normal(n)),
    )
    z0 = rng.standard_normal(4)
    u = rng.standard_normal((Hz, m))
    u_prev = rng.standard_normal(m)
    z_nom = mpc.plan_rollout(b, None, z0, u, 1.0)
    a_t, b_t = mpc.linearize(b.held, None, u, z_nom, 1.0)
    w, dec_scaled, diff = solve_constants(cfg, params, b, Hz)
    res = mpc.cost_residuals(cfg, params, b, z_nom, u, u_prev)
    H, g = mpc.condense(a_t, b_t, res, w, dec_scaled, diff)
    J0 = mpc.plan_cost(w, res)
    for _ in range(5):
        du = rng.standard_normal(Hz * m)
        cand = u + du.reshape(Hz, m)
        z_cand = mpc.plan_rollout(b, None, z0, cand, 1.0)
        change = mpc.plan_cost(w, mpc.cost_residuals(cfg, params, b, z_cand, cand, u_prev)) - J0
        lin, quad = g @ du, 0.5 * du @ H @ du
        assert change == pytest.approx(lin + quad, abs=1e-10 * (J0 + abs(lin) + quad))


def test_increment_difference_is_the_kron_operator():
    # the block-built operator equals kron(I - shift, diag(control_std))
    # byte for byte, so the signs of its zeros too
    rng = np.random.default_rng(31)
    for horizon, m in ((30, 3), (30, 1), (1, 2)):
        std = rng.uniform(0.5, 2.0, m)
        ref = np.kron(np.eye(horizon) - np.eye(horizon, k=-1), np.diag(std))
        assert mpc._increment_difference(std, horizon).tobytes() == ref.tobytes()


def test_increment_box_trust_zero_forces_no_change():
    rng = np.random.default_rng(13)
    b = make_bundle(3, 1, 4, rng)
    u = 0.1 * rng.standard_normal((HORIZON, 1))
    box = mpc.control_box(b, np.array([-20.0]), np.array([20.0]))
    lo, hi = mpc.increment_box(u, box, 0.0)
    assert lo.shape == hi.shape == (HORIZON,)
    assert np.all(lo == 0.0) and np.all(hi == 0.0)


def test_condense_tracking_scales_with_weights():
    rng = np.random.default_rng(17)
    b = make_bundle(3, 1, 4, rng)
    params = tiny_mpc_params(dz=3)
    cfg = default_cfg(r_weights=(0.0,))
    cfg2 = default_cfg(
        q_weights=tuple(2 * np.asarray(cfg.q_weights)),
        p_weights=tuple(2 * np.asarray(cfg.p_weights)),
        r_weights=(0.0,),
    )
    u = 0.1 * rng.standard_normal((HORIZON, 1))
    z_nom = mpc.plan_rollout(b, None, rng.standard_normal(3), u, 1.0)
    a_t, b_t = mpc.linearize(b.held, None, u, z_nom, 1.0)

    def model(c):
        res = mpc.cost_residuals(c, params, b, z_nom, u, np.zeros(1))
        return mpc.condense(a_t, b_t, res, *solve_constants(c, params, b, HORIZON))

    (H1, g1), (H2, g2) = model(cfg), model(cfg2)
    assert np.allclose(H2, 2 * H1, rtol=1e-12)
    assert np.allclose(g2, 2 * g1, rtol=1e-12)


def test_increment_box_empty_box_contract():
    rng = np.random.default_rng(19)
    b = make_bundle(3, 1, 4, rng)
    u = np.full((HORIZON, 1), 50.0)  # nominal far outside bounds
    box = mpc.control_box(b, np.array([-20.0]), np.array([20.0]))
    with pytest.raises(ContractViolation, match="empty increment box"):
        mpc.increment_box(u, box, 0.5)


def test_scp_solve_clips_an_out_of_box_nominal():
    # a nominal outside the control box starts the solve from its clip
    # into the box, in the bundle's normalized units
    rng = np.random.default_rng(19)
    b = make_bundle(3, 1, 4, rng)
    params = tiny_mpc_params(dz=3)
    cfg = default_cfg()
    low, high = np.array([-20.0]), np.array([20.0])
    lo, hi = ((bound - b.control_mean) / b.control_std for bound in (low, high))
    nominal = np.full((HORIZON, 1), 50.0)
    nominal[::2] = -50.0
    z0 = rng.standard_normal(3)
    plan, info, _ = mpc.scp_solve(
        cfg, params, b, None, z0, nominal, np.zeros(1), low, high, iterations=2
    )
    start = np.clip(nominal, lo, hi)
    z_start = mpc.plan_rollout(b, None, z0, start, 1.0)
    w = mpc.cost_weights(cfg, HORIZON)
    res = mpc.cost_residuals(cfg, params, b, z_start, start, np.zeros(1))
    assert info.objectives[0] == mpc.plan_cost(w, res)
    assert np.all(plan.u_norm >= lo - 1e-12) and np.all(plan.u_norm <= hi + 1e-12)


def test_scp_converges_first_iteration_for_linear_dynamics(monkeypatch):
    # convex problem, exact linearization, optimum interior to both the
    # bounds and the trust region: iteration 1 solves it and the
    # remaining iterations change (essentially) nothing
    rng = np.random.default_rng(23)
    b = make_bundle(3, 1, 4, rng)
    params = tiny_mpc_params(dz=3)
    monkeypatch.setattr(mpc, "_TRUST_INIT", 100.0)
    z0 = rng.standard_normal(3)
    plan, info, _ = mpc.scp_solve(
        default_cfg(), params, b, None, z0, np.zeros((HORIZON, 1)), np.zeros(1),
        np.array([-200.0]), np.array([200.0]), iterations=4,
    )
    assert info.accepted[0]
    seq = info.objectives
    # everything after the first accepted step is tolerance-level noise
    assert seq[0] - seq[1] > 0.0
    later = np.abs(np.diff(seq[1:]))
    assert np.all(later <= 1e-6 * max(seq[0], 1.0))


def test_scp_monotone_descent_random_bilinear():
    rng = np.random.default_rng(29)
    params = tiny_mpc_params(dz=2)
    for trial in range(25):
        b = make_bundle(2, 1, 4, rng)
        G = make_coupling(2, 1, rng, scale=0.5)
        cfg = mpc.MpcConfig(
            q_weights=(1.0, 0.2, 0.5, 0.1),
            r_weights=(0.3,),
            p_weights=(2.0, 0, 0, 0),
            x_ref=(0.0,) * 4,
        )
        plan, info, _ = mpc.scp_solve(
            cfg, params, b, G, rng.standard_normal(2),
            0.2 * rng.standard_normal((5, 1)), np.zeros(1),
            np.array([-5.0]), np.array([5.0]), iterations=5,
        )
        seq = info.objectives
        assert all(b2 <= a2 + 1e-12 for a2, b2 in zip(seq, seq[1:]))
        assert plan.objective == seq[-1]


def test_step_outside_trust_region_raises(monkeypatch):
    # a QP step that lowers the cost but leaves the trust region is an
    # invariant violation, raised even under python -O
    rng = np.random.default_rng(23)
    b = make_bundle(3, 1, 4, rng)
    params = tiny_mpc_params(dz=3)
    monkeypatch.setattr(mpc, "_TRUST_INIT", 0.01)
    real = mpc.solve_box_qp

    def unboxed(qp, **kw):
        wide = np.full(qp.g.shape, 1e3)
        return real(mpc.QpProblem(qp.H, qp.g, -wide, wide), **kw)

    monkeypatch.setattr(mpc, "solve_box_qp", unboxed)
    with pytest.raises(mpc.SolverInvariantError, match="trust radius"):
        mpc.scp_solve(
            default_cfg(), params, b, None, rng.standard_normal(3),
            np.zeros((HORIZON, 1)), np.zeros(1),
            np.array([-200.0]), np.array([200.0]), iterations=1,
        )


def test_trust_region_collapse_ends_the_solve(monkeypatch):
    # with every candidate rejected the radius halves from 1 until it
    # falls below _TRUST_MIN, after 30 halvings, and the solve stops
    # there, far short of its iterations, with the clipped nominal
    rng = np.random.default_rng(41)
    b = make_bundle(3, 1, 4, rng)
    params = tiny_mpc_params(dz=3)
    G = make_coupling(3, 1, rng)
    costs = []
    real = mpc.plan_cost

    def plan_cost(w, res):
        costs.append(real(w, res))
        return costs[0] if len(costs) == 1 else np.inf

    monkeypatch.setattr(mpc, "plan_cost", plan_cost)
    low, high = np.array([-20.0]), np.array([20.0])
    nominal = np.full((HORIZON, 1), 50.0)
    nominal[::2] = -50.0
    z0 = rng.standard_normal(3)
    plan, info, _ = mpc.scp_solve(
        default_cfg(), params, b, G, z0, nominal, np.zeros(1), low, high,
        iterations=64,
    )
    assert info.accepted == [False] * 30
    assert info.trust_final == 2.0**-30
    start = np.clip(nominal, *mpc.control_box(b, low, high))
    assert np.array_equal(plan.u_norm, start)
    period = params.hyper.coupling_period
    assert np.array_equal(plan.z_nom, mpc.plan_rollout(b, G, z0, start, period))
    assert info.objectives == [plan.objective] == costs[:1]


def test_an_unconverged_qp_is_logged(monkeypatch):
    # a QP stopped at its iteration cap still returns its last iterate as
    # the step, and the episode log counts it on its solve's step
    params = tiny_mpc_params("cartpole", seed=7)
    rng = np.random.default_rng(3)
    for key in ("cpl_l", "cpl_r"):
        params.arrays[key] = 0.5 * rng.standard_normal(params.arrays[key].shape)
    statuses = []
    real = mpc.scp_solve

    def scp_solve(*args, **kw):
        out = real(*args, **kw)
        statuses.extend(out[1].qp_status)
        return out

    monkeypatch.setattr(qpsolver, "_MAX_ITER", 1)
    monkeypatch.setattr(mpc, "scp_solve", scp_solve)
    log = mpc.run_episode(
        sim.preset("cartpole-ti"), params, default_cfg(episode_len=8),
        controller="scp5", lead=1, seed=11,
    )
    solved = log.scp_iters > 0
    assert solved.any() and not solved.all()
    assert np.all(log.qp_unsolved[solved] > 0)
    assert np.all(log.qp_unsolved[~solved] == 0)
    assert "max-iter" in statuses
    assert np.all(np.isfinite(log.states))


def test_plan_invariant_rollout_consistency():
    rng = np.random.default_rng(31)
    params = tiny_mpc_params(dz=2)
    b = make_bundle(2, 1, 4, rng)
    G = make_coupling(2, 1, rng)
    cfg = mpc.MpcConfig(
        q_weights=(1, 0, 0, 0), r_weights=(0.1,), p_weights=(1, 0, 0, 0),
        x_ref=(0,) * 4,
    )
    z0 = rng.standard_normal(2)
    plan, _, _ = mpc.scp_solve(
        cfg, params, b, G, z0, np.zeros((4, 1)), np.zeros(1),
        np.array([-5.0]), np.array([5.0]), iterations=3,
    )
    again = mpc.plan_rollout(b, G, z0, plan.u_norm, params.hyper.coupling_period)
    assert np.array_equal(plan.z_nom, again)


def test_rejected_step_reuses_the_linearization(monkeypatch):
    # a rejected step leaves the plan as it was, so the next iteration
    # solves the same QP on the halved box: an SCP iteration linearizes
    # only first in its solve or after an accepted step, and a solve
    # evaluates the residuals once for its start and once per candidate.
    # Each QP equals the one a fresh linearization would condense, bit
    # for bit
    params = tiny_mpc_params("cartpole", seed=7)
    rng = np.random.default_rng(1)
    for key in ("cpl_l", "cpl_r"):
        params.arrays[key] = 0.5 * rng.standard_normal(params.arrays[key].shape)
    calls, residuals, accepted, fresh = [0], [0], [], []
    real_linearize, real_scp, real_qp = mpc.linearize, mpc.scp_solve, mpc.solve_box_qp
    real_residuals = mpc.cost_residuals

    def linearize(*args):
        calls[0] += 1
        return real_linearize(*args)

    def cost_residuals(*args):
        residuals[0] += 1
        return real_residuals(*args)

    def scp_solve(*args, **kw):
        out = real_scp(*args, **kw)
        accepted.append(out[1].accepted)
        return out

    def solve_box_qp(qp, **kw):
        fresh.append((qp, real_qp(qp, **kw)))
        return fresh[-1][1]

    monkeypatch.setattr(mpc, "linearize", linearize)
    monkeypatch.setattr(mpc, "cost_residuals", cost_residuals)
    monkeypatch.setattr(mpc, "scp_solve", scp_solve)
    monkeypatch.setattr(mpc, "solve_box_qp", solve_box_qp)
    mpc.run_episode(
        sim.preset("cartpole-ti"), params, default_cfg(episode_len=12),
        controller="scp5", seed=11,
    )
    rejected = sum(a.count(False) for a in accepted)
    assert rejected > 0
    assert calls[0] == sum(1 + sum(a[:-1]) for a in accepted)
    assert calls[0] < sum(map(len, accepted))
    assert residuals[0] == sum(1 + len(a) for a in accepted)

    # one solve with rejections: rebuild each of its QPs from scratch
    cfg = default_cfg()
    b = make_bundle(3, 1, 4, rng)
    cpl = mdl.coupling(params.arrays)
    z0, low, high = rng.standard_normal(3), np.array([-20.0]), np.array([20.0])
    fresh.clear()
    monkeypatch.setattr(mpc, "linearize", real_linearize)
    _, info, _ = real_scp(
        cfg, params, b, cpl, z0, np.zeros((HORIZON, 1)), np.zeros(1), low, high,
        iterations=5,
    )
    assert False in info.accepted[:-1]
    u = np.zeros((HORIZON, 1))
    trust = mpc._TRUST_INIT
    for (qp, sol), ok in zip(fresh, info.accepted):
        z_nom = mpc.plan_rollout(b, cpl, z0, u, 1.0)
        a_t, b_t = real_linearize(b.held, cpl, u, z_nom, 1.0)
        res = real_residuals(cfg, params, b, z_nom, u, np.zeros(1))
        ref = mpc.QpProblem(
            *mpc.condense(a_t, b_t, res, *solve_constants(cfg, params, b, HORIZON)),
            *mpc.increment_box(u, mpc.control_box(b, low, high), trust),
        )
        for name in ("H", "g", "lb", "ub"):
            assert np.array_equal(getattr(qp, name), getattr(ref, name)), name
        if ok:
            u = u + sol.x.reshape(u.shape)
        else:
            trust *= 0.5


def test_stability_diagnostics():
    rho, straddle = mpc.stability_diagnostics(np.diag([0.9, 0.5]))
    assert rho == pytest.approx(0.9, abs=1e-12)
    assert not straddle
    rho, straddle = mpc.stability_diagnostics(np.array([[0.5, 0.6], [0.0, 0.5]]))
    assert rho == pytest.approx(0.5, abs=1e-12)
    assert straddle


def run_smoke_episode(kind, controller, lead=0, steps=40, seed=11):
    cfg_sim = sim.preset("cartpole-ti")
    params = tiny_mpc_params("cartpole", kind=kind, seed=7)
    cfg = default_cfg(episode_len=steps)
    return mpc.run_episode(
        cfg_sim, params, cfg, controller=controller, lead=lead, seed=seed
    )


def test_episode_runs_and_logs():
    log = run_smoke_episode("bilinear", "scp5", lead=0, steps=30)
    assert log.steps <= 30
    assert log.solves == log.steps  # d = 0 re-plans every step
    assert log.running_avg.shape == (log.steps,)
    assert np.all(np.isfinite(log.stage_cost))
    assert np.all(log.controls <= 20.0 + 1e-12)
    assert np.all(log.controls >= -20.0 - 1e-12)
    assert np.isfinite(log.final_log_cost())


def test_lead_queue_arithmetic_and_frozen_bundle():
    for lead in (1, 3):
        log = run_smoke_episode("bilinear", "scp5", lead=lead, steps=24)
        expect = int(np.ceil(log.steps / (lead + 1)))
        assert log.solves == expect
        # bundle checksum constant within each commitment window
        sums = log.bundle_checksum
        for start in range(0, log.steps, lead + 1):
            window = sums[start : start + lead + 1]
            assert len(set(window)) == 1
        # and the executor re-planned at window boundaries
        boundaries = {sums[i] for i in range(0, log.steps, lead + 1)}
        assert len(boundaries) == expect


def test_lead_warm_start_skips_the_committed_controls(monkeypatch):
    # at lead d each solve after the first starts from the previous plan
    # past the d + 1 controls applied since, its last control held d + 1
    # times, in the new bundle's normalized units
    seen = []
    real = mpc.scp_solve

    def scp_solve(cfg, params, bundle, coupling, z0, nominal, *rest):
        plan, info, warm = real(cfg, params, bundle, coupling, z0, nominal, *rest)
        seen.append((bundle, np.array(nominal), plan.u_raw()))
        return plan, info, warm

    monkeypatch.setattr(mpc, "scp_solve", scp_solve)
    lead = 2
    log = run_smoke_episode("bilinear", "scp1", lead=lead, steps=24)
    assert len(seen) == log.solves > 2
    assert not seen[0][1].any()
    for (_, _, prev), (bundle, nominal, _) in zip(seen, seen[1:]):
        raw = np.vstack([prev[lead + 1 :], np.repeat(prev[-1:], lead + 1, axis=0)])
        assert np.array_equal(nominal, (raw - bundle.control_mean) / bundle.control_std)
        assert np.array_equal(nominal[-lead - 1 :], np.repeat(nominal[-1:], lead + 1, axis=0))


def test_solve_history_is_the_padded_log(monkeypatch):
    # each solve sees the last H logged states, padded before step 0 with
    # the initial state, and the controls applied at them, padded with
    # the neutral control, except the final one: the current step's
    # control is not yet chosen, so the history holds the previous
    # applied control there (the neutral control at step 0)
    seen = []
    real = mdl.bundle_for_history

    def bundle_for_history(params, states, controls):
        seen.append((np.array(states), np.array(controls)))
        return real(params, states, controls)

    monkeypatch.setattr(mdl, "bundle_for_history", bundle_for_history)
    cfg_sim = sim.preset("cartpole-ti")
    neutral = sim.neutral_control(cfg_sim)
    # a short lookback, so that later histories start past the pad
    H = 8
    hyper = mdl.hyper_for(
        "cartpole", "bilinear", latent_dim=3, rank=3, conv_kernel=5, hidden=8,
        lookback=H,
    )
    params = mdl.init_params(hyper, np.zeros(4), np.ones(4), np.ones(1), seed=7)
    for lead in (1, 3):
        seen.clear()
        log = mpc.run_episode(
            cfg_sim, params, default_cfg(episode_len=24), controller="scp1",
            lead=lead, seed=11,
        )
        xs = np.vstack([np.repeat(log.states[:1], H - 1, axis=0), log.states])
        us = np.vstack([np.tile(neutral, (H - 1, 1)), log.controls])
        solved = np.flatnonzero(log.scp_iters > 0)
        assert solved.tolist() == list(range(0, log.steps, lead + 1))
        assert len(seen) == log.solves == len(solved) > 1
        assert log.steps > H
        for k, (states, controls) in zip(solved, seen):
            assert np.array_equal(states, xs[k : k + H])
            assert np.array_equal(controls[:-1], us[k : k + H - 1])
            assert np.array_equal(controls[-1], us[k + H - 2])


def test_episode_builds_no_tape(monkeypatch):
    def no_tape(self):
        raise AssertionError("a Tape was constructed")

    monkeypatch.setattr(ad.Tape, "__init__", no_tape)
    for controller in ("scp5", "linear"):
        kind = "linear" if controller == "linear" else "bilinear"
        log = run_smoke_episode(kind, controller, lead=1, steps=6)
        assert log.solves >= 1


def test_linear_equals_scp1_with_zero_coupling():
    # same weights, one controller through the coupling-free fast path,
    # one through the full exponential path with an exactly zero tensor
    a = run_smoke_episode("bilinear", "scp1", steps=25, seed=13)
    b = run_smoke_episode("bilinear", "linear", steps=25, seed=13)
    assert a.steps == b.steps
    assert np.max(np.abs(a.controls - b.controls)) <= 1e-8
    assert np.array_equal(a.states, b.states)


def test_linear_controller_rejects_coupled_model():
    params = tiny_mpc_params("cartpole", kind="bilinear", seed=7)
    params.arrays["cpl_l"][:] = 0.3
    params.arrays["cpl_r"][:] = 0.2
    with pytest.raises(ValueError, match="coupling-free"):
        mpc.run_episode(
            sim.preset("cartpole-ti"), params, default_cfg(), controller="linear"
        )


def test_episode_truncates_on_termination():
    # with a tight angle bound an (untrained) controller tips the pole
    # quickly, truncating the episode
    cfg_sim = sim.preset("cartpole-ti", angle_limit=0.05)
    params = tiny_mpc_params("cartpole", seed=19)
    cfg = default_cfg(episode_len=200)
    # pick an episode whose sampled initial angle starts inside the bound
    for idx in range(20):
        rng = dg.episode_rng(3, idx, "mpc")
        if abs(dg.sample_initial_state(cfg_sim, rng)[2]) < 0.04:
            break
    log = mpc.run_episode(
        cfg_sim, params, cfg, controller="scp1", seed=3, episode_index=idx
    )
    assert 0 < log.steps < 200
    assert log.termination == "angle"


def test_episode_log_csv(tmp_path):
    # lead 1: every other step is a solve, so both kinds of row appear
    log = run_smoke_episode("bilinear", "scp1", lead=1, steps=12)
    path = tmp_path / "ep.csv"
    log.to_csv(path, git_rev="dead01")
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1 + log.steps
    assert lines[0].startswith("schema,preset,model,controller,lead")
    assert lines[1].startswith("episodelog.v4,cartpole-ti,bilinear,scp1,1,")
    # one column per per-step field, under the field's name
    names = mpc.EpisodeLog.per_step_fields()[2:]
    assert lines[0].split(",")[-len(names):] == names
    # every column reads back equal to the log in memory
    rows = results.read_csv(path)
    for prefix, expect in (("x", log.states), ("u", log.controls)):
        got = [[float(r[f"{prefix}{i}"]) for i in range(expect.shape[1])] for r in rows]
        assert np.array_equal(got, expect)
    for name in names:
        expect = getattr(log, name)
        conv = str if expect.dtype.kind == "U" else float
        got = np.array([conv(r[name]) for r in rows])
        assert np.array_equal(got, expect, equal_nan=expect.dtype.kind == "f"), name
    # integer counts and the straddle flag are written as integers
    for name in ("scp_iters", "qp_iters", "qp_unsolved", "gershgorin_straddle"):
        assert all(r[name].isdigit() for r in rows), name
    solved_steps = log.solve_wall_s > 0
    assert solved_steps.any() and not solved_steps.all()
    assert np.all(np.isfinite(log.trust_final[solved_steps]))
    assert np.all(np.isnan(log.trust_final[~solved_steps]))
