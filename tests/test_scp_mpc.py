"""Linearization exactness, condensation, trust-region loop, episodes."""

import numpy as np
import pytest

from bkmpc import model as mdl
from bkmpc import scp_mpc as mpc
from bkmpc import simulators as sim
from bkmpc.model import ContractViolation


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


def step_map(bundle, G, z, u, period):
    lat, _ = mdl.rollout(z, u[None, :], bundle, G, period)
    return lat[1]


def test_linearize_zero_coupling_exact():
    rng = np.random.default_rng(5)
    b = make_bundle(4, 2, 3, rng)
    u = rng.standard_normal((6, 2))
    z = mpc.plan_rollout(b, None, rng.standard_normal(4), u, 1.0)
    a_t, b_t = mpc.linearize(b, None, u, z, 1.0)
    e_d = np.exp(b.a_act * b.delta)
    for k in range(6):
        assert np.array_equal(a_t[k], np.diag(e_d))
    # with an explicitly zero coupling tensor the result is identical
    a_t0, b_t0 = mpc.linearize(b, np.zeros((2, 4, 4)), u, z, 1.0)
    assert np.array_equal(a_t, a_t0) and np.array_equal(b_t, b_t0)


def test_linearize_matches_finite_differences():
    rng = np.random.default_rng(7)
    for dz, m in [(2, 1), (4, 3), (8, 1)]:
        b = make_bundle(dz, m, 3, rng)
        G = make_coupling(dz, m, rng)
        u_plan = 0.5 * rng.standard_normal((4, m))
        z0 = rng.standard_normal(dz)
        z_nom = mpc.plan_rollout(b, G, z0, u_plan, 1.0)
        a_t, b_t = mpc.linearize(b, G, u_plan, z_nom, 1.0)
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
    a_t, b_t = mpc.linearize(b, G, np.array([[u]]), z_nom, T)
    ed = np.exp(a * d)
    ep = np.exp(g * u * T)
    bphi = (np.exp(a * d) - 1) / a * bc
    assert a_t[0, 0, 0] == pytest.approx(ep * ed, rel=1e-12)
    assert b_t[0, 0, 0] == pytest.approx(T * g * ep * (ed * z + bphi * u) + ep * bphi, rel=1e-12)


def default_cfg(system="cartpole", **kw):
    return mpc.mpc_preset(system, **kw)


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
        horizon=1,
        q_weights=(0.0,) * 4,
        p_weights=(qw, 0, 0, 0),
        r_weights=(rw,),
        x_ref=(ref, 0, 0, 0),
    )
    dec = np.zeros((4, 1))
    dec[0, 0] = 1.4
    b.decoder = dec
    u0 = np.array([[0.25]])
    z0 = np.array([0.8])
    z_nom = mpc.plan_rollout(b, None, z0, u0, 1.0)
    a_t, b_t = mpc.linearize(b, None, u0, z_nom, 1.0)
    qp = mpc.condense(
        cfg, params, b, a_t, b_t, z_nom, u0, np.array([uprev]),
        np.array([-10.0]), np.array([10.0]), trust=10.0,
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
        horizon=Hz,
        q_weights=tuple(rng.uniform(0.5, 2.0, n)),
        p_weights=tuple(rng.uniform(2.0, 5.0, n)),
        r_weights=tuple(rng.uniform(0.5, 2.0, m)),
        x_ref=tuple(rng.standard_normal(n)),
    )
    z0 = rng.standard_normal(4)
    u = rng.standard_normal((Hz, m))
    u_prev = rng.standard_normal(m)
    z_nom = mpc.plan_rollout(b, None, z0, u, 1.0)
    a_t, b_t = mpc.linearize(b, None, u, z_nom, 1.0)
    qp = mpc.condense(
        cfg, params, b, a_t, b_t, z_nom, u, u_prev,
        np.full(m, -1e3), np.full(m, 1e3), trust=1e3,
    )
    J0 = mpc.plan_cost(cfg, params, b, z_nom, u, u_prev)
    for _ in range(5):
        du = rng.standard_normal(Hz * m)
        cand = u + du.reshape(Hz, m)
        z_cand = mpc.plan_rollout(b, None, z0, cand, 1.0)
        change = mpc.plan_cost(cfg, params, b, z_cand, cand, u_prev) - J0
        lin, quad = qp.g @ du, 0.5 * du @ qp.H @ du
        assert change == pytest.approx(lin + quad, abs=1e-10 * (J0 + abs(lin) + quad))


def test_condense_trust_zero_forces_no_change():
    rng = np.random.default_rng(13)
    b = make_bundle(3, 1, 4, rng)
    params = tiny_mpc_params(dz=3)
    cfg = default_cfg()
    u = 0.1 * rng.standard_normal((cfg.horizon, 1))
    z_nom = mpc.plan_rollout(b, None, rng.standard_normal(3), u, 1.0)
    a_t, b_t = mpc.linearize(b, None, u, z_nom, 1.0)
    qp = mpc.condense(
        cfg, params, b, a_t, b_t, z_nom, u, np.zeros(1),
        np.array([-20.0]), np.array([20.0]), trust=0.0,
    )
    assert np.all(qp.lb == 0.0) and np.all(qp.ub == 0.0)


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
    u = 0.1 * rng.standard_normal((cfg.horizon, 1))
    z_nom = mpc.plan_rollout(b, None, rng.standard_normal(3), u, 1.0)
    a_t, b_t = mpc.linearize(b, None, u, z_nom, 1.0)
    args = (b, a_t, b_t, z_nom, u, np.zeros(1), np.array([-20.0]), np.array([20.0]))
    qp1 = mpc.condense(cfg, params, *args, trust=1.0)
    qp2 = mpc.condense(cfg2, params, *args, trust=1.0)
    assert np.allclose(qp2.H, 2 * qp1.H, rtol=1e-12)
    assert np.allclose(qp2.g, 2 * qp1.g, rtol=1e-12)


def test_condense_empty_box_contract():
    rng = np.random.default_rng(19)
    b = make_bundle(3, 1, 4, rng)
    params = tiny_mpc_params(dz=3)
    cfg = default_cfg()
    u = np.full((cfg.horizon, 1), 50.0)  # nominal far outside bounds
    z_nom = mpc.plan_rollout(b, None, rng.standard_normal(3), u, 1.0)
    a_t, b_t = mpc.linearize(b, None, u, z_nom, 1.0)
    with pytest.raises(ContractViolation):
        mpc.condense(
            cfg, params, b, a_t, b_t, z_nom, u, np.zeros(1),
            np.array([-20.0]), np.array([20.0]), trust=0.5,
        )


def test_scp_converges_first_iteration_for_linear_dynamics():
    # convex problem, exact linearization, optimum interior to both the
    # bounds and the trust region: iteration 1 solves it and the
    # remaining iterations change (essentially) nothing
    rng = np.random.default_rng(23)
    b = make_bundle(3, 1, 4, rng)
    params = tiny_mpc_params(dz=3)
    cfg = default_cfg(n_scp=4, trust_init=100.0)
    z0 = rng.standard_normal(3)
    plan, info, _ = mpc.scp_solve(
        cfg, params, b, None, z0, np.zeros((cfg.horizon, 1)), np.zeros(1),
        np.array([-200.0]), np.array([200.0]), n_scp=4,
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
            horizon=5,
            n_scp=5,
            q_weights=(1.0, 0.2, 0.5, 0.1),
            r_weights=(0.3,),
            p_weights=(2.0, 0, 0, 0),
            x_ref=(0.0,) * 4,
        )
        plan, info, _ = mpc.scp_solve(
            cfg, params, b, G, rng.standard_normal(2),
            0.2 * rng.standard_normal((5, 1)), np.zeros(1),
            np.array([-5.0]), np.array([5.0]),
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
    cfg = default_cfg(n_scp=1, trust_init=0.01)
    real = mpc.solve_box_qp

    def unboxed(qp, **kw):
        wide = np.full(qp.g.shape, 1e3)
        return real(mpc.QpProblem(qp.H, qp.g, -wide, wide), **kw)

    monkeypatch.setattr(mpc, "solve_box_qp", unboxed)
    with pytest.raises(mpc.SolverInvariantError, match="trust radius"):
        mpc.scp_solve(
            cfg, params, b, None, rng.standard_normal(3),
            np.zeros((cfg.horizon, 1)), np.zeros(1),
            np.array([-200.0]), np.array([200.0]),
        )


def test_plan_invariant_rollout_consistency():
    rng = np.random.default_rng(31)
    params = tiny_mpc_params(dz=2)
    b = make_bundle(2, 1, 4, rng)
    G = make_coupling(2, 1, rng)
    cfg = mpc.MpcConfig(
        horizon=4, n_scp=3, q_weights=(1, 0, 0, 0), r_weights=(0.1,),
        p_weights=(1, 0, 0, 0), x_ref=(0,) * 4,
    )
    z0 = rng.standard_normal(2)
    plan, _, _ = mpc.scp_solve(
        cfg, params, b, G, z0, np.zeros((4, 1)), np.zeros(1),
        np.array([-5.0]), np.array([5.0]),
    )
    again = mpc.plan_rollout(b, G, z0, plan.u_norm, params.hyper.coupling_period)
    assert np.array_equal(plan.z_nom, again)


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
    cfg = default_cfg(episode_len=steps, n_scp=5)
    return mpc.run_episode(
        cfg_sim, params, cfg, controller=controller, lead=lead, seed=seed
    )


def test_episode_runs_and_logs():
    log = run_smoke_episode("bilinear", "scp5", lead=0, steps=30)
    assert log.steps <= 30
    assert log.solves == log.steps  # d = 0 re-plans every step
    assert log.running_avg.shape == (log.steps,)
    assert np.all(np.isfinite(log.stage_costs))
    assert np.all(log.controls <= 20.0 + 1e-12)
    assert np.all(log.controls >= -20.0 - 1e-12)
    assert np.isfinite(log.final_log_cost())


def test_lead_queue_arithmetic_and_frozen_bundle():
    for lead in (1, 3):
        log = run_smoke_episode("bilinear", "scp5", lead=lead, steps=24)
        expect = int(np.ceil(log.steps / (lead + 1)))
        assert log.solves == expect
        # bundle checksum constant within each commitment window
        sums = log.bundle_checksums
        for start in range(0, log.steps, lead + 1):
            window = sums[start : start + lead + 1]
            assert len(set(window)) == 1
        # and the executor re-planned at window boundaries
        boundaries = {sums[i] for i in range(0, log.steps, lead + 1)}
        assert len(boundaries) == expect


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
    with pytest.raises(ValueError):
        mpc.Controller(
            params, default_cfg(), "linear", np.array([-20.0]), np.array([20.0])
        )


def test_regen_policy_validated():
    cfg_sim = sim.preset("cartpole-ti")
    params = tiny_mpc_params("cartpole", seed=7)
    with pytest.raises(ValueError):
        mpc.run_episode(cfg_sim, params, default_cfg(), lead=1, regen="always")


def test_episode_truncates_on_termination():
    # with a tight angle bound an (untrained) controller tips the pole
    # quickly, truncating the episode
    import bkmpc.datagen as dgen

    cfg_sim = sim.preset("cartpole-ti", angle_limit=0.05)
    params = tiny_mpc_params("cartpole", seed=19)
    cfg = default_cfg(episode_len=200)
    # pick an episode whose sampled initial angle starts inside the bound
    for idx in range(20):
        rng = np.random.Generator(np.random.Philox(key=[3, 2**33 + idx]))
        if abs(dgen.sample_initial_state(cfg_sim, rng)[2]) < 0.04:
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
    assert lines[0].startswith("schema,preset,controller,lead")
    assert "episodelog.v2" in lines[1]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    unsolved = [int(r[header.index("qp_unsolved")]) for r in rows]
    trust = [float(r[header.index("trust_final")]) for r in rows]
    assert unsolved == log.qp_unsolved.tolist()
    assert np.array_equal(trust, log.trust_final, equal_nan=True)
    solved_steps = log.solve_wall_s > 0
    assert solved_steps.any() and not solved_steps.all()
    assert np.all(np.isfinite(log.trust_final[solved_steps]))
    assert np.all(np.isnan(log.trust_final[~solved_steps]))
