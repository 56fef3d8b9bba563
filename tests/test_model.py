"""Encoder, operator generation, discretization, rollout, loss."""

import numpy as np
import pytest

from bkmpc import model
from bkmpc.numerics import dense
from helpers import fd_gradient, spectral_penalty

TOY = dict(
    latent_dim=2, rank=2, conv_kernel=3, hidden=8, lookback=6, horizon=5
)


def toy_params(kind="bilinear", seed=0, n=2, m=1):
    hyper = model.ModelHyper(kind=kind, state_dim=n, control_dim=m, **TOY)
    return model.init_params(hyper, np.zeros(n), np.ones(n), np.ones(m), seed=seed)


def toy_windows(params, count=3, seed=5):
    h = params.hyper
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((count, h.lookback + h.horizon, h.state_dim))
    C = rng.standard_normal((count, h.lookback + h.horizon, h.control_dim))
    return S, C


def random_bundle(dz, m, n, rng, stable=False):
    a = rng.uniform(-2.0, -0.2, dz) if stable else rng.uniform(-1.0, 0.5, dz)
    delta = rng.uniform(0.6, 2.0, dz) if stable else rng.uniform(0.1, 1.0, dz)
    return model.OperatorBundle(
        a_act=a,
        delta=delta,
        b_cont=rng.standard_normal((dz, m)),
        decoder=rng.standard_normal((n, dz)),
        control_mean=np.zeros(m),
        control_std=np.ones(m),
    )


# ---------------------------------------------------------------------------
# encoder


def test_encode_zero_weights_gives_bias():
    p = toy_params()
    for k in ("enc_w1", "enc_w2", "enc_b1"):
        p.arrays[k][:] = 0.0
    p.arrays["enc_b2"][:] = [0.3, -0.7]
    z = model.encode(p, np.array([1.0, 2.0]))
    assert np.allclose(z, [0.3, -0.7], atol=1e-15)


def test_encode_deterministic():
    p = toy_params()
    x = np.array([0.5, -1.0])
    assert np.array_equal(model.encode(p, x), model.encode(p, x))


def test_encode_gradient_matches_fd():
    p = toy_params()
    x = np.array([0.4, -0.2])
    from bkmpc.numerics import Tape, backward
    from bkmpc.numerics import autodiff as ad

    for name in ("enc_w1", "enc_b1", "enc_w2", "enc_b2"):

        def f(arr, name=name):
            q = p.copy()
            q.arrays[name] = arr
            z = model.encode(q, x)
            return float(np.sum(z**2))

        tape = Tape()
        pv = model.ParamVars(tape, p)
        z = model.encode_batch(pv, x[None, :])
        out = ad.vsum(z * z)
        g = backward(tape, out)[pv[name]]
        g_fd = fd_gradient(f, p.arrays[name])
        denom = max(np.linalg.norm(g_fd), 1e-12)
        assert np.linalg.norm(g - g_fd) / denom <= 1e-4


# ---------------------------------------------------------------------------
# operator generation


def bundle_from_history(p, states, controls):
    return model.bundle_for_history(p, states, controls)[0]


def test_constant_history_shift_invariant():
    p = toy_params()
    h = p.hyper
    state = np.array([0.2, -0.5])
    control = np.array([0.7])
    traj_s = np.tile(state, (h.lookback + 5, 1))
    traj_c = np.tile(control, (h.lookback + 5, 1))
    b0 = bundle_from_history(p, traj_s[:h.lookback], traj_c[:h.lookback])
    b5 = bundle_from_history(p, traj_s[5:], traj_c[5:])
    for field in ("a_act", "delta", "b_cont", "decoder"):
        assert np.array_equal(getattr(b0, field), getattr(b5, field))


def test_timescales_strictly_positive():
    p = toy_params(seed=11)
    h = p.hyper
    rng = np.random.default_rng(13)
    S = rng.standard_normal((10_000, h.lookback, h.state_dim))
    C = rng.standard_normal((10_000, h.lookback, h.control_dim))
    from bkmpc.numerics import autodiff as ad

    tape = ad.Tape()
    pv = model.ParamVars(tape, p)
    z = ad.reshape(
        model.encode_batch(pv, S.reshape(-1, h.state_dim)),
        (10_000, h.lookback, h.latent_dim),
    )
    bundle = model.generate_operators(pv, p, z, C)
    assert np.all(bundle.delta.value > 0.0)


def test_warmup_history_well_defined():
    p = toy_params()
    h = p.hyper
    reset = np.array([1.5, -0.3])
    states = np.tile(reset, (h.lookback, 1))
    controls = np.zeros((h.lookback, h.control_dim))
    bundle, z0 = model.bundle_for_history(p, states, controls)
    for arr in (bundle.a_act, bundle.delta, bundle.b_cont, bundle.decoder, z0):
        assert np.all(np.isfinite(arr))
    # degenerate window std hits the documented floor
    assert np.all(bundle.control_std == p.control_floor)


def test_history_length_contract():
    p = toy_params()
    h = p.hyper
    with pytest.raises(model.ContractViolation):
        model.bundle_for_history(
            p,
            np.zeros((h.lookback - 1, h.state_dim)),
            np.zeros((h.lookback - 1, h.control_dim)),
        )


# ---------------------------------------------------------------------------
# discretization


def test_discretize_zero_coupling_diagonal():
    rng = np.random.default_rng(3)
    b = random_bundle(4, 2, 3, rng)
    ops = model.discretize(b, None, np.zeros(2), 1.0)
    assert np.allclose(ops.a_disc, np.diag(np.exp(b.a_act * b.delta)), atol=0)
    G0 = np.zeros((2, 4, 4))
    ops2 = model.discretize(b, G0, np.array([0.3, -0.8]), 1.0)
    assert np.array_equal(ops.a_disc, ops2.a_disc)
    assert np.array_equal(ops.b_disc, ops2.b_disc)


def test_discretize_scalar_closed_form():
    # a*delta = -0.1 (a=-1, delta=0.1), G*u*T = 1, Bc = b
    bval = 0.37
    b = model.OperatorBundle(
        a_act=np.array([-1.0]),
        delta=np.array([0.1]),
        b_cont=np.array([[bval]]),
        decoder=np.eye(1),
        control_mean=np.zeros(1),
        control_std=np.ones(1),
    )
    G = np.array([[[0.5]]])
    ops = model.discretize(b, G, np.array([2.0]), 1.0)
    assert ops.a_disc[0, 0] == pytest.approx(2.45960311, abs=1e-6)
    assert ops.b_disc[0, 0] == pytest.approx(np.e * 0.0951625820 * bval, rel=1e-8)


def test_splitting_error_first_order():
    # error vs the dense exponential of the summed generator drops ~4x
    # when the period halves
    rng = np.random.default_rng(17)
    ratios = []
    for _ in range(30):
        dz = 4
        a = rng.uniform(-1.0, 0.0, dz)
        P = rng.standard_normal((dz, dz))
        P *= 0.8 / np.linalg.norm(P, 2)
        errs = []
        for T in (0.1, 0.05):
            dense_exp = dense.matrix_exp((np.diag(a) + P) * T)
            split = dense.matrix_exp(P * T) @ np.diag(np.exp(a * T))
            errs.append(np.linalg.norm(dense_exp - split, 2))
        ratios.append(errs[0] / errs[1])
    assert all(3.5 <= r <= 4.5 for r in ratios)


# ---------------------------------------------------------------------------
# rollout


def test_rollout_scalar_geometric():
    b = model.OperatorBundle(
        a_act=np.array([-0.5]),
        delta=np.array([0.4]),
        b_cont=np.array([[1.2]]),
        decoder=np.array([[2.0]]),
        control_mean=np.zeros(1),
        control_std=np.ones(1),
    )
    u = np.array([[0.3], [0.1], [-0.2]])
    lat, dec = model.rollout(np.array([1.0]), u, b, None, 1.0)
    ad_ = np.exp(-0.2)
    bd = (np.exp(-0.2) - 1.0) / (-0.5) * 1.2
    z = 1.0
    for k in range(3):
        z = ad_ * z + bd * u[k, 0]
        assert lat[k + 1, 0] == pytest.approx(z, rel=1e-14)
        assert dec[k, 0] == pytest.approx(2.0 * z, rel=1e-14)


def test_rollout_zero_control_ignores_coupling():
    rng = np.random.default_rng(23)
    b = random_bundle(3, 2, 2, rng)
    G = rng.standard_normal((2, 3, 3))
    u = np.zeros((6, 2))
    la, da = model.rollout(np.ones(3), u, b, G, 1.0)
    lb, db = model.rollout(np.ones(3), u, b, None, 1.0)
    assert np.array_equal(la, lb) and np.array_equal(da, db)


def test_zero_coupling_rollout_equals_linear_exactly():
    rng = np.random.default_rng(29)
    b = random_bundle(4, 2, 3, rng)
    G0 = np.zeros((2, 4, 4))
    u = rng.standard_normal((30, 2))
    la, da = model.rollout(np.ones(4), u, b, G0, 1.0)
    lb, db = model.rollout(np.ones(4), u, b, None, 1.0)
    assert np.max(np.abs(la - lb)) <= 1e-12
    assert np.max(np.abs(da - db)) <= 1e-12


def test_batched_rollout_matches_stepped_discretize():
    # one step's generator exceeds the degree-13 switching radius, so the
    # batch's shared scaling exponent is nonzero and differs from the one
    # most single steps would use on their own
    rng = np.random.default_rng(43)
    dz, m, T = 5, 2, 30
    b = random_bundle(dz, m, 3, rng, stable=True)
    G = 0.3 * rng.standard_normal((m, dz, dz))
    u = 0.5 * rng.standard_normal((T, m))
    u[11] = [12.0, -9.0]
    norms = np.abs(model.coupling_generators(G, u, 1.0)).sum(axis=1).max(axis=1)
    assert norms[11] > dense._THETA13 and np.median(norms) < dense._THETA13
    z0 = rng.standard_normal(dz)
    lat, dec = model.rollout(z0, u, b, G, 1.0)
    z = z0
    for k in range(T):
        ops = model.discretize(b, G, u[k], 1.0)
        z = ops.a_disc @ z + ops.b_disc @ u[k]
        assert np.linalg.norm(lat[k + 1] - z) <= 1e-12 * np.linalg.norm(z)
        assert np.allclose(dec[k], b.decoder @ z, rtol=1e-12, atol=0)


def test_one_step_state_jacobian_is_operator_product():
    # the step is affine in z: differences propagate through E_P E_D exactly
    rng = np.random.default_rng(31)
    b = random_bundle(3, 1, 2, rng)
    G = 0.4 * rng.standard_normal((1, 3, 3))
    u = np.array([[0.7]])
    z1 = rng.standard_normal(3)
    z2 = rng.standard_normal(3)
    la, _ = model.rollout(z1, u, b, G, 1.0)
    lb, _ = model.rollout(z2, u, b, G, 1.0)
    ops = model.discretize(b, G, u[0], 1.0)
    lhs = la[1] - lb[1]
    rhs = ops.a_disc @ (z1 - z2)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_strict_containment_witness():
    # mixed partial d^2 z+ / dz du_j: T * G_j * E_D for the coupled model,
    # numerically zero for the linear variant
    rng = np.random.default_rng(37)
    dz, m = 3, 2
    b = random_bundle(dz, m, 2, rng)
    G = 0.5 * rng.standard_normal((m, dz, dz))
    T = 0.05
    h = 1e-4
    e_d = np.exp(b.a_act * b.delta)
    for j in range(m):
        mixed = np.zeros((dz, dz))
        for i in range(dz):
            dz_vec = np.zeros(dz)
            dz_vec[i] = h
            du = np.zeros(m)
            du[j] = h
            f = lambda z, u: model.rollout(z, u[None, :], b, G, T)[0][1]
            z0 = rng.standard_normal(dz)
            u0 = rng.standard_normal(m)
            pp = f(z0 + dz_vec, u0 + du)
            pm = f(z0 + dz_vec, u0 - du)
            mp = f(z0 - dz_vec, u0 + du)
            mm = f(z0 - dz_vec, u0 - du)
            mixed[:, i] = (pp - pm - mp + mm) / (4 * h * h)
        expect = T * G[j] * e_d[None, :]
        assert np.linalg.norm(mixed) > 1e-3
        assert np.linalg.norm(mixed - expect) <= 5e-2 * np.linalg.norm(expect)
        # linear variant: the same mixed partial vanishes
        mixed_lin = np.zeros((dz, dz))
        for i in range(dz):
            dz_vec = np.zeros(dz)
            dz_vec[i] = h
            du = np.zeros(m)
            du[j] = h
            f = lambda z, u: model.rollout(z, u[None, :], b, None, T)[0][1]
            pp = f(z0 + dz_vec, u0 + du)
            pm = f(z0 + dz_vec, u0 - du)
            mp = f(z0 - dz_vec, u0 + du)
            mm = f(z0 - dz_vec, u0 - du)
            mixed_lin[:, i] = (pp - pm - mp + mm) / (4 * h * h)
        assert np.linalg.norm(mixed_lin) <= 1e-9


# ---------------------------------------------------------------------------
# spectral penalty


def test_spectral_penalty_values():
    assert spectral_penalty(np.diag([0.9, 0.5]), 0.05) == 0.0
    assert spectral_penalty(np.diag([1.1]), 0.05) == pytest.approx(0.15, abs=1e-12)


def test_spectral_penalty_inactive_for_stable_bundles():
    # zero coupling, activated diagonal <= -0.2 and timescales >= 0.6:
    # every modulus is exp(a*delta) <= exp(-0.12) < 0.95
    rng = np.random.default_rng(41)
    for _ in range(200):
        b = random_bundle(5, 1, 2, rng, stable=True)
        ops = model.discretize(b, None, np.zeros(1), 1.0)
        assert spectral_penalty(ops.a_disc, 0.05) == 0.0


def test_spectral_penalty_monotone_in_modulus():
    vals = [spectral_penalty(np.diag([lam, 0.5]), 0.05) for lam in
            (0.90, 0.96, 1.00, 1.10, 1.50)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[0] == 0.0 and vals[-1] > 0.0


# ---------------------------------------------------------------------------
# loss


def test_loss_perfect_predictions_zero():
    p = toy_params(kind="linear", seed=7)
    h = p.hyper
    rng = np.random.default_rng(43)
    S, C = toy_windows(p, count=2, seed=44)
    # overwrite prediction-segment states with the model's own forecasts
    for w in range(S.shape[0]):
        bundle, z0 = model.bundle_for_history(
            p, S[w, : h.lookback], C[w, : h.lookback]
        )
        u_pred = C[w, h.lookback - 1 : h.lookback + h.horizon - 1]
        u_n = (u_pred - bundle.control_mean) / bundle.control_std
        _, dec = model.rollout(z0, u_n, bundle, None, h.coupling_period)
        S[w, h.lookback :] = p.denormalize_states(dec)
    assert model.loss_value(p, S, C) <= 1e-20


def test_loss_penalty_weight_zero_reduces_to_mse():
    p = toy_params(seed=9)
    S, C = toy_windows(p)
    tape, pv, loss, mse, _ = model.loss_forward(p, S, C, eval_mode=True)
    assert loss.value == mse.value
    h0 = model.ModelHyper(**{**p.hyper.__dict__, "stability_weight": 0.0})
    p0 = model.ModelParams(
        hyper=h0, arrays=p.arrays, state_mean=p.state_mean,
        state_std=p.state_std, control_floor=p.control_floor,
    )
    assert model.loss_value(p0, S, C) == pytest.approx(float(mse.value), rel=1e-12)


def test_loss_gradient_matches_fd_toy():
    p = toy_params(seed=13)
    S, C = toy_windows(p, count=2, seed=15)
    _, grads = model.loss_and_grads(p, S, C)
    worst = 0.0
    for name in p.arrays:

        def f(arr, name=name):
            q = p.copy()
            q.arrays[name] = arr
            return model.loss_value(q, S, C)

        g_fd = fd_gradient(f, p.arrays[name])
        denom = max(np.linalg.norm(g_fd), np.linalg.norm(grads[name]), 1e-10)
        worst = max(worst, np.linalg.norm(grads[name] - g_fd) / denom)
    assert worst <= 1e-4


def test_linear_twin_identical_loss():
    p = toy_params(seed=21)
    lin = p.linear_twin()
    S, C = toy_windows(p)
    assert model.loss_value(p, S, C, eval_mode=True) == model.loss_value(
        lin, S, C, eval_mode=True
    )


# ---------------------------------------------------------------------------
# coupling norm


def test_g_norm_examples():
    p = toy_params(seed=23)
    assert model.g_norm(p) == 0.0
    assert model.g_norm(p.linear_twin()) == 0.0
    h = p.hyper
    p.arrays["cpl_l"] = np.stack([np.eye(h.latent_dim)] * h.control_dim)
    p.arrays["cpl_r"] = np.stack([np.eye(h.latent_dim)] * h.control_dim)
    assert model.g_norm(p) == pytest.approx(
        np.sqrt(h.control_dim * h.latent_dim), rel=1e-12
    )


def test_g_norm_gauge_invariant():
    p = toy_params(seed=25)
    h = p.hyper
    rng = np.random.default_rng(47)
    p.arrays["cpl_l"] = rng.standard_normal((h.control_dim, h.latent_dim, h.rank))
    p.arrays["cpl_r"] = rng.standard_normal((h.control_dim, h.latent_dim, h.rank))
    base = model.g_norm(p)
    q_mat, _ = np.linalg.qr(rng.standard_normal((h.rank, h.rank)))
    p2 = p.copy()
    p2.arrays["cpl_l"] = p.arrays["cpl_l"] @ q_mat
    p2.arrays["cpl_r"] = p.arrays["cpl_r"] @ q_mat  # (S, S^-T) = (Q, Q)
    assert model.g_norm(p2) == pytest.approx(base, rel=1e-12)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bitwise(tmp_path):
    p = toy_params(seed=27)
    path = tmp_path / "m.bkcp"
    model.save_checkpoint(p, path, meta={"epoch": 3, "val_loss": 0.5, "seed": 27})
    q = model.load_checkpoint(path)
    assert q.hyper == p.hyper
    for k in p.arrays:
        assert np.array_equal(q.arrays[k], p.arrays[k])
    S, C = toy_windows(p)
    assert model.loss_value(q, S, C) == model.loss_value(p, S, C)
    assert (tmp_path / "m.bkcp.json").exists()
