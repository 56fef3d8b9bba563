"""Encoder, operator generation, discretization, rollout, loss."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from bkmpc import datagen as dg
from bkmpc import model, results
from bkmpc.numerics import Tape, backward, dense
from bkmpc.numerics import autodiff as ad
from helpers import (
    FIXTURE_CHECKPOINTS, FIXTURES, encode_history_full, fd_gradient, loss_value, mse_value,
    spectral_penalty, stepwise_loss,
)


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


def rscp_rank_one_params(seed, scale):
    """A small model of the rscp preset's shapes (dz = 15, m = 3, rank 1)
    with a random coupling of the given scale."""
    hyper = model.hyper_for(
        "rscp", "bilinear", hidden=6, lookback=6, horizon=4, conv_kernel=3
    )
    p = model.init_params(hyper, np.zeros(9), np.ones(9), np.ones(3), seed=seed)
    rng = np.random.default_rng(seed)
    for key in ("cpl_l", "cpl_r"):
        p.arrays[key] = scale * rng.standard_normal(p.arrays[key].shape)
    return p


def low_rank_pair(dz, m, r, rng, scale):
    """(rank-path coupling, its (m, dz, dz) tensors) of random factors."""
    L = scale * rng.standard_normal((m, dz, r))
    R = scale * rng.standard_normal((m, dz, r))
    return model.forward_coupling({"cpl_l": L, "cpl_r": R}), L @ np.swapaxes(R, 1, 2)


def encode(params, x):
    """Latent of one state through the encoder."""
    return model.encode_batch(params.arrays, x[None, :])[0]


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
    z = encode(p, np.array([1.0, 2.0]))
    assert np.allclose(z, [0.3, -0.7], atol=1e-15)


def test_encode_deterministic():
    p = toy_params()
    x = np.array([0.5, -1.0])
    assert np.array_equal(encode(p, x), encode(p, x))


def test_encode_gradient_matches_fd():
    p = toy_params()
    x = np.array([0.4, -0.2])
    for name in ("enc_w1", "enc_b1", "enc_w2", "enc_b2"):

        def f(arr, name=name):
            q = p.copy()
            q.arrays[name] = arr
            z = encode(q, x)
            return float(np.sum(z**2))

        tape = Tape()
        w = {k: tape.leaf(a) for k, a in p.arrays.items()}
        z = model.encode_batch(w, x[None, :])
        out = ad.vsum(z * z)
        g = backward(tape, out)[w[name]]
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
    k = h.conv_kernel
    z = model.encode_batch(p.arrays, S[:, -k:].reshape(-1, h.state_dim)).reshape(
        10_000, k, h.latent_dim
    )
    bundle = model.generate_operators(p.arrays, p, z, C)
    assert np.all(bundle.delta > 0.0)


@pytest.mark.parametrize("ckpt", FIXTURE_CHECKPOINTS)
def test_bundle_for_history_is_the_tape_forward_bit_for_bit(ckpt):
    # the closed loop's bundle is the training forward run on the
    # parameter arrays: equal, bit for bit, to the taped forward's values
    p = model.load_checkpoint(FIXTURES / ckpt)
    h = p.hyper
    rng = np.random.default_rng(17)
    S = p.state_mean + p.state_std * rng.standard_normal((h.lookback, h.state_dim))
    C = rng.standard_normal((h.lookback, h.control_dim))
    bundle, z0 = model.bundle_for_history(p, S, C)

    tape = Tape()
    w = {k: tape.leaf(a) for k, a in p.arrays.items()}
    k = h.conv_kernel
    xn = (S[-k:] - p.state_mean) / p.state_std
    z_tail = ad.reshape(model.encode_batch(w, xn), (1, k, h.latent_dim))
    taped = model.generate_operators(w, p, z_tail, C[None])
    ref = model.OperatorBundle(*(
        x.value if isinstance(x, ad.Var) else x for x in vars(taped).values()
    )).single()
    for got, want in zip(vars(bundle).values(), vars(ref).values()):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert z0.tobytes() == z_tail.value[0, -1].tobytes()


def bundle_values(bundle, z0):
    """The bundle's fields and the current latent as arrays, tape values
    taken."""
    return [x.value if isinstance(x, ad.Var) else np.asarray(x)
            for x in [*vars(bundle).values(), z0]]


def tape_leaves(p):
    """The parameters as leaves of one new tape."""
    tape = Tape()
    return {k: tape.leaf(a) for k, a in p.arrays.items()}


def history_cases():
    """(name, params, (B, H, n) states, (B, H, m) controls): both fixtures
    and a fresh init of each preset, four histories each."""
    cases = [(name, model.load_checkpoint(FIXTURES / name)) for name in FIXTURE_CHECKPOINTS]
    for system in ("cartpole", "rscp"):
        h = model.hyper_for(system, "bilinear")
        n, m = h.state_dim, h.control_dim
        cases.append((system, model.init_params(h, np.zeros(n), np.ones(n), np.ones(m), seed=2)))
    rng = np.random.default_rng(41)
    for name, p in cases:
        h = p.hyper
        S = p.state_mean + p.state_std * rng.standard_normal((4, h.lookback, h.state_dim))
        yield name, p, S, rng.standard_normal((4, h.lookback, h.control_dim))


@pytest.mark.parametrize("taped", [False, True])
def test_tail_encoding_equals_encoding_every_state(taped):
    # the encoder is row-wise, so encoding only the last conv_kernel
    # states gives the bytes that encoding all H and slicing gives
    for name, p, S, C in history_cases():
        w = tape_leaves(p) if taped else p.arrays
        got = bundle_values(*model.encode_history(w, p, S, C))
        want = bundle_values(*encode_history_full(w, p, S, C))
        for g, r in zip(got, want):
            assert g.shape == r.shape and g.tobytes() == r.tobytes(), name


@pytest.mark.parametrize("taped", [False, True])
def test_states_before_the_kernel_do_not_reach_the_bundle(taped):
    # only the last conv_kernel states are read: any change to the
    # earlier ones leaves the bundle and the current latent as they were
    for name, p, S, C in history_cases():
        w = tape_leaves(p) if taped else p.arrays
        head = p.hyper.lookback - p.hyper.conv_kernel
        moved = S.copy()
        moved[:, :head] = 1e6 * np.random.default_rng(3).standard_normal(moved[:, :head].shape)
        got = bundle_values(*model.encode_history(w, p, moved, C))
        want = bundle_values(*model.encode_history(w, p, S, C))
        for g, r in zip(got, want):
            assert g.tobytes() == r.tobytes(), name


def test_encoder_sees_only_the_kernel_rows(monkeypatch):
    # training, evaluation and control all encode B * conv_kernel rows
    rows, real = [], model.encode_batch

    def encode_batch(w, x_norm):
        rows.append(x_norm.shape[0])
        return real(w, x_norm)

    monkeypatch.setattr(model, "encode_batch", encode_batch)
    p = model.load_checkpoint(FIXTURES / FIXTURE_CHECKPOINTS[1])
    h = p.hyper
    rng = np.random.default_rng(43)
    S = p.state_mean + p.state_std * rng.standard_normal((6, h.lookback + h.horizon, 9))
    C = rng.standard_normal((6, h.lookback + h.horizon, 3))
    model.loss_forward(p, S, C)
    model.forecast_mse(p.arrays, p, S, C)
    model.bundle_for_history(p, S[0, : h.lookback], C[0, : h.lookback])
    assert rows == [6 * h.conv_kernel, 6 * h.conv_kernel, h.conv_kernel]


@pytest.mark.parametrize("kernel", [0, -1, 31, 33])
def test_hyper_rejects_a_conv_kernel_outside_the_lookback(kernel, tmp_path):
    # the convolution reads the last conv_kernel of the lookback's states
    # (30 on rscp): an empty kernel or one longer than the lookback is
    # refused when the hyperparameters are built
    with pytest.raises(model.ContractViolation, match="conv_kernel"):
        model.hyper_for("rscp", "bilinear", conv_kernel=kernel)
    # a checkpoint carrying one is refused on load
    p = model.load_checkpoint(FIXTURES / FIXTURE_CHECKPOINTS[1])
    path = tmp_path / "m.bkcp"
    model.save_checkpoint(p, path)
    header, arrays = results.read_container(
        path, model._MAGIC, model._VERSION,
        lambda hd: [(name, "<f8", shape) for name, shape in hd["params"]],
    )
    header["hyper"]["conv_kernel"] = kernel
    payload = [(arrays[name], "<f8") for name, _ in header["params"]]
    results.write_container(path, model._MAGIC, model._VERSION, header, payload)
    with pytest.raises(model.ContractViolation, match="conv_kernel"):
        model.load_checkpoint(path)
    for edge in (1, 30):
        assert model.hyper_for("rscp", "bilinear", conv_kernel=edge).conv_kernel == edge


def test_bundle_for_history_builds_no_tape(monkeypatch):
    def no_tape(self):
        raise AssertionError("a Tape was constructed")

    monkeypatch.setattr(ad.Tape, "__init__", no_tape)
    p = toy_params()
    h = p.hyper
    bundle, _ = model.bundle_for_history(
        p, np.ones((h.lookback, h.state_dim)), np.ones((h.lookback, h.control_dim))
    )
    assert isinstance(bundle.b_cont, np.ndarray)


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
    a_disc = model.discretize(b, None, np.zeros(2), 1.0)
    assert np.allclose(a_disc, np.diag(np.exp(b.a_act * b.delta)), atol=0)
    G0 = np.zeros((2, 4, 4))
    u = np.array([0.3, -0.8])
    assert np.array_equal(a_disc, model.discretize(b, G0, u, 1.0))
    # the held input map: one step from z0 = 0 gives lat[1] = B_disc u
    lat, _ = model.rollout(np.zeros(4), u[None], b, None, 1.0)
    lat0, _ = model.rollout(np.zeros(4), u[None], b, G0, 1.0)
    assert np.array_equal(lat[1], lat0[1])


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
    u = np.array([2.0])
    assert model.discretize(b, G, u, 1.0)[0, 0] == pytest.approx(2.45960311, abs=1e-6)
    # one step from z0 = 0: lat[1] = B_disc u
    lat, _ = model.rollout(np.zeros(1), u[None], b, G, 1.0)
    assert lat[1, 0] / u[0] == pytest.approx(np.e * 0.0951625820 * bval, rel=1e-8)


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
    lat, pens = model.rollout(np.array([1.0]), u, b, None, 1.0, margin=0.05)
    assert pens is None
    dec = lat[1:] @ b.decoder.T
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
    la, _ = model.rollout(np.ones(3), u, b, G, 1.0)
    lb, _ = model.rollout(np.ones(3), u, b, None, 1.0)
    assert np.array_equal(la, lb)


def test_zero_coupling_rollout_equals_linear_exactly():
    rng = np.random.default_rng(29)
    b = random_bundle(4, 2, 3, rng)
    G0 = np.zeros((2, 4, 4))
    u = rng.standard_normal((30, 2))
    la, _ = model.rollout(np.ones(4), u, b, G0, 1.0)
    lb, _ = model.rollout(np.ones(4), u, b, None, 1.0)
    assert np.array_equal(la, lb)
    assert np.array_equal(la[1:] @ b.decoder.T, lb[1:] @ b.decoder.T)


def test_batched_rollout_matches_stepped_discretize():
    # one step's generator exceeds the switching radius; each
    # matrix is scaled on its own, so that step's squarings leave the other
    # steps' factors as they are alone
    rng = np.random.default_rng(43)
    dz, m, T = 5, 2, 30
    b = random_bundle(dz, m, 3, rng, stable=True)
    G = 0.1 * rng.standard_normal((m, dz, dz))
    u = 0.5 * rng.standard_normal((T, m))
    u[11] = [12.0, -9.0]
    P = model.generator(G, u, 1.0)
    norms = np.abs(P).sum(axis=1).max(axis=1)
    assert norms[11] > dense._THETA and np.median(norms) < dense._THETA
    e_p = dense.matrix_exp(P)
    for k in range(T):
        assert np.array_equal(e_p[k], dense.matrix_exp(P[k]))
    z0 = rng.standard_normal(dz)
    lat, pens = model.rollout(z0, u, b, G, 1.0, margin=0.05)
    # the A_disc stack whose hinge sums the dz x dz rollout returns
    a_disc = e_p * np.exp(b.a_act * b.delta)
    assert np.array_equal(pens, ad.eig_penalty(a_disc, 0.05))
    z = z0
    for k in range(T):
        held, _ = model.rollout(np.zeros(dz), u[k : k + 1], b, G, 1.0)
        step = model.discretize(b, G, u[k], 1.0)
        assert np.linalg.norm(a_disc[k] - step) <= 1e-14 * np.linalg.norm(step)
        z = step @ z + held[1]
        assert np.linalg.norm(lat[k + 1] - z) <= 1e-12 * np.linalg.norm(z)


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
    a_disc = model.discretize(b, G, u[0], 1.0)
    lhs = la[1] - lb[1]
    rhs = a_disc @ (z1 - z2)
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
        a_disc = model.discretize(b, None, np.zeros(1), 1.0)
        assert spectral_penalty(a_disc, 0.05) == 0.0


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
        lat, _ = model.rollout(z0, u_n, bundle, None, h.coupling_period)
        S[w, h.lookback :] = lat[1:] @ bundle.decoder.T * p.state_std + p.state_mean
    assert loss_value(p, S, C) <= 1e-20


def test_loss_penalty_weight_zero_reduces_to_mse():
    p = toy_params(seed=9)
    S, C = toy_windows(p)
    _, _, _, mse, _ = model.loss_forward(p, S, C)
    assert float(mse.value) == mse_value(p, S, C)
    h0 = model.ModelHyper(**{**p.hyper.__dict__, "stability_weight": 0.0})
    p0 = model.ModelParams(
        hyper=h0, arrays=p.arrays, state_mean=p.state_mean,
        state_std=p.state_std, control_floor=p.control_floor,
    )
    assert loss_value(p0, S, C) == pytest.approx(float(mse.value), rel=1e-12)


def _worst_loss_fd_error(p, S, C, names):
    """Worst gradient-norm relative error of ``loss_and_grads`` against
    central differences of the loss, over the named parameters."""
    _, grads = model.loss_and_grads(p, S, C)
    worst = 0.0
    for name in names:

        def f(arr, name=name):
            q = p.copy()
            q.arrays[name] = arr
            return loss_value(q, S, C)

        g_fd = fd_gradient(f, p.arrays[name])
        denom = max(np.linalg.norm(g_fd), np.linalg.norm(grads[name]), 1e-10)
        worst = max(worst, np.linalg.norm(grads[name] - g_fd) / denom)
    return worst


def test_loss_gradient_matches_fd_toy():
    p = toy_params(seed=13)
    S, C = toy_windows(p, count=2, seed=15)
    assert _worst_loss_fd_error(p, S, C, p.arrays) <= 1e-4


def test_loss_gradient_matches_fd_rank_one_rscp():
    # the rscp preset's rank-1 coupling takes the rank path; slow modes and
    # a coupling strong enough that the hinge is active and some augmented
    # matrices need squarings. The gradients of the coupling factors and of
    # every parameter that the hold step and hinge touch are checked
    p = rscp_rank_one_params(seed=61, scale=0.6)
    p.arrays["a_raw"][:] = -0.01
    S, C = toy_windows(p, count=2, seed=62)
    _, _, _, _, penalty = model.loss_forward(p, S, C)
    assert float(penalty.value) > 0.0
    names = ("cpl_l", "cpl_r", "a_raw", "delta_b2", "bmat_b2", "enc_b2")
    assert _worst_loss_fd_error(p, S, C, names) <= 1e-4


def hinge_active_params():
    """The cartpole architecture with slow modes and a strong coupling on
    the dz x dz path: the stability hinge is active."""
    hyper = model.hyper_for("cartpole", "bilinear")
    p = model.init_params(hyper, np.zeros(4), np.ones(4), np.ones(1), seed=3)
    rng = np.random.default_rng(4)
    p.arrays["a_raw"][:] = -0.01
    for key in ("cpl_l", "cpl_r"):
        p.arrays[key] = 0.05 * rng.standard_normal(p.arrays[key].shape)
    return p


def dense_path_params():
    """A toy bilinear model (dz = 2, rank 2) with a random coupling, on the
    dz x dz path."""
    p = toy_params(seed=75)
    rng = np.random.default_rng(76)
    for key in ("cpl_l", "cpl_r"):
        p.arrays[key] = 0.7 * rng.standard_normal(p.arrays[key].shape)
    return p


def rank_path_steps(p, S, C):
    """(coupling, s2, phi_h, e_d) of the rank-path rollout of the windows
    (S, C), on the parameter arrays: what ``LowRank.hinge`` gets."""
    h = p.hyper
    H, T = h.lookback, h.horizon
    bundle, _ = model.encode_history(p.arrays, p, S[:, :H], C[:, :H])
    mu, sd = bundle.control_mean[:, None, :], bundle.control_std[:, None, :]
    u_n = (C[:, H - 1 : H + T - 1, :] - mu) / sd
    cpl = model.forward_coupling(p.arrays)
    s2, phi_h = cpl.phi_half(np.swapaxes(u_n, 0, 1), h.coupling_period)
    e_d, _ = bundle.held
    return cpl, s2, phi_h, e_d


#: a model on each path of ``rollout``, and the coupling type it takes
ROLLOUT_PATHS = {
    "linear": (lambda: rscp_rank_one_params(seed=73, scale=0.5).linear_twin(), type(None)),
    "dense": (dense_path_params, np.ndarray),
    "rank": (lambda: rscp_rank_one_params(seed=77, scale=0.5), model.LowRank),
    "rank_mixed": (lambda: rscp_rank_one_params(seed=79, scale=0.2), model.LowRank),
    "hinge": (hinge_active_params, np.ndarray),
}


@pytest.mark.parametrize("path", sorted(ROLLOUT_PATHS))
def test_one_rollout_matches_the_stepwise_oracle(path):
    # the one batched rollout against the recurrence taped step by step:
    # the same loss, MSE and penalty, and the same gradients to 1e-12
    make, cpl_type = ROLLOUT_PATHS[path]
    p = make()
    assert isinstance(model.forward_coupling(p.arrays), cpl_type)
    S, C = toy_windows(p, count=3, seed=79)
    loss, grads = model.loss_and_grads(p, S, C)
    _, _, _, mse, penalty = model.loss_forward(p, S, C)
    ref_loss, ref_mse, ref_penalty, ref_grads = stepwise_loss(p, S, C)
    assert loss == ref_loss and float(mse.value) == ref_mse
    got_penalty = None if penalty is None else float(penalty.value)
    assert got_penalty == ref_penalty
    assert (ref_penalty is None) == (path == "linear")
    assert path not in ("hinge", "rank_mixed") or ref_penalty > 0.0
    if path == "rank_mixed":
        # the hinge forms A_disc for some steps and certifies the others
        cpl, s2, phi_h, e_d = rank_path_steps(p, S, C)
        ok = cpl.certified(s2, phi_h, e_d, 1.0 - p.hyper.stability_margin)
        assert ok.any() and not ok.all()
    assert set(grads) == set(ref_grads)
    for name, g in ref_grads.items():
        assert np.linalg.norm(grads[name] - g) <= 1e-12 * np.linalg.norm(g), name


@pytest.mark.parametrize("path", sorted(ROLLOUT_PATHS))
def test_rollout_on_arrays_returns_the_taped_values(path):
    # the same rollout on the parameter arrays and on tape leaves: latents,
    # hinge sums and forecast MSE equal bit for bit
    p = ROLLOUT_PATHS[path][0]()
    h = p.hyper
    H, T = h.lookback, h.horizon
    S, C = toy_windows(p, count=3, seed=81)
    tape = Tape()
    runs = []
    for w in (p.arrays, {k: tape.leaf(a) for k, a in p.arrays.items()}):
        bundle, z0 = model.encode_history(w, p, S[:, :H], C[:, :H])
        mu, sd = bundle.control_mean[:, None, :], bundle.control_std[:, None, :]
        u_n = (C[:, H - 1 : H + T - 1, :] - mu) / sd
        lat, pens = model.rollout(
            z0, u_n, bundle, model.forward_coupling(w), h.coupling_period,
            margin=h.stability_margin,
        )
        mse, _ = model.forecast_mse(w, p, S, C)
        runs.append([x if isinstance(x, np.ndarray) or x is None else x.value
                     for x in (lat, pens, mse)])
    plain, taped = runs
    assert lat.shape == (T + 1, 3, h.latent_dim)
    assert (pens is None) == (path == "linear")
    assert pens is None or pens.shape == (T, 3)
    for got, want in zip(plain, taped, strict=True):
        assert isinstance(got, np.ndarray) or got is None
        assert got is None or got.tobytes() == want.tobytes()


def test_hinge_active_loss_records_exactly_the_registered_ops():
    # the tape's op set is what the loss needs: a hinge-active bilinear
    # loss (cartpole architecture, slow modes, strong coupling) records
    # every op that has an adjoint rule, and no other; a hinge-active loss
    # on the rank path records no op outside that set either
    p = hinge_active_params()
    S, C = toy_windows(p, count=4)
    tape, _, _, _, penalty = model.loss_forward(p, S, C)
    assert float(penalty.value) > 0.0
    recorded = {node.op for node in tape._nodes} - {"leaf", "const"}
    assert recorded == set(ad._ADJOINTS)
    q = rscp_rank_one_params(seed=61, scale=0.6)
    q.arrays["a_raw"][:] = -0.01
    assert isinstance(model.forward_coupling(q.arrays), model.LowRank)
    tape, _, _, _, penalty = model.loss_forward(q, *toy_windows(q, count=4))
    assert float(penalty.value) > 0.0
    recorded |= {node.op for node in tape._nodes} - {"leaf", "const"}
    assert recorded == set(ad._ADJOINTS)


def test_linear_twin_identical_loss():
    p = toy_params(seed=21)
    lin = p.linear_twin()
    S, C = toy_windows(p)
    assert mse_value(p, S, C) == mse_value(lin, S, C)


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
# low-rank coupling


@pytest.mark.parametrize("system", sorted(model.ARCH))
def test_arch_preset_coupling_under_one_percent(system):
    # the paper's budget: the coupling adds less than 1% to the linear model
    sizes = {
        name: int(np.prod(shape))
        for name, shape in model._param_spec(model.hyper_for(system, "bilinear"))
    }
    cpl = sizes.pop("cpl_l") + sizes.pop("cpl_r")
    assert cpl < 0.01 * sum(sizes.values())


def test_coupling_path_chosen_from_shapes():
    # the rank path iff 4 m r <= dz: the rscp preset, not rank 2, not the
    # cartpole preset, not a full-rank model
    cases = [("rscp", 1, True), ("rscp", 2, False), ("rscp", 15, False),
             ("cartpole", 2, True), ("cartpole", 3, False), ("cartpole", 8, False)]
    for system, rank, low in cases:
        hyper = model.hyper_for(system, "bilinear", rank=rank)
        n, m = hyper.state_dim, hyper.control_dim
        p = model.init_params(hyper, np.zeros(n), np.ones(n), np.ones(m))
        cpl = model.forward_coupling(p.arrays)
        assert isinstance(cpl, model.LowRank) == low, (system, rank)
    for name in FIXTURE_CHECKPOINTS:
        p = model.load_checkpoint(FIXTURES / name)
        assert not isinstance(model.forward_coupling(p.arrays), model.LowRank), name


def rank_path_factor(cpl, u):
    """(N, dz, dz) I + U phi1(X) V^T of (N, m) controls, period 1."""
    return cpl.factor(*cpl.phi_half(u, 1.0))


def test_rank_path_factor_matches_dense_path():
    # I + U phi1(V^T U) V^T against the dz x dz exponential, over controls
    # whose augmented matrices range from no squaring to several; each
    # member of the stack equals its solo call bit for bit
    rng = np.random.default_rng(53)
    cpl, G = low_rank_pair(15, 3, 1, rng, 0.6)
    assert isinstance(cpl, model.LowRank)
    u = rng.standard_normal((40, 3)) * np.geomspace(0.05, 6.0, 40)[:, None]
    _, aug = cpl.augmented(u, 1.0)
    norms = np.abs(aug).sum(axis=1).max(axis=1)
    assert norms.min() <= dense._THETA and norms.max() > 8 * dense._THETA
    fac = rank_path_factor(cpl, u)
    ref = dense.matrix_exp(model.generator(G, u, 1.0))
    rel = np.linalg.norm(fac - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
    assert rel.max() <= 1e-13
    for k in range(u.shape[0]):
        assert np.array_equal(fac[k], rank_path_factor(cpl, u[k : k + 1])[0])


def test_rank_path_zero_coupling_gives_the_identity_exactly():
    rng = np.random.default_rng(57)
    cpl, _ = low_rank_pair(15, 3, 1, rng, 0.6)
    eye = np.broadcast_to(np.eye(15), (4, 15, 15))
    u = rng.standard_normal((4, 3))
    drift = rng.standard_normal((4, 15, 1))
    assert np.array_equal(rank_path_factor(cpl, np.zeros((4, 3))), eye)
    zero = model.forward_coupling(
        {"cpl_l": np.zeros((3, 15, 1)), "cpl_r": rng.standard_normal((3, 15, 1))}
    )
    assert np.array_equal(rank_path_factor(zero, u), eye)
    assert np.array_equal(zero.apply(*zero.phi_half(u, 1.0), drift), drift)


def test_rank_path_zero_coupling_model_is_the_linear_model():
    # the rscp preset at its initialization (left factor zero): loss,
    # evaluation and every shared gradient equal the linear twin's
    p = rscp_rank_one_params(seed=65, scale=0.0)
    p.arrays["cpl_r"] = np.random.default_rng(66).standard_normal(p.arrays["cpl_r"].shape)
    assert isinstance(model.forward_coupling(p.arrays), model.LowRank)
    lin = p.linear_twin()
    S, C = toy_windows(p, count=3, seed=67)
    assert mse_value(p, S, C) == mse_value(lin, S, C)
    loss, grads = model.loss_and_grads(p, S, C)
    loss_lin, grads_lin = model.loss_and_grads(lin, S, C)
    assert loss == loss_lin
    for name, g in grads_lin.items():
        assert np.array_equal(grads[name], g), name


def test_dense_path_zero_coupling_model_is_the_linear_model(monkeypatch):
    # the taped dz x dz path of a coupling whose left factor is zero: loss,
    # evaluation and every shared gradient equal the linear twin's
    monkeypatch.setattr(model, "forward_coupling", model.coupling)
    p = rscp_rank_one_params(seed=83, scale=0.0)
    p.arrays["cpl_r"] = np.random.default_rng(84).standard_normal(p.arrays["cpl_r"].shape)
    lin = p.linear_twin()
    S, C = toy_windows(p, count=3, seed=85)
    assert mse_value(p, S, C) == mse_value(lin, S, C)
    loss, grads = model.loss_and_grads(p, S, C)
    loss_lin, grads_lin = model.loss_and_grads(lin, S, C)
    assert loss == loss_lin
    for name, g in grads_lin.items():
        assert np.array_equal(grads[name], g), name


def test_rank_path_forward_matches_dense_path(monkeypatch):
    # the forecast MSE and every step's hinge sum of the rank path against
    # the dz x dz path of the same coupling
    p = rscp_rank_one_params(seed=69, scale=0.5)
    S, C = toy_windows(p, count=3, seed=70)
    margin = p.hyper.stability_margin
    mse, pens = model.forecast_mse(p.arrays, p, S, C, margin=margin)
    monkeypatch.setattr(model, "forward_coupling", model.coupling)
    mse_ref, refs = model.forecast_mse(p.arrays, p, S, C, margin=margin)
    assert abs(mse - mse_ref) <= 1e-13 * mse_ref
    assert pens.shape == refs.shape == (p.hyper.horizon, 3) and refs.max() > 0.0
    assert np.linalg.norm(pens - refs) <= 1e-12 * np.linalg.norm(refs)


def test_rank_path_certificate_is_sound():
    # every step the factor bound certifies has all row sums of |A_disc|,
    # formed as I + U phi1(X) V^T times e_d, below 1 - margin: so it also
    # fails the prefilter of eig_penalty and its hinge sum is zero
    thresh, counts = 1.0 - 0.05, np.zeros(2, dtype=int)
    for scale in (0.0, 0.05, 0.1, 0.3, 1.0):
        # slowest modes from just under the threshold to well inside it
        for seed, slow in enumerate((-0.05, -0.1, -0.2, -0.4)):
            p = rscp_rank_one_params(seed=90 + seed, scale=scale)
            p.arrays["a_raw"] = np.linspace(-1.0, slow, p.hyper.latent_dim)
            cpl, s2, phi_h, e_d = rank_path_steps(p, *toy_windows(p, count=8, seed=seed))
            ok = cpl.certified(s2, phi_h, e_d, thresh)
            a_disc = cpl.factor(s2, phi_h) * e_d[:, None, :]
            rows = np.abs(a_disc).sum(axis=-1).max(axis=-1)
            assert ok.shape == rows.shape
            assert (rows[ok] < thresh).all()
            assert (ad.eig_penalty(a_disc[ok], 0.05) == 0.0).all()
            if scale == 0.0:
                # no coupling: the bound is e_d itself, the exact row sum
                assert np.array_equal(ok, rows * (1.0 + 1e-12) < thresh)
            counts += ok.sum(), (~ok).sum()
    assert counts.min() > 0


def test_rank_path_nonfinite_step_is_not_certified(caplog):
    # a NaN in one step's factor gives that step a NaN bound: the step stays
    # uncertified, so eig_penalty sees its non-finite A_disc and logs one
    # warning, while every finite step is certified as before
    p = rscp_rank_one_params(seed=79, scale=0.05)
    cpl, s2, phi_h, e_d = rank_path_steps(p, *toy_windows(p, count=3, seed=79))
    assert cpl.certified(s2, phi_h, e_d, 0.95).all()
    phi_h = phi_h.copy()
    phi_h[1, 0, 0, 0] = np.nan
    ok = cpl.certified(s2, phi_h, e_d, 0.95)
    assert list(zip(*np.nonzero(~ok))) == [(1, 0)]
    with caplog.at_level("WARNING", logger="bkmpc.numerics"):
        pens = cpl.hinge(s2, phi_h, e_d, 0.05)
    assert np.array_equal(pens, np.zeros(ok.shape))
    assert [r.getMessage() for r in caplog.records] == [
        "non-finite matrix inside eig_penalty; skipping its penalty"
    ]


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
    assert loss_value(q, S, C) == loss_value(p, S, C)
    assert (tmp_path / "m.bkcp.json").exists()


@pytest.mark.parametrize("preset", ["cartpole-ti", "rscp-ti"])
def test_fixture_checkpoint_resave_reproduces_hash(preset, tmp_path):
    # the writer reproduces the committed container byte for byte
    entry = json.loads((FIXTURES / "provenance.json").read_text())
    entry = entry["checkpoints"][preset]
    p = model.load_checkpoint(FIXTURES / entry["file"])
    path = tmp_path / entry["file"]
    model.save_checkpoint(p, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == entry["sha256"]


def test_checkpoint_rejects_a_parameter_list_its_header_does_not_declare(tmp_path):
    # the header's parameter list must be the one its kind and
    # hyperparameters give; otherwise a "linear" header listing a coupling
    # loads a coupled model, rank-1 hyperparameters load the fixture's
    # (3, 15, 15) factors, and a missing array fails later with a bare
    # KeyError
    fixture = FIXTURES / "rscp-ti-bilinear.bkcp"
    header, arrays = results.read_container(
        fixture, model._MAGIC, model._VERSION,
        lambda hd: [(name, "<f8", shape) for name, shape in hd["params"]],
    )
    assert arrays["cpl_l"].shape == (3, 15, 15)
    cases = {
        "same": (header, arrays),
        "coupled-linear": ({**header, "kind": "linear"}, arrays),
        "rank-1": ({**header, "hyper": {**header["hyper"], "rank": 1}}, arrays),
        "no-dec_b2": (header, {k: v for k, v in arrays.items() if k != "dec_b2"}),
    }
    for name, (hd, arrs) in cases.items():
        hd = {**hd, "params": [[k, list(a.shape)] for k, a in arrs.items()]}
        path = tmp_path / f"{name}.bkcp"
        payload = [(a, "<f8") for a in arrs.values()]
        results.write_container(path, model._MAGIC, model._VERSION, hd, payload)
        if name == "same":
            assert path.read_bytes() == fixture.read_bytes()
            model.load_checkpoint(path)
            continue
        with pytest.raises(results.FormatError, match="parameter list"):
            model.load_checkpoint(path)


def test_checkpoint_rejects_statistics_of_the_wrong_length(tmp_path):
    # the normalization statistics must have state_dim (control_dim)
    # entries; otherwise a 3-entry state_mean loads and the first
    # bundle fails with a numpy broadcast error
    p = model.load_checkpoint(FIXTURES / "cartpole-ti-bilinear.bkcp")
    cases = {
        "state_mean": p.state_mean[:3],
        "state_std": np.append(p.state_std, 1.0),
        "control_floor": np.zeros(0),
    }
    for key, value in cases.items():
        path = tmp_path / f"{key}.bkcp"
        model.save_checkpoint(dataclasses.replace(p, **{key: value}), path)
        with pytest.raises(results.FormatError, match=key):
            model.load_checkpoint(path)


def test_checkpoint_truncated_or_trailing_rejected(tmp_path):
    p = toy_params(seed=29)
    path = tmp_path / "m.bkcp"
    model.save_checkpoint(p, path)
    raw = path.read_bytes()
    for bad in (raw[:-8], raw + b"\0"):
        path.write_bytes(bad)
        with pytest.raises(dg.IntegrityError):
            model.load_checkpoint(path)
    path.write_bytes(b"BKDS" + raw[4:])
    with pytest.raises(dg.FormatError):
        model.load_checkpoint(path)
