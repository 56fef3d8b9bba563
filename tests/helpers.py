"""Shared oracles and utilities for the test suite.

Oracles here are deliberately independent of the code paths they check:
the exponential oracle is a plain Taylor sum in extended precision, the
Frechet-derivative oracle is the block-augmented exponential by scaling,
squaring and that same extended-precision sum, the SCP linearization
with every derivative formed as a matrix and then contracted is the
oracle for its matrix-free action, the dense Jacobian of every
residual, responses to every increment included, is the oracle for the
causal condensation, the determinant oracle is a tiny
partial-pivot LU, the box-QP oracle
enumerates every active set, and gradient checks are central finite
differences over tape leaves. The sequential excitation episode is the
oracle for the lockstep data-generation runner, the size-weighted
forecast MSE over batches is the oracle for training's validation loss,
the training loss taped step by step is the oracle for the one
batched ``model.rollout`` under the tape, the simulators' balances
written term by term, one numpy operation per term, are the oracle for
the grouped ``simulators.deriv_batch``, and encoding every lookback state
then slicing is the oracle for ``model.encode_history``'s tail encoding.
"""

import pathlib

import numpy as np

from bkmpc import datagen as dg
from bkmpc import model
from bkmpc import simulators as sim
from bkmpc.numerics import Tape, backward
from bkmpc.numerics import autodiff as ad
from bkmpc.numerics import dense

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "bench" / "fixtures"
#: the benchmark's committed bilinear checkpoints
FIXTURE_CHECKPOINTS = ("cartpole-ti-bilinear.bkcp", "rscp-ti-bilinear.bkcp")


def _taylor_sum(M, terms):
    """sum_{k <= terms} M^k / k! in extended precision, batched over the
    leading axes of M."""
    M = np.asarray(M, dtype=np.longdouble)
    acc = np.broadcast_to(np.eye(M.shape[-1], dtype=np.longdouble), M.shape)
    term = acc
    for k in range(1, terms + 1):
        term = term @ M / k
        acc = acc + term
    return acc


def taylor_expm(M, terms=200):
    """exp(M) by truncated Taylor series, accumulated in extended precision."""
    return _taylor_sum(M, terms).astype(float)


def block_frechet(M, E):
    """(exp(M), L(M, E)) from the block identity
    exp([[M, E], [0, M]]) = [[exp(M), L(M, E)], [0, exp(M)]],
    batched over the leading axes of M and E jointly.

    The block is exponentiated in extended precision, independently of
    the kernels under test: halved s times to a 1-norm of at most 0.5,
    summed as a 30-term Taylor series, then squared back s times."""
    M = np.asarray(M, dtype=float)
    n = M.shape[-1]
    blk = np.zeros(M.shape[:-2] + (2 * n, 2 * n), dtype=np.longdouble)
    blk[..., :n, :n] = M
    blk[..., :n, n:] = E
    blk[..., n:, n:] = M
    norm1 = np.abs(blk).sum(axis=-2).max(initial=0.0)
    s = int(np.ceil(np.log2(max(norm1, 0.5) / 0.5)))
    W = _taylor_sum(blk / 2**s, 30)
    for _ in range(s):
        W = W @ W
    W = W.astype(float)
    return W[..., :n, :n], W[..., :n, n:]


def linearize_by_matrices(held, coupling, plan_u_norm, z_nom, period):
    """(A_tilde, B_tilde) of ``scp_mpc.linearize`` with every L(P_k, G_j)
    formed as a dz x dz matrix by ``dense.matrix_exp_frechet`` and then
    contracted with the step's held drift."""
    e_d, b_diag = held
    H = len(plan_u_norm)
    P = model.generator(coupling, plan_u_norm, period)
    drift = z_nom[:H] * e_d + plan_u_norm @ b_diag.T
    e_p = dense.matrix_exp(P)
    L = np.stack(
        [dense.matrix_exp_frechet(P, np.broadcast_to(G_j, P.shape)) for G_j in coupling],
        axis=1,
    )
    b_t = period * np.einsum("kjab,kb->kaj", L, drift) + e_p @ b_diag
    return e_p * e_d, b_t


def condense_dense(a_t, b_t, res, w, dec_scaled, diff):
    """(H, g) of ``scp_mpc.condense`` from the dense Jacobian J of every
    residual: the full (dz, N) response of each step, zero columns
    included, decoded by ``dec_scaled``, over the increment difference
    rows ``diff``, then H = 2 J^T W J and g = 2 J^T W res in one product
    each."""
    H, dz, m = b_t.shape
    N = H * m
    resp = np.empty((H, dz, N))
    M = np.zeros((dz, N))
    for j in range(H):
        M = a_t[j] @ M
        M[:, j * m : (j + 1) * m] += b_t[j]
        resp[j] = M
    J = np.vstack([(dec_scaled @ resp).reshape(-1, N), diff])
    WJ = w[:, None] * J
    return 2.0 * (J.T @ WJ), 2.0 * (WJ.T @ res)


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


def cartpole_deriv_oracle(cfg, states, forces, ts):
    """(xdot, xddot, thetadot, thetaddot) per row, each term its own
    operation: two angular-acceleration passes that recompute their
    invariants, then ``np.stack``."""
    states = np.asarray(states, dtype=float)
    xd = states[:, 1]
    th = states[:, 2]
    thd = states[:, 3]
    force = np.asarray(forces, dtype=float).reshape(-1)
    mc, mp = cfg.cart_mass, cfg.pole_mass
    length, g = cfg.half_length, cfg.gravity
    total = mc + mp
    mu_c = cfg.mu_cart + (
        np.sin(cfg.tv_omega * np.asarray(ts, dtype=float))
        if cfg.variant == "tv"
        else 0.0
    )
    mu_p = cfg.mu_pole
    sth, cth = np.sin(th), np.cos(th)
    sgn = np.sign(xd)

    def angular_acc(normal):
        num = (
            g * sth
            + cth * (-force - mp * length * thd**2 * sth + mu_c * normal * sgn) / total
            - mu_p * thd / (mp * length)
        )
        den = length * (4.0 / 3.0 - mp * cth**2 / total)
        return num / den

    normal = total * g
    thdd = angular_acc(normal)
    normal = total * g - mp * length * (thdd * sth + thd**2 * cth)
    thdd = angular_acc(normal)
    xdd = (
        force - mu_c * normal * sgn + mp * length * (thd**2 * sth - thdd * cth)
    ) / total
    return np.stack([xd, xdd, thd, thdd], axis=1)


def rscp_deriv_oracle(cfg, states, duties, ts):
    """Nine-component balance per row, units per hour, each term its own
    operation on one-column arrays."""
    s = np.asarray(states, dtype=float)
    q = np.asarray(duties, dtype=float).reshape(s.shape[0], 3)
    xa1, xb1, T1 = s[:, 0], s[:, 1], s[:, 2]
    xa2, xb2, T2 = s[:, 3], s[:, 4], s[:, 5]
    xa3, xb3, T3 = s[:, 6], s[:, 7], s[:, 8]
    V1, V2, V3 = cfg.volumes
    F10, F20 = cfg.feed_flows
    Fr, Fp = cfg.recycle_flow, cfg.purge_flow
    F1 = F10 + Fr
    F2 = F1 + F20
    T10, T20 = cfg.feed_temps
    xa10, xa20 = cfg.feed_xa
    k1, k2 = cfg.rate_consts
    E1, E2 = cfg.activation
    R = cfg.gas_const
    rho_cp = cfg.rho * cfg.cp
    beta1 = -cfg.reaction_dh[0] * cfg.c_molar / rho_cp
    beta2 = -cfg.reaction_dh[1] * cfg.c_molar / rho_cp

    if cfg.variant == "tv":
        decay = np.exp(-cfg.decay_rate * np.asarray(ts, dtype=float))
    else:
        decay = 1.0

    aA, aB, aC = cfg.volatility
    xc3 = 1.0 - xa3 - xb3
    denom = aA * xa3 + aB * xb3 + aC * xc3
    xar, xbr, xcr = aA * xa3 / denom, aB * xb3 / denom, aC * xc3 / denom
    r11 = decay * k1 * np.exp(-E1 / (R * T1))
    r21 = decay * k2 * np.exp(-E2 / (R * T1))
    r12 = decay * k1 * np.exp(-E1 / (R * T2))
    r22 = decay * k2 * np.exp(-E2 / (R * T2))

    d = np.empty_like(s)
    d[:, 0] = F10 / V1 * (xa10 - xa1) + Fr / V1 * (xar - xa1) - r11 * xa1
    d[:, 1] = F10 / V1 * (0.0 - xb1) + Fr / V1 * (xbr - xb1) + r11 * xa1 - r21 * xb1
    d[:, 2] = (
        F10 / V1 * (T10 - T1)
        + Fr / V1 * (T3 - T1)
        + beta1 * r11 * xa1
        + beta2 * r21 * xb1
        + q[:, 0] / (rho_cp * V1)
    )
    d[:, 3] = F1 / V2 * (xa1 - xa2) + F20 / V2 * (xa20 - xa2) - r12 * xa2
    d[:, 4] = F1 / V2 * (xb1 - xb2) + F20 / V2 * (0.0 - xb2) + r12 * xa2 - r22 * xb2
    d[:, 5] = (
        F1 / V2 * (T1 - T2)
        + F20 / V2 * (T20 - T2)
        + beta1 * r12 * xa2
        + beta2 * r22 * xb2
        + q[:, 1] / (rho_cp * V2)
    )
    d[:, 6] = F2 / V3 * (xa2 - xa3) - (Fr + Fp) / V3 * (xar - xa3)
    d[:, 7] = F2 / V3 * (xb2 - xb3) - (Fr + Fp) / V3 * (xbr - xb3)
    hvapA, hvapB, hvapC = cfg.vap_dh
    d[:, 8] = (
        F2 / V3 * (T2 - T3)
        + q[:, 2] / (rho_cp * V3)
        + (Fr + Fp)
        * cfg.c_molar
        / (rho_cp * V3)
        * (xar * hvapA + xbr * hvapB + xcr * hvapC)
    )
    return d


def deriv_oracle(cfg, states, controls, ts):
    """The term-by-term balance of ``cfg``'s system."""
    if cfg.system == "cartpole":
        return cartpole_deriv_oracle(cfg, states, controls, ts)
    return rscp_deriv_oracle(cfg, states, controls, ts)


def sample_excitation(cfg, rng):
    """Per-step uniform excitation over the control box."""
    return rng.uniform(cfg.control_low, cfg.control_high)


def run_excitation_episode(cfg, rng, mode="train"):
    """Roll one episode step by step to a termination or the mode's
    horizon; returns (states (L+1, n), controls (L, m), reason)."""
    horizon = cfg.train_horizon if mode == "train" else cfg.test_horizon
    state = dg.sample_initial_state(cfg, rng)
    t = np.zeros(1)
    states = [state]
    controls = []
    step = 0
    while True:
        code = sim.check_termination_batch(cfg, state[None])[0]
        if step >= horizon or code:
            break
        u = sim.clip_control(cfg, sample_excitation(cfg, rng))
        x, t = sim.step_euler(cfg, state[None], u[None], t)
        state = x[0]
        states.append(state)
        controls.append(u)
        step += 1
    return (
        np.asarray(states),
        np.asarray(controls).reshape(len(controls), -1),
        "horizon" if step >= horizon else sim.TERM_REASONS[code],
    )


def encode_history_full(w, params, states_raw, controls_raw):
    """(bundle, current latent) of raw (B, H, .) histories with all H
    states normalized and encoded; the last ``conv_kernel`` latents then go
    to ``model.generate_operators``. The oracle for ``model.encode_history``,
    which encodes only those."""
    h = params.hyper
    B, H = states_raw.shape[:2]
    xn = (states_raw - params.state_mean) / params.state_std
    z_all = model.encode_batch(w, xn.reshape(-1, h.state_dim))
    z_hist = ad.reshape(z_all, (B, H, h.latent_dim))
    z_tail = z_hist[:, H - h.conv_kernel :, :]
    return model.generate_operators(w, params, z_tail, controls_raw), z_hist[:, -1, :]


def loss_value(params, states_raw, controls_raw):
    """Scalar ``model.loss_forward`` loss of a window batch."""
    _, _, loss, _, _ = model.loss_forward(params, states_raw, controls_raw)
    return float(loss.value)


def mse_value(params, states_raw, controls_raw):
    """Scalar untaped ``model.forecast_mse`` of a window batch."""
    mse, _ = model.forecast_mse(params.arrays, params, states_raw, controls_raw)
    return float(mse)


def val_loss(params, ds, batch=512):
    """Size-weighted mean forecast MSE of the val split."""
    states, controls = ds.subset(dg.SPLIT_VAL)
    total = 0.0
    for start in range(0, states.shape[0], batch):
        sl = slice(start, start + batch)
        b = states[sl].shape[0]
        total += mse_value(params, states[sl], controls[sl]) * b
    return total / max(states.shape[0], 1)


def stepwise_loss(params, states_raw, controls_raw):
    """(loss, mse, penalty or None, gradients keyed by name) of the training
    loss with the latent recurrence taped one horizon step at a time: each
    step forms its own coupling factor (one exponential of that step's
    generators, or of its augmented stack on the rank path), applies it,
    decodes, and takes its own hinge call on its A_disc."""
    h = params.hyper
    H, T, dz = h.lookback, h.horizon, h.latent_dim
    tape = Tape()
    w = {k: tape.leaf(a) for k, a in params.arrays.items()}
    bundle, z = model.encode_history(w, params, states_raw[:, :H], controls_raw[:, :H])
    mu, sd = bundle.control_mean[:, None, :], bundle.control_std[:, None, :]
    u_pred = (controls_raw[:, H - 1 : H + T - 1, :] - mu) / sd
    targets = (states_raw[:, H:, :] - params.state_mean) / params.state_std
    cpl = model.forward_coupling(w)
    e_d, b_phi = bundle.held
    B, m = u_pred.shape[0], h.control_dim
    mse = pen = None
    for k in range(T):
        u_k = u_pred[:, k, :]
        drift = e_d * z + ad.matvec(b_phi, u_k)
        if cpl is None:
            z, fac = drift, None
        elif isinstance(cpl, model.LowRank):
            s2, phi_h = cpl.phi_half(u_k, h.coupling_period)
            moved = ad.matvec(phi_h, ad.matvec(cpl.right_t, drift))
            z = drift + ad.matvec(cpl.left, s2 * moved)
            fac = cpl.factor(s2, phi_h)
        else:
            P = ad.matmul(u_k * h.coupling_period, ad.reshape(cpl, (m, dz * dz)))
            fac = ad.expm(ad.reshape(P, (B, dz, dz)))
            z = ad.matvec(fac, drift)
        err = ad.matvec(bundle.decoder, z) - targets[:, k, :]
        sq = ad.vsum(err * err, axis=1)
        mse = sq if mse is None else mse + sq
        if fac is not None and h.stability_weight > 0.0:
            p = ad.eig_penalty(fac * ad.reshape(e_d, (B, 1, dz)), h.stability_margin)
            pen = p if pen is None else pen + p
    loss = mse = ad.vmean(mse * (1.0 / T))
    if pen is not None:
        pen = ad.vmean(pen * (1.0 / T))
        loss = mse + h.stability_weight * pen
    grads = backward(tape, loss)
    penalty = None if pen is None else float(pen.value)
    return float(loss.value), float(mse.value), penalty, {k: grads[w[k]] for k in w}
