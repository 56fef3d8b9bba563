"""Latent dynamics model: encoder, history-conditioned operator
generation, low-rank control coupling, split-form discretization, and the
multi-step training loss.

The latent step for a history-generated operator bundle is

    z+ = exp(P(u) * T) @ (exp(a .* delta) .* z + B_phi @ u),
    P(u) = sum_j u_j G_j,   G_j = L_j R_j^T,
    B_phi[n, j] = phi1(a_n, delta_n) * Bcont[n, j],

i.e. the per-mode diagonal hold step, premultiplied by the exponential of
the control-weighted coupling generator over a fixed coupling period T.
A bundle forms exp(a .* delta) and B_phi once, as ``OperatorBundle.held``.
With zero coupling the premultiplier is exactly the identity and the
model coincides bit-for-bit with the ``linear`` variant, which never
forms it. The decoded estimate is ``xhat = C z`` in normalized
observation space.

The coupling is low-rank: L_j and R_j are dz x r. The ``ARCH`` presets
keep it under 1% of the linear model's parameters, as the paper does:
rank 1 on rscp (90 of 18,061) and rank 3 on cartpole (48 of 6,032).
With U = T [u_1 L_1 ... u_m L_m] and V = [R_1 ... R_m], both dz x k for
k = m r, the generator is P(u) T = U V^T, so

    exp(P(u) T) = I + U phi1(X) V^T,   X = V^T U   (k x k),

where phi1(X) = sum_j X^j / (j+1)! is 2x the top-right block of
exp([[X, I/2], [0, 0]]) (Higham, Functions of Matrices, SIAM 2008). The
1/2 keeps a small X free of squarings and the factor 2 exact.

``rollout``, the one latent recurrence of training, evaluation and
control, takes every step's factor from one exponential call. The
training and evaluation forward takes the rank path iff 4k <= dz
(``forward_coupling`` decides it from the factor shapes alone): rscp at
rank 1 takes it, cartpole's preset and every full-rank model keep the
dz x dz exponential of ``generator``'s P(u) T. On the rank path a step
applies the factor as drift + U (phi1(X) (V^T drift)), and no dz x dz
factor is formed for the recurrence. The stability hinge first bounds
every step's spectral radius from the factors, by the row sums
e_d + |U| |phi1(X)| (|V^T| e_d) that bound those of
|A_disc| = |(I + U phi1(X) V^T) diag(e_d)|, and forms A_disc only for
the steps that bound cannot clear (``LowRank.certified``,
``LowRank.hinge``). The closed loop passes the ``coupling`` tensors, so
it always takes the dz x dz path.

Conventions:

* States are z-scored with dataset statistics at the model boundary;
  the decoder emits normalized observations.
* Controls are instance-normalized per history window (mean/std over the
  window's controls). The per-channel std is floored at ``floor_frac``
  times the training-split control std so that a constant warmup history
  cannot produce a degenerate scale; the floor is inactive on excitation
  data.
* Only the last ``conv_kernel`` lookback states are encoded, the ones the
  operator generator's convolution reads; all H controls set the instance
  normalization.
* The operator bundle generated at a decision step is held fixed over
  the whole prediction horizon.
* A history is the last H (state, control) pairs; the current state is
  the last state of the history, and the first rollout control is the
  control slotted at that final pair.
"""

import dataclasses
import functools
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import results
from .numerics import autodiff as ad
from .numerics import dense

_MAGIC = b"BKCP"
_VERSION = 1

#: fraction of the training-split control std used as the instance floor
FLOOR_FRAC = 0.05


class ContractViolation(ValueError):
    """Caller broke an interface precondition."""


@dataclass(frozen=True)
class ModelHyper:
    kind: str  # "linear" | "bilinear"
    state_dim: int
    control_dim: int
    latent_dim: int
    rank: int
    conv_kernel: int
    hidden: int = 64
    lookback: int = 30
    horizon: int = 30
    coupling_period: float = 1.0
    stability_weight: float = 0.01
    stability_margin: float = 0.05

    def __post_init__(self):
        if not 1 <= self.conv_kernel <= self.lookback:
            raise ContractViolation(f"conv_kernel {self.conv_kernel} outside 1..lookback")


#: architecture presets keyed by simulator system; each rank keeps the
#: coupling under 1% of the linear model's parameters
ARCH = {
    "cartpole": dict(latent_dim=8, rank=3, conv_kernel=15),
    "rscp": dict(latent_dim=15, rank=1, conv_kernel=5),
}


def hyper_for(system, kind, **overrides):
    """The ``ARCH`` preset of ``system`` with ``overrides``; unless the rank
    is among them, the preset's rank is capped at the latent dim."""
    cfg = dict(ARCH[system])
    n, m = (4, 1) if system == "cartpole" else (9, 3)
    cfg.update(overrides)
    if "rank" not in overrides:
        cfg["rank"] = min(cfg["rank"], cfg["latent_dim"])
    return ModelHyper(kind=kind, state_dim=n, control_dim=m, **cfg)


def _param_spec(h):
    """Declaration order of the parameter arrays (checkpoint layout)."""
    n, m, dz, hid = h.state_dim, h.control_dim, h.latent_dim, h.hidden
    ch = dz + m
    spec = [
        ("enc_w1", (n, hid)),
        ("enc_b1", (hid,)),
        ("enc_w2", (hid, dz)),
        ("enc_b2", (dz,)),
        ("a_raw", (dz,)),
        ("conv_k", (h.conv_kernel, ch)),
        ("conv_b", (ch,)),
        ("delta_w1", (ch, hid)),
        ("delta_b1", (hid,)),
        ("delta_w2", (hid, dz)),
        ("delta_b2", (dz,)),
        ("bmat_w1", (ch, hid)),
        ("bmat_b1", (hid,)),
        ("bmat_w2", (hid, dz * m)),
        ("bmat_b2", (dz * m,)),
        ("dec_w1", (ch, hid)),
        ("dec_b1", (hid,)),
        ("dec_w2", (hid, n * dz)),
        ("dec_b2", (n * dz,)),
    ]
    if h.kind == "bilinear":
        spec += [("cpl_l", (m, dz, h.rank)), ("cpl_r", (m, dz, h.rank))]
    return spec


@dataclass
class ModelParams:
    hyper: ModelHyper
    arrays: dict
    state_mean: np.ndarray
    state_std: np.ndarray
    control_floor: np.ndarray  # per-channel instance-normalization floor
    preset: str = ""
    seed: int = 0

    def copy(self):
        return dataclasses.replace(
            self,
            arrays={k: v.copy() for k, v in self.arrays.items()},
            state_mean=self.state_mean.copy(),
            state_std=self.state_std.copy(),
            control_floor=self.control_floor.copy(),
        )

    def linear_twin(self):
        """Linear-variant copy sharing every non-coupling weight."""
        arrays = {
            k: v for k, v in self.arrays.items() if k not in ("cpl_l", "cpl_r")
        }
        return dataclasses.replace(
            self, hyper=dataclasses.replace(self.hyper, kind="linear"), arrays=arrays
        ).copy()


def init_params(hyper, state_mean, state_std, control_train_std, preset="", seed=0):
    """Seeded initialization.

    Weights are fan-in-scaled normals; the pre-activation diagonal draws
    from U(-1, -0.1) and the timescale head's output bias starts at 1, so
    every initial mode satisfies exp(a * delta) < 1 with margin and the
    stability hinge starts inactive. The left coupling factor is zero and
    the right factor is 1e-4-scale noise: the coupling product (and the
    whole model) starts as an exact copy of the linear variant while the
    product rule still passes gradient to the left factor.
    """
    rng = np.random.default_rng(seed)
    arrays = {}
    for name, shape in _param_spec(hyper):
        if name == "a_raw":
            arrays[name] = rng.uniform(-1.0, -0.1, size=shape)
        elif name == "delta_b2":
            arrays[name] = np.ones(shape)
        elif name == "cpl_l":
            arrays[name] = np.zeros(shape)
        elif name == "cpl_r":
            arrays[name] = 1e-4 * rng.standard_normal(shape)
        elif name.endswith(("_b1", "_b2", "conv_b")):
            arrays[name] = np.zeros(shape)
        else:
            fan_in = shape[0] if len(shape) > 1 else 1
            arrays[name] = rng.standard_normal(shape) / np.sqrt(fan_in)
    return ModelParams(
        hyper=hyper,
        arrays=arrays,
        state_mean=np.asarray(state_mean, dtype=float),
        state_std=np.asarray(state_std, dtype=float),
        control_floor=FLOOR_FRAC * np.asarray(control_train_std, dtype=float),
        preset=preset,
        seed=seed,
    )


def params_for_dataset(ds, kind, seed=0, **overrides):
    system = ds.preset.split("-")[0]
    hyper = hyper_for(system, kind, **overrides)
    return init_params(
        hyper,
        ds.state_mean,
        ds.state_std,
        ds.control_std,
        preset=ds.preset,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# containers


@dataclass(frozen=True)
class OperatorBundle:
    """Per-decision-step generated quantities: tape Vars from the training
    forward, ndarrays from the forward on the parameter arrays (the only
    kind ``single`` and ``checksum`` take). The bundle is frozen, so its
    ``held`` step, formed on first read, stays valid for its lifetime."""

    a_act: object  # (dz,) activated diagonal, <= 1 elementwise
    delta: object  # (B, dz) positive per-mode timescales
    b_cont: object  # (B, dz, m) continuous-time input map
    decoder: object  # (B, n, dz)
    control_mean: np.ndarray  # (B, m)
    control_std: np.ndarray  # (B, m), floored

    def _arrays(self):
        """The fields in declaration order."""
        return [self.a_act, self.delta, self.b_cont, self.decoder,
                self.control_mean, self.control_std]

    @functools.cached_property
    def held(self):
        """(e_d, B_phi): the diagonal hold step exp(a .* delta) and the held
        input map phi1(a, delta) .* Bcont, formed on first read."""
        e_d = ad.exp(self.a_act * self.delta)
        b_phi = ad.phi1(self.a_act, self.delta)
        return e_d, ad.reshape(b_phi, b_phi.shape + (1,)) * self.b_cont

    def single(self):
        """Drop the batch axis (bundle generated for one history)."""
        a_act, *batched = self._arrays()
        return OperatorBundle(a_act, *(x[0] for x in batched))

    def checksum(self):
        import hashlib

        h = hashlib.sha256()
        for arr in self._arrays():
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# the forward; ``w`` maps each parameter name to its tape leaf (training)
# or to its array (inference)


def _mlp(x, w1, b1, w2, b2):
    return ad.matmul(ad.tanh(ad.matmul(x, w1) + b1), w2) + b2


def encode_batch(w, x_norm):
    """(B, n) normalized states -> (B, dz) latents."""
    return _mlp(x_norm, w["enc_w1"], w["enc_b1"], w["enc_w2"], w["enc_b2"])


def generate_operators(w, params, z_tail, u_hist_raw):
    """History (z, u) pairs -> OperatorBundle.

    ``z_tail`` holds the (B, k, dz) encoded last k = ``conv_kernel``
    lookback states, ``u_hist_raw`` the (B, H, m) raw controls (plain
    data), all H of which set the instance normalization. The generated
    fields are tape Vars when ``w`` or ``z_tail`` are, ndarrays otherwise.
    The depthwise causal convolution is evaluated at the emission step,
    i.e. on the k trailing positions of the channel sequence.
    """
    h, k = params.hyper, params.hyper.conv_kernel
    if z_tail.shape[1] != k or u_hist_raw.shape[1] != h.lookback:
        raise ContractViolation(
            f"history must hold the last {k} encoded states and {h.lookback} "
            f"controls, got {z_tail.shape[1]} states / {u_hist_raw.shape[1]} controls"
        )
    B = u_hist_raw.shape[0]
    mu = u_hist_raw.mean(axis=1)
    sd = np.maximum(u_hist_raw.std(axis=1), params.control_floor)
    u_tail_n = (u_hist_raw[:, h.lookback - k :] - mu[:, None, :]) / sd[:, None, :]

    tail = ad.concat([z_tail, u_tail_n], axis=2)  # (B, k, ch)
    feat = ad.tanh(ad.vsum(tail * w["conv_k"], axis=1) + w["conv_b"])

    delta = ad.softplus(
        _mlp(feat, w["delta_w1"], w["delta_b1"], w["delta_w2"], w["delta_b2"])
    )
    b_cont = ad.reshape(
        _mlp(feat, w["bmat_w1"], w["bmat_b1"], w["bmat_w2"], w["bmat_b2"]),
        (B, h.latent_dim, h.control_dim),
    )
    decoder = ad.reshape(
        _mlp(feat, w["dec_w1"], w["dec_b1"], w["dec_w2"], w["dec_b2"]),
        (B, h.state_dim, h.latent_dim),
    )
    a_act = ad.neg_celu(w["a_raw"])
    return OperatorBundle(a_act, delta, b_cont, decoder, mu, sd)


class LowRank(NamedTuple):
    """The coupling on the rank path, P(u) T = U V^T with U = left * s(u)
    and V^T = right_t (see the module docstring). The fields are tape
    Vars in the training forward and ndarrays otherwise; the methods work
    on both, for controls with any leading axes (...)."""

    left: object  # (dz, k) [L_1 ... L_m]
    right_t: object  # (k, dz) [R_1 ... R_m]^T
    inner: object  # (k, k) V^T [L_1 ... L_m]

    def augmented(self, u_n, period):
        """(s, [[X, I/2], [0, 0]]) for (..., m) controls: the (..., k) column
        scales s of U = left * s (T u_j on each of channel j's r columns)
        and the (..., 2k, 2k) augmented stack, where X = V^T U = inner * s."""
        lead, m = u_n.shape[:-1], u_n.shape[-1]
        k = self.inner.shape[0]
        s = period * np.repeat(u_n, k // m, axis=-1)
        half = np.broadcast_to(0.5 * np.eye(k), lead + (k, k))
        top = ad.concat([self.inner * s[..., None, :], half], axis=-1)
        return s, ad.concat([top, np.zeros(lead + (k, 2 * k))], axis=-2)

    def phi_half(self, u_n, period):
        """(2 s, phi1(X) / 2) for (..., m) controls, from one batched
        exponential of the augmented stack. The 2 rides on U's column
        scales, so every product below carries it exactly."""
        s, aug = self.augmented(u_n, period)
        k = s.shape[-1]
        return 2.0 * s, ad.expm(aug)[..., :k, k:]

    def factor(self, s2, phi_h):
        """(..., dz, dz) exp(P T) = I + U phi1(X) V^T."""
        u2 = self.left * s2[..., None, :]
        return ad.matmul(ad.matmul(u2, phi_h), self.right_t) + np.eye(self.left.shape[0])

    def certified(self, s2, phi_h, e_d, thresh):
        """(T, B) mask of the steps certified to have every row sum of
        |A_disc|, A_disc = exp(P T) diag(e_d), below ``thresh``, so that no
        eigenvalue modulus reaches it; from (T, B, k) ``s2``, (T, B, k, k)
        ``phi_h`` and (B, dz) ``e_d``, with no dz x dz matrix formed.

        With U2 = U diag(s2) and D = diag(e_d), the row sums of
        |(I + U2 phi_h V^T) D| are at most e_d + |U2| |phi_h| (|V^T| e_d).
        The relative slack of 1e-12 covers the rounding of both sides, so a
        certified step's A_disc, formed in floating point, also fails the
        row-sum prefilter of ``eig_penalty``. A non-finite factor gives a
        NaN bound and leaves its step uncertified."""
        left, phi, right_t, e = (
            np.abs(ad.plain(x)) for x in (self.left, phi_h, self.right_t, e_d)
        )
        reach = np.abs(s2) * (phi @ (e @ right_t.T)[..., None])[..., 0]
        bound = (e + reach @ left.T).max(axis=-1)
        return bound * (1.0 + 1e-12) < thresh

    def hinge(self, s2, phi_h, e_d, margin):
        """(T, B) stability-hinge sums ``eig_penalty`` gives the steps'
        A_disc, of which only the steps that ``certified`` cannot clear are
        formed: one ``eig_penalty`` call on their sub-stack, its sums put
        back at their (t, b) positions and exact zeros at the others."""
        t, b = np.nonzero(~self.certified(s2, phi_h, e_d, 1.0 - margin))
        e_sub = ad.reshape(e_d[b], (b.size, 1, e_d.shape[-1]))
        pens = ad.eig_penalty(self.factor(s2[t, b], phi_h[t, b]) * e_sub, margin)
        # position 0 holds the certified steps' zero
        at = np.zeros(s2.shape[:-1], dtype=int)
        at[t, b] = np.arange(1, t.size + 1)
        return ad.concat([np.zeros(1), pens])[at]

    def apply(self, s2, phi_h, drift):
        """exp(P T) drift = drift + U (phi1(X) (V^T drift)) for (..., dz, 1)
        column drifts, by matrix-vector products."""
        return drift + self.left @ (s2[..., None] * (phi_h @ (self.right_t @ drift)))


def coupling(w):
    """(m, dz, dz) coupling tensors G_j = L_j R_j^T, or None for linear."""
    if "cpl_l" not in w:
        return None
    return ad.matmul(w["cpl_l"], ad.transpose(w["cpl_r"], (0, 2, 1)))


def forward_coupling(w):
    """The coupling as the training and evaluation forward applies it, or
    None for linear.

    The one place the path is chosen, from the factor shapes alone: with
    k = m r columns in U, the ``LowRank`` factors iff 4k <= dz, otherwise
    the ``coupling`` tensors of the dz x dz exponential.
    """
    if "cpl_l" not in w:
        return None
    L, R = w["cpl_l"], w["cpl_r"]
    m, dz, r = L.shape
    if 4 * m * r > dz:
        return coupling(w)
    left = ad.reshape(ad.transpose(L, (1, 0, 2)), (dz, m * r))
    right_t = ad.reshape(ad.transpose(R, (0, 2, 1)), (m * r, dz))
    return LowRank(left, right_t, ad.matmul(right_t, left))


def g_norm(params):
    """Aggregate coupling Frobenius norm sqrt(sum_j ||G_j||_F^2)."""
    G = coupling(params.arrays)
    if G is None:
        return 0.0
    return float(np.sqrt(np.sum(G**2)))


def generator(G, u_n, period):
    """(..., dz, dz) coupling generators P(u) T of (..., m) normalized
    controls and the (m, dz, dz) tensors G; the one generator product of
    ``rollout``, ``discretize`` and ``scp_mpc.linearize``."""
    m, dz = G.shape[0], G.shape[-1]
    u = np.asarray(u_n, dtype=float)
    return ad.reshape((u * period) @ ad.reshape(G, (m, dz * dz)), u.shape[:-1] + (dz, dz))


def rollout(z0, u_n, bundle, cpl, period, margin=None):
    """The latent recurrence under a frozen bundle: (latents, hinge sums).

    ``u_n`` holds (B, T, m) normalized controls and ``z0`` the (B, dz)
    start, or (T, m) and (dz,) for a single bundle; ``cpl`` is
    ``forward_coupling(w)``, the ``coupling`` tensors or None. It records
    on tape Vars and computes on arrays. Returns the (T + 1, B, dz)
    latents, step first, and, if a ``margin`` is given and the model is
    coupled, the (T, B) stability-hinge sums ``eig_penalty`` gives each
    step's A_disc = exp(P(u_k) T) diag(exp(a .* delta)) (else None; on the
    rank path the bundle must be batched). Every step's coupling factor
    comes from one exponential call, and B_phi u of every step from one
    product, before the step loop; each step is then
    factor_k (e_d * z + B_phi u_k). The dz x dz path hands its factor
    stack times e_d to ``eig_penalty``; the rank path forms A_disc only for
    the steps ``LowRank.certified`` cannot clear (``LowRank.hinge``).
    """
    u_t = np.swapaxes(np.asarray(u_n, dtype=float), 0, -2)  # (T, B, m)
    e_d, b_phi = bundle.held
    # the loop runs on (B, dz, 1) columns, so that on arrays each step's
    # products are numpy's own, with no tape dispatch
    col = e_d.shape + (1,)
    e_dc, drive = ad.reshape(e_d, col), b_phi @ u_t[..., None]
    low = isinstance(cpl, LowRank)
    if low:
        s2, phi_h = cpl.phi_half(u_t, period)
    elif cpl is not None:
        e_p = ad.expm(generator(cpl, u_t, period))
    z = ad.reshape(z0, col)
    lat = [z]
    for k in range(u_t.shape[0]):
        drift = e_dc * z + drive[k]
        if low:
            z = cpl.apply(s2[k], phi_h[k], drift)
        elif cpl is not None:
            z = e_p[k] @ drift
        else:
            z = drift
        lat.append(z)
    lat = ad.reshape(ad.stack(lat), (len(lat),) + e_d.shape)
    if cpl is None or margin is None:
        return lat, None
    if low:
        return lat, cpl.hinge(s2, phi_h, e_d, margin)
    a_disc = e_p * ad.reshape(e_dc, e_d.shape[:-1] + (1, e_d.shape[-1]))
    return lat, ad.eig_penalty(a_disc, margin)


def encode_history(w, params, states_raw, controls_raw):
    """(bundle, current latent) of raw (B, H, .) histories: the last
    ``conv_kernel`` states, the only ones ``generate_operators`` reads, are
    normalized and encoded, then it runs. The one path from raw history to
    bundle for training, evaluation and control."""
    h, k = params.hyper, params.hyper.conv_kernel
    xn = (states_raw[:, -k:] - params.state_mean) / params.state_std
    z_flat = encode_batch(w, xn.reshape(-1, h.state_dim))
    z_tail = ad.reshape(z_flat, (states_raw.shape[0], k, h.latent_dim))
    return generate_operators(w, params, z_tail, controls_raw), z_tail[:, -1, :]


def forecast_mse(w, params, states_raw, controls_raw, margin=None):
    """(horizon MSE, hinge sums) of a batch of (H + T)-step windows, in
    normalized space; the hinge sums are ``rollout``'s (T, B) ones, None
    for linear and unless a ``margin`` is given (only the training loss
    gives one). On ``params.arrays`` it builds no tape and returns
    ndarrays."""
    h = params.hyper
    H, T = h.lookback, h.horizon
    states_raw = np.asarray(states_raw, dtype=float)
    controls_raw = np.asarray(controls_raw, dtype=float)
    if states_raw.shape[1] != H + T:
        raise ContractViolation(
            f"windows must be {H + T} steps long, got {states_raw.shape[1]}"
        )
    bundle, z0 = encode_history(w, params, states_raw[:, :H], controls_raw[:, :H])
    mu, sd = bundle.control_mean[:, None, :], bundle.control_std[:, None, :]
    u_pred_n = (controls_raw[:, H - 1 : H + T - 1, :] - mu) / sd
    lat, pens = rollout(
        z0, u_pred_n, bundle, forward_coupling(w), h.coupling_period, margin=margin
    )
    # (T, B, n) errors, step first: the sum over steps adds them in order
    targets = np.swapaxes(states_raw[:, H:, :], 0, 1)
    targets = (targets - params.state_mean) / params.state_std
    err = ad.matvec(bundle.decoder, lat[1:]) - targets
    total = ad.vsum(ad.vsum(err * err, axis=2), axis=0)
    return ad.vmean(total * (1.0 / T)), pens


def loss_forward(params, states_raw, controls_raw):
    """Record the training loss: ``forecast_mse`` on tape leaves plus, for
    the bilinear variant, the spectral hinge of every step's A_disc, the
    (T, B) sums of ``rollout`` (one ``eig_penalty`` call on the stack, or
    on the rank path's uncertified steps). Returns (tape, leaves keyed by
    name, loss Var, mse Var, penalty Var or None)."""
    h = params.hyper
    tape = ad.Tape()
    w = {k: tape.leaf(a) for k, a in params.arrays.items()}
    margin = h.stability_margin if h.stability_weight > 0.0 else None
    mse, pens = forecast_mse(w, params, states_raw, controls_raw, margin=margin)
    loss, penalty = mse, None
    if pens is not None:
        # (T, B) hinge sums, step first like the errors
        pen_total = ad.vsum(pens, axis=0)
        penalty = ad.vmean(pen_total * (1.0 / h.horizon))
        loss = mse + h.stability_weight * penalty
    return tape, w, loss, mse, penalty


def loss_and_grads(params, states_raw, controls_raw):
    """Loss plus gradient arrays keyed by parameter name."""
    tape, w, loss, _, _ = loss_forward(params, states_raw, controls_raw)
    from .numerics import backward

    grads = backward(tape, loss)
    return float(loss.value), {k: grads[w[k]] for k in params.arrays}


# ---------------------------------------------------------------------------
# the closed loop's single-bundle helpers (ndarrays)


def discretize(bundle, G, u_n, period):
    """One-step state matrix A_disc = exp(P(u) T) diag(exp(a .* delta)) of
    a single (unbatched) bundle and (m,) normalized controls; with no
    coupling the factor is skipped entirely (identically the identity)."""
    e_d, _ = bundle.held
    if G is None:
        return np.diag(e_d)
    return dense.matrix_exp(generator(G, u_n, period)) * e_d


def bundle_for_history(params, states_raw, controls_raw):
    """Single-history bundle plus the current latent (ndarrays):
    ``encode_history`` on the parameter arrays for a batch of one, with no
    tape.

    ``states_raw``/``controls_raw`` are the last H (state, control)
    pairs in raw units; the current state is the final history state.
    """
    h = params.hyper
    states_raw = np.asarray(states_raw, dtype=float)
    if states_raw.shape != (h.lookback, h.state_dim):
        raise ContractViolation(
            f"history must hold exactly {h.lookback} states of dim "
            f"{h.state_dim}, got {states_raw.shape}"
        )
    controls_raw = np.asarray(controls_raw, dtype=float)
    bundle, z0 = encode_history(params.arrays, params, states_raw[None], controls_raw[None])
    return bundle.single(), z0[0]


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(params, path, meta=None):
    h = params.hyper
    hyper = dataclasses.asdict(h)
    del hyper["kind"]
    spec = _param_spec(h)
    header = {
        "kind": h.kind,
        "preset": params.preset,
        "seed": params.seed,
        "hyper": hyper,
        "state_mean": params.state_mean.tolist(),
        "state_std": params.state_std.tolist(),
        "control_floor": params.control_floor.tolist(),
        "params": [[name, list(shape)] for name, shape in spec],
    }
    payload = [(params.arrays[name], "<f8") for name, _ in spec]
    results.write_container(path, _MAGIC, _VERSION, header, payload)
    if meta is not None:
        with open(f"{path}.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True, indent=1)


def _checked_layout(header):
    """The payload layout of a checkpoint header, whose parameter list
    must be the ``_param_spec`` of its kind and hyperparameters and whose
    statistics must have their dimensions' lengths."""
    h = ModelHyper(kind=header["kind"], **header["hyper"])
    spec = _param_spec(h)
    if header["params"] != [[name, list(shape)] for name, shape in spec]:
        raise results.FormatError(
            f"checkpoint parameter list is not that of a {header['kind']} "
            "model of its hyperparameters"
        )
    for key, dim in (("state_mean", h.state_dim), ("state_std", h.state_dim),
                     ("control_floor", h.control_dim)):
        if (got := len(header[key])) != dim:
            raise results.FormatError(f"checkpoint {key} has {got} entries, not {dim}")
    return [(name, "<f8", shape) for name, shape in spec]


def load_checkpoint(path):
    header, arrays = results.read_container(path, _MAGIC, _VERSION, _checked_layout)
    return ModelParams(
        hyper=ModelHyper(kind=header["kind"], **header["hyper"]),
        arrays=arrays,
        state_mean=np.asarray(header["state_mean"]),
        state_std=np.asarray(header["state_std"]),
        control_floor=np.asarray(header["control_floor"]),
        preset=header["preset"],
        seed=header["seed"],
    )
