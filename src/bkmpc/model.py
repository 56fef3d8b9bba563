"""Latent dynamics model: encoder, history-conditioned operator
generation, low-rank control coupling, split-form discretization, and the
multi-step training loss.

The latent step for a history-generated operator bundle is

    z+ = exp(P(u) * T) @ (exp(a .* delta) .* z + B_phi @ u),
    P(u) = sum_j u_j G_j,   G_j = L_j R_j^T,
    B_phi[n, j] = phi1(a_n, delta_n) * Bcont[n, j],

i.e. the per-mode diagonal hold step, premultiplied by the exponential of
the control-weighted coupling generator over a fixed coupling period T.
With zero coupling the premultiplier is exactly the identity and the
model coincides bit-for-bit with the ``linear`` variant, which never
forms it. The decoded estimate is ``xhat = C z`` in normalized
observation space.

Conventions:

* States are z-scored with dataset statistics at the model boundary;
  the decoder emits normalized observations.
* Controls are instance-normalized per history window (mean/std over the
  window's controls). The per-channel std is floored at ``floor_frac``
  times the training-split control std so that a constant warmup history
  cannot produce a degenerate scale; the floor is inactive on excitation
  data.
* The operator bundle generated at a decision step is held fixed over
  the whole prediction horizon.
* A history is the last H (state, control) pairs; the current state is
  the last state of the history, and the first rollout control is the
  control slotted at that final pair.
"""

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .numerics import autodiff as ad
from .numerics import dense

_MAGIC = b"BKCP"
_VERSION = 1

#: fraction of the training-split control std used as the instance floor
FLOOR_FRAC = 0.05


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


#: architecture presets keyed by simulator system
ARCH = {
    "cartpole": dict(latent_dim=8, rank=8, conv_kernel=15),
    "rscp": dict(latent_dim=15, rank=15, conv_kernel=5),
}


def hyper_for(system, kind, **overrides):
    cfg = dict(ARCH[system])
    n, m = (4, 1) if system == "cartpole" else (9, 3)
    cfg.update(overrides)
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

    def names(self):
        return [name for name, _ in _param_spec(self.hyper)]

    def copy(self):
        return ModelParams(
            hyper=self.hyper,
            arrays={k: v.copy() for k, v in self.arrays.items()},
            state_mean=self.state_mean.copy(),
            state_std=self.state_std.copy(),
            control_floor=self.control_floor.copy(),
            preset=self.preset,
            seed=self.seed,
        )

    def linear_twin(self):
        """Linear-variant copy sharing every non-coupling weight."""
        h = self.hyper
        twin_h = ModelHyper(**{**h.__dict__, "kind": "linear"})
        arrays = {
            k: v.copy()
            for k, v in self.arrays.items()
            if k not in ("cpl_l", "cpl_r")
        }
        return ModelParams(
            hyper=twin_h,
            arrays=arrays,
            state_mean=self.state_mean.copy(),
            state_std=self.state_std.copy(),
            control_floor=self.control_floor.copy(),
            preset=self.preset,
            seed=self.seed,
        )

    def normalize_states(self, x):
        return (np.asarray(x, dtype=float) - self.state_mean) / self.state_std

    def denormalize_states(self, xn):
        return np.asarray(xn, dtype=float) * self.state_std + self.state_mean


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
        elif name.endswith(("_b1", "_b2", "conv_b")) or name == "conv_b":
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


@dataclass
class OperatorBundle:
    """Per-decision-step generated quantities (tape Vars or ndarrays)."""

    a_act: object  # (dz,) activated diagonal, <= 1 elementwise
    delta: object  # (B, dz) positive per-mode timescales
    b_cont: object  # (B, dz, m) continuous-time input map
    decoder: object  # (B, n, dz)
    control_mean: np.ndarray  # (B, m)
    control_std: np.ndarray  # (B, m), floored

    def values(self):
        """ndarray view (collapses Vars; batch axis preserved)."""

        def v(x):
            return x.value if isinstance(x, ad.Var) else np.asarray(x)

        return OperatorBundle(
            v(self.a_act),
            v(self.delta),
            v(self.b_cont),
            v(self.decoder),
            np.asarray(self.control_mean),
            np.asarray(self.control_std),
        )

    def single(self):
        """Drop the batch axis (bundle generated for one history)."""
        b = self.values()
        return OperatorBundle(
            b.a_act,
            b.delta[0],
            b.b_cont[0],
            b.decoder[0],
            b.control_mean[0],
            b.control_std[0],
        )

    def checksum(self):
        import hashlib

        b = self.values()
        h = hashlib.sha256()
        for arr in (b.a_act, b.delta, b.b_cont, b.decoder, b.control_mean, b.control_std):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()[:16]


@dataclass
class DiscreteOperators:
    a_disc: np.ndarray  # (dz, dz)
    b_disc: np.ndarray  # (dz, m)


class ContractViolation(ValueError):
    """Caller broke an interface precondition."""


# ---------------------------------------------------------------------------
# tape-side forward pieces


class ParamVars:
    """Tape leaves for every parameter array, keyed like the arrays."""

    def __init__(self, tape, params):
        self.tape = tape
        self.vars = {k: tape.leaf(v) for k, v in params.arrays.items()}
        self.hyper = params.hyper

    def __getitem__(self, k):
        return self.vars[k]

    def __contains__(self, k):
        return k in self.vars


def _mlp(x, w1, b1, w2, b2):
    return ad.matmul(ad.tanh(ad.matmul(x, w1) + b1), w2) + b2


def encode_batch(pv, x_norm):
    """(B, n) normalized states -> (B, dz) latents."""
    tape = pv.tape
    x = x_norm if isinstance(x_norm, ad.Var) else tape.constant(x_norm)
    return _mlp(x, pv["enc_w1"], pv["enc_b1"], pv["enc_w2"], pv["enc_b2"])


def encode(params, x_norm):
    """Inference encoder; accepts one state or a batch."""
    tape = ad.Tape()
    pv = ParamVars(tape, params)
    x = np.atleast_2d(np.asarray(x_norm, dtype=float))
    out = encode_batch(pv, x).value
    return out[0] if np.ndim(x_norm) == 1 else out


def window_control_stats(params, u_hist_raw):
    """Instance mean/std of a (B, H, m) control history, std floored."""
    mu = u_hist_raw.mean(axis=1)
    sd = u_hist_raw.std(axis=1)
    return mu, np.maximum(sd, params.control_floor)


def generate_operators(pv, params, z_hist, u_hist_raw):
    """History (z, u) pairs -> OperatorBundle of tape Vars.

    ``z_hist`` is a (B, H, dz) Var of encoded lookback states,
    ``u_hist_raw`` the matching (B, H, m) raw controls (plain data). The
    depthwise causal convolution is evaluated at the emission step, i.e.
    on the trailing ``conv_kernel`` positions of the channel sequence.
    """
    h = params.hyper
    if z_hist.value.shape[1] != h.lookback or u_hist_raw.shape[1] != h.lookback:
        raise ContractViolation(
            f"history must hold exactly {h.lookback} (z, u) pairs, got "
            f"{z_hist.value.shape[1]} states / {u_hist_raw.shape[1]} controls"
        )
    tape = pv.tape
    B = u_hist_raw.shape[0]
    mu, sd = window_control_stats(params, u_hist_raw)
    u_hist_n = (u_hist_raw - mu[:, None, :]) / sd[:, None, :]

    k = h.conv_kernel
    seq = ad.concat([z_hist, tape.constant(u_hist_n)], axis=2)  # (B, H, ch)
    tail = seq[:, h.lookback - k :, :]
    feat = ad.tanh(ad.vsum(tail * pv["conv_k"], axis=1) + pv["conv_b"])

    delta = ad.softplus(
        _mlp(feat, pv["delta_w1"], pv["delta_b1"], pv["delta_w2"], pv["delta_b2"])
    )
    b_cont = ad.reshape(
        _mlp(feat, pv["bmat_w1"], pv["bmat_b1"], pv["bmat_w2"], pv["bmat_b2"]),
        (B, h.latent_dim, h.control_dim),
    )
    decoder = ad.reshape(
        _mlp(feat, pv["dec_w1"], pv["dec_b1"], pv["dec_w2"], pv["dec_b2"]),
        (B, h.state_dim, h.latent_dim),
    )
    a_act = ad.neg_celu(pv["a_raw"])
    return OperatorBundle(a_act, delta, b_cont, decoder, mu, sd)


def coupling_var(pv):
    """(m, dz, dz) coupling tensors G_j = L_j R_j^T, or None for linear."""
    if "cpl_l" not in pv:
        return None
    return ad.matmul(pv["cpl_l"], ad.transpose(pv["cpl_r"], (0, 2, 1)))


def coupling_matrices(params):
    if params.hyper.kind != "bilinear":
        return None
    L, R = params.arrays["cpl_l"], params.arrays["cpl_r"]
    return L @ np.swapaxes(R, 1, 2)


def g_norm(params):
    """Aggregate coupling Frobenius norm sqrt(sum_j ||G_j||_F^2)."""
    G = coupling_matrices(params)
    if G is None:
        return 0.0
    return float(np.sqrt(np.sum(G**2)))


def _coupling_factor(G, u_n, dz, period):
    """exp(P(u) T) as a tape Var; u_n is a (B, m) constant ndarray."""
    tape = G.tape
    m = u_n.shape[1]
    P = ad.reshape(
        ad.matmul(tape.constant(u_n * period), ad.reshape(G, (m, dz * dz))),
        (u_n.shape[0], dz, dz),
    )
    return ad.expm(P)


def rollout_training(pv, params, bundle, G, z0, u_pred_n):
    """T-step rollout under the frozen bundle.

    Returns (decoded list of (B, n) Vars, per-step A_disc Vars or None).
    """
    h = params.hyper
    tape = pv.tape
    B, T, _ = u_pred_n.shape
    dz = h.latent_dim
    e_d = ad.exp(bundle.a_act * bundle.delta)  # (B, dz)
    b_phi = ad.phi1(bundle.a_act, bundle.delta)
    b_diag = ad.reshape(b_phi, (B, dz, 1)) * bundle.b_cont  # (B, dz, m)

    z = z0
    decoded = []
    a_discs = [] if G is not None else None
    for k in range(T):
        u_k = u_pred_n[:, k, :]
        drift = e_d * z + ad.matvec(b_diag, tape.constant(u_k))
        if G is None:
            z = drift
        else:
            e_p = _coupling_factor(G, u_k, dz, h.coupling_period)
            z = ad.matvec(e_p, drift)
            a_discs.append(e_p * ad.reshape(e_d, (B, 1, dz)))
        decoded.append(ad.matvec(bundle.decoder, z))
    return decoded, a_discs


def loss_forward(params, states_raw, controls_raw, eval_mode=False):
    """Build the training loss on a batch of 60-step windows.

    Returns (tape, param vars, loss Var, mse Var, penalty Var or None).
    The spectral hinge is only part of the bilinear variant's objective
    and is disabled in evaluation mode.
    """
    h = params.hyper
    H, T = h.lookback, h.horizon
    states_raw = np.asarray(states_raw, dtype=float)
    controls_raw = np.asarray(controls_raw, dtype=float)
    if states_raw.shape[1] != H + T:
        raise ContractViolation(
            f"windows must be {H + T} steps long, got {states_raw.shape[1]}"
        )
    B = states_raw.shape[0]
    xn = (states_raw - params.state_mean) / params.state_std

    tape = ad.Tape()
    pv = ParamVars(tape, params)

    z_hist_flat = encode_batch(pv, xn[:, :H, :].reshape(B * H, h.state_dim))
    z_hist = ad.reshape(z_hist_flat, (B, H, h.latent_dim))
    u_hist = controls_raw[:, :H, :]
    bundle = generate_operators(pv, params, z_hist, u_hist)

    z0 = z_hist[:, H - 1, :]
    u_pred_raw = controls_raw[:, H - 1 : H + T - 1, :]
    u_pred_n = (u_pred_raw - bundle.control_mean[:, None, :]) / bundle.control_std[
        :, None, :
    ]
    G = coupling_var(pv)
    decoded, a_discs = rollout_training(pv, params, bundle, G, z0, u_pred_n)

    targets = xn[:, H:, :]
    total = None
    for k, xhat in enumerate(decoded):
        err = xhat - tape.constant(targets[:, k, :])
        sq = ad.vsum(err * err, axis=1)
        total = sq if total is None else total + sq
    mse = ad.vmean(total * (1.0 / T))

    penalty = None
    if a_discs is not None and not eval_mode and h.stability_weight > 0.0:
        pen_total = None
        for a_disc in a_discs:
            p = ad.eig_penalty(a_disc, h.stability_margin)
            pen_total = p if pen_total is None else pen_total + p
        penalty = ad.vmean(pen_total * (1.0 / T))
        loss = mse + h.stability_weight * penalty
    else:
        loss = mse

    return tape, pv, loss, mse, penalty


def loss_value(params, states_raw, controls_raw, eval_mode=False):
    _, _, loss, _, _ = loss_forward(params, states_raw, controls_raw, eval_mode)
    return float(loss.value)


def loss_and_grads(params, states_raw, controls_raw):
    """Loss plus gradient arrays keyed by parameter name."""
    tape, pv, loss, _, _ = loss_forward(params, states_raw, controls_raw)
    from .numerics import backward

    grads = backward(tape, loss)
    return float(loss.value), {k: grads[pv[k]] for k in params.arrays}


def forecast_se(params, states_raw, controls_raw):
    """Sum of squared decoded-prediction errors (normalized space) and
    the contributing element count, for pooled-MSE evaluation."""
    tape, pv, _, mse, _ = loss_forward(params, states_raw, controls_raw, eval_mode=True)
    B = np.asarray(states_raw).shape[0]
    T = params.hyper.horizon
    n = params.hyper.state_dim
    # mse is mean over batch of (1/T) sum_k ||err_k||^2; rescale to SSE
    sse = float(mse.value) * B * T
    return sse, B * T * n


# ---------------------------------------------------------------------------
# inference-side (plain ndarray) dynamics


def held_step(bundle):
    """(e_d, B_phi) of a single ndarray bundle: the diagonal hold step
    exp(a .* delta) and the held input map phi1(a, delta) .* Bcont."""
    e_d = np.exp(bundle.a_act * bundle.delta)
    b_diag = dense.phi1(bundle.a_act, bundle.delta)[:, None] * bundle.b_cont
    return e_d, b_diag


def coupling_generators(G, u_seq_n, period):
    """(T, dz, dz) coupling generators P(u_k) T of a (T, m) control
    sequence in normalized units."""
    return np.einsum("kj,jab->kab", np.asarray(u_seq_n, dtype=float), G) * period


def discretize(bundle, G, u_n, period):
    """One-step DiscreteOperators for a single (unbatched) bundle.

    ``u_n`` is in normalized control units; with no coupling the factor
    is skipped entirely (identically the identity).
    """
    e_d, b_diag = held_step(bundle)
    if G is None:
        return DiscreteOperators(np.diag(e_d), b_diag)
    e_p = dense.matrix_exp(coupling_generators(G, np.atleast_2d(u_n), period))[0]
    return DiscreteOperators(e_p * e_d[None, :], e_p @ b_diag)


def rollout(z0, u_seq_n, bundle, G, period):
    """Frozen-bundle rollout; returns (latents (T+1, dz), decoded (T, n)).

    All T coupling factors come from one batched exponential before the
    latent loop (one shared scaling exponent, see ``dense``); each step
    is then the split form e_p[k] @ (e_d * z + B_phi @ u_k). The decoder
    is applied to the T new latents in one product after the loop.
    """
    u_seq_n = np.asarray(u_seq_n, dtype=float)
    e_d, b_diag = held_step(bundle)
    e_p = None if G is None else dense.matrix_exp(coupling_generators(G, u_seq_n, period))
    lat = np.empty((u_seq_n.shape[0] + 1, e_d.shape[0]))
    lat[0] = z0
    for k, u in enumerate(u_seq_n):
        drift = e_d * lat[k] + b_diag @ u
        lat[k + 1] = drift if e_p is None else e_p[k] @ drift
    return lat, lat[1:] @ bundle.decoder.T


def bundle_for_history(params, states_raw, controls_raw):
    """Single-history bundle plus the current latent (ndarrays).

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
    xn = (states_raw - params.state_mean) / params.state_std
    tape = ad.Tape()
    pv = ParamVars(tape, params)
    z_hist = ad.reshape(
        encode_batch(pv, xn.reshape(h.lookback, h.state_dim)),
        (1, h.lookback, h.latent_dim),
    )
    u_hist = np.asarray(controls_raw, dtype=float)[None, :, :]
    bundle = generate_operators(pv, params, z_hist, u_hist).single()
    z0 = z_hist.value[0, -1, :]
    return bundle, z0


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(params, path, meta=None):
    h = params.hyper
    header = {
        "kind": h.kind,
        "preset": params.preset,
        "seed": params.seed,
        "hyper": {
            "state_dim": h.state_dim,
            "control_dim": h.control_dim,
            "latent_dim": h.latent_dim,
            "rank": h.rank,
            "conv_kernel": h.conv_kernel,
            "hidden": h.hidden,
            "lookback": h.lookback,
            "horizon": h.horizon,
            "coupling_period": h.coupling_period,
            "stability_weight": h.stability_weight,
            "stability_margin": h.stability_margin,
        },
        "state_mean": params.state_mean.tolist(),
        "state_std": params.state_std.tolist(),
        "control_floor": params.control_floor.tolist(),
        "params": [[name, list(shape)] for name, shape in _param_spec(h)],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(blob)))
        fh.write(blob)
        for name, _ in _param_spec(h):
            fh.write(params.arrays[name].astype("<f8").tobytes())
    if meta is not None:
        with open(f"{path}.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True, indent=1)


def load_checkpoint(path):
    from .datagen import FormatError, IntegrityError, _read_exact

    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise FormatError("not a checkpoint container")
        version, hlen = struct.unpack("<II", _read_exact(fh, 8, "header"))
        if version != _VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        header = json.loads(_read_exact(fh, hlen, "header json"))
        hyper = ModelHyper(kind=header["kind"], **header["hyper"])
        arrays = {}
        for name, shape in header["params"]:
            count = int(np.prod(shape)) if shape else 1
            buf = _read_exact(fh, count * 8, name)
            arrays[name] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise IntegrityError("trailing bytes after checkpoint payload")
    return ModelParams(
        hyper=hyper,
        arrays=arrays,
        state_mean=np.asarray(header["state_mean"]),
        state_std=np.asarray(header["state_std"]),
        control_floor=np.asarray(header["control_floor"]),
        preset=header["preset"],
        seed=header["seed"],
    )
