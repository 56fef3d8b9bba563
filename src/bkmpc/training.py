"""Training loop: adaptive-moment updates with decoupled weight decay,
stepped learning-rate schedule, global-norm gradient clipping, best-
validation checkpointing, and forecast evaluation.

Determinism: mini-batch shuffling draws from a generator seeded once per
run, batches are visited in shuffle order, and the update is a single-
threaded ordered reduction, so identical (dataset, seed, config) produce
identical logs and parameters. Validation and test evaluation run the
loss in evaluation mode (stability hinge disabled).
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import datagen as dg
from . import model as mdl
from . import results
from .numerics import DomainError


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 401
    lr: float = 1e-3
    weight_decay: float = 1e-3
    batch_size: int = 256
    lr_step: int = 50
    lr_gamma: float = 0.9
    clip_norm: float = 1.0
    seed: int = 1
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    # test-MSE logging policy: every N epochs plus the final-window epochs
    log_test_every: int = 10
    log_test_final: int = 50


def lr_for_epoch(cfg, epoch):
    """Stepped decay: lr * gamma^(epoch // step), epochs counted from 0."""
    return cfg.lr * cfg.lr_gamma ** (epoch // cfg.lr_step)


class TrainingDiverged(RuntimeError):
    """Loss went non-finite; carries a diagnostic snapshot."""

    def __init__(self, epoch, batch, param_norms):
        super().__init__(
            f"non-finite loss at epoch {epoch}, batch {batch}; "
            f"parameter norms: {param_norms}"
        )
        self.epoch = epoch
        self.batch = batch
        self.param_norms = param_norms


def clip_gradients(grads, max_norm):
    """Global-norm clip across all arrays; returns (grads, pre-clip norm)."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        grads = {k: g * scale for k, g in grads.items()}
    return grads, total


class Adam:
    """Adaptive moments with decoupled weight decay.

    The decay term is applied directly to the weights (not folded into
    the gradient), so a zero-gradient step shrinks each weight by exactly
    lr * weight_decay.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.m = {}
        self.v = {}
        self.t = 0

    def step(self, params, grads, lr):
        cfg = self.cfg
        self.t += 1
        b1, b2 = cfg.beta1, cfg.beta2
        for k, g in grads.items():
            if k not in self.m:
                self.m[k] = np.zeros_like(g)
                self.v[k] = np.zeros_like(g)
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            mhat = self.m[k] / (1 - b1**self.t)
            vhat = self.v[k] / (1 - b2**self.t)
            params.arrays[k] -= lr * mhat / (np.sqrt(vhat) + cfg.adam_eps)
            params.arrays[k] *= 1.0 - lr * cfg.weight_decay


@dataclass
class TrainLog:
    preset: str = ""
    kind: str = ""
    seed: int = 0
    epochs: list = field(default_factory=list)
    lrs: list = field(default_factory=list)
    train_losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    g_norms: list = field(default_factory=list)
    wall_seconds: list = field(default_factory=list)
    test_mses: list = field(default_factory=list)  # nan where not evaluated
    best_epoch: int = -1
    best_val: float = np.inf
    best_test_mse: float = np.nan

    def to_csv(self, path, git_rev="unknown"):
        rows = [
            (
                results.TRAINLOG_SCHEMA, self.preset, self.kind, self.seed,
                git_rev, ep, f"{self.lrs[i]:.10g}",
                f"{self.train_losses[i]:.10g}", f"{self.val_losses[i]:.10g}",
                f"{self.g_norms[i]:.10g}", f"{self.wall_seconds[i]:.4f}",
                f"{self.test_mses[i]:.10g}", int(ep == self.best_epoch),
            )
            for i, ep in enumerate(self.epochs)
        ]
        results.write_csv(path, results.TRAINLOG_COLUMNS, rows)


def batch_loss(params, states, controls, batch_size=512):
    """Size-weighted mean evaluation-mode loss over a window set."""
    total, count = 0.0, 0
    for start in range(0, states.shape[0], batch_size):
        sl = slice(start, start + batch_size)
        b = states[sl].shape[0]
        total += mdl.loss_value(params, states[sl], controls[sl], eval_mode=True) * b
        count += b
    return total / max(count, 1)


def evaluate_forecast(params, states, controls, batch_size=512):
    """Pooled decoded-prediction MSE over the horizon, normalized space."""
    sse, count = 0.0, 0
    for start in range(0, states.shape[0], batch_size):
        sl = slice(start, start + batch_size)
        s, c = mdl.forecast_se(params, states[sl], controls[sl])
        sse += s
        count += c
    return sse / max(count, 1)


def train(ds, params, cfg, log_test=False):
    """Run the epoch loop; returns (final, best-checkpoint, TrainLog).

    ``log_test`` evaluates test MSE according to the logging policy
    (every ``log_test_every`` epochs plus the final ``log_test_final``).
    """
    tr_states, tr_controls = ds.subset(dg.SPLIT_TRAIN)
    va_states, va_controls = ds.subset(dg.SPLIT_VAL)
    te_states, te_controls = ds.subset(dg.SPLIT_TEST)

    log = TrainLog(preset=ds.preset, kind=params.hyper.kind, seed=cfg.seed)
    opt = Adam(cfg)
    rng = np.random.default_rng(cfg.seed)
    best_params = params.copy()

    n = tr_states.shape[0]
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        lr = lr_for_epoch(cfg, epoch)
        order = rng.permutation(n)
        total, seen = 0.0, 0
        for bstart in range(0, n, cfg.batch_size):
            idx = order[bstart : bstart + cfg.batch_size]
            try:
                loss, grads = mdl.loss_and_grads(
                    params, tr_states[idx], tr_controls[idx]
                )
            except (DomainError, np.linalg.LinAlgError) as err:
                norms = {
                    k: float(np.linalg.norm(v)) for k, v in params.arrays.items()
                }
                raise TrainingDiverged(
                    epoch, bstart // cfg.batch_size, norms
                ) from err
            if not np.isfinite(loss):
                norms = {
                    k: float(np.linalg.norm(v)) for k, v in params.arrays.items()
                }
                raise TrainingDiverged(epoch, bstart // cfg.batch_size, norms)
            grads, _ = clip_gradients(grads, cfg.clip_norm)
            opt.step(params, grads, lr)
            total += loss * idx.size
            seen += idx.size

        val = batch_loss(params, va_states, va_controls)
        test_mse = np.nan
        if log_test and te_states.shape[0] and (
            epoch % cfg.log_test_every == 0
            or epoch >= cfg.epochs - cfg.log_test_final
        ):
            test_mse = evaluate_forecast(params, te_states, te_controls)

        if val < log.best_val:
            log.best_val = val
            log.best_epoch = epoch
            best_params = params.copy()

        log.epochs.append(epoch)
        log.lrs.append(lr)
        log.train_losses.append(total / max(seen, 1))
        log.val_losses.append(val)
        log.g_norms.append(mdl.g_norm(params))
        log.wall_seconds.append(time.perf_counter() - t0)
        log.test_mses.append(test_mse)

    if te_states.shape[0]:
        log.best_test_mse = evaluate_forecast(best_params, te_states, te_controls)
    return params, best_params, log
