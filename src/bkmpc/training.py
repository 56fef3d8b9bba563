"""Training loop: adaptive-moment updates with decoupled weight decay,
stepped learning-rate schedule, global-norm gradient clipping, best-
validation checkpointing, and forecast evaluation.

The recipe is fixed: the optimizer, schedule and clipping constants
below are module constants, and ``TrainConfig`` holds only what a run
chooses (epochs, base learning rate, batch size, seed, test-logging
cadence).

Determinism: mini-batch shuffling draws from a generator seeded once per
run, batches are visited in shuffle order, and the update is a single-
threaded ordered reduction, so identical (dataset, seed, config) produce
identical logs and parameters.

Evaluation has one loop, :func:`evaluate_forecast`: the pooled decoded-
prediction MSE of ``model.forecast_mse`` run on the parameter arrays, so
it records no tape and has no stability hinge. The validation loss is the
same quantity scaled by the state dimension. Only the training step
records a tape.

The training rollout takes every horizon step's coupling exponential in
one ``expm`` node: a (T, B, dz, dz) stack on the dz x dz path, a
(T, B, 2k, 2k) one on the rank path. The kernels walk that stack in
blocks whose largest temporary stays under ``dense._BLOCK_BYTES``, so it
costs one block's temporaries: unblocked, the dz x dz node took one
B=256 rscp step from 184 to 418 MB peak RSS (one BLAS thread, 2-core
Xeon, numpy 2.4.6). The stability hinge takes the dz x dz path's
(T, B, dz, dz) A_disc stack whole; the rank path forms A_disc only for
the steps its factor bound cannot certify stable (at zero coupling, the
steps whose hold step exp(a .* delta) alone reaches the threshold).
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import datagen as dg
from . import model as mdl
from . import results
from .numerics import DomainError


WEIGHT_DECAY = 1e-3
LR_STEP = 50
LR_GAMMA = 0.9
CLIP_NORM = 1.0
BETA1, BETA2 = 0.9, 0.999
ADAM_EPS = 1e-8
#: test MSE is also logged in each of the last LOG_TEST_FINAL epochs
LOG_TEST_FINAL = 50
#: windows per evaluation forward pass
EVAL_BATCH = 512


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 401
    lr: float = 1e-3
    batch_size: int = 256
    seed: int = 1
    # test-MSE logging policy: every N epochs plus the final-window epochs
    log_test_every: int = 10


def lr_for_epoch(cfg, epoch):
    """Stepped decay: lr * gamma^(epoch // step), epochs counted from 0."""
    return cfg.lr * LR_GAMMA ** (epoch // LR_STEP)


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
    lr * WEIGHT_DECAY.
    """

    def __init__(self):
        self.m = {}
        self.v = {}
        self.t = 0

    def step(self, params, grads, lr):
        self.t += 1
        for k, g in grads.items():
            if k not in self.m:
                self.m[k] = np.zeros_like(g)
                self.v[k] = np.zeros_like(g)
            self.m[k] = BETA1 * self.m[k] + (1 - BETA1) * g
            self.v[k] = BETA2 * self.v[k] + (1 - BETA2) * g * g
            mhat = self.m[k] / (1 - BETA1**self.t)
            vhat = self.v[k] / (1 - BETA2**self.t)
            params.arrays[k] -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
            params.arrays[k] *= 1.0 - lr * WEIGHT_DECAY


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
        base = (results.TRAINLOG_SCHEMA, self.preset, self.kind, self.seed, git_rev)
        columns = zip(
            self.epochs, self.lrs, self.train_losses, self.val_losses,
            self.g_norms, self.wall_seconds, self.test_mses,
        )
        rows = [base + (*row, row[0] == self.best_epoch) for row in columns]
        results.write_csv(path, results.TRAINLOG_COLUMNS, rows)


def evaluate_forecast(params, states, controls):
    """Pooled decoded-prediction MSE over the horizon, normalized space.
    An empty window set has no MSE and raises ValueError."""
    h = params.hyper
    if not states.shape[0]:
        raise ValueError("evaluate_forecast needs at least one window")
    sse, count = 0.0, 0
    for start in range(0, states.shape[0], EVAL_BATCH):
        sl = slice(start, start + EVAL_BATCH)
        mse, _ = mdl.forecast_mse(params.arrays, params, states[sl], controls[sl])
        b = states[sl].shape[0]
        # mse is the batch mean of (1/T) sum_k ||err_k||^2; rescale to SSE
        sse += float(mse) * b * h.horizon
        count += b * h.horizon * h.state_dim
    return sse / count


def batch_loss(params, states, controls):
    """Size-weighted mean forecast loss (hinge-free) over a window set."""
    return params.hyper.state_dim * evaluate_forecast(params, states, controls)


def train(ds, params, cfg, log_test=False):
    """Run the epoch loop; returns (final, best-checkpoint, TrainLog).

    ``log_test`` evaluates test MSE according to the logging policy
    (every ``log_test_every`` epochs plus the final ``LOG_TEST_FINAL``).
    """
    tr_states, tr_controls = ds.subset(dg.SPLIT_TRAIN)
    va_states, va_controls = ds.subset(dg.SPLIT_VAL)
    te_states, te_controls = ds.subset(dg.SPLIT_TEST)

    log = TrainLog(preset=ds.preset, kind=params.hyper.kind, seed=cfg.seed)
    opt = Adam()
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
            cause = None
            try:
                loss, grads = mdl.loss_and_grads(
                    params, tr_states[idx], tr_controls[idx]
                )
            except (DomainError, np.linalg.LinAlgError) as err:
                loss, cause = np.nan, err
            if not np.isfinite(loss):
                norms = {
                    k: float(np.linalg.norm(v)) for k, v in params.arrays.items()
                }
                raise TrainingDiverged(
                    epoch, bstart // cfg.batch_size, norms
                ) from cause
            grads, _ = clip_gradients(grads, CLIP_NORM)
            opt.step(params, grads, lr)
            total += loss * idx.size
            seen += idx.size

        val = batch_loss(params, va_states, va_controls)
        test_mse = np.nan
        if log_test and te_states.shape[0] and (
            epoch % cfg.log_test_every == 0
            or epoch >= cfg.epochs - LOG_TEST_FINAL
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
