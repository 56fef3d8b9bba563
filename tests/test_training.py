"""Optimizer behavior, schedule, logging, selection metrics."""

import numpy as np
import pytest

from bkmpc import datagen as dg
from bkmpc import model as mdl
from bkmpc import training as tr
from bkmpc import simulators as sim
from bkmpc.numerics import autodiff as ad
from helpers import FIXTURE_CHECKPOINTS, FIXTURES, val_loss


def tiny_dataset(seed=1):
    return dg.generate_dataset(
        sim.preset("cartpole-ti"), train_pool=40, test_windows=15, seed=seed
    )


def tiny_params(ds, kind="bilinear", seed=2):
    return mdl.params_for_dataset(
        ds, kind, seed=seed, latent_dim=3, rank=3, conv_kernel=5, hidden=8
    )


def test_lr_schedule_paper_values():
    cfg = tr.TrainConfig()
    assert tr.lr_for_epoch(cfg, 0) == pytest.approx(1e-3)
    assert tr.lr_for_epoch(cfg, 49) == pytest.approx(1e-3)
    assert tr.lr_for_epoch(cfg, 50) == pytest.approx(9e-4)
    assert tr.lr_for_epoch(cfg, 100) == pytest.approx(8.1e-4, rel=1e-12)
    assert tr.lr_for_epoch(cfg, 400) == pytest.approx(1e-3 * 0.9**8, rel=1e-12)


def test_gradient_clipping_global_norm():
    grads = {"a": np.array([3.0, 4.0]), "b": np.array([12.0])}
    clipped, norm = tr.clip_gradients(grads, 1.0)
    assert norm == pytest.approx(13.0)
    post = np.sqrt(sum(np.sum(g**2) for g in clipped.values()))
    assert post <= 1.0 + 1e-12
    small = {"a": np.array([0.1])}
    same, _ = tr.clip_gradients(small, 1.0)
    assert np.array_equal(same["a"], small["a"])


def test_decoupled_decay_exact_shrink():
    ds = tiny_dataset()
    p = tiny_params(ds)
    opt = tr.Adam()
    before = {k: v.copy() for k, v in p.arrays.items()}
    zero = {k: np.zeros_like(v) for k, v in p.arrays.items()}
    opt.step(p, zero, lr=1e-2)
    for k in before:
        assert np.array_equal(p.arrays[k], before[k] * (1 - 1e-2 * tr.WEIGHT_DECAY))


def test_one_epoch_changes_params_and_logs_row():
    ds = tiny_dataset()
    p = tiny_params(ds)
    before = {k: v.copy() for k, v in p.arrays.items()}
    cfg = tr.TrainConfig(epochs=1, batch_size=16, seed=3)
    final, best, log = tr.train(ds, p, cfg)
    assert len(log.epochs) == 1
    assert any(not np.array_equal(final.arrays[k], before[k]) for k in before)
    assert log.best_epoch == 0


def test_training_determinism():
    ds = tiny_dataset()
    cfg = tr.TrainConfig(epochs=3, batch_size=16, seed=5)
    runs = []
    for _ in range(2):
        p = tiny_params(ds, seed=7)
        final, _, log = tr.train(ds, p, cfg)
        runs.append((final, log))
    f1, l1 = runs[0]
    f2, l2 = runs[1]
    assert l1.train_losses == l2.train_losses
    assert l1.val_losses == l2.val_losses
    for k in f1.arrays:
        assert np.array_equal(f1.arrays[k], f2.arrays[k])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_snapshot():
    ds = tiny_dataset()
    # an astronomically large decoder bias makes the loss overflow to inf
    p = tiny_params(ds)
    p.arrays["dec_b2"][:] = 1e200
    cfg = tr.TrainConfig(epochs=1, batch_size=16)
    with pytest.raises(tr.TrainingDiverged) as ei:
        tr.train(ds, p, cfg)
    assert ei.value.epoch == 0
    assert "dec_b2" in ei.value.param_norms
    # non-finite weights abort through the kernel domain guard instead
    q = tiny_params(ds)
    q.arrays["enc_w1"][:] = np.inf
    with pytest.raises(tr.TrainingDiverged):
        tr.train(ds, q, cfg)


def test_val_losses_match_size_weighted_eval_loss():
    # the logged validation loss is the size-weighted forecast MSE of the
    # val split, on a model with nonzero coupling
    ds = tiny_dataset()
    p = tiny_params(ds)
    rng = np.random.default_rng(11)
    p.arrays["cpl_l"] = 0.3 * rng.standard_normal(p.arrays["cpl_l"].shape)
    p.arrays["cpl_r"] = 0.3 * rng.standard_normal(p.arrays["cpl_r"].shape)
    cfg = tr.TrainConfig(epochs=2, batch_size=16, seed=4)
    final, _, log = tr.train(ds, p, cfg)
    assert mdl.g_norm(final) > 0.1
    for batch in (512, 3):
        want = val_loss(final, ds, batch=batch)
        assert log.val_losses[-1] == pytest.approx(want, rel=1e-14, abs=0.0)


def test_evaluation_builds_no_tape(monkeypatch):
    def no_tape(self):
        raise AssertionError("a Tape was constructed")

    ds = tiny_dataset()
    p = tiny_params(ds)
    monkeypatch.setattr(ad.Tape, "__init__", no_tape)
    assert np.isfinite(tr.evaluate_forecast(p, *ds.subset(dg.SPLIT_TEST)))
    assert np.isfinite(tr.batch_loss(p, *ds.subset(dg.SPLIT_VAL)))


@pytest.mark.parametrize("ckpt", FIXTURE_CHECKPOINTS)
def test_evaluate_forecast_is_the_taped_mse_bit_for_bit(ckpt, monkeypatch):
    # the untaped evaluation pools, batch by batch, exactly the mse the
    # training loss records; three batches, the last one partial
    p = mdl.load_checkpoint(FIXTURES / ckpt)
    h = p.hyper
    rng = np.random.default_rng(5)
    count = 40
    S = p.state_mean + p.state_std * rng.standard_normal(
        (count, h.lookback + h.horizon, h.state_dim)
    )
    C = rng.uniform(-1.0, 1.0, (count, h.lookback + h.horizon, h.control_dim))
    monkeypatch.setattr(tr, "EVAL_BATCH", 16)
    sse = 0.0
    for start in range(0, count, 16):
        _, _, _, mse, _ = mdl.loss_forward(p, S[start : start + 16], C[start : start + 16])
        sse += float(mse.value) * S[start : start + 16].shape[0] * h.horizon
    want = sse / (count * h.horizon * h.state_dim)
    assert tr.evaluate_forecast(p, S, C) == want
    assert tr.batch_loss(p, S, C) == h.state_dim * want


def test_checkpoint_roundtrip_bitwise_eval(tmp_path):
    ds = tiny_dataset()
    p = tiny_params(ds)
    cfg = tr.TrainConfig(epochs=2, batch_size=16, seed=9)
    _, best, _ = tr.train(ds, p, cfg)
    path = tmp_path / "best.bkcp"
    mdl.save_checkpoint(best, path, meta={"val": float(1.0)})
    loaded = mdl.load_checkpoint(path)
    te_s, te_c = ds.subset(dg.SPLIT_TEST)
    a = tr.evaluate_forecast(best, te_s, te_c)
    b = tr.evaluate_forecast(loaded, te_s, te_c)
    assert a == b  # bitwise-identical evaluation after round trip


def test_evaluate_forecast_perfect_and_mean_models():
    ds = tiny_dataset()
    p = tiny_params(ds, kind="linear")
    te_s, te_c = ds.subset(dg.SPLIT_TEST)
    # a decoder head of zeros predicts the normalized training mean (0)
    p.arrays["dec_w2"][:] = 0.0
    p.arrays["dec_b2"][:] = 0.0
    got = tr.evaluate_forecast(p, te_s, te_c)
    h = p.hyper
    targets = (te_s[:, h.lookback :, :] - p.state_mean) / p.state_std
    assert got == pytest.approx(float(np.mean(targets**2)), rel=1e-12)


def test_evaluate_forecast_rejects_no_windows():
    # an empty window set has no MSE; 0.0 would pass for a perfect one
    ds = tiny_dataset()
    p = tiny_params(ds)
    states, controls = ds.subset(dg.SPLIT_VAL)
    with pytest.raises(ValueError, match="at least one window"):
        tr.evaluate_forecast(p, states[:0], controls[:0])


def test_forecast_permutation_invariant():
    ds = tiny_dataset()
    p = tiny_params(ds)
    te_s, te_c = ds.subset(dg.SPLIT_TEST)
    a = tr.evaluate_forecast(p, te_s, te_c)
    perm = np.random.default_rng(3).permutation(te_s.shape[0])
    b = tr.evaluate_forecast(p, te_s[perm], te_c[perm])
    assert a == pytest.approx(b, rel=1e-12)


def test_test_mse_logging_policy(monkeypatch):
    monkeypatch.setattr(tr, "LOG_TEST_FINAL", 2)
    ds = tiny_dataset()
    p = tiny_params(ds)
    cfg = tr.TrainConfig(epochs=8, batch_size=16, log_test_every=4)
    _, _, log = tr.train(ds, p, cfg, log_test=True)
    logged = [i for i, v in enumerate(log.test_mses) if np.isfinite(v)]
    assert logged == [0, 4, 6, 7]
    assert np.isfinite(log.best_test_mse)


def test_trainlog_csv(tmp_path):
    ds = tiny_dataset()
    p = tiny_params(ds)
    cfg = tr.TrainConfig(epochs=2, batch_size=16)
    _, _, log = tr.train(ds, p, cfg)
    path = tmp_path / "log.csv"
    log.to_csv(path, git_rev="abc123")
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("schema,preset,model,seed,git,epoch")
    assert lines[1].startswith("trainlog.v3,cartpole-ti,bilinear")


def test_trainlog_csv_row_text(tmp_path):
    # trainlog.v3 text, pinned column by column: every float, the wall
    # time included, at round-trip precision
    log = tr.TrainLog(
        preset="rscp-ti", kind="linear", seed=7, epochs=[0, 1],
        lrs=[1e-3, 0.00095], train_losses=[2.0 / 3.0, 0.123456789012345],
        val_losses=[1.5, 12345.678901234], g_norms=[0.0, 3.25],
        wall_seconds=[0.1, 12.3456789], test_mses=[np.nan, 1e-9], best_epoch=1,
    )
    path = tmp_path / "log.csv"
    log.to_csv(path, git_rev="abc123")
    assert path.read_text() == (
        "schema,preset,model,seed,git,epoch,lr,train_loss,val_loss,g_norm,"
        "wall_s,test_mse,is_best\n"
        "trainlog.v3,rscp-ti,linear,7,abc123,0,0.001,0.6666666666666666,1.5,"
        "0.0,0.1,nan,0\n"
        "trainlog.v3,rscp-ti,linear,7,abc123,1,0.00095,0.123456789012345,"
        "12345.678901234,3.25,12.3456789,1e-09,1\n"
    )
