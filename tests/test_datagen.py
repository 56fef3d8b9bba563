"""Excitation sampling, windowing, splits, container round trips."""

import numpy as np
import pytest

from bkmpc import datagen as dg
from bkmpc import simulators as sim


def small_dataset(preset="cartpole-ti", train=400, test=120, seed=1):
    return dg.generate_dataset(
        sim.preset(preset), train_pool=train, test_windows=test, seed=seed
    )


def test_excitation_distribution_cartpole():
    cfg = sim.preset("cartpole-ti")
    rng = np.random.default_rng(2)
    draws = np.array([dg.sample_excitation(cfg, rng)[0] for _ in range(100_000)])
    assert abs(draws.mean()) < 0.3
    assert draws.min() >= -20.0 and draws.max() <= 20.0


def test_excitation_stays_in_duty_box():
    cfg = sim.preset("rscp-ti")
    rng = np.random.default_rng(3)
    lo, hi = cfg.control_low, cfg.control_high
    for _ in range(2000):
        u = dg.sample_excitation(cfg, rng)
        assert np.all(u >= lo) and np.all(u <= hi)


def test_excitation_deterministic():
    cfg = sim.preset("rscp-ti")
    a = [dg.sample_excitation(cfg, dg.episode_rng(7, 3)) for _ in range(5)]
    b = [dg.sample_excitation(cfg, dg.episode_rng(7, 3)) for _ in range(5)]
    assert np.array_equal(np.asarray(a), np.asarray(b))


def test_initial_state_cartpole_zero_velocities():
    cfg = sim.preset("cartpole-ti")
    rng = np.random.default_rng(5)
    for _ in range(200):
        s = dg.sample_initial_state(cfg, rng)
        assert s[1] == 0.0 and s[3] == 0.0
        assert -4.0 <= s[0] <= 4.0 and -0.1 <= s[2] <= 0.1


def test_initial_state_rscp_halfwidths():
    cfg = sim.preset("rscp-ti")
    rng = np.random.default_rng(7)
    center = np.asarray(cfg.x_fixed)
    for _ in range(500):
        s = dg.sample_initial_state(cfg, rng)
        assert np.all(np.abs(s - center) <= dg.RSCP_INIT_HALFWIDTH + 1e-12)
    # component 7 of the spec ordering (xA3, zero-based index 6)
    draws = np.array([dg.sample_initial_state(cfg, rng)[6] for _ in range(500)])
    assert np.all(np.abs(draws - center[6]) <= 0.02)


def test_window_shape_and_counts():
    ds = small_dataset()
    assert ds.states.shape[1] == 60 and ds.controls.shape[1] == 60
    counts = ds.counts()
    assert counts["train"] == 320 and counts["val"] == 80 and counts["test"] == 120


def test_paper_scale_split_arithmetic():
    # 39,900 pooled windows split 80/20 -> 31,920 / 7,980
    perm = dg.split_permutation(1, 39_900)
    assert perm.shape == (39_900,)
    assert int(round(0.8 * 39_900)) == 31_920


def test_split_is_pure_function_of_seed_and_size():
    assert np.array_equal(dg.split_permutation(1, 1000), dg.split_permutation(1, 1000))
    assert not np.array_equal(
        dg.split_permutation(1, 1000), dg.split_permutation(2, 1000)
    )


def test_no_test_window_leakage():
    ds = small_dataset()
    train_eps = set(ds.episode_id[ds.split != dg.SPLIT_TEST].tolist())
    test_eps = set(ds.episode_id[ds.split == dg.SPLIT_TEST].tolist())
    assert train_eps.isdisjoint(test_eps)


def test_windows_contiguous_in_episode():
    ds = small_dataset(train=100, test=50)
    cfg = sim.preset("cartpole-ti")
    # re-simulate one episode and confirm a window matches it verbatim
    w = 0
    ep = int(ds.episode_id[w])
    rng = dg.episode_rng(ds.seed, ep)
    states, controls, _ = dg.run_excitation_episode(cfg, rng)
    i = int(round(ds.start_time[w] / cfg.dt))
    assert np.array_equal(ds.states[w], states[i : i + 60])
    assert np.array_equal(ds.controls[w], controls[i : i + 60])


def test_normalization_stats_from_train_only():
    ds = small_dataset()
    tr_states, tr_controls = ds.subset(dg.SPLIT_TRAIN)
    zs = (tr_states - ds.state_mean) / ds.state_std
    flat = zs.reshape(-1, zs.shape[-1])
    assert np.max(np.abs(flat.mean(axis=0))) <= 1e-10
    assert np.max(np.abs(flat.std(axis=0) - 1.0)) <= 1e-10
    zc = (tr_controls - ds.control_mean) / ds.control_std
    flat_c = zc.reshape(-1, zc.shape[-1])
    assert np.max(np.abs(flat_c.mean(axis=0))) <= 1e-10


def test_generation_deterministic_and_batch_independent():
    a = small_dataset(train=150, test=60)
    b = small_dataset(train=150, test=60)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.controls, b.controls)
    assert np.array_equal(a.split, b.split)
    # the lockstep runner returns the same shortest episode prefix at any
    # batch size
    cfg = sim.preset("cartpole-ti")
    runs = [
        dg._run_episode_batch(cfg, 7, False, "train", 150, 10_000, batch)
        for batch in (1, 3, 64)
    ]
    ref = runs[0]
    windows = [max(len(ep.controls) - dg.WINDOW_LEN + 1, 0) for ep in ref]
    assert sum(windows) >= 150 > sum(windows[:-1])
    for eps in runs[1:]:
        assert len(eps) == len(ref)
        for x, y in zip(eps, ref):
            assert x.index == y.index
            assert np.array_equal(np.asarray(x.states), np.asarray(y.states))
            assert np.array_equal(np.asarray(x.controls), np.asarray(y.controls))


def test_progress_error_when_starved():
    cfg = sim.preset("cartpole-ti", angle_limit=1e-6)  # dies immediately
    with pytest.raises(dg.ProgressError):
        dg.generate_dataset(cfg, train_pool=100, test_windows=10, episode_budget=50)


def test_roundtrip_and_byte_identical(tmp_path):
    ds = small_dataset(train=80, test=40)
    p1, p2 = tmp_path / "a.bkds", tmp_path / "b.bkds"
    dg.write_dataset(ds, p1)
    dg.write_dataset(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = dg.read_dataset(p1)
    assert back.preset == ds.preset
    assert np.array_equal(back.states, ds.states)
    assert np.array_equal(back.controls, ds.controls)
    assert np.array_equal(back.split, ds.split)
    assert np.array_equal(back.episode_id, ds.episode_id)
    assert np.array_equal(back.start_time, ds.start_time)
    assert np.array_equal(back.state_mean, ds.state_mean)


def test_corrupt_header_rejected(tmp_path):
    ds = small_dataset(train=70, test=30)
    p = tmp_path / "d.bkds"
    dg.write_dataset(ds, p)
    raw = bytearray(p.read_bytes())
    raw[1] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(dg.FormatError):
        dg.read_dataset(p)


def test_truncation_rejected(tmp_path):
    ds = small_dataset(train=70, test=30)
    p = tmp_path / "d.bkds"
    dg.write_dataset(ds, p)
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) - 100])
    with pytest.raises(dg.IntegrityError):
        dg.read_dataset(p)


def test_csv_export_row_count(tmp_path):
    ds = small_dataset(train=70, test=30)
    p = tmp_path / "d.csv"
    dg.export_csv(ds, p)
    lines = p.read_text().strip().split("\n")
    assert len(lines) == 1 + ds.states.shape[0] * 60
