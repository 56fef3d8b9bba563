"""Excitation sampling, windowing, splits, container round trips."""

import dataclasses

import numpy as np
import pytest

from bkmpc import datagen as dg
from bkmpc import simulators as sim
from helpers import run_excitation_episode, sample_excitation


def small_dataset(preset="cartpole-ti", train=400, test=120, seed=1):
    return dg.generate_dataset(
        sim.preset(preset), train_pool=train, test_windows=test, seed=seed
    )


def test_excitation_distribution_cartpole():
    cfg = sim.preset("cartpole-ti")
    rng = np.random.default_rng(2)
    draws = np.array([sample_excitation(cfg, rng)[0] for _ in range(100_000)])
    assert abs(draws.mean()) < 0.3
    assert draws.min() >= -20.0 and draws.max() <= 20.0


def test_excitation_stays_in_duty_box():
    cfg = sim.preset("rscp-ti")
    rng = np.random.default_rng(3)
    lo, hi = cfg.control_low, cfg.control_high
    for _ in range(2000):
        u = sample_excitation(cfg, rng)
        assert np.all(u >= lo) and np.all(u <= hi)


def test_excitation_deterministic():
    cfg = sim.preset("rscp-ti")
    a = [sample_excitation(cfg, dg.episode_rng(7, 3)) for _ in range(5)]
    b = [sample_excitation(cfg, dg.episode_rng(7, 3)) for _ in range(5)]
    assert np.array_equal(np.asarray(a), np.asarray(b))


def _uniform_initial_state(cfg, rng):
    """The initial state as ``Generator.uniform`` draws it, one call per
    cart-pole coordinate or one over the RSCP box."""
    if cfg.system == "cartpole":
        return np.array([rng.uniform(-4.0, 4.0), 0.0, rng.uniform(-0.1, 0.1), 0.0])
    center = np.asarray(cfg.x_fixed)
    return rng.uniform(center - dg.RSCP_INIT_HALFWIDTH, center + dg.RSCP_INIT_HALFWIDTH)


def test_restarted_slot_generator_reproduces_episode_rng():
    # one lane slot's generator, re-keyed for each episode it runs (a
    # train episode, a test one with the same index, then later episodes
    # of all three key spaces), draws what a fresh episode_rng does: the
    # initial state, then refills of raw draws that scale to the uniform
    # excitation. Each episode ends on a 32-bit draw, which leaves the
    # stream mid-block and half a word cached; the re-key clears both
    for name in ("cartpole-ti", "rscp-tv"):
        cfg = sim.preset(name)
        low, high = cfg.control_low, cfg.control_high
        slot = np.random.Generator(np.random.Philox(dg._Unseeded()))
        raw = np.empty((dg._CHUNK, cfg.control_dim))
        for i, stream in ((3, "train"), (3, "test"), (40, "train"),
                          (2**20, "test"), (3, "mpc")):
            ref = dg.episode_rng(11, i, stream)
            assert dg._restart(slot, 11, i, stream) is slot
            assert np.array_equal(
                dg.sample_initial_state(cfg, slot), _uniform_initial_state(cfg, ref)
            )
            for _ in range(3):
                slot.random(out=raw)
                assert np.array_equal(
                    low + (high - low) * raw, ref.uniform(low, high, size=raw.shape)
                )
            assert slot.random(dtype=np.float32) == ref.random(dtype=np.float32)


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
    states, controls, _ = run_excitation_episode(cfg, rng)
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


def _rolls(cfg, seed, test, count):
    mode = "test" if test else "train"
    return [
        run_excitation_episode(cfg, dg.episode_rng(seed, i, mode), mode)[:2]
        for i in range(count)
    ]


#: (preset, seed, window requests): rscp-tv gives its two splits different
#: horizons, and its training split needs two episodes
RUNNER_CASES = (
    (sim.preset("cartpole-ti"), 7, (150, 60)),
    (sim.preset("rscp-tv", train_horizon=150, test_horizon=200), 3, (150, 60)),
)


def test_generation_deterministic_and_batch_independent(monkeypatch):
    a = small_dataset(train=150, test=60)
    b = small_dataset(train=150, test=60)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.controls, b.controls)
    assert np.array_equal(a.split, b.split)
    # the lockstep runner returns the same shortest episode prefix of each
    # split at any lane cap; each episode equals its sequential roll bit
    # for bit, except that the last one stops where the request is met
    for cfg, seed, wants in RUNNER_CASES:
        runs = []
        for cap in (1, 3, 64, 512):
            monkeypatch.setattr(dg, "_MAX_LANES", cap)
            runs.append(dg._run_episode_batch(cfg, seed, wants))
        for test, want in enumerate(wants):
            ref = _rolls(cfg, seed, bool(test), len(runs[0][test]))
            windows = [max(len(c) - dg.WINDOW_LEN + 1, 0) for _, c in ref]
            assert sum(windows) >= want > sum(windows[:-1])
            need = want - sum(windows[:-1])
            last_x, last_u = ref[-1]
            ref[-1] = (
                last_x[: need + dg.WINDOW_LEN],
                last_u[: need + dg.WINDOW_LEN - 1],
            )
            for run in runs:
                eps = run[test]
                assert len(eps) == len(ref)
                for (xs, us), (ys, vs) in zip(eps, ref):
                    assert np.array_equal(xs, ys)
                    assert np.array_equal(us, vs)


def test_one_runner_returns_each_split_as_run_alone():
    for cfg, seed, (train, test) in RUNNER_CASES:
        both = dg._run_episode_batch(cfg, seed, (train, test))
        alone = (
            dg._run_episode_batch(cfg, seed, (train, 0))[0],
            dg._run_episode_batch(cfg, seed, (0, test))[1],
        )
        for eps, ref in zip(both, alone):
            assert len(eps) == len(ref)
            for (xs, us), (ys, vs) in zip(eps, ref):
                assert np.array_equal(xs, ys)
                assert np.array_equal(us, vs)


def _count_episodes(monkeypatch):
    started = []
    sample = dg.sample_initial_state

    def counted(cfg, rng):
        started.append(1)
        return sample(cfg, rng)

    monkeypatch.setattr(dg, "sample_initial_state", counted)
    return started


def _count_rows(monkeypatch):
    rows = []
    step_euler = sim.step_euler

    def stepped(cfg, x, *args):
        rows.append(x.shape[0])
        return step_euler(cfg, x, *args)

    monkeypatch.setattr(sim, "step_euler", stepped)
    return rows


#: the benchmark's rscp shapes: one 500-step (300-step) episode covers the
#: 320 (96) requested windows
RSCP_BENCH = dict(train_horizon=500, test_horizon=300)


def test_rscp_starts_one_episode_per_split(monkeypatch):
    cfg = sim.preset("rscp-ti", **RSCP_BENCH)
    started = _count_episodes(monkeypatch)
    states, _, _, _ = dg._collect(cfg, 101, (320, 96))
    assert states.shape[0] == 320 + 96
    assert len(started) == 2


def test_rscp_bench_shapes_take_one_lockstep_step_per_needed_step(monkeypatch):
    # both episodes run side by side, each cut where its request is met:
    # max(320, 96) + WINDOW_LEN - 1 = 379 steps, each with one termination
    # check for both splits' rows, and one last check that ends the train
    # episode
    cfg = sim.preset("rscp-ti", **RSCP_BENCH)
    calls = []
    step_euler, check = sim.step_euler, sim.check_termination_batch

    def stepped(*args, **kwargs):
        calls.append("step")
        return step_euler(*args, **kwargs)

    def checked(*args, **kwargs):
        calls.append("check")
        return check(*args, **kwargs)

    monkeypatch.setattr(sim, "step_euler", stepped)
    monkeypatch.setattr(sim, "check_termination_batch", checked)
    ds = dg.generate_dataset(cfg, train_pool=320, test_windows=96, seed=101)
    assert ds.states.shape[0] == 320 + 96
    assert calls.count("step") == 379
    assert calls == ["check", "step"] * 379 + ["check"]


def test_met_request_ends_the_run_ahead_rows_of_its_split(monkeypatch):
    # a full training episode lasts its 150-step horizon and gives 91
    # windows. Episode 0 runs alone, 1 and 2 together, then 3-6 together
    # from step 300: 3 is cut 30 + 59 = 89 steps in, which meets the
    # request, and 4 (the new head), 5 and 6 end at the next check, after
    # 90 steps. The test episode is cut at 400 + 59 = 459 steps
    cfg = sim.preset("rscp-tv", train_horizon=150, test_horizon=1_000)
    rows = _count_rows(monkeypatch)
    train, test = dg._run_episode_batch(cfg, 3, (3 * 91 + 30, 400))
    assert [len(c) for _, c in train] == [150, 150, 150, 89]
    assert [len(c) for _, c in test] == [459]
    assert len(rows) == 459
    assert sum(rows) == 3 * 150 + 89 + 3 * 90 + 459


def test_cartpole_run_ahead_bounded_by_lane_cap(monkeypatch):
    # each split runs at most half the cap (at least one lane) ahead of its
    # prefix, so both together step at most max(cap, 2) rows; the runner
    # builds one bit generator per slot, however many episodes it starts
    cfg = sim.preset("cartpole-ti")
    started = _count_episodes(monkeypatch)
    rows = _count_rows(monkeypatch)
    slots, built = [], []
    grown, philox = dg._grown, np.random.Philox

    def building(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", building)

    def growing(a, axis, size):
        slots.append(size if axis == 0 else a.shape[0])
        return grown(a, axis, size)

    monkeypatch.setattr(dg, "_grown", growing)
    for cap in (1, 6, 64):
        for counts in (started, rows, slots, built):
            counts.clear()
        monkeypatch.setattr(dg, "_MAX_LANES", cap)
        train, test = dg._run_episode_batch(cfg, 7, (16, 64))
        prefix = len(train) + len(test)
        assert prefix <= len(started) <= prefix + max(cap, 2)
        assert max(rows) <= max(slots) <= max(cap, 2)
        assert len(built) <= max(slots) < len(started)


def test_progress_error_when_starved(monkeypatch):
    cfg = sim.preset("cartpole-ti", angle_limit=1e-6)  # dies immediately
    monkeypatch.setattr(dg, "_EPISODE_BUDGET", 50)
    with pytest.raises(dg.ProgressError, match="train windows.*test windows"):
        dg.generate_dataset(cfg, train_pool=100, test_windows=10)


def test_progress_error_names_the_starved_split(monkeypatch):
    # test episodes end before their first window; training ones do not
    cfg = sim.preset("cartpole-ti", test_horizon=dg.WINDOW_LEN - 2)
    monkeypatch.setattr(dg, "_EPISODE_BUDGET", 400)
    with pytest.raises(dg.ProgressError, match="^0/10 test windows after 400 episodes;"):
        dg.generate_dataset(cfg, train_pool=40, test_windows=10)


@pytest.mark.parametrize("arg", ["train_pool", "test_windows"])
def test_empty_request_rejected_before_simulating(monkeypatch, arg):
    started = _count_episodes(monkeypatch)
    request = {"train_pool": 100, "test_windows": 10, arg: 0}
    with pytest.raises(ValueError, match=arg):
        dg.generate_dataset(sim.preset("cartpole-ti"), **request)
    assert not started


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


def test_dataset_rejects_statistics_of_the_wrong_length(tmp_path):
    # the normalization statistics must have state_dim (control_dim)
    # entries; otherwise a 3-entry state_mean loads and training fails
    # with a numpy broadcast error
    ds = small_dataset(train=70, test=30)
    cases = {
        "state_mean": ds.state_mean[:3],
        "state_std": np.append(ds.state_std, 1.0),
        "control_mean": np.zeros(0),
        "control_std": np.ones(2),
    }
    for key, value in cases.items():
        path = tmp_path / f"{key}.bkds"
        dg.write_dataset(dataclasses.replace(ds, **{key: value}), path)
        with pytest.raises(dg.FormatError, match=key):
            dg.read_dataset(path)


def test_truncation_rejected(tmp_path):
    ds = small_dataset(train=70, test=30)
    p = tmp_path / "d.bkds"
    dg.write_dataset(ds, p)
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) - 100])
    with pytest.raises(dg.IntegrityError):
        dg.read_dataset(p)
