"""Seeded trajectory generation, windowing, and the dataset container.

Randomness is counter-based and splittable: every episode draws from its
own Philox stream with key ``(seed, space + episode_index)`` where
``space`` is 0 for training-pool episodes and 2**32 for test episodes, so
episodes can be generated in any order (or in parallel) and still produce
identical data. The train/validation split permutes the pooled windows
with a separate Philox stream keyed by the split seed alone, making the
split a pure function of (split seed, pool size).

Episodes roll the simulator under per-step i.i.d. uniform control
excitation and are cut into maximally overlapping (stride 1) windows of
60 steps: 30 lookback plus 30 prediction. Test windows come from separate
episodes (disjoint streams and episode ids), never from training
episodes. Normalization statistics are computed from the training subset
only.
"""

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import simulators as sim

WINDOW_LEN = 60
LOOKBACK = 30
HORIZON = 30

_TRAIN_SPACE = 0
_TEST_SPACE = 2**32
_TEST_EPISODE_OFFSET = 2**31  # keeps stored test episode ids disjoint

_MAGIC = b"BKDS"
_VERSION = 1

SPLIT_TRAIN, SPLIT_VAL, SPLIT_TEST = 0, 1, 2
SPLIT_NAMES = {SPLIT_TRAIN: "train", SPLIT_VAL: "val", SPLIT_TEST: "test"}


class ProgressError(RuntimeError):
    """Episode budget exhausted before the window targets were met."""


class FormatError(ValueError):
    """Container magic or version is wrong."""


class IntegrityError(ValueError):
    """Container is truncated or carries trailing garbage."""


def episode_rng(seed, episode_index, test=False):
    """The documented per-episode stream; see module docstring."""
    space = _TEST_SPACE if test else _TRAIN_SPACE
    return np.random.Generator(np.random.Philox(key=[seed, space + episode_index]))


def sample_excitation(cfg, rng):
    """Per-step uniform excitation over the control box."""
    return rng.uniform(cfg.control_low, cfg.control_high)


#: RSCP initial-state half-widths around the verified fixed point,
#: ordered (xA, xB, T) per vessel.
RSCP_INIT_HALFWIDTH = np.array([0.05, 0.05, 10.0, 0.05, 0.05, 10.0, 0.02, 0.05, 10.0])


def sample_initial_state(cfg, rng):
    if cfg.system == "cartpole":
        return np.array(
            [rng.uniform(-4.0, 4.0), 0.0, rng.uniform(-0.1, 0.1), 0.0]
        )
    center = np.asarray(cfg.x_fixed)
    return rng.uniform(center - RSCP_INIT_HALFWIDTH, center + RSCP_INIT_HALFWIDTH)


def run_excitation_episode(cfg, rng, mode="train"):
    """Roll one episode; returns (states (L+1, n), controls (L, m), reason)."""
    state = sample_initial_state(cfg, rng)
    t = 0.0
    states = [state]
    controls = []
    step = 0
    while True:
        reason = sim.check_termination(cfg, state, step, mode=mode)
        if reason is not None:
            break
        u = sim.clip_control(cfg, sample_excitation(cfg, rng))
        state, t = sim.step_euler(cfg, state, u, t)
        states.append(state)
        controls.append(u)
        step += 1
    return np.asarray(states), np.asarray(controls).reshape(len(controls), -1), reason


def _episode_windows(cfg, states, controls):
    """All stride-1 windows of WINDOW_LEN steps, with their start times."""
    n_steps = controls.shape[0]
    count = n_steps - WINDOW_LEN + 1
    if count <= 0:
        return None
    ws = np.stack([states[i : i + WINDOW_LEN] for i in range(count)])
    wc = np.stack([controls[i : i + WINDOW_LEN] for i in range(count)])
    t0 = np.arange(count) * cfg.dt
    return ws, wc, t0


@dataclass
class Dataset:
    preset: str
    states: np.ndarray  # (N, 60, n)
    controls: np.ndarray  # (N, 60, m)
    split: np.ndarray  # (N,) uint8
    episode_id: np.ndarray  # (N,) uint32
    start_time: np.ndarray  # (N,) float64
    seed: int
    split_seed: int
    state_mean: np.ndarray = field(default=None)
    state_std: np.ndarray = field(default=None)
    control_mean: np.ndarray = field(default=None)
    control_std: np.ndarray = field(default=None)

    def indices(self, split):
        return np.flatnonzero(self.split == split)

    def subset(self, split):
        idx = self.indices(split)
        return self.states[idx], self.controls[idx]

    def counts(self):
        return {
            name: int(np.sum(self.split == code))
            for code, name in SPLIT_NAMES.items()
        }


def _compute_stats(ds):
    tr_states, tr_controls = ds.subset(SPLIT_TRAIN)
    flat_s = tr_states.reshape(-1, tr_states.shape[-1])
    flat_c = tr_controls.reshape(-1, tr_controls.shape[-1])
    ds.state_mean = flat_s.mean(axis=0)
    ds.state_std = flat_s.std(axis=0)
    ds.state_std = np.where(ds.state_std == 0.0, 1.0, ds.state_std)
    ds.control_mean = flat_c.mean(axis=0)
    ds.control_std = flat_c.std(axis=0)
    ds.control_std = np.where(ds.control_std == 0.0, 1.0, ds.control_std)


def split_permutation(split_seed, pool_size):
    """Deterministic permutation used for the 80/20 train/val split."""
    gen = np.random.Generator(np.random.Philox(key=[split_seed, 0]))
    return gen.permutation(pool_size)


class _EpisodeSlot:
    """One live episode inside the lockstep batch runner.

    Draws come from the episode's own stream in the same order as
    ``run_excitation_episode`` (initial state first, then one excitation
    per step, pre-drawn in chunks), so lockstep batching reproduces the
    sequential episodes bit for bit in any scheduling order.
    """

    __slots__ = ("index", "rng", "state", "t", "step", "states", "controls", "buf", "pos")

    CHUNK = 256

    def __init__(self, cfg, seed, index, test):
        self.index = index
        self.rng = episode_rng(seed, index, test=test)
        self.state = sample_initial_state(cfg, self.rng)
        self.t = 0.0
        self.step = 0
        self.states = [self.state]
        self.controls = []
        self.buf = None
        self.pos = 0

    def next_control(self, cfg):
        if self.buf is None or self.pos >= self.buf.shape[0]:
            self.buf = self.rng.uniform(
                cfg.control_low, cfg.control_high, size=(self.CHUNK, cfg.control_dim)
            )
            self.pos = 0
        u = self.buf[self.pos]
        self.pos += 1
        return u


def _run_episode_batch(cfg, seed, test, mode, want, budget, batch_size):
    """Lockstep episode runner.

    Returns the shortest index-ordered prefix of episodes whose cumulative
    window count reaches ``want``: the result is a pure function of
    (seed, want) and does not depend on the batch size used to run it.
    """
    finished = {}
    prefix_next = 0  # first episode index not yet finished
    prefix_windows = 0
    next_episode = 0
    slots = []

    def advance_prefix():
        nonlocal prefix_next, prefix_windows
        while prefix_next in finished and prefix_windows < want:
            n_ctl = len(finished[prefix_next].controls)
            prefix_windows += max(n_ctl - WINDOW_LEN + 1, 0)
            prefix_next += 1

    while True:
        advance_prefix()
        if prefix_windows >= want:
            break
        while len(slots) < batch_size and next_episode < budget:
            slots.append(_EpisodeSlot(cfg, seed, next_episode, test))
            next_episode += 1
        if not slots:
            raise ProgressError(
                f"{prefix_windows}/{want} {mode} windows after {next_episode} "
                "episodes; termination is starving window production"
            )
        states = np.stack([s.state for s in slots])
        steps = np.array([s.step for s in slots])
        codes = sim.check_termination_batch(cfg, states, steps, mode=mode)
        keep = []
        for i, slot in enumerate(slots):
            if codes[i]:
                finished[slot.index] = slot
            else:
                keep.append(slot)
        slots = keep
        if not slots:
            continue
        controls = np.stack(
            [sim.clip_control(cfg, s.next_control(cfg)) for s in slots]
        )
        states = np.stack([s.state for s in slots])
        ts = np.array([s.t for s in slots])
        nxt = states + cfg.dt * sim.deriv_batch(cfg, states, controls, ts)
        for i, slot in enumerate(slots):
            slot.state = nxt[i]
            slot.t += cfg.dt
            slot.step += 1
            slot.states.append(nxt[i])
            slot.controls.append(controls[i])

    return [finished[i] for i in range(prefix_next)]


def _collect(cfg, seed, target, test, budget):
    """Generate episodes until ``target`` windows exist; truncate exactly.

    Assembly is ordered by episode index regardless of how the lockstep
    runner interleaved the work.
    """
    mode = "test" if test else "train"
    batch = 64 if cfg.system == "rscp" else 512
    episodes = _run_episode_batch(cfg, seed, test, mode, target, budget, batch)
    parts_s, parts_c, parts_t, parts_e = [], [], [], []
    have = 0
    for ep in episodes:
        got = _episode_windows(
            cfg,
            np.asarray(ep.states),
            np.asarray(ep.controls).reshape(len(ep.controls), -1),
        )
        if got is None:
            continue
        ws, wc, t0 = got
        parts_s.append(ws)
        parts_c.append(wc)
        parts_t.append(t0)
        eid = ep.index + (_TEST_EPISODE_OFFSET if test else 0)
        parts_e.append(np.full(ws.shape[0], eid, dtype=np.uint32))
        have += ws.shape[0]
        if have >= target:
            break
    states = np.concatenate(parts_s)[:target]
    controls = np.concatenate(parts_c)[:target]
    times = np.concatenate(parts_t)[:target]
    eps = np.concatenate(parts_e)[:target]
    return states, controls, times, eps


def generate_dataset(
    cfg,
    train_pool=39_900,
    test_windows=4_000,
    seed=1,
    split_seed=1,
    episode_budget=500_000,
):
    """Excite, window, split, and normalize; see the module docstring."""
    name = f"{cfg.system}-{cfg.variant}"
    tr_s, tr_c, tr_t, tr_e = _collect(cfg, seed, train_pool, False, episode_budget)
    te_s, te_c, te_t, te_e = _collect(cfg, seed, test_windows, True, episode_budget)

    perm = split_permutation(split_seed, train_pool)
    n_train = int(round(0.8 * train_pool))
    split = np.empty(train_pool + test_windows, dtype=np.uint8)
    split[:train_pool][perm[:n_train]] = SPLIT_TRAIN
    split[:train_pool][perm[n_train:]] = SPLIT_VAL
    split[train_pool:] = SPLIT_TEST

    ds = Dataset(
        preset=name,
        states=np.concatenate([tr_s, te_s]),
        controls=np.concatenate([tr_c, te_c]),
        split=split,
        episode_id=np.concatenate([tr_e, te_e]),
        start_time=np.concatenate([tr_t, te_t]),
        seed=seed,
        split_seed=split_seed,
    )
    _compute_stats(ds)
    return ds


# ---------------------------------------------------------------------------
# container i/o


def write_dataset(ds, path):
    header = {
        "preset": ds.preset,
        "windows": int(ds.states.shape[0]),
        "window_len": int(ds.states.shape[1]),
        "state_dim": int(ds.states.shape[2]),
        "control_dim": int(ds.controls.shape[2]),
        "seed": int(ds.seed),
        "split_seed": int(ds.split_seed),
        "state_mean": ds.state_mean.tolist(),
        "state_std": ds.state_std.tolist(),
        "control_mean": ds.control_mean.tolist(),
        "control_std": ds.control_std.tolist(),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(blob)))
        fh.write(blob)
        fh.write(ds.states.astype("<f8").tobytes())
        fh.write(ds.controls.astype("<f8").tobytes())
        fh.write(ds.split.astype("u1").tobytes())
        fh.write(ds.episode_id.astype("<u4").tobytes())
        fh.write(ds.start_time.astype("<f8").tobytes())


def _read_exact(fh, count, what):
    buf = fh.read(count)
    if len(buf) != count:
        raise IntegrityError(f"truncated container while reading {what}")
    return buf


def read_dataset(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        version, hlen = struct.unpack("<II", _read_exact(fh, 8, "header"))
        if version != _VERSION:
            raise FormatError(f"unsupported container version {version}")
        header = json.loads(_read_exact(fh, hlen, "header json"))
        n = header["windows"]
        wl = header["window_len"]
        sd = header["state_dim"]
        cd = header["control_dim"]
        states = np.frombuffer(
            _read_exact(fh, n * wl * sd * 8, "states"), dtype="<f8"
        ).reshape(n, wl, sd)
        controls = np.frombuffer(
            _read_exact(fh, n * wl * cd * 8, "controls"), dtype="<f8"
        ).reshape(n, wl, cd)
        split = np.frombuffer(_read_exact(fh, n, "split"), dtype="u1")
        episode = np.frombuffer(_read_exact(fh, n * 4, "episode ids"), dtype="<u4")
        start = np.frombuffer(_read_exact(fh, n * 8, "start times"), dtype="<f8")
        if fh.read(1):
            raise IntegrityError("trailing bytes after container payload")
    return Dataset(
        preset=header["preset"],
        states=states.copy(),
        controls=controls.copy(),
        split=split.copy(),
        episode_id=episode.copy(),
        start_time=start.copy(),
        seed=header["seed"],
        split_seed=header["split_seed"],
        state_mean=np.asarray(header["state_mean"]),
        state_std=np.asarray(header["state_std"]),
        control_mean=np.asarray(header["control_mean"]),
        control_std=np.asarray(header["control_std"]),
    )


def export_csv(ds, path):
    """Flat inspection dump: one row per window step."""
    n, wl, sd = ds.states.shape
    cd = ds.controls.shape[2]
    cols = (
        ["window", "step", "split", "episode", "start_time"]
        + [f"x{i}" for i in range(sd)]
        + [f"u{i}" for i in range(cd)]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for w in range(n):
            base = (
                f"{w},{{step}},{SPLIT_NAMES[int(ds.split[w])]},"
                f"{int(ds.episode_id[w])},{ds.start_time[w]:.10g}"
            )
            for s in range(wl):
                row = base.format(step=s)
                vals = [f"{v:.17g}" for v in ds.states[w, s]] + [
                    f"{v:.17g}" for v in ds.controls[w, s]
                ]
                fh.write(row + "," + ",".join(vals) + "\n")
