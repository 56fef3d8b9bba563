"""Seeded trajectory generation, windowing, and the dataset container.

Randomness is counter-based and splittable: every episode draws from its
own Philox stream with key ``(seed, space + episode_index)`` where
``space`` is 0 for training-pool episodes and 2**32 for test episodes, so
episodes can be generated in any order (or in parallel) and still produce
identical data. The train/validation split permutes the pooled windows
with a separate Philox stream keyed by the fixed ``SPLIT_SEED`` alone,
making the split a pure function of the pool size.

Episodes roll the simulator under per-step i.i.d. uniform control
excitation and are cut into maximally overlapping (stride 1) windows of
60 steps: 30 lookback plus 30 prediction. Test windows come from separate
episodes (disjoint streams and episode ids), never from training
episodes. Normalization statistics are computed from the training subset
only.

Each split takes the shortest index-ordered prefix of episodes whose
windows reach the request. A lockstep runner simulates the episodes as
rows of lane arrays. It admits episode ``i`` only while ``i`` is less
than the first unfinished episode plus the lane count; the lane count
starts at 1 and doubles whenever an episode ends short of the request.
One long RSCP episode therefore runs alone, while short CartPole episodes
quickly fill all lanes. Admission only decides how much simulation runs
ahead of the prefix: each episode's draws come from its own stream in a
fixed order, so the data is a pure function of (seed, request).
"""

from dataclasses import dataclass, field

import numpy as np

from . import simulators as sim
from .results import read_container, write_container
from .results import FormatError, IntegrityError  # noqa: F401  (re-exported)

WINDOW_LEN = 60

_TRAIN_SPACE = 0
_TEST_SPACE = 2**32
_TEST_EPISODE_OFFSET = 2**31  # keeps stored test episode ids disjoint

_CHUNK = 256  # excitation draws per refill of a lane's buffer

_MAGIC = b"BKDS"
_VERSION = 1

#: the seed of the train/validation split permutation, recorded in the
#: container
SPLIT_SEED = 1

SPLIT_TRAIN, SPLIT_VAL, SPLIT_TEST = 0, 1, 2
SPLIT_NAMES = {SPLIT_TRAIN: "train", SPLIT_VAL: "val", SPLIT_TEST: "test"}


class ProgressError(RuntimeError):
    """Episode budget exhausted before the window targets were met."""


def episode_rng(seed, episode_index, test=False):
    """The documented per-episode stream; see module docstring."""
    space = _TEST_SPACE if test else _TRAIN_SPACE
    return np.random.Generator(np.random.Philox(key=[seed, space + episode_index]))


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


def _grown(a, axis, size):
    """``a`` zero-padded along ``axis`` to length ``size``."""
    pad = [(0, 0)] * a.ndim
    pad[axis] = (0, size - a.shape[axis])
    return np.pad(a, pad)


def _run_episode_batch(cfg, seed, test, want, budget, max_lanes=512):
    """Lockstep episode runner over lane arrays.

    Returns ``[(states (L+1, n), controls (L, m)), ...]`` for the shortest
    index-ordered prefix of episodes whose cumulative window count reaches
    ``want``; list position is the episode index. ``test`` picks both the
    episodes' random streams and the simulator's termination mode.

    Running episodes are the rows of the lane arrays ``episode``, ``x``,
    ``t`` and ``step``. Each also owns a slot of the per-lane buffers: one
    of ``_CHUNK`` excitation draws, refilled from the episode's own stream
    whenever ``step % _CHUNK == 0``, and one holding its trajectory so far,
    which doubles in length as needed. One lockstep step makes one clip,
    one termination check and one ``step_euler`` call for all lanes.

    Admission: episode ``i`` starts only while ``i < prefix_next + lanes``,
    where ``prefix_next`` is the first episode not yet finished. ``lanes``
    starts at 1 and doubles, up to ``max_lanes``, in every step in which
    an episode ends while the request is still unmet. Admission decides
    only how much work runs ahead of the prefix, never the result: every
    episode draws from its own stream in the order the sequential episode
    does, and the prefix is taken in index order, so the result is a pure
    function of (seed, want).
    """
    mode = "test" if test else "train"
    n, m = cfg.state_dim, cfg.control_dim
    lanes, cap = 1, _CHUNK
    episode, slot, step = (np.zeros(0, dtype=int) for _ in range(3))
    x, t = np.zeros((0, n)), np.zeros(0)
    buf = np.zeros((lanes, _CHUNK, m))
    traj_x = np.zeros((lanes, cap, n))
    traj_u = np.zeros((lanes, cap, m))
    rngs = [None] * lanes
    free = list(range(lanes))
    finished = {}
    prefix_next = prefix_windows = next_episode = 0
    ended = False

    while True:
        while prefix_next in finished and prefix_windows < want:
            prefix_windows += max(len(finished[prefix_next][1]) - WINDOW_LEN + 1, 0)
            prefix_next += 1
        if prefix_windows >= want:
            break
        if ended and lanes < max_lanes:
            old, lanes = lanes, min(2 * lanes, max_lanes)
            buf, traj_x, traj_u = (_grown(a, 0, lanes) for a in (buf, traj_x, traj_u))
            rngs += [None] * (lanes - old)
            free += range(old, lanes)

        new = np.arange(next_episode, min(prefix_next + lanes, budget))
        if new.size:
            new_slot = np.array([free.pop() for _ in new])
            x_new = np.empty((new.size, n))
            for j, (i, s) in enumerate(zip(new, new_slot)):
                rngs[s] = episode_rng(seed, i, test=test)
                x_new[j] = sample_initial_state(cfg, rngs[s])
            traj_x[new_slot, 0] = x_new
            episode = np.concatenate([episode, new])
            slot = np.concatenate([slot, new_slot])
            step = np.concatenate([step, np.zeros(new.size, dtype=int)])
            x = np.concatenate([x, x_new])
            t = np.concatenate([t, np.zeros(new.size)])
            next_episode += new.size
        if not episode.size:
            raise ProgressError(
                f"{prefix_windows}/{want} {mode} windows after {next_episode} "
                "episodes; termination is starving window production"
            )

        stop = sim.check_termination_batch(cfg, x, step, mode=mode) != 0
        ended = bool(stop.any())
        if ended:
            for i, s, k in zip(episode[stop], slot[stop], step[stop]):
                finished[i] = traj_x[s, : k + 1].copy(), traj_u[s, :k].copy()
                free.append(s)
            keep = ~stop
            episode, slot, step, x, t = (a[keep] for a in (episode, slot, step, x, t))
            if not episode.size:
                continue

        for s in slot[step % _CHUNK == 0]:
            buf[s] = rngs[s].uniform(
                cfg.control_low, cfg.control_high, size=(_CHUNK, m)
            )
        if step.max() + 1 >= cap:
            cap *= 2
            traj_x, traj_u = _grown(traj_x, 1, cap), _grown(traj_u, 1, cap)
        u = sim.clip_control(cfg, buf[slot, step % _CHUNK])
        x, t = sim.step_euler(cfg, x, u, t)
        traj_x[slot, step + 1] = x
        traj_u[slot, step] = u
        step = step + 1

    return [finished[i] for i in range(prefix_next)]


def _collect(cfg, seed, target, test, budget):
    """Generate episodes until ``target`` windows exist; truncate exactly.

    Assembly is ordered by episode index regardless of how the lockstep
    runner interleaved the work.
    """
    episodes = _run_episode_batch(cfg, seed, test, target, budget)
    offset = _TEST_EPISODE_OFFSET if test else 0
    parts_s, parts_c, parts_t, parts_e = [], [], [], []
    for index, (states, controls) in enumerate(episodes):
        got = _episode_windows(cfg, states, controls)
        if got is None:
            continue
        ws, wc, t0 = got
        parts_s.append(ws)
        parts_c.append(wc)
        parts_t.append(t0)
        parts_e.append(np.full(ws.shape[0], index + offset, dtype=np.uint32))
    parts = (parts_s, parts_c, parts_t, parts_e)
    return tuple(np.concatenate(p)[:target] for p in parts)


def generate_dataset(
    cfg,
    train_pool=39_900,
    test_windows=4_000,
    seed=1,
    episode_budget=500_000,
):
    """Excite, window, split, and normalize; see the module docstring."""
    name = f"{cfg.system}-{cfg.variant}"
    tr_s, tr_c, tr_t, tr_e = _collect(cfg, seed, train_pool, False, episode_budget)
    te_s, te_c, te_t, te_e = _collect(cfg, seed, test_windows, True, episode_budget)

    perm = split_permutation(SPLIT_SEED, train_pool)
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
        split_seed=SPLIT_SEED,
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
    payload = [
        (ds.states, "<f8"),
        (ds.controls, "<f8"),
        (ds.split, "u1"),
        (ds.episode_id, "<u4"),
        (ds.start_time, "<f8"),
    ]
    write_container(path, _MAGIC, _VERSION, header, payload)


def _dataset_layout(header):
    n, wl = header["windows"], header["window_len"]
    return [
        ("states", "<f8", (n, wl, header["state_dim"])),
        ("controls", "<f8", (n, wl, header["control_dim"])),
        ("split", "u1", (n,)),
        ("episode_id", "<u4", (n,)),
        ("start_time", "<f8", (n,)),
    ]


def read_dataset(path):
    header, arrays = read_container(path, _MAGIC, _VERSION, _dataset_layout)
    return Dataset(
        preset=header["preset"],
        seed=header["seed"],
        split_seed=header["split_seed"],
        state_mean=np.asarray(header["state_mean"]),
        state_std=np.asarray(header["state_std"]),
        control_mean=np.asarray(header["control_mean"]),
        control_std=np.asarray(header["control_std"]),
        **arrays,
    )
