"""Seeded trajectory generation, windowing, and the dataset container.

Randomness is counter-based and splittable: every episode draws from its
own Philox stream with key ``(seed, space + episode_index)``
(``episode_key``), ``space`` being 0 for training-pool episodes, 2**32
for test episodes and 2**33 for closed-loop episodes, so episodes can be
generated in any order (or in parallel) and still produce identical
data. The train/validation split permutes the pooled windows with a
separate Philox stream keyed by the fixed ``SPLIT_SEED`` alone, making
the split a pure function of the pool size.

Episodes roll the simulator under per-step i.i.d. uniform control
excitation and are cut into maximally overlapping (stride 1) windows of
60 steps: 30 lookback plus 30 prediction. Test windows come from separate
episodes (disjoint streams and episode ids), never from training
episodes. Normalization statistics are computed from the training subset
only.

Each split takes the shortest index-ordered prefix of its episodes whose
windows reach its request. One lockstep runner simulates the episodes of
both splits as rows of shared lane arrays, each split running at most
half of one lane cap ahead of its prefix. Each lane slot holds one
generator, re-keyed to ``episode_rng``'s stream whenever an episode is
admitted to it, so starting an episode builds no new generator. A
split's head episode (its first unfinished one) is cut where its windows
complete the request, so the long RSCP episodes of both splits run side
by side, only as far as needed. Admission and the cut only decide how
much simulation runs: each episode draws from its own stream in a fixed
order, and the cut drops only windows past the request, so data is a pure
function of (seed, request).
"""

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import simulators as sim
from .results import read_container, write_container
from .results import FormatError, IntegrityError  # noqa: F401  (re-exported)

WINDOW_LEN = 60

#: the key space of each episode stream; see the module docstring
_STREAM_SPACE = {"train": 0, "test": 2**32, "mpc": 2**33}
_TEST_EPISODE_OFFSET = 2**31  # keeps stored test episode ids disjoint

_CHUNK = 256  # excitation draws per refill of a lane's buffer
_MAX_LANES = 512  # lane cap of the lockstep runner, both splits together
_EPISODE_BUDGET = 500_000  # episodes each split may start; then ProgressError

_MAGIC = b"BKDS"
_VERSION = 1

#: the seed of the train/validation split permutation, recorded in the
#: container
SPLIT_SEED = 1

SPLIT_TRAIN, SPLIT_VAL, SPLIT_TEST = 0, 1, 2
SPLIT_NAMES = {SPLIT_TRAIN: "train", SPLIT_VAL: "val", SPLIT_TEST: "test"}


class ProgressError(RuntimeError):
    """Episode budget exhausted before the window targets were met."""


def episode_key(seed, episode_index, stream="train"):
    """The Philox key of an episode of ``stream`` ("train", "test" or
    "mpc"); no module but this one builds a Philox."""
    return seed, _STREAM_SPACE[stream] + episode_index


def episode_rng(seed, episode_index, stream="train"):
    """The documented per-episode stream. It is the definition the
    lockstep runner reproduces: the runner re-keys one generator per lane
    slot to this stream with ``_restart``."""
    return np.random.Generator(
        np.random.Philox(key=episode_key(seed, episode_index, stream))
    )


class _Unseeded(np.random.bit_generator.ISeedSequence):
    """Key 0 for a lane slot's Philox, without hashing a ``SeedSequence``:
    ``Philox(key=...)`` hashes fresh OS entropy that the key then
    overrides, about 20 microseconds; this builds one in under half of
    that, and ``_restart`` keys it for each episode."""

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


def _restart(rng, seed, episode_index, stream="train"):
    """``rng``, a Philox generator, re-keyed in place to the start of
    ``episode_rng(seed, episode_index, stream)``: counter 0, that key and
    an empty buffer. Setting the state takes a few microseconds."""
    key = episode_key(seed, episode_index, stream)
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


#: RSCP initial-state half-widths around the verified fixed point,
#: ordered (xA, xB, T) per vessel.
RSCP_INIT_HALFWIDTH = np.array([0.05, 0.05, 10.0, 0.05, 0.05, 10.0, 0.02, 0.05, 10.0])


def sample_initial_state(cfg, rng):
    """A cart-pole at rest with position uniform in [-4, 4) and angle in
    [-0.1, 0.1), or an RSCP state uniform in ``RSCP_INIT_HALFWIDTH`` around
    the fixed point. The cart-pole draws are ``low + (high - low) * r``,
    what ``rng.uniform(low, high)`` returns bit for bit, from one call."""
    if cfg.system == "cartpole":
        position, angle = rng.random(2).tolist()
        return np.array([-4.0 + 8.0 * position, 0.0, -0.1 + 0.2 * angle, 0.0])
    center = np.asarray(cfg.x_fixed)
    return rng.uniform(center - RSCP_INIT_HALFWIDTH, center + RSCP_INIT_HALFWIDTH)


def _episode_windows(cfg, states, controls, episode_id):
    """All stride-1 windows of WINDOW_LEN steps of an episode with at least
    WINDOW_LEN controls, as read-only views, with start times and ids."""
    ws, wc = (
        np.moveaxis(sliding_window_view(a, WINDOW_LEN, axis=0), -1, 1)
        for a in (states[:-1], controls)
    )
    ids = np.full(len(wc), episode_id, dtype=np.uint32)
    return ws, wc, np.arange(len(wc)) * cfg.dt, ids


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
    out = np.zeros(a.shape[:axis] + (size,) + a.shape[axis + 1 :], dtype=a.dtype)
    out[tuple(slice(0, d) for d in a.shape)] = a
    return out


def _run_episode_batch(cfg, seed, wants):
    """Lockstep episode runner over lane arrays, for both splits at once.

    Returns, for the training pool and then the test split, ``[(states
    (L+1, n), controls (L, m)), ...]``: the shortest index-ordered prefix of
    its episodes whose windows reach its entry of ``wants``; list position
    is the episode index. The last episode ends where the request is met,
    ``need + WINDOW_LEN - 1`` controls into its sequential roll.

    Running episodes are the rows of the lane arrays ``slot``, ``step``,
    ``x`` and ``t``. Each row owns a lane slot, which holds what outlives a
    lockstep step: the episode's (split, index) and last step, its
    trajectory so far (doubling in length as needed), a buffer of
    ``_CHUNK`` raw draws, and one generator. A slot's generator is built
    with the slot and re-keyed by ``_restart`` to ``episode_rng``'s stream
    at each admission, so admitting an episode costs a state-set, not a
    new Philox. The buffer is refilled from that stream whenever ``step %
    _CHUNK == 0``. One lockstep step makes one excitation ``low + span *
    draw`` (what ``Generator.uniform`` over the control box returns, bit
    for bit) and one clip, one stop test (a terminal state or the row's
    last step), and one ``step_euler`` call for all lanes.

    Admission, per split: episode ``i`` starts only while ``i < head +
    lanes`` and ``i < _EPISODE_BUDGET``, ``head`` being its first
    unfinished episode. ``lanes`` starts at 1 and doubles, up to half of
    ``_MAX_LANES`` (at least 1), in every step in which one of the
    split's episodes ends short of its request.
    The head episode is cut where its windows complete the request, and a
    met request ends the split's other lanes; see the module docstring.
    """
    n, m = cfg.state_dim, cfg.control_dim
    low = np.asarray(cfg.control_low, dtype=float)
    high = np.asarray(cfg.control_high, dtype=float)
    span = high - low
    horizon = (cfg.train_horizon, cfg.test_horizon)
    share = max(_MAX_LANES // 2, 1)
    lanes, head, have, nxt = [1, 1], [0, 0], [0, 0], [0, 0]
    finished, live, ended = ({}, {}), ({}, {}), [False, False]
    rows, cap, rngs, owner, free = 0, _CHUNK, [], [], []
    last, buf = np.zeros(0, dtype=int), np.zeros((0, _CHUNK, m))
    traj_x, traj_u = np.zeros((0, cap, n)), np.zeros((0, cap, m))
    slot, step = np.zeros(0, dtype=int), np.zeros(0, dtype=int)
    x, t = np.zeros((0, n)), np.zeros(0)

    def cut(k):
        """The last step of split k's head episode; 0 once its request is met."""
        d = wants[k] - have[k]
        return min(horizon[k], d + WINDOW_LEN - 1) if d > 0 else 0

    while True:
        for k in (0, 1):
            first = head[k]
            while head[k] in finished[k] and have[k] < wants[k]:
                xs, us = finished[k][head[k]]
                us = us[: wants[k] - have[k] + WINDOW_LEN - 1]  # ran past its cut
                finished[k][head[k]] = xs[: len(us) + 1], us
                have[k] += max(len(us) - WINDOW_LEN + 1, 0)
                head[k] += 1
            if head[k] == first:
                continue
            if have[k] >= wants[k]:  # a met request ends the split's lanes
                last[list(live[k].values())] = 0
            elif head[k] in live[k]:  # the new head stops at the cut
                last[live[k][head[k]]] = cut(k)
        need = [wants[0] - have[0], wants[1] - have[1]]
        if max(need) <= 0:
            break
        lanes = [min(2 * a, share) if e and d > 0 else a
                 for a, e, d in zip(lanes, ended, need)]
        if sum(lanes) > rows:  # doubling: the last copy starts from half the rows
            old, rows = rows, min(max(2 * rows, sum(lanes)), 2 * share)
            buf, traj_x, traj_u, last = (
                _grown(a, 0, rows) for a in (buf, traj_x, traj_u, last)
            )
            rngs += [np.random.Generator(np.random.Philox(_Unseeded()))
                     for _ in range(old, rows)]
            owner += [None] * (rows - old)
            free += range(old, rows)

        new_slot, new_x = [], []
        for k in (0, 1):
            if need[k] <= 0:
                continue
            for i in range(nxt[k], min(head[k] + lanes[k], _EPISODE_BUDGET)):
                s = free.pop()
                rng = _restart(rngs[s], seed, i, ("train", "test")[k])
                new_x.append(sample_initial_state(cfg, rng))
                new_slot.append(s)
                owner[s] = k, i
                live[k][i] = s
                last[s] = cut(k) if i == head[k] else horizon[k]
                nxt[k] = i + 1
        if new_slot:
            new_x = np.array(new_x)
            traj_x[new_slot, 0] = new_x
            zero = np.zeros(len(new_slot), dtype=int)
            slot, step = np.concatenate((slot, new_slot)), np.concatenate((step, zero))
            x, t = np.concatenate((x, new_x)), np.concatenate((t, zero))
        if not slot.size:
            raise ProgressError("; ".join(
                f"{have[k]}/{wants[k]} {name} windows after {nxt[k]} episodes"
                for k, name in enumerate(("train", "test")) if need[k] > 0
            ) + "; termination is starving window production")

        stop = (sim.check_termination_batch(cfg, x) != 0) | (step >= last[slot])
        ended = [False, False]
        if stop.any():
            for s, j in zip(slot[stop].tolist(), step[stop].tolist()):
                k, i = owner[s]
                del live[k][i]
                finished[k][i] = traj_x[s, : j + 1].copy(), traj_u[s, :j].copy()
                free.append(s)
                ended[k] = True
            keep = ~stop
            slot, step, x, t = slot[keep], step[keep], x[keep], t[keep]
            if not slot.size:
                continue

        col = step % _CHUNK
        for s in slot[col == 0].tolist():
            rngs[s].random(out=buf[s])
        if step.max() + 1 >= cap:
            cap *= 2
            traj_x, traj_u = _grown(traj_x, 1, cap), _grown(traj_u, 1, cap)
        u = buf[slot, col]  # raw draws, scaled and clipped in place
        u *= span
        u += low
        np.minimum(np.maximum(u, low, out=u), high, out=u)
        x, t = sim.step_euler(cfg, x, u, t)
        traj_x[slot, step + 1] = x
        traj_u[slot, step] = u
        step += 1

    return [[finished[k][i] for i in range(h)] for k, h in enumerate(head)]


def _collect(cfg, seed, wants):
    """Both splits' windows as (states, controls, start times, episode
    ids), the training pool first, each split in episode order whatever
    the runner's interleaving."""
    runs = _run_episode_batch(cfg, seed, wants)
    parts = [
        _episode_windows(cfg, states, controls, index + offset)
        for offset, episodes in zip((0, _TEST_EPISODE_OFFSET), runs)
        for index, (states, controls) in enumerate(episodes)
        if len(controls) >= WINDOW_LEN
    ]
    return (np.concatenate(p) for p in zip(*parts))


def generate_dataset(cfg, train_pool=39_900, test_windows=4_000, seed=1):
    """Excite, window, split, and normalize; see the module docstring."""
    for arg, value in (("train_pool", train_pool), ("test_windows", test_windows)):
        if value < 1:
            raise ValueError(f"{arg} must be at least 1 window, got {value}")
    states, controls, start_time, episode_id = _collect(cfg, seed, (train_pool, test_windows))

    perm = split_permutation(SPLIT_SEED, train_pool)
    n_train = int(round(0.8 * train_pool))
    split = np.empty(train_pool + test_windows, dtype=np.uint8)
    split[:train_pool][perm[:n_train]] = SPLIT_TRAIN
    split[:train_pool][perm[n_train:]] = SPLIT_VAL
    split[train_pool:] = SPLIT_TEST

    ds = Dataset(
        preset=f"{cfg.system}-{cfg.variant}",
        states=states,
        controls=controls,
        split=split,
        episode_id=episode_id,
        start_time=start_time,
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
    """The payload layout of a dataset header, whose statistics must have
    their dimensions' lengths."""
    for key, dim in (("state_mean", "state_dim"), ("state_std", "state_dim"),
                     ("control_mean", "control_dim"), ("control_std", "control_dim")):
        if (got := len(header[key])) != header[dim]:
            raise FormatError(f"dataset {key} has {got} entries, not {header[dim]}")
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
