"""The benchmark pipeline: set-up, the timed phases, the correctness gates
and the metrics, for one workload and one seed.

Every workload drives the public ``bkmpc`` API through the phases a user
runs: data generation -> training -> forecast evaluation -> closed-loop
MPC. It is a closed loop with one caller: each operation starts when the
one before it has returned. The seed of a run decides one of its two
inputs: a dataset and that dataset's mini-batch order. Everything else,
the closed-loop episodes and the model initialization included, is fixed
here.
"""

import importlib
import math
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from types import SimpleNamespace

import numpy as np

import common
from common import GateError
from layers import instrument_points
from spans import Instrumentation

#: seed of every run's reference input; each workload's dataset made from
#: it must hash to the value recorded in fixtures/datasets.json
DEFAULT_SEED = 1

#: initialization seed of the models the workloads train
INIT_SEED = 1

#: passes a run makes at least: every timed operation is repeated in each
#: pass and timed by the median of its repeats
MIN_PASSES = 3

#: duration of ``speed_probe`` at the reference machine speed; every
#: timing is reported as if the machine ran at that speed
PROBE_REF_S = 4.0e-3

_PROBE_RNG = np.random.default_rng(0)
_PROBE_SMALL = _PROBE_RNG.standard_normal((30, 30)) + 30.0 * np.eye(30)
_PROBE_BATCH = 0.1 * _PROBE_RNG.standard_normal((64, 16, 16))
_PROBE_LARGE = _PROBE_RNG.standard_normal((270, 270))
_PROBE_LARGE = _PROBE_LARGE @ _PROBE_LARGE.T + 270.0 * np.eye(270)


def speed_probe():
    """Duration (s) of a fixed mix of the work the package does: an
    interpreted loop, many small solves, batched small matrix products
    and products and a factorization at QP size. It uses numpy only, so
    no change to the package moves it; it moves with the machine."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(5_000):
        acc += i * 0.5
        table[i & 63] = acc
    x = np.ones(30)
    for _ in range(100):
        x = np.linalg.solve(_PROBE_SMALL, x)
    m = _PROBE_BATCH
    for _ in range(20):
        m = np.matmul(m, _PROBE_BATCH) + _PROBE_BATCH
    y = np.ones(270)
    for _ in range(20):
        y = _PROBE_LARGE @ y
        y /= np.linalg.norm(y)
    np.linalg.cholesky(_PROBE_LARGE)
    return time.perf_counter() - t0


#: the committed closed-loop checkpoints and how they were trained
CHECKPOINTS = {
    "cartpole-ti": dict(
        file="cartpole-ti-bilinear.bkcp",
        sim_overrides={},
        train_pool=4_000,
        test_windows=1_000,
        data_seed=101,
        init_seed=102,
        train_seed=103,
        epochs=4,
        batch_size=256,
    ),
    "rscp-ti": dict(
        file="rscp-ti-bilinear.bkcp",
        sim_overrides={"train_horizon": 3_000},
        train_pool=2_000,
        test_windows=500,
        data_seed=201,
        init_seed=202,
        train_seed=203,
        epochs=4,
        batch_size=256,
    ),
}

WORKLOADS = {
    # full pipeline on rscp-ti: one long episode per split from a 64-lane
    # lockstep runner, a larger latent, and N=90 box QPs. The horizons are
    # shorter than the preset's 20,040 steps so that passes stay short; the
    # runner still steps all 64 lanes to the horizon for one useful
    # episode, so the wasted share of simulator steps is kept
    "rscp": dict(
        preset="rscp-ti",
        sim_overrides={"train_horizon": 500, "test_horizon": 300},
        train_pool=320,
        test_windows=96,
        epochs=1,
        batch_size=256,
        slow_modes=None,
        setup_reps_per_pass=3,
        eval_repeats=3,
        dataset_in_setup=False,
        gen_seeds=2,
        mpc_episodes=2,
        mpc_steps=dict(scp5=8, linear=10),
    ),
    # training in the slow-mode regime: most operators pass the row-sum
    # prefilter, so the eigenvalue hinge is nearly the whole step. B=32
    # rather than 64 halves a training call (3-4 s), so that a run repeats
    # it often enough; the cost per window does not depend on B. Data
    # generation on cartpole-ti costs up to 1.8x more for some seeds than
    # for others, so each pass also times two more seeds' datasets
    "hinge": dict(
        preset="cartpole-ti",
        sim_overrides={},
        train_pool=40,
        test_windows=128,
        epochs=1,
        batch_size=32,
        slow_modes=dict(a_raw=-0.01, coupling_scale=0.05),
        setup_reps_per_pass=1,
        eval_repeats=3,
        dataset_in_setup=True,
        gen_seeds=4,
        mpc_episodes=2,
        mpc_steps=dict(scp5=15, linear=30),
    ),
}

_MODULES = (
    "bkmpc.simulators",
    "bkmpc.datagen",
    "bkmpc.model",
    "bkmpc.training",
    "bkmpc.qpsolver",
    "bkmpc.scp_mpc",
    "bkmpc.numerics",
    "bkmpc.numerics.dense",
    "bkmpc.numerics.autodiff",
    "bkmpc.results",
)


def _in_package(module_name):
    return module_name == "bkmpc" or module_name.startswith("bkmpc.")


class Modules:
    """The freshly imported package modules of one set-up."""

    def __init__(self):
        for name in [m for m in sys.modules if _in_package(m)]:
            del sys.modules[name]
        for name in _MODULES:
            setattr(self, name.rsplit(".", 1)[-1], importlib.import_module(name))


def _load_checkpoint(mods, preset):
    prov = common.read_json(f"{common.FIXTURES}/provenance.json")["checkpoints"][preset]
    path = f"{common.FIXTURES}/{prov['file']}"
    digest = common.sha256_file(path)
    if digest != prov["sha256"]:
        raise GateError(
            f"checkpoint {prov['file']} has SHA-256 {digest}, provenance "
            f"records {prov['sha256']}"
        )
    params = mods.model.load_checkpoint(path)
    if not mods.model.g_norm(params) > 0.0:
        raise GateError(f"checkpoint {prov['file']} has zero coupling")
    return params


def _generate(mods, wl, seed):
    cfg = mods.simulators.preset(wl["preset"], **wl["sim_overrides"])
    return mods.datagen.generate_dataset(
        cfg, train_pool=wl["train_pool"], test_windows=wl["test_windows"],
        seed=seed,
    )


def _fresh_params(mods, wl, ds):
    """A newly initialized bilinear model; the initialization seed is part
    of the workload, not of the run's inputs."""
    params = mods.model.params_for_dataset(ds, "bilinear", seed=INIT_SEED)
    slow = wl["slow_modes"]
    if slow:
        # slow modes: exp(a * delta) close to 1, and a coupling large
        # enough that the row-sum prefilter passes most operators
        rng = np.random.default_rng([INIT_SEED, 1])
        arrays = params.arrays
        arrays["a_raw"] = np.full_like(arrays["a_raw"], slow["a_raw"])
        for key in ("cpl_l", "cpl_r"):
            arrays[key] = slow["coupling_scale"] * rng.standard_normal(arrays[key].shape)
    return params


def _typical(timings):
    """Median over repeats of (wall s, scale) pairs, at the reference speed."""
    return float(np.median([wall * scale for wall, scale in timings]))


class Run:
    """One benchmark run of one workload.

    A run times the same operations on the same inputs several times. Its
    inputs are those of two seeds: the default seed, whose outputs (the
    dataset hash, the final training loss, the forecast MSE and the
    episodes' final costs) compare code versions and not inputs, and the
    run's seed. After set-up the run works in passes until its deadline
    (and at least ``MIN_PASSES`` are done). For each input, a pass
    generates a dataset, trains a fresh model on it, evaluates the model's
    forecast on its test split and runs the closed-loop episodes on the
    committed checkpoint; each pass also times set-ups.

    The machine the benchmark was tuned on, a shared host, changes speed
    by up to 1.6x from one second or one minute to the next. So each
    timed call is bracketed by ``speed_probe``, and its wall time is
    scaled by ``PROBE_REF_S`` over the mean of the two probes: timings are
    reported at the reference speed. Each operation is timed by the
    median of its scaled repeats. Every repeat must reproduce the first
    bit for bit: dataset, training log, forecast MSE and episodes.
    """

    def __init__(self, workload, seed, rec):
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.inputs = (DEFAULT_SEED, seed)
        self.rec = rec
        self.metrics = {}
        self.operations = 0
        self.work = {}  # (phase, key) -> work of one repeat
        # timings are (wall s, scale to the reference speed) per repeat
        self.walls = defaultdict(list)  # (phase, key) -> timing per repeat
        self.setup_times = []
        self.solve_walls = defaultdict(list)  # (kind, episode) -> (walls, scale)
        self.passes = 0
        self.datasets = {}  # seed -> hash of its first dataset
        self.first = {}  # operation -> outputs of its first repeat

    # -- set-up ----------------------------------------------------------
    def setup(self):
        """The run's own set-up. Every pass times more set-ups, so that
        ``setup_s``, their median, sees the same drift of machine speed
        over the run as the phases do."""
        self.mods, self.sim_cfg, self.ckpt = self._setup_once(keep=True)
        self.twin = self.ckpt.linear_twin()

    def _setup_once(self, keep):
        """Import, build presets, load the checkpoint (and, for ``hinge``,
        build the dataset and parameters), timed. A kept set-up installs
        the instrumentation and becomes the run's; any other is dropped
        and the run's own modules go back into ``sys.modules``."""
        wl = self.wl
        saved = {k: v for k, v in sys.modules.items() if _in_package(k)}
        before = speed_probe()
        t0 = time.perf_counter()
        mods = Modules()
        sim_cfg = mods.simulators.preset(wl["preset"])
        mods.simulators.preset(wl["preset"], **wl["sim_overrides"])
        ckpt = _load_checkpoint(mods, wl["preset"])
        if keep:
            self.instrumentation = Instrumentation(
                self.rec, instrument_points(mods, self.rec),
                loggers=(("bkmpc.numerics", "eig_penalty.skips"),),
            )
            self.instrumentation.__enter__()
        if wl["dataset_in_setup"]:
            with self.rec.span("phase.setup") if keep else nullcontext():
                ds = _generate(mods, wl, self.seed)
            _fresh_params(mods, wl, ds)
        wall = time.perf_counter() - t0
        self.setup_times.append((wall, PROBE_REF_S / (0.5 * (before + speed_probe()))))
        if wl["dataset_in_setup"]:
            self._check_dataset(self.seed, ds)
        if not keep:
            for name in [k for k in sys.modules if _in_package(k)]:
                del sys.modules[name]
            sys.modules.update(saved)
        return mods, sim_cfg, ckpt

    def close(self):
        self.instrumentation.__exit__(None, None, None)

    def _add(self, phase, key, work, timing, operations=1):
        """One repeat of an operation; its work must be that of the first."""
        if self.work.setdefault((phase, key), work) != work:
            raise GateError(f"{phase} {key}: a repeat did {work}, the first {self.work[(phase, key)]}")
        self.walls[(phase, key)].append((timing.wall, timing.scale))
        self.operations += operations

    def _rate(self, phase):
        """Work over time of all the phase's operations, each timed by the
        median of its repeats."""
        keys = [k for k in self.walls if k[0] == phase]
        return sum(self.work[k] for k in keys) / sum(_typical(self.walls[k]) for k in keys)

    def _repeat(self, key, value):
        """Gate: a repeat must give what the first did, bit for bit."""
        if self.first.setdefault(key, value) != value:
            raise GateError(f"a repeat of {key} gave a different result")

    # -- passes ----------------------------------------------------------
    def measure(self, deadline):
        """Passes until the deadline; a pass starts only if it is expected
        to end closer to the deadline than skipping it would."""
        start = time.perf_counter()
        while self.passes < MIN_PASSES or (
            time.perf_counter() + 0.5 * (time.perf_counter() - start) / self.passes
            < deadline
        ):
            self._pass()
            self.passes += 1
        m = self.metrics
        m["setup_s"] = _typical(self.setup_times)
        m["gen_windows_per_s"] = self._rate("datagen")
        m["train_windows_per_s"] = self._rate("train")
        m["eval_windows_per_s"] = self._rate("eval")
        m["mpc_control_steps_per_s"] = self._rate("mpc")
        # percentiles over all the run's solves of a controller, each solve
        # timed by the median of its repeats
        for kind in ("scp5", "linear"):
            walls = np.concatenate([
                np.median([w * scale for w, scale in v], axis=0)
                for k, v in self.solve_walls.items() if k[0] == kind
            ])
            m[f"mpc_{kind}_solve_ms_p50"] = 1e3 * float(np.median(walls))
            if kind == "scp5":
                m["mpc_scp5_solve_ms_p90"] = 1e3 * float(np.quantile(walls, 0.9))

    def _pass(self):
        for _ in range(self.wl["setup_reps_per_pass"]):
            self._setup_once(keep=False)
        for i, seed in enumerate(self.inputs):
            ds = self._dataset(i, seed)
            final = self._train(i, seed, ds)
            self._evaluate(i, final, ds)
            if i == 0:
                self._mpc()
        # datasets that only time data generation, whose cost varies with
        # the seed far more than that of the other phases
        for i in range(len(self.inputs), self.wl["gen_seeds"]):
            self._dataset(i, int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0]))

    def _dataset(self, i, seed):
        with self._phase("datagen") as ph:
            ds = _generate(self.mods, self.wl, seed)
        self._add("datagen", i, ds.states.shape[0], ph)
        self._check_dataset(seed, ds)
        return ds

    def _check_dataset(self, seed, ds):
        """A repeat must match the seed's first dataset bit for bit, and the
        default seed's must match the recorded hash."""
        digest = common.dataset_sha256(ds)
        if seed not in self.datasets:
            self.datasets[seed] = digest
            if seed == DEFAULT_SEED:
                want = common.read_json(f"{common.FIXTURES}/datasets.json")["sha256"][self.name]
                if digest != want:
                    raise GateError(
                        f"{self.name} dataset for the default seed hashes to "
                        f"{digest}, not the recorded {want}"
                    )
        elif digest != self.datasets[seed]:
            raise GateError("the same seed generated a different dataset")

    def _train(self, i, seed, ds):
        mods, wl = self.mods, self.wl
        tr, dg = mods.training, mods.datagen
        cfg = tr.TrainConfig(epochs=wl["epochs"], batch_size=wl["batch_size"], seed=seed)
        params = _fresh_params(mods, wl, ds)
        with self._phase("train") as ph:
            final, _, tlog = tr.train(ds, params, cfg)
        n_train = ds.indices(dg.SPLIT_TRAIN).size
        steps = wl["epochs"] * math.ceil(n_train / wl["batch_size"])
        self._add("train", i, wl["epochs"] * n_train, ph, operations=steps)
        losses = tlog.train_losses + tlog.val_losses + [tlog.best_test_mse]
        if not all(math.isfinite(v) for v in losses):
            raise GateError(f"non-finite training loss: {losses}")
        self._repeat((i, "training log"), losses)
        if i == 0:
            self.metrics["train_loss_final"] = float(tlog.train_losses[-1])
        return final

    def _evaluate(self, i, params, ds):
        """The forecast evaluation, repeated within the pass too, since one
        call is short."""
        te_s, te_c = ds.subset(self.mods.datagen.SPLIT_TEST)
        tr = self.mods.training
        for _ in range(self.wl["eval_repeats"]):
            with self._phase("eval") as ph:
                mse = tr.evaluate_forecast(params, te_s, te_c)
            self._add("eval", i, te_s.shape[0], ph)
            if not math.isfinite(mse):
                raise GateError(f"non-finite forecast MSE {mse}")
            self._repeat((i, "forecast"), mse)
        if i == 0:
            self.metrics["forecast_mse"] = float(mse)

    def _mpc(self):
        """The closed-loop episodes, one per controller and episode index,
        on the committed checkpoint. Like the checkpoint, the episodes are
        fixed: they are the default seed's, so that solve times compare
        code versions and not episodes, whose difficulty varies widely."""
        mpc = self.mods.scp_mpc
        for e in range(self.wl["mpc_episodes"]):
            for kind, params in (("scp5", self.ckpt), ("linear", self.twin)):
                mcfg = mpc.mpc_preset(
                    self.sim_cfg.system, episode_len=self.wl["mpc_steps"][kind]
                )
                with self._phase("mpc") as ph:
                    log = mpc.run_episode(
                        self.sim_cfg, params, mcfg, controller=kind, lead=0,
                        seed=DEFAULT_SEED, episode_index=e,
                    )
                self._add("mpc", (kind, e), log.steps, ph, operations=log.solves)
                solved = log.solve_wall_s > 0
                self._repeat(
                    (kind, e),
                    (log.states.tobytes(), log.controls.tobytes(), solved.tobytes()),
                )
                self.solve_walls[(kind, e)].append((log.solve_wall_s[solved], ph.scale))
                if e == self.wl["mpc_episodes"] - 1:
                    self.metrics[f"mpc_{kind}_final_log_cost"] = log.final_log_cost()

    @contextmanager
    def _phase(self, name):
        """Times a phase, and the speed probe right before and after it;
        when tracing, the phase is also a top-level span."""
        timing = SimpleNamespace(wall=None, scale=None)
        before = speed_probe()
        with self.rec.span(f"phase.{name}"):
            t0 = time.perf_counter()
            try:
                yield timing
            finally:
                timing.wall = time.perf_counter() - t0
        timing.scale = PROBE_REF_S / (0.5 * (before + speed_probe()))

    # -- totals ------------------------------------------------------------
    def finish(self):
        counts = self.rec.counts
        qps = counts["qp.calls"]
        self.metrics["qp_solved_frac"] = 1.0 - counts["qp.unsolved"] / qps if qps else 1.0
        checked = counts["eig_penalty.checked"]
        skips = counts["eig_penalty.skips"]
        self.metrics["hinge_solved_frac"] = 1.0 - skips / checked if checked else 1.0
        self.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
