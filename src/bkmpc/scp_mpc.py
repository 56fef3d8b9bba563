"""Trust-region sequential-QP model-predictive controller.

One receding-horizon solve works on the frozen operator bundle generated
from the current history:

1. roll the nominal control plan through the latent step map;
2. linearize the step exactly: the state Jacobian is the coupling factor
   times the diagonal hold step (the map is affine in the latent), and
   the control Jacobian combines the directional derivative of the
   coupling exponential with the held input map;
3. eliminate the linearized dynamics: each residual of the objective
   (``cost_residuals``: decoded tracking errors, then control
   increments) becomes affine in the stacked control increments du,
   res + J du, so the condensed QP is the weighted least-squares problem
   min sum w (res + J du)^2 over the intersection of the feasible box and
   an infinity-norm trust region; solve it to a KKT point by projected
   Newton (``qpsolver``), warm-started from the previous QP's solution;
   the episode log counts, per solve, the QPs that did not end
   ``solved``;
4. accept the increment if the true (frozen-bundle) objective does not
   increase, otherwise halve the trust radius.

The plan is optimized in normalized control units (the bundle's instance
statistics); denormalized controls are clipped to the simulator's action
box before application. The ``linear`` controller is the same solve with
the coupling disabled and a single iteration, which for a coupling-free
model is bit-identical arithmetic.

Lead-time execution commits the first ``d + 1`` planned controls to a
queue and re-plans only when the queue empties; neither the plan nor the
operator bundle is re-evaluated inside a commitment window (the only
supported regeneration policy). ``d = 0`` recovers standard
receding-horizon control.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import datagen as dg
from . import model as mdl
from . import results
from . import simulators as sim
from .model import ContractViolation
from .numerics import dense, eig_values
from .qpsolver import QpProblem, solve_box_qp

_MPC_EPISODE_SPACE = 2**33


class SolverInvariantError(RuntimeError):
    """An accepted SCP step left the trust region, or the accepted
    objectives increased."""


@dataclass(frozen=True)
class MpcConfig:
    horizon: int = 30
    n_scp: int = 5
    trust_init: float = 1.0  # normalized control units
    trust_min: float = 1e-9
    q_weights: tuple = ()
    r_weights: tuple = ()
    p_weights: tuple = ()
    x_ref: tuple = ()
    episodes: int = 10
    episode_len: int = 1_000
    qp_eps_abs: float = 1e-6
    qp_max_iter: int = 4_000
    assert_descent: bool = True


def mpc_preset(system, **overrides):
    """Benchmark cost presets: pole-angle-heavy tracking for the cart,
    composition-heavy setpoint tracking for the reactor train."""
    if system == "cartpole":
        base = dict(
            q_weights=(1.0, 0.01, 100.0, 0.01),
            r_weights=(0.5,),
            p_weights=(5000.0, 0.0, 0.0, 0.0),
            x_ref=(0.0, 0.0, 0.0, 0.0),
        )
    elif system == "rscp":
        q = (1e4, 1e4, 1.0, 1e4, 1e4, 1.0, 1e4, 1e4, 1.0)
        base = dict(
            q_weights=q,
            r_weights=(5e-12,) * 3,
            p_weights=q,
            x_ref=tuple(sim.RSCP_X_SET),
        )
    else:
        raise KeyError(f"no MPC preset for system '{system}'")
    base.update(overrides)
    return MpcConfig(**base)


@dataclass
class Plan:
    u_norm: np.ndarray  # (H, m) in the bundle's normalized units
    z_nom: np.ndarray  # (H+1, dz) exact rollout of u_norm
    objective: float
    bundle: mdl.OperatorBundle  # single (unbatched) ndarray bundle
    checksum: str = ""

    def u_raw(self):
        return self.bundle.control_mean + self.bundle.control_std * self.u_norm


@dataclass
class SolveInfo:
    objectives: list  # accepted-iterate objective sequence (J0 included)
    accepted: list  # bool per iteration
    qp_iterations: int
    qp_status: list
    trust_final: float


def linearize(bundle, coupling, plan_u_norm, z_nom, period):
    """Exact step Jacobians along the nominal: (A_tilde, B_tilde).

    A_k is the coupling factor at u_k times the diagonal hold step (the
    step map is affine in the latent state). Column j of B_k is the
    directional derivative of the coupling exponential toward channel j,
    applied to the held drift, plus the coupling factor times the held
    input column.
    """
    H, m = plan_u_norm.shape
    dz = z_nom.shape[1]
    e_d, b_diag = mdl.held_step(bundle)

    if coupling is None:
        a_t = np.tile(np.diag(e_d), (H, 1, 1))
        b_t = np.tile(b_diag, (H, 1, 1))
        return a_t, b_t

    P = mdl.coupling_generators(coupling, plan_u_norm, period)  # (H, dz, dz)
    drift = z_nom[:H] * e_d[None, :] + plan_u_norm @ b_diag.T  # (H, dz)
    # one batched block exponential for all (step, channel) directions
    Ms = np.repeat(P, m, axis=0)
    Es = np.tile(coupling, (H, 1, 1))
    e_p_rep, L = dense.matrix_exp_frechet(Ms, Es)
    e_p = e_p_rep[::m] if m > 1 else e_p_rep
    L = L.reshape(H, m, dz, dz)
    a_t = e_p * e_d[None, None, :]
    b_t = period * np.einsum("kjab,kb->kaj", L, drift) + e_p @ b_diag
    return a_t, b_t


def plan_rollout(bundle, coupling, z0, u_norm, period):
    lat, _ = mdl.rollout(z0, u_norm, bundle, coupling, period)
    return lat


def decode_raw(params, bundle, z):
    """Latent -> raw observation units (affine in z)."""
    return params.state_mean + params.state_std * (z @ bundle.decoder.T)


def cost_residuals(cfg, params, bundle, z_nom, u_norm, u_prev_raw):
    """The plan objective as (w, res), objective = sum(w * res**2).

    ``res`` stacks the raw-space decoded tracking errors of steps 1..H
    (weights q, the terminal step H weighted by p), then the raw control
    increments u_0 - u_prev, u_1 - u_0, ... (weights r).
    """
    H = u_norm.shape[0]
    w_track = np.tile(np.asarray(cfg.q_weights, dtype=float), (H, 1))
    w_track[-1] = cfg.p_weights
    err = decode_raw(params, bundle, z_nom[1:]) - np.asarray(cfg.x_ref)
    u_raw = bundle.control_mean + bundle.control_std * u_norm
    du = np.diff(np.vstack([u_prev_raw, u_raw]), axis=0)
    w = np.concatenate([w_track.ravel(), np.tile(cfg.r_weights, H)])
    return w, np.concatenate([err.ravel(), du.ravel()])


def plan_cost(cfg, params, bundle, z_nom, u_norm, u_prev_raw):
    """True frozen-bundle objective of a plan, raw-space weights."""
    w, res = cost_residuals(cfg, params, bundle, z_nom, u_norm, u_prev_raw)
    return float(w @ res**2)


def condense(cfg, params, bundle, a_t, b_t, z_nom, u_norm, u_prev_raw,
             control_low, control_high, trust):
    """Eliminate the linearized dynamics into a dense box QP in du.

    The increment enters the latent perturbation as dz_{k+1} =
    A_k dz_k + B_k du_k with dz_0 = 0, so every residual of
    ``cost_residuals`` is affine in the stacked du with Jacobian J: the
    decoded responses W_k of steps 1..H over the increment difference
    operator D = kron(I - shift, diag(control_std)). The objective's
    quadratic model is then H = 2 J^T W J, g = 2 J^T W res (constants
    dropped). The box intersects feasibility (bounds minus nominal) with
    the infinity-norm trust region.
    """
    H, m = u_norm.shape
    dz = z_nom.shape[1]
    N = H * m

    lb_n = (control_low - bundle.control_mean) / bundle.control_std
    ub_n = (control_high - bundle.control_mean) / bundle.control_std
    lo = np.maximum((lb_n - u_norm).reshape(N), -trust)
    hi = np.minimum((ub_n - u_norm).reshape(N), trust)
    if np.any(lo > hi + 1e-12):
        raise ContractViolation(
            "empty increment box: nominal plan outside bounds or trust "
            "region collapsed"
        )
    lo = np.minimum(lo, hi)

    # latent responses M_k = d z_k / d du for k = 1..H
    resp = np.empty((H, dz, N))
    M = np.zeros((dz, N))
    for j in range(H):
        M = a_t[j] @ M
        M[:, j * m : (j + 1) * m] += b_t[j]
        resp[j] = M
    dec_scaled = params.state_std[:, None] * bundle.decoder  # (n, dz)
    D = np.kron(np.eye(H) - np.eye(H, k=-1), np.diag(bundle.control_std))
    J = np.vstack([(dec_scaled @ resp).reshape(-1, N), D])
    w, res = cost_residuals(cfg, params, bundle, z_nom, u_norm, u_prev_raw)
    WJ = w[:, None] * J
    return QpProblem(2.0 * (J.T @ WJ), 2.0 * (WJ.T @ res), lo, hi)


def scp_solve(cfg, params, bundle, coupling, z0, nominal_u_norm, u_prev_raw,
              control_low, control_high, qp_warm=None, n_scp=None):
    """Trust-region loop; returns (Plan, SolveInfo, final QpSolution)."""
    period = params.hyper.coupling_period
    n_scp = cfg.n_scp if n_scp is None else n_scp
    u = np.array(nominal_u_norm, dtype=float)
    z_nom = plan_rollout(bundle, coupling, z0, u, period)
    J = plan_cost(cfg, params, bundle, z_nom, u, u_prev_raw)
    info = SolveInfo([J], [], 0, [], cfg.trust_init)

    trust = cfg.trust_init
    sol = qp_warm
    for _ in range(n_scp):
        a_t, b_t = linearize(bundle, coupling, u, z_nom, period)
        qp = condense(
            cfg, params, bundle, a_t, b_t, z_nom, u, u_prev_raw,
            control_low, control_high, trust,
        )
        sol = solve_box_qp(
            qp,
            warm=sol,
            eps_abs=cfg.qp_eps_abs,
            max_iter=cfg.qp_max_iter,
        )
        info.qp_iterations += sol.iterations
        info.qp_status.append(sol.status)
        du = sol.x.reshape(u.shape)
        cand = u + du
        z_cand = plan_rollout(bundle, coupling, z0, cand, period)
        J_cand = plan_cost(cfg, params, bundle, z_cand, cand, u_prev_raw)
        if J_cand <= J:
            step = float(np.max(np.abs(du)))
            if not step <= trust + 1e-9:
                raise SolverInvariantError(
                    f"accepted step {step:.6g} exceeds the trust radius {trust:.6g}"
                )
            u, z_nom, J = cand, z_cand, J_cand
            info.accepted.append(True)
            info.objectives.append(J)
        else:
            info.accepted.append(False)
            trust *= 0.5
            if trust < cfg.trust_min:
                break
    info.trust_final = trust
    if cfg.assert_descent:
        seq = info.objectives
        if not all(b <= a + 1e-12 for a, b in zip(seq, seq[1:])):
            raise SolverInvariantError(
                f"accepted objectives must be non-increasing: {seq}"
            )
    plan = Plan(u, z_nom, J, bundle, bundle.checksum())
    return plan, info, sol


def stability_diagnostics(a_disc):
    """(spectral radius, straddle flag).

    The straddle flag is raised when some row's absolute sum reaches the
    unit circle while another row (or the spectral radius itself) sits
    strictly inside: the cheap disk bound then cannot certify stability.
    """
    reach = np.abs(a_disc).sum(axis=1)
    rho = float(np.max(np.abs(eig_values(a_disc))))
    straddle = bool(np.any(reach >= 1.0) and (np.any(reach < 1.0) or rho < 1.0))
    return rho, straddle


CONTROLLER_KINDS = ("linear", "scp1", "scp5")


class Controller:
    """Receding-horizon wrapper owning warm-start state across calls."""

    def __init__(self, params, mpc_cfg, kind, control_low, control_high):
        if kind not in CONTROLLER_KINDS:
            raise KeyError(f"unknown controller '{kind}'")
        if kind == "linear" and mdl.g_norm(params) != 0.0:
            raise ValueError(
                "the linear controller requires a coupling-free model"
            )
        self.params = params
        self.cfg = mpc_cfg
        self.kind = kind
        self.n_scp = 1 if kind in ("linear", "scp1") else mpc_cfg.n_scp
        self.coupling = None if kind == "linear" else mdl.coupling_matrices(params)
        self.control_low = control_low
        self.control_high = control_high
        self.prev_plan = None
        self.qp_warm = None
        self.u_prev_raw = 0.5 * (control_low + control_high)

    def _nominal(self, bundle):
        H = self.cfg.horizon
        m = self.params.hyper.control_dim
        if self.prev_plan is None:
            u = np.zeros((H, m))
        else:
            # shift-and-hold the previous plan, re-expressed in the new
            # bundle's normalized units
            raw = self.prev_plan.u_raw()
            raw = np.vstack([raw[1:], raw[-1]])
            u = (raw - bundle.control_mean) / bundle.control_std
        lb = (self.control_low - bundle.control_mean) / bundle.control_std
        ub = (self.control_high - bundle.control_mean) / bundle.control_std
        return np.clip(u, lb, ub)

    def solve(self, bundle, z0):
        plan, info, sol = scp_solve(
            self.cfg,
            self.params,
            bundle,
            self.coupling,
            z0,
            self._nominal(bundle),
            self.u_prev_raw,
            self.control_low,
            self.control_high,
            qp_warm=self.qp_warm,
            n_scp=self.n_scp,
        )
        self.prev_plan = plan
        self.qp_warm = sol
        return plan, info


@dataclass
class EpisodeLog:
    preset: str
    controller: str
    lead: int
    seed: int
    episode_index: int
    states: np.ndarray = None
    controls: np.ndarray = None
    stage_costs: np.ndarray = None
    running_avg: np.ndarray = None
    scp_iterations: np.ndarray = None
    qp_iterations: np.ndarray = None
    qp_unsolved: np.ndarray = None  # non-"solved" QP statuses per solve
    trust_final: np.ndarray = None  # final trust radius; nan between solves
    solve_wall_s: np.ndarray = None
    spectral_radius: np.ndarray = None
    gershgorin_straddle: np.ndarray = None
    bundle_checksums: list = field(default_factory=list)
    solves: int = 0
    termination: str = "horizon"

    @property
    def steps(self):
        return self.states.shape[0]

    def final_log_cost(self):
        return float(np.log10(max(self.running_avg[-1], 1e-300)))

    def straddle_fraction(self):
        return float(np.mean(self.gershgorin_straddle))

    def to_csv(self, path, git_rev="unknown"):
        n = self.states.shape[1]
        m = self.controls.shape[1]
        head = (
            ["schema", "preset", "controller", "lead", "seed", "episode", "git",
             "step"]
            + [f"x{i}" for i in range(n)]
            + [f"u{i}" for i in range(m)]
            + ["stage_cost", "running_avg", "scp_iters", "qp_iters",
               "qp_unsolved", "trust_final", "solve_wall_s", "spectral_radius",
               "gershgorin_straddle", "bundle_checksum"]
        )
        base = (
            results.EPISODELOG_SCHEMA, self.preset, self.controller, self.lead,
            self.seed, self.episode_index, git_rev,
        )
        rows = [
            base + (t,)
            + tuple(f"{v:.17g}" for v in self.states[t])
            + tuple(f"{v:.17g}" for v in self.controls[t])
            + (
                f"{self.stage_costs[t]:.10g}",
                f"{self.running_avg[t]:.10g}",
                int(self.scp_iterations[t]),
                int(self.qp_iterations[t]),
                int(self.qp_unsolved[t]),
                results.fmt_float(self.trust_final[t]),
                f"{self.solve_wall_s[t]:.6g}",
                f"{self.spectral_radius[t]:.10g}",
                int(self.gershgorin_straddle[t]),
                self.bundle_checksums[t],
            )
            for t in range(self.steps)
        ]
        results.write_csv(path, head, rows)


def run_episode(sim_cfg, params, mpc_cfg, controller="scp5", lead=0,
                regen="never", seed=0, episode_index=0):
    """Closed-loop episode under the lead-time commitment protocol."""
    if regen != "never":
        raise ValueError("only the regen='never' commitment policy exists")
    if lead < 0:
        raise ValueError("lead must be >= 0")

    h = params.hyper
    rng = np.random.Generator(
        np.random.Philox(key=[seed, _MPC_EPISODE_SPACE + episode_index])
    )
    state = dg.sample_initial_state(sim_cfg, rng)
    neutral = sim.neutral_control(sim_cfg)
    hist_states = [state.copy() for _ in range(h.lookback)]
    hist_controls = [neutral.copy() for _ in range(h.lookback)]

    ctl = Controller(
        params, mpc_cfg, controller, sim_cfg.control_low, sim_cfg.control_high
    )
    q = np.asarray(mpc_cfg.q_weights)
    r = np.asarray(mpc_cfg.r_weights)
    ref = np.asarray(mpc_cfg.x_ref)

    rows = {k: [] for k in (
        "state", "control", "cost", "avg", "scp_it", "qp_it", "qp_unsolved",
        "trust", "wall", "rho", "straddle", "checksum",
    )}
    queue = []
    plan = None
    cum = 0.0
    solves = 0
    termination = "horizon"
    t = 0.0
    u_prev = neutral.copy()

    for step in range(mpc_cfg.episode_len):
        reason = sim.check_termination(sim_cfg, state, step, mode="test")
        if reason == "horizon":
            reason = None  # the episode length below governs the horizon
        if reason is not None:
            termination = reason
            break

        if not queue:
            t0 = time.perf_counter()
            bundle, z0 = mdl.bundle_for_history(
                params, np.asarray(hist_states), np.asarray(hist_controls)
            )
            plan, info = ctl.solve(bundle, z0)
            wall = time.perf_counter() - t0
            solves += 1
            raw_plan = plan.u_raw()
            queue = [raw_plan[i] for i in range(min(lead + 1, raw_plan.shape[0]))]
            scp_it = len(info.accepted)
            qp_it = info.qp_iterations
            qp_unsolved = sum(status != "solved" for status in info.qp_status)
            trust = info.trust_final
        else:
            wall = 0.0
            scp_it = 0
            qp_it = 0
            qp_unsolved = 0
            trust = np.nan

        u_raw = sim.clip_control(sim_cfg, queue.pop(0))
        u_norm = (u_raw - plan.bundle.control_mean) / plan.bundle.control_std
        ops = mdl.discretize(
            plan.bundle, ctl.coupling, u_norm, h.coupling_period
        )
        rho, straddle = stability_diagnostics(ops.a_disc)

        stage = float(np.sum((state - ref) ** 2 * q)) + float(
            np.sum((u_raw - u_prev) ** 2 * r)
        )
        cum += stage
        rows["state"].append(state.copy())
        rows["control"].append(u_raw.copy())
        rows["cost"].append(stage)
        rows["avg"].append(cum / (step + 1))
        rows["scp_it"].append(scp_it)
        rows["qp_it"].append(qp_it)
        rows["qp_unsolved"].append(qp_unsolved)
        rows["trust"].append(trust)
        rows["wall"].append(wall)
        rows["rho"].append(rho)
        rows["straddle"].append(straddle)
        rows["checksum"].append(plan.checksum)

        state, t = sim.step_euler(sim_cfg, state, u_raw, t)
        # histories hold (state, control applied at that state) pairs; the
        # final slot is provisional until its control is chosen, so first
        # complete it, then push the new state with a hold-last control
        hist_controls[-1] = u_raw.copy()
        hist_states.append(state.copy())
        hist_controls.append(u_raw.copy())
        hist_states.pop(0)
        hist_controls.pop(0)
        ctl.u_prev_raw = u_raw
        u_prev = u_raw

    k = len(rows["state"])
    return EpisodeLog(
        preset=f"{sim_cfg.system}-{sim_cfg.variant}",
        controller=controller,
        lead=lead,
        seed=seed,
        episode_index=episode_index,
        states=np.asarray(rows["state"]).reshape(k, sim_cfg.state_dim),
        controls=np.asarray(rows["control"]).reshape(k, sim_cfg.control_dim),
        stage_costs=np.asarray(rows["cost"]),
        running_avg=np.asarray(rows["avg"]),
        scp_iterations=np.asarray(rows["scp_it"]),
        qp_iterations=np.asarray(rows["qp_it"]),
        qp_unsolved=np.asarray(rows["qp_unsolved"], dtype=int),
        trust_final=np.asarray(rows["trust"], dtype=float),
        solve_wall_s=np.asarray(rows["wall"]),
        spectral_radius=np.asarray(rows["rho"]),
        gershgorin_straddle=np.asarray(rows["straddle"], dtype=bool),
        bundle_checksums=rows["checksum"],
        solves=solves,
        termination=termination,
    )
