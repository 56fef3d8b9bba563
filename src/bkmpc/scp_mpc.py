"""Trust-region sequential-QP model-predictive controller.

One receding-horizon solve works on the frozen operator bundle generated
from the current history:

1. roll the nominal control plan through the latent step map;
2. linearize the step exactly: the state Jacobian is the coupling factor
   times the diagonal hold step (the map is affine in the latent), and
   the control Jacobian is the coupling exponential's derivative toward
   each channel, applied to the held drift by matrix-vector work alone,
   plus the coupling factor times the held input map;
3. eliminate the linearized dynamics: each residual of the objective
   (``cost_residuals``: decoded tracking errors, then control
   increments), evaluated once per iterate, becomes affine in the
   stacked control increments du, res + J du, so the condensed QP is the
   weighted least-squares problem min sum w (res + J du)^2 over the box
   of ``increment_box``: the control box (``control_box``, once per
   solve) minus the plan, within an infinity-norm trust radius. J's
   tracking rows are causal (no step responds to a later increment), and
   its increment rows are fixed, so their penalty is formed once per
   solve. Solve the QP to a KKT point by projected Newton (``qpsolver``),
   warm-started from the previous QP's solution; the episode log counts,
   per solve, the QPs that did not end ``solved``;
4. accept the increment if the true (frozen-bundle) objective, from the
   candidate's residuals, does not increase, otherwise halve the trust
   radius; the plan and its condensed model are then unchanged, so the
   next iteration only shrinks the box.

The plan covers the model's prediction horizon (``ModelHyper.horizon``),
the horizon its bundle was trained to predict over. It is optimized in
normalized control units (the bundle's instance statistics), and the
solve first clips its nominal into the control box in those units;
denormalized controls are clipped to the simulator's action box before
application. The trust region starts at ``_TRUST_INIT``.

``CONTROLLERS`` is the one table of controller kinds, giving each its
SCP iterations per solve: ``scp5`` runs 5, ``scp1`` and ``linear`` one.
Every kind applies the model's coupling (None for a linear model);
``linear`` drives only a coupling-free model, whose zero coupling gives
the same bits as none.

Lead-time execution commits the first ``d + 1`` planned controls to a
queue and re-plans only when the queue empties; neither the plan nor the
operator bundle is re-evaluated inside a commitment window. The next
solve warm-starts from the plan shifted past those d + 1 controls, its
last control held. ``d = 0`` recovers standard receding-horizon control.
The window must fit in the plan, so ``0 <= d < horizon``
(``check_controller``).
"""

import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import datagen as dg
from . import model as mdl
from . import results
from . import simulators as sim
from .model import ContractViolation
from .numerics import dense, eig_values
from .qpsolver import QpProblem, solve_box_qp

#: the trust radius every solve starts from, in normalized control units
_TRUST_INIT = 1.0
#: the trust-region loop stops once the radius falls below this
_TRUST_MIN = 1e-9
#: controller kind -> SCP iterations per solve
CONTROLLERS = {"linear": 1, "scp1": 1, "scp5": 5}
CONTROLLER_KINDS = tuple(CONTROLLERS)


class SolverInvariantError(RuntimeError):
    """An accepted SCP step left the trust region, or the accepted
    objectives increased."""


@dataclass(frozen=True)
class MpcConfig:
    """The closed loop's cost and episode length; the plan spans the model's
    horizon and the controller kind sets the iterations (``CONTROLLERS``)."""

    q_weights: tuple = ()
    r_weights: tuple = ()
    p_weights: tuple = ()
    x_ref: tuple = ()
    episode_len: int = 1_000


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


def linearize(held, coupling, plan_u_norm, z_nom, period):
    """Exact step Jacobians along the nominal: (A_tilde, B_tilde).

    The step is z_{k+1} = exp(P_k) d_k, P_k = T sum_j u_kj G_j, with held
    drift d_k = e_d .* z_k + B_phi u_k (``held`` is the bundle's
    ``OperatorBundle.held``): A_k = exp(P_k) diag(e_d), and column j of
    B_k is T L(P_k, G_j) d_k + exp(P_k) B_phi[:, j], every step's
    exponential and derivative actions from one
    ``dense.matrix_exp_frechet_action`` call, with no derivative matrix.
    """
    H, m = plan_u_norm.shape
    dz = z_nom.shape[1]
    e_d, b_diag = held

    if coupling is None:
        a_t = np.broadcast_to(np.diag(e_d), (H, dz, dz)).copy()
        b_t = np.broadcast_to(b_diag, (H, dz, m)).copy()
        return a_t, b_t

    P = mdl.generator(coupling, plan_u_norm, period)  # (H, dz, dz)
    drift = z_nom[:H] * e_d[None, :] + plan_u_norm @ b_diag.T  # (H, dz)
    e_p, l_drift = dense.matrix_exp_frechet_action(P, coupling, drift)
    a_t = e_p * e_d[None, None, :]
    b_t = period * l_drift + e_p @ b_diag
    return a_t, b_t


def plan_rollout(bundle, coupling, z0, u_norm, period):
    lat, _ = mdl.rollout(z0, u_norm, bundle, coupling, period)
    return lat


def decode_raw(params, bundle, z):
    """Latent -> raw observation units (affine in z)."""
    return params.state_mean + params.state_std * (z @ bundle.decoder.T)


def cost_weights(cfg, horizon):
    """The weights w of ``cost_residuals`` for a ``horizon``-step plan."""
    w_track = np.tile(np.asarray(cfg.q_weights, dtype=float), (horizon, 1))
    w_track[-1] = cfg.p_weights
    return np.concatenate([w_track.ravel(), np.tile(cfg.r_weights, horizon)])


def cost_residuals(cfg, params, bundle, z_nom, u_norm, u_prev_raw):
    """The residuals res of the plan objective sum(w * res**2), w the
    ``cost_weights``: the raw-space decoded tracking errors of steps 1..H
    (weights q, the terminal step H weighted by p), then the raw control
    increments u_0 - u_prev, u_1 - u_0, ... (weights r).
    """
    err = decode_raw(params, bundle, z_nom[1:]) - np.asarray(cfg.x_ref)
    u_raw = bundle.control_mean + bundle.control_std * u_norm
    du = np.diff(np.vstack([u_prev_raw, u_raw]), axis=0)
    return np.concatenate([err.ravel(), du.ravel()])


def plan_cost(w, res):
    """True frozen-bundle objective sum(w * res**2) of a plan's residuals."""
    return float(w @ res**2)


def control_box(bundle, control_low, control_high):
    """(lo, hi): the raw control bounds in the bundle's normalized units."""
    mean, std = bundle.control_mean, bundle.control_std
    return (control_low - mean) / std, (control_high - mean) / std


def increment_box(u_norm, box, trust):
    """(lo, hi) of the increment box: the control box ``box`` (normalized
    units) minus the nominal plan, intersected with the trust region."""
    N = u_norm.size
    lb_n, ub_n = box
    lo = np.maximum((lb_n - u_norm).reshape(N), -trust)
    hi = np.minimum((ub_n - u_norm).reshape(N), trust)
    if np.any(lo > hi + 1e-12):
        raise ContractViolation(
            "empty increment box: nominal plan outside bounds or trust "
            "region collapsed"
        )
    return np.minimum(lo, hi), hi


def _increment_difference(control_std, horizon):
    """kron(I - shift, diag(control_std)) for ``horizon`` steps, zero signs
    included, built block by block: diag(control_std) on the diagonal and
    its negative below it."""
    m = len(control_std)
    scale, steps = np.diag(control_std), np.arange(horizon)
    D = np.zeros((horizon, m, horizon, m))
    D[steps, :, steps] = scale
    D[steps[1:], :, steps[:-1]] = -scale
    return D.reshape(horizon * m, horizon * m)


def condense(a_t, b_t, res, w, dec_scaled, penalty):
    """Eliminate the linearized dynamics: (H, g) of the QP in du.

    The increment enters the latent perturbation as dz_{k+1} =
    A_k dz_k + B_k du_k with dz_0 = 0, so the responses M_k = d z_k / d du
    are causal: B_k in step k's columns, A_k M_{k-1} in earlier ones and
    zero in later ones, on which no product is spent. The tracking rows of
    ``res`` (``cost_residuals``) have the Jacobian J of the responses
    decoded by ``dec_scaled`` = state_std * decoder, so H = 2 J^T W J + P
    and g = 2 J^T W res + p res_r (W = diag(``w``) on those rows, res_r the
    increment rows, constants dropped), where ``penalty`` = (P, p) =
    (2 D^T W_r D, 2 D^T W_r), D = kron(I - shift, diag(control_std)).
    ``scp_solve`` forms ``w``, ``dec_scaled`` and ``penalty`` once per solve.
    """
    H, dz, m = b_t.shape
    N, T = H * m, H * dec_scaled.shape[0]
    resp = np.zeros((H, dz, N))
    resp.reshape(H, dz, H, m)[range(H), :, range(H)] = b_t
    for j in range(1, H):
        np.matmul(a_t[j], resp[j - 1, :, : j * m], out=resp[j, :, : j * m])
    J = (dec_scaled @ resp).reshape(T, N)
    WJ = 2.0 * w[:T, None] * J
    return J.T @ WJ + penalty[0], WJ.T @ res[:T] + penalty[1] @ res[T:]


def scp_solve(cfg, params, bundle, coupling, z0, nominal_u_norm, u_prev_raw,
              control_low, control_high, iterations, qp_warm=None):
    """Up to ``iterations`` trust-region SCP iterations from the nominal
    clipped into the control box; returns (Plan, SolveInfo, final QpSolution)."""
    period = params.hyper.coupling_period
    box = control_box(bundle, control_low, control_high)
    w = cost_weights(cfg, len(nominal_u_norm))
    dec_scaled = params.state_std[:, None] * bundle.decoder  # (n, dz)
    D = _increment_difference(bundle.control_std, len(nominal_u_norm))
    DtW = 2.0 * D.T * w[-len(D):]  # 2 D^T W_r
    penalty = (DtW @ D, DtW)
    u = np.clip(nominal_u_norm, *box)
    z_nom = plan_rollout(bundle, coupling, z0, u, period)
    res = cost_residuals(cfg, params, bundle, z_nom, u, u_prev_raw)
    J = plan_cost(w, res)
    info = SolveInfo([J], [], 0, [], _TRUST_INIT)

    trust = _TRUST_INIT
    sol = qp_warm
    model = None
    for _ in range(iterations):
        # a rejected step leaves the plan, so its model: only the box shrinks
        if model is None:
            a_t, b_t = linearize(bundle.held, coupling, u, z_nom, period)
            model = condense(a_t, b_t, res, w, dec_scaled, penalty)
        sol = solve_box_qp(QpProblem(*model, *increment_box(u, box, trust)), warm=sol)
        info.qp_iterations += sol.iterations
        info.qp_status.append(sol.status)
        du = sol.x.reshape(u.shape)
        cand = u + du
        z_cand = plan_rollout(bundle, coupling, z0, cand, period)
        res_cand = cost_residuals(cfg, params, bundle, z_cand, cand, u_prev_raw)
        J_cand = plan_cost(w, res_cand)
        if J_cand <= J:
            step = float(np.max(np.abs(du)))
            if not step <= trust + 1e-9:
                raise SolverInvariantError(
                    f"accepted step {step:.6g} exceeds the trust radius {trust:.6g}"
                )
            u, z_nom, res, J = cand, z_cand, res_cand, J_cand
            model = None
            info.accepted.append(True)
            info.objectives.append(J)
        else:
            info.accepted.append(False)
            trust *= 0.5
            if trust < _TRUST_MIN:
                break
    info.trust_final = trust
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


def _per_step():
    """An :class:`EpisodeLog` field holding one entry per control step."""
    return field(default=None, metadata={"per_step": True})


@dataclass
class EpisodeLog:
    """One closed-loop episode.

    The per-step fields are the log's only declaration of its per-step
    record: ``run_episode`` fills one value for each, in field order, at
    every control step, and ``to_csv`` writes one column for each, in
    that order and under the field's name, after the state and control
    columns x0.., u0... Between solves the five solve fields,
    ``scp_iters`` to ``solve_wall_s``, read (0, 0, 0, nan, 0.0).
    """

    preset: str
    model: str  # the model kind that drove the controller
    controller: str
    lead: int
    seed: int
    episode_index: int
    states: np.ndarray = _per_step()  # (steps, n)
    controls: np.ndarray = _per_step()  # (steps, m) applied, raw units
    stage_cost: np.ndarray = _per_step()
    running_avg: np.ndarray = _per_step()
    scp_iters: np.ndarray = _per_step()  # SCP iterations of the solve
    qp_iters: np.ndarray = _per_step()
    qp_unsolved: np.ndarray = _per_step()  # non-"solved" QP statuses
    trust_final: np.ndarray = _per_step()  # final trust radius
    solve_wall_s: np.ndarray = _per_step()
    spectral_radius: np.ndarray = _per_step()
    gershgorin_straddle: np.ndarray = _per_step()
    bundle_checksum: np.ndarray = _per_step()
    solves: int = 0
    termination: str = "horizon"

    @classmethod
    def per_step_fields(cls):
        return [f.name for f in fields(cls) if f.metadata.get("per_step")]

    @property
    def steps(self):
        return self.states.shape[0]

    def final_log_cost(self):
        return float(np.log10(max(self.running_avg[-1], 1e-300)))

    def straddle_fraction(self):
        return float(np.mean(self.gershgorin_straddle))

    def to_csv(self, path, git_rev="unknown"):
        _, _, *names = self.per_step_fields()
        head = (
            ["schema", "preset", "model", "controller", "lead", "seed", "episode",
             "git", "step"]
            + [f"x{i}" for i in range(self.states.shape[1])]
            + [f"u{i}" for i in range(self.controls.shape[1])]
            + names
        )
        base = (
            results.EPISODELOG_SCHEMA, self.preset, self.model, self.controller,
            self.lead, self.seed, self.episode_index, git_rev,
        )
        columns = zip(self.states, self.controls, *(getattr(self, k) for k in names))
        rows = [
            base + (t, *x, *u, *rest) for t, (x, u, *rest) in enumerate(columns)
        ]
        results.write_csv(path, head, rows)


def check_controller(params, controller, lead):
    """Raise unless ``controller`` is a controller kind that can drive
    ``params`` (the linear one drives only a coupling-free model) under a
    commitment ``lead`` whose window fits in the plan:
    0 <= lead < the model's horizon."""
    if controller not in CONTROLLERS:
        raise KeyError(f"unknown controller '{controller}'")
    if controller == "linear" and mdl.g_norm(params) != 0.0:
        raise ValueError("the linear controller requires a coupling-free model")
    horizon = params.hyper.horizon
    if not 0 <= lead < horizon:
        raise ValueError(
            f"lead must be >= 0 and below the model's horizon {horizon}, got {lead}"
        )


def run_episode(sim_cfg, params, mpc_cfg, controller="scp5", lead=0,
                seed=0, episode_index=0):
    """Closed-loop episode under the lead-time commitment protocol.

    The episode lives in two arrays, ``xs`` (H + episode_len, n) and
    ``us`` (H + episode_len, m), H the model's lookback. Their first
    H - 1 rows pad the first history with the initial state and the
    neutral control; row H - 1 + k holds the state of step k and the
    control applied at it. That control is provisional until the step
    chooses it: until then it is the last applied control, held. So a
    solve's history is the H rows that end at the current row, its first
    control increment is taken from that row's provisional control, and
    the log's states and controls are the rows after the pad.

    Between solves the runner keeps the previous plan (shifted past the
    committed controls into the next nominal) and the last QP solution
    (the next warm start).
    """
    check_controller(params, controller, lead)

    h = params.hyper
    H = h.lookback
    xs = np.empty((H + mpc_cfg.episode_len, sim_cfg.state_dim))
    us = np.empty((H + mpc_cfg.episode_len, sim_cfg.control_dim))
    rng = dg.episode_rng(seed, episode_index, "mpc")
    xs[:H] = dg.sample_initial_state(sim_cfg, rng)
    us[:H] = sim.neutral_control(sim_cfg)

    iterations = CONTROLLERS[controller]
    coupling = mdl.coupling(params.arrays)
    q, r, ref = map(np.asarray, (mpc_cfg.q_weights, mpc_cfg.r_weights, mpc_cfg.x_ref))

    record = []  # one tuple per step: the per-step fields after the controls
    queue = []
    plan = qp_warm = None
    cum = 0.0
    solves = 0
    termination = "horizon"
    t = np.zeros(1)

    for step in range(mpc_cfg.episode_len):
        i = H - 1 + step
        code = sim.check_termination_batch(sim_cfg, xs[i : i + 1])[0]
        if code:
            termination = sim.TERM_REASONS[code]
            break

        if not queue:
            t0 = time.perf_counter()
            bundle, z0 = mdl.bundle_for_history(
                params, xs[i + 1 - H : i + 1], us[i + 1 - H : i + 1]
            )
            if plan is None:
                nominal = np.zeros((h.horizon, h.control_dim))
            else:
                # the previous plan past its lead + 1 applied controls,
                # its last control held, in the new bundle's units
                raw = plan.u_raw()
                raw = np.vstack([raw[lead + 1 :], np.repeat(raw[-1:], lead + 1, axis=0)])
                nominal = (raw - bundle.control_mean) / bundle.control_std
            plan, info, qp_warm = scp_solve(
                mpc_cfg, params, bundle, coupling, z0, nominal, us[i],
                sim_cfg.control_low, sim_cfg.control_high, iterations, qp_warm,
            )
            wall = time.perf_counter() - t0
            solves += 1
            queue = list(plan.u_raw()[: lead + 1])
            unsolved = sum(status != "solved" for status in info.qp_status)
            solve = (len(info.accepted), info.qp_iterations, unsolved,
                     info.trust_final, wall)
        else:
            solve = (0, 0, 0, np.nan, 0.0)

        u_raw = sim.clip_control(sim_cfg, queue.pop(0))
        u_norm = (u_raw - plan.bundle.control_mean) / plan.bundle.control_std
        a_disc = mdl.discretize(plan.bundle, coupling, u_norm, h.coupling_period)
        rho, straddle = stability_diagnostics(a_disc)

        stage = float(np.sum((xs[i] - ref) ** 2 * q))
        stage += float(np.sum((u_raw - us[i]) ** 2 * r))
        cum += stage
        record.append((stage, cum / (step + 1), *solve, rho, straddle, plan.checksum))
        us[i] = us[i + 1] = u_raw  # the applied control, then held
        xs[i + 1 : i + 2], t = sim.step_euler(sim_cfg, xs[i : i + 1], us[i : i + 1], t)

    names = EpisodeLog.per_step_fields()[2:]
    columns = zip(*record) if record else [()] * len(names)
    logged = slice(H - 1, H - 1 + len(record))
    return EpisodeLog(
        preset=f"{sim_cfg.system}-{sim_cfg.variant}",
        model=h.kind,
        controller=controller,
        lead=lead,
        seed=seed,
        episode_index=episode_index,
        states=xs[logged],
        controls=us[logged],
        solves=solves,
        termination=termination,
        **dict(zip(names, map(np.asarray, columns))),
    )
