"""What the traced run wraps, and the per-layer metrics it derives.

``instrument_points`` lists every layer boundary: the function, the name
its caller looks it up by, the span name and a hook that records counts.
``layer_metrics`` turns the spans and counts of a traced run into the
per-layer metrics that ``BENCHMARK.json`` declares; ``phase_table``
gives, for each phase of the pipeline, the self time of every layer below
it and the remainder no layer span covers.
"""

import numpy as np

from common import GateError


def _matrices_hook(rec, label, args, kwargs, out):
    rec.add(f"{label}.matrices", int(np.prod(np.shape(args[0])[:-2])))


def _qp_hook(qpsolver):
    eps = np.finfo(float).eps

    def hook(rec, label, args, kwargs, sol):
        p = args[0]
        rec.add("qp.calls")
        rec.sample("qp.iterations", sol.iterations)
        rec.sample("qp.n", p.n)
        if sol.status != "solved":
            rec.add("qp.unsolved")
            return
        primal, station = qpsolver.kkt_residual(p, sol.x, sol.dual)
        eps_abs = kwargs.get("eps_abs", 1e-6)
        noise = float(np.max(np.abs(p.H) @ np.abs(sol.x)) + np.max(np.abs(p.g)))
        tol = max(eps_abs, 100.0 * p.n * eps * noise)
        if not (primal <= eps_abs and station <= tol):
            raise GateError(
                f"QP reported solved with KKT residual ({primal:.3g}, "
                f"{station:.3g}) above tolerance {tol:.3g}"
            )
        rec.sample("qp.kkt_residual", station)
    return hook


def _scp_hook(rec, label, args, kwargs, out):
    _, info, _ = out
    seq = info.objectives
    if any(b > a for a, b in zip(seq, seq[1:])):
        raise GateError(f"accepted SCP objectives increase: {seq}")
    rec.add("scp.attempted", len(info.accepted))
    rec.add("scp.accepted", sum(info.accepted))
    rec.sample("scp.trust_final", info.trust_final)


def _clip_hook(rec, label, args, kwargs, out):
    _, norm = out
    rec.sample("train.grad_norm", norm)
    rec.add("train.clipped", float(norm > args[1]))
    rec.add("train.clip_calls")


def _tape_hook(rec, label, args, kwargs, out):
    rec.add("loss_forward.tape_nodes", len(out[0]))


def _rows_hook(rec, label, args, kwargs, out):
    rec.add("deriv_batch.rows", np.shape(args[1])[0])


def _covered_hook(rec, label, args, kwargs, out):
    rec.add("datagen.covered_steps", covered_steps(out))


def _episode_hook(rec, label, args, kwargs, out):
    if rec.inside("datagen.generate_dataset"):
        rec.add("datagen.episodes")


def _eig_penalty_hook(rec, label, args, kwargs, out):
    """Counts, from the arguments, the matrices ``eig_penalty`` gets, those
    passing its row-sum prefilter, and those it may skip with a warning
    (non-finite or passing): every skip it logs is in
    ``eig_penalty.checked``, also one after a ``ConvergenceError``."""
    val = args[0].value
    flat = np.abs(val.reshape((-1,) + val.shape[-2:]))
    finite = np.isfinite(flat).all(axis=(1, 2))
    passed = finite & (flat.sum(axis=2).max(axis=1) >= 1.0 - args[1])
    rec.add("eig_penalty.matrices", flat.shape[0])
    rec.add("eig_penalty.prefilter_pass", int(passed.sum()))
    rec.add("eig_penalty.checked", int(passed.sum() + (~finite).sum()))


def instrument_points(mods, rec):
    """(owner, attribute, span name, hook, when) for every layer boundary.

    Each attribute is the name the caller looks the function up by.
    """
    sim, dg, model, tr = mods.simulators, mods.datagen, mods.model, mods.training
    mpc, ad, dense = mods.scp_mpc, mods.autodiff, mods.dense

    def expm_name(args):
        current = rec.current() or ""
        # the block exponential of a Frechet derivative is part of it
        return None if current.startswith("dense.matrix_exp_frechet") else "dense.matrix_exp"

    def frechet_name(args):
        if rec.inside("autodiff.backward"):
            return "dense.matrix_exp_frechet.adjoint"
        return "dense.matrix_exp_frechet.linearize"

    return [
        (sim, "deriv_batch", "simulators.deriv_batch", _rows_hook, "traced"),
        (sim, "step_euler", "simulators.step_euler", None, "traced"),
        (dg, "generate_dataset", "datagen.generate_dataset", _covered_hook, "traced"),
        (dg, "sample_initial_state", None, _episode_hook, "traced"),
        (model, "loss_forward", "model.loss_forward", _tape_hook, "traced"),
        (model, "loss_and_grads", "model.loss_and_grads", None, "traced"),
        (model, "bundle_for_history", "model.bundle_for_history", None, "traced"),
        (model, "rollout", "model.rollout", None, "traced"),
        (model, "discretize", "model.discretize", None, "traced"),
        (dense, "matrix_exp", expm_name, _matrices_hook, "traced"),
        (dense, "matrix_exp_frechet", frechet_name, _matrices_hook, "traced"),
        (mods.numerics, "backward", "autodiff.backward", None, "traced"),
        (ad, "eig_penalty", "autodiff.eig_penalty", _eig_penalty_hook, "always"),
        (ad, "_eig_penalty_grad", "autodiff.eig_penalty.adjoint", None, "traced"),
        (ad, "eig_values", "eig.eig_values", None, "traced"),
        (ad, "eigen_pair", "eig.eigen_pair", None, "traced"),
        (mpc, "eig_values", "eig.eig_values", None, "traced"),
        (tr, "clip_gradients", "training.clip_gradients", _clip_hook, "traced"),
        (tr.Adam, "step", "training.Adam.step", None, "traced"),
        (tr, "batch_loss", "training.batch_loss", None, "traced"),
        (tr, "evaluate_forecast", "training.evaluate_forecast", None, "traced"),
        (tr, "train", "training.train", None, "traced"),
        (mpc, "solve_box_qp", "qpsolver.solve_box_qp", _qp_hook(mods.qpsolver), "always"),
        (mpc, "scp_solve", "scp_mpc.scp_solve", _scp_hook, "always"),
        (mpc, "linearize", "scp_mpc.linearize", None, "traced"),
        (mpc, "condense", "scp_mpc.condense", None, "traced"),
        (mpc, "plan_rollout", "scp_mpc.plan_rollout", None, "traced"),
        (mpc, "plan_cost", "scp_mpc.plan_cost", None, "traced"),
        (mpc, "stability_diagnostics", "scp_mpc.stability_diagnostics", None, "traced"),
        (mpc, "run_episode", "scp_mpc.run_episode", None, "traced"),
    ]


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run

def covered_steps(ds):
    """Simulator steps that some emitted window covers, rebuilt from the
    windows' episode ids and start times."""
    dt = float(np.min(np.diff(np.unique(ds.start_time)))) if ds.start_time.size > 1 else 1.0
    start = np.rint(ds.start_time / dt).astype(np.int64)
    order = np.lexsort((start, ds.episode_id))
    eid, start = ds.episode_id[order], start[order]
    width = ds.states.shape[1]
    gap = np.diff(start)
    same = eid[1:] == eid[:-1]
    span = np.where(same, np.minimum(gap, width), width)
    return int(span.sum() + width)


def _pct(values, q):
    return float(np.quantile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def layer_metrics(rec):
    """Per-layer metrics and the per-phase layer table of a traced run."""
    tot = rec.totals()

    def get(name, field):
        return tot.get(name, (0, 0.0, 0.0))[field]

    c, smp = rec.counts, rec.samples
    m = {}
    m["simulators.deriv_batch.rows"] = c["deriv_batch.rows"]
    m["simulators.deriv_batch.self_s"] = get("simulators.deriv_batch", 2)
    m["simulators.step_euler.self_s"] = get("simulators.step_euler", 2)
    m["datagen.generate_dataset.s"] = get("datagen.generate_dataset", 1)
    rows = c["deriv_batch.rows"]
    m["datagen.useful_step_frac"] = c["datagen.covered_steps"] / rows if rows else 0.0
    m["datagen.episodes"] = c["datagen.episodes"]
    calls = get("model.loss_forward", 0)
    m["model.loss_forward.self_s"] = get("model.loss_forward", 2)
    m["model.loss_forward.tape_nodes"] = c["loss_forward.tape_nodes"] / calls if calls else 0.0
    for name in ("bundle_for_history", "rollout", "discretize"):
        m[f"model.{name}.s"] = get(f"model.{name}", 1)
    m["dense.matrix_exp.calls"] = get("dense.matrix_exp", 0)
    m["dense.matrix_exp.matrices"] = c["dense.matrix_exp.matrices"]
    m["dense.matrix_exp.self_s"] = get("dense.matrix_exp", 2)
    for key in ("calls", "matrices", "self_s"):
        m[f"dense.matrix_exp_frechet.{key}"] = 0.0
    for part in ("adjoint", "linearize"):
        name = f"dense.matrix_exp_frechet.{part}"
        vals = {"calls": get(name, 0), "matrices": c[f"{name}.matrices"], "self_s": get(name, 2)}
        for key, v in vals.items():
            m[f"{name}.{key}"] = v
            m[f"dense.matrix_exp_frechet.{key}"] += v
    for name in ("eig_values", "eigen_pair"):
        m[f"eig.{name}.calls"] = get(f"eig.{name}", 0)
        m[f"eig.{name}.self_s"] = get(f"eig.{name}", 2)
    m["autodiff.backward.self_s"] = get("autodiff.backward", 2)
    m["autodiff.eig_penalty.self_s"] = get("autodiff.eig_penalty", 2)
    m["autodiff.eig_penalty.adjoint.self_s"] = get("autodiff.eig_penalty.adjoint", 2)
    mats = c["eig_penalty.matrices"]
    m["autodiff.eig_penalty.prefilter_pass_frac"] = c["eig_penalty.prefilter_pass"] / mats if mats else 0.0
    m["autodiff.eig_penalty.skips"] = c["eig_penalty.skips"]

    steps, start = [], None
    names, starts, ends = rec.names, rec.starts, rec.ends
    for i, name in enumerate(names):
        if name == "model.loss_and_grads":
            start = starts[i]
        elif name == "training.Adam.step" and start is not None:
            steps.append((ends[i] - start) * 1e-6)
            start = None
    m["training.step_ms_p50"] = _pct(steps, 0.5)
    m["training.step_ms_p90"] = _pct(steps, 0.9)
    m["training.clip_gradients.s"] = get("training.clip_gradients", 1)
    clips = c["train.clip_calls"]
    m["training.clip_frac"] = c["train.clipped"] / clips if clips else 0.0
    m["training.grad_norm_p50"] = _pct(smp["train.grad_norm"], 0.5)
    for name in ("Adam.step", "batch_loss", "evaluate_forecast"):
        m[f"training.{name}.s"] = get(f"training.{name}", 1)

    dur = rec.durations()
    qp_ms = [dur[i] * 1e-6 for i, n in enumerate(names) if n == "qpsolver.solve_box_qp"]
    m["qpsolver.solve_box_qp.calls"] = get("qpsolver.solve_box_qp", 0)
    m["qpsolver.solve_box_qp.self_s"] = get("qpsolver.solve_box_qp", 2)
    m["qpsolver.solve_box_qp.ms_p50"] = _pct(qp_ms, 0.5)
    m["qpsolver.solve_box_qp.ms_p90"] = _pct(qp_ms, 0.9)
    its = smp["qp.iterations"]
    m["qpsolver.iterations_p50"] = _pct(its, 0.5)
    m["qpsolver.iterations_p90"] = _pct(its, 0.9)
    m["qpsolver.iterations_max"] = float(max(its)) if its else 0.0
    m["qpsolver.iterations_sum"] = float(sum(its))
    m["qpsolver.unsolved"] = c["qp.unsolved"]
    kkt = smp["qp.kkt_residual"]
    m["qpsolver.kkt_residual_max"] = float(max(kkt)) if kkt else 0.0
    m["qpsolver.n"] = float(max(smp["qp.n"])) if smp["qp.n"] else 0.0
    m["scp_mpc.scp_solve.s"] = get("scp_mpc.scp_solve", 1)
    m["scp_mpc.linearize.self_s"] = get("scp_mpc.linearize", 2)
    m["scp_mpc.condense.self_s"] = get("scp_mpc.condense", 2)
    m["scp_mpc.plan_rollout.s"] = get("scp_mpc.plan_rollout", 1)
    m["scp_mpc.plan_cost.s"] = get("scp_mpc.plan_cost", 1)
    tried = c["scp.attempted"]
    m["scp_mpc.accept_frac"] = c["scp.accepted"] / tried if tried else 0.0
    m["scp_mpc.trust_final_p50"] = _pct(smp["scp.trust_final"], 0.5)
    m["scp_mpc.stability_diagnostics.s"] = get("scp_mpc.stability_diagnostics", 1)

    table = phase_table(rec)
    wall = sum(t["wall_s"] for t in table.values())
    m["bench.uncovered_frac"] = sum(t["uncovered_s"] for t in table.values()) / wall if wall else 0.0
    return {k: float(v) for k, v in m.items()}, table


def phase_table(rec):
    """For each phase: wall time, calls and inclusive and self time per
    layer, and the remainder that no layer span covers (the phase spans'
    own self time)."""
    own = rec.self_times() * 1e-9
    dur = rec.durations() * 1e-9
    top = np.empty(len(rec.names), dtype=np.int64)
    table = {}
    for i, (name, parent) in enumerate(zip(rec.names, rec.parents)):
        top[i] = i if parent < 0 else top[parent]
        root = rec.names[top[i]]
        if not root.startswith("phase."):
            continue
        entry = table.setdefault(
            root[len("phase."):], {"wall_s": 0.0, "uncovered_s": 0.0, "layers": {}}
        )
        if top[i] == i:
            entry["wall_s"] += dur[i]
            entry["uncovered_s"] += own[i]
        else:
            acc = entry["layers"].setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            acc["calls"] += 1
            acc["s"] += dur[i]
            acc["self_s"] += own[i]
    return table
