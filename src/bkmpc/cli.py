"""Command-line harness.

Commands: ``gen-data``, ``train``, ``eval-forecast``, ``run-mpc``,
``lead-sweep``, ``diagnose``. Outputs are versioned CSV tables, JSON
summaries, and deterministic SVG figures, all carrying (preset, model,
seed, git) provenance. A JSON config file may supply per-command
defaults; explicit flags win, and the effective configuration is echoed
into the output directory.

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import datagen as dg
from . import model as mdl
from . import results
from . import scp_mpc as mpc
from . import simulators as sim
from . import svgplot
from . import training as tr


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: usage error: {message}\n")


def _checked(text, convert, ok, rule):
    """``convert(text)``, refused unless ``ok`` holds for it."""
    value = convert(text)
    if not ok(value):
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
    return value


def positive_int(text):
    """Option type of a count: an integer >= 1."""
    return _checked(text, int, lambda v: v >= 1, "an integer >= 1")


def non_negative_int(text):
    """Option type of a commitment lead or a seed: an integer >= 0."""
    return _checked(text, int, lambda v: v >= 0, "an integer >= 0")


def positive_float(text):
    """Option type of a learning rate: a finite number > 0."""
    return _checked(text, float, lambda v: 0.0 < v < np.inf, "a finite number > 0")


def lead_list(text):
    """Option type of ``lead-sweep``'s leads: a comma list of distinct
    integers >= 0, kept as its text."""
    leads = [non_negative_int(v) for v in text.split(",")]
    if len(set(leads)) < len(leads):
        raise argparse.ArgumentTypeError(f"must list distinct leads, got {text}")
    return text


def build_parser():
    p = _Parser(prog="bkmpc", description=__doc__)
    p.add_argument("--config", help="JSON file with per-command defaults")
    sub = p.add_subparsers(dest="command", required=True)
    p.commands = sub

    g = sub.add_parser("gen-data", help="generate a windowed dataset")
    g.add_argument("--preset", required=True, choices=sim.PRESET_NAMES)
    g.add_argument("--out", required=True)
    g.add_argument("--train-windows", type=positive_int, default=39_900)
    g.add_argument("--test-windows", type=positive_int, default=4_000)
    g.add_argument("--seed", type=non_negative_int, default=1)

    t = sub.add_parser("train", help="train a model on a dataset")
    t.add_argument("--data", required=True)
    t.add_argument("--model", required=True, choices=("linear", "bilinear"))
    t.add_argument("--out", required=True)
    t.add_argument("--epochs", type=positive_int, default=401)
    t.add_argument("--seed", type=non_negative_int, default=1)
    t.add_argument("--batch-size", type=positive_int, default=256)
    t.add_argument("--lr", type=positive_float, default=1e-3)
    t.add_argument("--latent-dim", type=positive_int)
    t.add_argument("--hidden", type=positive_int)
    t.add_argument("--no-log-test", action="store_true")
    t.add_argument("--log-test-every", type=positive_int, default=10)

    e = sub.add_parser("eval-forecast", help="forecast-MSE table from runs")
    e.add_argument("--data", required=True)
    e.add_argument("--run", action="append", required=True,
                   help="train output directory (repeatable)")
    e.add_argument("--out", required=True)

    r = sub.add_parser("run-mpc", help="closed-loop episodes")
    r.add_argument("--ckpt", required=True)
    r.add_argument("--preset", required=True, choices=sim.PRESET_NAMES)
    r.add_argument("--controller", required=True,
                   choices=mpc.CONTROLLER_KINDS)
    r.add_argument("--episodes", type=positive_int, default=10)
    r.add_argument("--lead", type=non_negative_int, default=0)
    r.add_argument("--seed", type=non_negative_int, default=1)
    r.add_argument("--episode-len", type=positive_int, default=1_000)
    r.add_argument("--out", required=True)

    s = sub.add_parser("lead-sweep", help="commitment-window sweep")
    s.add_argument("--preset", required=True, choices=sim.PRESET_NAMES)
    s.add_argument("--linear-ckpt", required=True)
    s.add_argument("--bilinear-ckpt", required=True)
    s.add_argument("--lead", type=lead_list, default="0,1,3,5",
                   help="comma list, default %(default)s")
    s.add_argument("--episodes", type=positive_int, default=10)
    s.add_argument("--seed", type=non_negative_int, default=1)
    s.add_argument("--episode-len", type=positive_int, default=1_000)
    s.add_argument("--out", required=True)

    d = sub.add_parser("diagnose", help="coupling norms and disk diagnostics")
    d.add_argument("--ckpt", action="append", default=[])
    d.add_argument("--episode-log", action="append", default=[])
    d.add_argument("--out", required=True)
    return p


def parse_args(argv=None):
    """CLI > config-file > built-in default, per option.

    The ``--config`` file's section for the command becomes the command
    parser's defaults; keys that name no option of the command are
    ignored. A value for an option with a type goes to argparse as text,
    so it is checked exactly like the flag.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        command_parser = parser.commands.choices[args.command]
        with open(args.config, "r", encoding="utf-8") as fh:
            section = json.load(fh).get(args.command, {})
        types = {a.dest: a.type for a in command_parser._actions}
        command_parser.set_defaults(**{
            k: v if types.get(k) is None else str(v) for k, v in section.items()
            if k in vars(args) and k not in ("command", "config")
        })
        args = parser.parse_args(argv)
    return args


def _echo_config(args, rev, **derived):
    """Write the run's options, ``derived`` settings that no option sets and
    the thread settings BLAS reads to ``effective_config.json`` in ``args.out``."""
    os.makedirs(args.out, exist_ok=True)
    effective = {
        k: v for k, v in vars(args).items() if k != "config" and v is not None
    }
    effective.update(derived)
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    effective["threads"] = {k: os.environ.get(k) for k in names} | {"cpu_count": os.cpu_count()}
    effective["git"] = rev
    results.write_json(os.path.join(args.out, "effective_config.json"), effective)


def _load_checkpoint(path):
    """The checkpoint at ``path``, with a hint if there is none."""
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"checkpoint not found: {path} (run `bkmpc train` first or fix "
            "the path)"
        )
    return mdl.load_checkpoint(path)


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args):
    cfg = sim.preset(args.preset)
    ds = dg.generate_dataset(
        cfg,
        train_pool=args.train_windows,
        test_windows=args.test_windows,
        seed=args.seed,
    )
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    dg.write_dataset(ds, args.out)
    print(f"wrote {args.out}: {ds.counts()} windows of preset {ds.preset}")
    return 0


def cmd_train(args):
    ds = dg.read_dataset(args.data)
    empty = [name for name, count in ds.counts().items() if name != "test" and not count]
    if empty:
        raise ValueError(f"dataset {args.data} has no {' or '.join(empty)} windows")
    overrides = {}
    if args.latent_dim is not None:
        overrides.update(latent_dim=args.latent_dim)
    if args.hidden is not None:
        overrides.update(hidden=args.hidden)
    params = mdl.params_for_dataset(ds, args.model, seed=args.seed, **overrides)
    cfg = tr.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        seed=args.seed,
        log_test_every=args.log_test_every,
    )
    rev = results.git_rev()
    # the coupling rank: the preset's, capped at the latent dim
    derived = {"rank": params.hyper.rank} if args.model == "bilinear" else {}
    _echo_config(args, rev, **derived)
    final, best, log = tr.train(ds, params, cfg, log_test=not args.no_log_test)
    for tag, p in (("final", final), ("best", best)):
        meta = {
            "epoch": log.best_epoch if tag == "best" else cfg.epochs - 1,
            "val_loss": log.best_val if tag == "best" else log.val_losses[-1],
            "seed": cfg.seed,
            "data_seed": ds.seed,
            "preset": ds.preset,
            "best_test_mse": log.best_test_mse,
            "git": rev,
        }
        mdl.save_checkpoint(
            p, os.path.join(args.out, f"{args.model}-{tag}.bkcp"), meta=meta
        )
    log.to_csv(os.path.join(args.out, f"{args.model}-trainlog.csv"), git_rev=rev)
    print(
        f"trained {args.model} on {ds.preset}: best val {log.best_val:.6g} "
        f"at epoch {log.best_epoch}"
    )
    return 0


def cmd_eval_forecast(args):
    ds = dg.read_dataset(args.data)
    te_s, te_c = ds.subset(dg.SPLIT_TEST)
    rev = results.git_rev()
    rows = []
    for rundir in args.run:
        found = [
            f for f in sorted(os.listdir(rundir)) if f.endswith("-best.bkcp")
        ] if os.path.isdir(rundir) else []
        if not found:
            raise FileNotFoundError(
                f"no '*-best.bkcp' checkpoint in run directory: {rundir}"
            )
        for fname in found:
            kind = fname.rsplit("-best.bkcp", 1)[0]
            params = _load_checkpoint(os.path.join(rundir, fname))
            best = tr.evaluate_forecast(params, te_s, te_c)
            mean50 = float("nan")
            logpath = os.path.join(rundir, f"{kind}-trainlog.csv")
            if os.path.exists(logpath):
                mses = [
                    float(r["test_mse"])
                    for r in results.read_csv(logpath)
                    if r["test_mse"] != "nan"
                ]
                if mses:
                    mean50 = float(np.mean(mses[-tr.LOG_TEST_FINAL:]))
            for metric, value in (("best", best), ("mean_50", mean50)):
                rows.append((
                    results.FORECAST_SCHEMA, ds.preset, kind, params.seed,
                    rev, metric, value, te_s.shape[0],
                ))
    _echo_config(args, rev)
    path = os.path.join(args.out, "forecast.csv")
    results.write_csv(path, results.FORECAST_COLUMNS, rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def _closed_loop(args, lead, *runs):
    """Set up a closed-loop command: load the checkpoint of each (path,
    controller) run, which must have been trained on ``args.preset``'s
    system and be drivable by its controller at commitment ``lead``, then
    echo the configuration. Returns the simulator config, the cost preset,
    the git revision and the models."""
    cfg_sim = sim.preset(args.preset)
    models = []
    for path, controller in runs:
        params = _load_checkpoint(path)
        if params.preset and not params.preset.startswith(cfg_sim.system):
            raise ValueError(
                f"checkpoint was trained on {params.preset}, not {args.preset}"
            )
        mpc.check_controller(params, controller, lead)
        models.append(params)
    mpc_cfg = mpc.mpc_preset(cfg_sim.system, episode_len=args.episode_len)
    rev = results.git_rev()
    _echo_config(args, rev)
    return cfg_sim, mpc_cfg, rev, models


def _episode_batch(args, cfg_sim, mpc_cfg, rev, params, controller, lead):
    """Run the episodes of one (controller, lead) cell, write their CSVs,
    return their logs and summary rows."""
    logs = []
    rows = []
    for ep in range(args.episodes):
        log = mpc.run_episode(
            cfg_sim, params, mpc_cfg, controller=controller, lead=lead,
            seed=args.seed, episode_index=ep,
        )
        logs.append(log)
        fname = f"episode-{controller}-d{lead}-ep{ep}.csv"
        log.to_csv(os.path.join(args.out, fname), git_rev=rev)
        solves = log.solve_wall_s[log.solve_wall_s > 0]
        rows.append((
            results.MPC_SUMMARY_SCHEMA, args.preset, params.hyper.kind,
            args.seed, rev, controller, lead, ep, log.steps, log.final_log_cost(),
            np.mean(solves) if solves.size else 0.0, log.straddle_fraction(),
            log.termination,
        ))
    return logs, rows


def cmd_run_mpc(args):
    cfg_sim, mpc_cfg, rev, (params,) = _closed_loop(
        args, args.lead, (args.ckpt, args.controller)
    )
    logs, rows = _episode_batch(
        args, cfg_sim, mpc_cfg, rev, params, args.controller, args.lead
    )
    results.write_csv(
        os.path.join(args.out, "mpc_summary.csv"),
        results.MPC_SUMMARY_COLUMNS,
        rows,
    )
    finals = [log.final_log_cost() for log in logs]
    summary = {
        "preset": args.preset,
        "model": params.hyper.kind,
        "controller": args.controller,
        "lead": args.lead,
        "episodes": args.episodes,
        "seed": args.seed,
        "git": rev,
        "final_log_costs": finals,
        "mean_final_log_cost": float(np.mean(finals)),
    }
    results.write_json(os.path.join(args.out, "summary.json"), summary)
    print(
        f"{args.controller} d={args.lead} on {args.preset}: mean final "
        f"log-cost {summary['mean_final_log_cost']:.4f}"
    )
    return 0


_SWEEP_TABLES = {
    "mpc_summary": results.MPC_SUMMARY_COLUMNS,
    "lead_table": results.LEAD_TABLE_COLUMNS,
    "wall_table": results.WALL_TABLE_COLUMNS,
    "cost_bands": results.BAND_COLUMNS,
}


def cmd_lead_sweep(args):
    leads = [int(v) for v in args.lead.split(",")]
    cfg_sim, mpc_cfg, rev, models = _closed_loop(
        args, max(leads), (args.linear_ckpt, "linear"), (args.bilinear_ckpt, "scp5")
    )
    tables = {name: [] for name in _SWEEP_TABLES}
    series_by_lead = {d: [] for d in leads}
    for controller, params in zip(("linear", "scp5"), models):
        for d in leads:
            logs, rows = _episode_batch(
                args, cfg_sim, mpc_cfg, rev, params, controller, d
            )
            cell = (args.preset, params.hyper.kind, args.seed, rev, controller, d)
            finals = np.array([log.final_log_cost() for log in logs])
            # total solve wall over total control steps
            step_walls = np.concatenate([log.solve_wall_s for log in logs])
            # per step: the mean running cost of the episodes still running,
            # banded by 0.3 of its standard deviation, and their count
            band = []
            for step in range(max(log.steps for log in logs)):
                alive = [log.running_avg[step] for log in logs if log.steps > step]
                band.append((step, float(np.mean(alive)),
                             0.3 * float(np.std(alive)), len(alive)))
            tables["mpc_summary"] += rows
            tables["lead_table"].append((
                results.LEAD_TABLE_SCHEMA, *cell, len(logs), finals.mean(), finals.std()
            ))
            tables["wall_table"].append(
                (results.WALL_TABLE_SCHEMA, *cell, step_walls.mean())
            )
            tables["cost_bands"] += [(results.BAND_SCHEMA, *cell, *b) for b in band]
            series_by_lead[d].append(svgplot.Series(
                f"{controller} d={d}", [b[0] * cfg_sim.dt for b in band],
                [b[1] for b in band], [b[2] for b in band],
            ))
    for name, columns in _SWEEP_TABLES.items():
        results.write_csv(os.path.join(args.out, f"{name}.csv"), columns, tables[name])
    unit = "s" if cfg_sim.system == "cartpole" else "h"
    for d in leads:
        svgplot.emit_svg(
            series_by_lead[d],
            os.path.join(args.out, f"lead-d{d}.svg"),
            f"{args.preset}: running-average cost, d={d}",
            f"time [{unit}]",
            "log10 running-average cost",
        )
    print(f"lead sweep done: {len(tables['lead_table'])} (controller, d) cells")
    return 0


def cmd_diagnose(args):
    rev = results.git_rev()
    rows = []
    for path in args.ckpt:
        params = _load_checkpoint(path)
        rows.append((
            results.DIAG_SCHEMA, params.preset, params.hyper.kind,
            params.seed, rev, "coupling_frobenius_norm", mdl.g_norm(params),
            os.path.basename(path),
        ))
    for path in args.episode_log:
        log_rows = results.read_csv(path)
        flags = [int(r["gershgorin_straddle"]) for r in log_rows]
        last = log_rows[-1] if log_rows else {"preset": "", "model": "", "seed": ""}
        rows.append((
            results.DIAG_SCHEMA, last["preset"], last["model"], last["seed"], rev,
            "gershgorin_straddle_fraction", np.mean(flags) if flags else 0.0,
            os.path.basename(path),
        ))
    _echo_config(args, rev)
    path = os.path.join(args.out, "diagnose.csv")
    results.write_csv(path, results.DIAG_COLUMNS, rows)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval-forecast": cmd_eval_forecast,
    "run-mpc": cmd_run_mpc,
    "lead-sweep": cmd_lead_sweep,
    "diagnose": cmd_diagnose,
}


def main(argv=None):
    try:
        args = parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except BrokenPipeError:
        return 2
    except Exception as exc:  # runtime failures map to exit code 2
        print(f"bkmpc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
