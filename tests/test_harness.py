"""CLI commands end to end at miniature scale, plus the SVG emitter."""

import json
import os

import numpy as np
import pytest

from bkmpc import datagen as dg
from bkmpc import model as mdl
from bkmpc import results
from bkmpc import simulators as sim
from bkmpc import training as tr
from bkmpc.cli import main
from bkmpc.svgplot import Series, emit_svg


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("harness")
    data = root / "cp.bkds"
    rc = main([
        "gen-data", "--preset", "cartpole-ti", "--out", str(data),
        "--train-windows", "120", "--test-windows", "40", "--seed", "1",
    ])
    assert rc == 0
    for kind in ("linear", "bilinear"):
        rc = main([
            "train", "--data", str(data), "--model", kind,
            "--out", str(root / f"run-{kind}"),
            "--epochs", "3", "--seed", "2", "--batch-size", "32",
            "--latent-dim", "3", "--hidden", "8", "--log-test-every", "1",
        ])
        assert rc == 0
    return root


def test_gen_data_cli_deterministic(tmp_path, workdir):
    out2 = tmp_path / "again.bkds"
    rc = main([
        "gen-data", "--preset", "cartpole-ti", "--out", str(out2),
        "--train-windows", "120", "--test-windows", "40", "--seed", "1",
    ])
    assert rc == 0
    assert (workdir / "cp.bkds").read_bytes() == out2.read_bytes()


def test_train_outputs_exist(workdir):
    for kind in ("linear", "bilinear"):
        run = workdir / f"run-{kind}"
        assert (run / f"{kind}-best.bkcp").exists()
        assert (run / f"{kind}-final.bkcp").exists()
        assert (run / f"{kind}-best.bkcp.json").exists()
        assert (run / f"{kind}-trainlog.csv").exists()
        assert (run / "effective_config.json").exists()


def test_train_rank_is_the_preset_capped_at_the_latent_dim(workdir, tmp_path):
    # the rank is the preset's, capped by --latent-dim, and
    # effective_config.json records it; a linear run has no coupling and
    # takes any latent dim
    run = workdir / "run-bilinear"
    rank = min(mdl.ARCH["cartpole"]["rank"], 3)
    assert mdl.load_checkpoint(run / "bilinear-final.bkcp").hyper.rank == rank
    config = json.loads((run / "effective_config.json").read_text())
    assert config["rank"] == rank and config["latent_dim"] == 3
    for kind in ("bilinear", "linear"):
        out = tmp_path / kind
        rc = main([
            "train", "--data", str(workdir / "cp.bkds"), "--model", kind,
            "--epochs", "1", "--hidden", "8", "--latent-dim", "2",
            "--out", str(out),
        ])
        assert rc == 0
        config = json.loads((out / "effective_config.json").read_text())
        assert config.get("rank") == (2 if kind == "bilinear" else None)
    assert mdl.load_checkpoint(tmp_path / "bilinear" / "bilinear-final.bkcp").hyper.rank == 2


def test_train_rejects_an_empty_split_before_writing(tmp_path, capsys):
    # one training window leaves the validation split empty: a run would
    # have no validation loss, so train refuses the dataset (exit 2) and
    # writes nothing
    data = tmp_path / "one.bkds"
    rc = main([
        "gen-data", "--preset", "cartpole-ti", "--out", str(data),
        "--train-windows", "1", "--test-windows", "1", "--seed", "1",
    ])
    assert rc == 0
    assert dg.read_dataset(data).counts()["val"] == 0
    out = tmp_path / "run"
    rc = main([
        "train", "--data", str(data), "--model", "linear", "--epochs", "1",
        "--out", str(out),
    ])
    assert rc == 2 and "no val windows" in capsys.readouterr().err
    assert not out.exists()


def test_eval_forecast_table(workdir, tmp_path):
    out = tmp_path / "fc"
    rc = main([
        "eval-forecast", "--data", str(workdir / "cp.bkds"),
        "--run", str(workdir / "run-linear"),
        "--run", str(workdir / "run-bilinear"),
        "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "forecast.csv").read_text().strip().split("\n")
    # 2 runs x 1 cell x 2 metrics + header
    assert len(lines) == 5
    assert lines[0].startswith("schema,preset,model")
    for line in lines[1:]:
        parts = line.split(",")
        assert parts[0] == "forecast.v2"
        assert parts[1] == "cartpole-ti"
        assert float(parts[6]) > 0
    # mean_50 is the mean of the last (at most) 50 finite test MSEs of the
    # run's training log
    for kind in ("linear", "bilinear"):
        with open(workdir / f"run-{kind}" / f"{kind}-trainlog.csv") as fh:
            header = fh.readline().strip().split(",")
            col = header.index("test_mse")
            mses = np.array([float(r.split(",")[col]) for r in fh])
        mses = mses[np.isfinite(mses)]
        assert mses.size
        rows = [ln.split(",") for ln in lines[1:]]
        (row,) = [r for r in rows if r[2] == kind and r[5] == "mean_50"]
        assert row[6] == results.fmt_float(np.mean(mses[-50:]))


def test_eval_forecast_mean_50_is_exact_mean_of_training_log(workdir, tmp_path):
    # the training log's test MSEs read back exactly, so mean_50 equals the
    # mean of the in-memory log's last 50 finite test MSEs bit for bit
    ds = dg.read_dataset(workdir / "cp.bkds")
    params = mdl.params_for_dataset(
        ds, "bilinear", seed=2, latent_dim=3, rank=3, hidden=8
    )
    cfg = tr.TrainConfig(epochs=3, batch_size=32, seed=2, log_test_every=1)
    _, _, log = tr.train(ds, params, cfg, log_test=True)
    mses = np.array(log.test_mses)
    mses = mses[np.isfinite(mses)]
    out = tmp_path / "fc"
    rc = main([
        "eval-forecast", "--data", str(workdir / "cp.bkds"),
        "--run", str(workdir / "run-bilinear"), "--out", str(out),
    ])
    assert rc == 0
    rows = results.read_csv(out / "forecast.csv")
    (row,) = [r for r in rows if r["metric"] == "mean_50"]
    assert mses.size and float(row["mse"]) == np.mean(mses[-50:])


def test_eval_forecast_mean_50_averages_the_final_logging_window(
    workdir, tmp_path, monkeypatch
):
    # mean_50 averages the test MSEs of the final LOG_TEST_FINAL epochs,
    # the window in which training logs one every epoch, whatever its
    # length: with 3, a 6-epoch run logs epochs 0, 3, 4 and 5, and
    # mean_50 leaves epoch 0 out
    monkeypatch.setattr(tr, "LOG_TEST_FINAL", 3)
    run = tmp_path / "run"
    rc = main([
        "train", "--data", str(workdir / "cp.bkds"), "--model", "linear",
        "--out", str(run), "--epochs", "6", "--seed", "2",
        "--batch-size", "32", "--latent-dim", "3", "--hidden", "8",
        "--log-test-every", "100",
    ])
    assert rc == 0
    mses = [
        float(r["test_mse"])
        for r in results.read_csv(run / "linear-trainlog.csv")
        if r["test_mse"] != "nan"
    ]
    assert len(mses) == 4
    out = tmp_path / "fc"
    rc = main([
        "eval-forecast", "--data", str(workdir / "cp.bkds"),
        "--run", str(run), "--out", str(out),
    ])
    assert rc == 0
    (row,) = [
        r for r in results.read_csv(out / "forecast.csv")
        if r["metric"] == "mean_50"
    ]
    assert float(row["mse"]) == np.mean(mses[-3:]) != np.mean(mses)


def test_eval_forecast_best_reads_back_exactly(workdir, tmp_path):
    # the table's best MSE reads back equal to the in-memory evaluation,
    # and a second run writes the same bytes
    ds = dg.read_dataset(workdir / "cp.bkds")
    te_s, te_c = ds.subset(dg.SPLIT_TEST)
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        rc = main([
            "eval-forecast", "--data", str(workdir / "cp.bkds"),
            "--run", str(workdir / "run-bilinear"), "--out", str(out),
        ])
        assert rc == 0
    text = (outs[0] / "forecast.csv").read_bytes()
    assert text == (outs[1] / "forecast.csv").read_bytes()
    (row,) = [
        r for r in results.read_csv(outs[0] / "forecast.csv")
        if r["metric"] == "best"
    ]
    best = mdl.load_checkpoint(workdir / "run-bilinear" / "bilinear-best.bkcp")
    assert float(row["mse"]) == tr.evaluate_forecast(best, te_s, te_c)


def test_eval_forecast_missing_checkpoint(tmp_path, workdir, capsys):
    # a readable dataset and a run directory without a best checkpoint:
    # the run directory is what is refused, before anything is written
    run = tmp_path / "empty-run"
    run.mkdir()
    out = tmp_path / "o"
    rc = main([
        "eval-forecast", "--data", str(workdir / "cp.bkds"), "--run", str(run),
        "--out", str(out),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"no '*-best.bkcp' checkpoint in run directory: {run}" in err
    assert not out.exists()


def test_run_mpc_missing_checkpoint(tmp_path, capsys):
    missing = tmp_path / "nope.bkcp"
    out = tmp_path / "o"
    rc = main([
        "run-mpc", "--ckpt", str(missing), "--preset", "cartpole-ti",
        "--controller", "scp1", "--out", str(out),
    ])
    assert rc == 2
    assert f"checkpoint not found: {missing}" in capsys.readouterr().err
    assert not out.exists()


def test_eval_forecast_zero_coupling_twins(tmp_path, workdir):
    # a bilinear checkpoint with L = R = 0 scores identically to its
    # linear twin
    ds = dg.read_dataset(workdir / "cp.bkds")
    bil = mdl.params_for_dataset(
        ds, "bilinear", seed=5, latent_dim=3, rank=3, conv_kernel=5, hidden=8
    )
    bil.arrays["cpl_l"][:] = 0.0
    bil.arrays["cpl_r"][:] = 0.0
    lin = bil.linear_twin()
    te_s, te_c = ds.subset(dg.SPLIT_TEST)
    a = tr.evaluate_forecast(bil, te_s, te_c)
    b = tr.evaluate_forecast(lin, te_s, te_c)
    assert abs(a - b) <= 1e-12 * max(a, 1.0)


def test_run_mpc_cli(workdir, tmp_path):
    out = tmp_path / "mpc"
    rc = main([
        "run-mpc", "--ckpt", str(workdir / "run-bilinear" / "bilinear-best.bkcp"),
        "--preset", "cartpole-ti", "--controller", "scp1",
        "--episodes", "2", "--lead", "1", "--episode-len", "16",
        "--seed", "4", "--out", str(out),
    ])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["episodes"] == 2
    assert len(summary["final_log_costs"]) == 2
    rows = (out / "mpc_summary.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 2
    assert all(r.split(",")[0] == "mpc_summary.v2" for r in rows)
    assert (out / "episode-scp1-d1-ep0.csv").exists()


def test_run_mpc_preset_mismatch(workdir, tmp_path, capsys):
    # both closed-loop commands refuse a checkpoint trained on another
    # system, before they write anything
    bil = str(workdir / "run-bilinear" / "bilinear-best.bkcp")
    lin = str(workdir / "run-linear" / "linear-best.bkcp")
    for argv in (
        ["run-mpc", "--ckpt", bil, "--controller", "scp1"],
        ["lead-sweep", "--linear-ckpt", lin, "--bilinear-ckpt", bil],
    ):
        out = tmp_path / argv[0]
        rc = main(argv + [
            "--preset", "rscp-ti", "--episodes", "1", "--episode-len", "4",
            "--out", str(out),
        ])
        assert rc == 2
        assert "trained on cartpole-ti, not rscp-ti" in capsys.readouterr().err
        assert not out.exists()


def _config(tmp_path, command, **section):
    """``--config`` arguments of a new file holding one command section."""
    path = tmp_path / f"cfg{len(list(tmp_path.glob('cfg*.json')))}.json"
    path.write_text(json.dumps({command: section}))
    return ["--config", str(path)]


def test_closed_loop_rejects_bad_values_before_writing(workdir, tmp_path, capsys):
    # no episodes, no steps, or no lead, a lead or seed that is not an
    # integer >= 0 or a repeated sweep lead, from a flag or from the config
    # file, is a usage error (exit 1); a coupled checkpoint for the linear
    # controller, or a lead whose commitment window overruns the model's
    # 30-step plan, is refused (exit 2); neither writes any output
    bil = str(workdir / "run-bilinear" / "bilinear-best.bkcp")
    lin = str(workdir / "run-linear" / "linear-best.bkcp")
    mpc = ["run-mpc", "--ckpt", bil, "--controller", "scp1"]
    sweep = ["lead-sweep", "--linear-ckpt", lin, "--bilinear-ckpt", bil]
    cases = [
        (mpc + ["--episode-len", "0"], 1),
        (mpc + ["--episodes", "0"], 1),
        (mpc + ["--lead=-1"], 1),
        (_config(tmp_path, "run-mpc", episode_len=0) + mpc, 1),
        (_config(tmp_path, "run-mpc", lead=1.5) + mpc, 1),
        (_config(tmp_path, "run-mpc", episodes=1.5) + mpc, 1),
        (_config(tmp_path, "run-mpc", episode_len=2.5) + mpc, 1),
        (sweep + ["--lead=-1"], 1),
        (sweep + ["--lead="], 1),
        (sweep + ["--lead=0,x"], 1),
        (sweep + ["--episodes", "0"], 1),
        (sweep + ["--episode-len", "0"], 1),
        (_config(tmp_path, "lead-sweep", lead="0,-2") + sweep, 1),
        (_config(tmp_path, "lead-sweep", episodes=2.5) + sweep, 1),
        (sweep + ["--lead=0,1,0"], 1),
        (_config(tmp_path, "lead-sweep", lead="3,3") + sweep, 1),
        (["run-mpc", "--ckpt", bil, "--controller", "linear"], 2),
        (["lead-sweep", "--linear-ckpt", bil, "--bilinear-ckpt", bil], 2),
        (mpc + ["--lead", "30"], 2),
        (sweep + ["--lead", "0,30"], 2),
        (mpc + ["--seed", "-2"], 1),
        (_config(tmp_path, "run-mpc", seed=-2) + mpc, 1),
        (sweep + ["--seed=-2"], 1),
        (_config(tmp_path, "lead-sweep", seed=-1) + sweep, 1),
    ]
    for i, (argv, code) in enumerate(cases):
        out = tmp_path / f"out{i}"
        rc = main(argv + ["--preset", "cartpole-ti", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == code, (argv, err)
        assert ("usage error" in err) == (code == 1), err
        assert not out.exists()


def test_counts_reject_bad_values_before_writing(workdir, tmp_path, capsys):
    # a gen-data or train count that is not an integer >= 1, a seed that is
    # not an integer >= 0 or a learning rate that is not a finite number
    # > 0, from a flag or from the config file, is a usage error (exit 1)
    # that writes nothing
    gen = ["gen-data", "--preset", "cartpole-ti"]
    train = ["train", "--data", str(workdir / "cp.bkds"), "--model", "linear"]
    cases = [
        gen + ["--train-windows", "0"],
        gen + ["--test-windows", "0"],
        gen + ["--train-windows=-5"],
        _config(tmp_path, "gen-data", test_windows=2.5) + gen,
        train + ["--epochs", "0"],
        train + ["--batch-size", "0"],
        train + ["--log-test-every", "0"],
        train + ["--latent-dim", "0"],
        train + ["--hidden", "0"],
        _config(tmp_path, "train", epochs=1.5) + train,
        gen + ["--seed", "-3"],
        _config(tmp_path, "gen-data", seed=-3) + gen,
        train + ["--seed=-1"],
        _config(tmp_path, "train", seed=-1) + train,
        train + ["--lr", "nan"],
        train + ["--lr", "inf"],
        train + ["--lr=-1"],
        train + ["--lr", "0"],
        _config(tmp_path, "train", lr="nan") + train,
        _config(tmp_path, "train", lr=-1e-3) + train,
    ]
    for i, argv in enumerate(cases):
        out = tmp_path / f"out{i}"
        rc = main(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1 and "usage error" in err, (argv, err)
        assert not out.exists()


def test_lead_sweep_cli(workdir, tmp_path):
    out = tmp_path / "sweep"
    rc = main([
        "lead-sweep", "--preset", "cartpole-ti",
        "--linear-ckpt", str(workdir / "run-linear" / "linear-best.bkcp"),
        "--bilinear-ckpt", str(workdir / "run-bilinear" / "bilinear-best.bkcp"),
        "--lead", "0,1", "--episodes", "2", "--episode-len", "12",
        "--seed", "4", "--out", str(out),
    ])
    assert rc == 0
    lead_lines = (out / "lead_table.csv").read_text().strip().split("\n")
    assert len(lead_lines) == 1 + 2 * 2  # controllers x leads
    assert all(l.split(",")[0] == "lead_table.v2" for l in lead_lines[1:])
    wall_lines = (out / "wall_table.csv").read_text().strip().split("\n")
    assert len(wall_lines) == 1 + 2 * 2
    assert all(l.split(",")[0] == "wall_table.v3" for l in wall_lines[1:])
    bands = (out / "cost_bands.csv").read_text().strip().split("\n")
    assert bands[0].split(",")[:2] == ["schema", "preset"]
    assert all(l.split(",")[0] == "cost_band.v2" for l in bands[1:])
    assert (out / "lead-d0.svg").exists()
    assert (out / "lead-d1.svg").exists()

    # band half-width column is 0.3 x the per-step episode std dev
    header = bands[0].split(",")
    i_mean = header.index("mean_running_avg")
    i_hw = header.index("band_halfwidth")
    i_alive = header.index("episodes_alive")
    for line in bands[1:4]:
        parts = line.split(",")
        assert int(parts[i_alive]) >= 1
        assert float(parts[i_hw]) >= 0.0

    # a wall cell is the cell's total solve wall over its total control
    # steps, recomputed from its episode logs; with a lead, fewer solves
    # than steps put it below the mean wall per solve
    for row in results.read_csv(out / "wall_table.csv"):
        walls = np.array([
            float(r["solve_wall_s"])
            for ep in range(2)
            for r in results.read_csv(
                out / f"episode-{row['controller']}-d{row['lead']}-ep{ep}.csv"
            )
        ])
        cell = float(row["mean_wall_per_control_step_s"])
        assert cell == pytest.approx(walls.mean(), rel=1e-15, abs=0.0)
        if int(row["lead"]) >= 1:
            assert cell < walls[walls > 0].mean()


def test_lead_sweep_d0_matches_run_mpc(workdir, tmp_path):
    # protocol identity: the sweep's d=0 cell equals a standalone run
    out_r = tmp_path / "solo"
    main([
        "run-mpc", "--ckpt", str(workdir / "run-linear" / "linear-best.bkcp"),
        "--preset", "cartpole-ti", "--controller", "linear",
        "--episodes", "1", "--lead", "0", "--episode-len", "10",
        "--seed", "4", "--out", str(out_r),
    ])
    out_s = tmp_path / "sweep2"
    main([
        "lead-sweep", "--preset", "cartpole-ti",
        "--linear-ckpt", str(workdir / "run-linear" / "linear-best.bkcp"),
        "--bilinear-ckpt", str(workdir / "run-bilinear" / "bilinear-best.bkcp"),
        "--lead", "0", "--episodes", "1", "--episode-len", "10",
        "--seed", "4", "--out", str(out_s),
    ])
    solo = json.loads((out_r / "summary.json").read_text())
    table = (out_s / "lead_table.csv").read_text().strip().split("\n")
    header = table[0].split(",")
    linear_row = [l for l in table[1:] if ",linear," in l][0].split(",")
    mean = float(linear_row[header.index("mean_final_log_cost")])
    assert mean == pytest.approx(solo["mean_final_log_cost"], abs=1e-12)


def test_lead_sweep_d0_summary_rows_match_run_mpc(workdir, tmp_path):
    # every per-episode cost of the sweep's linear d=0 cell reads back
    # exactly as the standalone run's summary.json holds it
    out_r = tmp_path / "solo"
    main([
        "run-mpc", "--ckpt", str(workdir / "run-linear" / "linear-best.bkcp"),
        "--preset", "cartpole-ti", "--controller", "linear",
        "--episodes", "2", "--lead", "0", "--episode-len", "10",
        "--seed", "4", "--out", str(out_r),
    ])
    out_s = tmp_path / "sweep"
    main([
        "lead-sweep", "--preset", "cartpole-ti",
        "--linear-ckpt", str(workdir / "run-linear" / "linear-best.bkcp"),
        "--bilinear-ckpt", str(workdir / "run-bilinear" / "bilinear-best.bkcp"),
        "--lead", "0", "--episodes", "2", "--episode-len", "10",
        "--seed", "4", "--out", str(out_s),
    ])
    solo = json.loads((out_r / "summary.json").read_text())
    table = (out_s / "mpc_summary.csv").read_text().strip().split("\n")
    header = table[0].split(",")
    rows = [dict(zip(header, l.split(","))) for l in table[1:]]
    linear = [r for r in rows if r["controller"] == "linear"]
    assert [r["episode"] for r in linear] == ["0", "1"]
    assert [float(r["final_log_cost"]) for r in linear] == (
        solo["final_log_costs"]
    )


def test_equal_inputs_give_equal_closed_loop_artifacts(workdir, tmp_path):
    # run-mpc and lead-sweep, each run twice on the same inputs: the lead
    # table, the cost bands and every figure are byte-identical, and the
    # episode and summary tables equal once their wall-time cells are
    # masked
    lin = str(workdir / "run-linear" / "linear-best.bkcp")
    bil = str(workdir / "run-bilinear" / "bilinear-best.bkcp")
    common = ["--preset", "cartpole-ti", "--episodes", "2", "--episode-len", "12",
              "--seed", "4"]
    walls = {"solve_wall_s", "mean_wall_per_solve_s", "mean_wall_per_control_step_s"}
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main(["run-mpc", "--ckpt", bil, "--controller", "scp5", "--lead", "1",
                     *common, "--out", str(out / "mpc")]) == 0
        assert main(["lead-sweep", "--linear-ckpt", lin, "--bilinear-ckpt", bil,
                     "--lead", "0,2", *common, "--out", str(out / "sweep")]) == 0
    a, b = runs
    names = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert {"lead-d0.svg", "lead-d2.svg"} <= {name.name for name in names}
    for name in names:
        if name.name in ("lead_table.csv", "cost_bands.csv") or name.suffix == ".svg":
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        elif name.suffix == ".csv":
            x, y = ([{k: v for k, v in row.items() if k not in walls}
                     for row in results.read_csv(root / name)] for root in runs)
            assert x == y, name
        elif name.name == "summary.json":
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_write_csv_cell_text(tmp_path):
    # write_csv alone turns values into cell text: floats of either kind
    # round-trip, booleans of either kind are 0/1, the rest is str()
    row = (
        0.1, np.float64(2.0 / 3.0), float("nan"), np.inf, True, np.bool_(False),
        7, np.int64(-3), "cartpole-ti",
    )
    path = tmp_path / "cells.csv"
    results.write_csv(path, [f"c{i}" for i in range(len(row))], [row])
    assert path.read_text() == (
        "c0,c1,c2,c3,c4,c5,c6,c7,c8\n"
        "0.1,0.6666666666666666,nan,inf,1,0,7,-3,cartpole-ti\n"
    )


def test_diagnose_cli(workdir, tmp_path):
    ep_out = tmp_path / "mpc2"
    main([
        "run-mpc", "--ckpt", str(workdir / "run-bilinear" / "bilinear-best.bkcp"),
        "--preset", "cartpole-ti", "--controller", "scp1",
        "--episodes", "1", "--lead", "0", "--episode-len", "8",
        "--seed", "4", "--out", str(ep_out),
    ])
    out = tmp_path / "diag"
    rc = main([
        "diagnose",
        "--ckpt", str(workdir / "run-bilinear" / "bilinear-best.bkcp"),
        "--episode-log", str(ep_out / "episode-scp1-d0-ep0.csv"),
        "--out", str(out),
    ])
    assert rc == 0
    lines = (out / "diagnose.csv").read_text().strip().split("\n")
    assert len(lines) == 3
    assert "coupling_frobenius_norm" in lines[1]
    assert "gershgorin_straddle_fraction" in lines[2]
    rows = results.read_csv(out / "diagnose.csv")
    assert [r["schema"] for r in rows] == ["diagnose.v2"] * 2
    best = mdl.load_checkpoint(workdir / "run-bilinear" / "bilinear-best.bkcp")
    assert float(rows[0]["value"]) == mdl.g_norm(best)
    log = results.read_csv(ep_out / "episode-scp1-d0-ep0.csv")
    flags = [int(r["gershgorin_straddle"]) for r in log]
    assert float(rows[1]["value"]) == np.mean(flags)
    # the episode row carries the episode log's provenance: the model kind
    # that drove the controller and the episode seed
    assert log[-1]["model"] == "bilinear" and log[-1]["seed"] == "4"
    assert (rows[1]["preset"], rows[1]["model"], rows[1]["seed"]) == (
        "cartpole-ti", "bilinear", "4",
    )


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "gen-data": {"train_windows": 70, "test_windows": 30, "seed": 9}
    }))
    out = tmp_path / "d.bkds"
    rc = main([
        "--config", str(cfg), "gen-data", "--preset", "cartpole-ti",
        "--out", str(out),
    ])
    assert rc == 0
    ds = dg.read_dataset(out)
    assert ds.counts()["test"] == 30 and ds.seed == 9


def test_config_precedence_and_effective_config(workdir, tmp_path):
    # a flag beats the config file, the config file beats the built-in
    # default, and keys that name no option are ignored
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "run-mpc": {"episodes": 3, "seed": 5, "bogus": 7},
        "train": {"lead": 4},
    }))
    ckpt = str(workdir / "run-linear" / "linear-best.bkcp")

    def effective(name, *config):
        out = tmp_path / name
        rc = main([
            *config, "run-mpc", "--ckpt", ckpt, "--preset", "cartpole-ti",
            "--controller", "linear", "--episodes", "1", "--episode-len", "3",
            "--out", str(out),
        ])
        assert rc == 0
        got = json.loads((out / "effective_config.json").read_text())
        assert got.pop("git") == results.git_rev()
        # the thread settings that can change the closed loop's BLAS
        # rounding, recorded as the run found them
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        assert got.pop("threads") == {
            **{k: os.environ.get(k) for k in names}, "cpu_count": os.cpu_count(),
        }
        return got

    base = {
        "command": "run-mpc", "ckpt": ckpt, "preset": "cartpole-ti",
        "controller": "linear", "episodes": 1, "lead": 0, "seed": 1,
        "episode_len": 3, "out": str(tmp_path / "plain"),
    }
    assert effective("plain") == base
    assert effective("cfg", "--config", str(cfg)) == {
        **base, "seed": 5, "out": str(tmp_path / "cfg"),
    }


def test_git_rev_independent_of_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    at_root = results.git_rev()
    monkeypatch.chdir(tmp_path)
    assert results.git_rev() == at_root


def test_usage_errors_exit_one():
    assert main(["gen-data", "--preset", "bogus", "--out", "x"]) == 1
    assert main(["no-such-command"]) == 1


def test_svg_constant_series(tmp_path):
    path = tmp_path / "c.svg"
    assert emit_svg([Series("flat", [0, 1, 2], [1.0, 1.0, 1.0], [0.0] * 3)],
                    path, "t", "x", "y")
    text = path.read_text()
    assert "<polyline" in text and "flat" in text


def test_svg_byte_identical(tmp_path):
    s = [Series("a", [0, 1, 2], [1.0, 2.0, 1.5], [0.1, 0.2, 0.1])]
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_svg(s, p1, "t", "x", "y")
    emit_svg(s, p2, "t", "x", "y")
    assert p1.read_bytes() == p2.read_bytes()


def test_svg_band_polygon(tmp_path):
    path = tmp_path / "band.svg"
    emit_svg([Series("b", [0, 1], [1.0, 2.0], [0.3, 0.3])], path, "t", "x", "y")
    assert "<polygon" in path.read_text()


def test_svg_empty_warns(tmp_path):
    path = tmp_path / "none.svg"
    with pytest.warns(UserWarning):
        assert not emit_svg([], path, "t", "x", "y")
    assert not path.exists()
