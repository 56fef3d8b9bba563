"""CLI commands end to end at miniature scale, plus the SVG emitter."""

import json
import os

import numpy as np
import pytest

from bkmpc import datagen as dg
from bkmpc import model as mdl
from bkmpc import results
from bkmpc import simulators as sim
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
        assert parts[0] == "forecast.v1"
        assert parts[1] == "cartpole-ti"
        assert float(parts[6]) > 0


def test_eval_forecast_missing_checkpoint(tmp_path):
    rc = main([
        "eval-forecast", "--data", "nope.bkds", "--run", str(tmp_path),
        "--out", str(tmp_path / "o"),
    ])
    assert rc == 2


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
    from bkmpc import training as tr

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


def test_run_mpc_preset_mismatch(workdir, tmp_path):
    rc = main([
        "run-mpc", "--ckpt", str(workdir / "run-bilinear" / "bilinear-best.bkcp"),
        "--preset", "rscp-ti", "--controller", "scp1",
        "--episodes", "1", "--episode-len", "4", "--out", str(tmp_path / "x"),
    ])
    assert rc == 2


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
    assert all(l.split(",")[0] == "wall_table.v2" for l in wall_lines[1:])
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
    assert emit_svg([Series("flat", [0, 1, 2], [1.0, 1.0, 1.0])], path)
    text = path.read_text()
    assert "<polyline" in text and "flat" in text


def test_svg_byte_identical(tmp_path):
    s = [Series("a", [0, 1, 2], [1.0, 2.0, 1.5], [0.1, 0.2, 0.1])]
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_svg(s, p1, title="t", logy=True)
    emit_svg(s, p2, title="t", logy=True)
    assert p1.read_bytes() == p2.read_bytes()


def test_svg_band_polygon(tmp_path):
    path = tmp_path / "band.svg"
    emit_svg([Series("b", [0, 1], [1.0, 2.0], [0.3, 0.3])], path)
    assert "<polygon" in path.read_text()


def test_svg_empty_warns(tmp_path):
    path = tmp_path / "none.svg"
    with pytest.warns(UserWarning):
        assert not emit_svg([], path)
    assert not path.exists()
