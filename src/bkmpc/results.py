"""CSV / JSON artifact writers with schema versions and provenance.

Every emitted table row carries (preset, model, seed, git revision) so
aggregate numbers trace back to the runs that produced them. Schema names
are versioned in the first column; any column change bumps the version,
and a change of a column's float format counts as a column change.

The ``mpc_summary``, ``lead_table``, ``wall_table`` and ``cost_band``
tables write their floats through :func:`fmt_float` at round-trip
precision, so a value read back from the CSV equals the one in memory and
the one in the JSON summary. ``forecast`` and ``diagnose`` still write
``.10g``; ``trainlog`` and ``episodelog`` keep their per-column formats.
Every table, the two logs included, is written by :func:`write_csv`.
"""

import json
import os
import subprocess


def git_rev():
    """``git describe`` of the checkout this package is imported from, or
    ``unknown``; independent of the working directory."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
        rev = out.stdout.strip()
        return rev if out.returncode == 0 and rev else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def fmt_float(v):
    """Shortest text that reads back to the same float; the text ``json``
    writes for it."""
    return repr(float(v))


def write_csv(path, columns, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


FORECAST_SCHEMA = "forecast.v1"
FORECAST_COLUMNS = (
    "schema", "preset", "model", "seed", "git", "metric", "mse", "test_windows",
)

MPC_SUMMARY_SCHEMA = "mpc_summary.v2"
MPC_SUMMARY_COLUMNS = (
    "schema", "preset", "model", "seed", "git", "controller", "lead",
    "episode", "steps", "final_log_cost", "mean_wall_per_solve_s",
    "straddle_fraction", "termination",
)

LEAD_TABLE_SCHEMA = "lead_table.v2"
LEAD_TABLE_COLUMNS = (
    "schema", "preset", "model", "seed", "git", "controller", "lead",
    "episodes", "mean_final_log_cost", "std_final_log_cost",
)

WALL_TABLE_SCHEMA = "wall_table.v2"
WALL_TABLE_COLUMNS = (
    "schema", "preset", "model", "seed", "git", "controller", "lead",
    "mean_wall_per_control_step_s",
)

BAND_SCHEMA = "cost_band.v2"
BAND_COLUMNS = (
    "schema", "preset", "model", "seed", "git", "controller", "lead",
    "step", "mean_running_avg", "band_halfwidth", "episodes_alive",
)

TRAINLOG_SCHEMA = "trainlog.v1"
TRAINLOG_COLUMNS = (
    "schema", "preset", "model", "seed", "git", "epoch", "lr", "train_loss",
    "val_loss", "g_norm", "wall_s", "test_mse", "is_best",
)

#: the per-step episode log; its state and control columns (x0.., u0..)
#: follow ``step`` and depend on the system, so ``EpisodeLog.to_csv``
#: builds the header
EPISODELOG_SCHEMA = "episodelog.v2"

DIAG_SCHEMA = "diagnose.v1"
DIAG_COLUMNS = (
    "schema", "preset", "model", "seed", "git", "quantity", "value", "source",
)
