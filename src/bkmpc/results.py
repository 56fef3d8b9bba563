"""Artifact writers and readers: versioned CSV tables, JSON summaries,
and the binary container framing of datasets and checkpoints.

Every emitted table row carries (preset, model, seed, git revision) so
aggregate numbers trace back to the runs that produced them. Schema names
are versioned in the first column; any column change bumps the version,
and a change of a column's float format counts as a column change.

Every table, the two logs included, is written by :func:`write_csv`
and read by :func:`read_csv`. ``write_csv`` is the only code that turns
a value into cell text: a float (Python or numpy) at round-trip
precision through :func:`fmt_float`, a boolean as 0/1, anything else
with ``str``. So every float read back from a CSV equals the one in
memory and the one in the JSON summary (``forecast``'s ``mean_50`` is
then the exact mean of the logged test MSEs).

A container (``.bkds`` dataset, ``.bkcp`` checkpoint) is: the 4 magic
bytes; the version and header length as ``<II``; the header as sorted,
compact JSON; then the payload arrays back to back, each in its little-
endian dtype. The reader takes exactly the bytes the header's layout
names and rejects a short file or trailing bytes.
"""

import json
import os
import struct
import subprocess

import numpy as np


class FormatError(ValueError):
    """Container magic or version is wrong, or its header does not
    describe the payload its reader expects (a checkpoint's parameter
    list that is not its kind's and hyperparameters')."""


class IntegrityError(ValueError):
    """Container is truncated or carries trailing garbage."""


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


def _cell(v):
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return fmt_float(v)
    return str(v)


def write_csv(path, columns, rows):
    """Write a table; each row is a sequence of raw values."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_cell, row)) + "\n")


def read_csv(path):
    """Rows of a table written by :func:`write_csv`, as dicts of text."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        return [dict(zip(header, line.rstrip("\n").split(","))) for line in fh]


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_container(path, magic, version, header, payload):
    """Write a container; ``payload`` is a sequence of (array, dtype)."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<II", version, len(blob)))
        fh.write(blob)
        for arr, dtype in payload:
            fh.write(np.asarray(arr, dtype=dtype).tobytes())


def _read_exact(fh, count, what):
    buf = fh.read(count)
    if len(buf) != count:
        raise IntegrityError(f"truncated container while reading {what}")
    return buf


def read_container(path, magic, version, layout):
    """Read a container; returns (header, {name: array}).

    ``layout(header)`` lists the payload as (name, dtype, shape) in file
    order.
    """
    with open(path, "rb") as fh:
        got = fh.read(len(magic))
        if got != magic:
            raise FormatError(f"bad magic {got!r}, expected {magic!r}")
        got_version, hlen = struct.unpack("<II", _read_exact(fh, 8, "header"))
        if got_version != version:
            raise FormatError(f"unsupported container version {got_version}")
        header = json.loads(_read_exact(fh, hlen, "header json"))
        arrays = {}
        for name, dtype, shape in layout(header):
            dtype = np.dtype(dtype)
            size = int(np.prod(shape)) * dtype.itemsize
            buf = _read_exact(fh, size, name)
            arrays[name] = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
        if fh.read(1):
            raise IntegrityError("trailing bytes after container payload")
    return header, arrays


FORECAST_SCHEMA = "forecast.v2"
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

WALL_TABLE_SCHEMA = "wall_table.v3"
WALL_TABLE_COLUMNS = (
    "schema", "preset", "model", "seed", "git", "controller", "lead",
    "mean_wall_per_control_step_s",
)

BAND_SCHEMA = "cost_band.v2"
BAND_COLUMNS = (
    "schema", "preset", "model", "seed", "git", "controller", "lead",
    "step", "mean_running_avg", "band_halfwidth", "episodes_alive",
)

TRAINLOG_SCHEMA = "trainlog.v3"
TRAINLOG_COLUMNS = (
    "schema", "preset", "model", "seed", "git", "epoch", "lr", "train_loss",
    "val_loss", "g_norm", "wall_s", "test_mse", "is_best",
)

#: the per-step episode log; ``EpisodeLog.to_csv`` builds its header from
#: the log's fields, since its state and control columns (x0.., u0..)
#: depend on the system
EPISODELOG_SCHEMA = "episodelog.v4"

DIAG_SCHEMA = "diagnose.v2"
DIAG_COLUMNS = (
    "schema", "preset", "model", "seed", "git", "quantity", "value", "source",
)
