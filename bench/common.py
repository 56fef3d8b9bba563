"""Helpers shared by the benchmark entry point and the fixture script."""

import hashlib
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
FIXTURES = os.path.join(BENCH_DIR, "fixtures")


class GateError(RuntimeError):
    """A correctness gate failed; the run reports no metrics."""


def use_source_tree():
    """Import ``bkmpc`` from the checkout's ``src/``; fail if it is absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "bkmpc", "__init__.py")):
        raise SystemExit(f"bench: no bkmpc source tree under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def dataset_sha256(ds):
    """Hash of a dataset's arrays and statistics, independent of the
    container format."""
    import numpy as np

    h = hashlib.sha256()
    h.update(ds.preset.encode())
    for arr, dtype in (
        (ds.states, "<f8"),
        (ds.controls, "<f8"),
        (ds.split, "u1"),
        (ds.episode_id, "<u4"),
        (ds.start_time, "<f8"),
        (ds.state_mean, "<f8"),
        (ds.state_std, "<f8"),
        (ds.control_mean, "<f8"),
        (ds.control_std, "<f8"),
    ):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")
