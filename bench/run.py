"""bkmpc benchmark: one run of one workload.

    python3 bench/run.py --workload rscp --seed 3 --seconds 56 --trace 0

Workloads: ``rscp`` and ``hinge`` (see ``pipeline.py`` and
``BENCHMARK.json``). With ``--trace 0`` the run measures the end-to-end
metrics; with ``--trace 1`` it wraps each layer's public functions in
spans and reports the per-layer metrics instead. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. A result file with the environment, the raw
wall times and their speed scales (and, when tracing, the per-phase layer
table, the tracing overhead and a span dump) is written under
``bench/results/``.

End-to-end timings are reported at a reference machine speed: each timed
call's wall time is scaled by ``pipeline.PROBE_REF_S`` over the duration
of a fixed numpy probe measured right before and after it (see
``pipeline.Run``). Per-layer times are raw span times.

Correctness gates are checked on the way and never reported as numbers:
the checkpoint hashes, the default seed's dataset hash, repeats
reproducing their first bit for bit, finite losses, the KKT
residual of every QP reported solved, and non-increasing accepted SCP
objectives. A failed gate, or any error, ends the run with a non-zero
exit code and no result line. The benchmark pins ``OPENBLAS_NUM_THREADS=1``
for its own process; it does not control CPU frequency, cgroups or caches.
"""

import argparse
import json
import os
import platform
import sys
import time

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import common  # noqa: E402

UNCONTROLLED = "CPU frequency, cgroups and caches are not controlled"


def non_negative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def parse_args(argv):
    import pipeline

    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(pipeline.WORKLOADS))
    p.add_argument("--seed", type=non_negative, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(mods, probe_ref_s):
    import numpy as np

    blas = {"name": "unknown", "version": "unknown"}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name", "unknown"), "version": info.get("version", "unknown")}
    except (TypeError, KeyError):
        pass
    # outside a git checkout, git would search the parent directories
    in_git = os.path.isdir(os.path.join(common.ROOT, ".git"))
    return {
        "git": mods.results.git_rev() if in_git else "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "not_controlled": UNCONTROLLED,
        "timings_scaled_to_speed_probe_s": probe_ref_s,
    }


def declared(kind, computed):
    """{name: (value, unit)} for the metrics of ``kind`` that BENCHMARK.json
    declares; the computed metrics must be exactly those."""
    spec = common.read_json(os.path.join(common.ROOT, "BENCHMARK.json"))[kind]
    names = {m["name"] for m in spec}
    if names != set(computed):
        raise SystemExit(
            f"bench: {kind} metrics differ from BENCHMARK.json: declared only "
            f"{sorted(names - set(computed))}, computed only {sorted(set(computed) - names)}"
        )
    return {m["name"]: (computed[m["name"]], m["unit"]) for m in spec}


def tracing_overhead(results_dir, workload, seed, traced):
    """Traced minus untraced end-to-end metrics, when an untraced result
    for the same workload and seed exists."""
    path = os.path.join(results_dir, f"{workload}-seed{seed}-trace0.json")
    if not os.path.exists(path):
        return None
    base = common.read_json(path)["metrics"]
    return {
        k: {"traced": v, "untraced": base[k]["value"], "diff": v - base[k]["value"]}
        for k, v in traced.items()
        if k in base
    }


def main(argv=None):
    args = parse_args(argv)
    common.use_source_tree()
    import layers
    import pipeline
    from spans import Recorder

    rec = Recorder(spans=bool(args.trace))
    run = pipeline.Run(args.workload, args.seed, rec)
    run.setup()
    try:
        run.measure(time.perf_counter() + args.seconds)
    finally:
        run.close()
    run.finish()

    e2e = declared("end_to_end", run.metrics)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(run.mods, pipeline.PROBE_REF_S),
        "passes": run.passes,
        "phase_walls_s_and_scales": {
            f"{ph} {key}": {"work": run.work[(ph, key)], "timings": t}
            for (ph, key), t in run.walls.items()
        },
        "solve_walls_s_and_scales": {
            " ".join(map(str, k)): [[w.tolist(), scale] for w, scale in t]
            for k, t in run.solve_walls.items()
        },
        "setup_times_s_and_scales": run.setup_times,
    }
    results_dir = os.path.join(common.BENCH_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        per_layer, table = layers.layer_metrics(rec)
        reported = declared("per_layer", per_layer)
        result["end_to_end_traced"] = {k: v for k, (v, _) in e2e.items()}
        result["tracing_overhead"] = tracing_overhead(
            results_dir, args.workload, args.seed, result["end_to_end_traced"]
        )
        result["phases"] = table
        common.write_json(f"{stem}-spans.json", rec.dump())
    else:
        reported = e2e
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}
    result["metrics"] = metrics
    common.write_json(f"{stem}.json", result)

    print(json.dumps({"environment": result["environment"]}, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": int(run.operations),
        "failed": 0,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
