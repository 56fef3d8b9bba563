"""Train the committed closed-loop checkpoints from fixed seeds.

Run from the repository root:

    python3 bench/fixtures/make_checkpoints.py

For each preset in ``pipeline.CHECKPOINTS`` it generates the dataset, trains
a bilinear model and writes ``<preset>-bilinear.bkcp`` next to this
script. ``provenance.json`` records the seeds, epochs, git revision,
coupling norm and SHA-256 of each file; the benchmark refuses a
checkpoint whose hash differs.

It then records in ``datasets.json`` the hash of each workload's dataset
for the default seed, which the benchmark checks as the bit-identity gate
of data generation. With ``--datasets-only`` it records only those
hashes; run it so when a workload's dataset definition changes.
"""

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import common  # noqa: E402

common.use_source_tree()

import pipeline  # noqa: E402

from bkmpc import datagen as dg  # noqa: E402
from bkmpc import model as mdl  # noqa: E402
from bkmpc import results  # noqa: E402
from bkmpc import simulators as sim  # noqa: E402
from bkmpc import training as tr  # noqa: E402


def train_checkpoint(preset, spec):
    cfg = sim.preset(preset, **spec["sim_overrides"])
    ds = dg.generate_dataset(
        cfg, train_pool=spec["train_pool"], test_windows=spec["test_windows"],
        seed=spec["data_seed"],
    )
    params = mdl.params_for_dataset(ds, "bilinear", seed=spec["init_seed"])
    tcfg = tr.TrainConfig(
        epochs=spec["epochs"], batch_size=spec["batch_size"],
        seed=spec["train_seed"],
    )
    final, _, log = tr.train(ds, params, tcfg)
    g = mdl.g_norm(final)
    if not g > 0.0:
        raise SystemExit(f"{preset}: trained coupling is zero")
    path = os.path.join(common.FIXTURES, spec["file"])
    mdl.save_checkpoint(final, path)
    return {
        "file": spec["file"],
        "sha256": common.sha256_file(path),
        "g_norm": g,
        "final_train_loss": log.train_losses[-1],
        "final_val_loss": log.val_losses[-1],
        "dataset_sha256": common.dataset_sha256(ds),
        **{k: v for k, v in spec.items() if k != "file"},
    }


def default_dataset_hash(wl):
    cfg = sim.preset(wl["preset"], **wl["sim_overrides"])
    ds = dg.generate_dataset(
        cfg, train_pool=wl["train_pool"], test_windows=wl["test_windows"],
        seed=pipeline.DEFAULT_SEED,
    )
    return common.dataset_sha256(ds)


def main(argv):
    rev = results.git_rev()
    if "--datasets-only" not in argv:
        provenance = {"git": rev, "checkpoints": {}}
        for preset, spec in pipeline.CHECKPOINTS.items():
            provenance["checkpoints"][preset] = train_checkpoint(preset, spec)
            print(f"{preset}: {provenance['checkpoints'][preset]}", flush=True)
        common.write_json(
            os.path.join(common.FIXTURES, "provenance.json"), provenance
        )
    hashes = {
        name: default_dataset_hash(wl) for name, wl in pipeline.WORKLOADS.items()
    }
    common.write_json(
        os.path.join(common.FIXTURES, "datasets.json"),
        {"git": rev, "seed": pipeline.DEFAULT_SEED, "sha256": hashes},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
