#!/usr/bin/env python3
"""Median in-process training-epoch time against the number of sections.

Writes S = 1, 4 and 16 synthetic NACA sections to a temporary directory,
trains the fleet configuration (raw mode, N=100, M=600, repulsion 1,
interior 10) on the first S of them, and prints one JSON object holding the
median epoch time in milliseconds per S. An epoch is the time between two
consecutive Adam steps, so set-up and the first epoch are excluded.

    PYTHONPATH=src python3 scripts/epoch_times.py [--epochs 60]

NumPy is pinned to one BLAS thread before it is imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import tempfile
from time import perf_counter

import numpy as np

import loop2mesh.train as train_mod
from loop2mesh.ingest import build_dataset, load_manifest
from loop2mesh.synth import write_sample_dataset

CODES = ("0009", "0011", "0014", "0017", "0020", "0023", "2411", "2414",
         "2420", "4414", "4420", "6414", "0012", "2417", "4417", "6418")
CONFIG = {"mode": "raw", "n_points": 100, "upsample_count": 600,
          "weights": {"chamfer": 1.0, "repulsion": 1.0, "interior": 10.0}}


def median_epoch_ms(manifest, sections: int, epochs: int) -> float:
    entries = load_manifest(manifest)[:sections]
    dataset = build_dataset(entries, loop_size=35, target_count=CONFIG["upsample_count"], seed=0)
    stamps = []
    adam_step = train_mod.adam_step

    def stamped(*args, **kwargs):
        out = adam_step(*args, **kwargs)
        stamps.append(perf_counter())
        return out

    train_mod.adam_step = stamped
    try:
        train_mod.train(dataset, train_mod.TrainConfig.from_dict(dict(CONFIG, epochs=epochs)))
    finally:
        train_mod.adam_step = adam_step
    return statistics.median(np.diff(stamps)) * 1e3


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epochs", type=int, default=60, help="epochs trained per section count")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_sample_dataset(tmp, codes=CODES, mesh_nodes=2000, seed=0)
        ms = {str(s): round(median_epoch_ms(manifest, s, args.epochs), 3) for s in (1, 4, 16)}
    print(json.dumps({"epochs": args.epochs, "numpy": np.__version__,
                      "median_epoch_ms": ms}))


if __name__ == "__main__":
    main()
