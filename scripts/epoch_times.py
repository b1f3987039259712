#!/usr/bin/env python3
"""Median in-process set-up and training-epoch times against the number of sections.

Writes S = 1, 4 and 16 synthetic NACA sections (2,000 mesh nodes each) to a
temporary directory, builds the dataset of the first S of them and trains
the fleet configuration (raw mode, N=100, M=600, repulsion 1, interior 10)
on it, and prints one JSON object holding, per S, the median
``build_dataset`` time and the median epoch time in milliseconds. An epoch
is the time between two consecutive Adam steps, so set-up and the first
epoch are excluded.

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
BUILDS = 20  # dataset builds timed per section count


def median_setup_ms(entries) -> float:
    times = []
    for _ in range(BUILDS):
        t0 = perf_counter()
        build_dataset(entries, loop_size=35, target_count=CONFIG["upsample_count"], seed=0)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def median_epoch_ms(entries, epochs: int) -> float:
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
    setup_ms, epoch_ms = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        entries = load_manifest(write_sample_dataset(tmp, codes=CODES, mesh_nodes=2000, seed=0))
        for s in (1, 4, 16):
            setup_ms[str(s)] = round(median_setup_ms(entries[:s]), 3)
            epoch_ms[str(s)] = round(median_epoch_ms(entries[:s], args.epochs), 3)
    print(json.dumps({"epochs": args.epochs, "builds": BUILDS, "numpy": np.__version__,
                      "median_setup_ms": setup_ms, "median_epoch_ms": epoch_ms}))


if __name__ == "__main__":
    main()
