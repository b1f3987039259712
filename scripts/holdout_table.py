#!/usr/bin/env python3
"""Mean KL of trained against held-out sections, per coordinate mode.

Trains fleet-train's config on its trained sections (``perfbench/workloads.py``)
in ``raw`` and ``stand`` mode, once per seed, and scores each model through
``loop2mesh evaluate --checkpoint`` on the trained and the unseen sections,
each against the reference mesh the benchmark draws for it at seed 0, which
no training saw. Prints one row per mode and seed and the mean over seeds:
the centre/whole KL, averaged over the trained and over the held-out
sections. NumPy runs on one BLAS thread.

    PYTHONPATH=src python3 scripts/holdout_table.py [--seeds 0,1,2] [--epochs 1500]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import io
import json
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import SCORE_SEED_BASE, TRAIN_SEED, WORKLOADS  # noqa: E402

from loop2mesh import cli  # noqa: E402
from loop2mesh.synth import write_sample_dataset  # noqa: E402

FLEET = WORKLOADS["fleet-train"]


def _run(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main([str(a) for a in argv]) != 0:
            raise SystemExit(f"loop2mesh {' '.join(map(str, argv))} failed")


def _kl(checkpoint: Path, data: Path, code: str, out: Path) -> tuple[float, float]:
    """(centre, whole) KL of the checkpoint's prediction for one section."""
    _run(["evaluate", "--checkpoint", checkpoint, "--dat", data / f"naca{code}.dat",
          "--truth", data / f"naca{code}.msh", "--out", out])
    rows = csv.DictReader(out.read_text().splitlines())
    kl = {row["region"]: float(row["kl"]) for row in rows}
    return kl["c"], kl["w"]


def _mean_pair(pairs) -> tuple[float, float]:
    centre, whole = zip(*pairs)
    return statistics.fmean(centre), statistics.fmean(whole)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0,1,2", help="comma list of training seeds")
    ap.add_argument("--epochs", type=int, default=1500)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        manifest = write_sample_dataset(tmp / "train", codes=FLEET.trained,
                                        mesh_nodes=FLEET.mesh_nodes, seed=TRAIN_SEED)
        fresh = write_sample_dataset(tmp / "fresh", codes=FLEET.trained + FLEET.unseen,
                                     mesh_nodes=FLEET.mesh_nodes, seed=SCORE_SEED_BASE).parent
        (config := tmp / "fleet.json").write_text(json.dumps(FLEET.config))
        print("| mode | seed | trained centre/whole | held out centre/whole |")
        print("|---|---|---|---|")
        for mode in ("raw", "stand"):
            means = {"trained": [], "held out": []}
            for seed in seeds:
                run = tmp / f"{mode}-{seed}"
                _run(["train", manifest, "--out-dir", run, "--config", config, "--mode", mode,
                      "--epochs", args.epochs, "--seed", seed])
                ckpt = run / "checkpoint.l2m"
                row = {}
                for group, codes in (("trained", FLEET.trained), ("held out", FLEET.unseen)):
                    row[group] = _mean_pair(_kl(ckpt, fresh, c, run / "kl.csv") for c in codes)
                    means[group].append(row[group])
                print(f"| {mode} | {seed} | {row['trained'][0]:.3f}/{row['trained'][1]:.3f} "
                      f"| {row['held out'][0]:.3f}/{row['held out'][1]:.3f} |", flush=True)
            trained, held = _mean_pair(means["trained"]), _mean_pair(means["held out"])
            print(f"| {mode} | mean | {trained[0]:.3f}/{trained[1]:.3f} "
                  f"| {held[0]:.3f}/{held[1]:.3f} |", flush=True)


if __name__ == "__main__":
    main()
