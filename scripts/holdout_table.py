#!/usr/bin/env python3
"""Mean KL of trained against held-out sections, per coordinate mode.

Writes the fleet's 12 training sections (synthetic NACA meshes of 2,000
nodes, mesh seeds 0-11) to a temporary directory and trains the fleet
configuration (N=100, M=600, repulsion 1, interior 10) on them in ``raw``
and ``stand`` mode, once per seed. Each model then scores, through
``loop2mesh evaluate --checkpoint``, the 12 trained sections and the 4
held-out ones (0012 2417 4417 6418), each against a fresh mesh (mesh seeds
10,000 and up) that no training saw. Prints one row per mode and seed and
the mean over seeds: the centre/whole KL, averaged over the trained and
over the held-out sections.

    PYTHONPATH=src python3 scripts/holdout_table.py [--seeds 0,1,2] [--epochs 1500]

NumPy is pinned to one BLAS thread before it is imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import io
import statistics
import tempfile
from pathlib import Path

from loop2mesh import cli
from loop2mesh.synth import write_sample_dataset

TRAINED = ("0009", "0011", "0014", "0017", "0020", "0023", "2411", "2414",
           "2420", "4414", "4420", "6414")
HELD_OUT = ("0012", "2417", "4417", "6418")
MODES = ("raw", "stand")
MESH_NODES = 2000
FRESH_MESH_SEED = 10_000
FLEET = ["--nodes", "100", "--upsample-count", "600", "--ratio", "1", "--interior-weight", "10"]


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
        manifest = write_sample_dataset(tmp / "train", codes=TRAINED, mesh_nodes=MESH_NODES, seed=0)
        fresh = tmp / "fresh"
        write_sample_dataset(fresh, codes=TRAINED + HELD_OUT, mesh_nodes=MESH_NODES,
                             seed=FRESH_MESH_SEED)
        print("| mode | seed | trained centre/whole | held out centre/whole |")
        print("|---|---|---|---|")
        for mode in MODES:
            means = {"trained": [], "held out": []}
            for seed in seeds:
                run = tmp / f"{mode}-{seed}"
                _run(["train", manifest, "--out-dir", run, "--mode", mode, *FLEET,
                      "--epochs", args.epochs, "--seed", seed])
                ckpt = run / "checkpoint.l2m"
                row = {}
                for group, codes in (("trained", TRAINED), ("held out", HELD_OUT)):
                    row[group] = _mean_pair(_kl(ckpt, fresh, c, run / "kl.csv") for c in codes)
                    means[group].append(row[group])
                print(f"| {mode} | {seed} | {row['trained'][0]:.3f}/{row['trained'][1]:.3f} "
                      f"| {row['held out'][0]:.3f}/{row['held out'][1]:.3f} |", flush=True)
            trained, held = _mean_pair(means["trained"]), _mean_pair(means["held out"])
            print(f"| {mode} | mean | {trained[0]:.3f}/{trained[1]:.3f} "
                  f"| {held[0]:.3f}/{held[1]:.3f} |", flush=True)


if __name__ == "__main__":
    main()
