#!/usr/bin/env python3
"""Median in-process epoch and scoring-call times, split by traced name.

Times the benchmark workloads' configs (``perfbench/workloads.py``) on their
sections, from the spans of its tracer (``perfbench/tracer.py``), on one BLAS
thread. Prints one JSON object: ``desk_epoch_ms``, the median desk-train epoch
(ending at each ``train.adam_step``; the process's first training) and
``desk_ms``, each traced name's median self time in one (``train.train``'s is
the rest of the loop); fleet-train's ``median_setup_ms`` and ``median_epoch_ms``
at S = 1, 4 and 16 sections; ``score_ms``, each traced name's median self time
in one ``predict --truth`` and one ``evaluate --checkpoint`` call on NACA 2412
with a score-workload checkpoint, and the command's span as ``total``.

    PYTHONPATH=src python3 scripts/phase_times.py [--epochs 60]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import statistics
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer  # noqa: E402
from workloads import TRAIN_SEED, WORKLOADS  # noqa: E402

from loop2mesh import cli, ingest, synth, train  # noqa: E402

BUILDS = 20           # dataset builds timed per section count
CALLS = 40            # timed calls per scoring command, after one untimed


def write(tmp: Path, wl, extra=()) -> list:
    return ingest.load_manifest(synth.write_sample_dataset(
        tmp / wl.name, codes=wl.trained + extra, mesh_nodes=wl.mesh_nodes, seed=TRAIN_SEED))


def build(entries, config):
    return ingest.build_dataset(entries, loop_size=config.loop_size,
                                target_count=config.upsample_count, seed=config.seed)


def windows(spans, opener: str) -> dict:
    """Per traced name, its self time in ms (duration less child spans) in each
    window but the first; a window opens with each span named ``opener``."""
    own = [(end - start) * 1e3 for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= (end - start) * 1e3
    out = defaultdict(lambda: [0.0] * (sum(name == opener for name, *_ in spans) - 1))
    k = -1
    for (name, *_), ms in zip(spans, own):
        k += name == opener
        if k >= 1:
            out[name][k - 1] += ms
    return out


def medians(samples: dict) -> dict:
    return {name: round(statistics.median(ms), 3) for name, ms in sorted(samples.items())}


def epochs(tracer, entries, config) -> tuple[float, dict]:
    """Train on the entries: the median epoch and each traced name's median self time in it."""
    tracer.spans.clear()
    train.train(build(entries, config), config)
    gaps = np.diff([end for name, _, end, _ in tracer.spans if name == "train.adam_step"]) * 1e3
    split = windows(tracer.spans, "net.forward")  # one batched forward pass per epoch
    split["train.train"] = [gap - sum(ms[k] for ms in split.values()) for k, gap in enumerate(gaps)]
    return round(statistics.median(gaps), 3), medians(split)


def scoring(tracer, argv) -> dict:
    """Each traced name's median self time in one call, and the command's span as total."""
    argv, command = [str(a) for a in argv], f"cli.cmd_{argv[0]}"
    tracer.spans.clear()
    for _ in range(CALLS + 1):  # the first call warms caches and is dropped
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise SystemExit(f"loop2mesh {' '.join(argv)} failed")
    split = windows(tracer.spans, command)
    split["total"] = [sum(call) for call in zip(*split.values())]  # the command's whole span
    return medians(split)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epochs", type=int, default=60, help="epochs of each timed training")
    n = ap.parse_args().epochs
    tracer = Tracer()
    tracer.install()
    desk, fleet, score = WORKLOADS["desk-train"], WORKLOADS["fleet-train"], WORKLOADS["score"]
    report = {"epochs": n, "builds": BUILDS, "calls": CALLS, "numpy": np.__version__,
              "median_setup_ms": {}, "median_epoch_ms": {}}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        report["desk_epoch_ms"], report["desk_ms"] = epochs(
            tracer, write(tmp, desk), train.TrainConfig.from_dict(dict(desk.config, epochs=n)))
        entries = write(tmp, fleet, fleet.unseen)
        config = train.TrainConfig.from_dict(dict(fleet.config, epochs=n))
        for s in (1, 4, 16):
            tracer.spans.clear()
            for _ in range(BUILDS):
                build(entries[:s], config)
            builds = [(end - start) * 1e3 for _, start, end, parent in tracer.spans if parent < 0]
            report["median_setup_ms"][str(s)] = round(statistics.median(builds), 3)
            report["median_epoch_ms"][str(s)] = epochs(tracer, entries[:s], config)[0]
        *trained, (_, dat, msh) = write(tmp, score, ("2412",))  # one of its unseen sections
        config = train.TrainConfig.from_dict(score.config)
        dataset = build(trained, config)
        ckpt = tmp / "checkpoint.l2m"
        train.save_trained(ckpt, train.train(dataset, config), config,
                           [s.name for s in dataset.samples])
        common = ["--checkpoint", ckpt, "--dat", dat, "--truth", msh, "--out-dir", tmp / "out"]
        report["score_ms"] = {cmd: scoring(tracer, [cmd, *common])
                              for cmd in ("predict", "evaluate")}
    print(json.dumps(report))


if __name__ == "__main__":
    main()
