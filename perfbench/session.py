"""One measured workload session, run in its own process by run.py.

    python3 perfbench/session.py --workload NAME --seed N --seconds S \
        --train-inputs DIR --score-inputs DIR --out DIR --result FILE [--trace]

Reads the inputs run.py generated, runs the session's phases (set-up,
training, scoring), and writes raw timings, output hashes and the machine
settings to FILE as JSON. Output correctness is checked afterwards, by
run.py, with code independent of loop2mesh.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
from tracer import Tracer
from workloads import MIN_CYCLES, WORKLOADS


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def settings(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "seed": seed,
    }


def reference() -> float:
    """Time a fixed computation, a Python loop and NumPy ops on cache-sized
    arrays, whose duration tracks how fast this machine runs right now."""
    t0 = perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i
    a = np.linspace(0.0, 1.0, 40_000)
    for _ in range(10):
        a = np.sqrt(a * a + 1.0)
    return perf_counter() - t0


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    ingest = importlib.import_module("loop2mesh.ingest")
    train_mod = importlib.import_module("loop2mesh.train")
    cli = importlib.import_module("loop2mesh.cli")

    score_inputs = Path(args.score_inputs)
    spec = json.loads((score_inputs / "inputs.json").read_text())
    entries = ingest.load_manifest(Path(args.train_inputs) / "manifest.json")
    config = train_mod.TrainConfig.from_dict(wl.config)
    out = Path(args.out)
    ckpt, trainlog = out / "checkpoint.l2m", out / "trainlog.csv"

    setup_times: list[float] = []
    train_times: list[float] = []
    train_hashes: list[list[str]] = []
    calls: list[dict] = []
    reference_times: list[float] = []
    dataset = None

    def setup():
        nonlocal dataset
        reference_times.append(reference())
        t0 = perf_counter()
        dataset = ingest.build_dataset(entries, loop_size=config.loop_size,
                                       target_count=config.upsample_count, seed=config.seed)
        setup_times.append(perf_counter() - t0)

    def training():
        reference_times.append(reference())
        t0 = perf_counter()
        result = train_mod.train(dataset, config)
        train_times.append(perf_counter() - t0)
        train_mod.save_trained(ckpt, result, config, [s.name for s in dataset.samples])
        result.log.to_csv(trainlog)
        train_hashes.append([sha256(ckpt), sha256(trainlog)])

    def scoring_round():
        for name in spec["scoring"]:
            dat, msh = score_inputs / f"{name}.dat", score_inputs / f"{name}.msh"
            section_dir = out / "score" / name
            common = ["--checkpoint", str(ckpt), "--dat", str(dat), "--truth", str(msh),
                      "--out-dir", str(section_dir)]
            for op, output in (("predict", "points.csv"), ("evaluate", "kl.csv")):
                buf = io.StringIO()
                reference_times.append(reference())
                t0 = perf_counter()
                with contextlib.redirect_stdout(buf):
                    code = cli.main([op] + common)
                elapsed = perf_counter() - t0
                calls.append({"op": op, "section": name, "exit": code, "s": elapsed,
                              "sha256": sha256(section_dir / output) if code == 0 else None})

    builds, trainings, rounds = wl.cycle
    start = perf_counter()
    cycles = 0
    while cycles < MIN_CYCLES or perf_counter() - start < args.seconds:
        for phase, count in ((setup, builds), (training, trainings), (scoring_round, rounds)):
            for _ in range(count):
                phase()
        cycles += 1

    report = {
        "workload": wl.name,
        "settings": settings(args.seed),
        "epochs": config.epochs,
        "setup_s": setup_times,
        "train_s": train_times,
        "train_sha256": train_hashes,
        "cycles": cycles,
        "calls": calls,
        "reference_s": reference_times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        tracer.write(out / "spans.jsonl")
        report["trace"] = {name: list(v) for name, v in
                           tracer.summary(config.epochs * len(train_times)).items()}
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--train-inputs", required=True)
    ap.add_argument("--score-inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    report = run(args)
    Path(args.result).write_text(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
