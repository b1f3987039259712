#!/usr/bin/env python3
"""Median in-process per-phase times of ``predict --truth`` and ``evaluate --checkpoint``.

Writes synthetic NACA 2220 and NACA 2412 sections (3,000 mesh nodes each) to
a temporary directory, trains the desk configuration (stand-clamp, N=400,
M=1500) on NACA 2220 for a few epochs, then runs each command ``CALLS``
times in this process through ``loop2mesh.cli.main`` on NACA 2412 and its
mesh. Prints one JSON object holding, per command, the median self time of
each phase in milliseconds, the rest of the call as ``other`` and the whole
call as ``total``:

    checkpoint load       train.load_trained
    dat parse + resample  reading the .dat, parsing, chord fit and resampling
    forward               train.predict (the network and the inverse transform)
    msh parse             ingest.parse_msh_nodes on the text already read
    svg                   svg.render_svg, without its file write
    csv                   the points CSV text
    kde                   evaluation.evaluate (both KDE windows and the KL)
    writes                every atomic file write

    PYTHONPATH=src python3 scripts/score_times.py

NumPy is pinned to one BLAS thread before it is imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import io
import json
import statistics
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from loop2mesh import cli, evaluation, svg
from loop2mesh.synth import write_sample_dataset

PHASES = {  # phase -> the (module, attribute) pairs it times
    "checkpoint load": [(cli, "load_trained")],
    "dat parse + resample": [(cli, "_prepare_loop")],
    "forward": [(cli, "predict")],
    "msh parse": [(cli, "parse_msh_nodes")],
    "svg": [(cli, "render_svg")],
    "csv": [(cli, "_points_csv_text")],
    "kde": [(cli, "evaluate")],
    "writes": [(cli, "atomic_write_text"), (svg, "atomic_write_text"),
               (evaluation, "atomic_write_text")],
}
CALLS = 40  # timed calls per command
TRAIN = ["--mode", "stand-clamp", "--nodes", "400", "--upsample-count", "1500", "--ratio", "1",
         "--interior-weight", "10", "--epochs", "20", "--seed", "0", "--holdout", "naca2412"]


class PhaseTimer:
    """Self times per phase: a timed call nested in another is taken out of
    the outer one's time."""

    def __init__(self):
        self.ms = defaultdict(float)
        self._children = []

    def wrap(self, phase, fn):
        def timed(*args, **kwargs):
            self._children.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self.ms[phase] += (elapsed - self._children.pop()) * 1e3
                if self._children:
                    self._children[-1] += elapsed
        return timed


def median_phases(argv) -> dict:
    timer = PhaseTimer()
    originals = [(mod, name, getattr(mod, name))
                 for pairs in PHASES.values() for mod, name in pairs]
    for phase, pairs in PHASES.items():
        for mod, name in pairs:
            setattr(mod, name, timer.wrap(phase, getattr(mod, name)))
    per_call = []
    try:
        for i in range(CALLS + 1):  # the first call warms caches and is dropped
            timer.ms.clear()
            t0 = perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    raise SystemExit(f"loop2mesh {' '.join(argv)} failed")
            total = (perf_counter() - t0) * 1e3
            if i:
                per_call.append(dict(timer.ms, other=total - sum(timer.ms.values()), total=total))
    finally:
        for mod, name, fn in originals:
            setattr(mod, name, fn)
    return {phase: round(statistics.median(call.get(phase, 0.0) for call in per_call), 3)
            for phase in [*PHASES, "other", "total"]}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        manifest = write_sample_dataset(tmp / "data", codes=("2220", "2412"), mesh_nodes=3000)
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["train", str(manifest), "--out-dir", str(tmp / "run"), *TRAIN]) != 0:
                raise SystemExit("training failed")
        common = ["--checkpoint", str(tmp / "run" / "checkpoint.l2m"),
                  "--dat", str(tmp / "data" / "naca2412.dat"),
                  "--truth", str(tmp / "data" / "naca2412.msh"), "--out-dir", str(tmp / "out")]
        result = {command: median_phases([command, *common])
                  for command in ("predict", "evaluate")}
    print(json.dumps({"calls": CALLS, "numpy": np.__version__, "median_ms": result}))


if __name__ == "__main__":
    main()
