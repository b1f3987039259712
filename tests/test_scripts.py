"""The measurement scripts under ``scripts/`` still run on this tree."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DESK_PHASES = {"net.forward", "losses.chamfer", "losses.repulsion", "losses.interior_penalty",
               "losses.mean_pairwise_distance", "net.backward", "train.adam_step"}


def test_phase_times_reports_every_figure():
    """``phase_times.py`` exits 0 and reports a positive time for each desk
    phase, fleet section count and scoring command, all read from the
    benchmark tracer's spans."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "phase_times.py"),
                           "--epochs", "3"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert set(report) == {"epochs", "builds", "calls", "numpy", "desk_epoch_ms", "desk_ms",
                           "median_setup_ms", "median_epoch_ms", "score_ms"}
    assert (report["epochs"], report["desk_epoch_ms"] > 0.0) == (3, True)
    assert DESK_PHASES <= set(report["desk_ms"])
    assert set(report["median_setup_ms"]) == set(report["median_epoch_ms"]) == {"1", "4", "16"}
    assert {"cli.cmd_predict", "svg.render_svg", "total"} <= set(report["score_ms"]["predict"])
    assert {"cli.cmd_evaluate", "evaluation.kde", "total"} <= set(report["score_ms"]["evaluate"])
    figures = [report["desk_ms"], report["median_setup_ms"], report["median_epoch_ms"],
               *report["score_ms"].values()]
    assert all(ms > 0.0 for figure in figures for ms in figure.values())


def test_holdout_table_prints_a_row_per_mode_and_seed_and_each_mean():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "holdout_table.py"),
                           "--seeds", "0", "--epochs", "2"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split("|")[1:3] for line in proc.stdout.splitlines()[2:]]
    assert [[c.strip() for c in row] for row in rows] == [
        ["raw", "0"], ["raw", "mean"], ["stand", "0"], ["stand", "mean"]]
