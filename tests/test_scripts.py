"""The measurement scripts under ``scripts/`` still run on this tree."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_score_times_reports_each_commands_phases():
    """``score_times.py`` exits 0 and times the phases each command runs: the
    KDE in ``evaluate``, the SVG and the points CSV in ``predict``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "score_times.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    median_ms = json.loads(proc.stdout)["median_ms"]
    assert median_ms["evaluate"]["kde"] > 0.0
    assert median_ms["predict"]["svg"] > 0.0
    assert median_ms["predict"]["csv"] > 0.0


def test_epoch_times_reports_each_section_count():
    """``epoch_times.py`` exits 0 and times an epoch at each section count; it
    rebinds ``train.adam_step``, so a change to that call must keep it running."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "epoch_times.py"),
                           "--epochs", "3"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["epochs"] == 3
    assert set(report["median_epoch_ms"]) == {"1", "4", "16"}
    assert all(ms > 0.0 for ms in report["median_epoch_ms"].values())
