"""The benchmark session still runs on this tree: a zero-second traced
desk-train session ends with a report whose trainings agree, whose CLI calls
all exit 0 and pass the benchmark's own output checks, and in which every
traced function was called.

The inputs are generated under pytest's temporary directory, never under
``perfbench/work/``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from run import check  # noqa: E402
from tracer import TRACED  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

from loop2mesh import evaluation, geometry  # noqa: E402


def test_traced_desk_session_reports_every_name(tmp_path):
    spec, train_dir, score_dir = make_inputs(WORKLOADS["desk-train"], 0, tmp_path / "inputs")
    out, result = tmp_path / "out", tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "session.py"), "--workload", "desk-train",
         "--seed", "0", "--seconds", "0", "--train-inputs", str(train_dir),
         "--score-inputs", str(score_dir), "--out", str(out), "--result", str(result),
         "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(result.read_text())

    assert len(report["train_sha256"]) >= 1
    assert all(hashes == report["train_sha256"][0] for hashes in report["train_sha256"])
    assert report["calls"] and all(call["exit"] == 0 for call in report["calls"])
    attempted, failed, errors = check(report, spec, score_dir, out)
    assert (failed, errors) == (0, [])
    assert attempted == len(report["train_sha256"]) + len(report["calls"])

    trace = report["trace"]
    names = [f"{layer}.{func}" for layer, funcs in TRACED.items() for func in funcs]
    uncalled = [name for name in names if trace.get(f"{name}.calls", [0])[0] <= 0]
    assert uncalled == []


def test_verifier_scores_with_the_programs_protocol():
    """The benchmark's verifier recomputes the KL scores with its own copy of
    the scoring protocol; if the two disagree, no ``kl.csv`` passes its check."""
    spec = importlib.util.spec_from_file_location("perfbench_verify", PERFBENCH / "verify.py")
    verify = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(verify)
    assert (verify.GRID, verify.KL_EPSILON, verify.CENTER, verify.WHOLE_PAD) == (
        evaluation.GRID, evaluation.EPSILON, evaluation.CENTER, geometry.BBOX_PAD)
