#!/usr/bin/env python3
"""loop2mesh benchmark: one workload session, measured end to end or traced.

    python3 perfbench/run.py --workload {desk-train,fleet-train,score} \
        --seed N --seconds S --trace {0,1}

Run from the root of a loop2mesh checkout. The inputs are generated from the
seed by ``loop2mesh.synth`` in this process, then the session runs in a
fresh process with one BLAS thread (``session.py``). Afterwards every output
is checked with code independent of loop2mesh (``verify.py``); an operation
whose output fails a check counts as failed and the exit code is 1.

Every time reported is scaled to a nominal machine speed: the session times
a fixed reference computation before each operation, and times are
multiplied by ``REFERENCE_S`` over that reference's median. This machine's
speed drifts by tens of percent within minutes, and all operations drift
together; the unscaled rates are in the summary line.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the session
twice, untraced and traced, for half of ``--seconds`` each, and prints the
per-layer metrics of the traced session plus the tracing overhead (traced
rate minus untraced rate). The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``;
the line before it holds the settings, output hashes and raw counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = Path("src")
WORK = HERE / "work"
BLAS_THREADS = "1"
# Times are scaled to a nominal machine on which session.reference() takes
# this long (about its median on the 2-vCPU machine the bounds were set on).
REFERENCE_S = 0.004
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def session(workload: str, seed: int, seconds: float, train_dir: Path, score_dir: Path,
            out: Path, traced: bool) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result = out / "report.json"
    cmd = [sys.executable, str(HERE / "session.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--train-inputs", str(train_dir),
           "--score-inputs", str(score_dir),
           "--out", str(out), "--result", str(result)] + (["--trace"] if traced else [])
    proc = subprocess.run(cmd, timeout=2 * seconds + 60)
    if proc.returncode != 0:
        raise SystemExit(f"session process exited with {proc.returncode}")
    return json.loads(result.read_text())


def check(report: dict, spec: dict, inputs: Path, out: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, errors) over the session's train and CLI calls.

    A training counts as failed when its checkpoint or trainlog bytes differ
    from the files left at the end, or the trainlog fails its check; a CLI
    call, when it exited non-zero or its output differs from the section's
    final output, or that output fails its check.
    """
    import verify

    def guarded(check_fn, *args):
        try:
            return check_fn(*args)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    ckpt = (out / "checkpoint.l2m").read_bytes()
    final = [sha256(out / "checkpoint.l2m"), sha256(out / "trainlog.csv")]
    log_error = guarded(verify.check_trainlog, (out / "trainlog.csv").read_text(), report["epochs"])
    errors = [f"trainlog: {log_error}"] if log_error else []
    failed = sum(1 for hashes in report["train_sha256"] if log_error or hashes != final)
    if failed and not log_error:
        errors.append("repeated trainings wrote different checkpoint or trainlog bytes")

    verified = {}
    for name in spec["scoring"]:
        dat_text = (inputs / f"{name}.dat").read_text()
        section = out / "score" / name
        outputs = {"predict": section / "points.csv", "evaluate": section / "kl.csv"}
        problems = {
            "predict": guarded(lambda: verify.check_points(
                ckpt, dat_text, outputs["predict"].read_text())),
            "evaluate": guarded(lambda: verify.check_kl(
                ckpt, dat_text, (inputs / f"{name}.msh").read_text(),
                outputs["evaluate"].read_text())),
        }
        for op, problem in problems.items():
            if problem:
                errors.append(f"{name} {op}: {problem}")
            else:
                verified[op, name] = sha256(outputs[op])
    for call in report["calls"]:
        if call["exit"] != 0 or call["sha256"] != verified.get((call["op"], call["section"])):
            failed += 1
    return len(report["train_sha256"]) + len(report["calls"]), failed, errors


def scale(report: dict) -> float:
    """Nominal over measured reference time; below 1 while the machine runs slow.

    The reference is timed before every operation of the session, so its
    median covers the same stretch of time as the operations' medians.
    """
    return REFERENCE_S / statistics.median(report["reference_s"])


def rates(report: dict, k: float) -> dict[str, float]:
    def per_s(op):
        return 1.0 / (k * statistics.median(c["s"] for c in report["calls"] if c["op"] == op))

    return {"train_epochs_per_s": report["epochs"] / (k * statistics.median(report["train_s"])),
            "predict_per_s": per_s("predict"),
            "evaluate_per_s": per_s("evaluate")}


def end_to_end(report: dict, spec: dict, out: Path, k: float) -> dict[str, tuple[float, str]]:
    import verify

    last = verify.trainlog_rows((out / "trainlog.csv").read_text())[-1]
    kl = {"c": [], "w": []}
    for name in spec["scoring"]:
        for _, region, _, value in verify.kl_rows((out / "score" / name / "kl.csv").read_text()):
            kl[region].append(float(value))
    r = rates(report, k)
    return {
        "setup_s": (k * statistics.median(report["setup_s"]), "s"),
        "train_epochs_per_s": (r["train_epochs_per_s"], "1/s"),
        "predict_per_s": (r["predict_per_s"], "1/s"),
        "evaluate_per_s": (r["evaluate_per_s"], "1/s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "final_chamfer": (float(last["chamfer"]), "1"),
        "kl_center": (statistics.fmean(kl["c"]), "1"),
        "kl_whole": (statistics.fmean(kl["w"]), "1"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="loop2mesh benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "loop2mesh" / "__init__.py").is_file():
        print("error: run from the root of a loop2mesh checkout (src/loop2mesh not found)",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ["PYTHONHASHSEED"] = "0"  # same dict layouts, so the same peak memory
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.resolve())] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    sys.path.insert(0, str(SRC.resolve()))
    from workloads import WORKLOADS, make_inputs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec, train_dir, score_dir = make_inputs(WORKLOADS[args.workload], args.seed, WORK)
    base = score_dir.parent

    # a traced run splits its time between an untraced and a traced session
    runs = [("plain", False), ("traced", True)] if args.trace else [("plain", False)]
    seconds = args.seconds / len(runs)
    attempted = failed = 0
    errors, reports = [], {}
    for label, traced in runs:
        out = base / label
        report = session(args.workload, args.seed, seconds, train_dir, score_dir, out, traced)
        a, f, e = check(report, spec, score_dir, out)
        attempted, failed = attempted + a, failed + f
        errors += e
        reports[label] = report

    plain = reports["plain"]
    if args.trace:
        traced_report = reports["traced"]
        k = scale(traced_report)
        metrics = {name: (value * k if unit in ("ms", "s") else value, unit)
                   for name, (value, unit) in traced_report["trace"].items()}
        plain_rates = rates(plain, scale(plain))
        for name, value in rates(traced_report, k).items():
            metrics[f"overhead.{name}"] = (value - plain_rates[name], "1/s")
    else:
        metrics = end_to_end(plain, spec, base / "plain", scale(plain))

    summary = {
        "workload": args.workload,
        "settings": plain["settings"],
        "inputs": {"trained": list(spec["trained"].values()),
                   "scoring": list(spec["scoring"]), "mesh_nodes": spec["mesh_nodes"]},
        "sha256": {label: {"checkpoint": r["train_sha256"][-1][0],
                           "trainlog": r["train_sha256"][-1][1]} for label, r in reports.items()},
        "reference_ms": {label: statistics.median(r["reference_s"]) * 1e3
                         for label, r in reports.items()},
        "unscaled": {label: dict(rates(r, 1.0), setup_s=statistics.median(r["setup_s"]))
                     for label, r in reports.items()},
        "counts": {label: {"setups": len(r["setup_s"]), "trains": len(r["train_s"]),
                           "cycles": r["cycles"], "calls": len(r["calls"])}
                   for label, r in reports.items()},
        "errors": errors,
    }
    (base / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"summary": summary}))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
