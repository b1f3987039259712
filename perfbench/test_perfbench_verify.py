"""The benchmark's output checks accept the program's outputs and reject
perturbed ones.

    python3 -m pytest perfbench/test_perfbench_verify.py
"""

import io
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import verify  # noqa: E402
from loop2mesh import cli  # noqa: E402
from loop2mesh.ingest import build_dataset, load_manifest  # noqa: E402
from loop2mesh.synth import write_sample_dataset  # noqa: E402
from loop2mesh.train import TrainConfig, save_trained, train  # noqa: E402


@pytest.fixture(scope="module", params=["raw", "stand-clamp"])
def outputs(request, tmp_path_factory):
    """A tiny trained checkpoint, its trainlog, and predict/evaluate outputs."""
    tmp = tmp_path_factory.mktemp(request.param)
    manifest = write_sample_dataset(tmp / "data", codes=("2412",), mesh_nodes=600, seed=3)
    config = TrainConfig.from_dict({
        "mode": request.param, "n_points": 40, "upsample_count": 200, "h1": 16, "h2": 32,
        "epochs": 6, "weights": {"chamfer": 1.0, "repulsion": 1.0, "interior": 10.0}})
    result = train(build_dataset(load_manifest(manifest), target_count=200), config)
    ckpt = tmp / "checkpoint.l2m"
    save_trained(ckpt, result, config, ["naca2412"])
    dat, msh = tmp / "data" / "naca2412.dat", tmp / "data" / "naca2412.msh"
    for op in ("predict", "evaluate"):
        with redirect_stdout(io.StringIO()):
            assert cli.main([op, "--checkpoint", str(ckpt), "--dat", str(dat),
                             "--truth", str(msh), "--out-dir", str(tmp)]) == 0
    return {"ckpt": ckpt.read_bytes(), "dat": dat.read_text(), "msh": msh.read_text(),
            "points": (tmp / "points.csv").read_text(), "kl": (tmp / "kl.csv").read_text(),
            "trainlog": result.log.to_csv_text(), "epochs": config.epochs}


def _set_field(csv_text: str, row: int, col: int, change) -> str:
    lines = csv_text.splitlines()
    fields = lines[row].split(",")
    fields[col] = repr(change(float(fields[col])))
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_program_outputs_pass(outputs):
    assert verify.check_points(outputs["ckpt"], outputs["dat"], outputs["points"]) is None
    assert verify.check_kl(outputs["ckpt"], outputs["dat"], outputs["msh"], outputs["kl"]) is None
    assert verify.check_trainlog(outputs["trainlog"], outputs["epochs"]) is None


@pytest.mark.parametrize("row,col", [(1, 0), (17, 1), (40, 1)])
def test_perturbed_points_fail(outputs, row, col):
    bad = _set_field(outputs["points"], row, col, lambda v: v + 1e-7)
    assert verify.check_points(outputs["ckpt"], outputs["dat"], bad) is not None


def test_missing_point_fails(outputs):
    bad = "\n".join(outputs["points"].splitlines()[:-1]) + "\n"
    assert verify.check_points(outputs["ckpt"], outputs["dat"], bad) is not None


@pytest.mark.parametrize("row", [1, 2])
def test_perturbed_kl_fails(outputs, row):
    bad = _set_field(outputs["kl"], row, 3, lambda v: v + 1e-7)
    assert verify.check_kl(outputs["ckpt"], outputs["dat"], outputs["msh"], bad) is not None


def test_relabelled_kl_fails(outputs):
    bad = outputs["kl"].replace(",c,", ",w,", 1)
    assert verify.check_kl(outputs["ckpt"], outputs["dat"], outputs["msh"], bad) is not None


def test_trainlog_with_nan_fails(outputs):
    bad = _set_field(outputs["trainlog"], 3, 2, lambda v: math.nan)
    assert verify.check_trainlog(bad, outputs["epochs"]) is not None


def test_trainlog_that_does_not_descend_fails(outputs):
    rows = outputs["trainlog"].splitlines()
    first_total = float(rows[1].split(",")[4])
    bad = _set_field(outputs["trainlog"], len(rows) - 1, 4, lambda v: first_total)
    assert verify.check_trainlog(bad, outputs["epochs"]) is not None
