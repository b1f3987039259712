import json
import logging
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loop2mesh import cli, evaluation
from loop2mesh.cli import main
from loop2mesh.errors import ConfigError, InputError, Loop2MeshError, TrainingDivergedError
from loop2mesh.ingest import (load_manifest, parse_airfoil_dat, parse_msh_nodes,
                              parse_points_csv)
from loop2mesh.losses import workspace_shapes
from loop2mesh.synth import msh_text, write_sample_dataset
from loop2mesh.train import TrainConfig, load_trained

FAST = ["--nodes", "40", "--epochs", "30", "--h1", "16", "--h2", "24",
        "--upsample-count", "200", "--seed", "0"]


def run_cli(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def trained(tmp_path_factory, manifest_path):
    out = tmp_path_factory.mktemp("trained")
    code = main(["train", str(manifest_path), "--out-dir", str(out),
                 "--mode", "stand", "--ratio", "1", *FAST])
    assert code == 0
    # two samples in stand mode, standardised with one transform fitted on both
    return {"dir": out, "checkpoint": out / "checkpoint.l2m",
            "manifest": manifest_path,
            "dat": manifest_path.parent / "naca2220.dat",
            "msh": manifest_path.parent / "naca2220.msh"}


# flags and config keys of the counts that size arrays
OVERSIZED_FIELDS = [("--nodes", "n_points"), ("--h1", "h1"), ("--upsample-count", "upsample_count"),
                    ("--epochs", "epochs"), ("--loop-size", "loop_size")]

# truth meshes whose padded bounding box leaves the float range: through the
# extent, and through the padding of a finite extent
OVERFLOWING_TRUTHS = [[[-1e308, -1e308], [0.5, 0.1], [0.7, -0.1], [1e308, 1e308]],
                      [[-1.79e308, 0.0], [-1.0e308, 1.0], [-1.5e308, 0.5]]]


# -------------------------------------------------------------------- train

class TestTrain:
    def test_happy_path_writes_three_files(self, tmp_path, manifest_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run_cli(
            ["train", manifest_path, "--out-dir", out, *FAST], capsys)
        assert code == 0
        assert (out / "checkpoint.l2m").is_file()
        assert (out / "trainlog.csv").is_file()
        assert (out / "run_manifest.json").is_file()
        assert "trained 2 sample(s) for 30 epochs" in stdout
        assert stdout.count("wrote") == 2

    def test_rerun_is_byte_identical(self, tmp_path, manifest_path, capsys):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code, _, _ = run_cli(
                ["train", manifest_path, "--out-dir", out, *FAST], capsys)
            assert code == 0
            outs.append(out)
        a, b = outs
        assert (a / "checkpoint.l2m").read_bytes() == (b / "checkpoint.l2m").read_bytes()
        assert (a / "trainlog.csv").read_bytes() == (b / "trainlog.csv").read_bytes()

    def test_missing_msh_exits_3_and_names_the_path(self, tmp_path, data_dir, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{
            "name": "naca2220", "dat": str(data_dir / "naca2220.dat"),
            "msh": str(tmp_path / "gone.msh")}]))
        code, _, stderr = run_cli(
            ["train", manifest, "--out-dir", tmp_path / "run", *FAST], capsys)
        assert code == 3
        assert "gone.msh" in stderr

    def test_missing_manifest_exits_3(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["train", tmp_path / "nope.json", "--out-dir", tmp_path / "r", *FAST],
            capsys)
        assert code == 3
        assert "nope.json" in stderr

    def test_bad_clamp_flag_exits_2(self, tmp_path, manifest_path, capsys):
        code, _, stderr = run_cli(
            ["train", manifest_path, "--out-dir", tmp_path / "r", *FAST,
             "--mode", "stand-clamp", "--clamp-y", "1"], capsys)
        assert code == 2
        assert "clamp" in stderr

    def test_invalid_config_value_exits_2(self, tmp_path, manifest_path, capsys):
        code, _, stderr = run_cli(
            ["train", manifest_path, "--out-dir", tmp_path / "r",
             "--epochs", "0", "--nodes", "40"], capsys)
        assert code == 2
        assert "error:" in stderr
        # a config file value that would need coercing is an error, not a guess
        cfg = tmp_path / "cfg.json"
        for bad in ({"n_points": 3.7}, {"epochs": True}, {"lr": True},
                    {"weights": {"repulsion": True}}):
            cfg.write_text(json.dumps(bad))
            code, _, stderr = run_cli(
                ["train", manifest_path, "--out-dir", tmp_path / "r", "--config", cfg], capsys)
            assert code == 2, bad
            assert "error: invalid " + next(iter(bad)) in stderr

    @pytest.mark.parametrize("bad", [
        {"n_points": "abc"}, {"lr": "x"}, {"clamp_y": 5}, {"weights": 5}, {"seed": -1},
        {"weights": {"repulsoin": 1}},
    ])
    def test_config_file_value_of_wrong_type_exits_2(self, tmp_path, manifest_path, bad, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bad))
        code, _, stderr = run_cli(
            ["train", manifest_path, "--out-dir", tmp_path / "r", "--config", cfg], capsys)
        assert code == 2
        assert "error:" in stderr
        assert next(iter(bad)) in stderr

    def test_config_file_merges_under_flags(self, tmp_path, manifest_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epochs": 5, "n_points": 30,
                                   "upsample_count": 150, "h1": 16, "h2": 24}))
        out = tmp_path / "run"
        code, stdout, _ = run_cli(
            ["train", manifest_path, "--out-dir", out, "--config", cfg,
             "--epochs", "7"], capsys)
        assert code == 0
        assert "for 7 epochs" in stdout  # flag beats the file
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"]["n_points"] == 30  # file beats the default

    def test_unreadable_config_file_exits_2(self, tmp_path, manifest_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, stderr = run_cli(
            ["train", manifest_path, "--out-dir", tmp_path / "r",
             "--config", cfg], capsys)
        assert code == 2
        assert "cfg.json" in stderr

    @pytest.mark.parametrize("text", ['{"epochs": ' + "1" * 5000 + "}", "[" * 5000],
                             ids=["int-over-4300-digits", "deep-nesting"])
    def test_json_that_python_cannot_read_exits_2(self, tmp_path, manifest_path, text, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code, _, stderr = run_cli(
            ["train", manifest_path, "--out-dir", tmp_path / "r", "--config", cfg], capsys)
        assert code == 2
        assert f"error: {cfg}: invalid JSON: " in stderr

    def test_holdout_excludes_named_sample(self, tmp_path, manifest_path, capsys):
        code, stdout, _ = run_cli(
            ["train", manifest_path, "--out-dir", tmp_path / "run",
             "--holdout", "naca4412", *FAST], capsys)
        assert code == 0
        assert "trained 1 sample(s)" in stdout

    def test_unknown_holdout_exits_2(self, tmp_path, manifest_path, capsys):
        code, _, stderr = run_cli(
            ["train", manifest_path, "--out-dir", tmp_path / "run",
             "--holdout", "bogus", *FAST], capsys)
        assert code == 2
        assert "bogus" in stderr

    def test_run_manifest_records_inputs_and_config(self, tmp_path, manifest_path, capsys):
        out = tmp_path / "run"
        code, _, _ = run_cli(
            ["train", manifest_path, "--out-dir", out, *FAST], capsys)
        assert code == 0
        doc = json.loads((out / "run_manifest.json").read_text())
        assert doc["command"] == "train"
        assert doc["seed"] == 0
        assert doc["tool"]["name"] == "loop2mesh"
        # manifest + (dat, msh) per sample, each with a sha256
        assert len(doc["inputs"]) == 1 + 2 * 2
        assert all(re.fullmatch(r"[0-9a-f]{64}", rec["sha256"]) for rec in doc["inputs"])
        assert doc["outputs"] == {"checkpoint": "checkpoint.l2m", "trainlog": "trainlog.csv"}

    def test_divergence_exits_4_but_leaves_run_manifest(self, tmp_path, manifest_path, capsys):
        out = tmp_path / "run"
        code, _, stderr = run_cli(
            ["train", manifest_path, "--out-dir", out, *FAST, "--lr", "1e155"], capsys)
        assert code == 4
        assert "epoch" in stderr
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert (out / "run_manifest.json").is_file()
        assert not (out / "checkpoint.l2m").exists()

    def test_overflow_in_the_forward_pass_prints_one_error_line(self, tmp_path, manifest_path,
                                                                capsys):
        code, _, stderr = run_cli(
            ["train", manifest_path, "--out-dir", tmp_path / "run", *FAST, "--lr", "1e300"],
            capsys)
        assert code == 4
        assert stderr == "error: non-finite network output at epoch 2\n"

    def test_epsilon_whose_repulsion_square_overflows_exits_4_with_one_line(self, tmp_path,
                                                                           capsys):
        """Seed 3 puts all six points on one spot, so 1 / mean is about 5e160
        and its square overflows: a divergence (exit 4), not a traceback."""
        manifest = write_sample_dataset(tmp_path / "data", codes=("2220",), mesh_nodes=1500,
                                        seed=0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "stand", "weights": {
            "repulsion": 1, "interior": 10, "epsilon": 5e-324}}))
        code, _, stderr = run_cli(
            ["train", manifest, "--out-dir", tmp_path / "run", "--config", cfg, "--epochs", "1",
             "--nodes", "6", "--h1", "4", "--h2", "4", "--upsample-count", "20", "--seed", "3"],
            capsys)
        assert code == 4
        assert stderr.startswith("error: ") and stderr.count("\n") == 1

    def test_one_node_exits_2_before_reading_or_writing(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, _, stderr = run_cli(
            ["train", tmp_path / "absent.json", "--out-dir", out, "--nodes", "1"], capsys)
        assert code == 2  # a missing manifest that was read would exit 3
        assert stderr == "error: n_points must be an integer >= 2, got 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", [10**20, 2**63])
    @pytest.mark.parametrize("flag, key", OVERSIZED_FIELDS)
    def test_count_numpy_cannot_size_exits_2_before_reading_or_writing(
            self, tmp_path, flag, key, value, capsys):
        """The config is rejected before the (absent) manifest is read or an
        array is sized, whether the count comes from a flag or a config file."""
        out, cfg = tmp_path / "run", tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        for source in ([flag, value], ["--config", cfg]):
            code, _, stderr = run_cli(
                ["train", tmp_path / "absent.json", "--out-dir", out, *source], capsys)
            assert code == 2, source
            assert re.fullmatch(rf"error: {key} too large: the .* would hold \d+ floats, "
                                r"more than NumPy can size\n", stderr)
            assert not out.exists()

    def test_counts_whose_product_numpy_cannot_size_are_named(self):
        with pytest.raises(ConfigError, match="^n_points and upsample_count too large: "
                                              r"the \(N, M\) Chamfer matrix"):
            TrainConfig(n_points=2**29, upsample_count=2**32).validate()
        with pytest.raises(ConfigError, match="^loop_size, h1, h2 and n_points too large"):
            TrainConfig(h1=2**30, h2=2**31).validate()


# ------------------------------------------------------------------ predict

class TestPredict:
    def test_csv_has_exactly_n_data_rows(self, tmp_path, trained, capsys):
        out = tmp_path / "pred"
        code, stdout, _ = run_cli(
            ["predict", "--checkpoint", trained["checkpoint"],
             "--dat", trained["dat"], "--out-dir", out], capsys)
        assert code == 0
        lines = (out / "points.csv").read_text().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 1 + 40
        assert (out / "scatter.svg").is_file()
        assert re.search(r"^interior: \d+$", stdout, re.MULTILINE)

    def test_truth_flag_adds_green_layer(self, tmp_path, trained, capsys):
        plain = tmp_path / "plain"
        code, _, _ = run_cli(
            ["predict", "--checkpoint", trained["checkpoint"],
             "--dat", trained["dat"], "--out-dir", plain], capsys)
        assert code == 0
        overlay = tmp_path / "overlay"
        code, _, _ = run_cli(
            ["predict", "--checkpoint", trained["checkpoint"],
             "--dat", trained["dat"], "--truth", trained["msh"],
             "--out-dir", overlay], capsys)
        assert code == 0
        assert "green" not in (plain / "scatter.svg").read_text()
        svg = (overlay / "scatter.svg").read_text()
        assert 'fill="green"' in svg and 'fill="blue"' in svg and 'stroke="red"' in svg

    def test_unknown_sample_name_exits_2(self, tmp_path, trained, capsys):
        """``--sample`` is gone: any sample name is an unrecognized argument."""
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--checkpoint", str(trained["checkpoint"]),
                  "--dat", str(trained["dat"]), "--sample", "bogus",
                  "--out-dir", str(tmp_path / "p")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --sample bogus" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_checkpoint_without_the_chosen_transform_exits_3(self, tmp_path, trained, capsys):
        head, rest = trained["checkpoint"].read_bytes().split(b"\n", 1)
        header = json.loads(head)
        for record in header["meta"]["samples"]:
            record["transform"] = None
        bad = tmp_path / "bad.l2m"
        bad.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + rest)
        for argv in (["predict", "--out-dir", tmp_path / "p"],
                     ["evaluate", "--truth", trained["msh"], "--out", tmp_path / "kl.csv"]):
            code, _, stderr = run_cli(argv + ["--checkpoint", bad, "--dat", trained["dat"]],
                                      capsys)
            assert code == 3
            assert "missing standardise transform" in stderr

    def test_explicit_viewport_accepted(self, tmp_path, trained, capsys):
        out = tmp_path / "pred"
        code, _, _ = run_cli(
            ["predict", "--checkpoint", trained["checkpoint"],
             "--dat", trained["dat"], "--viewport=-1,2,-1,1",
             "--out-dir", out], capsys)
        assert code == 0
        assert (out / "scatter.svg").is_file()

    @pytest.mark.parametrize("viewport", ["0,1", "-inf,inf,0,1", "0,1,nan,1", "0,0,0,1",
                                          "0,1,1,-1", "1e400,1,0,1", "0,1e-310,0,1",
                                          "0,5e-324,0,1", "-1e308,1e308,0,1"])
    def test_bad_viewport_exits_2_before_writing(self, tmp_path, trained, viewport, capsys):
        out = tmp_path / "p"
        code, _, stderr = run_cli(
            ["predict", "--checkpoint", trained["checkpoint"],
             "--dat", trained["dat"], f"--viewport={viewport}", "--out-dir", out], capsys)
        assert code == 2
        assert "viewport" in stderr
        assert not out.exists()

    def test_overflowing_network_exits_3_with_one_error_line(self, tmp_path, trained, capsys):
        head, rest = trained["checkpoint"].read_bytes().split(b"\n", 1)
        shapes = json.loads(head)["shapes"]
        sizes = [math.prod(shapes[name]) for name in ("w1", "b1", "w2", "b2", "w3")]
        flat = np.frombuffer(rest, dtype="<f8").copy()
        w1, b1, w2, b2, w3, b3 = np.split(flat, np.cumsum(sizes))  # views, in payload order
        w2 *= 1e300
        w3 *= 1e300
        bad = tmp_path / "huge.l2m"
        bad.write_bytes(head + b"\n" + flat.tobytes())
        out = tmp_path / "p"
        code, _, stderr = run_cli(
            ["predict", "--checkpoint", bad, "--dat", trained["dat"], "--out-dir", out], capsys)
        assert code == 3
        assert stderr == "error: network output contains non-finite coordinates\n"
        assert not (out / "points.csv").exists()

    def test_missing_checkpoint_file_exits_3(self, tmp_path, trained, capsys):
        code, _, _ = run_cli(
            ["predict", "--checkpoint", tmp_path / "none.l2m",
             "--dat", trained["dat"], "--out-dir", tmp_path / "p"], capsys)
        assert code == 3

    def test_malformed_checkpoint_header_exits_3(self, tmp_path, trained, capsys):
        head, rest = trained["checkpoint"].read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["shapes"]["w1"] = ["16", 70]
        bad = tmp_path / "bad.l2m"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + rest)
        code, _, stderr = run_cli(
            ["predict", "--checkpoint", bad, "--dat", trained["dat"],
             "--out-dir", tmp_path / "p"], capsys)
        assert code == 3
        assert "invalid shape" in stderr

    def test_checkpoint_shape_of_wrong_rank_exits_3(self, tmp_path, trained, capsys):
        head, rest = trained["checkpoint"].read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["shapes"]["w1"] = [math.prod(header["shapes"]["w1"])]
        bad = tmp_path / "bad.l2m"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + rest)
        code, _, stderr = run_cli(
            ["predict", "--checkpoint", bad, "--dat", trained["dat"],
             "--out-dir", tmp_path / "p"], capsys)
        assert code == 3
        assert f"{bad}: weight matrices must be 2-D" in stderr

    def test_checkpoint_transform_that_is_not_a_number_exits_3(self, tmp_path, trained, capsys):
        head, rest = trained["checkpoint"].read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["meta"]["samples"][0]["transform"]["mean_x"] = True
        bad = tmp_path / "bad.l2m"
        bad.write_bytes(json.dumps(header).encode() + b"\n" + rest)
        code, _, stderr = run_cli(
            ["predict", "--checkpoint", bad, "--dat", trained["dat"],
             "--out-dir", tmp_path / "p"], capsys)
        assert code == 3
        assert f"{bad}: invalid checkpoint metadata" in stderr


# ----------------------------------------------------------------- evaluate

def assert_scoring_flags_are_gone(argv, flag, out, capsys):
    """``--grid`` and ``--epsilon`` are argparse's usage error (exit 2): no file
    named in ``argv`` is read (each is missing) and ``out`` is not written."""
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv] + [flag, "100"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 100" in capsys.readouterr().err
    assert not out.exists()


class TestEvaluate:
    def test_prediction_equal_to_truth_scores_below_1e6(self, tmp_path, trained, capsys):
        nodes = parse_msh_nodes(trained["msh"].read_text())
        pred_csv = tmp_path / "pred.csv"
        pred_csv.write_text("x,y\n" + "".join(
            f"{repr(float(x))},{repr(float(y))}\n" for x, y in nodes))
        out = tmp_path / "kl.csv"
        code, stdout, _ = run_cli(
            ["evaluate", "--pred", pred_csv, "--truth", trained["msh"],
             "--out", out], capsys)
        assert code == 0
        for match in re.finditer(r"kl=([0-9.]+)", stdout):
            assert float(match.group(1)) < 1e-6
        lines = out.read_text().splitlines()
        assert lines[0] == "ratio,region,nodes,kl"
        assert len(lines) == 3
        assert lines[1].startswith("0,c,") and lines[2].startswith("0,w,")

    def test_malformed_csv_row_exits_3_with_row_number(self, tmp_path, trained, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n0.1,0.2\n0.3,0.4,0.5\n")
        code, _, stderr = run_cli(
            ["evaluate", "--pred", bad, "--truth", trained["msh"],
             "--out", tmp_path / "kl.csv"], capsys)
        assert code == 3
        assert "row 3" in stderr

    def test_non_numeric_csv_cell_exits_3(self, tmp_path, trained, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n0.1,oops\n")
        code, _, stderr = run_cli(
            ["evaluate", "--pred", bad, "--truth", trained["msh"],
             "--out", tmp_path / "kl.csv"], capsys)
        assert code == 3
        assert "row 2" in stderr

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_csv_cell_exits_3_naming_file_and_row(self, tmp_path, trained, cell,
                                                             capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"x,y\n0.1,0.2\n0.3,{cell}\n")
        code, _, stderr = run_cli(
            ["evaluate", "--pred", bad, "--truth", trained["msh"],
             "--out", tmp_path / "kl.csv"], capsys)
        assert code == 3
        assert stderr == f"error: {bad}: row 3: non-finite coordinate '0.3,{cell}'\n"
        assert not (tmp_path / "kl.csv").exists()

    def test_pred_and_checkpoint_are_mutually_exclusive(self, tmp_path, trained, capsys):
        for extra in ([], ["--pred", tmp_path / "p.csv",
                           "--checkpoint", trained["checkpoint"]]):
            code, _, stderr = run_cli(
                ["evaluate", "--truth", trained["msh"],
                 "--out", tmp_path / "kl.csv", *extra], capsys)
            assert code == 2
            assert "exactly one" in stderr

    @pytest.mark.parametrize("exists", [True, False])
    def test_checkpoint_requires_dat(self, tmp_path, trained, exists, capsys):
        """The missing flag is reported before the checkpoint is read, so a
        checkpoint file that does not exist makes the same error."""
        ckpt = trained["checkpoint"] if exists else tmp_path / "missing.l2m"
        code, stdout, stderr = run_cli(
            ["evaluate", "--checkpoint", ckpt,
             "--truth", trained["msh"], "--out", tmp_path / "kl.csv"], capsys)
        assert code == 2
        assert stderr == "error: --checkpoint needs --dat to build the input loop\n"
        assert stdout == "" and not (tmp_path / "kl.csv").exists()

    def test_checkpoint_route_labels_rows_with_trained_ratio(self, tmp_path, trained, capsys):
        out = tmp_path / "kl.csv"
        code, stdout, _ = run_cli(
            ["evaluate", "--checkpoint", trained["checkpoint"],
             "--dat", trained["dat"], "--truth", trained["msh"],
             "--out", out], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        # the module fixture trained with the default repulsion weight 1
        assert lines[1].startswith("1,c,40,")
        assert "region=c" in stdout and "region=w" in stdout

    @pytest.mark.parametrize("flag", ["--grid", "--epsilon"])
    def test_grid_and_epsilon_are_not_options(self, tmp_path, flag, capsys):
        missing = tmp_path / "missing"
        assert_scoring_flags_are_gone(
            ["evaluate", "--checkpoint", missing / "c.l2m", "--dat", missing / "a.dat",
             "--truth", missing / "t.msh", "--out", tmp_path / "kl.csv"], flag,
            tmp_path / "kl.csv", capsys)

    def test_failed_allocation_exits_5_with_one_error_line(self, tmp_path, trained, monkeypatch,
                                                           capsys):
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape "
                              "(100000, 100000) and data type float64")

        monkeypatch.setattr(evaluation, "kde", out_of_memory)
        code, _, stderr = run_cli(
            ["evaluate", "--checkpoint", trained["checkpoint"],
             "--dat", trained["dat"], "--truth", trained["msh"], "--out", tmp_path / "kl.csv"],
            capsys)
        assert code == cli.MEMORY_EXIT_CODE == 5
        assert stderr.splitlines() == ["error: out of memory: Unable to allocate 74.5 GiB for an "
                                       "array with shape (100000, 100000) and data type float64"]
        assert not (tmp_path / "kl.csv").exists()

    def test_rerun_writes_identical_csv(self, tmp_path, trained, capsys):
        outs = []
        for sub in ("a.csv", "b.csv"):
            out = tmp_path / sub
            code, _, _ = run_cli(
                ["evaluate", "--checkpoint", trained["checkpoint"],
                 "--dat", trained["dat"], "--truth", trained["msh"],
                 "--out", out], capsys)
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_truth_node_that_overflows_the_bandwidth_exits_3(self, tmp_path, trained, capsys):
        nodes = parse_msh_nodes(trained["msh"].read_text()).tolist() + [[1e200, 1e200]]
        truth = tmp_path / "far.msh"
        truth.write_text(msh_text(nodes))
        out = tmp_path / "kl.csv"
        code, _, stderr = run_cli(
            ["evaluate", "--checkpoint", trained["checkpoint"],
             "--dat", trained["dat"], "--truth", truth, "--out", out], capsys)
        assert code == 3
        assert len(stderr.splitlines()) == 1  # no RuntimeWarning before the error line
        assert stderr.startswith("error: whole window, truth: bandwidth must be positive and finite")
        assert not out.exists()

    @pytest.mark.parametrize("pred_xy, truth_xy, message", [
        ([[0.1, 0.2], [0.3, 0.4]], [[1e10, 1e10], [1e10 + 1, 1e10], [1e10, 1e10 + 1]],
         "center window, truth: bandwidth fit needs at least 2 points inside the window"),
        ([[1e10, 1e10], [1e10 + 1, 1e10]], [[0.1, 0.0], [0.5, 0.1], [0.9, -0.1]],
         "center window, prediction: kernel mass inside the window is numerically zero"),
    ], ids=["bandwidth", "kernel-mass"])
    def test_scoring_error_names_its_window_and_cloud(self, tmp_path, pred_xy, truth_xy, message,
                                                      capsys):
        pred, truth, out = tmp_path / "p.csv", tmp_path / "t.msh", tmp_path / "kl.csv"
        pred.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in pred_xy))
        truth.write_text(msh_text(truth_xy))
        code, _, stderr = run_cli(["evaluate", "--pred", pred, "--truth", truth, "--out", out],
                                  capsys)
        assert code == 3
        assert stderr.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("nodes", OVERFLOWING_TRUTHS, ids=["extent", "padding"])
    def test_truth_spanning_the_float_range_exits_3_with_one_line(self, tmp_path, nodes, capsys):
        """The whole window (the truth's padded box) overflows: one line naming
        the truth file, and no RuntimeWarning."""
        pred, truth, out = tmp_path / "p.csv", tmp_path / "t.msh", tmp_path / "kl.csv"
        pred.write_text("x,y\n0.1,0.2\n0.3,0.4\n")
        truth.write_text(msh_text(nodes))
        code, _, stderr = run_cli(["evaluate", "--pred", pred, "--truth", truth, "--out", out],
                                  capsys)
        assert code == 3
        assert stderr.splitlines() == [
            f"error: {truth}: padded bounding box overflows the float range"]
        assert not out.exists()

    @pytest.mark.parametrize("ratio", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("source", ["--pred", "--checkpoint"])
    def test_ratio_that_is_not_finite_exits_2(self, tmp_path, source, ratio, capsys):
        """Rejected before any file is read: the (absent) inputs are never opened."""
        missing, out = tmp_path / "missing", tmp_path / "kl.csv"
        code, stdout, stderr = run_cli(
            ["evaluate", source, missing, "--dat", missing, "--truth", missing,
             f"--ratio={ratio}", "--out", out], capsys)
        assert (code, stdout) == (2, "")
        assert stderr.splitlines() == [f"error: --ratio must be finite, got {float(ratio)!r}"]
        assert not out.exists()


# ------------------------------------------------------ inference transform

class TestInferenceTransform:
    """A model has one standardisation transform, stored in every sample
    record of its checkpoint; predict and evaluate take no sample name."""

    def test_evaluate_unknown_sample_exits_2(self, tmp_path, trained, capsys):
        """``evaluate --checkpoint`` takes no sample name, a trained one included."""
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--checkpoint", str(trained["checkpoint"]),
                  "--sample", "naca2220", "--dat", str(trained["dat"]),
                  "--truth", str(trained["msh"]), "--out", str(tmp_path / "kl.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --sample naca2220" in capsys.readouterr().err
        assert not (tmp_path / "kl.csv").exists()

    def test_sample_without_checkpoint_exits_2(self, tmp_path, trained, capsys):
        """The ``--pred`` route rejects ``--sample`` as the checkpoint route does."""
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--pred", str(tmp_path / "p.csv"), "--sample", "naca2220",
                  "--truth", str(trained["msh"]), "--out", str(tmp_path / "kl.csv")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --sample naca2220" in capsys.readouterr().err
        assert not (tmp_path / "kl.csv").exists()

    def test_checkpoint_listing_no_sample_exits_3(self, tmp_path, trained, capsys):
        head, rest = trained["checkpoint"].read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["meta"]["samples"] = []
        bad = tmp_path / "bad.l2m"
        bad.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + rest)
        code, _, stderr = run_cli(["predict", "--checkpoint", bad, "--dat", trained["dat"],
                                   "--out-dir", tmp_path / "p"], capsys)
        assert code == 3
        assert stderr.splitlines() == [f"error: {bad}: checkpoint lists no sample"]

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_per_sample_transforms_exit_3_and_write_nothing(self, tmp_path, trained, command,
                                                            capsys):
        """A stand checkpoint whose records hold different transforms (one
        fitted per sample) is refused by predict and evaluate alike."""
        head, rest = trained["checkpoint"].read_bytes().split(b"\n", 1)
        header = json.loads(head)
        header["meta"]["samples"][1]["transform"]["mean_x"] += 0.25
        bad = tmp_path / "bad.l2m"
        bad.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + rest)
        out = tmp_path / "out"
        argv = {"predict": ["predict", "--out-dir", out],
                "evaluate": ["evaluate", "--truth", trained["msh"], "--out", out / "kl.csv"]}
        code, stdout, stderr = run_cli(argv[command] + ["--checkpoint", bad,
                                                        "--dat", trained["dat"]], capsys)
        assert code == 3
        assert stdout == ""
        assert stderr.splitlines() == [
            f"error: {bad}: its samples hold different standardise transforms, one fitted "
            "per sample; retrain it to fit one on all samples"]
        assert not out.exists()

    def test_evaluate_sample_scores_as_predict_sample_does(self, tmp_path, trained, capsys):
        """``evaluate --checkpoint`` writes the bytes that scoring the CSV of
        ``predict`` writes."""
        common = ["--dat", trained["dat"], "--truth", trained["msh"]]
        assert run_cli(["predict", "--checkpoint", trained["checkpoint"],
                        "--dat", trained["dat"], "--out-dir", tmp_path / "p"], capsys)[0] == 0
        assert run_cli(["evaluate", "--checkpoint", trained["checkpoint"],
                        *common, "--out", tmp_path / "ckpt.csv"], capsys)[0] == 0
        assert run_cli(["evaluate", "--pred", tmp_path / "p" / "points.csv", "--ratio", "1",
                        *common, "--out", tmp_path / "pred.csv"], capsys)[0] == 0
        assert (tmp_path / "ckpt.csv").read_bytes() == (tmp_path / "pred.csv").read_bytes()

    @pytest.mark.parametrize("train_flags", [["--mode", "raw"],
                                             ["--mode", "stand", "--holdout", "naca4412"]])
    def test_raw_or_single_sample_checkpoint_needs_no_name(self, tmp_path, manifest_path,
                                                           train_flags, capsys):
        run = tmp_path / "run"
        assert run_cli(["train", manifest_path, "--out-dir", run, *train_flags, *FAST],
                       capsys)[0] == 0
        dat = manifest_path.parent / "naca2220.dat"
        for command in ("predict", "evaluate"):
            code, _, _ = run_cli(
                [command, "--checkpoint", run / "checkpoint.l2m", "--dat", dat,
                 "--truth", manifest_path.parent / "naca2220.msh", "--out-dir", run], capsys)
            assert code == 0

    def test_sweep_predicts_with_its_samples_transform(self, tmp_path, manifest_path, capsys):
        code, _, stderr = run_cli(
            ["sweep", manifest_path, "--ratios", "1", "--nodes", "30", "--mode", "stand",
             "--out-dir", tmp_path, *SWEEP_FAST], capsys)
        assert code == 0
        assert "failed" not in stderr
        assert all(row.split(",")[3] for row in (tmp_path / "kl.csv").read_text().splitlines())


# -------------------------------------------------------------------- sweep

SWEEP_FAST = ["--epochs", "20", "--h1", "16", "--h2", "24",
              "--upsample-count", "150", "--seed", "0"]


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory, manifest_path):
    out = tmp_path_factory.mktemp("sweep")
    code = main(["sweep", str(manifest_path), "--ratios", "0,1",
                 "--nodes", "30,40", "--out-dir", str(out), *SWEEP_FAST])
    assert code == 0
    return out


class TestSweep:
    def test_ratio_flag_is_a_usage_error(self, tmp_path, capsys):
        """Each cell's repulsion weight comes from ``--ratios``; ``--ratio`` is train's."""
        out = tmp_path / "sweep"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", str(tmp_path / "absent.json"), "--ratios", "0,1", "--nodes", "30",
                  "--out-dir", str(out), "--ratio", "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --ratio 7" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_produces_checkpoints_panels_and_rows(self, sweep_run, capsys):
        capsys.readouterr()
        ckpts = sorted((sweep_run / "checkpoints").glob("ckpt_*.l2m"))
        assert len(ckpts) == 4
        panels = sorted(p.name for p in (sweep_run / "panels").glob("*.svg"))
        assert panels == ["cell_r0_n30.svg", "cell_r0_n40.svg",
                          "cell_r1_n30.svg", "cell_r1_n40.svg"]
        lines = (sweep_run / "kl.csv").read_text().splitlines()
        assert lines[0] == "ratio,region,nodes,kl"
        assert len(lines) == 9
        key = [tuple(l.split(",")[:3]) for l in lines[1:]]
        assert key == [("0", "c", "30"), ("0", "c", "40"), ("0", "w", "30"),
                       ("0", "w", "40"), ("1", "c", "30"), ("1", "c", "40"),
                       ("1", "w", "30"), ("1", "w", "40")]

    def test_rerun_reuses_checkpoints_and_reproduces_csv(self, sweep_run, manifest_path, capsys):
        before = {p.name: p.stat().st_mtime_ns
                  for p in (sweep_run / "checkpoints").glob("*.l2m")}
        csv_before = (sweep_run / "kl.csv").read_bytes()
        code, stdout, stderr = run_cli(
            ["sweep", manifest_path, "--ratios", "0,1", "--nodes", "30,40",
             "--out-dir", sweep_run, *SWEEP_FAST], capsys)
        assert code == 0
        after = {p.name: p.stat().st_mtime_ns
                 for p in (sweep_run / "checkpoints").glob("*.l2m")}
        assert after == before  # hash hit: nothing retrained
        assert (sweep_run / "kl.csv").read_bytes() == csv_before
        assert stdout.count("\n") >= 9  # the CSV is echoed to stdout

    def test_each_row_equals_evaluate_on_its_checkpoint(self, sweep_run, manifest_path,
                                                        tmp_path, capsys):
        """A cell is scored as ``evaluate --checkpoint`` scores it: against the
        first section's whole chord-normalised mesh, not a training subsample."""
        _, dat, msh = load_manifest(manifest_path)[0]
        rows = []
        for i, ckpt in enumerate(sorted((sweep_run / "checkpoints").glob("*.l2m"))):
            out = tmp_path / f"kl{i}.csv"
            assert run_cli(["evaluate", "--checkpoint", ckpt, "--dat", dat, "--truth", msh,
                            "--out", out], capsys)[0] == 0
            rows += out.read_text().splitlines()[1:]
        assert len(rows) == 8
        assert sorted(rows) == sorted((sweep_run / "kl.csv").read_text().splitlines()[1:])

    def test_failed_cell_is_recorded_and_sweep_continues(self, tmp_path, manifest_path, capsys):
        out = tmp_path / "sweep"
        code, stdout, stderr = run_cli(
            ["sweep", manifest_path, "--ratios", "0", "--nodes", "0,40",
             "--out-dir", out, *SWEEP_FAST], capsys)
        assert code == 0
        assert "1 cell(s) failed" in stderr
        lines = (out / "kl.csv").read_text().splitlines()
        assert len(lines) == 5
        empties = [l for l in lines[1:] if l.endswith(",")]
        assert len(empties) == 2  # both regions of the nodes=0 cell
        assert all(l.split(",")[2] == "0" for l in empties)
        assert len(list((out / "checkpoints").glob("*.l2m"))) == 1

    def test_one_node_cell_fails_as_a_config_error(self, tmp_path, manifest_path, capsys):
        out = tmp_path / "sweep"
        code, _, stderr = run_cli(
            ["sweep", manifest_path, "--ratios", "0", "--nodes", "1",
             "--out-dir", out, *SWEEP_FAST], capsys)
        assert code == 0
        assert "1 cell(s) failed" in stderr
        assert "ratio=0 nodes=1: n_points must be an integer >= 2, got 1" in stderr
        assert (out / "kl.csv").read_text().splitlines()[1:] == ["0,c,1,", "0,w,1,"]
        assert not list((out / "checkpoints").glob("*.l2m"))

    @pytest.mark.parametrize("nodes", [10**20, 2**63])
    def test_node_count_numpy_cannot_size_fails_its_cell_alone(self, tmp_path, manifest_path,
                                                              nodes, capsys):
        out = tmp_path / "sweep"
        code, _, stderr = run_cli(
            ["sweep", manifest_path, "--ratios", "0", "--nodes", nodes,
             "--out-dir", out, *SWEEP_FAST], capsys)
        assert code == 0
        buffer = math.prod(workspace_shapes(1, nodes, 150)[2])  # the first array it sizes
        assert stderr.splitlines() == [
            "1 cell(s) failed:",
            f"  ratio=0 nodes={nodes}: n_points too large: the loss workspace's rolling buffer "
            f"would hold {buffer} floats, more than NumPy can size"]
        assert (out / "kl.csv").read_text().splitlines()[1:] == [f"0,c,{nodes},", f"0,w,{nodes},"]
        assert not list((out / "checkpoints").glob("*.l2m"))

    def test_cell_checkpoints_are_named_by_the_full_cell_config(self, sweep_run, manifest_path):
        inputs = cli._input_hashes(manifest_path, load_manifest(manifest_path))
        want = set()
        for ratio in (0.0, 1.0):
            for nodes in (30, 40):
                cell = TrainConfig.from_dict({
                    "n_points": nodes, "epochs": 20, "h1": 16, "h2": 24,
                    "upsample_count": 150, "seed": 0,
                    "weights": {"repulsion": ratio, "interior": 10.0}})
                want.add(f"ckpt_{cli._cell_hash(cell, inputs)}.l2m")
        assert {p.name for p in (sweep_run / "checkpoints").glob("*.l2m")} == want

    def test_cell_hash_of_desk_cells_is_pinned(self):
        inputs = [{"path": "m", "sha256": "0" * 64}, {"path": "d", "sha256": "1" * 64}]
        for ratio, nodes, want in ((0.0, 100, "7df4e758b1a373ae"),
                                   (2.5, 400, "9cba15dda7166b97")):
            cell = TrainConfig.from_dict({
                "mode": "stand-clamp", "n_points": nodes, "loop_size": 35,
                "upsample_count": 1500,
                "weights": {"chamfer": 1.0, "repulsion": ratio, "interior": 10.0}})
            assert cli._cell_hash(cell, inputs) == want

    def test_bad_ratio_list_exits_2(self, tmp_path, manifest_path, capsys):
        code, _, stderr = run_cli(
            ["sweep", manifest_path, "--ratios", "0,abc", "--nodes", "30",
             "--out-dir", tmp_path / "s", *SWEEP_FAST], capsys)
        assert code == 2
        assert "comma" in stderr

    @pytest.mark.parametrize("nodes", ["nan", "inf", "1e400", "30,40.5"])
    def test_node_count_that_is_not_an_integer_exits_2(self, tmp_path, manifest_path, nodes, capsys):
        code, _, stderr = run_cli(
            ["sweep", manifest_path, "--ratios", "0", "--nodes", nodes,
             "--out-dir", tmp_path / "s", *SWEEP_FAST], capsys)
        assert code == 2
        assert f"error: expected integers, got {nodes!r}" in stderr

    @pytest.mark.parametrize("ratios", ["nan", "inf", "-inf", "1e999", "nan,nan"])
    def test_ratio_that_is_not_finite_exits_2(self, tmp_path, ratios, capsys):
        """Rejected as the list is parsed: the (absent) manifest is never read."""
        out = tmp_path / "s"
        code, stdout, stderr = run_cli(
            ["sweep", tmp_path / "missing.json", f"--ratios={ratios}", "--nodes", "30",
             "--out-dir", out, *SWEEP_FAST], capsys)
        assert (code, stdout) == (2, "")
        assert stderr.splitlines() == [f"error: expected finite numbers, got {ratios!r}"]
        assert not out.exists()

    def test_distinct_ratios_that_print_alike_exit_2(self, tmp_path, capsys):
        """Every output labels a ratio with %g: two that share a label would
        share a panel file and give rows that cannot be told apart."""
        out = tmp_path / "s"
        code, stdout, stderr = run_cli(
            ["sweep", tmp_path / "missing.json", "--ratios", "0.1,0.1000001", "--nodes", "30",
             "--out-dir", out, *SWEEP_FAST], capsys)
        assert (code, stdout) == (2, "")
        assert stderr.splitlines() == ["error: ratios 0.1 and 0.1000001 both print as 0.1, "
                                       "so their panels and kl rows would clash"]
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--grid", "--epsilon"])
    def test_grid_and_epsilon_are_not_options(self, tmp_path, flag, capsys):
        assert_scoring_flags_are_gone(
            ["sweep", tmp_path / "missing.json", "--ratios", "0", "--nodes", "30",
             "--out-dir", tmp_path / "s", *SWEEP_FAST], flag, tmp_path / "s", capsys)

    def test_failed_cell_is_reported_once(self, tmp_path, manifest_path, caplog, capsys):
        """The summary is the one report of a failed cell: no log record repeats it."""
        caplog.set_level(logging.INFO)
        code, _, stderr = run_cli(
            ["sweep", manifest_path, "--ratios", "0", "--nodes", "1",
             "--out-dir", tmp_path / "s", *SWEEP_FAST], capsys)
        assert code == 0
        assert stderr.splitlines() == ["1 cell(s) failed:",
                                       "  ratio=0 nodes=1: n_points must be an integer >= 2, got 1"]
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == []

    def test_a_cell_whose_config_fails_is_not_announced_as_training(self, tmp_path,
                                                                     manifest_path, caplog, capsys):
        """A cell is announced as training only once its config validates."""
        caplog.set_level(logging.INFO, logger="loop2mesh.cli")
        code, _, stderr = run_cli(
            ["sweep", manifest_path, "--ratios", "0", "--nodes", "1,30",
             "--out-dir", tmp_path / "s", *SWEEP_FAST], capsys)
        assert code == 0
        assert "ratio=0 nodes=1: n_points must be an integer >= 2, got 1" in stderr
        assert [r.getMessage() for r in caplog.records
                if r.name == "loop2mesh.cli"] == ["cell ratio=0 nodes=30: training"]

    def test_each_distinct_cell_runs_once(self, tmp_path, manifest_path, caplog, capsys,
                                          monkeypatch):
        """0 and -0 are one ratio and a repeated count one count: one cell, trained,
        loaded, scored and drawn once, gives one pair of rows."""
        caplog.set_level(logging.INFO, logger="loop2mesh.cli")
        loads = []
        monkeypatch.setattr(cli, "load_trained", lambda p: loads.append(p) or load_trained(p))
        out = tmp_path / "s"
        code, _, stderr = run_cli(
            ["sweep", manifest_path, "--ratios", "0,-0", "--nodes", "30,30",
             "--out-dir", out, *SWEEP_FAST], capsys)
        assert (code, stderr) == (0, "")
        assert len(list((out / "checkpoints").glob("*.l2m"))) == 1
        assert [p.name for p in (out / "panels").glob("*.svg")] == ["cell_r0_n30.svg"]
        assert [r.split(",")[:3] for r in (out / "kl.csv").read_text().splitlines()[1:]] == [
            ["0", "c", "30"], ["0", "w", "30"]]
        assert [r.getMessage() for r in caplog.records
                if r.name == "loop2mesh.cli"] == ["cell ratio=0 nodes=30: training"]
        assert len(loads) == 1

    @pytest.mark.parametrize("bad, reason", [
        ("far", "center window, prediction: kernel mass inside the window is numerically zero"),
        ("float-limit", "has no finite pixel scale"),
    ])
    def test_a_cell_that_cannot_be_scored_or_drawn_fails_alone(self, tmp_path, manifest_path,
                                                               monkeypatch, bad, reason, capsys):
        """A far prediction fails in scoring, one reaching +-1e308 in its panel's
        viewport; either way only that cell's rows are empty."""
        real_predict = cli.predict

        def predict(params, transform, loop, config):
            pred = real_predict(params, transform, loop, config)
            if config.n_points != 40:
                return pred
            if bad == "far":
                return pred + 1e6
            pred[:2] = [[-1e308, -1e308], [1e308, 1e308]]
            return pred

        monkeypatch.setattr(cli, "predict", predict)
        out = tmp_path / "s"
        code, _, stderr = run_cli(
            ["sweep", manifest_path, "--ratios", "0", "--nodes", "30,40",
             "--out-dir", out, *SWEEP_FAST], capsys)
        assert code == 0
        failed, cell = stderr.splitlines()
        assert failed == "1 cell(s) failed:"
        assert cell.startswith("  ratio=0 nodes=40: ") and cell.endswith(reason)
        rows = (out / "kl.csv").read_text().splitlines()[1:]
        assert [r for r in rows if r.endswith(",")] == ["0,c,40,", "0,w,40,"]
        assert all(float(r.split(",")[3]) >= 0.0 for r in rows if r.split(",")[2] == "30")
        assert [p.name for p in (out / "panels").glob("*.svg")] == ["cell_r0_n30.svg"]
        assert (out / "run_manifest.json").exists()


# ------------------------------------------------------- undecodable input

def with_bad_byte(src, dst):
    """Copy a text file with one 0xff byte, which is never valid UTF-8."""
    dst.write_bytes(src.read_bytes().replace(b"\n", b"\n\xff", 1))
    return dst


class TestUndecodableInput:
    def test_dat_in_a_manifest_exits_3_naming_the_file(self, tmp_path, trained, capsys):
        dat = with_bad_byte(trained["dat"], tmp_path / "bad.dat")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([{"name": "bad", "dat": dat.name,
                                         "msh": str(trained["msh"])}]))
        code, _, stderr = run_cli(
            ["train", manifest, "--out-dir", tmp_path / "r", *FAST], capsys)
        assert code == 3
        assert f"error: {dat}: 'utf-8' codec can't decode" in stderr

    def test_dat_for_predict_exits_3_naming_the_file(self, tmp_path, trained, capsys):
        dat = with_bad_byte(trained["dat"], tmp_path / "bad.dat")
        code, _, stderr = run_cli(
            ["predict", "--checkpoint", trained["checkpoint"],
             "--dat", dat, "--out-dir", tmp_path / "p"], capsys)
        assert code == 3
        assert f"error: {dat}: " in stderr

    def test_truth_msh_exits_3_naming_the_file(self, tmp_path, trained, capsys):
        msh = with_bad_byte(trained["msh"], tmp_path / "bad.msh")
        code, _, stderr = run_cli(
            ["evaluate", "--checkpoint", trained["checkpoint"],
             "--dat", trained["dat"], "--truth", msh, "--out", tmp_path / "kl.csv"], capsys)
        assert code == 3
        assert f"error: {msh}: " in stderr

    def test_manifest_exits_3_naming_the_file(self, tmp_path, manifest_path, capsys):
        manifest = with_bad_byte(manifest_path, tmp_path / "manifest.json")
        code, _, stderr = run_cli(
            ["train", manifest, "--out-dir", tmp_path / "r", *FAST], capsys)
        assert code == 3
        assert f"error: {manifest}: invalid JSON: " in stderr

    def test_points_csv_exits_3_naming_the_file(self, tmp_path, trained, capsys):
        good = tmp_path / "pred.csv"
        good.write_text("x,y\n0.1,0.2\n0.3,0.4\n")
        pred = with_bad_byte(good, tmp_path / "bad.csv")
        code, _, stderr = run_cli(
            ["evaluate", "--pred", pred, "--truth", trained["msh"],
             "--out", tmp_path / "kl.csv"], capsys)
        assert code == 3
        assert f"error: {pred}: " in stderr

    def test_config_file_exits_2_like_invalid_json(self, tmp_path, manifest_path, capsys):
        good = tmp_path / "good.json"
        good.write_text('{\n"epochs": 5}\n')
        cfg = with_bad_byte(good, tmp_path / "cfg.json")
        code, _, stderr = run_cli(
            ["train", manifest_path, "--out-dir", tmp_path / "r", "--config", cfg], capsys)
        assert code == 2
        assert f"error: {cfg}: invalid JSON: " in stderr


ZERO_CHORD_DAT = "0 0\n0 1\n0 2\n"
BOW_TIE_DAT = "0 0\n1 1\n1 0\n0 1\n"


class TestUnusableLoop:
    """A .dat file that parses but cannot form a loop names its file or sample."""

    @pytest.mark.parametrize("text, message", [
        (ZERO_CHORD_DAT, "zero chord length; cannot normalise"),
        (BOW_TIE_DAT, "loop is self-intersecting"),
    ], ids=["zero-chord", "bow-tie"])
    def test_dat_for_predict_names_the_file(self, tmp_path, trained, text, message, capsys):
        dat = tmp_path / "wing.dat"
        dat.write_text(text)
        code, _, stderr = run_cli(
            ["predict", "--checkpoint", trained["checkpoint"],
             "--dat", dat, "--out-dir", tmp_path / "p"], capsys)
        assert code == 3
        assert stderr.splitlines() == [f"error: {dat}: {message}"]
        assert not (tmp_path / "p").exists()

    def test_zero_chord_for_evaluate_pred_names_the_file(self, tmp_path, trained, capsys):
        dat = tmp_path / "zero.dat"
        dat.write_text(ZERO_CHORD_DAT)
        pred = tmp_path / "pred.csv"
        pred.write_text("x,y\n0.1,0.2\n0.3,0.4\n")
        code, _, stderr = run_cli(
            ["evaluate", "--pred", pred, "--truth", trained["msh"], "--dat", dat,
             "--out", tmp_path / "kl.csv"], capsys)
        assert code == 3
        assert stderr.splitlines() == [f"error: {dat}: zero chord length; cannot normalise"]

    def test_bow_tie_in_a_manifest_names_the_sample(self, tmp_path, trained, capsys):
        (tmp_path / "bowtie.dat").write_text(BOW_TIE_DAT)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps([
            {"name": "naca2220", "dat": str(trained["dat"]), "msh": str(trained["msh"])},
            {"name": "tied", "dat": "bowtie.dat", "msh": str(trained["msh"])}]))
        code, _, stderr = run_cli(
            ["train", manifest, "--out-dir", tmp_path / "r", *FAST], capsys)
        assert code == 3
        assert stderr.splitlines() == ["error: tied: loop is self-intersecting"]


TINY_CHORD_DAT = "0 0\n1e-300 0\n1e-300 1e-300\n0 1e-300\n"  # a square, chord 1e-300
FAR_NODES = [[1e10, 1e10], [1e10 + 1, 1e10], [1e10, 1e10 + 1]]


class TestTruthInChordUnits:
    """The truth mesh is read and chord-normalised in one step, so a mesh that
    overflows once normalised names its file on every route."""

    @pytest.mark.parametrize("route", ["predict", "evaluate --checkpoint", "evaluate --pred"])
    def test_overflowing_truth_names_the_file(self, tmp_path, trained, route, capsys):
        dat, truth, out = tmp_path / "tiny.dat", tmp_path / "far.msh", tmp_path / "out"
        dat.write_text(TINY_CHORD_DAT)
        truth.write_text(msh_text(FAR_NODES))
        pred = tmp_path / "p.csv"
        pred.write_text("x,y\n0.1,0.2\n0.3,0.4\n")
        source = (["--pred", pred] if route == "evaluate --pred"
                  else ["--checkpoint", trained["checkpoint"]])
        target = ["--out-dir", out] if route == "predict" else ["--out", out / "kl.csv"]
        code, stdout, stderr = run_cli(
            [route.split()[0], *source, "--dat", dat, "--truth", truth, *target], capsys)
        assert code == 3
        assert stdout == ""
        assert stderr.splitlines() == [
            f"error: {truth}: chord-normalised cloud contains non-finite coordinates"]
        assert not out.exists()

    @pytest.mark.parametrize("nodes", OVERFLOWING_TRUTHS, ids=["extent", "padding"])
    def test_predict_truth_spanning_the_float_range_writes_nothing(self, tmp_path, trained,
                                                                   nodes, capsys):
        """The overlay's padded box overflows: one error line naming the file,
        no RuntimeWarning, and nothing written."""
        truth, out = tmp_path / "t.msh", tmp_path / "out"
        truth.write_text(msh_text(nodes))
        code, stdout, stderr = run_cli(
            ["predict", "--checkpoint", trained["checkpoint"], "--dat", trained["dat"],
             "--truth", truth, "--out-dir", out], capsys)
        assert code == 3
        assert stdout == ""
        assert stderr.splitlines() == [
            f"error: {truth}: padded bounding box overflows the float range"]
        assert not out.exists()

    def test_predict_truth_near_the_float_limit_names_the_file(self, tmp_path, trained, capsys):
        """The truth's own padded box is finite, but joined with the loop at
        x in [0, 1] it overflows: one line naming the file and suggesting
        ``--viewport``, and nothing written."""
        truth, out = tmp_path / "t.msh", tmp_path / "out"
        truth.write_text(msh_text([[1.75e308, -10.0], [1.76e308, 10.0], [1.77e308, 0.0],
                                   [1.78e308, 5.0], [1.79e308, -5.0]]))
        code, stdout, stderr = run_cli(
            ["predict", "--checkpoint", trained["checkpoint"], "--dat", trained["dat"],
             "--truth", truth, "--out-dir", out], capsys)
        assert code == 3
        assert stdout == ""
        assert stderr.splitlines() == [
            f"error: {truth}: viewport (-8.942693819149754e+306, inf, -10.991020336385173, "
            "10.991020336385173) has no finite pixel scale; pass --viewport to draw it"]
        assert not out.exists()

    def test_predict_takes_a_truth_of_zero_extent(self, tmp_path, trained, capsys):
        truth, out = tmp_path / "t.msh", tmp_path / "out"
        truth.write_text(msh_text([[0.5, 0.3]]))
        code, _, stderr = run_cli(
            ["predict", "--checkpoint", trained["checkpoint"], "--dat", trained["dat"],
             "--truth", truth, "--out-dir", out], capsys)
        assert code == 0, stderr
        assert 'fill="green">\n<circle ' in (out / "scatter.svg").read_text()


# ------------------------------------------------------- input tables

FIELDS = st.one_of(
    st.floats().map(repr), st.integers(-3, 2 ** 70).map(str),
    st.sampled_from(["x", "y", "nan", "1e999", '"1', '"', "1_0", "\u0661", "0x1p3", " ", ""]),
    st.text(max_size=5))
ROWS = st.tuples(st.sampled_from([",", " ", "\t"]), st.lists(FIELDS, max_size=5)).map(
    lambda t: t[0].join(t[1]))


@st.composite
def table_texts(draw):
    """Comma- or whitespace-separated rows, sometimes inside a ``$Nodes``
    block, joined by one line ending."""
    lines = draw(st.lists(ROWS, max_size=8))
    if draw(st.booleans()):
        count = draw(st.one_of(st.integers(-1, 9).map(str), FIELDS))
        lines = ["$Nodes", count, *lines, *draw(st.sampled_from([["$EndNodes"], []]))]
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


class TestPointsCsv:
    @pytest.mark.parametrize("parse", [parse_airfoil_dat, parse_msh_nodes, parse_points_csv],
                             ids=lambda f: f.__name__)
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.one_of(table_texts(), st.text(max_size=120)))
    def test_fuzzed_text_raises_only_package_errors(self, parse, text):
        """Any text ends in an (N, 2) array of finite points or an InputError."""
        try:
            xy = parse(text)
        except InputError:
            return
        assert xy.dtype == np.float64 and xy.ndim == 2 and xy.shape[1] == 2
        assert np.isfinite(xy).all()

    def test_field_past_the_float_range_is_a_non_finite_row(self):
        with pytest.raises(InputError, match="^row 3: non-finite coordinate '1{5}"):
            parse_points_csv("x,y\n0.1,0.2\n" + "1" * 200_000 + ",0.5\n")

    @pytest.mark.parametrize("parse, text, where", [
        (parse_points_csv, "x,y\n0.1,0.2\n" + "1" * 200_000 + ",0.5\n", "row 3: "),
        (parse_points_csv, "x,y\n0.1,0.2\n" + "1" * 200_000 + ",0.5,7\n", "row 3: "),
        (parse_msh_nodes, "$Nodes\n" + "9" * 200_000 + "x\n", "line 2: "),
    ], ids=["non-finite row", "field count", "node count"])
    def test_a_long_line_is_quoted_as_a_bounded_excerpt(self, parse, text, where):
        with pytest.raises(InputError) as exc:
            parse(text)
        message = str(exc.value)
        assert message.startswith(where) and len(message) < 300
        assert message.endswith(" more characters)")

    @pytest.mark.parametrize("text", ["", "x,y\n", "x,y\n\n  \n"])
    def test_no_data_rows_is_a_parse_error(self, text):
        with pytest.raises(InputError, match="^no data rows$"):
            parse_points_csv(text)


# -------------------------------------------------------------- exit codes

EXIT_CODES = {Loop2MeshError: 1, ConfigError: 2, InputError: 3, TrainingDivergedError: 4}


def test_exit_code_table_covers_every_error_class():
    assert set(EXIT_CODES) == {Loop2MeshError, *Loop2MeshError.__subclasses__()}


def test_each_exit_code_belongs_to_exactly_one_class():
    codes = [cls.exit_code for cls in EXIT_CODES]
    assert sorted(codes) == [1, 2, 3, 4]


@pytest.mark.parametrize("cls", list(EXIT_CODES), ids=lambda c: c.__name__)
def test_each_error_class_exits_with_its_own_code(cls, monkeypatch, capsys):
    exc = cls(7, "boom at epoch 7") if cls is TrainingDivergedError else cls("boom at epoch 7")

    def failing_command(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_evaluate", failing_command)
    code, _, stderr = run_cli(["evaluate", "--truth", "t.msh"], capsys)
    assert code == cls.exit_code == EXIT_CODES[cls]
    assert "error: boom at epoch 7" in stderr.splitlines()


# --------------------------------------------------------------------- misc

class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert re.fullmatch(r"loop2mesh \d+\.\d+\.\d+\n", capsys.readouterr().out)

    def test_no_arguments_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_module_entry_point(self, manifest_path, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "loop2mesh", "train", str(manifest_path),
             "--out-dir", str(tmp_path / "run"), *[str(a) for a in FAST]],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        assert "trained 2 sample(s)" in proc.stdout
        assert (tmp_path / "run" / "checkpoint.l2m").is_file()
