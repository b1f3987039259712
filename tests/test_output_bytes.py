"""Byte pins for the text outputs whose formatting is hand-written, and for
the synthetic meshes the benchmark generates its inputs from.

The SHA-256 values of the SVG and CSV were computed with the NumPy-scalar
formatting these outputs used before they were formatted from ``tolist()``
Python floats; any change to a digit, a separator or a line break changes
them. The mesh pins were computed with the edge queries written as an
(N, L, 2) broadcast and a loop over edges; a single bit moved in a distance
or a containment verdict changes which candidates are kept. The training
pins were computed with the loss terms evaluated one sample at a time; a
last-bit change in any loss value or gradient changes the trainlog or the
checkpoint.
"""

import hashlib

import numpy as np
import pytest

from loop2mesh.cli import _points_csv_text
from loop2mesh.geometry import PointSet
from loop2mesh.ingest import build_dataset, load_manifest
from loop2mesh.svg import render_svg
from loop2mesh.synth import msh_text, naca4_contour, synth_fluid_mesh, write_sample_dataset
from loop2mesh.train import TrainConfig, save_trained, train


def _scene():
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 6.0, 35)
    loop = np.column_stack([np.cos(t), 0.2 * np.sin(t)])
    truth = rng.normal(scale=0.6, size=(500, 2))
    pred = rng.uniform(-1.5, 1.5, size=(400, 2))
    pred[:3] = [[-0.0, 0.0], [1e-12, -1e-300], [0.005, -0.005]]  # signed zeros, rounding ties
    return loop, truth, pred


def test_render_svg_bytes_are_pinned(tmp_path):
    loop, truth, pred = _scene()
    path = tmp_path / "scene.svg"
    render_svg(path, viewport=(-2.0, 2.0, -1.5, 1.5),
               polylines=[(loop, "red", 1.5, True), (loop[:5], "black", 1, False)],
               point_layers=[(truth, "green", 1.5), (pred, "blue", 2.0),
                             (np.empty((0, 2)), "gray", 1)])
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "da116005cd606a8671a9b7ee0afca204331f08bc878c5b7e7b5c006fb2b0bc0e"


def test_points_csv_text_is_pinned():
    _, _, pred = _scene()
    digest = hashlib.sha256(_points_csv_text(PointSet(pred)).encode()).hexdigest()
    assert digest == "e09b41a34b040df9a7bb1d23168368ef1a6b4b979d043a7b120bfadf6a4fd91f"


def test_points_csv_round_trips_every_bit():
    _, _, pred = _scene()
    rows = _points_csv_text(PointSet(pred)).splitlines()[1:]
    back = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert back.tobytes() == pred.tobytes()


@pytest.mark.parametrize("code, nodes, seed, want", [
    # desk-train and score's training mesh; fleet-train's twelfth training mesh
    ("2220", 3000, 0, "c73083c8ca6ac6396cad2630d120f80f3b0f70fcd94e88c81dd02dfbfd6ca477"),
    ("6414", 2000, 11, "8d1a1cb9daa5aadd27a44a5974f0b793bdeddd6fe29691180cdd7ce66ff517b8"),
])
def test_benchmark_synth_meshes_are_pinned(code, nodes, seed, want):
    text = msh_text(synth_fluid_mesh(naca4_contour(code), nodes, seed=seed))
    assert hashlib.sha256(text.encode()).hexdigest() == want


@pytest.fixture(scope="module")
def fleet_manifest(tmp_path_factory):
    """Five synthetic sections, as fleet-train trains on twelve."""
    return write_sample_dataset(tmp_path_factory.mktemp("fleet"),
                                codes=("0009", "0017", "2414", "4420", "6414"),
                                mesh_nodes=2000, seed=0)


def _train_digests(manifest, config: dict, target_count: int, tmp_path) -> tuple[str, str]:
    cfg = TrainConfig.from_dict(config)
    ds = build_dataset(load_manifest(manifest), loop_size=cfg.loop_size,
                       target_count=target_count, seed=0)
    result = train(ds, cfg)
    ckpt = tmp_path / "checkpoint.l2m"
    save_trained(ckpt, result, cfg, [s.name for s in ds.samples])
    return (hashlib.sha256(ckpt.read_bytes()).hexdigest(),
            hashlib.sha256(result.log.to_csv_text().encode()).hexdigest())


def test_multi_sample_raw_training_is_pinned(fleet_manifest, tmp_path):
    # fleet-train's config: raw mode, N=100, M=600, repulsion 1, interior 10
    config = {"mode": "raw", "n_points": 100, "upsample_count": 600, "epochs": 40,
              "weights": {"chamfer": 1.0, "repulsion": 1.0, "interior": 10.0}}
    assert _train_digests(fleet_manifest, config, 600, tmp_path) == (
        "5dc74082fa4e7a1acf3aed866d84bef4df874f8202cac9790b901ee69c7e29d7",
        "ab33ddbbc9ad4c374a9799456096cd0f60f0d0221bd1c8ee8f4b24d120a82545")


def test_two_sample_stand_clamp_training_is_pinned(manifest_path, tmp_path):
    config = {"mode": "stand-clamp", "n_points": 200, "upsample_count": 800, "epochs": 40,
              "h1": 64, "h2": 128, "weights": {"chamfer": 1.0, "repulsion": 1.0, "interior": 10.0}}
    assert _train_digests(manifest_path, config, 800, tmp_path) == (
        "de2bbfe4d0427724efab1bf38320bf022b9ec98eeb33ca05a8c9edabbe67f9e7",
        "2063079c6aa3b8d5a4c6041fcf81996888f90370e64acdc3975c208f87e9a528")
