"""Byte pins for the text outputs whose formatting is hand-written, and for
the synthetic meshes the benchmark generates its inputs from.

The SHA-256 values of the SVG and CSV were computed with the NumPy-scalar
formatting these outputs used before they were formatted from ``tolist()``
Python floats; any change to a digit, a separator or a line break changes
them. The mesh pins were computed with the edge queries written as an
(N, L, 2) broadcast and a loop over edges; a single bit moved in a distance
or a containment verdict changes which candidates are kept.
"""

import hashlib

import numpy as np
import pytest

from loop2mesh.cli import _points_csv_text
from loop2mesh.geometry import PointSet
from loop2mesh.svg import render_svg
from loop2mesh.synth import msh_text, naca4_contour, synth_fluid_mesh


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
