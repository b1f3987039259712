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
import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import points_csv_text_per_point, svg_text_per_point

from loop2mesh.cli import _points_csv_text
from loop2mesh.ingest import build_dataset, load_manifest
from loop2mesh.svg import render_svg
from loop2mesh.synth import msh_text, naca4_contour, synth_fluid_mesh, write_sample_dataset
from loop2mesh.train import TrainConfig, load_trained, save_trained, train


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
    digest = hashlib.sha256(_points_csv_text(pred).encode()).hexdigest()
    assert digest == "e09b41a34b040df9a7bb1d23168368ef1a6b4b979d043a7b120bfadf6a4fd91f"


def test_points_csv_round_trips_every_bit():
    _, _, pred = _scene()
    rows = _points_csv_text(pred).splitlines()[1:]
    back = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert back.tobytes() == pred.tobytes()


# Coordinates for the formatter properties. With the first viewport a pixel
# is 12 + (x - 12) and 700 - (12 + (y - 12)), so dyadic x in [6, 24] and y in
# [676, 688] keep their value and ``.xx5`` ties reach ``%.2f`` exactly, and x
# just below 0 (or y just above 700) gives ``-0.00``.
SPECIAL_COORDS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 12.125, 12.375, 687.875,
                  0.005, -0.001, -0.004999, 700.004, 2.675, 1.005, 0.125]
COORDS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(SPECIAL_COORDS),
                   st.integers(-8000, 8000).map(lambda k: k / 8))
CLOUDS = st.lists(st.tuples(COORDS, COORDS), max_size=12).map(
    lambda pts: np.array(pts, dtype=np.float64).reshape(-1, 2))
# literal parts of the markup, some holding ``%`` in the spellings ``%`` reads
LITERALS = st.one_of(st.sampled_from(["red", "%", "%%", "50%", "%s", "%.2f", "%(x)s", "%r%"]),
                     st.text(alphabet="%sdfr.(){} 0123456789ab", max_size=6))
FORMATTER_SETTINGS = settings(max_examples=200, deadline=None, database=None, derandomize=True)


class TestFormattersAgainstPerPointOracles:
    """One ``%`` operation per layer writes what one f-string per point wrote."""

    @FORMATTER_SETTINGS
    @given(st.sampled_from([(12.0, 888.0, 12.0, 688.0), (-2.0, 2.0, -1.5, 1.5)]),
           st.lists(st.tuples(CLOUDS, LITERALS, st.one_of(st.floats(0, 5), LITERALS),
                              st.booleans()), max_size=3),
           st.lists(st.tuples(CLOUDS, LITERALS, st.one_of(st.floats(0, 5), LITERALS)),
                    max_size=3))
    def test_render_svg(self, tmp_path_factory, viewport, polylines, point_layers):
        path = tmp_path_factory.mktemp("svg") / "scene.svg"
        with np.errstate(over="ignore"):  # 1e308 overflows to inf pixels in both
            render_svg(path, viewport=viewport, polylines=polylines, point_layers=point_layers)
            want = svg_text_per_point(viewport=viewport, polylines=polylines,
                                      point_layers=point_layers)
        assert path.read_bytes() == want.encode("utf-8")

    @FORMATTER_SETTINGS
    @given(CLOUDS.filter(len))
    def test_points_csv_text(self, xy):
        assert _points_csv_text(xy) == points_csv_text_per_point(xy)

    def test_special_values_reach_the_formatter(self, tmp_path):
        """The pixels of the first viewport hold the values the properties
        are about: a ``.xx5`` tie and ``-0.00``."""
        xy = np.array([[12.125, 687.875], [-0.001, 700.004]])
        path = tmp_path / "s.svg"
        render_svg(path, viewport=(12.0, 888.0, 12.0, 688.0), point_layers=[(xy, "%", "1%")])
        text = path.read_text()
        assert '<g fill="%">\n<circle cx="12.12" cy="12.12" r="1%"/>' in text
        assert '<circle cx="-0.00" cy="-0.00" r="1%"/>' in text
        assert text == svg_text_per_point(viewport=(12.0, 888.0, 12.0, 688.0),
                                          point_layers=[(xy, "%", "1%")])


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


STAND_CLAMP = {"mode": "stand-clamp", "n_points": 200, "upsample_count": 800, "epochs": 40,
               "h1": 64, "h2": 128,
               "weights": {"chamfer": 1.0, "repulsion": 1.0, "interior": 10.0}}


def test_one_sample_stand_clamp_training_is_pinned(tmp_path):
    """At one sample the pooled transform is that sample's own fit: these
    digests were computed when each sample had its own transform."""
    manifest = write_sample_dataset(tmp_path / "data", codes=("2220",), mesh_nodes=1500, seed=0)
    assert _train_digests(manifest, STAND_CLAMP, 800, tmp_path) == (
        "c68564c9ce975842070139382c376455928035e2a4da51d7540da3148667d052",
        "60de00954e8b3b9b26d682127c67e7e3abf7c98c4680daeef693843b75d88acc")


def test_two_sample_stand_clamp_training_is_pinned(manifest_path, dataset, tmp_path):
    assert _train_digests(manifest_path, STAND_CLAMP, 800, tmp_path) == (
        "fd83bca76d0b1ae514455dc6908daeff3f68718ea927b4540b76fd1658bc78c0",
        "562ec2b750d6b43f94a55e822ae07e04a08015ef64de4af4268afd4cb0366f01")
    # the one stored transform is the population mean and sigma of both targets
    _, _, t = load_trained(tmp_path / "checkpoint.l2m")
    for axis, (mean, scale) in enumerate(t.T.tolist()):
        values = [v for s in dataset.samples for v in s.target[:, axis].tolist()]
        assert math.isclose(mean, statistics.fmean(values), rel_tol=1e-12)
        assert math.isclose(scale, statistics.pstdev(values), rel_tol=1e-12)
