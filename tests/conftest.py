import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make `oracles` importable

from loop2mesh.geometry import check_loop, resample_loop
from loop2mesh.ingest import build_dataset, load_manifest
from loop2mesh.synth import naca4_contour, write_sample_dataset


@pytest.fixture(scope="session")
def data_dir(tmp_path_factory) -> Path:
    """Synthetic two-airfoil dataset on disk (.dat + .msh + manifest.json)."""
    out = tmp_path_factory.mktemp("data")
    write_sample_dataset(out, codes=("2220", "4412"), contour_points=121,
                         mesh_nodes=1500, seed=0)
    return out


@pytest.fixture(scope="session")
def manifest_path(data_dir) -> Path:
    return data_dir / "manifest.json"


@pytest.fixture(scope="session")
def dataset(manifest_path):
    return build_dataset(load_manifest(manifest_path), loop_size=35,
                         target_count=800, seed=0)


@pytest.fixture(scope="session")
def contour_2220() -> np.ndarray:
    return naca4_contour("2220", 121)


@pytest.fixture(scope="session")
def airfoil_loop(contour_2220) -> np.ndarray:
    return resample_loop(contour_2220[:-1], 35)


@pytest.fixture()
def unit_square() -> np.ndarray:
    return check_loop(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
