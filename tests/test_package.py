"""The package root carries only the version; the modules are the API."""

import importlib
import json
import pkgutil
import types
from pathlib import Path

import pytest

import loop2mesh

# each module's public names
PUBLIC_NAMES = {
    "errors": ("ConfigError", "InputError", "Loop2MeshError", "TrainingDivergedError"),
    "evaluation": ("KLRow", "evaluate", "kde", "kl_divergence", "kl_sweep", "scott_bandwidth",
                   "whole_window"),
    "geometry": ("AirfoilLoop", "StandardizeTransform", "as_point_array", "edge_query",
                 "fit_standardize", "intruders", "invert_standardize", "padded_bbox",
                 "points_in_polygon", "resample_loop", "standardize_loop"),
    "ingest": ("ChordTransform", "Dataset", "MeshSample", "assemble_sample", "build_dataset",
               "contour_loop", "fit_chord", "load_manifest", "parse_airfoil_dat", "parse_msh_nodes",
               "read_parsed", "upsample_target"),
    "losses": ("LossWeights", "chamfer", "composite", "interior_penalty",
               "mean_pairwise_distance", "repulsion"),
    "net": ("ForwardTrace", "NetworkParams", "backward", "forward", "gradient", "init_params",
            "load_checkpoint", "save_checkpoint"),
    "train": ("TrainConfig", "TrainLog", "TrainMode", "TrainResult", "load_trained",
              "predict", "save_trained", "train"),
}

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(loop2mesh.__path__)
                    if not m.name.startswith("__"))


def test_submodule_list_is_complete():
    assert set(PUBLIC_NAMES) < set(SUBMODULES)
    assert {"cli", "fileio", "svg", "synth"} < set(SUBMODULES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_each_submodule_is_the_module_object(name):
    module = importlib.import_module(f"loop2mesh.{name}")
    assert isinstance(module, types.ModuleType)
    assert getattr(loop2mesh, name) is module


def test_plain_import_binds_the_train_module():
    import loop2mesh.train as m
    assert isinstance(m, types.ModuleType)
    assert callable(m.train)


@pytest.mark.parametrize("module, names", PUBLIC_NAMES.items())
def test_public_names_import_from_their_own_module(module, names):
    mod = importlib.import_module(f"loop2mesh.{module}")
    for name in names:
        assert getattr(mod, name).__module__ == mod.__name__, name


def test_package_root_holds_only_the_version():
    public = {k for k, v in vars(loop2mesh).items()
              if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public == set()
    assert isinstance(loop2mesh.__version__, str)


def test_benchmark_traced_names_resolve():
    """Every ``layer.func.calls`` metric the benchmark declares names a function
    the tracer can wrap; a name that stops resolving would drop its metrics."""
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = [m["name"][:-len(".calls")] for m in spec["per_layer"] if m["name"].endswith(".calls")]
    assert names
    for name in names:
        layer, func = name.split(".")
        assert callable(getattr(importlib.import_module(f"loop2mesh.{layer}"), func, None)), name
