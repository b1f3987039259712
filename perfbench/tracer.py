"""Spans around calls into loop2mesh's public functions, from outside src/.

``Tracer.install`` wraps each traced function and rebinds every name that
refers to it in the loaded ``loop2mesh`` modules, which is where callers
look it up (``composite`` in ``loop2mesh.train``'s globals, for instance).
Modules are reached through ``importlib.import_module``: the package
re-exports functions under module names (``loop2mesh.train`` the attribute
is the function), so attribute access would find the wrong object.

Spans stay in memory with parent links and are written once, at the end.
A traced function that no longer exists is skipped, and its metrics are
absent from the summary rather than an error.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from time import perf_counter

TRACED = {
    "ingest": ("build_dataset", "parse_airfoil_dat", "parse_msh_nodes"),
    "geometry": ("resample_loop", "standardize_loop", "points_in_polygon"),
    "net": ("forward", "backward", "save_checkpoint", "load_checkpoint"),
    "losses": ("composite", "chamfer", "repulsion", "interior_penalty",
               "mean_pairwise_distance"),
    "train": ("train", "adam_step", "predict"),
    "evaluation": ("evaluate", "kde"),
    "svg": ("render_svg",),
    "fileio": ("atomic_write_bytes",),
    "cli": ("cmd_predict", "cmd_evaluate"),
}

# spans whose self time (duration less child spans) is reported per call
SELF_TIMED = ("losses.composite", "cli.cmd_predict", "cli.cmd_evaluate")


class Tracer:
    def __init__(self):
        self.installed: list[str] = []
        self.spans: list = []   # [name, start, end, parent index or -1]
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for layer, names in TRACED.items():
            try:
                module = importlib.import_module(f"loop2mesh.{layer}")
            except ImportError:
                continue
            for func in names:
                orig = getattr(module, func, None)
                if not callable(orig):
                    continue
                wrapped = self._wrap(f"{layer}.{func}", orig)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "loop2mesh" and not mod_name.startswith("loop2mesh."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)
                self.installed.append(f"{layer}.{func}")

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    def summary(self, epochs_trained: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        durations: dict[str, list[float]] = {name: [] for name in self.installed}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            durations[name].append(end - start)
            if parent >= 0:
                child_time[parent] += end - start
        selfs: dict[str, list[float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            selfs.setdefault(name, []).append(end - start - children)

        out: dict[str, tuple[float, str]] = {}
        for name, ds in durations.items():
            out[f"{name}.calls"] = (len(ds), "count")
            out[f"{name}.ms"] = (statistics.median(ds) * 1e3 if ds else 0.0, "ms")
            out[f"{name}.total_s"] = (sum(ds), "s")
        for name in SELF_TIMED:
            if name in durations:
                ms = statistics.median(selfs[name]) * 1e3 if name in selfs else 0.0
                out[f"{name}.self_ms"] = (ms, "ms")
        if "train.train" in durations and epochs_trained:
            out["train.train.self_ms_per_epoch"] = (
                sum(selfs.get("train.train", ())) * 1e3 / epochs_trained, "ms")
            out["train.epoch_ms"] = (sum(durations["train.train"]) * 1e3 / epochs_trained, "ms")
        return out
