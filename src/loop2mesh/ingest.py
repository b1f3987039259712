"""Dataset ingestion.

Selig-style ``.dat`` airfoil contours, Gmsh ASCII v2 ``$Nodes`` blocks,
chord normalisation, deterministic up/down-sampling of target clouds to a
fixed count, and assembly of (loop, target) training pairs.
"""

from __future__ import annotations

import functools
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateDataError,
    EmptyDatasetError,
    InvalidGeometryError,
    InvalidInputError,
    ParseError,
)
from .geometry import AirfoilLoop, PointSet, points_in_polygon, resample_loop

log = logging.getLogger(__name__)


def _coordinate_pair(tokens: list[str]) -> tuple[float, float] | None:
    if len(tokens) != 2:
        return None
    try:
        return float(tokens[0]), float(tokens[1])
    except ValueError:
        return None


def parse_airfoil_dat(text: str) -> PointSet:
    """Parse a Selig-style airfoil contour.

    Grammar: an optional non-numeric name line, then one ``x y`` pair per
    line; blank lines are ignored anywhere. Any other content line is a
    parse error naming the 1-based line number.
    """
    pts: list[tuple[float, float]] = []
    saw_content = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        pair = _coordinate_pair(tokens)
        if pair is None:
            if not saw_content:
                saw_content = True  # name line
                continue
            raise ParseError(f"line {lineno}: expected two numeric coordinates, got {line.strip()!r}")
        if not (math.isfinite(pair[0]) and math.isfinite(pair[1])):
            raise ParseError(f"line {lineno}: non-finite coordinate {line.strip()!r}")
        saw_content = True
        pts.append(pair)
    if not pts:
        raise ParseError("no coordinate data found")
    if len(pts) < 3:
        raise InvalidGeometryError(f"airfoil contour needs at least 3 points, got {len(pts)}")
    return PointSet(np.asarray(pts, dtype=np.float64))


@dataclass(frozen=True)
class ChordTransform:
    """Shift min-x to 0 and scale both axes uniformly so the chord is 1."""

    x_min: float
    chord: float

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.chord)):
            raise InvalidInputError("chord transform parameters must be finite")
        if self.chord <= 0.0:
            raise DegenerateDataError("zero chord length; cannot normalise")

    def apply(self, ps: PointSet) -> PointSet:
        xy = ps.xy.copy()
        xy[:, 0] -= self.x_min
        xy /= self.chord
        return PointSet(xy)


def fit_chord(ps: PointSet) -> ChordTransform:
    x = ps.xy[:, 0]
    return ChordTransform(float(x.min()), float(x.max() - x.min()))


_NODE_DTYPE = np.dtype([("id", np.int64), ("x", np.float64), ("y", np.float64), ("z", np.float64)])
_read_nodes = functools.partial(np.loadtxt, dtype=_NODE_DTYPE, comments=None, ndmin=1)


def _parse_node_block(block: list[str], first_lineno: int) -> np.ndarray:
    """Parse stripped ``id x y z`` lines (blank ones skipped) in one call; on
    failure, re-read them one at a time to name the first bad line."""
    try:
        nodes = _read_nodes(block) if any(block) else np.empty(0, _NODE_DTYPE)
        if np.isfinite(nodes["x"]).all() and np.isfinite(nodes["y"]).all():
            return nodes
    except ValueError:
        pass
    for lineno, line in enumerate(block, start=first_lineno):
        if not line:
            continue
        if len(line.split()) != 4:
            raise ParseError(f"line {lineno}: expected 'id x y z', got {line!r}")
        try:
            node = _read_nodes([line])[0]
        except ValueError:
            raise ParseError(f"line {lineno}: malformed node line {line!r}") from None
        if not (math.isfinite(node["x"]) and math.isfinite(node["y"])):
            raise ParseError(f"line {lineno}: non-finite coordinate {line!r}")
    raise ParseError("malformed $Nodes block")


def parse_msh_nodes(text: str) -> PointSet:
    """Extract node coordinates from a Gmsh ASCII v2 mesh.

    Reads the ``$Nodes`` block (``id x y z`` per line, z discarded) and
    returns the nodes sorted by id. The declared node count must match the
    number of node lines.
    """
    lines = [line.strip() for line in text.splitlines()]
    try:
        start = lines.index("$Nodes")
    except ValueError:
        raise ParseError("missing $Nodes block") from None
    if start + 1 >= len(lines):
        raise ParseError("truncated $Nodes block: node count line missing")
    try:
        declared = int(lines[start + 1])
    except ValueError:
        raise ParseError(f"line {start + 2}: invalid node count {lines[start + 1]!r}") from None
    end = (lines + ["$EndNodes"]).index("$EndNodes", start + 2)  # no $EndNodes: the rest
    nodes = _parse_node_block(lines[start + 2:end], start + 3)
    if end == len(lines):
        raise ParseError("unterminated $Nodes block: $EndNodes missing")
    if len(nodes) != declared:
        raise ParseError(f"node count mismatch: header declares {declared}, found {len(nodes)}")
    if not len(nodes):
        raise ParseError("mesh contains no nodes")
    order = np.argsort(nodes["id"], kind="stable")
    return PointSet(np.column_stack((nodes["x"], nodes["y"]))[order])


def upsample_target(ps: PointSet, m: int, seed: int) -> PointSet:
    """Deterministically resize a point cloud to exactly ``m`` points.

    n >= m: uniform subsample without replacement, original order kept.
    n <  m: all originals, followed by a uniform with-replacement draw of
    the deficit. Duplicates at identical coordinates are acceptable.
    """
    if m < 1:
        raise InvalidInputError(f"target count must be positive, got {m}")
    n = len(ps)
    rng = np.random.default_rng(seed)
    if n >= m:
        idx = np.sort(rng.choice(n, size=m, replace=False))
    else:
        idx = np.concatenate([np.arange(n), rng.choice(n, size=m - n, replace=True)])
    return PointSet(ps.xy[idx])


@dataclass(frozen=True)
class MeshSample:
    """One training pair: a boundary loop and its target mesh cloud, with no
    target node inside the loop (``assemble_sample`` builds it)."""

    name: str
    loop: AirfoilLoop
    target: PointSet


@dataclass(frozen=True)
class Dataset:
    """At least one sample, each with a ``loop_size``-vertex loop and a
    ``target_count``-node target (``build_dataset`` builds it)."""

    samples: tuple[MeshSample, ...]
    loop_size: int
    target_count: int


def assemble_sample(name: str, contour: PointSet, mesh_nodes: PointSet, *,
                    loop_size: int = 35, target_count: int = 1500, seed: int = 0) -> MeshSample:
    """Build one training pair from parsed raw inputs.

    Both clouds are chord-normalised by the transform fitted on the contour,
    the contour is resampled to ``loop_size`` arc-length-uniform vertices, and
    the mesh is up/down-sampled to ``target_count``. Mesh nodes strictly
    inside the loop are dropped with a warning before sampling, so they can
    never enter the target cloud.
    """
    ct = fit_chord(contour)
    loop = resample_loop(ct.apply(contour), loop_size)
    mesh = ct.apply(mesh_nodes)
    inside = points_in_polygon(mesh.xy, loop)
    if inside.any():
        log.warning("%s: dropping %d mesh nodes inside the boundary loop", name, int(inside.sum()))
        survivors = mesh.xy[~inside]
        if survivors.shape[0] == 0:
            raise DegenerateDataError(f"{name}: every mesh node lies inside the loop")
        mesh = PointSet(survivors)
    target = upsample_target(mesh, target_count, seed)
    return MeshSample(name, loop, target)


def read_parsed(path, parser):
    """``parser`` applied to a text file; its errors, undecodable bytes and a
    name no file can have (a NUL or an unencodable character) name the path."""
    path = Path(path)
    try:
        text = path.read_text()
    except ValueError as exc:  # UnicodeDecodeError, or a name open() cannot take
        raise ParseError(f"{path}: {exc}") from None
    try:
        return parser(text)
    except (ParseError, InvalidGeometryError, DegenerateDataError, InvalidInputError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def build_dataset(entries, *, loop_size: int = 35, target_count: int = 1500, seed: int = 0) -> Dataset:
    """Assemble a Dataset from ``(name, dat_path, msh_path)`` entries.

    Sample ``i`` uses upsampling seed ``seed + i``. Parse failures are
    re-raised with the offending file path prepended.
    """
    entries = list(entries)
    if not entries:
        raise EmptyDatasetError("no (dat, msh) pairs supplied")
    samples = []
    for i, (name, dat_path, msh_path) in enumerate(entries):
        contour = read_parsed(dat_path, parse_airfoil_dat)
        nodes = read_parsed(msh_path, parse_msh_nodes)
        samples.append(assemble_sample(name, contour, nodes, loop_size=loop_size,
                                       target_count=target_count, seed=seed + i))
    return Dataset(tuple(samples), loop_size, target_count)


def load_manifest(path) -> list[tuple[str, Path, Path]]:
    """Read a dataset manifest: a JSON list of {name, dat, msh} records.

    File paths are resolved relative to the manifest's directory.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:  # also an int over 4300 digits, deep nesting
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ParseError(f"{path}: manifest must be a JSON list of {{name, dat, msh}} records")
    entries = []
    base = path.parent
    for i, rec in enumerate(data):
        if not isinstance(rec, dict) or not {"name", "dat", "msh"} <= rec.keys():
            raise ParseError(f"{path}: record {i} must be an object with name/dat/msh keys")
        entries.append((str(rec["name"]), base / str(rec["dat"]), base / str(rec["msh"])))
    return entries
