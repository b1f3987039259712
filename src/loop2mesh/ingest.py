"""Dataset ingestion.

Selig-style ``.dat`` airfoil contours, Gmsh ASCII v2 ``$Nodes`` blocks and
points CSVs (all read by ``np.loadtxt``'s number grammar), chord
normalisation, deterministic up/down-sampling of target clouds to a fixed
count, and assembly of (loop, target) training pairs.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError
from .geometry import (as_point_array, check_map, points_in_polygon, resample_loop,
                       standardize_loop)

log = logging.getLogger(__name__)

_POINT_DTYPE = np.dtype([("x", np.float64), ("y", np.float64)])
_NODE_DTYPE = np.dtype([("id", np.int64), ("x", np.float64), ("y", np.float64), ("z", np.float64)])


def _loadtxt(lines: list[str], dtype: np.dtype, delimiter: str | None = None) -> np.ndarray:
    """``np.loadtxt`` of stripped lines, empty if all are blank; ValueError for
    non-ASCII text, which no number holds and on which NumPy's integer parser
    can read out of bounds and crash the process."""
    if not all(map(str.isascii, lines)):
        raise ValueError("non-ASCII text")
    if not any(lines):
        return np.empty(0, dtype)
    return np.loadtxt(lines, dtype, comments=None, delimiter=delimiter, ndmin=1)


def _read_rows(lines: list[str], first_lineno: int, dtype: np.dtype, *,
               delimiter: str | None = None, record: str | None = None) -> np.ndarray:
    """Read stripped lines (blank ones skipped) into ``dtype`` records with a
    finite x and y in one ``np.loadtxt`` call; on failure, re-read them one
    at a time to name the first bad row (comma-delimited) or line, numbered
    from ``first_lineno``: a wrong field count, a malformed ``record`` (by
    default the line itself), or a non-finite x or y."""
    try:
        rows = _loadtxt(lines, dtype, delimiter)
        if np.isfinite(rows["x"]).all() and np.isfinite(rows["y"]).all():
            return rows
    except ValueError:
        pass
    unit = "row" if delimiter else "line"
    layout = (delimiter or " ").join(dtype.names)
    for lineno, line in enumerate(lines, start=first_lineno):
        if not line:
            continue
        if len(line.split(delimiter)) != len(dtype):
            raise InputError(f"{unit} {lineno}: expected {layout!r}, got {line!r}")
        try:
            row = _loadtxt([line], dtype, delimiter)[0]
        except ValueError:
            raise InputError(f"{unit} {lineno}: malformed {record or unit} {line!r}") from None
        if not (math.isfinite(row["x"]) and math.isfinite(row["y"])):
            raise InputError(f"{unit} {lineno}: non-finite coordinate {line!r}")
    raise InputError(f"malformed {layout!r} table")


def parse_airfoil_dat(text: str) -> np.ndarray:
    """Parse a Selig-style airfoil contour into its points (N, 2): an optional
    name line (a first content line that does not read as two numbers), then
    one ``x y`` pair per line, blank lines ignored anywhere."""
    lines = [line.strip() for line in text.splitlines()]
    first = next((i for i, line in enumerate(lines) if line), 0)
    try:
        _loadtxt(lines[first:first + 1], _POINT_DTYPE)
    except ValueError:
        first += 1  # the name line
    xy = _read_rows(lines[first:], first + 1, _POINT_DTYPE)
    if len(xy) < 3:
        raise InputError(f"airfoil contour needs at least 3 points, got {len(xy)}")
    return np.column_stack((xy["x"], xy["y"]))


def parse_points_csv(text: str) -> np.ndarray:
    """Parse a points CSV (``predict``'s ``points.csv``) into its points (N, 2).

    Grammar: an optional ``x,y`` header row, then one ``x,y`` row per line;
    blank rows are ignored. Any other row is a parse error naming the
    1-based row number.
    """
    lines = [line.strip() for line in text.splitlines()]
    first = int(lines[:1] == ["x,y"])
    xy = _read_rows(lines[first:], first + 1, _POINT_DTYPE, delimiter=",")
    if not len(xy):
        raise InputError("no data rows")
    return np.column_stack((xy["x"], xy["y"]))


def fit_chord(points) -> np.ndarray:
    """The map (2, 2) shifting min-x to 0 and scaling both axes by the chord to 1."""
    if not len(points):
        raise InputError("empty contour; cannot normalise")
    x = as_point_array(points, name="contour")[:, 0]
    x_min, chord = x.min(), x.max() - x.min()
    if chord == 0.0:
        raise InputError("zero chord length; cannot normalise")
    return check_map([[x_min, 0.0], [chord, chord]], name="chord transform")


def to_chord_units(chord: np.ndarray, points) -> np.ndarray:
    """Points (N, 2) through a ``fit_chord`` map; InputError if a tiny chord overflows them."""
    with np.errstate(over="ignore"):
        xy = standardize_loop(chord, as_point_array(points))
    return as_point_array(xy, name="chord-normalised cloud")


def parse_msh_nodes(text: str) -> np.ndarray:
    """Extract node coordinates (N, 2) from a Gmsh ASCII v2 mesh.

    Reads the ``$Nodes`` block (``id x y z`` per line, z discarded) and
    returns the nodes sorted by id. The declared node count must match the
    number of node lines.
    """
    lines = [line.strip() for line in text.splitlines()]
    try:
        start = lines.index("$Nodes")
    except ValueError:
        raise InputError("missing $Nodes block") from None
    if start + 1 >= len(lines):
        raise InputError("truncated $Nodes block: node count line missing")
    try:
        declared = int(lines[start + 1])
    except ValueError:
        raise InputError(f"line {start + 2}: invalid node count {lines[start + 1]!r}") from None
    end = (lines + ["$EndNodes"]).index("$EndNodes", start + 2)  # no $EndNodes: the rest
    nodes = _read_rows(lines[start + 2:end], start + 3, _NODE_DTYPE, record="node line")
    if end == len(lines):
        raise InputError("unterminated $Nodes block: $EndNodes missing")
    if len(nodes) != declared:
        raise InputError(f"node count mismatch: header declares {declared}, found {len(nodes)}")
    if not len(nodes):
        raise InputError("mesh contains no nodes")
    order = np.argsort(nodes["id"], kind="stable")
    return np.column_stack((nodes["x"], nodes["y"]))[order]


def upsample_target(points: np.ndarray, m: int, seed: int) -> np.ndarray:
    """Deterministically resize a point cloud (n, 2) to exactly ``m`` points.

    n >= m: uniform subsample without replacement, original order kept.
    n <  m: all originals, followed by a uniform with-replacement draw of
    the deficit. Duplicates at identical coordinates are acceptable.
    """
    if m < 1:
        raise InputError(f"target count must be positive, got {m}")
    n = len(points)
    if n == 0:
        raise InputError("cannot resize an empty point cloud")
    rng = np.random.default_rng(seed)
    if n >= m:
        idx = np.sort(rng.choice(n, size=m, replace=False))
    else:
        idx = np.concatenate([np.arange(n), rng.choice(n, size=m - n, replace=True)])
    return points[idx]


@dataclass(frozen=True)
class MeshSample:
    """One training pair: a boundary loop (L, 2) and its target mesh cloud
    (M, 2), with no target node inside the loop (``assemble_sample`` builds it)."""

    name: str
    loop: np.ndarray
    target: np.ndarray


@dataclass(frozen=True)
class Dataset:
    """At least one sample, all with one loop size and one target count
    (``build_dataset`` builds it)."""

    samples: tuple[MeshSample, ...]


def contour_loop(contour: np.ndarray, loop_size: int) -> tuple[np.ndarray, np.ndarray]:
    """A parsed contour (N, 2) as a chord-normalised loop of ``loop_size``
    arc-length-uniform vertices, and the chord map fitted on it."""
    chord = fit_chord(contour)
    return resample_loop(to_chord_units(chord, contour), loop_size), chord


def assemble_sample(name: str, contour: np.ndarray, mesh_nodes: np.ndarray, *,
                    loop_size: int = 35, target_count: int = 1500, seed: int = 0) -> MeshSample:
    """Build one training pair from parsed raw inputs.

    The contour becomes a loop (``contour_loop``), and the mesh is
    chord-normalised by the same map and up/down-sampled to
    ``target_count``. Mesh nodes strictly inside the loop are dropped with
    a warning before sampling, so they can never enter the target cloud.
    """
    loop, chord = contour_loop(contour, loop_size)
    mesh = to_chord_units(chord, mesh_nodes)
    inside = points_in_polygon(mesh, loop)
    if inside.any():
        log.warning("%s: dropping %d mesh nodes inside the boundary loop", name, int(inside.sum()))
        mesh = mesh[~inside]
        if mesh.shape[0] == 0:
            raise InputError("every mesh node lies inside the loop")
    target = upsample_target(mesh, target_count, seed)
    return MeshSample(name, loop, target)


def read_parsed(path, parser):
    """``parser`` applied to a text file; its errors, undecodable bytes and a
    name no file can have (a NUL or an unencodable character) name the path."""
    path = Path(path)
    try:
        text = path.read_text()
    except ValueError as exc:  # UnicodeDecodeError, or a name open() cannot take
        raise InputError(f"{path}: {exc}") from None
    try:
        return parser(text)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def build_dataset(entries, *, loop_size: int = 35, target_count: int = 1500, seed: int = 0) -> Dataset:
    """Assemble a Dataset from ``(name, dat_path, msh_path)`` entries.

    Sample ``i`` uses upsampling seed ``seed + i``. An input error names its
    file, or its sample if both files parse but cannot form one.
    """
    entries = list(entries)
    if not entries:
        raise InputError("no (dat, msh) pairs supplied")
    samples = []
    for i, (name, dat_path, msh_path) in enumerate(entries):
        contour = read_parsed(dat_path, parse_airfoil_dat)
        nodes = read_parsed(msh_path, parse_msh_nodes)
        try:
            samples.append(assemble_sample(name, contour, nodes, loop_size=loop_size,
                                           target_count=target_count, seed=seed + i))
        except InputError as exc:
            raise InputError(f"{name}: {exc}") from exc
    return Dataset(tuple(samples))


def load_manifest(path) -> list[tuple[str, Path, Path]]:
    """Read a dataset manifest: a JSON list of {name, dat, msh} records whose
    three values are non-empty strings.

    File paths are resolved relative to the manifest's directory.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:  # also an int over 4300 digits, deep nesting
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise InputError(f"{path}: manifest must be a JSON list of {{name, dat, msh}} records")
    entries = []
    base = path.parent
    for i, rec in enumerate(data):
        if not (isinstance(rec, dict) and all(isinstance(rec.get(k), str) and rec[k]
                                              for k in ("name", "dat", "msh"))):
            raise InputError(f"{path}: record {i} must be an object of non-empty name/dat/msh strings")
        entries.append((rec["name"], base / rec["dat"], base / rec["msh"]))
    return entries
