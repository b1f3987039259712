"""2D geometric primitives shared by every pipeline stage.

One edge kernel (nearest-edge distance, closest point and strict even-odd
containment in one per-axis pass, over every point or only those in a
loop's bounding box), padded bounding boxes, arc-length resampling of closed
contours and per-axis standardisation. Coordinates are float64 ``(N, 2)``
arrays throughout; every function is pure.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import DegenerateDataError, InvalidGeometryError, InvalidInputError

BBOX_PAD = 0.05  # a padded bounding box's margin, a share of each axis extent


def as_point_array(points, *, name: str = "points") -> np.ndarray:
    """Coerce to a finite (N, 2) float64 array or raise InvalidInputError."""
    xy = np.asarray(points, dtype=np.float64)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise InvalidInputError(f"{name} must be an (N, 2) array, got shape {xy.shape}")
    if not np.all(np.isfinite(xy)):
        raise InvalidInputError(f"{name} contains non-finite coordinates")
    return xy


def _frozen(xy: np.ndarray) -> np.ndarray:
    out = xy.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PointSet:
    """Ordered, non-empty 2D point cloud."""

    xy: np.ndarray

    def __post_init__(self):
        xy = as_point_array(self.xy, name="point set")
        if xy.shape[0] == 0:
            raise InvalidInputError("point set must be non-empty")
        object.__setattr__(self, "xy", _frozen(xy))

    def __len__(self) -> int:
        return int(self.xy.shape[0])


def _signed_area(v: np.ndarray) -> float:
    w = np.roll(v, -1, axis=0)
    return 0.5 * float(np.sum(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]))


def _is_simple(v: np.ndarray) -> bool:
    """True unless two edges cross properly.

    Edge k runs from v[k] to v[k+1]. ``orient[k, p]`` is the cross product
    telling which side of edge k's line vertex p lies on; edge p straddles
    edge k's line when its two endpoints lie strictly on opposite sides.
    Two edges cross when each straddles the other's line, so shared
    endpoints and collinear touches pass. Adjacent edges share a vertex
    whose orientation is exactly 0 and so never count.
    """
    e = np.roll(v, -1, axis=0) - v
    orient = (e[:, 0, None] * (v[None, :, 1] - v[:, 1, None])
              - e[:, 1, None] * (v[None, :, 0] - v[:, 0, None]))
    o_start, o_end = orient, np.roll(orient, -1, axis=1)
    straddle = (o_start != 0.0) & (o_end != 0.0) & ((o_start > 0.0) != (o_end > 0.0))
    return not np.any(straddle & straddle.T)


@dataclass(frozen=True)
class AirfoilLoop:
    """Closed simple polygon of boundary vertices.

    The polygon closes implicitly from the last vertex back to the first;
    the vertex list never repeats the first vertex. Its strict interior is
    the region mesh points must not enter.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = as_point_array(self.vertices, name="loop vertices")
        if v.shape[0] < 3:
            raise InvalidGeometryError(f"a loop needs at least 3 vertices, got {v.shape[0]}")
        if np.any(np.all(v == np.roll(v, -1, axis=0), axis=1)):
            raise InvalidGeometryError("loop has zero-length edges (repeated consecutive vertices)")
        span = v.max(axis=0) - v.min(axis=0)
        if abs(_signed_area(v)) <= 1e-14 * max(1.0, float(span[0] + span[1]) ** 2):
            raise InvalidGeometryError("degenerate loop: enclosed area is numerically zero")
        if not _is_simple(v):
            raise InvalidGeometryError("loop is self-intersecting")
        object.__setattr__(self, "vertices", _frozen(v))

    def __len__(self) -> int:
        return int(self.vertices.shape[0])


def _edges(v: np.ndarray) -> tuple[np.ndarray, ...]:
    """Terms of edge k, vertex k to k+1, of loops v (..., L, 2): ax, ay, by, abx, aby, |ab|^2."""
    b = np.roll(v, -1, axis=-2)
    ax, ay, by = v[..., 0], v[..., 1], b[..., 1]
    abx, aby = b[..., 0] - ax, by - ay  # no zero-length edges by loop invariant
    return ax, ay, by, abx, aby, abx ** 2 + aby ** 2


def _edge_kernel(p: np.ndarray, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one edge kernel: points p (K, 2) against ``_edges`` terms, (L,)
    for one loop or (K, L) one row per point, give dist (K,), closest (K, 2)
    and inside (K,). Equidistant edges resolve to the lowest index.
    Containment is even-odd ray casting under the half-open rule, so a
    horizontal edge never straddles and its 0/0 crossing never counts;
    points on an edge (distance 0) are outside, so wall nodes are legal.
    """
    ax, ay, by, abx, aby, ab2 = edges
    px, py = p[:, 0, None], p[:, 1, None]
    dy = py - ay
    t = np.clip(((px - ax) * abx + dy * aby) / ab2, 0.0, 1.0)
    qx, qy = ax + t * abx, ay + t * aby
    d2 = (px - qx) ** 2 + (py - qy) ** 2
    near = np.arange(len(p)), d2.argmin(axis=1)
    dist = np.sqrt(d2[near])
    with np.errstate(divide="ignore", invalid="ignore"):
        crossings = ((ay > py) != (by > py)) & (px < ax + dy * abx / aby)
    inside = (np.count_nonzero(crossings, axis=1) % 2 == 1) & (dist > 0.0)
    return dist, np.column_stack((qx[near], qy[near])), inside


def edge_query(points, loop: AirfoilLoop) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest-edge distance (N,), closest edge point (N, 2) and strict
    containment (bool (N,)) of every point, from (N, L) arrays."""
    return _edge_kernel(as_point_array(points), _edges(loop.vertices))


def intruders(points: np.ndarray, vertices: np.ndarray) -> tuple[np.ndarray, ...]:
    """Points strictly inside their loop, cloud s (S, N, 2) against loop s
    (S, L, 2): sample and point indices (K,), row-major, with their
    ``edge_query`` distances (K,) and closest points (K, 2).

    Only points in the loop's box, padded in x by 16 eps |x|max, reach the
    kernel; ``edge_query`` calls every other point outside. Above or below
    all vertices no edge straddles (an exact test). A straddling edge's
    crossing ``ax + dy*abx/aby`` lies in [xmin, xmax] and rounds by under
    6 eps |x|max, so none counts right of the box and all do left of it,
    an even number around a closed loop; valid unless ``dy*abx`` under- or
    overflows.
    """
    pad = 16.0 * np.finfo(np.float64).eps * np.abs(vertices[..., :1]).max(axis=1) * [1.0, 0.0]
    lo, hi = vertices.min(axis=1) - pad, vertices.max(axis=1) + pad  # (S, 2)
    s, n = np.nonzero(np.all((points >= lo[:, None]) & (points <= hi[:, None]), axis=-1))
    edges = [e[0] if len(e) == 1 else e[s] for e in _edges(vertices)]  # one loop: no per-row copy
    dist, closest, inside = _edge_kernel(points[s, n], edges)
    return s[inside], n[inside], dist[inside], closest[inside]


def points_in_polygon(points, loop: AirfoilLoop) -> np.ndarray:
    """Strict containment (bool (N,)) as ``edge_query`` gives it; see ``intruders``."""
    xy = as_point_array(points)
    inside = np.zeros(len(xy), dtype=bool)
    inside[intruders(xy[None], loop.vertices[None])[1]] = True
    return inside


def padded_bbox(xy: np.ndarray, min_extent: float = 0.0) -> tuple[list[float], list[float]]:
    """Corners [xmin, ymin] and [xmax, ymax] of the bounding box of xy (N, 2),
    each axis padded by ``BBOX_PAD`` of its extent, taken as at least
    ``min_extent``; a zero extent stays zero unless ``min_extent`` > 0."""
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    extent = np.maximum(hi - lo, min_extent)
    return (lo - BBOX_PAD * extent).tolist(), (hi + BBOX_PAD * extent).tolist()


def resample_loop(raw: PointSet, target: int) -> AirfoilLoop:
    """Resample a closed contour to ``target`` vertices at uniform arc-length spacing.

    Closure is imposed between the last and first vertex (an explicit closing
    duplicate is dropped first, as are repeated consecutive points). The first
    output vertex coincides with the contour's first vertex; orientation is
    preserved; interpolation is linear along the polyline.
    """
    if target < 3:
        raise InvalidGeometryError(f"resample target must be at least 3, got {target}")
    v = raw.xy
    keep = np.ones(v.shape[0], dtype=bool)
    keep[1:] = np.any(v[1:] != v[:-1], axis=1)
    v = v[keep]
    if v.shape[0] > 1 and np.all(v[-1] == v[0]):
        v = v[:-1]
    if np.unique(v, axis=0).shape[0] < 3:
        raise InvalidGeometryError("contour needs at least 3 distinct points")
    closed = np.vstack([v, v[:1]])
    seg = np.diff(closed, axis=0)
    seglen = np.hypot(seg[:, 0], seg[:, 1])
    s = np.concatenate([[0.0], np.cumsum(seglen)])
    perimeter = s[-1]
    tpos = np.arange(target) * (perimeter / target)
    idx = np.clip(np.searchsorted(s, tpos, side="right") - 1, 0, seglen.shape[0] - 1)
    frac = (tpos - s[idx]) / seglen[idx]
    pts = closed[idx] + frac[:, None] * seg[idx]
    return AirfoilLoop(pts)


def as_float(value) -> float:
    """A JSON number as a float: an int or a float, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInputError(f"expected a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class StandardizeTransform:
    """Per-axis affine map to zero mean and unit variance (population sigma)."""

    mean_x: float
    mean_y: float
    scale_x: float
    scale_y: float

    def __post_init__(self):
        vals = (self.mean_x, self.mean_y, self.scale_x, self.scale_y)
        if not all(np.isfinite(vals)):
            raise InvalidInputError("transform parameters must be finite")
        if self.scale_x <= 0.0 or self.scale_y <= 0.0:
            raise InvalidInputError("transform scales must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "StandardizeTransform":
        return cls(**{f.name: as_float(d[f.name]) for f in fields(cls)})

    @property
    def _mean(self) -> np.ndarray:
        return np.array([self.mean_x, self.mean_y])

    @property
    def _scale(self) -> np.ndarray:
        return np.array([self.scale_x, self.scale_y])


def fit_standardize(xy: np.ndarray) -> StandardizeTransform:
    """Fit per-axis mean/sigma on points xy (N, 2); sigma is the population value."""
    if len(xy) < 2:
        raise DegenerateDataError("standardisation needs at least 2 points")
    mean = xy.mean(axis=0)
    sigma = xy.std(axis=0)  # divides by N, not N-1
    if sigma[0] == 0.0 or sigma[1] == 0.0:
        raise DegenerateDataError("zero variance on an axis; cannot standardise")
    return StandardizeTransform(float(mean[0]), float(mean[1]), float(sigma[0]), float(sigma[1]))


def standardize_loop(t: StandardizeTransform, xy: np.ndarray) -> np.ndarray:
    """The one forward map: points or loop vertices xy (..., 2) to standardised
    units. Its scales are positive, so a simple loop stays simple and
    containment is preserved."""
    return (xy - t._mean) / t._scale


def invert_standardize(t: StandardizeTransform, xy: np.ndarray) -> np.ndarray:
    """Standardised points xy (..., 2) back to original units."""
    return xy * t._scale + t._mean
