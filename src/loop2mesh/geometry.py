"""2D geometric primitives shared by every pipeline stage.

One edge query (nearest-edge distance, closest point and strict even-odd
containment from a single per-axis pass), arc-length resampling of closed
contours and per-axis standardisation. Coordinates are float64 ``(N, 2)``
arrays throughout; every function is pure.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import (
    DegenerateDataError,
    FrameMismatchError,
    InvalidGeometryError,
    InvalidInputError,
)


class Frame(enum.Enum):
    """Coordinate frame tag: raw chord units vs standardised units."""

    ORIGINAL = "original"
    STANDARDISED = "standardised"


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
    """Ordered 2D point cloud tagged with the frame it lives in."""

    xy: np.ndarray
    frame: Frame = Frame.ORIGINAL

    def __post_init__(self):
        xy = as_point_array(self.xy, name="point set")
        if xy.shape[0] == 0:
            raise InvalidInputError("point set must be non-empty")
        if not isinstance(self.frame, Frame):
            raise InvalidInputError(f"frame must be a Frame member, got {self.frame!r}")
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
    frame: Frame = Frame.ORIGINAL

    def __post_init__(self):
        v = as_point_array(self.vertices, name="loop vertices")
        if v.shape[0] < 3:
            raise InvalidGeometryError(f"a loop needs at least 3 vertices, got {v.shape[0]}")
        if not isinstance(self.frame, Frame):
            raise InvalidInputError(f"frame must be a Frame member, got {self.frame!r}")
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

    @property
    def signed_area(self) -> float:
        return _signed_area(self.vertices)

    @property
    def perimeter(self) -> float:
        e = np.roll(self.vertices, -1, axis=0) - self.vertices
        return float(np.hypot(e[:, 0], e[:, 1]).sum())

    def as_pointset(self) -> PointSet:
        return PointSet(self.vertices, self.frame)


def edge_query(points, loop: AirfoilLoop) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distance to and closest point on the nearest loop edge, and strict
    containment: ``(dist (N,), closest (N, 2), inside bool (N,))``.

    Every term is one (N, L) array per axis, edge k running from vertex k to
    vertex k+1. Ties between equidistant edges resolve to the lowest edge
    index. Containment is even-odd ray casting under the half-open rule, so
    a horizontal edge never straddles and its 0/0 crossing never counts;
    points exactly on an edge (distance 0) classify as outside, so wall
    nodes sitting on the boundary are legal.
    """
    pts = as_point_array(points)
    (ax, ay), (bx, by) = loop.vertices.T, np.roll(loop.vertices, -1, axis=0).T
    abx, aby = bx - ax, by - ay  # no zero-length edges by loop invariant
    px, py = pts[:, 0, None], pts[:, 1, None]
    dy = py - ay
    t = np.clip(((px - ax) * abx + dy * aby) / (abx ** 2 + aby ** 2), 0.0, 1.0)
    qx, qy = ax + t * abx, ay + t * aby
    d2 = (px - qx) ** 2 + (py - qy) ** 2
    j = d2.argmin(axis=1)
    rows = np.arange(pts.shape[0])
    dist = np.sqrt(d2[rows, j])
    with np.errstate(divide="ignore", invalid="ignore"):
        crossings = ((ay > py) != (by > py)) & (px < ax + dy * abx / aby)
    inside = (np.count_nonzero(crossings, axis=1) % 2 == 1) & (dist > 0.0)
    return dist, np.column_stack((qx[rows, j], qy[rows, j])), inside


def points_in_polygon(points, loop: AirfoilLoop) -> np.ndarray:
    """Strict-interior test for many points at once (bool (N,)); see edge_query."""
    return edge_query(points, loop)[2]


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
    return AirfoilLoop(pts, raw.frame)


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


def fit_standardize(ps: PointSet) -> StandardizeTransform:
    """Fit per-axis mean/sigma on a point set; sigma is the population value."""
    if len(ps) < 2:
        raise DegenerateDataError("standardisation needs at least 2 points")
    mean = ps.xy.mean(axis=0)
    sigma = ps.xy.std(axis=0)  # divides by N, not N-1
    if sigma[0] == 0.0 or sigma[1] == 0.0:
        raise DegenerateDataError("zero variance on an axis; cannot standardise")
    return StandardizeTransform(float(mean[0]), float(mean[1]), float(sigma[0]), float(sigma[1]))


def apply_standardize(t: StandardizeTransform, ps: PointSet) -> PointSet:
    if ps.frame is not Frame.ORIGINAL:
        raise FrameMismatchError("point set is already standardised")
    return PointSet((ps.xy - t._mean) / t._scale, Frame.STANDARDISED)


def invert_standardize(t: StandardizeTransform, ps: PointSet) -> PointSet:
    if ps.frame is not Frame.STANDARDISED:
        raise FrameMismatchError("point set is not in the standardised frame")
    return PointSet(ps.xy * t._scale + t._mean, Frame.ORIGINAL)


def standardize_loop(t: StandardizeTransform, loop: AirfoilLoop) -> AirfoilLoop:
    """Standardise loop vertices (containment is preserved under affine maps)."""
    if loop.frame is not Frame.ORIGINAL:
        raise FrameMismatchError("loop is already standardised")
    return AirfoilLoop((loop.vertices - t._mean) / t._scale, Frame.STANDARDISED)
