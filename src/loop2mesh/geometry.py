"""2D geometric primitives shared by every pipeline stage.

The one check of a loop, an (L, 2) array; one edge kernel (nearest-edge
distance, closest point and strict even-odd containment in one per-axis
pass, over every point or only those in a loop's bounding box), padded
bounding boxes, arc-length resampling of closed contours and per-axis affine
maps, each a (2, 2) array with one check. Coordinates are float64 ``(N, 2)``
arrays throughout; every function is pure.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

BBOX_PAD = 0.05  # a padded bounding box's margin, a share of each axis extent


def as_point_array(points, *, name: str = "points") -> np.ndarray:
    """Coerce to a finite (N, 2) float64 array or raise InputError."""
    xy = np.asarray(points, dtype=np.float64)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise InputError(f"{name} must be an (N, 2) array, got shape {xy.shape}")
    if not np.all(np.isfinite(xy)):
        raise InputError(f"{name} contains non-finite coordinates")
    return xy


def _signed_area(v: np.ndarray) -> float:
    w = np.roll(v, -1, axis=0)
    return 0.5 * float(np.sum(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]))


def _is_simple(v: np.ndarray) -> bool:
    """True unless two edges cross properly.

    Edge k runs from v[k] to v[k+1]. ``orient[k, p]`` is the cross product
    telling which side of edge k's line vertex p lies on; edge p straddles
    edge k's line when its two endpoints lie strictly on opposite sides.
    Two edges cross when each straddles the other's line and their boxes
    meet (rounding can make disjoint, nearly collinear edges straddle), so
    shared endpoints and collinear touches pass. Adjacent edges share a
    vertex whose orientation is exactly 0 and so never count.
    """
    w = np.roll(v, -1, axis=0)
    e = w - v
    orient = (e[:, 0, None] * (v[None, :, 1] - v[:, 1, None])
              - e[:, 1, None] * (v[None, :, 0] - v[:, 0, None]))
    o_start, o_end = orient, np.roll(orient, -1, axis=1)
    straddle = (o_start != 0.0) & (o_end != 0.0) & ((o_start > 0.0) != (o_end > 0.0))
    k, j = np.nonzero(straddle & straddle.T)  # candidate pairs, as a rule none
    lo, hi = np.minimum(v, w), np.maximum(v, w)
    return not np.any(np.all((lo[k] <= hi[j]) & (lo[j] <= hi[k]), axis=-1))


def check_loop(vertices) -> np.ndarray:
    """A closed simple polygon's vertices as an (L, 2) float64 array, or InputError.

    The polygon closes implicitly from the last vertex back to the first;
    the vertex list never repeats the first vertex. Its strict interior is
    the region mesh points must not enter.
    """
    v = as_point_array(vertices, name="loop vertices")
    if v.shape[0] < 3:
        raise InputError(f"a loop needs at least 3 vertices, got {v.shape[0]}")
    if np.any(np.all(v == np.roll(v, -1, axis=0), axis=1)):
        raise InputError("loop has zero-length edges (repeated consecutive vertices)")
    span = v.max(axis=0) - v.min(axis=0)
    if abs(_signed_area(v)) <= 1e-14 * max(1.0, float(span[0] + span[1]) ** 2):
        raise InputError("degenerate loop: enclosed area is numerically zero")
    if not _is_simple(v):
        raise InputError("loop is self-intersecting")
    return v


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


def edge_query(points, loop: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest-edge distance (N,), closest edge point (N, 2) and strict
    containment (bool (N,)) of every point against a loop (L, 2), from (N, L) arrays."""
    return _edge_kernel(as_point_array(points), _edges(loop))


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


def points_in_polygon(points, loop: np.ndarray) -> np.ndarray:
    """Strict containment (bool (N,)) in a loop (L, 2) as ``edge_query`` gives it; see ``intruders``."""
    xy = as_point_array(points)
    inside = np.zeros(len(xy), dtype=bool)
    inside[intruders(xy[None], loop[None])[1]] = True
    return inside


def padded_bbox(xy: np.ndarray, min_extent: float = 0.0) -> tuple[list[float], list[float]]:
    """Corners [xmin, ymin] and [xmax, ymax] of the bounding box of xy (N, 2),
    each axis padded by ``BBOX_PAD`` of its extent, taken as at least
    ``min_extent``; a zero extent stays zero unless ``min_extent`` > 0. An
    extent past the float range gives infinite corners for the caller to reject."""
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    with np.errstate(over="ignore"):  # the extent or a padded corner past the float range
        extent = np.maximum(hi - lo, min_extent)
        return (lo - BBOX_PAD * extent).tolist(), (hi + BBOX_PAD * extent).tolist()


def resample_loop(raw, target: int) -> np.ndarray:
    """Resample a closed contour (N, 2) to ``target`` vertices at uniform arc-length spacing.

    Closure is imposed between the last and first vertex (an explicit closing
    duplicate is dropped first, as are repeated consecutive points). The first
    output vertex coincides with the contour's first vertex; orientation is
    preserved; interpolation is linear along the polyline.
    """
    if target < 3:
        raise InputError(f"resample target must be at least 3, got {target}")
    v = as_point_array(raw, name="contour")
    keep = np.ones(v.shape[0], dtype=bool)
    keep[1:] = np.any(v[1:] != v[:-1], axis=1)
    v = v[keep]
    if v.shape[0] > 1 and np.all(v[-1] == v[0]):
        v = v[:-1]
    if np.unique(v, axis=0).shape[0] < 3:
        raise InputError("contour needs at least 3 distinct points")
    closed = np.vstack([v, v[:1]])
    seg = np.diff(closed, axis=0)
    seglen = np.hypot(seg[:, 0], seg[:, 1])
    s = np.concatenate([[0.0], np.cumsum(seglen)])
    perimeter = s[-1]
    tpos = np.arange(target) * (perimeter / target)
    idx = np.clip(np.searchsorted(s, tpos, side="right") - 1, 0, seglen.shape[0] - 1)
    frac = (tpos - s[idx]) / seglen[idx]
    pts = closed[idx] + frac[:, None] * seg[idx]
    return check_loop(pts)


def as_float(value) -> float:
    """A JSON number as a float: an int or a float, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"expected a number, got {value!r}")
    return float(value)


def check_map(values, *, name: str = "transform") -> np.ndarray:
    """A per-axis affine map as a (2, 2) float64 array, row 0 the offset and
    row 1 the scale, both finite and the scales positive, or InputError."""
    t = np.asarray(values, dtype=np.float64)
    if t.shape != (2, 2):
        raise InputError(f"{name} must be a (2, 2) array, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise InputError(f"{name} parameters must be finite")
    if not np.all(t[1] > 0.0):
        raise InputError(f"{name} scales must be positive")
    return t


def fit_standardize(xy: np.ndarray) -> np.ndarray:
    """The map to zero mean and unit variance of points xy (N, 2): rows mean and
    sigma, the population value."""
    if len(xy) < 2:
        raise InputError("standardisation needs at least 2 points")
    mean = xy.mean(axis=0)
    sigma = xy.std(axis=0)  # divides by N, not N-1
    if sigma[0] == 0.0 or sigma[1] == 0.0:
        raise InputError("zero variance on an axis; cannot standardise")
    return check_map([mean, sigma])


def standardize_loop(t: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """The one forward map: points or loop vertices xy (..., 2) through a map t
    (2, 2), to standardised or chord units. Its scales are positive, so a
    simple loop stays simple and containment is preserved."""
    return (xy - t[0]) / t[1]


def invert_standardize(t: np.ndarray, xy: np.ndarray) -> np.ndarray:
    """Points xy (..., 2) in a map t's units back to original units."""
    return xy * t[1] + t[0]
