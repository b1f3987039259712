"""Objective terms over predicted point clouds.

Every term returns ``(value, grad)`` where ``grad`` is the exact analytic
gradient with respect to the predicted coordinates, shaped like the cloud.

chamfer     two-sided nearest-neighbour squared-distance alignment (sums).
repulsion   inverse mean pairwise distance; penalises clustering.
interior    mean squared intrusion depth behind the boundary loop.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import FrameMismatchError, InvalidInputError
from .geometry import AirfoilLoop, PointSet, as_point_array, nearest_edge, points_in_polygon


def _check_frames(pred: PointSet, other) -> None:
    if pred.frame is not other.frame:
        raise FrameMismatchError("operands live in different coordinate frames")


def chamfer(pred: PointSet, ref: PointSet) -> tuple[float, np.ndarray]:
    """Sum of squared nearest-neighbour distances, both directions.

    value = sum_p min_g |p-g|^2  +  sum_g min_p |g-p|^2   (sums, not means).

    Nearest-neighbour ties resolve to the lowest index and the gradient
    flows only through the winning neighbour: each predicted point p gets
    2(p - g*) from the first term plus 2(p - g) for every reference g whose
    nearest predicted point is p.
    """
    _check_frames(pred, ref)
    P = pred.xy
    G = ref.xy
    d2 = np.maximum(
        (P ** 2).sum(axis=1)[:, None] + (G ** 2).sum(axis=1)[None, :] - 2.0 * (P @ G.T),
        0.0,
    )
    nn_pg = d2.argmin(axis=1)
    nn_gp = d2.argmin(axis=0)
    value = float(d2[np.arange(P.shape[0]), nn_pg].sum()
                  + d2[nn_gp, np.arange(G.shape[0])].sum())
    grad = 2.0 * (P - G[nn_pg])
    np.add.at(grad, nn_gp, 2.0 * (P[nn_gp] - G))
    return value, grad


def _pairwise(xy: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one pairwise kernel of a cloud: per-axis differences
    ``dx[i, j] = x_i - x_j`` and ``dy`` likewise, and the squared distances,
    each (N, N). Repulsion and the mean pairwise distance both read it."""
    dx = xy[:, 0, None] - xy[None, :, 0]
    dy = xy[:, 1, None] - xy[None, :, 1]
    return dx, dy, dx * dx + dy * dy


def _off_diagonal(a: np.ndarray) -> np.ndarray:
    return a[~np.eye(len(a), dtype=bool)]


def _repulsion(pairs, epsilon: float) -> tuple[float, np.ndarray]:
    dx, dy, d2 = pairs
    n = len(d2)
    if n < 2:
        raise InvalidInputError("repulsion needs at least 2 points")
    if not epsilon > 0.0:
        raise InvalidInputError(f"epsilon must be positive, got {epsilon}")
    r = np.sqrt(d2 + epsilon)
    value = 1.0 / (float(_off_diagonal(r).sum()) / (n * n))  # 1 / mean distance
    # d(mean)/d(p_i) = (2/N^2) sum_j (p_i - p_j) / r_ij; self-pairs add 0/r = 0.
    # dx/r is antisymmetric, so each row sum is minus the column sum, which
    # NumPy accumulates row by row in index order.
    d_mean = -2.0 * np.column_stack(((dx / r).sum(axis=0), (dy / r).sum(axis=0))) / (n * n)
    return value, -(value ** 2) * d_mean


def _mean_pairwise(d2: np.ndarray) -> float:
    return float(_off_diagonal(np.sqrt(d2)).mean()) if len(d2) >= 2 else 0.0


def repulsion(pred: PointSet, epsilon: float = 1e-8) -> tuple[float, np.ndarray]:
    """Inverse of the mean pairwise distance over the predicted cloud.

    The mean runs over all ordered index pairs (divisor N^2); self-pairs
    contribute exactly zero while every other pair is stabilised as
    sqrt(|pi-pj|^2 + epsilon), so coincident points stay finite. Larger
    spread means a smaller value.
    """
    return _repulsion(_pairwise(pred.xy), epsilon)


def interior_penalty(pred: PointSet, loop: AirfoilLoop) -> tuple[float, np.ndarray]:
    """Mean squared depth of points strictly inside the loop.

    value = (1/N) sum over intruders of dist(p, nearest edge)^2; zero for a
    cloud entirely outside or on the boundary. An intruder's gradient is
    (2/N)(p - q) with q its nearest edge point, so a descent step moves it
    straight back toward the wall. Points exactly on an edge count as
    outside and carry zero gradient.
    """
    _check_frames(pred, loop)
    dist, closest = nearest_edge(pred.xy, loop)
    inside = points_in_polygon(pred.xy, loop, edge_distances=dist)
    n = len(pred)
    value = float((dist[inside] ** 2).sum()) / n
    grad = np.zeros_like(pred.xy)
    grad[inside] = (2.0 / n) * (pred.xy[inside] - closest[inside])
    return value, grad


def as_float(value) -> float:
    """A config number as a float: an int or a float, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidInputError(f"expected a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class LossWeights:
    """Non-negative weights for the composite objective (at least one > 0)."""

    chamfer: float = 1.0
    repulsion: float = 0.0
    interior: float = 0.0
    epsilon: float = 1e-8  # repulsion stabiliser, inside the square root

    def __post_init__(self):
        trio = (self.chamfer, self.repulsion, self.interior)
        if not all(np.isfinite(trio)) or any(w < 0.0 for w in trio):
            raise InvalidInputError(f"weights must be finite and non-negative, got {trio}")
        if not any(w > 0.0 for w in trio):
            raise InvalidInputError("at least one loss weight must be positive")
        if not self.epsilon > 0.0:
            raise InvalidInputError(f"epsilon must be positive, got {self.epsilon}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "LossWeights":
        """Weights from a mapping; missing keys keep their defaults."""
        if not isinstance(d, dict):
            raise InvalidInputError(f"weights must be a mapping, got {d!r}")
        return cls(**{f.name: as_float(d[f.name]) for f in fields(cls) if f.name in d})


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term values plus the weighted total and its gradient."""

    chamfer: float
    repulsion: float
    interior: float
    total: float
    grad: np.ndarray  # d(total)/d(pred), (N, 2)
    mean_pairwise: float  # mean distance over distinct pairs, a logged statistic


def composite(pred: PointSet, ref: PointSet, loop: AirfoilLoop,
              weights: LossWeights) -> LossBreakdown:
    """Weighted sum of the three terms; gradients combine linearly.

    The cloud's pairwise kernel is built once and feeds both the repulsion
    term and the reported mean pairwise distance.
    """
    pairs = _pairwise(pred.xy)
    c_val, c_grad = chamfer(pred, ref)
    r_val, r_grad = _repulsion(pairs, weights.epsilon)
    i_val, i_grad = interior_penalty(pred, loop)
    total = weights.chamfer * c_val + weights.repulsion * r_val + weights.interior * i_val
    grad = weights.chamfer * c_grad + weights.repulsion * r_grad + weights.interior * i_grad
    return LossBreakdown(c_val, r_val, i_val, float(total), grad, _mean_pairwise(pairs[2]))


def mean_pairwise_distance(points) -> float:
    """Mean L2 distance over distinct point pairs (0.0 for fewer than 2 points).

    Accepts a PointSet or any (N, 2) array-like.
    """
    xy = as_point_array(points.xy if isinstance(points, PointSet) else points)
    return _mean_pairwise(_pairwise(xy)[2])
