"""Objective terms over predicted point clouds.

Every term returns ``(value, grad)`` where ``grad`` is the exact analytic
gradient with respect to the predicted coordinates, shaped like the cloud.

chamfer     two-sided nearest-neighbour squared-distance alignment (sums).
repulsion   inverse mean pairwise distance; penalises clustering.
interior    mean squared intrusion depth behind the boundary loop.

``composite_batch`` weighs them over S clouds at once: the pairwise kernel
takes the whole (S, N, 2) batch, the edge kernel its points in their loop's
box (``geometry.intruders``), Chamfer runs per sample (its (N, M) matrix
stays in cache), and each per-sample sum keeps its one-cloud order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import FrameMismatchError, InvalidInputError
from .geometry import AirfoilLoop, PointSet, as_float, as_point_array, intruders


def _check_frames(pred: PointSet, other) -> None:
    if pred.frame is not other.frame:
        raise FrameMismatchError("operands live in different coordinate frames")


def _chamfer(P: np.ndarray, G: np.ndarray) -> tuple[float, np.ndarray]:
    d2 = np.maximum((P ** 2).sum(axis=1)[:, None] + (G ** 2).sum(axis=1) - 2.0 * (P @ G.T), 0.0)
    nn_pg, nn_gp = d2.argmin(axis=1), d2.argmin(axis=0)
    value = float(d2[np.arange(P.shape[0]), nn_pg].sum() + d2[nn_gp, np.arange(G.shape[0])].sum())
    grad = 2.0 * (P - G[nn_pg])
    np.add.at(grad, nn_gp, 2.0 * (P[nn_gp] - G))
    return value, grad


def chamfer(pred: PointSet, ref: PointSet) -> tuple[float, np.ndarray]:
    """Sum of squared nearest-neighbour distances, both directions.

    value = sum_p min_g |p-g|^2  +  sum_g min_p |g-p|^2   (sums, not means).

    Nearest-neighbour ties resolve to the lowest index and the gradient
    flows only through the winning neighbour: each predicted point p gets
    2(p - g*) from the first term plus 2(p - g) for every reference g whose
    nearest predicted point is p.
    """
    _check_frames(pred, ref)
    return _chamfer(pred.xy, ref.xy)


def _pairwise(xy: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one pairwise kernel of S clouds (S, N, 2): per-axis differences
    ``dx[s, i, j] = x_i - x_j`` and ``dy`` likewise, and the squared
    distances, each (S, N, N)."""
    dx = xy[:, :, 0, None] - xy[:, None, :, 0]
    dy = xy[:, :, 1, None] - xy[:, None, :, 1]
    return dx, dy, dx * dx + dy * dy


def _off_diagonal(a: np.ndarray, reduce) -> list[float]:
    # per (N, N) slice: a mask over the whole batch gives strided rows that sum differently
    off = ~np.eye(a.shape[1], dtype=bool)
    return [float(reduce(m[off])) for m in a]


def _repulsion(pairs, epsilon: float) -> tuple[list[float], np.ndarray]:
    dx, dy, d2 = pairs
    n = d2.shape[1]
    if n < 2:
        raise InvalidInputError("repulsion needs at least 2 points")
    if not epsilon > 0.0:
        raise InvalidInputError(f"epsilon must be positive, got {epsilon}")
    r = np.sqrt(d2 + epsilon)
    values = [1.0 / (total / (n * n)) for total in _off_diagonal(r, np.sum)]  # 1 / mean
    # d(mean)/d(p_i) = (2/N^2) sum_j (p_i - p_j) / r_ij; self-pairs add 0/r = 0.
    # dx/r is antisymmetric, so each row sum is minus the column sum, which
    # NumPy accumulates row by row in index order.
    d_mean = -2.0 * np.stack(((dx / r).sum(axis=1), (dy / r).sum(axis=1)), axis=-1) / (n * n)
    # value ** 2 as a Python float: NumPy's array square can round differently
    scale = np.array([-(v ** 2) for v in values])
    return values, scale[:, None, None] * d_mean


def repulsion(pred: PointSet, epsilon: float = 1e-8) -> tuple[float, np.ndarray]:
    """Inverse of the mean pairwise distance over the predicted cloud.

    The mean runs over all ordered index pairs (divisor N^2); self-pairs
    contribute exactly zero while every other pair is stabilised as
    sqrt(|pi-pj|^2 + epsilon), so coincident points stay finite. Larger
    spread means a smaller value.
    """
    values, grad = _repulsion(_pairwise(pred.xy[None]), epsilon)
    return values[0], grad[0]


def _interior(xy: np.ndarray, loops: np.ndarray) -> tuple[list[float], np.ndarray]:
    s, i, dist, closest = intruders(xy, loops)
    n = xy.shape[1]
    # row-major intruders: each sample's depths in point order, summed alone
    values = [float((d ** 2).sum()) / n for d in np.split(dist, np.searchsorted(s, range(1, len(xy))))]
    grad = np.zeros_like(xy)
    grad[s, i] = (2.0 / n) * (xy[s, i] - closest)
    return values, grad


def interior_penalty(pred: PointSet, loop: AirfoilLoop) -> tuple[float, np.ndarray]:
    """Mean squared depth of points strictly inside the loop.

    value = (1/N) sum over intruders of dist(p, nearest edge)^2; zero for a
    cloud entirely outside or on the boundary. An intruder's gradient is
    (2/N)(p - q) with q its nearest edge point, so a descent step moves it
    straight back toward the wall. Points exactly on an edge count as
    outside and carry zero gradient.
    """
    _check_frames(pred, loop)
    values, grad = _interior(pred.xy[None], loop.vertices[None])
    return values[0], grad[0]


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

    @classmethod
    def from_dict(cls, d: dict) -> "LossWeights":
        """Weights from a mapping; missing keys keep their defaults."""
        if not isinstance(d, dict):
            raise InvalidInputError(f"weights must be a mapping, got {d!r}")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidInputError(f"unknown weight keys: {sorted(unknown)}")
        return cls(**{f.name: as_float(d[f.name]) for f in fields(cls) if f.name in d})


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term values plus the weighted total and its gradient."""

    chamfer: float
    repulsion: float
    interior: float
    total: float
    mean_pairwise: float  # mean distance over distinct pairs, a logged statistic
    grad: np.ndarray  # d(total)/d(pred), (N, 2)


def composite(pred: PointSet, ref: PointSet, loop: AirfoilLoop,
              weights: LossWeights) -> LossBreakdown:
    """``composite_batch`` for one cloud."""
    _check_frames(pred, ref)
    _check_frames(pred, loop)
    terms, grad = composite_batch(pred.xy[None], [ref.xy], loop.vertices[None], weights)
    return LossBreakdown(*terms[0].tolist(), grad[0])


def composite_batch(pred: np.ndarray, refs, loops: np.ndarray,
                    weights: LossWeights) -> tuple[np.ndarray, np.ndarray]:
    """Weighted sum of the three terms for S clouds (S, N, 2), each against
    its own reference (one (M, 2) array per cloud) and loop ((S, L, 2)
    vertices), all finite and in one frame.

    Returns the terms (S, 5), columns chamfer, repulsion, interior, total
    and mean pairwise distance, and d(total)/d(pred) (S, N, 2); gradients
    combine linearly. One pairwise kernel feeds both the repulsion term and
    the mean pairwise distance.
    """
    c_vals, c_grads = zip(*(_chamfer(p, g) for p, g in zip(pred, refs)))
    pairs = _pairwise(pred)
    r_vals, r_grad = _repulsion(pairs, weights.epsilon)
    i_vals, i_grad = _interior(pred, loops)
    c, r, i = np.array([c_vals, r_vals, i_vals])
    total = weights.chamfer * c + weights.repulsion * r + weights.interior * i
    grad = weights.chamfer * np.stack(c_grads) + weights.repulsion * r_grad
    grad += weights.interior * i_grad
    return np.column_stack((c, r, i, total, _off_diagonal(np.sqrt(pairs[2]), np.mean))), grad


def mean_pairwise_distance(points) -> float:
    """Mean L2 distance over distinct point pairs (0.0 for fewer than 2 points).

    Accepts a PointSet or any (N, 2) array-like.
    """
    xy = as_point_array(points.xy if isinstance(points, PointSet) else points)
    return _off_diagonal(np.sqrt(_pairwise(xy[None])[2]), np.mean)[0] if len(xy) >= 2 else 0.0
