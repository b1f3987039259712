"""Objective terms over predicted point clouds, one array function each.

Every term returns its value and its exact analytic gradient with respect to
the predicted coordinates, shaped like the cloud. ``composite`` weighs them
over S clouds (S, N, 2): one pairwise kernel feeds repulsion and the logged
mean pairwise distance, one intruder query (``geometry.intruders``) the
interior term, and Chamfer runs per sample (its (N, M) matrix stays in
cache). Each per-sample sum keeps its one-cloud order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import intruders


def chamfer(P: np.ndarray, G: np.ndarray, out=None) -> tuple[float, np.ndarray]:
    """Sum of squared nearest-neighbour distances of P (N, 2) and G (M, 2),
    both directions, and its gradient (N, 2); the (N, M) matrix of squared
    distances is built in ``out`` if given.

    value = sum_p min_g |p-g|^2  +  sum_g min_p |g-p|^2   (sums, not means).

    Nearest-neighbour ties resolve to the lowest index and the gradient
    flows only through the winning neighbour: each predicted point p gets
    2(p - g*) from the first term plus 2(p - g) for every reference g whose
    nearest predicted point is p.
    """
    d2 = np.matmul(-2.0 * P, G.T, out=out)  # scaling by -2 is exact, so this sums as
    d2 += (P ** 2).sum(axis=1)[:, None] + (G ** 2).sum(axis=1)  # |p|^2 + |g|^2 - 2 p.g
    np.maximum(d2, 0.0, out=d2)
    nn_pg, nn_gp = d2.argmin(axis=1), d2.argmin(axis=0)
    value = float(d2[np.arange(P.shape[0]), nn_pg].sum() + d2[nn_gp, np.arange(G.shape[0])].sum())
    grad = 2.0 * (P - G[nn_pg])
    np.add.at(grad, nn_gp, 2.0 * (P[nn_gp] - G))
    return value, grad


def _pairwise(xy: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one pairwise kernel of S clouds (S, N, 2): per-axis differences
    ``dx[s, i, j] = x_i - x_j`` and ``dy`` likewise, and the squared
    distances, each (S, N, N)."""
    dx = xy[:, :, 0, None] - xy[:, None, :, 0]
    dy = xy[:, :, 1, None] - xy[:, None, :, 1]
    return dx, dy, dx * dx + dy * dy


def _off_diagonal(a: np.ndarray, reduce) -> list[float]:
    # per (N, N) slice, the off-diagonal entries in row-major order as one
    # contiguous vector: after the first entry, every (N+1)th is diagonal
    n = a.shape[1]
    return [float(reduce(m.ravel()[1:].reshape(n - 1, n + 1)[:, :n].ravel())) for m in a]


def repulsion(pairs, epsilon: float) -> tuple[list[float], np.ndarray]:
    """Inverse of the mean pairwise distance of each of S clouds, from their
    ``_pairwise`` kernel; returns S values and the gradient (S, N, 2).

    The mean runs over all ordered index pairs (divisor N^2); self-pairs
    contribute exactly zero while every other pair is stabilised as
    sqrt(|pi-pj|^2 + epsilon), so coincident points stay finite. Larger
    spread means a smaller value. Needs N >= 2 and epsilon > 0.
    """
    dx, dy, d2 = pairs
    n = d2.shape[1]
    if n < 2:
        raise InputError("repulsion needs at least 2 points")
    if not epsilon > 0.0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    r = np.sqrt(d2 + epsilon)
    values = [1.0 / (total / (n * n)) for total in _off_diagonal(r, np.sum)]  # 1 / mean
    # d(mean)/d(p_i) = (2/N^2) sum_j (p_i - p_j) / r_ij; self-pairs add 0/r = 0.
    # dx/r is antisymmetric, so each row sum is minus the column sum, which
    # NumPy accumulates row by row in index order.
    d_mean = -2.0 * np.stack(((dx / r).sum(axis=1), (dy / r).sum(axis=1)), axis=-1) / (n * n)
    # value ** 2 as a Python float: NumPy's array square can round differently
    scale = np.array([-(v ** 2) for v in values])
    return values, scale[:, None, None] * d_mean


def mean_pairwise_distance(pairs) -> list[float]:
    """Mean L2 distance over the distinct point pairs of each of S clouds,
    from their ``_pairwise`` kernel; 0.0 for clouds of fewer than 2 points."""
    if pairs[2].shape[1] < 2:
        return [0.0] * len(pairs[2])
    return _off_diagonal(np.sqrt(pairs[2]), np.mean)


def interior_penalty(xy: np.ndarray, loops: np.ndarray) -> tuple[list[float], np.ndarray]:
    """Mean squared depth of the points of S clouds (S, N, 2) strictly inside
    their loops (S, L, 2); returns S values and the gradient (S, N, 2).

    value = (1/N) sum over intruders of dist(p, nearest edge)^2; zero for a
    cloud entirely outside or on the boundary. An intruder's gradient is
    (2/N)(p - q) with q its nearest edge point, so a descent step moves it
    straight back toward the wall. Points exactly on an edge count as
    outside and carry zero gradient.
    """
    s, i, dist, closest = intruders(xy, loops)
    n = xy.shape[1]
    # row-major intruders: each sample's depths in point order, summed alone
    values = [float((d ** 2).sum()) / n for d in np.split(dist, np.searchsorted(s, range(1, len(xy))))]
    grad = np.zeros_like(xy)
    grad[s, i] = (2.0 / n) * (xy[s, i] - closest)
    return values, grad


@dataclass(frozen=True)
class LossWeights:
    """The composite objective's weights; ``train.TrainConfig`` checks them."""

    chamfer: float = 1.0
    repulsion: float = 0.0
    interior: float = 0.0
    epsilon: float = 1e-8  # repulsion stabiliser, inside the square root


def composite(pred: np.ndarray, refs, loops: np.ndarray, weights: LossWeights,
              out=None) -> tuple[np.ndarray, np.ndarray]:
    """Weighted sum of the three terms for S clouds (S, N, 2), each against
    its own (M, 2) reference (refs[s]; train passes an (S, M, 2) stack and an
    (N, M) ``out`` for ``chamfer``) and loop ((S, L, 2) vertices): the terms
    (S, 5), columns chamfer, repulsion, interior, total and mean pairwise
    distance, and d(total)/d(pred) (S, N, 2)."""
    c_vals, c_grads = zip(*(chamfer(p, g, out) for p, g in zip(pred, refs)))
    pairs = _pairwise(pred)
    r_vals, r_grad = repulsion(pairs, weights.epsilon)
    i_vals, i_grad = interior_penalty(pred, loops)
    c, r, i = np.array([c_vals, r_vals, i_vals])
    total = weights.chamfer * c + weights.repulsion * r + weights.interior * i
    grad = weights.chamfer * np.stack(c_grads) + weights.repulsion * r_grad
    grad += weights.interior * i_grad
    return np.column_stack((c, r, i, total, mean_pairwise_distance(pairs))), grad
