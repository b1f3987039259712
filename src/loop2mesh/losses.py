"""Objective terms over predicted point clouds, one array function each.

Every term returns its value and its exact analytic gradient with respect to
the predicted coordinates, shaped like the cloud. ``composite`` weighs them
over S clouds (S, N, 2): one pair kernel (``_pairs``) feeds repulsion and the
logged mean pairwise distance, one intruder query (``geometry.intruders``)
the interior term, and Chamfer runs per sample. Each per-sample sum keeps its
one-cloud order.

No call allocates an (N, M) or (S, N, N) array. Chamfer's (N, M) matrix
(4.8 MB at N=400, M=1500, more than a 2 MiB L2 cache) lives in a caller's
buffer and is finished in L2-sized row and column blocks; the pair kernel
works in L2-sized (S, N, B) column slabs and sums its two off-diagonal
streams through a rolling buffer along NumPy's pairwise-summation tree.
``workspace`` sizes these buffers once for a caller that loops. Every value
and gradient keeps the bits of the broadcast kernels they replace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .geometry import intruders


# The loss kernels work in blocks of at most this many float64 elements (256 KiB),
# so the four slab arrays of the pair kernel, or one block of Chamfer rows,
# stay in a 2 MiB L2 cache.
_BLOCK = 32_768
# The pair sums' leaves: nodes of NumPy's pairwise_sum split of at most this
# many elements, each summed by np.sum. NumPy itself splits only nodes of more
# than 128, so any leaf size from 128 up gives np.sum's tree.
_LEAF = 8_192


def _chamfer_blocks(n: int, m: int) -> tuple[int, int, int]:
    """Chamfer's blocks of at most max(_BLOCK, M) or max(_BLOCK, N) elements:
    rows of the (N, M) matrix per row block, columns per column block, and
    the scratch entries either needs."""
    rows, cols = min(n, max(1, _BLOCK // m)), min(m, max(1, _BLOCK // n))
    return rows, cols, max(rows * m, cols * n)


def _slab(s: int, n: int) -> tuple[int, int]:
    """The pair kernel's rows per slab for S clouds of N >= 2 points, at most
    max(1, _BLOCK // SN), and its rolling buffer's entries per stream: two
    leaves and one slab's rows (see ``_tree_sum``)."""
    b = min(n, max(1, _BLOCK // (s * n)))
    return b, min(n * (n - 1), 2 * _LEAF + b * (n - 1))


def workspace_shapes(s: int, n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """The shapes of ``workspace(s, n, m)``'s three arrays, from integers alone."""
    b, size = _slab(s, n)
    return (n, m), (max(2 * s * n * (2 * b + 1), _chamfer_blocks(n, m)[2]),), (2, s, size)


def workspace(s: int, n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scratch for ``composite(..., out=)`` on S clouds of N >= 2 points
    against (M, 2) references, for its caller to allocate once: the (N, M)
    Chamfer matrix, one flat block scratch that Chamfer's row blocks and the
    pair kernel's slabs share, and the (2, S, ·) rolling buffer of the pair
    kernel's two off-diagonal streams."""
    return tuple(map(np.empty, workspace_shapes(s, n, m)))


def chamfer(P: np.ndarray, G: np.ndarray, out=None, scratch=None) -> tuple[float, np.ndarray]:
    """Sum of squared nearest-neighbour distances of P (N, 2) and G (M, 2),
    both directions, and its gradient (N, 2); the (N, M) matrix of squared
    distances is built in ``out``, and its row and column blocks in the flat
    ``scratch`` (``workspace``'s), if given.

    value = sum_p min_g |p-g|^2  +  sum_g min_p |g-p|^2   (sums, not means).

    Nearest-neighbour ties resolve to the lowest index and the gradient
    flows only through the winning neighbour: each predicted point p gets
    2(p - g*) from the first term plus 2(p - g) for every reference g whose
    nearest predicted point is p.
    """
    n, m = len(P), len(G)
    # one full product: BLAS rounds a row block's product differently
    d2 = np.matmul(-2.0 * P, G.T, out=out)  # scaling by -2 is exact, so this sums as
    # |p|^2 + |g|^2 - 2 p.g, the norms added as the rank-2 product [a, 1] @ [1; b]:
    # both terms are times exactly 1.0, so its one rounding is that of a + b
    lhs, rhs = np.ones((n, 2)), np.ones((2, m))
    lhs[:, 0], rhs[1] = (P ** 2).sum(axis=1), (G ** 2).sum(axis=1)
    rows, cols, size = _chamfer_blocks(n, m)
    if scratch is None:
        scratch = np.empty(size)
    nn_pg, nn_gp = np.empty(n, dtype=np.intp), np.empty(m, dtype=np.intp)
    for lo in range(0, n, rows):  # each block clamped and row-argmin'd while in cache
        block, part = scratch[:min(rows, n - lo) * m].reshape(-1, m), d2[lo:lo + rows]
        part += np.matmul(lhs[lo:lo + rows], rhs, out=block)
        np.maximum(part, 0.0, out=part)
        part.argmin(axis=1, out=nn_pg[lo:lo + rows])
    # NumPy's argmin(axis=0) copies the whole matrix transposed; copy a block
    # of columns at a time into the scratch instead, and argmin its rows
    for lo in range(0, m, cols):
        block = scratch[:min(cols, m - lo) * n].reshape(-1, n)
        np.copyto(block, d2[:, lo:lo + cols].T)
        block.argmin(axis=1, out=nn_gp[lo:lo + cols])
    value = float(d2[np.arange(n), nn_pg].sum() + d2[nn_gp, np.arange(m)].sum())
    grad = 2.0 * (P - G[nn_pg])
    back = 2.0 * (P[nn_gp] - G)
    for k in (0, 1):  # NumPy's 1-D add.at is fast; per coordinate, the order is the same
        np.add.at(grad[:, k], nn_gp, back[:, k])
    return value, grad


def _split(n: int):
    """NumPy's pairwise_sum tree of n elements down to nodes of at most _LEAF:
    a leaf is its length, an inner node the pair of its halves, the left one
    n // 2 rounded down to a multiple of 8."""
    if n <= _LEAF:
        return n
    half = n // 2 - n // 2 % 8
    return _split(half), _split(n - half)


def _leaves(tree) -> list[int]:
    return [tree] if isinstance(tree, int) else _leaves(tree[0]) + _leaves(tree[1])


def _fold(tree, sums):
    """The tree's sum from its leaves' sums (an iterator, in order), added as NumPy adds them."""
    return next(sums) if isinstance(tree, int) else _fold(tree[0], sums) + _fold(tree[1], sums)


def _tree_sum(pieces, n: int, stream: np.ndarray) -> np.ndarray:
    """``np.sum`` along the last axis of a stream of n entries, bit for bit,
    without holding it: ``pieces`` are arrays whose leading axes match
    ``stream``'s and whose other axes, in C order, are the stream's next
    entries. They pass through the rolling buffer ``stream``; each leaf of
    NumPy's pairwise_sum tree is summed by ``np.sum`` once whole, and the leaf
    sums are added up the tree as NumPy adds them. ``stream`` holds at least
    min(n, 2 _LEAF + the longest piece) entries per row. A piece that
    would overrun it then finds its end past 2 _LEAF, so the open leaf's
    entries (fewer than _LEAF) start past _LEAF and move to the front
    without overlapping themselves, which NumPy would copy through a
    temporary."""
    tree = _split(n)
    leaves, sums = iter(_leaves(tree)), []
    lead = stream.shape[:-1]
    leaf, start, end = next(leaves), 0, 0  # the open leaf's length and start, the buffer's end
    for piece in pieces:
        k = piece.size // math.prod(lead)
        if end + k > stream.shape[-1]:  # the open leaf's entries move to the front
            stream[..., :end - start] = stream[..., start:end]
            start, end = 0, end - start
        stream[..., end:end + k].reshape(piece.shape)[...] = piece  # splits the last axis: a view
        end += k
        while leaf is not None and start + leaf <= end:
            sums.append(stream[..., start:start + leaf].sum(axis=-1))
            start += leaf
            leaf = next(leaves, None)
    return _fold(tree, iter(sums))


def _pairs(xy: np.ndarray, epsilon: float, scratch=None, stream=None):
    """The one pair kernel of S clouds (S, N, 2), one (S, B, N) slab of rows
    at a time in the flat ``scratch`` (``workspace``'s, if given): per cloud
    the sums of the off-diagonal r_ij = sqrt(|pi-pj|^2 + epsilon) and of the
    off-diagonal |pi-pj|, each equal to ``np.sum`` of its row-major
    (N(N-1),) vector, as a (2, S) array; and the column sums
    c_j = sum_i (p_i - p_j) / r_ij, (2, S, N), one row per coordinate, each
    summed over i in index order.

    The slabs' rows pass, diagonal left out, to ``_tree_sum`` through the
    rolling ``stream``; the column sums run on across slabs from a leading
    row that holds them, so each stays one row-by-row sum. (It holds +0.0
    before the first slab: +0.0 + q is q but for the sign of a zero, and the
    +0.0 diagonal entry of each column settles that sign either way.)
    """
    if not epsilon > 0.0:
        raise InputError(f"epsilon must be positive, got {epsilon}")
    s, n, _ = xy.shape
    cols = np.zeros((2, s, n))
    if n < 2:
        return np.zeros((2, s)), cols
    b, size = _slab(s, n)
    if scratch is None:
        scratch = np.empty(2 * s * n * (2 * b + 1))
    if stream is None:
        stream = np.empty((2, s, size))
    # x_i - x_j as the rank-2 product [x_i, 1] @ [1; -x_j], one rounding as in
    # the subtraction, which it equals but for the sign of a zero: x_i = -0.0,
    # x_j = 0.0 gives +0.0, not -0.0. Squares cannot tell, nor can the column
    # sums: each holds its +0.0 diagonal entry, after which both agree.
    lhs, rhs = np.ones((2, s, n, 2)), np.ones((2, s, 2, n))
    lhs[..., 0] = xy.transpose(2, 0, 1)
    np.negative(xy.transpose(2, 0, 1), out=rhs[:, :, 1])

    def rows():
        """Each slab's rows of the two streams, diagonal left out, as pieces."""
        for lo in range(0, n, b):
            w = min(b, n - lo)
            u = scratch[:2 * s * (w + 1) * n].reshape(2, s, w + 1, n)  # sums so far; dx, dy
            v = scratch[2 * s * (w + 1) * n:2 * s * (2 * w + 1) * n].reshape(2, s, w, n)
            (dx, dy), (r, d) = u[:, :, 1:], v  # r and |pi-pj|
            u[:, :, 0] = cols
            np.matmul(lhs[:, :, lo:lo + w], rhs, out=u[:, :, 1:])  # dx[s, i, j] = x_i - x_j
            np.multiply(dx, dx, out=d)
            d += np.multiply(dy, dy, out=r)  # the squared distances
            np.sqrt(np.add(d, epsilon, out=r), out=r)
            np.sqrt(d, out=d)
            u[:, :, 1:] /= r
            u.sum(axis=2, out=cols)  # row by row, in index order
            # row lo + k's diagonal entry sits at lo + k (n + 1) of the slab's rows
            flat, tail = v.reshape(2, s, w * n), lo + (w - 1) * (n + 1) + 1
            yield flat[:, :, :lo]
            yield flat[:, :, lo + 1:tail].reshape(2, s, w - 1, n + 1)[:, :, :, :n]
            yield flat[:, :, tail:]

    return _tree_sum(rows(), n * (n - 1), stream), cols


def repulsion(pairs) -> tuple[list[float], np.ndarray]:
    """Inverse of the mean pairwise distance of each of S clouds, from their
    ``_pairs`` kernel; returns S values and the gradient (S, N, 2).

    The mean runs over all ordered index pairs (divisor N^2); self-pairs
    contribute exactly zero while every other pair is stabilised as
    sqrt(|pi-pj|^2 + epsilon), so coincident points stay finite. Larger
    spread means a smaller value. Needs N >= 2 (and the kernel epsilon > 0).
    """
    sums, cols = pairs
    n = cols.shape[2]
    if n < 2:
        raise InputError("repulsion needs at least 2 points")
    values = [1.0 / (total / (n * n)) for total in sums[0].tolist()]  # 1 / mean
    # d(mean)/d(p_i) = (2/N^2) sum_j (p_i - p_j) / r_ij; self-pairs add 0/r = 0.
    # (p - p')/r is antisymmetric, so each row sum is minus the kernel's column sum.
    d_mean = -2.0 * np.stack(tuple(cols), axis=-1) / (n * n)
    # value ** 2 as a Python float: NumPy's array square can round differently
    scale = np.array([-(v ** 2) for v in values])
    return values, scale[:, None, None] * d_mean


def mean_pairwise_distance(pairs) -> list[float]:
    """Mean L2 distance over the distinct point pairs of each of S clouds,
    from their ``_pairs`` kernel; 0.0 for clouds of fewer than 2 points."""
    sums, cols = pairs
    n = cols.shape[2]
    if n < 2:
        return [0.0] * cols.shape[1]
    return (sums[1] / (n * (n - 1))).tolist()


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
    its own (M, 2) reference (refs[s]; train passes an (S, M, 2) stack) and
    loop ((S, L, 2) vertices): the terms (S, 5), columns chamfer, repulsion,
    interior, total and mean pairwise distance, and d(total)/d(pred)
    (S, N, 2). ``out`` is a ``workspace``, or None for scratch of its own."""
    matrix, scratch, stream = (None, None, None) if out is None else out
    c_vals, c_grads = zip(*(chamfer(p, g, matrix, scratch) for p, g in zip(pred, refs)))
    pairs = _pairs(pred, weights.epsilon, scratch, stream)
    r_vals, r_grad = repulsion(pairs)
    i_vals, i_grad = interior_penalty(pred, loops)
    c, r, i = np.array([c_vals, r_vals, i_vals])
    total = weights.chamfer * c + weights.repulsion * r + weights.interior * i
    grad = weights.chamfer * np.stack(c_grads) + weights.repulsion * r_grad
    grad += weights.interior * i_grad
    return np.column_stack((c, r, i, total, mean_pairwise_distance(pairs))), grad
