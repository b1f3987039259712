"""Independent reference implementations used only by the tests.

Deliberately written in a different style from the package (plain Python
loops, winding angles instead of ray casting, no shared helpers) so that a
bug in the implementation cannot hide in its own test. The exceptions are
``gradient``, a helper that completes the package's ``net.backward``,
``params_from_arrays``, which builds the package's ``net.NetworkParams``, and
the package's former broadcast loss kernels, kept verbatim as the
bit-equality oracle for the blocked ones (with the package's
``interior_penalty`` in ``broadcast_composite``).
"""

from __future__ import annotations

import math

import numpy as np

from loop2mesh.errors import InputError
from loop2mesh.losses import interior_penalty
from loop2mesh.net import NetworkParams, backward


def winding_inside(px: float, py: float, vertices) -> bool:
    """Strict containment by summed signed angles (winding number).

    Independent of the package's even-odd ray casting. Points on the
    boundary give an ill-defined winding sum; callers keep test points away
    from edges.
    """
    total = 0.0
    n = len(vertices)
    for i in range(n):
        ax, ay = vertices[i][0] - px, vertices[i][1] - py
        bx, by = vertices[(i + 1) % n][0] - px, vertices[(i + 1) % n][1] - py
        cross = ax * by - ay * bx
        dot = ax * bx + ay * by
        total += math.atan2(cross, dot)
    return abs(total) > math.pi  # ~2*pi inside, ~0 outside


def nearest_edge_broadcast(points, vertices) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-edge distance and closest point via (N, L, 2) broadcasting.

    The package's former ``geometry.nearest_edge``, kept as the bit-equality
    oracle for ``edge_query``: same per-element arithmetic, but the two axes
    are summed over a length-2 axis instead of written out.
    """
    pts = np.asarray(points, dtype=np.float64)
    a = np.asarray(vertices, dtype=np.float64)
    b = np.roll(a, -1, axis=0)
    ab = b - a
    denom = (ab ** 2).sum(axis=1)
    ap = pts[:, None, :] - a[None, :, :]
    t = np.clip((ap * ab[None, :, :]).sum(axis=2) / denom[None, :], 0.0, 1.0)
    q = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    d2 = ((pts[:, None, :] - q) ** 2).sum(axis=2)
    j = d2.argmin(axis=1)
    rows = np.arange(pts.shape[0])
    return np.sqrt(d2[rows, j]), q[rows, j]


def even_odd_edge_loop(points, vertices) -> np.ndarray:
    """Even-odd ray casting as a Python loop over the edges (bool (N,)).

    The package's former ``geometry._even_odd_inside``; horizontal edges are
    skipped under the half-open rule. Points on an edge are not excluded
    here: combine with ``nearest_edge_broadcast``'s distance > 0.
    """
    pts = np.asarray(points, dtype=np.float64)
    a = np.asarray(vertices, dtype=np.float64)
    b = np.roll(a, -1, axis=0)
    x = pts[:, 0]
    y = pts[:, 1]
    inside = np.zeros(pts.shape[0], dtype=bool)
    for (x1, y1), (x2, y2) in zip(a, b):
        if y1 == y2:
            continue
        cond = (y1 > y) != (y2 > y)
        xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= cond & (x < xint)
    return inside


def per_sample_composite(pred, refs, loops, weights) -> tuple[np.ndarray, np.ndarray]:
    """The composite objective one cloud at a time, as training evaluated it
    before the batched loss: per sample a Chamfer matrix, an (N, N) pairwise
    kernel read by repulsion and the mean pairwise distance, and the edge
    query as ``nearest_edge_broadcast`` plus ``even_odd_edge_loop``.

    The bit-equality oracle for ``losses.composite``: ``pred`` (S, N, 2),
    S reference arrays and S loops; returns the per-sample terms (S, 5) as
    chamfer, repulsion, interior, total, mean pairwise distance, and the
    gradient of each total (S, N, 2).
    """
    terms, grads = [], []
    for P, G, verts in zip(np.asarray(pred, dtype=np.float64), refs, loops):
        P, G = P.copy(), np.asarray(G, dtype=np.float64)
        n = P.shape[0]
        d2 = np.maximum(
            (P ** 2).sum(axis=1)[:, None] + (G ** 2).sum(axis=1)[None, :] - 2.0 * (P @ G.T), 0.0)
        nn_pg, nn_gp = d2.argmin(axis=1), d2.argmin(axis=0)
        c_val = float(d2[np.arange(n), nn_pg].sum() + d2[nn_gp, np.arange(G.shape[0])].sum())
        c_grad = 2.0 * (P - G[nn_pg])
        np.add.at(c_grad, nn_gp, 2.0 * (P[nn_gp] - G))

        dx = P[:, 0, None] - P[None, :, 0]
        dy = P[:, 1, None] - P[None, :, 1]
        pd2 = dx * dx + dy * dy
        off = ~np.eye(n, dtype=bool)
        r = np.sqrt(pd2 + weights.epsilon)
        r_val = 1.0 / (float(r[off].sum()) / (n * n))
        d_mean = -2.0 * np.column_stack(((dx / r).sum(axis=0), (dy / r).sum(axis=0))) / (n * n)
        r_grad = -(r_val ** 2) * d_mean

        dist, closest = nearest_edge_broadcast(P, verts)
        inside = even_odd_edge_loop(P, verts) & (dist > 0.0)
        i_val = float((dist[inside] ** 2).sum()) / n
        i_grad = np.zeros_like(P)
        i_grad[inside] = (2.0 / n) * (P[inside] - closest[inside])

        total = weights.chamfer * c_val + weights.repulsion * r_val + weights.interior * i_val
        grads.append(weights.chamfer * c_grad + weights.repulsion * r_grad
                     + weights.interior * i_grad)
        terms.append((c_val, r_val, i_val, float(total), float(np.sqrt(pd2)[off].mean())))
    return np.array(terms), np.array(grads)


def brute_chamfer(pred, ref) -> float:
    """Double-loop symmetric sum of nearest-neighbour squared distances."""
    pred = [(float(x), float(y)) for x, y in pred]
    ref = [(float(x), float(y)) for x, y in ref]
    total = 0.0
    for (px, py) in pred:
        total += min((px - gx) ** 2 + (py - gy) ** 2 for gx, gy in ref)
    for (gx, gy) in ref:
        total += min((px - gx) ** 2 + (py - gy) ** 2 for px, py in pred)
    return total


def brute_repulsion_value(points, epsilon: float) -> float:
    """Inverse mean pairwise smoothed distance, self-pairs excluded."""
    pts = [(float(x), float(y)) for x, y in points]
    n = len(pts)
    acc = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dx = pts[i][0] - pts[j][0]
            dy = pts[i][1] - pts[j][1]
            acc += math.sqrt(dx * dx + dy * dy + epsilon)
    return 1.0 / (acc / (n * n))


def brute_mean_pairwise(points) -> float:
    pts = [(float(x), float(y)) for x, y in points]
    n = len(pts)
    if n < 2:
        return 0.0
    acc = 0.0
    cnt = 0
    for i in range(n):
        for j in range(i + 1, n):
            acc += math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
            cnt += 1
    return acc / cnt


def fd_grad_points(f, xy: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of scalar f(xy) w.r.t. each coordinate."""
    xy = np.asarray(xy, dtype=np.float64)
    grad = np.zeros_like(xy)
    for idx in np.ndindex(*xy.shape):
        plus = xy.copy()
        minus = xy.copy()
        plus[idx] += eps
        minus[idx] -= eps
        grad[idx] = (f(plus) - f(minus)) / (2.0 * eps)
    return grad


def fd_grad_flat(f, theta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f(theta) over a flat vector."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for k in range(theta.size):
        plus = theta.copy()
        minus = theta.copy()
        plus[k] += eps
        minus[k] -= eps
        grad[k] = (f(plus) - f(minus)) / (2.0 * eps)
    return grad


def reference_adam(params: list[np.ndarray], grads_per_step, lr=1e-3,
                   beta1=0.9, beta2=0.999, eps=1e-8) -> list[np.ndarray]:
    """Textbook Adam with bias correction; one update per grads entry."""
    ps = [np.array(p, dtype=np.float64) for p in params]
    ms = [np.zeros_like(p) for p in ps]
    vs = [np.zeros_like(p) for p in ps]
    for t, grads in enumerate(grads_per_step, start=1):
        for i, g in enumerate(grads):
            g = np.asarray(g, dtype=np.float64)
            ms[i] = beta1 * ms[i] + (1 - beta1) * g
            vs[i] = beta2 * vs[i] + (1 - beta2) * g * g
            mhat = ms[i] / (1 - beta1 ** t)
            vhat = vs[i] / (1 - beta2 ** t)
            ps[i] = ps[i] - lr * mhat / (np.sqrt(vhat) + eps)
    return ps


def unfused_backward(params, trace, d_output) -> np.ndarray:
    """The package's former ``net.backward``, kept as the bit-equality oracle
    for the fused output layer: the whole gradient in a new vector laid out
    like ``params.flat``, w3's slice written as one product."""
    grad = np.empty_like(params.flat)
    gw1, gb1, gw2, gb2, gw3, gb3 = params.split(grad)
    g3 = d_output * trace.gate
    np.matmul(g3.T, trace.a2, out=gw3)
    g3.sum(axis=0, out=gb3)
    dz2 = (g3 @ params.w3) * (trace.z2 > 0.0)
    np.matmul(dz2.T, trace.a1, out=gw2)
    dz2.sum(axis=0, out=gb2)
    dz1 = (dz2 @ params.w2) * (trace.z1 > 0.0)
    np.matmul(dz1.T, trace.x, out=gw1)
    dz1.sum(axis=0, out=gb1)
    return grad


def gradient(params, trace, d_output) -> np.ndarray:
    """The whole gradient in a new vector laid out like ``params.flat``: the
    package's ``net.backward`` plus w3's slice g3.T @ a2, which the package
    builds only inside ``train.adam_step``. Not independent of the package:
    it runs ``backward``, so the finite-difference tests check that code."""
    grad = np.empty_like(params.flat)
    np.matmul(backward(params, trace, d_output, grad).T, trace.a2, out=params.split(grad)[4])
    return grad


def unfused_adam_step(flat, grads, moments, *, lr, t, block=32_768) -> None:
    """The package's former ``train.adam_step``, the bit-equality oracle for
    the fused update: the same blocked arithmetic over the whole gradient
    vector, in a full-length (2, P) scratch allocated per call."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    bc1, bc2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
    scratch = np.empty((2, grads.size))
    for lo in range(0, grads.size, block):
        blk = slice(lo, lo + block)
        g, m, v, buf, step = grads[blk], *moments[:, blk], *scratch[:, blk]
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=buf)
        v *= beta2
        v += np.multiply(np.multiply(g, 1.0 - beta2, out=buf), g, out=buf)
        np.sqrt(np.divide(v, bc2, out=buf), out=buf)
        buf += eps
        np.divide(m, bc1, out=step)
        step *= lr
        flat[blk] -= np.divide(step, buf, out=step)


def chamfer_matrix_three_temporaries(P, G) -> np.ndarray:
    """The package's former Chamfer distance matrix (N, M), written out as
    |p|^2 + |g|^2 - 2 p.g with a temporary per term, clipped at zero."""
    return np.maximum((P ** 2).sum(axis=1)[:, None] + (G ** 2).sum(axis=1) - 2.0 * (P @ G.T), 0.0)


def off_diagonal_by_mask(m) -> np.ndarray:
    """The off-diagonal entries of a square matrix, row-major, selected by a
    boolean mask: the package's former selection."""
    return m[~np.eye(m.shape[0], dtype=bool)]


# The package's former broadcast loss kernels, verbatim: one (N, M) norm
# temporary per Chamfer call and (S, N, N) arrays for the pair terms. The
# bit-equality oracle for ``losses.composite`` and its blocked kernels.

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


def broadcast_composite(pred, refs, loops, weights) -> tuple[np.ndarray, np.ndarray]:
    """The package's former ``losses.composite`` on the broadcast kernels above
    (and the package's ``interior_penalty``): the terms (S, 5) and the gradient."""
    c_vals, c_grads = zip(*(chamfer(p, g) for p, g in zip(pred, refs)))
    pairs = _pairwise(pred)
    r_vals, r_grad = repulsion(pairs, weights.epsilon)
    i_vals, i_grad = interior_penalty(pred, loops)
    c, r, i = np.array([c_vals, r_vals, i_vals])
    total = weights.chamfer * c + weights.repulsion * r + weights.interior * i
    grad = weights.chamfer * np.stack(c_grads) + weights.repulsion * r_grad
    grad += weights.interior * i_grad
    return np.column_stack((c, r, i, total, mean_pairwise_distance(pairs))), grad


def params_from_arrays(w1, b1, w2, b2, w3, b3):
    """``NetworkParams`` holding copies of six arrays, concatenated into one
    new flat vector (the package's former array-wise constructor)."""
    arrays = [np.asarray(a, dtype=np.float64) for a in (w1, b1, w2, b2, w3, b3)]
    return NetworkParams(np.concatenate([a.ravel() for a in arrays]), [a.shape for a in arrays])


def params_to_vector(params) -> np.ndarray:
    return np.concatenate([a.ravel() for _, a in params.arrays()])


def vector_to_params(params, vec: np.ndarray):
    """Return a copy of params with values taken from the flat vector."""
    out = params_from_arrays(*(a for _, a in params.arrays()))
    offset = 0
    for _, a in out.arrays():
        n = a.size
        a[...] = vec[offset:offset + n].reshape(a.shape)
        offset += n
    assert offset == vec.size
    return out


def chord_fields_apply(x_min: float, chord: float, points) -> np.ndarray:
    """The package's former chord-map arithmetic on its two fields: x shifted
    by x_min, then both axes divided by the chord."""
    return (np.asarray(points, dtype=np.float64) - (x_min, 0.0)) / chord


def standardize_fields(mean_x: float, mean_y: float, scale_x: float, scale_y: float,
                       xy) -> np.ndarray:
    """The package's former standardise forward map on its four fields."""
    return (np.asarray(xy) - np.array([mean_x, mean_y])) / np.array([scale_x, scale_y])


def invert_standardize_fields(mean_x: float, mean_y: float, scale_x: float, scale_y: float,
                              xy) -> np.ndarray:
    """The package's former standardise inverse map on its four fields."""
    return np.asarray(xy) * np.array([scale_x, scale_y]) + np.array([mean_x, mean_y])


def is_simple_double_loop(vertices) -> bool:
    """Closed polygon has no two edges that cross properly; pairwise loop.

    Shared endpoints and collinear touches do not count as crossings, and
    adjacent edges (which share a vertex) are skipped. Two edges cross only
    if their bounding boxes also meet: rounding can make two disjoint pieces
    of one straight side straddle each other's line.
    """
    v = [(float(x), float(y)) for x, y in vertices]
    n = len(v)

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def crosses(a, b, c, d):
        d1, d2 = orient(c, d, a), orient(c, d, b)
        d3, d4 = orient(a, b, c), orient(a, b, d)
        boxes_meet = all(min(a[k], b[k]) <= max(c[k], d[k]) and min(c[k], d[k]) <= max(a[k], b[k])
                         for k in (0, 1))
        return ((d1 > 0) != (d2 > 0)) and d1 != 0 and d2 != 0 and \
               ((d3 > 0) != (d4 > 0)) and d3 != 0 and d4 != 0 and boxes_meet

    for i in range(n):
        for j in range(i + 1, n):
            if (j + 1) % n == i or (i + 1) % n == j:
                continue
            if crosses(v[i], v[(i + 1) % n], v[j], v[(j + 1) % n]):
                return False
    return True


def parse_msh_nodes_line_by_line(text: str) -> np.ndarray:
    """Gmsh v2 ``$Nodes`` block read one line at a time with ``int``/``float``.

    Returns the (n, 2) x/y array sorted stably by node id and raises
    ``InputError`` with the same messages as ``ingest.parse_msh_nodes``.
    """
    from loop2mesh.errors import InputError

    lines = text.splitlines()
    start = None
    for i, line in enumerate(lines):
        if line.strip() == "$Nodes":
            start = i
            break
    if start is None:
        raise InputError("missing $Nodes block")
    if start + 1 >= len(lines):
        raise InputError("truncated $Nodes block: node count line missing")
    count_line = lines[start + 1].strip()
    try:
        declared = int(count_line)
    except ValueError:
        raise InputError(f"line {start + 2}: invalid node count {count_line!r}") from None

    ids: list[int] = []
    coords: list[tuple[float, float]] = []
    terminated = False
    for offset, line in enumerate(lines[start + 2:], start=start + 3):
        stripped = line.strip()
        if stripped == "$EndNodes":
            terminated = True
            break
        if not stripped:
            continue
        tokens = stripped.split()
        if len(tokens) != 4:
            raise InputError(f"line {offset}: expected 'id x y z', got {stripped!r}")
        try:
            node_id = int(tokens[0])
            x, y = float(tokens[1]), float(tokens[2])
            float(tokens[3])  # z parsed for validity, then discarded
        except ValueError:
            raise InputError(f"line {offset}: malformed node line {stripped!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InputError(f"line {offset}: non-finite coordinate {stripped!r}")
        ids.append(node_id)
        coords.append((x, y))
    if not terminated:
        raise InputError("unterminated $Nodes block: $EndNodes missing")
    if len(coords) != declared:
        raise InputError(f"node count mismatch: header declares {declared}, found {len(coords)}")
    if not coords:
        raise InputError("mesh contains no nodes")
    order = np.argsort(np.asarray(ids), kind="stable")
    return np.asarray(coords, dtype=np.float64)[order]


def points_csv_text_per_point(xy) -> str:
    """The points CSV with one f-string per point (the package's former
    ``cli._points_csv_text``)."""
    return "\n".join(["x,y", *(f"{x!r},{y!r}" for x, y in np.asarray(xy).tolist())]) + "\n"


def svg_text_per_point(*, viewport, polylines=(), point_layers=(),
                       width: int = 900, height: int = 700) -> str:
    """The SVG scene with one f-string per point and separate x and y pixel
    arrays (the package's former ``svg.render_svg``), returned as text."""
    margin = 12.0
    xmin, xmax, ymin, ymax = map(float, viewport)
    sx = (width - 2 * margin) / (xmax - xmin)
    sy = (height - 2 * margin) / (ymax - ymin)

    def to_px(xy):
        xy = np.asarray(xy, dtype=np.float64)
        return (margin + (xy[:, 0] - xmin) * sx).tolist(), \
            (height - (margin + (xy[:, 1] - ymin) * sy)).tolist()

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for xy, stroke, stroke_width, closed in polylines:
        xy = np.asarray(xy, dtype=np.float64)
        if closed and xy.shape[0] > 1:
            xy = np.vstack([xy, xy[:1]])
        pts = " ".join([f"{x:.2f},{y:.2f}" for x, y in zip(*to_px(xy))])
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
                     f'stroke-width="{stroke_width}"/>')
    for xy, fill, radius in point_layers:
        circles = [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{radius}"/>' for x, y in zip(*to_px(xy))]
        parts.append("\n".join([f'<g fill="{fill}">', *circles, "</g>"]))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
