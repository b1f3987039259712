"""Independent reference implementations used only by the tests.

Deliberately written in a different style from the package (plain Python
loops, winding angles instead of ray casting, no shared helpers) so that a
bug in the implementation cannot hide in its own test.
"""

from __future__ import annotations

import math

import numpy as np


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


def params_to_vector(params) -> np.ndarray:
    return np.concatenate([a.ravel() for _, a in params.arrays()])


def vector_to_params(params, vec: np.ndarray):
    """Return a copy of params with values taken from the flat vector."""
    out = params.copy()
    offset = 0
    for _, a in out.arrays():
        n = a.size
        a[...] = vec[offset:offset + n].reshape(a.shape)
        offset += n
    assert offset == vec.size
    return out


def is_simple_double_loop(vertices) -> bool:
    """Closed polygon has no two edges that cross properly; pairwise loop.

    Shared endpoints and collinear touches do not count as crossings, and
    adjacent edges (which share a vertex) are skipped.
    """
    v = [(float(x), float(y)) for x, y in vertices]
    n = len(v)

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    def crosses(a, b, c, d):
        d1, d2 = orient(c, d, a), orient(c, d, b)
        d3, d4 = orient(a, b, c), orient(a, b, d)
        return ((d1 > 0) != (d2 > 0)) and d1 != 0 and d2 != 0 and \
               ((d3 > 0) != (d4 > 0)) and d3 != 0 and d4 != 0

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
    ``ParseError`` with the same messages as ``ingest.parse_msh_nodes``.
    """
    from loop2mesh.errors import ParseError

    lines = text.splitlines()
    start = None
    for i, line in enumerate(lines):
        if line.strip() == "$Nodes":
            start = i
            break
    if start is None:
        raise ParseError("missing $Nodes block")
    if start + 1 >= len(lines):
        raise ParseError("truncated $Nodes block: node count line missing")
    count_line = lines[start + 1].strip()
    try:
        declared = int(count_line)
    except ValueError:
        raise ParseError(f"line {start + 2}: invalid node count {count_line!r}") from None

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
            raise ParseError(f"line {offset}: expected 'id x y z', got {stripped!r}")
        try:
            node_id = int(tokens[0])
            x, y = float(tokens[1]), float(tokens[2])
            float(tokens[3])  # z parsed for validity, then discarded
        except ValueError:
            raise ParseError(f"line {offset}: malformed node line {stripped!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(f"line {offset}: non-finite coordinate {stripped!r}")
        ids.append(node_id)
        coords.append((x, y))
    if not terminated:
        raise ParseError("unterminated $Nodes block: $EndNodes missing")
    if len(coords) != declared:
        raise ParseError(f"node count mismatch: header declares {declared}, found {len(coords)}")
    if not coords:
        raise ParseError("mesh contains no nodes")
    order = np.argsort(np.asarray(ids), kind="stable")
    return np.asarray(coords, dtype=np.float64)[order]
