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
