"""Distributional comparison of point clouds: the scoring protocol.

A separable Gaussian-kernel density is summed at the cell centers of a
``GRID`` x ``GRID`` grid over a window ``((xmin, xmax), (ymin, ymax))`` and
normalised to unit mass; two masses over the same window are compared with a
stabilised Kullback-Leibler score (natural log, ``EPSILON`` only in the
denominator, clipped at zero). A prediction is scored over the ``CENTER``
window and over the truth's padded bounding box, the whole window.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from .errors import InputError
from .geometry import as_point_array, padded_bbox

GRID = 100  # cells per window axis
EPSILON = 1e-10  # added to the reference mass in the KL denominator
CENTER = ((-0.5, 1.5), (-0.4, 0.4))  # near field of a chord-normalised airfoil

_WINDOWS = ("center", "whole")  # a KL table names each by its initial


def whole_window(truth: np.ndarray) -> tuple[tuple[float, float], tuple[float, float]]:
    """Truth cloud (N, 2) bounding box, padded by ``geometry.BBOX_PAD`` of each axis extent."""
    if not len(truth):
        raise InputError("truth cloud is empty")
    lo, hi = padded_bbox(truth)
    if not (lo[0] < hi[0] and lo[1] < hi[1]):  # padding keeps a zero extent zero
        raise InputError("truth cloud has zero extent on an axis")
    for a, b in zip(lo, hi):
        if not (np.isfinite(a) and np.isfinite(b)):  # an extent past the float range
            raise InputError(f"window range ({a}, {b}) must be finite and non-empty")
    return (lo[0], hi[0]), (lo[1], hi[1])


def scott_bandwidth(xy: np.ndarray, window) -> tuple[float, float]:
    """Scott's rule per axis, (hx, hy), fitted on the points xy (N, 2) that
    fall inside the window, its boundary included.

    h = sigma * n^(-1/6) for 2D data, with the population sigma.
    """
    (x0, x1), (y0, y1) = window
    x, y = xy[:, 0], xy[:, 1]
    pts = xy[(x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)]
    if pts.shape[0] < 2:
        raise InputError("bandwidth fit needs at least 2 points inside the window")
    with np.errstate(over="ignore"):  # a far point gives sigma inf, rejected below
        sigma = pts.std(axis=0)
    if sigma[0] == 0.0 or sigma[1] == 0.0:
        raise InputError("zero variance inside the window; cannot fit a bandwidth")
    factor = pts.shape[0] ** (-1.0 / 6.0)
    hx, hy = float(sigma[0] * factor), float(sigma[1] * factor)
    if not (np.isfinite(hx) and np.isfinite(hy) and hx > 0.0 and hy > 0.0):
        raise InputError(f"bandwidth must be positive and finite, got ({hx}, {hy})")
    return hx, hy


def _gaussian_factor(centers: np.ndarray, coords: np.ndarray, h: float) -> np.ndarray:
    """exp(-0.5 * ((centers[:, None] - coords) / h) ** 2), built in one buffer."""
    f = np.subtract.outer(centers, coords)
    with np.errstate(over="ignore"):  # a far coordinate scales or squares to inf: exp(-inf) = 0
        f /= h
        np.square(f, out=f)
    f *= -0.5
    return np.exp(f, out=f)


def kde(xy: np.ndarray, window, bandwidth: tuple[float, float]) -> np.ndarray:
    """Gaussian kernel sum of the points xy (N, 2), bandwidth (hx, hy), at the
    window's cell centers: a (GRID, GRID) mass normalised to 1.

    Points outside the window still contribute kernel mass inside it.
    """
    hx, hy = bandwidth
    cx, cy = (lo + (hi - lo) / GRID * (np.arange(GRID) + 0.5) for lo, hi in window)
    # separable kernel: mass[i, j] = sum_p fx[i, p] * fy[j, p]
    mass = _gaussian_factor(cx, xy[:, 0], hx) @ _gaussian_factor(cy, xy[:, 1], hy).T
    total = float(mass.sum())
    if not np.isfinite(total) or total <= 0.0:
        raise InputError("kernel mass inside the window is numerically zero")
    return mass / total


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """sum P log(P / (Q + EPSILON)) over two masses on one grid, with
    0 log 0 = 0, clipped at zero."""
    mask = p > 0.0
    val = float(np.sum(p[mask] * np.log(p[mask] / (q[mask] + EPSILON))))
    return max(val, 0.0)


def evaluate(pred, truth) -> dict[str, float]:
    """KL(pred density || truth density) of two clouds (N, 2) over the center
    and whole windows, name -> score.

    The bandwidth is fitted on the truth cloud per window and shared by both
    densities, so identical clouds score exactly zero. A scoring error names
    its window and its cloud.
    """
    pred, truth = as_point_array(pred, name="prediction"), as_point_array(truth, name="truth")
    out: dict[str, float] = {}
    for name in _WINDOWS:
        cloud = "truth"
        try:
            window = CENTER if name == "center" else whole_window(truth)
            bw = scott_bandwidth(truth, window)
            q_mass = kde(truth, window, bw)
            cloud = "prediction"
            p_mass = kde(pred, window, bw)
        except InputError as exc:
            raise InputError(f"{name} window, {cloud}: {exc}") from exc
        out[name] = kl_divergence(p_mass, q_mass)
    return out


def kl_csv_text(scores: Mapping[tuple[float, int], Optional[Mapping[str, float]]]) -> str:
    """The KL table of a (ratio x node-count) grid from each cell's ``evaluate`` scores:
    ratio ascending, region "c" (center) then "w" (whole), node count ascending. A
    missing cell (absent key or None) gets empty scores; the caller reports why."""
    lines = ["ratio,region,nodes,kl"]
    ratios, node_counts = sorted({r for r, _ in scores}), sorted({n for _, n in scores})
    for ratio in ratios:
        for window in _WINDOWS:
            for nodes in node_counts:
                cell = scores.get((ratio, nodes))
                kl = "" if cell is None else repr(cell[window])
                lines.append(f"{ratio:g},{window[0]},{nodes},{kl}")
    return "\n".join(lines) + "\n"
