"""Distributional comparison of point clouds.

A separable Gaussian-kernel density is summed at the cell centers of a
uniform grid over a named window and normalised to unit mass; two grids over
the same window are compared with a stabilised Kullback-Leibler score
(natural log, epsilon only in the denominator, clipped at zero).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import DegenerateDataError, DegenerateDensityError, InvalidInputError
from .fileio import atomic_write_text
from .geometry import PointSet, padded_bbox

log = logging.getLogger(__name__)

_REGION_CODE = {"center": "c", "whole": "w"}


@dataclass(frozen=True)
class EvalWindow:
    """Axis-aligned evaluation window with a fixed cell grid."""

    name: str
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    grid_nx: int = 100
    grid_ny: int = 100

    def __post_init__(self):
        object.__setattr__(self, "x_range", (float(self.x_range[0]), float(self.x_range[1])))
        object.__setattr__(self, "y_range", (float(self.y_range[0]), float(self.y_range[1])))
        for lo, hi in (self.x_range, self.y_range):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise InvalidInputError(f"window range ({lo}, {hi}) must be finite and non-empty")
        if self.grid_nx < 2 or self.grid_ny < 2:
            raise InvalidInputError("grid must be at least 2x2")

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        dx = (self.x_range[1] - self.x_range[0]) / self.grid_nx
        dy = (self.y_range[1] - self.y_range[0]) / self.grid_ny
        cx = self.x_range[0] + dx * (np.arange(self.grid_nx) + 0.5)
        cy = self.y_range[0] + dy * (np.arange(self.grid_ny) + 0.5)
        return cx, cy

    def contains(self, xy: np.ndarray) -> np.ndarray:
        return ((xy[:, 0] >= self.x_range[0]) & (xy[:, 0] <= self.x_range[1])
                & (xy[:, 1] >= self.y_range[0]) & (xy[:, 1] <= self.y_range[1]))


def center_window(grid: int = 100) -> EvalWindow:
    """Near-field window around the airfoil: x in [-0.5, 1.5], y in [-0.4, 0.4]."""
    return EvalWindow("center", (-0.5, 1.5), (-0.4, 0.4), grid, grid)


def whole_window(truth: PointSet, grid: int = 100) -> EvalWindow:
    """Bounding box of the truth cloud, padded by ``geometry.BBOX_PAD`` of each axis extent."""
    lo, hi = padded_bbox(truth.xy)
    if not (lo[0] < hi[0] and lo[1] < hi[1]):  # padding keeps a zero extent zero
        raise DegenerateDataError("truth cloud has zero extent on an axis")
    return EvalWindow("whole", (lo[0], hi[0]), (lo[1], hi[1]), grid, grid)


def scott_bandwidth(xy: np.ndarray, window: EvalWindow) -> tuple[float, float]:
    """Scott's rule per axis, (hx, hy), fitted on the points xy (N, 2) that
    fall inside the window.

    h = sigma * n^(-1/6) for 2D data, with the population sigma.
    """
    pts = xy[window.contains(xy)]
    if pts.shape[0] < 2:
        raise DegenerateDataError("bandwidth fit needs at least 2 points inside the window")
    sigma = pts.std(axis=0)
    if sigma[0] == 0.0 or sigma[1] == 0.0:
        raise DegenerateDataError("zero variance inside the window; cannot fit a bandwidth")
    factor = pts.shape[0] ** (-1.0 / 6.0)
    hx, hy = float(sigma[0] * factor), float(sigma[1] * factor)
    if not (np.isfinite(hx) and np.isfinite(hy) and hx > 0.0 and hy > 0.0):
        raise InvalidInputError(f"bandwidth must be positive and finite, got ({hx}, {hy})")
    return hx, hy


def _gaussian_factor(centers: np.ndarray, coords: np.ndarray, h: float) -> np.ndarray:
    """exp(-0.5 * ((centers[:, None] - coords) / h) ** 2), built in one buffer."""
    f = np.subtract.outer(centers, coords)
    f /= h
    np.square(f, out=f)
    f *= -0.5
    return np.exp(f, out=f)


def kde(xy: np.ndarray, window: EvalWindow, bandwidth: tuple[float, float]) -> np.ndarray:
    """Gaussian kernel sum of the points xy (N, 2), bandwidth (hx, hy), at the
    window's cell centers: a (grid_nx, grid_ny) mass normalised to 1.

    Points outside the window still contribute kernel mass inside it.
    """
    hx, hy = bandwidth
    cx, cy = window.cell_centers()
    # separable kernel: mass[i, j] = sum_p fx[i, p] * fy[j, p]
    mass = _gaussian_factor(cx, xy[:, 0], hx) @ _gaussian_factor(cy, xy[:, 1], hy).T
    total = float(mass.sum())
    if not np.isfinite(total) or total <= 0.0:
        raise DegenerateDensityError("kernel mass inside the window is numerically zero")
    return mass / total


def kl_divergence(p: np.ndarray, q: np.ndarray, epsilon: float = 1e-10) -> float:
    """sum P log(P / (Q + epsilon)) over two masses on one grid, with
    0 log 0 = 0, clipped at zero."""
    if not epsilon > 0.0:
        raise InvalidInputError(f"epsilon must be positive, got {epsilon}")
    mask = p > 0.0
    val = float(np.sum(p[mask] * np.log(p[mask] / (q[mask] + epsilon))))
    return max(val, 0.0)


def evaluate(pred: PointSet, truth: PointSet, *,
             epsilon: float = 1e-10, grid: int = 100) -> dict[str, float]:
    """KL(pred density || truth density) over the center and whole windows,
    name -> score.

    The bandwidth is fitted on the truth cloud per window and shared by both
    densities, so identical clouds score exactly zero.
    """
    out: dict[str, float] = {}
    for window in (center_window(grid), whole_window(truth, grid=grid)):
        bw = scott_bandwidth(truth.xy, window)
        p_mass = kde(pred.xy, window, bw)
        q_mass = kde(truth.xy, window, bw)
        out[window.name] = kl_divergence(p_mass, q_mass, epsilon)
    return out


@dataclass(frozen=True)
class KLRow:
    ratio: float
    region: str  # "c" or "w"
    nodes: int
    kl: Optional[float]  # None marks a missing sweep cell


def kl_sweep(predictions: Mapping[tuple[float, int], Optional[PointSet]], truth: PointSet, *,
             epsilon: float = 1e-10, grid: int = 100) -> list[KLRow]:
    """Score a (ratio x node-count) grid of predictions against one truth cloud.

    Rows come out in deterministic order: ratio ascending, region "c" then
    "w", node count ascending. Missing cells (absent key or None) produce a
    row with an empty score and a warning.
    """
    ratios = sorted({r for r, _ in predictions})
    node_counts = sorted({n for _, n in predictions})
    scores: dict[tuple[float, int], Optional[dict[str, float]]] = {}
    for key, pred in predictions.items():
        scores[key] = None if pred is None else evaluate(pred, truth, epsilon=epsilon, grid=grid)
    rows: list[KLRow] = []
    for ratio in ratios:
        for name, region in _REGION_CODE.items():  # center ("c") before whole ("w")
            for nodes in node_counts:
                cell = scores.get((ratio, nodes))
                if cell is None:
                    log.warning("sweep cell ratio=%s nodes=%s is missing; emitting empty row", ratio, nodes)
                    rows.append(KLRow(ratio, region, nodes, None))
                else:
                    rows.append(KLRow(ratio, region, nodes, cell[name]))
    return rows


def kl_csv_text(rows: list[KLRow]) -> str:
    lines = ["ratio,region,nodes,kl"]
    for r in rows:
        ratio = f"{r.ratio:g}"
        kl = "" if r.kl is None else repr(r.kl)
        lines.append(f"{ratio},{r.region},{r.nodes},{kl}")
    return "\n".join(lines) + "\n"


def write_kl_csv(rows: list[KLRow], path) -> None:
    atomic_write_text(path, kl_csv_text(rows))
