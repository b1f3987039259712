"""Minimal deterministic SVG scatter/polyline writer (no plotting deps).

Identical inputs produce byte-identical files: coordinates are formatted with
a fixed precision and nothing time- or environment-dependent is embedded.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .fileio import atomic_write_text

_MARGIN = 12.0


def _mapper(viewport, width, height):
    xmin, xmax, ymin, ymax = map(float, viewport)
    if not (xmin < xmax and ymin < ymax):
        raise InvalidInputError(f"viewport {viewport} must have positive extent")
    sx = (width - 2 * _MARGIN) / (xmax - xmin)
    sy = (height - 2 * _MARGIN) / (ymax - ymin)

    def to_px(xy):
        xy = np.asarray(xy, dtype=np.float64)
        px = _MARGIN + (xy[:, 0] - xmin) * sx
        py = height - (_MARGIN + (xy[:, 1] - ymin) * sy)  # y grows upward in world space
        return px, py

    return to_px


def render_svg(path, *, viewport, polylines=(), point_layers=(),
               width: int = 900, height: int = 700) -> None:
    """Write an SVG scene.

    polylines:    iterable of (xy (N,2), stroke, stroke_width, closed)
    point_layers: iterable of (xy (N,2), fill, radius)
    viewport:     (xmin, xmax, ymin, ymax) in world coordinates
    """
    to_px = _mapper(viewport, width, height)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for xy, stroke, stroke_width, closed in polylines:
        xy = np.asarray(xy, dtype=np.float64)
        if closed and xy.shape[0] > 1:
            xy = np.vstack([xy, xy[:1]])
        px, py = to_px(xy)
        pts = " ".join([f"{x:.2f},{y:.2f}" for x, y in zip(px.tolist(), py.tolist())])
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
                     f'stroke-width="{stroke_width}"/>')
    for xy, fill, radius in point_layers:
        px, py = to_px(np.asarray(xy, dtype=np.float64))
        tail = f' r="{radius}"/>'
        circles = [f'<circle cx="{x:.2f}" cy="{y:.2f}"{tail}' for x, y in zip(px.tolist(), py.tolist())]
        parts.append("\n".join([f'<g fill="{fill}">', *circles, "</g>"]))
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")
