"""Minimal deterministic SVG scatter/polyline writer (no plotting deps).

Identical inputs produce byte-identical files: coordinates are formatted with
a fixed precision and nothing time- or environment-dependent is embedded.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .fileio import atomic_write_text

_MARGIN = 12.0
_WIDTH, _HEIGHT = 900, 700  # canvas size in pixels


def pixel_scale(viewport) -> tuple[float, float]:
    """Pixels per world unit along x and y for viewport (xmin, xmax, ymin,
    ymax); InputError unless both are finite and positive."""
    xmin, xmax, ymin, ymax = map(float, viewport)
    if not (xmin < xmax and ymin < ymax):
        raise InputError(f"viewport {viewport} must have positive extent")
    scale = ((_WIDTH - 2 * _MARGIN) / (xmax - xmin), (_HEIGHT - 2 * _MARGIN) / (ymax - ymin))
    if not all(0.0 < k < np.inf for k in scale):  # an extent too small or too large
        raise InputError(f"viewport {viewport} has no finite pixel scale")
    return scale


def render_svg(path, *, viewport, polylines=(), point_layers=()) -> None:
    """Write an SVG scene on a ``_WIDTH`` x ``_HEIGHT`` pixel canvas.

    polylines:    iterable of (xy (N,2), stroke, stroke_width, closed)
    point_layers: iterable of (xy (N,2), fill, radius)
    viewport:     (xmin, xmax, ymin, ymax) in world coordinates
    """
    xmin, _, ymin, _ = map(float, viewport)
    scale = pixel_scale(viewport)

    def rows(row: str, sep: str, xy) -> str:
        """``row``, a template with an x and a y ``%`` slot, once per point of
        ``xy`` in pixels, joined by ``sep`` and filled by one ``%`` operation."""
        pxy = _MARGIN + (np.asarray(xy, dtype=np.float64) - (xmin, ymin)) * scale
        pxy[:, 1] = _HEIGHT - pxy[:, 1]  # y grows upward in world space
        return sep.join([row] * len(pxy)) % tuple(pxy.ravel().tolist())

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    for xy, stroke, stroke_width, closed in polylines:
        xy = np.asarray(xy, dtype=np.float64)
        if closed and xy.shape[0] > 1:
            xy = np.vstack([xy, xy[:1]])
        pts = rows("%.2f,%.2f", " ", xy)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{stroke}" '
                     f'stroke-width="{stroke_width}"/>')
    for xy, fill, radius in point_layers:
        r = f"{radius}".replace("%", "%%")  # the one literal inside the template
        circles = rows(f'\n<circle cx="%.2f" cy="%.2f" r="{r}"/>', "", xy)
        parts.append(f'<g fill="{fill}">{circles}\n</g>')
    parts.append("</svg>")
    atomic_write_text(path, "\n".join(parts) + "\n")
