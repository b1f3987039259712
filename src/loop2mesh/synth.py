"""Synthetic sample data.

Four-digit NACA contours and CFD-like fluid-mesh point clouds around them,
plus writers for the ``.dat``/``.msh`` formats the ingest module parses.
Used by the test suite and the bundled sample-data script; not part of the
training pipeline itself.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import InvalidInputError
from .fileio import atomic_write_text
from .geometry import AirfoilLoop, edge_query


def naca4_contour(code: str = "2220", n_points: int = 121) -> np.ndarray:
    """Closed four-digit NACA contour in Selig order (TE -> upper -> LE -> lower -> TE).

    Uses the closed-trailing-edge thickness polynomial so the first and last
    points coincide at (1, 0). ``n_points`` must be odd (symmetric surface
    sampling); cosine spacing clusters points at the leading edge.
    """
    if len(code) != 4 or not code.isdigit():
        raise InvalidInputError(f"expected a 4-digit NACA code, got {code!r}")
    if n_points < 7 or n_points % 2 == 0:
        raise InvalidInputError(f"n_points must be odd and at least 7, got {n_points}")
    m = int(code[0]) / 100.0
    p = int(code[1]) / 10.0
    t = int(code[2:]) / 100.0

    n_half = (n_points + 1) // 2
    beta = np.linspace(0.0, math.pi, n_half)
    x = 0.5 * (1.0 - np.cos(beta))  # LE -> TE

    # closed-TE variant: the final coefficient is -0.1036 so y_t(1) == 0
    yt = 5.0 * t * (0.2969 * np.sqrt(x) - 0.1260 * x - 0.3516 * x ** 2
                    + 0.2843 * x ** 3 - 0.1036 * x ** 4)
    if m > 0.0 and p > 0.0:
        fore = x < p
        yc = np.where(fore,
                      m / p ** 2 * (2.0 * p * x - x ** 2),
                      m / (1.0 - p) ** 2 * ((1.0 - 2.0 * p) + 2.0 * p * x - x ** 2))
        dyc = np.where(fore,
                       2.0 * m / p ** 2 * (p - x),
                       2.0 * m / (1.0 - p) ** 2 * (p - x))
    else:
        yc = np.zeros_like(x)
        dyc = np.zeros_like(x)
    theta = np.arctan(dyc)

    xu = x - yt * np.sin(theta)
    yu = yc + yt * np.cos(theta)
    xl = x + yt * np.sin(theta)
    yl = yc - yt * np.cos(theta)
    # snap the trailing edge: the closed-TE thickness coefficients cancel only
    # to ~1e-17, which would leave a microscopic bowtie at (1, +/-eps)
    xu[-1] = xl[-1] = 1.0
    yu[-1] = yl[-1] = 0.0

    upper = np.column_stack([xu, yu])[::-1]  # TE -> LE
    lower = np.column_stack([xl, yl])[1:]    # LE (shared) -> TE
    return np.vstack([upper, lower])


def synth_fluid_mesh(contour: np.ndarray, n_nodes: int = 3000, seed: int = 0, *,
                     box: tuple[float, float, float, float] = (-2.0, 3.0, -2.0, 2.0),
                     decay: float = 0.45, wall_frac: float = 0.15,
                     wall_offset: float = 0.006) -> np.ndarray:
    """Sample a CFD-like node cloud around a closed contour.

    A ``wall_frac`` share of nodes forms a first layer hugging the contour at
    ``wall_offset`` along the outward normal (node centers sit off the wall,
    as in a cell-centered viscous mesh); the rest are rejection-sampled in
    ``box`` with acceptance exp(-d/decay) where d is the distance to the
    contour, so density decays away from the wall. Every node keeps at least
    ``wall_offset`` clearance from the contour and none falls inside it.
    Deterministic in seed.
    """
    contour = np.asarray(contour, dtype=np.float64)
    body = contour[:-1] if np.all(contour[0] == contour[-1]) else contour
    poly = AirfoilLoop(body)
    rng = np.random.default_rng(seed)

    n_wall = int(round(wall_frac * n_nodes))
    closed = np.vstack([body, body[:1]])
    seg = np.diff(closed, axis=0)
    seglen = np.hypot(seg[:, 0], seg[:, 1])
    s = np.concatenate([[0.0], np.cumsum(seglen)])
    arc = np.sort(rng.uniform(0.0, s[-1], size=n_wall))
    idx = np.clip(np.searchsorted(s, arc, side="right") - 1, 0, len(seglen) - 1)
    frac = (arc - s[idx]) / seglen[idx]
    # counter-clockwise traversal: outward normal is the edge direction
    # rotated -90 degrees, (dx, dy) -> (dy, -dx)
    outward = np.column_stack([seg[:, 1], -seg[:, 0]]) / seglen[:, None]
    wall = closed[idx] + frac[:, None] * seg[idx] + wall_offset * outward[idx]

    xmin, xmax, ymin, ymax = box
    needed = n_nodes - n_wall
    chunks: list[np.ndarray] = []
    collected = 0
    while collected < needed:
        cand = np.column_stack([rng.uniform(xmin, xmax, size=4096),
                                rng.uniform(ymin, ymax, size=4096)])
        dist, _, inside = edge_query(cand, poly)
        ok = ~inside & (dist >= wall_offset) \
            & (rng.uniform(size=4096) < np.exp(-dist / decay))
        accepted = cand[ok]
        chunks.append(accepted)
        collected += accepted.shape[0]
    bulk = np.vstack(chunks)[:needed]
    return np.vstack([wall, bulk])


def dat_text(points: np.ndarray, name: str = "airfoil") -> str:
    lines = [name]
    lines += [f"{x:.7f} {y:.7f}" for x, y in np.asarray(points)]
    return "\n".join(lines) + "\n"


def msh_text(nodes: np.ndarray) -> str:
    nodes = np.asarray(nodes)
    lines = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", str(len(nodes))]
    lines += [f"{i + 1} {x:.9f} {y:.9f} 0" for i, (x, y) in enumerate(nodes)]
    lines += ["$EndNodes", "$Elements", "0", "$EndElements"]
    return "\n".join(lines) + "\n"


def write_sample_dataset(out_dir, codes: tuple[str, ...] = ("2220",), *,
                         contour_points: int = 121, mesh_nodes: int = 3000,
                         seed: int = 0) -> Path:
    """Write .dat/.msh pairs plus a manifest.json; returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for i, code in enumerate(codes):
        contour = naca4_contour(code, contour_points)
        mesh = synth_fluid_mesh(contour, mesh_nodes, seed=seed + i)
        name = f"naca{code}"
        atomic_write_text(out / f"{name}.dat", dat_text(contour, name=f"NACA {code}"))
        atomic_write_text(out / f"{name}.msh", msh_text(mesh))
        records.append({"name": name, "dat": f"{name}.dat", "msh": f"{name}.msh"})
    manifest = out / "manifest.json"
    atomic_write_text(manifest, json.dumps(records, indent=2) + "\n")
    return manifest
