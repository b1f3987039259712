"""Output checks that recompute the program's results with separate code.

Nothing here imports loop2mesh. The checks read the files a session wrote
and the inputs it read, and recompute:

- the generator output, from the checkpoint bytes (one JSON header line,
  then w1, b1, w2, b2, w3, b3 as little-endian float64), the .dat contour
  (chord normalisation, arc-length resampling), the y-clamp and the inverse
  standardisation, and compare it with ``points.csv``;
- Scott's bandwidth, the Gaussian KDE on the 100x100 center and whole
  windows, and the KL score, and compare them with ``kl.csv``;
- the training log: every value finite, one row per epoch, and the last
  ``total`` below the first.

Each check returns an error message, or None when the output is correct.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

ARRAY_ORDER = ("w1", "b1", "w2", "b2", "w3", "b3")
POINTS_RTOL = 1e-9
KL_RTOL = 1e-9
KL_ATOL = 1e-12
GRID = 100
KL_EPSILON = 1e-10
CENTER = ((-0.5, 1.5), (-0.4, 0.4))
WHOLE_PAD = 0.05


def read_checkpoint(blob: bytes) -> tuple[dict, dict]:
    nl = blob.index(b"\n")
    header = json.loads(blob[:nl])
    arrays, offset = {}, nl + 1
    for name in ARRAY_ORDER:
        shape = tuple(header["shapes"][name])
        count = math.prod(shape)
        arrays[name] = np.frombuffer(blob, "<f8", count, offset).reshape(shape)
        offset += 8 * count
    if offset != len(blob):
        raise ValueError(f"{len(blob) - offset} bytes after the last array")
    return header, arrays


def parse_dat(text: str) -> list[tuple[float, float]]:
    pts = []
    for line in text.splitlines():
        tokens = line.split()
        try:
            if len(tokens) == 2:
                pts.append((float(tokens[0]), float(tokens[1])))
        except ValueError:
            pass  # the name line
    return pts


def parse_msh(text: str) -> np.ndarray:
    lines = text.splitlines()
    start = lines.index("$Nodes")
    count = int(lines[start + 1])
    nodes = sorted((int(t[0]), float(t[1]), float(t[2]))
                   for t in (line.split() for line in lines[start + 2:start + 2 + count]))
    if lines[start + 2 + count] != "$EndNodes":
        raise ValueError("node count does not match the $Nodes block")
    return np.array([(x, y) for _, x, y in nodes])


def chord_frame(contour) -> tuple[float, float]:
    xs = [x for x, _ in contour]
    return min(xs), max(xs) - min(xs)


def to_chord(points, frame) -> np.ndarray:
    x_min, chord = frame
    xy = np.array(points, dtype=np.float64)
    xy[:, 0] -= x_min
    return xy / chord


def resample(contour: np.ndarray, count: int) -> np.ndarray:
    """Walk the closed polyline and drop ``count`` vertices at equal arc length."""
    v = [tuple(contour[0])]
    for p in map(tuple, contour[1:]):
        if p != v[-1]:
            v.append(p)
    if len(v) > 1 and v[-1] == v[0]:
        v.pop()
    ring = v + [v[0]]
    lengths = [math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in zip(ring, ring[1:])]
    step = sum(lengths) / count
    out, seg, walked = [], 0, 0.0
    for k in range(count):
        pos = k * step
        while seg < len(lengths) - 1 and walked + lengths[seg] <= pos:
            walked += lengths[seg]
            seg += 1
        frac = (pos - walked) / lengths[seg]
        a, b = ring[seg], ring[seg + 1]
        out.append((a[0] + frac * (b[0] - a[0]), a[1] + frac * (b[1] - a[1])))
    return np.array(out)


def generate(ckpt: bytes, dat_text: str) -> np.ndarray:
    """The checkpoint's prediction for a contour, in chord coordinates."""
    header, w = read_checkpoint(ckpt)
    config = header["meta"]["config"]
    loop = resample(to_chord(parse_dat(dat_text), chord_frame(parse_dat(dat_text))),
                    config["loop_size"])
    transform = header["meta"]["samples"][0]["transform"]
    if config["mode"] != "raw":
        mean = np.array([transform["mean_x"], transform["mean_y"]])
        scale = np.array([transform["scale_x"], transform["scale_y"]])
        loop = (loop - mean) / scale
    h = np.maximum(w["w1"] @ loop.ravel() + w["b1"], 0.0)
    h = np.maximum(w["w2"] @ h + w["b2"], 0.0)
    out = (w["w3"] @ h + w["b3"]).reshape(-1, 2)
    if config["mode"] == "stand-clamp":
        out[:, 1] = np.clip(out[:, 1], *config["clamp_y"])
    if config["mode"] != "raw":
        out = out * scale + mean
    return out


def _density(xy: np.ndarray, window, bw) -> np.ndarray:
    centers = [lo + (hi - lo) / GRID * (np.arange(GRID) + 0.5) for lo, hi in window]
    gx = np.exp(-0.5 * ((centers[0][:, None] - xy[:, 0]) / bw[0]) ** 2)
    gy = np.exp(-0.5 * ((centers[1][:, None] - xy[:, 1]) / bw[1]) ** 2)
    mass = np.einsum("ip,jp->ij", gx, gy)
    return mass / mass.sum()


def kl_scores(pred: np.ndarray, truth: np.ndarray) -> dict[str, float]:
    """KL(pred || truth) on the center ('c') and whole ('w') windows."""
    lo, hi = truth.min(axis=0), truth.max(axis=0)
    pad = WHOLE_PAD * (hi - lo)
    windows = {"c": CENTER, "w": tuple(zip(lo - pad, hi + pad))}
    scores = {}
    for region, window in windows.items():
        (x0, x1), (y0, y1) = window
        inside = truth[(truth[:, 0] >= x0) & (truth[:, 0] <= x1)
                       & (truth[:, 1] >= y0) & (truth[:, 1] <= y1)]
        bw = inside.std(axis=0) * len(inside) ** (-1.0 / 6.0)
        p, q = _density(pred, window, bw), _density(truth, window, bw)
        nz = p > 0.0
        scores[region] = max(float(np.sum(p[nz] * np.log(p[nz] / (q[nz] + KL_EPSILON)))), 0.0)
    return scores


def kl_rows(text: str) -> list[list[str]]:
    """The (ratio, region, nodes, kl) rows of a kl.csv file."""
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["ratio", "region", "nodes", "kl"]:
        raise ValueError(f"kl.csv header is {rows[0]}")
    return rows[1:]


def trainlog_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_points(ckpt: bytes, dat_text: str, points_csv: str) -> str | None:
    rows = list(csv.reader(io.StringIO(points_csv)))
    if rows[0] != ["x", "y"]:
        return f"points.csv header is {rows[0]}"
    got = np.array(rows[1:], dtype=np.float64)
    want = generate(ckpt, dat_text)
    if got.shape != want.shape:
        return f"points.csv holds {got.shape}, recomputed {want.shape}"
    err = float(np.max(np.abs(got - want)))
    if not err <= POINTS_RTOL * float(np.max(np.abs(want))):
        return f"points.csv differs from the recomputed output by {err:.3g}"
    return None


def check_kl(ckpt: bytes, dat_text: str, msh_text: str, kl_csv: str) -> str | None:
    header, _ = read_checkpoint(ckpt)
    config = header["meta"]["config"]
    frame = chord_frame(parse_dat(dat_text))
    scores = kl_scores(generate(ckpt, dat_text), to_chord(parse_msh(msh_text), frame))
    rows = kl_rows(kl_csv)
    if len(rows) != 2:
        return f"kl.csv has {len(rows)} rows, expected 2"
    for ratio, region, nodes, kl in rows:
        if float(ratio) != config["weights"]["repulsion"] or int(nodes) != config["n_points"]:
            return f"kl.csv row labels {ratio},{nodes} do not match the checkpoint"
        want = scores.get(region)
        if want is None or not abs(float(kl) - want) <= KL_RTOL * want + KL_ATOL:
            return f"kl.csv region {region} reads {kl}, recomputed {want!r}"
    return None


def check_trainlog(text: str, epochs: int) -> str | None:
    rows = trainlog_rows(text)
    if len(rows) != epochs:
        return f"trainlog has {len(rows)} rows, expected {epochs}"
    values = [float(v) for row in rows for v in row.values()]
    if not all(math.isfinite(v) for v in values):
        return "trainlog holds a non-finite value"
    if not float(rows[-1]["total"]) < float(rows[0]["total"]):
        return f"last total {rows[-1]['total']} is not below the first {rows[0]['total']}"
    return None
