"""Three-layer fully connected generator with exact analytic backprop.

The network flattens each L-vertex boundary loop into a 2L row
(x0, y0, x1, y1, ...), passes a batch of such rows through two ReLU hidden
layers as matrix products, and emits 2N outputs per row, read as N generated
points. Optional output clamping of the y coordinates acts as a hard gate:
clamped coordinates pass zero gradient.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .fileio import atomic_write_bytes

_ARRAY_ORDER = ("w1", "b1", "w2", "b2", "w3", "b3")
_CHECKPOINT_FORMAT = "loop2mesh-checkpoint"
_CHECKPOINT_VERSION = 1


class NetworkParams:
    """Weights/biases; layer l computes ``x @ w_l.T + b_l`` on row batches.

    The parameters are one contiguous float64 vector, ``flat`` (w1, b1, w2,
    b2, w3, b3 in C order), taken as given, without a copy, and each name is
    a view into it, so a whole-model update is one vector operation.
    """

    def __init__(self, flat: np.ndarray, shapes):
        w1, b1, w2, b2, w3, b3 = views = _split(flat, shapes)
        if w1.ndim != 2 or w2.ndim != 2 or w3.ndim != 2:
            raise ConfigError("weight matrices must be 2-D")
        if w1.shape[1] % 2 or w3.shape[0] % 2:
            raise ConfigError("input and output widths must be even (2 per point)")
        ok = (b1.shape == (w1.shape[0],)
              and w2.shape[1] == w1.shape[0]
              and b2.shape == (w2.shape[0],)
              and w3.shape[1] == w2.shape[0]
              and b3.shape == (w3.shape[0],))
        if not ok:
            raise ConfigError("parameter shapes are mutually inconsistent")
        if not np.isfinite(flat).all():
            name = next(n for n, v in zip(_ARRAY_ORDER, views) if not np.isfinite(v).all())
            raise InputError(f"parameter {name} contains non-finite entries")
        self.flat = flat
        self.w1, self.b1, self.w2, self.b2, self.w3, self.b3 = views

    @property
    def loop_size(self) -> int:
        return self.w1.shape[1] // 2

    @property
    def n_points(self) -> int:
        return self.w3.shape[0] // 2

    def split(self, vec: np.ndarray) -> list[np.ndarray]:
        """Views of a flat vector shaped like w1, b1, w2, b2, w3, b3."""
        return _split(vec, [getattr(self, name).shape for name in _ARRAY_ORDER])

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        return [(name, getattr(self, name)) for name in _ARRAY_ORDER]


def _split(vec: np.ndarray, shapes) -> list[np.ndarray]:
    out, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        out.append(vec[offset:offset + size].reshape(shape))
        offset += size
    return out


def init_params(seed: int, loop_size: int, h1: int, h2: int, n_points: int) -> NetworkParams:
    """Xavier-uniform weights (bound sqrt(6/(fan_in+fan_out))), zero biases.

    Draw order is fixed (w1, w2, w3) so a seed fully determines the result.
    Weights are drawn into the flat vector as ``rng.uniform(-bound, bound)``
    draws them, -bound + 2 bound u, with no per-matrix temporaries.
    """
    if min(loop_size, h1, h2, n_points) < 1:
        raise InputError("all layer sizes must be positive")
    rng = np.random.default_rng(seed)
    shapes = [(h1, 2 * loop_size), (h1,), (h2, h1), (h2,), (2 * n_points, h2), (2 * n_points,)]
    params = NetworkParams(np.zeros(sum(math.prod(s) for s in shapes)), shapes)
    for w in (params.w1, params.w2, params.w3):
        bound = math.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        rng.random(out=w)
        w *= 2.0 * bound
        w -= bound
    return params


@dataclass(frozen=True)
class ForwardTrace:
    """Activations captured before clamping, plus the clamp gate; one row per sample."""

    x: np.ndarray       # flattened inputs (S, 2L)
    z1: np.ndarray
    a1: np.ndarray
    z2: np.ndarray
    a2: np.ndarray
    output: np.ndarray  # raw pre-clamp outputs (S, 2N)
    gate: np.ndarray    # 1.0 where gradient flows, 0.0 at clamped coordinates


def forward(params: NetworkParams, x: np.ndarray,
            y_clamp: tuple[float, float] | None = None) -> tuple[np.ndarray, ForwardTrace]:
    """Run the generator on an (S, 2L) batch of flattened loops.

    Returns the (S, 2N) outputs, row s holding (x0, y0, x1, y1, ...) of
    sample s's N points, and the trace for ``backward``. With
    ``y_clamp=(lo, hi)`` the y outputs are clipped after the trace is
    captured; coordinates at or beyond the bounds get a zero gradient gate.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != 2 * params.loop_size:
        raise ConfigError(f"input batch has shape {x.shape}, network expects "
                          f"(S, {2 * params.loop_size}) for {params.loop_size}-point loops")
    z1 = x @ params.w1.T + params.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ params.w2.T + params.b2
    a2 = np.maximum(z2, 0.0)
    out = a2 @ params.w3.T + params.b3
    gate = np.ones_like(out)
    final = out
    if y_clamp is not None:
        lo, hi = float(y_clamp[0]), float(y_clamp[1])
        if not lo <= hi:
            raise InputError(f"empty clamp range {y_clamp}")
        final = out.copy()
        ys = out[:, 1::2]
        final[:, 1::2] = np.clip(ys, lo, hi)
        gate[:, 1::2] = (ys > lo) & (ys < hi)
    return final, ForwardTrace(x, z1, a1, z2, a2, out, gate)


def backward(params: NetworkParams, trace: ForwardTrace, d_output: np.ndarray,
             out: np.ndarray) -> np.ndarray:
    """Exact gradient of a scalar loss, summed over the batch, given d(loss)/d(raw
    output) (S, 2N), into ``out`` (laid out like ``params.flat``) but for w3's
    slice; returns the gated cotangent g3 (S, 2N), whose w3 gradient g3.T @ a2
    ``train.adam_step`` builds a block at a time. ReLU passes
    gradient only where its pre-activation is strictly positive; the clamp gate
    zeroes the cotangent of clamped output coordinates."""
    d_output = np.asarray(d_output, dtype=np.float64)
    if d_output.shape != trace.output.shape:
        raise ConfigError(
            f"cotangent shape {d_output.shape} does not match output {trace.output.shape}")
    gw1, gb1, gw2, gb2, _, gb3 = params.split(out)
    g3 = d_output * trace.gate
    g3.sum(axis=0, out=gb3)
    dz2 = (g3 @ params.w3) * (trace.z2 > 0.0)
    np.matmul(dz2.T, trace.a1, out=gw2)
    dz2.sum(axis=0, out=gb2)
    dz1 = (dz2 @ params.w2) * (trace.z1 > 0.0)
    np.matmul(dz1.T, trace.x, out=gw1)
    dz1.sum(axis=0, out=gb1)
    return g3


def save_checkpoint(path, params: NetworkParams, meta: dict | None = None) -> None:
    """Write a versioned single-file checkpoint.

    Layout: one sorted-keys JSON header line (format, version, shapes, meta),
    then ``params.flat`` (w1, b1, w2, b2, w3, b3) as little-endian float64.
    Identical params + meta always produce identical bytes.
    """
    header = {
        "format": _CHECKPOINT_FORMAT,
        "version": _CHECKPOINT_VERSION,
        "dtype": "<f8",
        "shapes": {name: list(arr.shape) for name, arr in params.arrays()},
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    atomic_write_bytes(path, blob + params.flat.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> tuple[NetworkParams, dict]:
    """Read a checkpoint written by save_checkpoint; round-trips bit-exactly.
    The payload is read once, into the vector that becomes ``params.flat``."""
    with open(path, "rb") as f:
        line = f.readline()
        # fromfile needs the file position, which a pipe lacks
        payload = (np.fromfile(f, dtype=np.uint8) if f.seekable()
                   else np.frombuffer(bytearray(f.read()), dtype=np.uint8))
    if not line.endswith(b"\n"):
        raise InputError(f"{path}: not a checkpoint (missing header line)")
    try:
        header = json.loads(line[:-1].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also an int over 4300 digits, deep nesting
        raise InputError(f"{path}: invalid checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise InputError(f"{path}: checkpoint header is not a JSON object")
    if header.get("format") != _CHECKPOINT_FORMAT:
        raise InputError(f"{path}: unrecognised checkpoint format")
    if type(header.get("version")) is not int or header["version"] != _CHECKPOINT_VERSION:
        raise InputError(f"{path}: unsupported checkpoint version {header.get('version')!r}")
    table = header.get("shapes")
    if not isinstance(table, dict) or "meta" not in header:
        raise InputError(f"{path}: checkpoint header needs a 'shapes' object and a 'meta' entry")
    shapes = []
    end = 0
    for name in _ARRAY_ORDER:
        if name not in table:
            raise InputError(f"{path}: checkpoint header missing array {name!r}")
        shape = table[name]
        if not isinstance(shape, list) or not all(type(k) is int and k >= 0 for k in shape):
            raise InputError(f"{path}: array {name!r} has invalid shape {shape!r}")
        shapes.append(tuple(shape))
        end += 8 * math.prod(shape)
        if end > payload.size:
            raise InputError(f"{path}: checkpoint truncated in array {name!r}")
    if end != payload.size:
        raise InputError(f"{path}: {payload.size - end} trailing bytes after parameter arrays")
    try:  # shapes that cannot form a network, or non-finite weights, make a malformed file
        params = NetworkParams(payload.view("<f8").astype(np.float64, copy=False), shapes)
    except (ConfigError, InputError) as exc:
        raise InputError(f"{path}: {exc}") from exc
    return params, header["meta"]
