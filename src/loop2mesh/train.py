"""Training orchestration.

Full-batch Adam on the generator under the composite objective, with three
coordinate-handling modes:

raw          train directly on chord-normalised coordinates.
stand        one standardisation, fitted on the pooled ground-truth meshes of
             all training samples and applied to every loop and mesh.
stand-clamp  as ``stand``, plus hard clamping of predicted y coordinates.

A full run is a pure function of (dataset, config): logs, parameters and
checkpoints are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, InputError, TrainingDivergedError
from .fileio import atomic_write_text
from .geometry import as_float, check_map, fit_standardize, invert_standardize, standardize_loop
from .ingest import Dataset
from .losses import LossWeights, composite, workspace, workspace_shapes
from .net import NetworkParams, backward, forward, init_params, load_checkpoint, save_checkpoint


MODES = ("raw", "stand", "stand-clamp")


def default_interior_weight(mode: str) -> float:
    """10 when containment relies on the penalty, 0 once clamping confines y."""
    return 0.0 if mode == "stand-clamp" else 10.0


def _as_int(value) -> int:
    if type(value) is not int:  # a bool is an int subclass, not a count
        raise InputError(f"expected an integer, got {value!r}")
    return value


def _float_pair(value) -> tuple[float, float]:
    lo, hi = value
    return as_float(lo), as_float(hi)


def _from_dict(cls, d, name: str):
    """A ``cls`` record from a mapping, each value converted by its field's annotation."""
    if not isinstance(d, dict):
        raise ConfigError(f"{name} must be a mapping, got {d!r}")
    table = {f.name: _CONVERTERS[f.type] for f in fields(cls)}
    unknown = set(d) - set(table)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    kw: dict = {}
    for key, value in d.items():
        try:
            kw[key] = table[key](value)
        except (ConfigError, InputError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid {key} {value!r}: {exc}") from None
    return cls(**kw)


# config-file value -> field value, keyed by the field's annotation
_CONVERTERS = {"str": lambda v: v, "int": _as_int, "float": as_float,
               "tuple[float, float]": _float_pair,
               "LossWeights": lambda d: _from_dict(LossWeights, d, "weights")}
# NumPy sizes an array in bytes in its index type: at most this many float64s
_MAX_FLOATS = int(np.iinfo(np.intp).max) // 8


@dataclass(frozen=True)
class TrainConfig:
    """Checked on construction (``dataclasses.replace`` too): each int field is at
    least its ``min`` (default 1) and sizes arrays NumPy can index."""

    mode: str = "raw"  # one of MODES
    n_points: int = field(default=400, metadata={"min": 2})  # repulsion needs a pair
    loop_size: int = field(default=35, metadata={"min": 3})
    upsample_count: int = 1500
    h1: int = 256
    h2: int = 512
    weights: LossWeights = field(default_factory=LossWeights)
    clamp_y: tuple[float, float] = (-1.0, 1.0)
    lr: float = 1e-3
    epochs: int = 5000
    seed: int = field(default=0, metadata={"min": 0})

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {list(MODES)}")
        for f in fields(self):
            v = getattr(self, f.name)
            low = f.metadata.get("min", 1)
            if f.type == "int" and not (type(v) is int and v >= low):
                raise ConfigError(f"{f.name} must be an integer >= {low}, got {v!r}")
        n, m, loop, h1, h2 = self.n_points, self.upsample_count, self.loop_size, self.h1, self.h2
        _, scratch, stream = workspace_shapes(1, n, m)  # the loss workspace, per sample
        for names, array, count in (  # float64 arrays that train and build_dataset size
                ("epochs", "(epochs, 5) log", 5 * self.epochs),
                ("loop_size", "(L, 2) loop", 2 * loop),
                ("upsample_count", "(M, 2) target", 2 * m),
                ("h1", "(h1,) bias", h1), ("h2", "(h2,) bias", h2),
                ("n_points", "loss workspace's rolling buffer", math.prod(stream)),
                ("n_points and upsample_count", "(N, M) Chamfer matrix", n * m),
                ("n_points and upsample_count", "loss workspace's block scratch", scratch[0]),
                ("loop_size, h1, h2 and n_points", "parameter vector",  # w1 b1, w2 b2, w3 b3
                 h1 * (2 * loop + 1) + h2 * (h1 + 1) + 2 * n * (h2 + 1))):
            if count > _MAX_FLOATS:
                raise ConfigError(f"{names} too large: the {array} would hold {count} floats, "
                                  f"more than NumPy can size")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ConfigError(f"lr must be positive, got {self.lr}")
        lo, hi = self.clamp_y
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ConfigError(f"clamp_y must be a non-empty interval, got {self.clamp_y}")
        w = self.weights
        if not isinstance(w, LossWeights):
            raise ConfigError("weights must be a LossWeights instance")
        trio = (w.chamfer, w.repulsion, w.interior)
        if not all(math.isfinite(v) and v >= 0.0 for v in trio):
            raise ConfigError(f"weights must be finite and non-negative, got {trio}")
        if not any(v > 0.0 for v in trio):
            raise ConfigError("at least one loss weight must be positive")
        if not w.epsilon > 0.0:
            raise ConfigError(f"epsilon must be positive, got {w.epsilon}")

    @property
    def y_clamp(self) -> tuple[float, float] | None:
        """The clamp on the network's y outputs: ``clamp_y`` in stand-clamp mode only."""
        return self.clamp_y if self.mode == "stand-clamp" else None

    def to_dict(self) -> dict:
        return dict(asdict(self), clamp_y=list(self.clamp_y))

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return _from_dict(cls, d, "config")


# Adam runs in blocks of this many elements: six float64 slices and a block of
# w3's gradient fit in a 2 MiB L2 cache, in a scratch train() allocates once.
_ADAM_BLOCK = 32_768
# moment decay rates and denominator stabiliser (Kingma & Ba's defaults)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def adam_step(params: NetworkParams, grads: np.ndarray, moments: np.ndarray, scratch: np.ndarray,
              g3: np.ndarray, a2: np.ndarray, *, lr: float = 1e-3, t: int = 1) -> None:
    """One bias-corrected Adam update (t is the 1-based step count), in place, of
    the flat parameters, from ``net.backward``'s gradient (w3's slice unread),
    its cotangent g3 and w3's input a2: w3's gradient g3.T @ a2 is built a block
    of rows at a time, just before the block's update, in a (3, B) scratch,
    B >= max(_ADAM_BLOCK, 2 h2). The moments are the rows of one (2, P) array."""
    if t < 1:
        raise InputError(f"step count t must be >= 1, got {t}")
    if grads.shape != params.flat.shape:
        raise ConfigError("gradient shape does not match parameter shape")
    bc1, bc2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
    size, width = params.flat.size, params.w3.shape[1]
    w3_lo, w3_hi = size - params.b3.size - params.w3.size, size - params.b3.size
    # w3 goes an even number of rows at a time: 2N is even, so no block is one
    # row, whose product NumPy would hand to gemv, not gemm, rounding otherwise
    w3_block = max(2, _ADAM_BLOCK // width & ~1) * width
    bounds = [*range(0, w3_lo, _ADAM_BLOCK), *range(w3_lo, w3_hi, w3_block),
              *range(w3_hi, size, _ADAM_BLOCK), size]
    for lo, hi in zip(bounds, bounds[1:]):  # elementwise, so block by block
        m, v, (buf, step, g) = *moments[:, lo:hi], scratch[:, :hi - lo]
        if not w3_lo <= lo < w3_hi:
            g = grads[lo:hi]
        else:
            np.matmul(g3[:, (lo - w3_lo) // width:(hi - w3_lo) // width].T, a2,
                      out=g.reshape(-1, width))
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=buf)
        v *= BETA2
        v += np.multiply(np.multiply(g, 1.0 - BETA2, out=buf), g, out=buf)
        # lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.sqrt(np.divide(v, bc2, out=buf), out=buf)
        buf += EPS
        np.divide(m, bc1, out=step)
        step *= lr
        params.flat[lo:hi] -= np.divide(step, buf, out=step)


@dataclass(frozen=True, eq=False)
class TrainLog:
    # (epochs, 5), one row per epoch: the per-sample means of composite's terms
    terms: np.ndarray

    CSV_HEADER = "epoch,chamfer,repulsion,interior,total,mean_pairwise_distance\n"

    def to_csv_text(self) -> str:
        rows = np.column_stack((np.arange(1, len(self.terms) + 1), self.terms))
        return self.CSV_HEADER + ("%d,%r,%r,%r,%r,%r\n" * len(rows)) % tuple(rows.ravel().tolist())

    def to_csv(self, path) -> None:
        atomic_write_text(path, self.to_csv_text())


@dataclass
class TrainResult:
    params: NetworkParams
    transform: np.ndarray | None  # the (2, 2) standardise map; None in raw mode
    log: TrainLog


def train(dataset: Dataset, config: TrainConfig) -> TrainResult:
    """Train the generator on a dataset; deterministic given (dataset, config).

    Each epoch runs one forward pass over the batch of all samples, checks
    the whole (S, N, 2) output for finiteness once, evaluates the loss terms
    of every sample in one ``losses.composite`` call and runs one backward
    pass. The logged terms and the gradient are means over samples (full
    batch, one Adam step per epoch). A non-finite output, epoch total or
    final parameter vector aborts with the offending epoch.
    """
    loops = np.stack([s.loop for s in dataset.samples])  # (S, L, 2)
    if config.loop_size != loops.shape[1]:
        raise ConfigError(f"config loop_size {config.loop_size} != dataset loop size {loops.shape[1]}")
    params = init_params(config.seed, config.loop_size, config.h1, config.h2, config.n_points)
    moments = np.zeros((2, params.flat.size))

    targets = np.stack([s.target for s in dataset.samples])  # (S, M, 2)
    transform = None
    if config.mode != "raw":
        transform = fit_standardize(targets.reshape(-1, 2))  # training targets only
        targets = standardize_loop(transform, targets)
        loops = standardize_loop(transform, loops)
    n_samples = len(loops)
    x = loops.reshape(n_samples, -1)  # rows x0, y0, x1, ...
    log = TrainLog(np.zeros((config.epochs, 5)))
    grads, scratch = np.empty_like(params.flat), np.empty((3, max(_ADAM_BLOCK, 2 * config.h2)))
    # the loss scratch for all epochs: fresh per-epoch buffers made glibc trim and re-fault the heap
    work = workspace(n_samples, config.n_points, targets.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is caught below, not warned
        for epoch in range(1, config.epochs + 1):
            out, trace = forward(params, x, y_clamp=config.y_clamp)
            if not np.isfinite(out).all():  # the only non-finite source is numeric blow-up
                raise TrainingDivergedError(epoch, f"non-finite network output at epoch {epoch}")
            terms, grad = composite(out.reshape(n_samples, -1, 2), targets, loops, config.weights, work)
            row = np.divide(terms.sum(axis=0), n_samples, out=log.terms[epoch - 1])  # in sample order
            if not math.isfinite(row[3]):  # the total
                raise TrainingDivergedError(epoch, f"total loss became non-finite at epoch {epoch}")
            d_out = grad.reshape(n_samples, -1)
            d_out *= 1.0 / n_samples  # the cotangent of the mean loss
            g3 = backward(params, trace, d_out, grads)
            adam_step(params, grads, moments, scratch, g3, trace.a2, lr=config.lr, t=epoch)
    if not np.isfinite(params.flat).all():  # the last step, which no forward pass checks
        raise TrainingDivergedError(epoch, f"non-finite parameters after epoch {epoch}")
    return TrainResult(params, transform, log)


def predict(params: NetworkParams, transform: np.ndarray | None,
            loop: np.ndarray, config: TrainConfig) -> np.ndarray:
    """A cloud (N, 2) for a loop (L, 2), in original coordinates; InputError if it overflows."""
    if params.n_points != config.n_points or params.loop_size != config.loop_size:
        raise ConfigError("checkpoint dimensions do not match the configuration")
    if config.mode == "raw" and transform is not None:
        raise InputError("raw mode takes no standardise transform")
    if config.mode != "raw" and transform is None:
        raise InputError("standardised modes require the model's transform")
    inp = loop if transform is None else standardize_loop(transform, loop)
    with np.errstate(over="ignore", invalid="ignore"):  # caught below
        out = forward(params, inp.reshape(1, -1), y_clamp=config.y_clamp)[0].reshape(-1, 2)
        out = out if transform is None else invert_standardize(transform, out)
    if not np.isfinite(out).all():
        raise InputError("network output contains non-finite coordinates")
    return out


# a standardise map's checkpoint record: its (2, 2) entries in C order
_MAP_KEYS = ("mean_x", "mean_y", "scale_x", "scale_y")


def save_trained(path, result: TrainResult, config: TrainConfig, sample_names: list[str]) -> None:
    """Checkpoint the trained parameters, the config and one record per
    training sample, each repeating the model's one transform (null in raw mode)."""
    t = result.transform
    transform = None if t is None else dict(zip(_MAP_KEYS, t.ravel().tolist()))
    meta = {
        "config": config.to_dict(),
        "samples": [{"name": name, "transform": transform} for name in sample_names],
    }
    save_checkpoint(path, result.params, meta)


def _read_map(record) -> np.ndarray | None:
    """A sample's transform record: null, or an object of exactly the ``_MAP_KEYS`` numbers."""
    if record is None:
        return None
    if not isinstance(record, dict) or record.keys() != set(_MAP_KEYS):
        raise InputError(f"a transform must be null or an object of keys {list(_MAP_KEYS)}, "
                         f"got {record!r}")
    return check_map(np.reshape([as_float(record[k]) for k in _MAP_KEYS], (2, 2)))


def load_trained(path) -> tuple[NetworkParams, TrainConfig, np.ndarray | None]:
    """Parameters, config and the model's transform (None in raw mode)."""
    params, meta = load_checkpoint(path)
    try:
        config = TrainConfig.from_dict(meta["config"])
        transforms = [_read_map(rec["transform"]) for rec in meta["samples"]]
    except (KeyError, TypeError, ValueError, ConfigError, InputError) as exc:
        raise InputError(f"{path}: invalid checkpoint metadata: {exc}") from exc
    if params.n_points != config.n_points or params.loop_size != config.loop_size:
        raise InputError(f"{path}: checkpoint arrays disagree with its stored config")
    if not transforms:
        raise InputError(f"{path}: checkpoint lists no sample")
    if config.mode == "raw":
        if any(t is not None for t in transforms):
            raise InputError(f"{path}: raw mode takes no standardise transform")
        return params, config, None
    if len({t if t is None else tuple(t.flat) for t in transforms}) != 1:
        raise InputError(f"{path}: its samples hold different standardise transforms, "
                         "one fitted per sample; retrain it to fit one on all samples")
    if transforms[0] is None:
        raise InputError(f"{path}: missing standardise transform")
    return params, config, transforms[0]
