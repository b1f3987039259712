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

import enum
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, InputError, TrainingDivergedError
from .fileio import atomic_write_text
from .geometry import (
    AirfoilLoop,
    StandardizeTransform,
    as_float,
    fit_standardize,
    invert_standardize,
    standardize_loop,
)
from .ingest import Dataset
from .losses import LossWeights, composite
from .net import NetworkParams, backward, forward, init_params, load_checkpoint, save_checkpoint


class TrainMode(enum.Enum):
    RAW = "raw"
    STANDARDISED = "stand"
    STANDARDISED_CLAMPED = "stand-clamp"

    @classmethod
    def parse(cls, value) -> "TrainMode":
        try:
            return cls(value)
        except ValueError:
            raise ConfigError(f"unknown mode {value!r}; expected one of "
                              f"{[m.value for m in cls]}") from None


def default_interior_weight(mode: TrainMode) -> float:
    """10 when containment relies on the penalty, 0 once clamping confines y."""
    return 0.0 if mode is TrainMode.STANDARDISED_CLAMPED else 10.0


def _as_int(value) -> int:
    if type(value) is not int:  # a bool is an int subclass, not a count
        raise InputError(f"expected an integer, got {value!r}")
    return value


def _float_pair(value) -> tuple[float, float]:
    lo, hi = value
    return as_float(lo), as_float(hi)


# config-file value -> field value, keyed by the field's annotation
_CONVERTERS = {"TrainMode": TrainMode.parse, "int": _as_int, "float": as_float,
               "tuple[float, float]": _float_pair, "LossWeights": LossWeights.from_dict}


@dataclass(frozen=True)
class TrainConfig:
    """Every int field must be at least its ``min`` (default 1)."""

    mode: TrainMode = TrainMode.RAW
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

    def validate(self) -> None:
        if not isinstance(self.mode, TrainMode):
            raise ConfigError(f"mode must be one of {[m.value for m in TrainMode]}")
        for f in fields(self):
            v = getattr(self, f.name)
            low = f.metadata.get("min", 1)
            if f.type == "int" and not (type(v) is int and v >= low):
                raise ConfigError(f"{f.name} must be an integer >= {low}, got {v!r}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ConfigError(f"lr must be positive, got {self.lr}")
        lo, hi = self.clamp_y
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ConfigError(f"clamp_y must be a non-empty interval, got {self.clamp_y}")
        if not isinstance(self.weights, LossWeights):
            raise ConfigError("weights must be a LossWeights instance")

    @property
    def y_clamp(self) -> tuple[float, float] | None:
        """The clamp on the network's y outputs: ``clamp_y`` in stand-clamp mode only."""
        return self.clamp_y if self.mode is TrainMode.STANDARDISED_CLAMPED else None

    def to_dict(self) -> dict:
        return dict(asdict(self), mode=self.mode.value, clamp_y=list(self.clamp_y))

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a mapping, got {d!r}")
        table = {f.name: _CONVERTERS[f.type] for f in fields(cls)}
        unknown = set(d) - set(table)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kw: dict = {}
        for name, value in d.items():
            try:
                kw[name] = table[name](value)
            except (InputError, TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"invalid {name} {value!r}: {exc}") from None
        cfg = cls(**kw)
        cfg.validate()
        return cfg


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
    transform: StandardizeTransform | None  # None in raw mode
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
    config.validate()
    if config.loop_size != dataset.loop_size:
        raise ConfigError(f"config loop_size {config.loop_size} != dataset loop size {dataset.loop_size}")
    params = init_params(config.seed, config.loop_size, config.h1, config.h2, config.n_points)
    moments = np.zeros((2, params.flat.size))

    targets = np.stack([s.target for s in dataset.samples])  # (S, M, 2)
    loops = np.stack([s.loop.vertices for s in dataset.samples])
    transform = None
    if config.mode is not TrainMode.RAW:
        transform = fit_standardize(targets.reshape(-1, 2))  # training targets only
        targets = standardize_loop(transform, targets)
        loops = standardize_loop(transform, loops)
    n_samples = len(loops)
    x = loops.reshape(n_samples, -1)  # rows x0, y0, x1, ...
    log = TrainLog(np.zeros((config.epochs, 5)))
    grads, scratch = np.empty_like(params.flat), np.empty((3, max(_ADAM_BLOCK, 2 * config.h2)))
    # one Chamfer matrix for all epochs: fresh (N, M) ones made glibc trim and re-fault the heap
    d2 = np.empty((config.n_points, targets.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):  # a blow-up is caught below, not warned
        for epoch in range(1, config.epochs + 1):
            out, trace = forward(params, x, y_clamp=config.y_clamp)
            if not np.isfinite(out).all():  # the only non-finite source is numeric blow-up
                raise TrainingDivergedError(epoch, f"non-finite network output at epoch {epoch}")
            terms, grad = composite(out.reshape(n_samples, -1, 2), targets, loops, config.weights, d2)
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


def predict(params: NetworkParams, transform: StandardizeTransform | None,
            loop: AirfoilLoop, config: TrainConfig) -> np.ndarray:
    """A cloud (N, 2) for a loop, in original coordinates; InputError if it overflows."""
    if params.n_points != config.n_points or params.loop_size != config.loop_size:
        raise ConfigError("checkpoint dimensions do not match the configuration")
    if config.mode is TrainMode.RAW and transform is not None:
        raise InputError("raw mode takes no standardise transform")
    if config.mode is not TrainMode.RAW and transform is None:
        raise InputError("standardised modes require the model's transform")
    inp = loop.vertices if transform is None else standardize_loop(transform, loop.vertices)
    with np.errstate(over="ignore", invalid="ignore"):  # caught below
        out = forward(params, inp.reshape(1, -1), y_clamp=config.y_clamp)[0].reshape(-1, 2)
        out = out if transform is None else invert_standardize(transform, out)
    if not np.isfinite(out).all():
        raise InputError("network output contains non-finite coordinates")
    return out


def save_trained(path, result: TrainResult, config: TrainConfig, sample_names: list[str]) -> None:
    """Checkpoint the trained parameters, the config and one record per
    training sample, each repeating the model's one transform (null in raw mode)."""
    transform = result.transform.to_dict() if result.transform is not None else None
    meta = {
        "config": config.to_dict(),
        "samples": [{"name": name, "transform": transform} for name in sample_names],
    }
    save_checkpoint(path, result.params, meta)


def load_trained(path) -> tuple[NetworkParams, TrainConfig, StandardizeTransform | None]:
    """Parameters, config and the model's transform (None in raw mode)."""
    params, meta = load_checkpoint(path)
    try:
        config = TrainConfig.from_dict(meta["config"])
        transforms = [StandardizeTransform.from_dict(rec["transform"]) if rec["transform"] else None
                      for rec in meta["samples"]]
    except (KeyError, TypeError, ValueError, ConfigError, InputError) as exc:
        raise InputError(f"{path}: invalid checkpoint metadata: {exc}") from exc
    if params.n_points != config.n_points or params.loop_size != config.loop_size:
        raise InputError(f"{path}: checkpoint arrays disagree with its stored config")
    if not transforms:
        raise InputError(f"{path}: checkpoint lists no sample")
    if config.mode is TrainMode.RAW:
        return params, config, None
    if len(set(transforms)) != 1:
        raise InputError(f"{path}: its samples hold different standardise transforms, "
                         "one fitted per sample; retrain it to fit one on all samples")
    if transforms[0] is None:
        raise InputError(f"{path}: missing standardise transform")
    return params, config, transforms[0]
