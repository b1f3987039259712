"""Training orchestration.

Full-batch Adam on the generator under the composite objective, with three
coordinate-handling modes:

raw          train directly on chord-normalised coordinates.
stand        per-sample standardisation fitted on the ground-truth mesh and
             applied to both loop and mesh.
stand-clamp  as ``stand``, plus hard clamping of predicted y coordinates.

A full run is a pure function of (dataset, config): logs, parameters and
checkpoints are bit-reproducible.
"""

from __future__ import annotations

import csv
import enum
import io
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import ConfigError, InvalidInputError, ParseError, ShapeMismatchError, TrainingDivergedError
from .fileio import atomic_write_text
from .geometry import (
    AirfoilLoop,
    PointSet,
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
        raise InvalidInputError(f"expected an integer, got {value!r}")
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
    n_points: int = 400
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
            except (InvalidInputError, TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"invalid {name} {value!r}: {exc}") from None
        cfg = cls(**kw)
        cfg.validate()
        return cfg


# Adam runs in blocks of this many elements: six float64 slices (1.5 MiB) fit
# in a 2 MiB L2 cache. Its scratch pair stays full-length: block-sized, it kept
# glibc's adaptive mmap threshold low, and predict/evaluate then re-faulted
# their multi-megabyte checkpoint buffers on every call.
_ADAM_BLOCK = 32_768
# moment decay rates and denominator stabiliser (Kingma & Ba's defaults)
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, laid out like ``NetworkParams.flat``."""

    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, params: NetworkParams) -> "AdamState":
        return cls(np.zeros_like(params.flat), np.zeros_like(params.flat))


def adam_step(params: NetworkParams, grads: np.ndarray, state: AdamState, *,
              lr: float = 1e-3, t: int = 1) -> tuple[NetworkParams, AdamState]:
    """One bias-corrected Adam update (t is the 1-based step count) of the
    flat parameter vector, given a gradient laid out like ``params.flat``.

    Parameters and state are updated in place and returned.
    """
    if t < 1:
        raise InvalidInputError(f"step count t must be >= 1, got {t}")
    if grads.shape != params.flat.shape:
        raise ShapeMismatchError("gradient shape does not match parameter shape")
    bc1, bc2 = 1.0 - BETA1 ** t, 1.0 - BETA2 ** t
    scratch = np.empty((2, grads.size))
    for lo in range(0, grads.size, _ADAM_BLOCK):  # elementwise, so block by block
        blk = slice(lo, lo + _ADAM_BLOCK)
        g, m, v, buf, step = grads[blk], state.m[blk], state.v[blk], *scratch[:, blk]
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=buf)
        v *= BETA2
        v += np.multiply(np.multiply(g, 1.0 - BETA2, out=buf), g, out=buf)
        # lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.sqrt(np.divide(v, bc2, out=buf), out=buf)
        buf += EPS
        np.divide(m, bc1, out=step)
        step *= lr
        params.flat[blk] -= np.divide(step, buf, out=step)
    return params, state


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    chamfer: float
    repulsion: float
    interior: float
    total: float
    mean_pairwise: float


@dataclass(frozen=True)
class TrainLog:
    records: tuple[EpochRecord, ...]

    CSV_HEADER = ("epoch", "chamfer", "repulsion", "interior", "total", "mean_pairwise_distance")

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.CSV_HEADER)
        for r in self.records:
            writer.writerow([r.epoch, repr(r.chamfer), repr(r.repulsion),
                             repr(r.interior), repr(r.total), repr(r.mean_pairwise)])
        return buf.getvalue()

    def to_csv(self, path) -> None:
        atomic_write_text(path, self.to_csv_text())


@dataclass
class TrainResult:
    params: NetworkParams
    transforms: Optional[list[StandardizeTransform]]  # one per sample; None in raw mode
    log: TrainLog


def train(dataset: Dataset, config: TrainConfig) -> TrainResult:
    """Train the generator on a dataset; deterministic given (dataset, config).

    Each epoch runs one forward pass over the batch of all samples, checks
    the whole (S, N, 2) output for finiteness once, evaluates the loss terms
    of every sample in one ``losses.composite`` call and runs one backward
    pass. The logged terms and the gradient are means over samples (full
    batch, one Adam step per epoch). A non-finite output or epoch total
    aborts with the offending epoch.
    """
    config.validate()
    if config.loop_size != dataset.loop_size:
        raise ConfigError(f"config loop_size {config.loop_size} != dataset loop size {dataset.loop_size}")
    params = init_params(config.seed, config.loop_size, config.h1, config.h2, config.n_points)
    state = AdamState.zeros(params)

    refs = [s.target.xy for s in dataset.samples]
    polys = [s.loop.vertices for s in dataset.samples]
    transforms = None
    if config.mode is not TrainMode.RAW:
        transforms = [fit_standardize(ref) for ref in refs]
        refs = [standardize_loop(t, ref) for t, ref in zip(transforms, refs)]
        polys = [standardize_loop(t, poly) for t, poly in zip(transforms, polys)]
    n_samples = len(polys)
    loops = np.stack(polys)
    x = loops.reshape(n_samples, -1)  # rows x0, y0, x1, ...
    records: list[EpochRecord] = []
    for epoch in range(1, config.epochs + 1):
        out, trace = forward(params, x, y_clamp=config.y_clamp)
        if not np.isfinite(out).all():  # the only non-finite source is numeric blow-up
            raise TrainingDivergedError(epoch, f"non-finite network output at epoch {epoch}")
        terms, grad = composite(out.reshape(n_samples, -1, 2), refs, loops, config.weights)
        # chamfer, repulsion, interior, total, mean pairwise: summed in sample order
        record = EpochRecord(epoch, *(terms.sum(axis=0) / n_samples).tolist())
        if not math.isfinite(record.total):
            raise TrainingDivergedError(epoch, f"total loss became non-finite at epoch {epoch}")
        d_out = grad.reshape(n_samples, -1)
        d_out *= 1.0 / n_samples  # the cotangent of the mean loss
        adam_step(params, backward(params, trace, d_out), state, lr=config.lr, t=epoch)
        records.append(record)
    return TrainResult(params, transforms, TrainLog(tuple(records)))


def predict(params: NetworkParams, transform: StandardizeTransform | None,
            loop: AirfoilLoop, config: TrainConfig) -> PointSet:
    """Generate a cloud for a loop and map it back to original coordinates."""
    if params.n_points != config.n_points or params.loop_size != config.loop_size:
        raise ShapeMismatchError("checkpoint dimensions do not match the configuration")
    if config.mode is TrainMode.RAW and transform is not None:
        raise InvalidInputError("raw mode takes no standardise transform")
    if config.mode is not TrainMode.RAW and transform is None:
        raise InvalidInputError("standardised modes require the sample's transform")
    inp = loop.vertices if transform is None else standardize_loop(transform, loop.vertices)
    out, _ = forward(params, inp.reshape(1, -1), y_clamp=config.y_clamp)
    out = out.reshape(-1, 2)
    return PointSet(out if transform is None else invert_standardize(transform, out))


def save_trained(path, result: TrainResult, config: TrainConfig, sample_names: list[str]) -> None:
    """Checkpoint the trained parameters plus config and per-sample transforms."""
    transforms = result.transforms or [None] * len(sample_names)
    meta = {
        "config": config.to_dict(),
        "samples": [{"name": name, "transform": (t.to_dict() if t is not None else None)}
                    for name, t in zip(sample_names, transforms)],
    }
    save_checkpoint(path, result.params, meta)


def load_trained(path) -> tuple[NetworkParams, TrainConfig, list[tuple[str, StandardizeTransform | None]]]:
    params, meta = load_checkpoint(path)
    try:
        config = TrainConfig.from_dict(meta["config"])
        samples = [(str(rec["name"]),
                    StandardizeTransform.from_dict(rec["transform"]) if rec["transform"] else None)
                   for rec in meta["samples"]]
    except (KeyError, TypeError, ValueError, ConfigError, InvalidInputError) as exc:
        raise ParseError(f"{path}: invalid checkpoint metadata: {exc}") from exc
    if params.n_points != config.n_points or params.loop_size != config.loop_size:
        raise ParseError(f"{path}: checkpoint arrays disagree with its stored config")
    return params, config, samples
