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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, InvalidInputError, ParseError, ShapeMismatchError, TrainingDivergedError
from .fileio import atomic_write_text
from .geometry import (
    AirfoilLoop,
    Frame,
    PointSet,
    StandardizeTransform,
    apply_standardize,
    fit_standardize,
    invert_standardize,
    standardize_loop,
)
from .ingest import Dataset
from .losses import LossWeights, composite, mean_pairwise_distance
from .net import NetworkParams, backward, forward, init_params, load_checkpoint, save_checkpoint


class TrainMode(enum.Enum):
    RAW = "raw"
    STANDARDISED = "stand"
    STANDARDISED_CLAMPED = "stand-clamp"


def default_interior_weight(mode: TrainMode) -> float:
    """10 when containment relies on the penalty, 0 once clamping confines y."""
    return 0.0 if mode is TrainMode.STANDARDISED_CLAMPED else 10.0


def _float_pair(value) -> tuple[float, float]:
    lo, hi = value
    return float(lo), float(hi)


@dataclass(frozen=True)
class TrainConfig:
    mode: TrainMode = TrainMode.RAW
    n_points: int = 400
    loop_size: int = 35
    upsample_count: int = 1500
    h1: int = 256
    h2: int = 512
    weights: LossWeights = field(default_factory=LossWeights)
    clamp_y: tuple[float, float] = (-1.0, 1.0)
    lr: float = 1e-3
    epochs: int = 5000
    seed: int = 0

    def validate(self) -> None:
        if not isinstance(self.mode, TrainMode):
            raise ConfigError(f"mode must be one of {[m.value for m in TrainMode]}")
        for name in ("n_points", "loop_size", "upsample_count", "h1", "h2", "epochs"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.loop_size < 3:
            raise ConfigError(f"loop_size must be at least 3, got {self.loop_size}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ConfigError(f"lr must be positive, got {self.lr}")
        lo, hi = self.clamp_y
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ConfigError(f"clamp_y must be a non-empty interval, got {self.clamp_y}")
        if not isinstance(self.weights, LossWeights):
            raise ConfigError("weights must be a LossWeights instance")

    def to_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "n_points": self.n_points,
            "loop_size": self.loop_size,
            "upsample_count": self.upsample_count,
            "h1": self.h1,
            "h2": self.h2,
            "weights": self.weights.to_dict(),
            "clamp_y": [self.clamp_y[0], self.clamp_y[1]],
            "lr": self.lr,
            "epochs": self.epochs,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {"mode", "n_points", "loop_size", "upsample_count", "h1", "h2",
                 "weights", "clamp_y", "lr", "epochs", "seed"}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kw: dict = {}
        if "mode" in d:
            try:
                kw["mode"] = TrainMode(d["mode"])
            except ValueError:
                raise ConfigError(f"unknown mode {d['mode']!r}; expected one of "
                                  f"{[m.value for m in TrainMode]}") from None
        converters = (("n_points", int), ("loop_size", int), ("upsample_count", int),
                      ("h1", int), ("h2", int), ("epochs", int), ("seed", int), ("lr", float),
                      ("clamp_y", _float_pair), ("weights", LossWeights.from_dict))
        for name, convert in converters:
            try:
                if name in d:
                    kw[name] = convert(d[name])
            except (InvalidInputError, TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"invalid {name} {d[name]!r}: {exc}") from None
        cfg = cls(**kw)
        cfg.validate()
        return cfg


@dataclass
class AdamState:
    """First/second moment accumulators, laid out like ``NetworkParams.flat``."""

    m: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, params: NetworkParams) -> "AdamState":
        return cls(np.zeros_like(params.flat), np.zeros_like(params.flat))


def adam_step(params: NetworkParams, grads: np.ndarray, state: AdamState, *,
              lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8, t: int = 1) -> tuple[NetworkParams, AdamState]:
    """One bias-corrected Adam update (t is the 1-based step count) of the
    flat parameter vector, given a gradient laid out like ``params.flat``.

    Parameters and state are updated in place and returned.
    """
    if t < 1:
        raise InvalidInputError(f"step count t must be >= 1, got {t}")
    if grads.shape != params.flat.shape:
        raise ShapeMismatchError("gradient shape does not match parameter shape")
    m, v = state.m, state.v
    buf, step = np.empty((2, m.size))
    m *= beta1
    m += np.multiply(grads, 1.0 - beta1, out=buf)
    v *= beta2
    np.multiply(grads, 1.0 - beta2, out=buf)
    v += np.multiply(buf, grads, out=buf)
    # lr * (m / bc1) / (sqrt(v / bc2) + eps)
    np.divide(v, 1.0 - beta2 ** t, out=buf)
    np.sqrt(buf, out=buf)
    buf += eps
    np.divide(m, 1.0 - beta1 ** t, out=step)
    step *= lr
    params.flat -= np.divide(step, buf, out=step)
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

    Each epoch runs one forward and one backward pass over the batch of all
    samples; only the loss terms are evaluated per sample. Gradients are
    averaged over samples (full batch, one Adam step per epoch). A
    non-finite epoch total aborts with the offending epoch.
    """
    config.validate()
    if config.loop_size != dataset.loop_size:
        raise ConfigError(f"config loop_size {config.loop_size} != dataset loop size {dataset.loop_size}")
    params = init_params(config.seed, config.loop_size, config.h1, config.h2, config.n_points)
    state = AdamState.zeros(params)
    standardise = config.mode is not TrainMode.RAW
    clamp = config.clamp_y if config.mode is TrainMode.STANDARDISED_CLAMPED else None

    refs: list[PointSet] = []
    polys: list[AirfoilLoop] = []
    transforms: list[StandardizeTransform] = []
    for s in dataset.samples:
        if standardise:
            t = fit_standardize(s.target)
            transforms.append(t)
            refs.append(apply_standardize(t, s.target))
            polys.append(standardize_loop(t, s.loop))
        else:
            refs.append(s.target)
            polys.append(s.loop)

    x = np.stack([poly.vertices.reshape(-1) for poly in polys])  # rows x0, y0, x1, ...
    n_samples = len(dataset.samples)
    records: list[EpochRecord] = []
    for epoch in range(1, config.epochs + 1):
        out, trace = forward(params, x, y_clamp=clamp)
        d_out = np.empty_like(out)
        sums = np.zeros(5)  # chamfer, repulsion, interior, total, mean pairwise
        for i, (ref, poly) in enumerate(zip(refs, polys)):
            try:
                pred = PointSet(out[i].reshape(-1, 2), poly.frame)
            except InvalidInputError as exc:
                # the only non-finite source here is numeric blow-up
                raise TrainingDivergedError(
                    epoch, f"non-finite network output at epoch {epoch}") from exc
            bd = composite(pred, ref, poly, config.weights)
            d_out[i] = bd.grad.reshape(-1)
            sums += (bd.chamfer, bd.repulsion, bd.interior, bd.total,
                     mean_pairwise_distance(pred.xy))
        sums /= n_samples
        record = EpochRecord(epoch, *map(float, sums))
        if not math.isfinite(record.total):
            raise TrainingDivergedError(epoch, f"total loss became non-finite at epoch {epoch}")
        d_out *= 1.0 / n_samples  # the cotangent of the mean loss
        adam_step(params, backward(params, trace, d_out), state, lr=config.lr, t=epoch)
        records.append(record)
    return TrainResult(params, transforms if standardise else None, TrainLog(tuple(records)))


def predict(params: NetworkParams, transform: StandardizeTransform | None,
            loop: AirfoilLoop, config: TrainConfig) -> PointSet:
    """Generate a cloud for a loop and map it back to original coordinates."""
    if params.n_points != config.n_points or params.loop_size != config.loop_size:
        raise ShapeMismatchError("checkpoint dimensions do not match the configuration")
    if loop.frame is not Frame.ORIGINAL:
        raise InvalidInputError("predict expects a loop in original coordinates")
    if config.mode is TrainMode.RAW:
        if transform is not None:
            raise InvalidInputError("raw mode takes no standardise transform")
        inp = loop.as_pointset()
        clamp = None
    else:
        if transform is None:
            raise InvalidInputError("standardised modes require the sample's transform")
        inp = apply_standardize(transform, loop.as_pointset())
        clamp = config.clamp_y if config.mode is TrainMode.STANDARDISED_CLAMPED else None
    out, _ = forward(params, inp.xy.reshape(1, -1), y_clamp=clamp)
    pred = PointSet(out.reshape(-1, 2), inp.frame)
    if transform is not None:
        pred = invert_standardize(transform, pred)
    return pred


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
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise ParseError(f"{path}: invalid checkpoint metadata: {exc}") from exc
    if params.n_points != config.n_points or params.loop_size != config.loop_size:
        raise ParseError(f"{path}: checkpoint arrays disagree with its stored config")
    return params, config, samples
