"""Command line interface: train / predict / evaluate / sweep.

Exit codes: 0 success, 1 other package error, 2 configuration error,
3 input parse error (or unreadable file), 4 training divergence, 5 out of
memory; each error class carries its code as ``exit_code``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, InputError, Loop2MeshError
from .evaluation import evaluate, kl_csv_text
from .fileio import atomic_write_text
from .geometry import padded_bbox, points_in_polygon
from .ingest import (build_dataset, contour_loop, fit_chord, load_manifest, parse_airfoil_dat,
                     parse_msh_nodes, parse_points_csv, read_parsed, to_chord_units)
from .svg import pixel_scale, render_svg
from .train import (
    MODES,
    TrainConfig,
    default_interior_weight,
    load_trained,
    predict,
    save_trained,
    train,
)

log = logging.getLogger(__name__)

LOOP_STROKE = "red"
PRED_FILL = "blue"
TRUTH_FILL = "green"
MEMORY_EXIT_CODE = 5


def _comma_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise ConfigError(f"expected a comma-separated list of numbers, got {text!r}") from None


def _comma_ints(text: str) -> list[int]:
    vals = _comma_floats(text)
    if not all(v.is_integer() for v in vals):  # nan and inf are not integers
        raise ConfigError(f"expected integers, got {text!r}")
    return [int(v) for v in vals]


def _sweep_ratios(text: str) -> list[float]:
    """A comma list's distinct ratios in first-seen order (0 and -0 are one), each
    finite and printing unlike the others under ``%g``, as every output labels it."""
    ratios = list(dict.fromkeys(_comma_floats(text)))
    if not all(math.isfinite(r) for r in ratios):  # nan also escapes the dedupe
        raise ConfigError(f"expected finite numbers, got {text!r}")
    labels: dict[str, float] = {}
    for r in ratios:
        first = labels.setdefault(f"{r:g}", r)
        if first != r:
            raise ConfigError(f"ratios {first!r} and {r!r} both print as {r:g}, "
                              "so their panels and kl rows would clash")
    return ratios


def _load_config_file(path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # also an int over 4300 digits, deep nesting
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return data


def _resolve_config(args) -> TrainConfig:
    """Merge defaults <- config file <- command line flags into a checked config."""
    raw: dict = {}
    if getattr(args, "config", None):
        raw = _load_config_file(args.config)
    weights = raw.get("weights", {})
    if not isinstance(weights, dict):
        raise ConfigError(f"invalid weights {weights!r}: not an object")
    for key in ("mode", "n_points", "epochs", "seed", "lr", "h1", "h2", "loop_size",
                "upsample_count"):  # each flag's dest is its config key
        val = getattr(args, key, None)
        if val is not None:
            raw[key] = val
    if getattr(args, "clamp_y", None) is not None:
        vals = _comma_floats(args.clamp_y)
        if len(vals) != 2:
            raise ConfigError(f"--clamp-y expects 'lo,hi', got {args.clamp_y!r}")
        raw["clamp_y"] = vals
    if getattr(args, "ratio", None) is not None:
        weights["repulsion"] = args.ratio
    if getattr(args, "interior_weight", None) is not None:
        weights["interior"] = args.interior_weight
    if "interior" not in weights:
        weights["interior"] = default_interior_weight(raw.get("mode", TrainConfig.mode))
    raw["weights"] = weights
    return TrainConfig.from_dict(raw)


def _input_hashes(manifest_path, entries) -> list[dict]:
    paths = [manifest_path] + [p for _, dat, msh in entries for p in (dat, msh)]
    return [{"path": str(p), "sha256": hashlib.sha256(Path(p).read_bytes()).hexdigest()}
            for p in paths]


def _write_run_manifest(path, command: str, config: TrainConfig,
                        inputs: list[dict], outputs: dict) -> None:
    doc = {
        "command": command,
        "tool": {"name": "loop2mesh", "version": __version__},
        "seed": config.seed,
        "config": config.to_dict(),
        "inputs": inputs,
        "outputs": outputs,
    }
    atomic_write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _points_csv_text(xy: np.ndarray) -> str:
    return "x,y\n" + ("%r,%r\n" * len(xy)) % tuple(xy.ravel().tolist())


def _parse_viewport(text: str) -> tuple[float, float, float, float]:
    vals = _comma_floats(text)
    if len(vals) != 4:
        raise ConfigError(f"--viewport expects 'xmin,xmax,ymin,ymax', got {text!r}")
    try:
        pixel_scale(vals)
    except InputError as err:
        raise ConfigError(f"--viewport {text!r}: {err}") from None
    return tuple(vals)


def _bbox_viewport(*clouds: np.ndarray) -> tuple[float, float, float, float]:
    lo, hi = padded_bbox(np.vstack(clouds), min_extent=1e-9)
    return lo[0], hi[0], lo[1], hi[1]


def _load_entries(args):
    entries = load_manifest(args.manifest)
    holdout = set(getattr(args, "holdout", None) or [])
    if holdout:
        missing = holdout - {name for name, _, _ in entries}
        if missing:
            raise ConfigError(f"holdout names not in manifest: {sorted(missing)}")
        entries = [e for e in entries if e[0] not in holdout]
        if not entries:
            raise ConfigError("holdout excludes every sample")
    return entries


# ---------------------------------------------------------------- commands

def cmd_train(args) -> int:
    config = _resolve_config(args)
    entries = _load_entries(args)
    out_dir = Path(args.out_dir)
    ckpt_path = out_dir / "checkpoint.l2m"
    log_path = out_dir / "trainlog.csv"
    dataset = build_dataset(entries, loop_size=config.loop_size,
                            target_count=config.upsample_count, seed=config.seed)
    _write_run_manifest(out_dir / "run_manifest.json", "train", config,
                        _input_hashes(args.manifest, entries),
                        {"checkpoint": ckpt_path.name, "trainlog": log_path.name})
    result = train(dataset, config)
    save_trained(ckpt_path, result, config, [s.name for s in dataset.samples])
    result.log.to_csv(log_path)
    chamfer, repulsion, interior, total, _ = result.log.terms[-1]
    print(f"trained {len(dataset.samples)} sample(s) for {config.epochs} epochs: "
          f"chamfer={chamfer:.6g} repulsion={repulsion:.6g} "
          f"interior={interior:.6g} total={total:.6g}")
    print(f"wrote {ckpt_path}")
    print(f"wrote {log_path}")
    return 0


def _prepare_loop(dat_path, config: TrainConfig):
    """The chord-normalised, resampled loop and its chord; every input error names the file."""
    return read_parsed(dat_path, lambda text: contour_loop(parse_airfoil_dat(text), config.loop_size))


def _read_truth(msh_path, chord):
    """Truth mesh nodes, in chord units unless ``chord`` is None; every input error,
    an overflow of the chord normalisation or of the padded bounding box included, names the file."""
    def parse(text):
        nodes = parse_msh_nodes(text)
        nodes = nodes if chord is None else to_chord_units(chord, nodes)
        if not np.isfinite(padded_bbox(nodes)).all():
            raise InputError("padded bounding box overflows the float range")
        return nodes
    return read_parsed(msh_path, parse)


def _checkpoint_prediction(checkpoint, dat):
    """Predict for a ``.dat`` contour; the network is released on return,
    before the command writes or scores anything."""
    if dat is None:
        raise ConfigError("--checkpoint needs --dat to build the input loop")
    params, config, transform = load_trained(checkpoint)
    loop, chord = _prepare_loop(dat, config)
    return predict(params, transform, loop, config), loop, chord, config


def cmd_predict(args) -> int:
    viewport = _parse_viewport(args.viewport) if args.viewport else None
    pred, loop, chord, _ = _checkpoint_prediction(args.checkpoint, args.dat)
    layers = [(pred, PRED_FILL, 2.0)]
    if args.truth is not None:
        layers.insert(0, (_read_truth(args.truth, chord), TRUTH_FILL, 1.5))
    viewport = viewport or _bbox_viewport(loop, *(xy for xy, _, _ in layers))

    out_dir = Path(args.out_dir)
    csv_path = out_dir / "points.csv"
    svg_path = out_dir / "scatter.svg"
    try:  # the SVG first: it checks the viewport before either file is written
        render_svg(svg_path, viewport=viewport,
                   polylines=[(loop, LOOP_STROKE, 1.5, True)],
                   point_layers=layers)
    except InputError as exc:  # a finite truth box can overflow once joined with the loop's
        raise InputError(f"{args.truth}: {exc}; pass --viewport to draw it") if args.truth else exc
    atomic_write_text(csv_path, _points_csv_text(pred))

    interior = int(points_in_polygon(pred, loop).sum())
    print(f"wrote {csv_path} ({len(pred)} points)")
    print(f"wrote {svg_path}")
    print(f"interior: {interior}")
    return 0


def cmd_evaluate(args) -> int:
    if (args.pred is None) == (args.checkpoint is None):
        raise ConfigError("provide exactly one of --pred or --checkpoint")
    ratio = args.ratio
    if ratio is not None and not math.isfinite(ratio):  # a label, but every row carries it
        raise ConfigError(f"--ratio must be finite, got {ratio!r}")
    if args.checkpoint is not None:
        pred, _, chord, config = _checkpoint_prediction(args.checkpoint, args.dat)
        if ratio is None:
            ratio = config.weights.repulsion
    else:
        pred = read_parsed(args.pred, parse_points_csv)
        chord = None
        if args.dat is not None:
            chord = read_parsed(args.dat, lambda text: fit_chord(parse_airfoil_dat(text)))
        if ratio is None:
            ratio = 0.0
    truth = _read_truth(args.truth, chord)

    scores = evaluate(pred, truth)
    out_path = Path(args.out) if args.out else Path(args.out_dir) / "kl.csv"
    atomic_write_text(out_path, kl_csv_text({(ratio, len(pred)): scores}))
    for window, kl in scores.items():  # center, then whole
        print(f"ratio={ratio:g} region={window[0]} nodes={len(pred)} kl={kl:.6f}")
    print(f"wrote {out_path}")
    return 0


def _cell_hash(config: TrainConfig, input_hashes: list[dict]) -> str:
    doc = json.dumps({"config": config.to_dict(),
                      "inputs": [rec["sha256"] for rec in input_hashes]},
                     sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]


def cmd_sweep(args) -> int:
    ratios = _sweep_ratios(args.ratios)
    node_counts = list(dict.fromkeys(_comma_ints(args.node_counts)))  # each count once
    if not ratios or not node_counts:
        raise ConfigError("sweep needs at least one ratio and one node count")
    base = _resolve_config(args)
    entries = _load_entries(args)
    out_dir = Path(args.out_dir)
    ckpt_dir = out_dir / "checkpoints"
    panel_dir = out_dir / "panels"
    input_hashes = _input_hashes(args.manifest, entries)

    dataset = build_dataset(entries, loop_size=base.loop_size,
                            target_count=base.upsample_count, seed=base.seed)
    # each cell is scored as `evaluate --checkpoint` scores the first section: on its whole mesh
    loop, chord = _prepare_loop(entries[0][1], base)
    truth = _read_truth(entries[0][2], chord)
    scores: dict[tuple[float, int], dict[str, float] | None] = {}
    failures: list[str] = []
    for ratio in ratios:
        for nodes in node_counts:
            try:
                cell_cfg = replace(base, n_points=nodes,
                                   weights=replace(base.weights, repulsion=ratio))
                ckpt_path = ckpt_dir / f"ckpt_{_cell_hash(cell_cfg, input_hashes)}.l2m"
                if ckpt_path.exists():
                    log.info("cell ratio=%g nodes=%d: reusing checkpoint %s", ratio, nodes, ckpt_path.name)
                else:
                    log.info("cell ratio=%g nodes=%d: training", ratio, nodes)
                    save_trained(ckpt_path, train(dataset, cell_cfg), cell_cfg,
                                 [s.name for s in dataset.samples])
                params, cfg, transform = load_trained(ckpt_path)
                pred = predict(params, transform, loop, cfg)
                cell = evaluate(pred, truth)
                render_svg(panel_dir / f"cell_r{ratio:g}_n{nodes}.svg",
                           viewport=_bbox_viewport(pred, loop),
                           polylines=[(loop, LOOP_STROKE, 1.5, True)],
                           point_layers=[(pred, PRED_FILL, 2.0)])
            except Loop2MeshError as exc:
                failures.append(f"ratio={ratio:g} nodes={nodes}: {exc}")
                cell = None
            scores[(ratio, nodes)] = cell

    text = kl_csv_text(scores)
    kl_path = out_dir / "kl.csv"
    atomic_write_text(kl_path, text)
    _write_run_manifest(out_dir / "run_manifest.json", "sweep", base, input_hashes,
                        {"kl": kl_path.name, "checkpoints": ckpt_dir.name, "panels": panel_dir.name})
    sys.stdout.write(text)
    if failures:
        print(f"{len(failures)} cell(s) failed:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
    print(f"wrote {kl_path}")
    return 0


# ---------------------------------------------------------------- parser

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its keys")
    p.add_argument("--seed", type=int, help="RNG seed (init + upsampling)")
    p.add_argument("--mode", choices=MODES, help="coordinate handling mode")
    p.add_argument("--ratio", type=float, help="repulsion weight of the composite loss")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--lr", type=float, help="Adam learning rate")
    p.add_argument("--h1", type=int, help="first hidden width")
    p.add_argument("--h2", type=int, help="second hidden width")
    p.add_argument("--interior-weight", type=float, dest="interior_weight",
                   help="interior penalty weight (default: 10, or 0 when clamped)")
    p.add_argument("--clamp-y", dest="clamp_y",
                   help="y clamp interval 'lo,hi' (stand-clamp mode)")
    p.add_argument("--loop-size", type=int, dest="loop_size", help="loop vertex count L")
    p.add_argument("--upsample-count", type=int, dest="upsample_count",
                   help="target cloud size M")
    p.add_argument("--holdout", action="append",
                   help="sample name to exclude from training (repeatable)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="loop2mesh",
                                     description="Generate dense 2D mesh point clouds around airfoil loops.")
    parser.add_argument("--version", action="version", version=f"loop2mesh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a generator from a dataset manifest")
    p_train.add_argument("manifest", help="JSON manifest of {name, dat, msh} records")
    p_train.add_argument("--out-dir", default="runs/train")
    p_train.add_argument("--nodes", type=int, dest="n_points", metavar="NODES",
                         help="generated point count")
    _add_config_flags(p_train)

    p_pred = sub.add_parser("predict", help="generate points for an airfoil contour")
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--dat", required=True, help="airfoil .dat contour")
    p_pred.add_argument("--truth", help="optional .msh overlay")
    p_pred.add_argument("--viewport", help="fixed plot viewport 'xmin,xmax,ymin,ymax'")
    p_pred.add_argument("--out-dir", default="runs/predict")

    p_eval = sub.add_parser("evaluate", help="score a prediction against a truth mesh")
    p_eval.add_argument("--pred", help="points CSV (from predict)")
    p_eval.add_argument("--checkpoint", help="checkpoint to predict with (needs --dat)")
    p_eval.add_argument("--dat", help="contour used for chord normalisation")
    p_eval.add_argument("--truth", required=True, help="truth .msh")
    p_eval.add_argument("--ratio", type=float, help="ratio label for the CSV rows")
    p_eval.add_argument("--out", help="KL CSV path (default <out-dir>/kl.csv)")
    p_eval.add_argument("--out-dir", default="runs/evaluate")

    p_sweep = sub.add_parser("sweep", help="train/evaluate a (ratio x nodes) grid")
    p_sweep.add_argument("manifest")
    p_sweep.add_argument("--ratios", required=True, help="comma list, e.g. 0,1,2,3")
    p_sweep.add_argument("--nodes", required=True, dest="node_counts", metavar="NODES",
                         help="comma list of point counts")
    p_sweep.add_argument("--out-dir", default="runs/sweep")
    _add_config_flags(p_sweep)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        # looked up per call, so a rebound ``cmd_*`` (a tracer, a test) is the one run
        return globals()["cmd_" + args.command](args)
    except (Loop2MeshError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # an unreadable file is an input error, like a parse error
        return getattr(exc, "exit_code", InputError.exit_code)
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return MEMORY_EXIT_CODE


if __name__ == "__main__":
    sys.exit(main())
