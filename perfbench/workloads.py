"""Workload definitions and their seeded input generation.

Each workload is one user session: ``build_dataset`` from files on disk,
``train`` for a fixed number of epochs, ``save_trained``, then
``loop2mesh predict`` and ``loop2mesh evaluate --checkpoint`` over the
workload's scoring set. The workloads differ in mix so that each layer
likely to be optimised dominates one workload and is minor in another:

desk-train   the paper's desk config on one NACA 2220 airfoil; the N^2 loss
             kernels and Adam dominate an epoch.
fleet-train  16 sections, 4 held out, raw mode, small N; the per-sample
             Python loop in ``train.train`` dominates an epoch, and the
             multi-file ingest gives set-up real work.
score        a short desk-config training, then many predict/evaluate calls
             on unseen sections; checkpoint load, parsing, resampling, KDE
             and SVG writing dominate.

The training corpus of a workload is the same for every seed; the seed draws
the reference meshes that the scoring set is predicted for and scored
against. A 50-epoch model's KL score moves by a third with the sample of its
training mesh, which would hide any real change in quality.

A run repeats whole cycles until ``--seconds`` have passed and at least
``MIN_CYCLES`` are done. A cycle is a fixed sequence: some ``build_dataset``
calls, one training, some scoring rounds (predict and evaluate on every
section of the scoring set). The fixed order keeps peak memory repeatable,
and spreading each phase over the whole run means a drift in machine speed
moves every phase's median alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

DESK_CONFIG = {
    "mode": "stand-clamp", "n_points": 400, "loop_size": 35, "upsample_count": 1500,
    "weights": {"chamfer": 1.0, "repulsion": 1.0, "interior": 10.0},
}
FLEET_CONFIG = {
    "mode": "raw", "n_points": 100, "loop_size": 35, "upsample_count": 600,
    "weights": {"chamfer": 1.0, "repulsion": 1.0, "interior": 10.0},
}
MIN_CYCLES = 3
TRAIN_SEED = 0             # synth seed of every training corpus
SCORE_SEED_BASE = 10_000   # reference mesh i of seed s uses synth seed base + 100 s + i


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict            # TrainConfig.from_dict keys
    trained: tuple          # NACA codes of the trained sections
    unseen: tuple           # NACA codes held out from training
    score_trained: bool     # whether the scoring set includes the trained sections
    references: int         # reference meshes drawn per scored section
    mesh_nodes: int
    cycle: tuple            # (builds, trainings, scoring rounds) per cycle


UNSEEN = ("0010", "0012", "0015", "0018", "0021", "0024", "1410", "2412",
          "2415", "2418", "2421", "4412", "4415", "4418", "4421", "6412")

WORKLOADS = {
    "desk-train": Workload("desk-train", dict(DESK_CONFIG, epochs=50), trained=("2220",),
                           unseen=(), score_trained=True, references=8, mesh_nodes=3000,
                           cycle=(6, 1, 2)),
    "fleet-train": Workload("fleet-train", dict(FLEET_CONFIG, epochs=40),
                            trained=("0009", "0011", "0014", "0017", "0020", "0023", "2411",
                                     "2414", "2420", "4414", "4420", "6414"),
                            unseen=("0012", "2417", "4417", "6418"), score_trained=True,
                            references=1, mesh_nodes=2000, cycle=(2, 1, 1)),
    "score": Workload("score", dict(DESK_CONFIG, epochs=20), trained=("2220",), unseen=UNSEEN,
                      score_trained=False, references=1, mesh_nodes=3000, cycle=(8, 1, 3)),
}


def input_spec(workload: Workload, seed: int) -> dict:
    """Section name -> NACA code, for the training corpus and the scoring set."""
    scored = (workload.trained if workload.score_trained else ()) + workload.unseen
    if workload.references == 1:
        scoring = {f"naca{c}": c for c in scored}
    else:
        scoring = {f"naca{c}-ref{k}": c for c in scored for k in range(workload.references)}
    return {
        "workload": workload.name,
        "seed": seed,
        "mesh_nodes": workload.mesh_nodes,
        "trained": {f"naca{c}": c for c in workload.trained},
        "scoring": scoring,
    }


def _write(out_dir: Path, sections: dict, mesh_nodes: int, seed: int, spec: dict) -> None:
    """Write a .dat/.msh pair per section and a manifest, unless present.

    ``inputs.json`` is written last and holds ``spec``, so a directory with
    an equal ``inputs.json`` is complete and is reused as it stands.
    """
    marker = out_dir / "inputs.json"
    if marker.is_file() and json.loads(marker.read_text()) == spec:
        return
    from loop2mesh.fileio import atomic_write_text
    from loop2mesh.synth import dat_text, msh_text, naca4_contour, synth_fluid_mesh

    out_dir.mkdir(parents=True, exist_ok=True)
    for i, (name, code) in enumerate(sections.items()):
        contour = naca4_contour(code)
        atomic_write_text(out_dir / f"{name}.dat", dat_text(contour, name=f"NACA {code}"))
        atomic_write_text(out_dir / f"{name}.msh",
                          msh_text(synth_fluid_mesh(contour, mesh_nodes, seed=seed + i)))
    records = [{"name": n, "dat": f"{n}.dat", "msh": f"{n}.msh"} for n in sections]
    atomic_write_text(out_dir / "manifest.json", json.dumps(records, indent=1) + "\n")
    marker.write_text(json.dumps(spec, indent=1) + "\n")


def make_inputs(workload: Workload, seed: int, work: Path) -> tuple[dict, Path, Path]:
    """Write the workload's inputs; returns (spec, training dir, scoring dir).

    Trained sections in the scoring set are scored against fresh reference
    meshes, not the ones they were trained on.
    """
    spec = input_spec(workload, seed)
    train_dir = work / workload.name / "train"
    score_dir = work / workload.name / f"seed{seed}" / "score-inputs"
    _write(train_dir, spec["trained"], workload.mesh_nodes, TRAIN_SEED,
           {"trained": spec["trained"], "mesh_nodes": workload.mesh_nodes})
    _write(score_dir, spec["scoring"], workload.mesh_nodes, SCORE_SEED_BASE + 100 * seed, spec)
    return spec, train_dir, score_dir
