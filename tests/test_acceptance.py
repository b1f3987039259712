"""End-to-end quality gate: one test per shipped guarantee.

Run ``pytest -v tests/test_acceptance.py`` for a one-line pass/fail view.
The four shared training runs are desk-scale (single airfoil, 5000 epochs),
trained two at a time in worker processes, and together take a few minutes;
the checks that use them or the workers are marked ``slow``, and everything
else is fast (``pytest -m "not slow"``).
"""

import json
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from oracles import brute_chamfer, params_to_vector, vector_to_params

from loop2mesh.cli import main
from loop2mesh.errors import InputError
from loop2mesh.evaluation import CENTER, evaluate, kde, kl_divergence, scott_bandwidth
from loop2mesh.geometry import AirfoilLoop, points_in_polygon
from loop2mesh.ingest import build_dataset, load_manifest, parse_airfoil_dat, parse_msh_nodes
from loop2mesh.losses import LossWeights, _pairwise, chamfer, composite, repulsion
from loop2mesh.net import forward, gradient, init_params
from loop2mesh.synth import write_sample_dataset
from loop2mesh.train import TrainConfig, TrainLog, TrainMode, predict, train

# ----------------------------------------------------------- shared desk runs

DESK_EPOCHS = 5000
DESK_INTERIOR_WEIGHT = 10.0
# the four shared runs: name -> (mode, repulsion ratio, points)
DESK_RUNS = {"clamped_r1": (TrainMode.STANDARDISED_CLAMPED, 1.0, 400),
             "clamped_r0": (TrainMode.STANDARDISED_CLAMPED, 0.0, 400),
             "clamped_r2": (TrainMode.STANDARDISED_CLAMPED, 2.0, 400),
             "raw_r0_n300": (TrainMode.RAW, 0.0, 300)}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DESK_WAIT_S = 900  # seconds a test waits on a worker before it fails


@pytest.fixture(scope="module")
def desk_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk_data")
    manifest = write_sample_dataset(out, codes=("2220",), contour_points=121,
                                    mesh_nodes=3000, seed=0)
    dataset = build_dataset(load_manifest(manifest), loop_size=35,
                            target_count=1500, seed=0)
    return {"manifest": manifest, "dataset": dataset,
            "sample": dataset.samples[0]}


def _desk_run(dataset, mode, ratio, n_points, epochs=DESK_EPOCHS):
    """One desk training and its prediction for the dataset's one loop; run
    in a worker process, so ``elapsed`` times the training there."""
    cfg = TrainConfig(mode=mode, n_points=n_points, loop_size=35,
                      upsample_count=1500,
                      weights=LossWeights(1.0, ratio, DESK_INTERIOR_WEIGHT),
                      epochs=epochs, seed=0)
    t0 = time.perf_counter()
    result = train(dataset, cfg)
    elapsed = time.perf_counter() - t0
    pred = predict(result.params, result.transform, dataset.samples[0].loop, cfg)
    return {"pred": pred, "terms": result.log.terms, "elapsed": elapsed}


@pytest.fixture(scope="module")
def desk_pool():
    """Two worker processes with one BLAS thread each, started on the first
    request (so ``-m "not slow"`` starts none) and shut down with the module.
    A spawned worker reads the thread count from the environment it inherits
    when it imports NumPy."""
    with pytest.MonkeyPatch.context() as env:
        for var in BLAS_THREAD_VARS:
            env.setenv(var, "1")
        pool = ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn"))
        try:
            yield pool
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


@pytest.fixture(scope="module")
def desk_runs(desk_data, desk_pool):
    """The four shared desk runs, all submitted on the first request, two
    training at a time; their futures by name."""
    return {name: desk_pool.submit(_desk_run, desk_data["dataset"], *run)
            for name, run in DESK_RUNS.items()}


@pytest.fixture(scope="module")
def clamped_r1(desk_runs):
    return desk_runs["clamped_r1"].result(timeout=DESK_WAIT_S)


@pytest.fixture(scope="module")
def clamped_r0(desk_runs):
    return desk_runs["clamped_r0"].result(timeout=DESK_WAIT_S)


@pytest.fixture(scope="module")
def clamped_r2(desk_runs):
    return desk_runs["clamped_r2"].result(timeout=DESK_WAIT_S)


@pytest.fixture(scope="module")
def raw_r0_n300(desk_runs):
    return desk_runs["raw_r0_n300"].result(timeout=DESK_WAIT_S)


def _mean_pairwise(ps: np.ndarray) -> float:
    d = np.sqrt(((ps[:, None, :] - ps[None, :, :]) ** 2).sum(-1))
    n = len(ps)
    return float(d.sum() / (n * (n - 1)))


# --------------------------------------------------------------------- checks

def _random_triangle(rng) -> np.ndarray:
    while True:
        v = rng.uniform(-1.0, 1.0, size=(3, 2))
        a, b = v[1] - v[0], v[2] - v[0]
        if 0.5 * abs(float(a[0] * b[1] - a[1] * b[0])) > 0.2:
            return v


def _kink_signature(pred_xy, truth_xy, gate):
    d2 = ((pred_xy[:, None, :] - truth_xy[None, :, :]) ** 2).sum(-1)
    return (tuple(d2.argmin(axis=1)), tuple(d2.argmin(axis=0)),
            tuple(int(g) for g in gate))


def test_01_network_gradients_match_finite_differences():
    """Backprop through the full composite objective agrees with central
    finite differences (eps=1e-5, 1e-4 relative) at >= 99% of parameters
    over 20 seeded tiny networks; stencils that cross a nearest-neighbour
    tie or a clamp boundary are excluded. Budget: 10 s."""
    eps = 1e-5
    clamp = (-0.25, 0.25)
    weights = LossWeights(1.0, 1.0, 10.0)
    checked = failed = excluded = 0
    t0 = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        tri = _random_triangle(rng)
        x = tri.reshape(1, -1)
        loops = AirfoilLoop(tri).vertices[None]
        truth = rng.uniform(-1.0, 1.0, size=(10, 2))
        params = init_params(seed=seed, loop_size=3, h1=4, h2=4, n_points=5)

        out, trace = forward(params, x, y_clamp=clamp)
        terms, grad = composite(out.reshape(1, -1, 2), [truth], loops, weights)
        analytic = gradient(params, trace, grad.reshape(1, -1))
        f0 = abs(terms[0, 3])  # the total
        # central differences cancel to ~machine-eps * |f| / eps; give the
        # zero-gradient parameters (fully clamped outputs) that much slack
        noise_floor = 1e-10 * max(1.0, f0)

        def value_and_signature(vec):
            p = vector_to_params(params, vec)
            pr, tr = forward(p, x, y_clamp=clamp)
            terms, _ = composite(pr.reshape(1, -1, 2), [truth], loops, weights)
            return terms[0, 3], _kink_signature(pr.reshape(-1, 2), truth, tr.gate[0])

        theta = params_to_vector(params)
        for i in range(theta.size):
            plus, minus = theta.copy(), theta.copy()
            plus[i] += eps
            minus[i] -= eps
            f_plus, sig_plus = value_and_signature(plus)
            f_minus, sig_minus = value_and_signature(minus)
            if sig_plus != sig_minus:
                excluded += 1
                continue
            fd = (f_plus - f_minus) / (2.0 * eps)
            checked += 1
            diff = abs(analytic[i] - fd)
            if diff > max(1e-4 * max(abs(analytic[i]), abs(fd)), noise_floor):
                failed += 1
    elapsed = time.perf_counter() - t0
    match_rate = (checked - failed) / checked
    print(f"gradients: {checked - failed}/{checked} match "
          f"({excluded} excluded) in {elapsed:.1f}s")
    assert elapsed < 10.0
    assert match_rate >= 0.99


def test_02_chamfer_matches_brute_force_double_loop():
    """Vectorised symmetric squared-distance sum equals an independent pure
    Python double loop to 1e-12 absolute on 200 random pairs. Budget: 5 s."""
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n_p = int(rng.integers(1, 51))
        n_g = int(rng.integers(1, 51))
        P = rng.uniform(-1.0, 1.0, size=(n_p, 2))
        G = rng.uniform(-1.0, 1.0, size=(n_g, 2))
        fast, _ = chamfer(P, G)
        slow = brute_chamfer(P, G)
        worst = max(worst, abs(fast - slow))
    elapsed = time.perf_counter() - t0
    print(f"chamfer vs brute force: worst |diff|={worst:.3e} in {elapsed:.1f}s")
    assert elapsed < 5.0
    assert worst <= 1e-12


def test_03_repulsion_two_point_closed_form():
    """Two points at distance d give exactly the closed form 2/d (within
    1e-6 relative) for d in {0.1, 1, 10} at epsilon=1e-12."""
    for d in (0.1, 1.0, 10.0):
        values, _ = repulsion(_pairwise(np.array([[[0.0, 0.0], [d, 0.0]]])), epsilon=1e-12)
        assert values[0] == pytest.approx(2.0 / d, rel=1e-6), f"d={d}"
    print("repulsion two-point closed form: 2/d at d=0.1, 1, 10")


@pytest.mark.slow
def test_04_trained_points_stay_outside_the_loop(desk_data, clamped_r1):
    """The clamped run with the interior penalty places none of its 400
    points strictly inside the boundary loop, within 5 minutes."""
    inside = int(points_in_polygon(clamped_r1["pred"],
                                   desk_data["sample"].loop).sum())
    print(f"containment: {inside}/400 points strictly inside "
          f"(training took {clamped_r1['elapsed']:.0f}s)")
    assert clamped_r1["elapsed"] < 300.0
    assert inside == 0


@pytest.mark.slow
def test_05_repulsion_weight_spreads_the_points(clamped_r2, clamped_r0):
    """With everything else identical, weighting the repulsion term (ratio 2
    vs 0) strictly increases the mean pairwise distance of the result."""
    spread_r2 = _mean_pairwise(clamped_r2["pred"])
    spread_r0 = _mean_pairwise(clamped_r0["pred"])
    print(f"mean pairwise distance: ratio 2 -> {spread_r2:.4f}, "
          f"ratio 0 -> {spread_r0:.4f}")
    assert spread_r2 > spread_r0


@pytest.mark.slow
def test_06_training_reduces_chamfer_to_under_a_fifth(clamped_r1):
    """Final Chamfer loss lands below 20% of its first-epoch value."""
    first, last = clamped_r1["terms"][[0, -1], 0]  # chamfer column
    print(f"chamfer progress: epoch 1 {first:.1f} -> final {last:.1f} "
          f"({last / first:.3f}x)")
    assert last < 0.20 * first


@pytest.mark.slow
def test_07_density_match_scores_fall_in_expected_ranges(
        desk_data, clamped_r1, clamped_r0, raw_r0_n300):
    """KL scores of the desk runs land in the expected brackets, and the
    repulsion-weighted clamped model beats the unweighted one on the
    center window."""
    truth = desk_data["sample"].target
    kl_r1 = evaluate(clamped_r1["pred"], truth)
    kl_r0 = evaluate(clamped_r0["pred"], truth)
    kl_raw = evaluate(raw_r0_n300["pred"], truth)
    print(f"center KL (clamped, 400, ratio 1) = {kl_r1['center']:.6f}; "
          f"whole KL (raw, 300, ratio 0) = {kl_raw['whole']:.6f}; "
          f"ordering {kl_r1['center']:.4f} < {kl_r0['center']:.4f}")
    assert 0.03 <= kl_r1["center"] <= 0.5
    assert 0.04 <= kl_raw["whole"] <= 0.6
    assert kl_r1["center"] < kl_r0["center"]


def test_08_kl_evaluator_self_consistency(desk_data):
    """Identical clouds score < 1e-6; every density grid sums to 1 within
    1e-9; a hand-computed two-cell example gives 0.5108 (natural log)."""
    truth = desk_data["sample"].target
    scores = evaluate(truth.copy(), truth)
    assert scores["center"] < 1e-6 and scores["whole"] < 1e-6

    rng = np.random.default_rng(0)
    for cloud in (truth, rng.normal(size=(200, 2))):
        for window in (((-3.0, 3.0), (-3.0, 3.0)), CENTER):
            mass = kde(cloud, window, scott_bandwidth(cloud, window))
            assert abs(float(mass.sum()) - 1.0) <= 1e-9

    p = np.array([[0.25, 0.25], [0.25, 0.25]])  # a 2x2 grid
    q = np.array([[0.45, 0.45], [0.05, 0.05]])
    hand = kl_divergence(p, q)  # 0.5*ln(0.5/0.9) + 0.5*ln(0.5/0.1)
    print(f"kl self-consistency: kl(D,D)={scores['center']:.2e}, "
          f"two-cell example {hand:.6f}")
    assert hand == pytest.approx(0.5108, abs=1e-4)


def test_09_parser_fixtures_round_trip(tmp_path):
    """Ten synthetic contour/mesh fixtures parse to their expected point
    counts or fail with the documented exit codes; whitespace fuzzing never
    changes parsed values."""
    GOOD_DAT = "demo foil\n0.0 0.0\n1.0 0.1\n0.5 0.4\n0.2 0.3\n-0.1 0.1\n"
    FUZZED_DAT = "demo foil\r\n0.0\t0.0\n\n  1.0   0.1 \n0.5 0.4\n\n0.2\t\t0.3\n-0.1 0.1\r\n"
    HEADERLESS_DAT = "0.0 0.0\n1.0 0.0\n1.0 1.0\n0.0 1.0\n"
    BAD_TOKEN_DAT = "foil\n0.0 0.0\n0.1 oops\n0.2 0.2\n"
    NONFINITE_DAT = "foil\n0.0 0.0\nnan 0.1\n0.2 0.2\n"
    GOOD_MSH = ("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n6\n"
                "1 0.0 0.0 0\n2 1.0 0.0 0\n3 2.0 0.5 0\n4 0.5 2.0 0\n"
                "5 -1.0 0.5 0\n6 0.25 -0.75 0\n$EndNodes\n$Elements\n0\n$EndElements\n")
    FUZZED_MSH = GOOD_MSH.replace(" 0.0 0.0 ", "\t0.0\t0.0\t").replace(
        "\n2 ", "\n\n2   ").replace("$Nodes\n6", "$Nodes\n  6  ")
    SHORT_COUNT_MSH = GOOD_MSH.replace("6\n1 0.0", "9\n1 0.0")
    NO_SECTION_MSH = "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n1 0.0 0.0 0\n"
    BAD_NODE_MSH = GOOD_MSH.replace("3 2.0 0.5 0", "3 2.0 zz 0")

    # seven well-formed or fuzzed fixtures parse to the expected counts
    assert len(parse_airfoil_dat(GOOD_DAT)) == 5
    assert len(parse_airfoil_dat(HEADERLESS_DAT)) == 4
    assert np.array_equal(parse_airfoil_dat(FUZZED_DAT),
                          parse_airfoil_dat(GOOD_DAT))
    assert len(parse_msh_nodes(GOOD_MSH)) == 6
    assert np.array_equal(parse_msh_nodes(FUZZED_MSH), parse_msh_nodes(GOOD_MSH))

    # five malformed fixtures raise the parse error the CLI maps to exit 3
    for bad_dat in (BAD_TOKEN_DAT, NONFINITE_DAT):
        with pytest.raises(InputError):
            parse_airfoil_dat(bad_dat)
    for bad_msh in (SHORT_COUNT_MSH, NO_SECTION_MSH, BAD_NODE_MSH):
        with pytest.raises(InputError):
            parse_msh_nodes(bad_msh)

    # ... and exit 3 is what actually comes out of the command line
    (tmp_path / "good.msh").write_text(GOOD_MSH)
    (tmp_path / "bad.msh").write_text(SHORT_COUNT_MSH)
    (tmp_path / "bad.dat").write_text(BAD_TOKEN_DAT)
    (tmp_path / "pred.csv").write_text("x,y\n0.0,0.0\n1.0,0.2\n0.5,-0.75\n2.0,0.4\n")
    assert main(["evaluate", "--pred", str(tmp_path / "pred.csv"),
                 "--truth", str(tmp_path / "bad.msh"),
                 "--out", str(tmp_path / "kl.csv")]) == 3
    assert main(["evaluate", "--pred", str(tmp_path / "pred.csv"),
                 "--truth", str(tmp_path / "good.msh"),
                 "--dat", str(tmp_path / "bad.dat"),
                 "--out", str(tmp_path / "kl.csv")]) == 3
    print("parser fixtures: 5 well-formed parse to expected counts, "
          "2 fuzzed are value-identical, 5 malformed exit with code 3")


def test_10_training_runs_are_byte_reproducible(desk_data, tmp_path):
    """Two complete command-line training runs over the same manifest write
    byte-identical checkpoints and logs."""
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(["train", str(desk_data["manifest"]),
                     "--out-dir", str(out), "--epochs", "120",
                     "--mode", "stand-clamp", "--ratio", "1",
                     "--interior-weight", "10"])
        assert code == 0
        outs.append(out)
    first, second = outs
    ckpt_a = (first / "checkpoint.l2m").read_bytes()
    ckpt_b = (second / "checkpoint.l2m").read_bytes()
    log_a = (first / "trainlog.csv").read_bytes()
    log_b = (second / "trainlog.csv").read_bytes()
    assert ckpt_a == ckpt_b
    assert log_a == log_b
    print(f"determinism: checkpoint ({len(ckpt_a)} bytes) and log "
          f"({len(log_a)} bytes) byte-identical across reruns")


@pytest.mark.slow
def test_a_worker_trains_bit_for_bit_as_this_process_does(desk_data, desk_pool):
    """A run is a pure function of (dataset, config), so a short desk run in a
    worker process (one BLAS thread) writes the same trainlog bytes and
    prediction as the same run trained in this process."""
    run = (desk_data["dataset"], TrainMode.STANDARDISED_CLAMPED, 1.0, 400, 30)
    there = desk_pool.submit(_desk_run, *run).result(timeout=DESK_WAIT_S)
    here = _desk_run(*run)
    log_there = TrainLog(there["terms"]).to_csv_text().encode()
    assert log_there == TrainLog(here["terms"]).to_csv_text().encode()
    assert np.array_equal(there["pred"], here["pred"])
    print(f"worker vs in-process: trainlog ({len(log_there)} bytes) and "
          f"prediction bit-identical")
