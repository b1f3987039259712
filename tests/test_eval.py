import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loop2mesh.errors import DegenerateDataError, DegenerateDensityError, InvalidInputError
from loop2mesh.evaluation import (
    EvalWindow,
    KLRow,
    center_window,
    evaluate,
    kde,
    kl_csv_text,
    kl_divergence,
    kl_sweep,
    scott_bandwidth,
    whole_window,
)
from loop2mesh.geometry import PointSet


def gauss_cloud(rng, n, center=(0.5, 0.0), spread=(0.6, 0.2)) -> np.ndarray:
    return rng.normal(size=(n, 2)) * spread + center


# ------------------------------------------------------------------ windows

class TestEvalWindow:
    def test_cell_centers_count_and_spacing(self):
        w = EvalWindow("w", (0.0, 1.0), (0.0, 2.0), 4, 5)
        cx, cy = w.cell_centers()
        assert len(cx) == 4 and len(cy) == 5
        assert cx == pytest.approx([0.125, 0.375, 0.625, 0.875])
        assert cy[0] == pytest.approx(0.2)
        assert np.diff(cy) == pytest.approx(np.full(4, 0.4))

    def test_contains_is_inclusive_on_the_boundary(self):
        w = EvalWindow("w", (0.0, 1.0), (0.0, 1.0))
        xy = np.array([[0.0, 0.5], [1.0, 1.0], [1.0001, 0.5], [0.5, -0.2]])
        assert w.contains(xy).tolist() == [True, True, False, False]

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            EvalWindow("w", (1.0, 1.0), (0.0, 1.0))
        with pytest.raises(InvalidInputError):
            EvalWindow("w", (0.0, 1.0), (0.0, 1.0), grid_nx=1)
        with pytest.raises(InvalidInputError):
            EvalWindow("w", (0.0, np.inf), (0.0, 1.0))

    def test_center_window_fixed_bounds(self):
        w = center_window()
        assert w.name == "center"
        assert w.x_range == (-0.5, 1.5)
        assert w.y_range == (-0.4, 0.4)
        assert w.grid_nx == w.grid_ny == 100

    def test_whole_window_pads_truth_bbox_five_percent(self):
        truth = PointSet([[0.0, -0.2], [1.0, 0.2]])
        w = whole_window(truth)
        assert w.name == "whole"
        assert w.x_range == pytest.approx((-0.05, 1.05))
        assert w.y_range == pytest.approx((-0.22, 0.22))

    def test_whole_window_zero_extent_rejected(self):
        with pytest.raises(DegenerateDataError):
            whole_window(PointSet([[0.0, 0.0], [1.0, 0.0]]))  # flat in y


# ---------------------------------------------------------------- bandwidth

class TestScottBandwidth:
    def test_known_sigma_and_count(self):
        # 64 points: factor = 64^(-1/6) = 0.5
        xs = np.linspace(0.0, 1.0, 64)
        ys = np.linspace(0.0, 0.5, 64)
        w = EvalWindow("w", (-1.0, 2.0), (-1.0, 2.0))
        hx, hy = scott_bandwidth(np.column_stack([xs, ys]), w)
        assert hx == pytest.approx(xs.std() * 64 ** (-1 / 6))
        assert hy == pytest.approx(ys.std() * 64 ** (-1 / 6))
        assert hx == pytest.approx(2 * hy, rel=1e-12)

    def test_points_outside_window_are_ignored(self):
        rng = np.random.default_rng(0)
        inside = rng.uniform(0.0, 1.0, size=(50, 2))
        outliers = np.array([[50.0, 50.0], [-50.0, -50.0]])
        w = EvalWindow("w", (0.0, 1.0), (0.0, 1.0))
        a = scott_bandwidth(inside, w)
        b = scott_bandwidth(np.vstack([inside, outliers]), w)
        assert a == pytest.approx(b)

    def test_too_few_points_in_window_rejected(self):
        w = EvalWindow("w", (0.0, 1.0), (0.0, 1.0))
        xy = np.array([[0.5, 0.5], [3.0, 3.0], [4.0, 4.0]])
        with pytest.raises(DegenerateDataError):
            scott_bandwidth(xy, w)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # np.std overflows
    def test_bad_bandwidth_rejected(self):
        w = EvalWindow("w", (-1e201, 1e201), (-1e201, 1e201))
        with pytest.raises(InvalidInputError, match="bandwidth must be positive and finite"):
            scott_bandwidth(np.array([[0.5, 0.5], [1e200, 1e200]]), w)  # sigma is inf


# ---------------------------------------------------------------------- KDE

class TestKde:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mass_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        xy = gauss_cloud(rng, 200)
        w = center_window()
        mass = kde(xy, w, scott_bandwidth(xy, w))
        assert float(mass.sum()) == pytest.approx(1.0, abs=1e-9)
        assert np.all(mass >= 0.0)

    def test_single_point_peaks_at_its_cell(self):
        w = EvalWindow("w", (0.0, 1.0), (0.0, 1.0), 10, 10)
        xy = np.array([[0.55, 0.35]])  # exactly the center of cell (5, 3)
        mass = kde(xy, w, (0.1, 0.1))
        assert np.unravel_index(mass.argmax(), mass.shape) == (5, 3)

    def test_separable_kernel_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        xy = rng.uniform(0.0, 1.0, size=(7, 2))
        w = EvalWindow("w", (0.0, 1.0), (0.0, 1.0), 6, 5)
        mass = kde(xy, w, (0.2, 0.3))
        cx, cy = w.cell_centers()
        direct = np.zeros((6, 5))
        for i, x in enumerate(cx):
            for j, y in enumerate(cy):
                for px, py in xy:
                    direct[i, j] += math.exp(-0.5 * ((x - px) / 0.2) ** 2
                                             - 0.5 * ((y - py) / 0.3) ** 2)
        direct /= direct.sum()
        assert mass == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_equals_the_one_expression_form(self, seed):
        """The in-place Gaussian factors give the same bits as building each
        factor in one expression with temporaries."""
        rng = np.random.default_rng(seed)
        xy = rng.normal(scale=0.7, size=(int(rng.integers(50, 3000)), 2))
        for w in (center_window(), EvalWindow("w", (-2.0, 3.0), (-1.0, 1.5), 64, 37)):
            hx, hy = scott_bandwidth(xy, w)
            cx, cy = w.cell_centers()
            fx = np.exp(-0.5 * ((cx[:, None] - xy[None, :, 0]) / hx) ** 2)
            fy = np.exp(-0.5 * ((cy[:, None] - xy[None, :, 1]) / hy) ** 2)
            mass = fx @ fy.T
            assert np.array_equal(kde(xy, w, (hx, hy)), mass / float(mass.sum()))

    def test_wider_bandwidth_flattens_the_density(self):
        xy = np.array([[0.5, 0.5]])
        w = EvalWindow("w", (0.0, 1.0), (0.0, 1.0), 20, 20)
        sharp = kde(xy, w, (0.05, 0.05))
        flat = kde(xy, w, (5.0, 5.0))
        assert sharp.max() > flat.max()
        assert flat.max() < 2.0 * flat.min()

    def test_far_away_cloud_underflows_to_error(self):
        xy = np.array([[1e6, 1e6], [1e6 + 1, 1e6]])
        with pytest.raises(DegenerateDensityError):
            kde(xy, center_window(grid=10), (1e-3, 1e-3))


COORD = st.floats(-8.0, 8.0)


@st.composite
def kde_inputs(draw):
    """A cloud, a window and a positive bandwidth pair; points may lie outside the window."""
    n = draw(st.integers(1, 40))
    xy = np.array(draw(st.lists(st.tuples(COORD, COORD), min_size=n, max_size=n)))
    x0, y0 = draw(COORD), draw(COORD)
    width, height = draw(st.floats(0.01, 10.0)), draw(st.floats(0.01, 10.0))
    window = EvalWindow("w", (x0, x0 + width), (y0, y0 + height),
                        draw(st.integers(2, 30)), draw(st.integers(2, 30)))
    bandwidth = draw(st.floats(1e-3, 10.0)), draw(st.floats(1e-3, 10.0))
    return xy, window, bandwidth


class TestKdeMassProperties:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(kde_inputs())
    def test_mass_is_finite_non_negative_on_the_grid_and_sums_to_one(self, case):
        xy, window, bandwidth = case
        try:
            mass = kde(xy, window, bandwidth)
        except DegenerateDensityError:  # every kernel underflows inside the window
            return
        assert mass.shape == (window.grid_nx, window.grid_ny)
        assert np.all(np.isfinite(mass)) and np.all(mass >= 0.0)
        assert abs(float(mass.sum()) - 1.0) <= 1e-9


# ------------------------------------------------------------ KL divergence

class TestKlDivergence:
    def test_identical_grids_score_zero(self):
        rng = np.random.default_rng(5)
        xy = gauss_cloud(rng, 100)
        w = center_window(grid=50)
        g = kde(xy, w, scott_bandwidth(xy, w))
        assert kl_divergence(g, g) < 1e-6

    def test_two_cell_hand_example(self):
        p = np.array([[0.25, 0.25], [0.25, 0.25]])
        # build a 2x2 from the 1D example [.5,.5] vs [.9,.1] by splitting rows
        p2 = np.array([[0.25, 0.25], [0.25, 0.25]])
        q = np.array([[0.45, 0.45], [0.05, 0.05]])
        # KL = 0.5 ln(0.5/0.9) + 0.5 ln(0.5/0.1) = 0.5 ln(25/9)
        want = 0.5 * math.log(25.0 / 9.0)
        assert kl_divergence(p, q) == pytest.approx(want, abs=1e-4)
        assert want == pytest.approx(0.5108, abs=1e-4)  # natural log
        assert kl_divergence(p2, q) == pytest.approx(want, abs=1e-4)

    def test_asymmetric(self):
        p = np.array([[0.7, 0.1], [0.1, 0.1]])
        q = np.array([[0.1, 0.3], [0.3, 0.3]])
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p))

    def test_zero_reference_cells_stay_finite(self):
        p = np.array([[0.5, 0.5], [0.0, 0.0]])
        q = np.array([[0.0, 0.0], [0.5, 0.5]])
        val = kl_divergence(p, q, epsilon=1e-10)
        assert np.isfinite(val)
        assert val == pytest.approx(math.log(0.5 / 1e-10), rel=1e-6)

    def test_clipped_at_zero(self):
        # the epsilon in the denominator makes the raw sum slightly negative
        # for identical grids; the score must clip to exactly >= 0
        g = np.full((2, 2), 0.25)
        assert kl_divergence(g, g) >= 0.0


# ----------------------------------------------------------------- evaluate

class TestEvaluate:
    def test_identical_clouds_score_zero_everywhere(self, dataset):
        truth = dataset.samples[0].target
        scores = evaluate(PointSet(truth.xy.copy()), truth)
        assert set(scores) == {"center", "whole"}
        assert scores["center"] < 1e-6
        assert scores["whole"] < 1e-6

    def test_perturbed_cloud_scores_higher(self, dataset):
        rng = np.random.default_rng(6)
        truth = dataset.samples[0].target
        noisy = PointSet(truth.xy + rng.normal(scale=0.3, size=truth.xy.shape))
        clean = evaluate(PointSet(truth.xy.copy()), truth)
        noisy_scores = evaluate(noisy, truth)
        assert noisy_scores["center"] > clean["center"]
        assert noisy_scores["whole"] > clean["whole"]

    def test_bandwidth_comes_from_truth_not_prediction(self, dataset):
        # a tight prediction must not shrink the kernel: swap roles and the
        # scores change, proving the truth side pins the bandwidth
        rng = np.random.default_rng(7)
        truth = dataset.samples[0].target
        tight = PointSet(truth.xy[rng.integers(0, len(truth), 40)] * 0.01
                         + np.array([0.5, 0.0]))
        a = evaluate(tight, truth, grid=40)["center"]
        b = evaluate(truth, tight, grid=40)["center"]
        assert a != pytest.approx(b, rel=1e-3)


# -------------------------------------------------------------------- sweep

class TestKlSweep:
    def test_row_order_and_csv_shape(self, dataset):
        truth = dataset.samples[0].target
        rng = np.random.default_rng(8)

        def fake(n):
            return PointSet(truth.xy[rng.integers(0, len(truth), n)]
                            + rng.normal(scale=0.01, size=(n, 2)))

        preds = {(1.0, 300): fake(300), (0.0, 300): fake(300),
                 (1.0, 400): fake(400), (0.0, 400): fake(400)}
        rows = kl_sweep(preds, truth)
        key = [(r.ratio, r.region, r.nodes) for r in rows]
        assert key == [(0.0, "c", 300), (0.0, "c", 400), (0.0, "w", 300), (0.0, "w", 400),
                       (1.0, "c", 300), (1.0, "c", 400), (1.0, "w", 300), (1.0, "w", 400)]
        assert all(r.kl is not None and r.kl >= 0.0 for r in rows)

    def test_missing_cell_emits_empty_row(self, dataset):
        truth = dataset.samples[0].target
        preds = {(0.0, 100): PointSet(truth.xy.copy()), (1.0, 100): None}
        rows = kl_sweep(preds, truth)
        assert len(rows) == 4
        missing = [r for r in rows if r.ratio == 1.0]
        assert all(r.kl is None for r in missing)
        text = kl_csv_text(rows)
        assert "1,c,100,\n" in text or "1,c,100,\r\n" in text

    def test_csv_text_golden(self):
        rows = [KLRow(0.0, "c", 300, 0.125), KLRow(0.0, "w", 300, None),
                KLRow(2.5, "c", 300, 0.5)]
        assert kl_csv_text(rows) == (
            "ratio,region,nodes,kl\n"
            "0,c,300,0.125\n"
            "0,w,300,\n"
            "2.5,c,300,0.5\n")

    def test_csv_floats_round_trip_exactly(self):
        val = 0.1234567890123456789
        rows = [KLRow(1.0, "c", 10, val)]
        line = kl_csv_text(rows).splitlines()[1]
        assert float(line.split(",")[-1]) == val
