import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loop2mesh.errors import InputError
from loop2mesh.evaluation import (
    CENTER,
    EPSILON,
    GRID,
    evaluate,
    kde,
    kl_csv_text,
    kl_divergence,
    scott_bandwidth,
    whole_window,
)


def gauss_cloud(rng, n, center=(0.5, 0.0), spread=(0.6, 0.2)) -> np.ndarray:
    return rng.normal(size=(n, 2)) * spread + center


# ------------------------------------------------------------------ windows

class TestWindows:
    def test_scoring_protocol_constants(self):
        assert GRID == 100
        assert EPSILON == 1e-10
        assert CENTER == ((-0.5, 1.5), (-0.4, 0.4))

    def test_whole_window_pads_truth_bbox_five_percent(self):
        truth = np.array([[0.0, -0.2], [1.0, 0.2]])
        (x0, x1), (y0, y1) = whole_window(truth)
        assert (x0, x1) == pytest.approx((-0.05, 1.05))
        assert (y0, y1) == pytest.approx((-0.22, 0.22))

    def test_whole_window_of_an_overflowing_extent_rejected(self):
        """A truth spanning +-1e308 has an extent past the float range: the
        padded box is infinite and rejected, with no RuntimeWarning."""
        with pytest.raises(InputError, match=r"^window range \(-inf, inf\) must be finite and "
                                             r"non-empty$"):
            whole_window(np.array([[-1e308, -1e308], [1e308, 1e308]]))

    def test_whole_window_zero_extent_rejected(self):
        with pytest.raises(InputError):
            whole_window(np.array([[0.0, 0.0], [1.0, 0.0]]))  # flat in y

    def test_whole_window_of_an_empty_truth_rejected(self):
        with pytest.raises(InputError, match="^truth cloud is empty$"):
            whole_window(np.zeros((0, 2)))


# ---------------------------------------------------------------- bandwidth

class TestScottBandwidth:
    def test_known_sigma_and_count(self):
        # 64 points: factor = 64^(-1/6) = 0.5
        xs = np.linspace(0.0, 1.0, 64)
        ys = np.linspace(0.0, 0.5, 64)
        w = ((-1.0, 2.0), (-1.0, 2.0))
        hx, hy = scott_bandwidth(np.column_stack([xs, ys]), w)
        assert hx == pytest.approx(xs.std() * 64 ** (-1 / 6))
        assert hy == pytest.approx(ys.std() * 64 ** (-1 / 6))
        assert hx == pytest.approx(2 * hy, rel=1e-12)

    def test_points_outside_window_are_ignored(self):
        rng = np.random.default_rng(0)
        inside = rng.uniform(0.0, 1.0, size=(50, 2))
        outliers = np.array([[50.0, 50.0], [-50.0, -50.0]])
        w = ((0.0, 1.0), (0.0, 1.0))
        a = scott_bandwidth(inside, w)
        b = scott_bandwidth(np.vstack([inside, outliers]), w)
        assert a == pytest.approx(b)

    def test_window_is_inclusive_on_the_boundary(self):
        # the first two points lie on the boundary and are fitted, the last two are not
        xy = np.array([[0.0, 0.5], [1.0, 1.0], [1.0001, 0.5], [0.5, -0.2]])
        hx, hy = scott_bandwidth(xy, ((0.0, 1.0), (0.0, 1.0)))
        assert (hx, hy) == pytest.approx((0.5 * 2 ** (-1 / 6), 0.25 * 2 ** (-1 / 6)), rel=1e-12)

    def test_too_few_points_in_window_rejected(self):
        w = ((0.0, 1.0), (0.0, 1.0))
        xy = np.array([[0.5, 0.5], [3.0, 3.0], [4.0, 4.0]])
        with pytest.raises(InputError):
            scott_bandwidth(xy, w)

    def test_bad_bandwidth_rejected(self):
        w = ((-1e201, 1e201), (-1e201, 1e201))
        with pytest.raises(InputError, match="bandwidth must be positive and finite"):
            scott_bandwidth(np.array([[0.5, 0.5], [1e200, 1e200]]), w)  # sigma is inf


# ---------------------------------------------------------------------- KDE

class TestKde:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mass_sums_to_one(self, seed):
        rng = np.random.default_rng(seed)
        xy = gauss_cloud(rng, 200)
        mass = kde(xy, CENTER, scott_bandwidth(xy, CENTER))
        assert float(mass.sum()) == pytest.approx(1.0, abs=1e-9)
        assert np.all(mass >= 0.0)

    @pytest.mark.parametrize("i, j", [(0, 0), (55, 35), (37, 81), (GRID - 1, GRID - 1)])
    def test_single_point_peaks_at_its_cell(self, i, j):
        """Cell (i, j) of the window ((0, 1), (0, 2)) is centred at
        ((i + 0.5) / GRID, 2 (j + 0.5) / GRID)."""
        xy = np.array([[(i + 0.5) / GRID, 2.0 * (j + 0.5) / GRID]])
        mass = kde(xy, ((0.0, 1.0), (0.0, 2.0)), (0.1, 0.1))
        assert mass.shape == (GRID, GRID)
        assert np.unravel_index(mass.argmax(), mass.shape) == (i, j)

    def test_separable_kernel_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        xy = rng.uniform(0.0, 1.0, size=(7, 2))
        mass = kde(xy, ((0.0, 1.0), (0.0, 2.0)), (0.2, 0.3))
        direct = np.zeros((GRID, GRID))
        for i in range(GRID):
            for j in range(GRID):
                x, y = (i + 0.5) / GRID, 2.0 * (j + 0.5) / GRID
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
        for w in (CENTER, ((-2.0, 3.0), (-1.0, 1.5))):
            hx, hy = scott_bandwidth(xy, w)
            cx, cy = (lo + (hi - lo) / GRID * (np.arange(GRID) + 0.5) for lo, hi in w)
            fx = np.exp(-0.5 * ((cx[:, None] - xy[None, :, 0]) / hx) ** 2)
            fy = np.exp(-0.5 * ((cy[:, None] - xy[None, :, 1]) / hy) ** 2)
            mass = fx @ fy.T
            assert np.array_equal(kde(xy, w, (hx, hy)), mass / float(mass.sum()))

    def test_wider_bandwidth_flattens_the_density(self):
        xy = np.array([[0.5, 0.5]])
        w = ((0.0, 1.0), (0.0, 1.0))
        sharp = kde(xy, w, (0.05, 0.05))
        flat = kde(xy, w, (5.0, 5.0))
        assert sharp.max() > flat.max()
        assert flat.max() < 2.0 * flat.min()

    def test_far_away_cloud_underflows_to_error(self):
        xy = np.array([[1e6, 1e6], [1e6 + 1, 1e6]])
        with pytest.raises(InputError):
            kde(xy, CENTER, (1e-3, 1e-3))

    def test_coordinates_near_the_float_limit_add_no_mass_and_no_warning(self):
        """A coordinate of +-1e308 divided by a small bandwidth overflows to
        inf: its kernel is exactly zero, and no RuntimeWarning escapes."""
        xy = np.array([[0.5, 0.0], [0.6, 0.1]])
        far = np.vstack([xy, [[-1e308, -1e308], [1e308, 1e308]]])
        assert np.array_equal(kde(far, CENTER, (0.05, 0.05)), kde(xy, CENTER, (0.05, 0.05)))


COORD = st.floats(-8.0, 8.0)


@st.composite
def kde_inputs(draw):
    """A cloud, a window and a positive bandwidth pair; points may lie outside the window."""
    n = draw(st.integers(1, 40))
    xy = np.array(draw(st.lists(st.tuples(COORD, COORD), min_size=n, max_size=n)))
    x0, y0 = draw(COORD), draw(COORD)
    width, height = draw(st.floats(0.01, 10.0)), draw(st.floats(0.01, 10.0))
    window = (x0, x0 + width), (y0, y0 + height)
    bandwidth = draw(st.floats(1e-3, 10.0)), draw(st.floats(1e-3, 10.0))
    return xy, window, bandwidth


class TestKdeMassProperties:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(kde_inputs())
    def test_mass_is_finite_non_negative_on_the_grid_and_sums_to_one(self, case):
        xy, window, bandwidth = case
        try:
            mass = kde(xy, window, bandwidth)
        except InputError as exc:  # every kernel underflows inside the window
            assert "kernel mass inside the window is numerically zero" in str(exc)
            return
        assert mass.shape == (GRID, GRID)
        assert np.all(np.isfinite(mass)) and np.all(mass >= 0.0)
        assert abs(float(mass.sum()) - 1.0) <= 1e-9


# ------------------------------------------------------------ KL divergence

class TestKlDivergence:
    def test_identical_grids_score_zero(self):
        rng = np.random.default_rng(5)
        xy = gauss_cloud(rng, 100)
        g = kde(xy, CENTER, scott_bandwidth(xy, CENTER))
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
        val = kl_divergence(p, q)
        assert np.isfinite(val)
        assert val == pytest.approx(math.log(0.5 / EPSILON), rel=1e-6)

    def test_clipped_at_zero(self):
        # the epsilon in the denominator makes the raw sum slightly negative
        # for identical grids; the score must clip to exactly >= 0
        g = np.full((2, 2), 0.25)
        assert kl_divergence(g, g) >= 0.0


# ----------------------------------------------------------------- evaluate

class TestEvaluate:
    def test_identical_clouds_score_zero_everywhere(self, dataset):
        truth = dataset.samples[0].target
        scores = evaluate(truth.copy(), truth)
        assert set(scores) == {"center", "whole"}
        assert scores["center"] < 1e-6
        assert scores["whole"] < 1e-6

    @pytest.mark.parametrize("pred, truth", [
        ([[0.0, np.nan]], [[0.0, 0.0], [1.0, 1.0]]),
        ([[0.0, 0.0]], [[0.0, 0.0, 0.0]]),
        ([[0.0, 0.0]], np.zeros((0, 2))),
    ])
    def test_bad_clouds_raise_package_errors(self, pred, truth):
        with pytest.raises(InputError):
            evaluate(pred, truth)

    def test_overflowing_whole_window_names_the_window_and_the_truth(self):
        truth = np.array([[-1e308, -1e308], [0.5, 0.1], [0.7, -0.1], [0.6, 0.0], [1e308, 1e308]])
        with pytest.raises(InputError, match=r"^whole window, truth: window range \(-inf, inf\) "
                                             r"must be finite and non-empty$"):
            evaluate(truth[1:4], truth)

    def test_perturbed_cloud_scores_higher(self, dataset):
        rng = np.random.default_rng(6)
        truth = dataset.samples[0].target
        noisy = truth + rng.normal(scale=0.3, size=truth.shape)
        clean = evaluate(truth.copy(), truth)
        noisy_scores = evaluate(noisy, truth)
        assert noisy_scores["center"] > clean["center"]
        assert noisy_scores["whole"] > clean["whole"]

    def test_bandwidth_comes_from_truth_not_prediction(self, dataset):
        # a tight prediction must not shrink the kernel: swap roles and the
        # scores change, proving the truth side pins the bandwidth
        rng = np.random.default_rng(7)
        truth = dataset.samples[0].target
        tight = truth[rng.integers(0, len(truth), 40)] * 0.01 + np.array([0.5, 0.0])
        a = evaluate(tight, truth)["center"]
        b = evaluate(truth, tight)["center"]
        assert a != pytest.approx(b, rel=1e-3)


# -------------------------------------------------------------------- sweep

class TestKlSweep:
    def test_row_order_and_csv_shape(self, dataset):
        truth = dataset.samples[0].target
        rng = np.random.default_rng(8)

        def fake(n):
            return truth[rng.integers(0, len(truth), n)] + rng.normal(scale=0.01, size=(n, 2))

        scores = {(1.0, 300): evaluate(fake(300), truth), (0.0, 300): evaluate(fake(300), truth),
                  (1.0, 400): evaluate(fake(400), truth), (0.0, 400): evaluate(fake(400), truth)}
        lines = kl_csv_text(scores).splitlines()
        assert lines[0] == "ratio,region,nodes,kl"
        assert [tuple(line.split(",")[:3]) for line in lines[1:]] == [
            ("0", "c", "300"), ("0", "c", "400"), ("0", "w", "300"), ("0", "w", "400"),
            ("1", "c", "300"), ("1", "c", "400"), ("1", "w", "300"), ("1", "w", "400")]
        for line in lines[1:]:
            ratio, region, nodes, kl = line.split(",")
            cell = scores[(float(ratio), int(nodes))]
            assert float(kl) == cell["center" if region == "c" else "whole"] >= 0.0

    def test_missing_cell_emits_empty_row(self, dataset):
        truth = dataset.samples[0].target
        scores = {(0.0, 100): evaluate(truth.copy(), truth), (1.0, 100): None}
        lines = kl_csv_text(scores).splitlines()
        assert lines[1:] == ["0,c,100,0.0", "0,w,100,0.0", "1,c,100,", "1,w,100,"]

    def test_csv_text_golden(self):
        # a None cell and an absent one, (2.5, 10), both give empty scores
        scores = {(2.5, 300): None, (0.0, 300): {"center": 0.125, "whole": 0.75},
                  (0.0, 10): {"center": 0.5, "whole": 0.25}}
        assert kl_csv_text(scores) == (
            "ratio,region,nodes,kl\n"
            "0,c,10,0.5\n"
            "0,c,300,0.125\n"
            "0,w,10,0.25\n"
            "0,w,300,0.75\n"
            "2.5,c,10,\n"
            "2.5,c,300,\n"
            "2.5,w,10,\n"
            "2.5,w,300,\n")

    def test_csv_floats_round_trip_exactly(self):
        val = 0.1234567890123456789
        line = kl_csv_text({(1.0, 10): {"center": val, "whole": 0.0}}).splitlines()[1]
        assert float(line.split(",")[-1]) == val
