import numpy as np
import pytest

from loop2mesh.errors import FrameMismatchError, InvalidInputError
from loop2mesh.geometry import AirfoilLoop, Frame, PointSet
from loop2mesh.losses import (
    LossWeights,
    chamfer,
    composite,
    interior_penalty,
    mean_pairwise_distance,
    repulsion,
)

from oracles import (
    brute_chamfer,
    brute_mean_pairwise,
    brute_repulsion_value,
    fd_grad_points,
)


def cloud(rng, n, lo=-1.0, hi=1.0, frame=Frame.ORIGINAL) -> PointSet:
    return PointSet(rng.uniform(lo, hi, size=(n, 2)), frame)


# ------------------------------------------------------------------ chamfer

class TestChamfer:
    def test_single_pair_value_and_gradient(self):
        pred = PointSet([[0.0, 0.0]])
        ref = PointSet([[1.0, 0.0]])
        val, grad = chamfer(pred, ref)
        # both directions pick the same pair: (1^2) + (1^2) = 2
        assert val == pytest.approx(2.0)
        # d/dp of |p-g|^2 + |g-p|^2 = 4(p-g)
        assert grad[0] == pytest.approx([-4.0, 0.0])

    def test_identical_clouds_zero(self):
        rng = np.random.default_rng(0)
        ps = cloud(rng, 17)
        val, grad = chamfer(ps, PointSet(ps.xy.copy()))
        assert val == pytest.approx(0.0, abs=1e-12)  # matmul rounding noise only
        assert grad == pytest.approx(np.zeros_like(grad), abs=1e-12)

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            a = cloud(rng, int(rng.integers(1, 30)))
            b = cloud(rng, int(rng.integers(1, 30)))
            val, _ = chamfer(a, b)
            assert val == pytest.approx(brute_chamfer(a.xy, b.xy), abs=1e-12)

    def test_asymmetric_sizes(self):
        pred = PointSet([[0.0, 0.0], [2.0, 0.0]])
        ref = PointSet([[1.0, 0.0]])
        val, _ = chamfer(pred, ref)
        # forward: 1 + 1; reverse: min(1, 1) = 1 -> 3
        assert val == pytest.approx(3.0)

    def test_nearest_neighbour_tie_takes_first_index(self):
        pred = PointSet([[0.0, 0.0]])
        ref = PointSet([[1.0, 0.0], [-1.0, 0.0]])  # equidistant
        val, grad = chamfer(pred, ref)
        # forward min -> ref[0]; reverse adds both sides
        assert val == pytest.approx(1.0 + 1.0 + 1.0)
        # fwd grad 2(p - g0) = (-2, 0); reverse: 2(p - g0) + 2(p - g1) = 0
        assert grad[0] == pytest.approx([-2.0, 0.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        ref = cloud(rng, 12)
        pred = cloud(rng, 9)

        def f(xy):
            v, _ = chamfer(PointSet(xy), ref)
            return v

        _, grad = chamfer(pred, ref)
        assert grad == pytest.approx(fd_grad_points(f, pred.xy), rel=1e-5, abs=1e-8)

    def test_frame_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(FrameMismatchError):
            chamfer(cloud(rng, 4), cloud(rng, 4, frame=Frame.STANDARDISED))

    def test_translation_moves_value(self):
        rng = np.random.default_rng(4)
        a = cloud(rng, 8)
        b = PointSet(a.xy + [10.0, 0.0])
        val, _ = chamfer(a, b)
        assert val == pytest.approx(16 * 100.0, rel=0.5)  # ~ n * d^2 both ways


# ---------------------------------------------------------------- repulsion

class TestRepulsion:
    @pytest.mark.parametrize("d", [0.1, 1.0, 10.0])
    def test_two_points_value_is_two_over_distance(self, d):
        ps = PointSet([[0.0, 0.0], [d, 0.0]])
        val, _ = repulsion(ps, epsilon=1e-12)
        assert val == pytest.approx(2.0 / d, rel=1e-6)

    def test_self_pairs_contribute_nothing(self):
        # closed form with self-pairs excluded: n^2 / sum_{i != j} sqrt(d^2+eps)
        ps = PointSet([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])
        eps = 1e-10
        val, _ = repulsion(ps, epsilon=eps)
        assert val == pytest.approx(brute_repulsion_value(ps.xy, eps), rel=1e-12)

    def test_matches_brute_force_on_random_clouds(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ps = cloud(rng, int(rng.integers(2, 25)))
            val, _ = repulsion(ps, epsilon=1e-8)
            assert val == pytest.approx(brute_repulsion_value(ps.xy, 1e-8), rel=1e-12)

    def test_spreading_points_decreases_value(self):
        tight = PointSet([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]])
        loose = PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert repulsion(loose)[0] < repulsion(tight)[0]

    def test_coincident_points_stay_finite(self):
        ps = PointSet([[0.5, 0.5], [0.5, 0.5]])
        val, grad = repulsion(ps, epsilon=1e-12)
        assert val == pytest.approx(2.0 / np.sqrt(1e-12))
        assert np.all(np.isfinite(grad))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        ps = cloud(rng, 10)

        def f(xy):
            v, _ = repulsion(PointSet(xy), epsilon=1e-8)
            return v

        _, grad = repulsion(ps, epsilon=1e-8)
        assert grad == pytest.approx(fd_grad_points(f, ps.xy), rel=1e-5, abs=1e-10)

    def test_descent_direction_spreads_points_apart(self):
        # the loss is inverse spread, so going downhill increases separation
        ps = PointSet([[-1.0, 0.0], [1.0, 0.0]])
        _, grad = repulsion(ps)
        step = ps.xy - 1e-3 * grad
        assert abs(step[0, 0] - step[1, 0]) > 2.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        ps = cloud(rng, 8)
        moved = PointSet(ps.xy + [123.0, -45.0])
        assert repulsion(moved)[0] == pytest.approx(repulsion(ps)[0], rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            repulsion(PointSet([[0.0, 0.0]]))
        with pytest.raises(InvalidInputError):
            repulsion(PointSet([[0.0, 0.0], [1.0, 0.0]]), epsilon=0.0)


# ----------------------------------------------------------------- interior

class TestInteriorPenalty:
    def test_all_outside_gives_zero(self, unit_square):
        ps = PointSet([[2.0, 0.5], [-1.0, -1.0], [0.5, 1.5]])
        val, grad = interior_penalty(ps, unit_square)
        assert val == 0.0
        assert not grad.any()

    def test_on_edge_gives_zero(self, unit_square):
        ps = PointSet([[0.5, 0.0], [1.0, 0.5]])
        val, grad = interior_penalty(ps, unit_square)
        assert val == 0.0
        assert not grad.any()

    def test_single_interior_point_value_and_gradient(self, unit_square):
        ps = PointSet([[0.5, 0.3], [5.0, 5.0]])  # one inside, one out; n = 2
        val, grad = interior_penalty(ps, unit_square)
        assert val == pytest.approx(0.3 ** 2 / 2)
        assert grad[0] == pytest.approx([0.0, 0.3])  # 2/n * (p - q), q=(0.5, 0)
        assert grad[1] == pytest.approx([0.0, 0.0])

    def test_descent_pushes_intruder_toward_wall(self, unit_square):
        ps = PointSet([[0.5, 0.2]])
        _, grad = interior_penalty(ps, unit_square)
        stepped = ps.xy - 0.5 * grad
        d_before = 0.2
        d_after = abs(stepped[0, 1])
        assert d_after < d_before

    def test_value_continuous_at_boundary(self, unit_square):
        vals = []
        for y in [1e-3, 1e-5, 1e-7]:
            v, _ = interior_penalty(PointSet([[0.5, y]]), unit_square)
            vals.append(v)
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-12

    def test_gradient_matches_finite_differences_strictly_inside(self, unit_square):
        rng = np.random.default_rng(8)
        xy = rng.uniform(0.05, 0.45, size=(6, 2))  # well inside, replicas near center

        def f(pts):
            v, _ = interior_penalty(PointSet(pts), unit_square)
            return v

        _, grad = interior_penalty(PointSet(xy), unit_square)
        assert grad == pytest.approx(fd_grad_points(f, xy), rel=1e-5, abs=1e-9)

    def test_frame_mismatch_rejected(self, unit_square):
        ps = PointSet([[0.5, 0.5]], Frame.STANDARDISED)
        with pytest.raises(FrameMismatchError):
            interior_penalty(ps, unit_square)


# ---------------------------------------------------------------- composite

class TestLossWeights:
    def test_defaults(self):
        w = LossWeights()
        assert (w.chamfer, w.repulsion, w.interior) == (1.0, 0.0, 0.0)
        assert w.epsilon == pytest.approx(1e-8)

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInputError):
            LossWeights(chamfer=-1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            LossWeights(chamfer=0.0, repulsion=0.0, interior=0.0)

    def test_bad_epsilon_rejected(self):
        with pytest.raises(InvalidInputError):
            LossWeights(epsilon=0.0)

    def test_dict_round_trip(self):
        w = LossWeights(1.0, 2.5, 10.0, 1e-9)
        assert LossWeights.from_dict(w.to_dict()) == w

    @pytest.mark.parametrize("bad", [{"repulsion": True}, {"chamfer": "1"}, {"epsilon": None}])
    def test_from_dict_does_not_coerce(self, bad):
        with pytest.raises(InvalidInputError):
            LossWeights.from_dict(bad)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(InvalidInputError, match=r"unknown weight keys: \['repulsoin'\]"):
            LossWeights.from_dict({"repulsoin": 1.0})


class TestComposite:
    def test_total_is_weighted_sum_of_reported_terms(self, unit_square):
        rng = np.random.default_rng(9)
        pred = cloud(rng, 14, lo=-0.5, hi=1.5)
        ref = cloud(rng, 20, lo=-0.5, hi=1.5)
        w = LossWeights(1.0, 2.0, 10.0)
        br = composite(pred, ref, unit_square, w)
        assert br.total == pytest.approx(
            w.chamfer * br.chamfer + w.repulsion * br.repulsion + w.interior * br.interior)

    def test_all_terms_reported_even_at_zero_weight(self, unit_square):
        rng = np.random.default_rng(10)
        pred = cloud(rng, 8, lo=-0.5, hi=1.5)
        ref = cloud(rng, 8, lo=-0.5, hi=1.5)
        br = composite(pred, ref, unit_square, LossWeights(1.0, 0.0, 0.0))
        br_w = composite(pred, ref, unit_square, LossWeights(1.0, 3.0, 7.0))
        assert br.repulsion == pytest.approx(br_w.repulsion)  # term itself unweighted
        assert br.interior == pytest.approx(br_w.interior)
        assert br.repulsion > 0.0

    def test_gradient_is_weighted_sum(self, unit_square):
        rng = np.random.default_rng(11)
        pred = cloud(rng, 10, lo=-0.5, hi=1.5)
        ref = cloud(rng, 12, lo=-0.5, hi=1.5)
        w = LossWeights(1.0, 2.0, 5.0)
        br = composite(pred, ref, unit_square, w)
        g = (w.chamfer * chamfer(pred, ref)[1]
             + w.repulsion * repulsion(pred, w.epsilon)[1]
             + w.interior * interior_penalty(pred, unit_square)[1])
        assert br.grad == pytest.approx(g, abs=0.0)

    def test_gradient_matches_finite_differences(self, unit_square):
        rng = np.random.default_rng(12)
        pred = cloud(rng, 9, lo=0.1, hi=0.9)  # interior term active
        ref = cloud(rng, 9, lo=-0.5, hi=1.5)
        w = LossWeights(1.0, 1.5, 4.0)

        def f(xy):
            return composite(PointSet(xy), ref, unit_square, w).total

        br = composite(pred, ref, unit_square, w)
        assert br.grad == pytest.approx(fd_grad_points(f, pred.xy), rel=1e-4, abs=1e-7)


    def test_reports_mean_pairwise_distance(self, unit_square):
        rng = np.random.default_rng(14)
        pred = cloud(rng, 31, lo=-0.5, hi=1.5)
        ref = cloud(rng, 12, lo=-0.5, hi=1.5)
        br = composite(pred, ref, unit_square, LossWeights(1.0, 1.0, 10.0))
        assert br.mean_pairwise == pytest.approx(brute_mean_pairwise(pred.xy), rel=1e-12)
        assert br.mean_pairwise == mean_pairwise_distance(pred)


class TestMeanPairwiseDistance:
    def test_two_points(self):
        assert mean_pairwise_distance(np.array([[0.0, 0.0], [3.0, 4.0]])) == pytest.approx(5.0)

    def test_three_collinear(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert mean_pairwise_distance(pts) == pytest.approx(4.0 / 3.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(23, 2))
        assert mean_pairwise_distance(pts) == pytest.approx(brute_mean_pairwise(pts), rel=1e-12)

    def test_accepts_pointset_and_degenerate_sizes(self):
        ps = PointSet([[0.0, 0.0], [3.0, 4.0]])
        assert mean_pairwise_distance(ps) == pytest.approx(5.0)
        assert mean_pairwise_distance(np.array([[1.0, 1.0]])) == 0.0
