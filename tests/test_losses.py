from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loop2mesh.errors import InputError
from loop2mesh.losses import (
    LossWeights,
    _off_diagonal,
    _pairwise,
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
    chamfer_matrix_three_temporaries,
    fd_grad_points,
    off_diagonal_by_mask,
    per_sample_composite,
)
from test_geometry import GRID, star_polygon


def cloud(rng, n, lo=-1.0, hi=1.0) -> np.ndarray:
    return rng.uniform(lo, hi, size=(n, 2))


def xy(points) -> np.ndarray:
    return np.asarray(points, dtype=np.float64)


# one cloud through the batched terms: its value and its gradient (N, 2)
def one_repulsion(points, epsilon=1e-8):
    values, grad = repulsion(_pairwise(xy(points)[None]), epsilon)
    return values[0], grad[0]


def one_interior(points, loop):
    values, grad = interior_penalty(xy(points)[None], loop.vertices[None])
    return values[0], grad[0]


def one_mean_pairwise(points) -> float:
    return mean_pairwise_distance(_pairwise(xy(points)[None]))[0]


def one_composite(pred, ref, loop, weights):
    """The terms (chamfer, repulsion, interior, total, mean pairwise) and the gradient."""
    terms, grad = composite(pred[None], [ref], loop.vertices[None], weights)
    return terms[0], grad[0]


# ------------------------------------------------------------------ chamfer

class TestChamfer:
    def test_single_pair_value_and_gradient(self):
        val, grad = chamfer(xy([[0.0, 0.0]]), xy([[1.0, 0.0]]))
        # both directions pick the same pair: (1^2) + (1^2) = 2
        assert val == pytest.approx(2.0)
        # d/dp of |p-g|^2 + |g-p|^2 = 4(p-g)
        assert grad[0] == pytest.approx([-4.0, 0.0])

    def test_identical_clouds_zero(self):
        rng = np.random.default_rng(0)
        ps = cloud(rng, 17)
        val, grad = chamfer(ps, ps.copy())
        assert val == pytest.approx(0.0, abs=1e-12)  # matmul rounding noise only
        assert grad == pytest.approx(np.zeros_like(grad), abs=1e-12)

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            a = cloud(rng, int(rng.integers(1, 30)))
            b = cloud(rng, int(rng.integers(1, 30)))
            val, _ = chamfer(a, b)
            assert val == pytest.approx(brute_chamfer(a, b), abs=1e-12)

    def test_asymmetric_sizes(self):
        val, _ = chamfer(xy([[0.0, 0.0], [2.0, 0.0]]), xy([[1.0, 0.0]]))
        # forward: 1 + 1; reverse: min(1, 1) = 1 -> 3
        assert val == pytest.approx(3.0)

    def test_nearest_neighbour_tie_takes_first_index(self):
        pred = xy([[0.0, 0.0]])
        ref = xy([[1.0, 0.0], [-1.0, 0.0]])  # equidistant
        val, grad = chamfer(pred, ref)
        # forward min -> ref[0]; reverse adds both sides
        assert val == pytest.approx(1.0 + 1.0 + 1.0)
        # fwd grad 2(p - g0) = (-2, 0); reverse: 2(p - g0) + 2(p - g1) = 0
        assert grad[0] == pytest.approx([-2.0, 0.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        ref = cloud(rng, 12)
        pred = cloud(rng, 9)

        def f(points):
            v, _ = chamfer(points, ref)
            return v

        _, grad = chamfer(pred, ref)
        assert grad == pytest.approx(fd_grad_points(f, pred), rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e1, 1e3])
    def test_matrix_and_value_equal_the_three_temporary_formula(self, scale):
        """The one-buffer matrix, (-2P) @ G.T plus the squared norms, clipped in
        place (in ``out`` when given), equals |p|^2 + |g|^2 - 2 p.g written out
        with three temporaries, bit for bit: scaling by -2 is exact, and so the
        product is the old one negated. Exactness fails only for products in
        the subnormal range (coordinates below about 1e-154), which round to
        a coarser grid before doubling than after it; these clouds stay far
        above it."""
        rng = np.random.default_rng(int(round(np.log10(scale))) + 10)
        for n, m in [(1, 1), (7, 13), (40, 150), (400, 1500)]:
            P = rng.normal(scale=scale, size=(n, 2))
            G = rng.normal(scale=scale, size=(m, 2)) + scale * 0.1
            old = chamfer_matrix_three_temporaries(P, G)
            nn_pg, nn_gp = old.argmin(axis=1), old.argmin(axis=0)
            old_value = float(old[np.arange(n), nn_pg].sum() + old[nn_gp, np.arange(m)].sum())
            old_grad = 2.0 * (P - G[nn_pg])
            np.add.at(old_grad, nn_gp, 2.0 * (P[nn_gp] - G))
            matrix = np.full((n, m), np.nan)
            for out in (None, matrix):
                value, grad = chamfer(P, G, out)
                assert value == old_value
                assert np.array_equal(grad, old_grad)
            assert np.array_equal(matrix, old)

    def test_translation_moves_value(self):
        rng = np.random.default_rng(4)
        a = cloud(rng, 8)
        b = a + [10.0, 0.0]
        val, _ = chamfer(a, b)
        assert val == pytest.approx(16 * 100.0, rel=0.5)  # ~ n * d^2 both ways


# ---------------------------------------------------------------- repulsion

class TestRepulsion:
    @pytest.mark.parametrize("d", [0.1, 1.0, 10.0])
    def test_two_points_value_is_two_over_distance(self, d):
        val, _ = one_repulsion([[0.0, 0.0], [d, 0.0]], epsilon=1e-12)
        assert val == pytest.approx(2.0 / d, rel=1e-6)

    def test_self_pairs_contribute_nothing(self):
        # closed form with self-pairs excluded: n^2 / sum_{i != j} sqrt(d^2+eps)
        ps = xy([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])
        eps = 1e-10
        val, _ = one_repulsion(ps, epsilon=eps)
        assert val == pytest.approx(brute_repulsion_value(ps, eps), rel=1e-12)

    def test_matches_brute_force_on_random_clouds(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            ps = cloud(rng, int(rng.integers(2, 25)))
            val, _ = one_repulsion(ps, epsilon=1e-8)
            assert val == pytest.approx(brute_repulsion_value(ps, 1e-8), rel=1e-12)

    def test_spreading_points_decreases_value(self):
        tight = [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1]]
        loose = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        assert one_repulsion(loose)[0] < one_repulsion(tight)[0]

    def test_coincident_points_stay_finite(self):
        val, grad = one_repulsion([[0.5, 0.5], [0.5, 0.5]], epsilon=1e-12)
        assert val == pytest.approx(2.0 / np.sqrt(1e-12))
        assert np.all(np.isfinite(grad))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        ps = cloud(rng, 10)

        def f(points):
            v, _ = one_repulsion(points, epsilon=1e-8)
            return v

        _, grad = one_repulsion(ps, epsilon=1e-8)
        assert grad == pytest.approx(fd_grad_points(f, ps), rel=1e-5, abs=1e-10)

    def test_descent_direction_spreads_points_apart(self):
        # the loss is inverse spread, so going downhill increases separation
        ps = xy([[-1.0, 0.0], [1.0, 0.0]])
        _, grad = one_repulsion(ps)
        step = ps - 1e-3 * grad
        assert abs(step[0, 0] - step[1, 0]) > 2.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        ps = cloud(rng, 8)
        moved = ps + [123.0, -45.0]
        assert one_repulsion(moved)[0] == pytest.approx(one_repulsion(ps)[0], rel=1e-12)

    def test_input_validation(self):
        with pytest.raises(InputError):
            one_repulsion([[0.0, 0.0]])
        with pytest.raises(InputError):
            one_repulsion([[0.0, 0.0], [1.0, 0.0]], epsilon=0.0)


# ----------------------------------------------------------------- interior

class TestInteriorPenalty:
    def test_all_outside_gives_zero(self, unit_square):
        val, grad = one_interior([[2.0, 0.5], [-1.0, -1.0], [0.5, 1.5]], unit_square)
        assert val == 0.0
        assert not grad.any()

    def test_on_edge_gives_zero(self, unit_square):
        val, grad = one_interior([[0.5, 0.0], [1.0, 0.5]], unit_square)
        assert val == 0.0
        assert not grad.any()

    def test_single_interior_point_value_and_gradient(self, unit_square):
        # one inside, one out; n = 2
        val, grad = one_interior([[0.5, 0.3], [5.0, 5.0]], unit_square)
        assert val == pytest.approx(0.3 ** 2 / 2)
        assert grad[0] == pytest.approx([0.0, 0.3])  # 2/n * (p - q), q=(0.5, 0)
        assert grad[1] == pytest.approx([0.0, 0.0])

    def test_descent_pushes_intruder_toward_wall(self, unit_square):
        ps = xy([[0.5, 0.2]])
        _, grad = one_interior(ps, unit_square)
        stepped = ps - 0.5 * grad
        d_before = 0.2
        d_after = abs(stepped[0, 1])
        assert d_after < d_before

    def test_value_continuous_at_boundary(self, unit_square):
        vals = []
        for y in [1e-3, 1e-5, 1e-7]:
            v, _ = one_interior([[0.5, y]], unit_square)
            vals.append(v)
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-12

    def test_gradient_matches_finite_differences_strictly_inside(self, unit_square):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0.05, 0.45, size=(6, 2))  # well inside, replicas near center

        def f(points):
            v, _ = one_interior(points, unit_square)
            return v

        _, grad = one_interior(pts, unit_square)
        assert grad == pytest.approx(fd_grad_points(f, pts), rel=1e-5, abs=1e-9)


# ---------------------------------------------------------------- composite

class TestLossWeights:
    def test_defaults(self):
        w = LossWeights()
        assert (w.chamfer, w.repulsion, w.interior) == (1.0, 0.0, 0.0)
        assert w.epsilon == pytest.approx(1e-8)

    def test_negative_weight_rejected(self):
        with pytest.raises(InputError):
            LossWeights(chamfer=-1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(InputError):
            LossWeights(chamfer=0.0, repulsion=0.0, interior=0.0)

    def test_bad_epsilon_rejected(self):
        with pytest.raises(InputError):
            LossWeights(epsilon=0.0)

    def test_dict_round_trip(self):
        w = LossWeights(1.0, 2.5, 10.0, 1e-9)
        assert LossWeights.from_dict(asdict(w)) == w

    @pytest.mark.parametrize("bad", [{"repulsion": True}, {"chamfer": "1"}, {"epsilon": None}])
    def test_from_dict_does_not_coerce(self, bad):
        with pytest.raises(InputError):
            LossWeights.from_dict(bad)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(InputError, match=r"unknown weight keys: \['repulsoin'\]"):
            LossWeights.from_dict({"repulsoin": 1.0})


class TestComposite:
    def test_total_is_weighted_sum_of_reported_terms(self, unit_square):
        rng = np.random.default_rng(9)
        pred = cloud(rng, 14, lo=-0.5, hi=1.5)
        ref = cloud(rng, 20, lo=-0.5, hi=1.5)
        w = LossWeights(1.0, 2.0, 10.0)
        (c, r, i, total, _), _ = one_composite(pred, ref, unit_square, w)
        assert total == pytest.approx(w.chamfer * c + w.repulsion * r + w.interior * i)

    def test_all_terms_reported_even_at_zero_weight(self, unit_square):
        rng = np.random.default_rng(10)
        pred = cloud(rng, 8, lo=-0.5, hi=1.5)
        ref = cloud(rng, 8, lo=-0.5, hi=1.5)
        terms, _ = one_composite(pred, ref, unit_square, LossWeights(1.0, 0.0, 0.0))
        terms_w, _ = one_composite(pred, ref, unit_square, LossWeights(1.0, 3.0, 7.0))
        assert terms[1] == pytest.approx(terms_w[1])  # term itself unweighted
        assert terms[2] == pytest.approx(terms_w[2])
        assert terms[1] > 0.0

    def test_gradient_is_weighted_sum(self, unit_square):
        rng = np.random.default_rng(11)
        pred = cloud(rng, 10, lo=-0.5, hi=1.5)
        ref = cloud(rng, 12, lo=-0.5, hi=1.5)
        w = LossWeights(1.0, 2.0, 5.0)
        _, grad = one_composite(pred, ref, unit_square, w)
        g = (w.chamfer * chamfer(pred, ref)[1]
             + w.repulsion * one_repulsion(pred, w.epsilon)[1]
             + w.interior * one_interior(pred, unit_square)[1])
        assert grad == pytest.approx(g, abs=0.0)

    def test_gradient_matches_finite_differences(self, unit_square):
        rng = np.random.default_rng(12)
        pred = cloud(rng, 9, lo=0.1, hi=0.9)  # interior term active
        ref = cloud(rng, 9, lo=-0.5, hi=1.5)
        w = LossWeights(1.0, 1.5, 4.0)

        def f(points):
            return one_composite(points, ref, unit_square, w)[0][3]

        _, grad = one_composite(pred, ref, unit_square, w)
        assert grad == pytest.approx(fd_grad_points(f, pred), rel=1e-4, abs=1e-7)

    def test_reports_mean_pairwise_distance(self, unit_square):
        rng = np.random.default_rng(14)
        pred = cloud(rng, 31, lo=-0.5, hi=1.5)
        ref = cloud(rng, 12, lo=-0.5, hi=1.5)
        terms, _ = one_composite(pred, ref, unit_square, LossWeights(1.0, 1.0, 10.0))
        assert terms[4] == pytest.approx(brute_mean_pairwise(pred), rel=1e-12)
        assert terms[4] == one_mean_pairwise(pred)


WEIGHTS = (LossWeights(1.0, 1.0, 10.0), LossWeights(1.0, 0.0, 0.0), LossWeights(0.5, 2.5, 0.0),
           LossWeights(0.0, 1.0, 10.0, 1e-6), LossWeights(1.0, 3.0, 7.0))


@st.composite
def loss_batches(draw):
    """S clouds, each with its own reference and its own star loop (one
    vertex count for all), on the dyadic grid. Some points sit exactly on
    loop vertices or edge midpoints, and some coincide with another point
    or with a reference point."""
    s, k = draw(st.integers(1, 6)), draw(st.integers(4, 12))
    n, m = draw(st.integers(2, 40)), draw(st.integers(1, 30))
    on_loop, repeats = draw(st.integers(0, n)), draw(st.integers(0, n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    loops = np.stack([np.round(star_polygon(rng, k) / GRID) * GRID for _ in range(s)])
    pred = rng.integers(-2560, 2561, size=(s, n, 2)) * GRID
    refs = [rng.integers(-2560, 2561, size=(m, 2)) * GRID for _ in range(s)]
    for p, g, v in zip(pred, refs, loops):
        wall = np.vstack([v, 0.5 * (v + np.roll(v, -1, axis=0))])
        p[rng.choice(n, on_loop, replace=False)] = wall[rng.integers(0, len(wall), on_loop)]
        p[rng.integers(0, n, repeats)] = p[rng.integers(0, n, repeats)]
        g[rng.integers(0, m, repeats)] = p[rng.integers(0, n, repeats)]
    return pred, refs, loops, draw(st.sampled_from(WEIGHTS))


class TestCompositeBatch:
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(loss_batches())
    def test_equals_the_per_sample_loop_bit_for_bit(self, case):
        pred, refs, loops, w = case
        terms, grad = composite(pred, refs, loops, w)
        want_terms, want_grad = per_sample_composite(pred, refs, loops, w)
        assert terms.tobytes() == want_terms.tobytes()
        assert grad.tobytes() == want_grad.tobytes()
        # the epoch means train logs: per-sample terms summed in sample order
        sums = np.zeros(5)
        for row in want_terms:
            sums += row
        assert (terms.sum(axis=0) / len(pred)).tobytes() == (sums / len(pred)).tobytes()
        # a one-sample call gives that sample's row
        for s in (0, len(pred) - 1):
            one_terms, one_grad = composite(pred[s:s + 1], refs[s:s + 1], loops[s:s + 1], w)
            assert one_terms.tobytes() == terms[s:s + 1].tobytes()
            assert one_grad.tobytes() == grad[s:s + 1].tobytes()

    def test_thousands_of_small_clouds_equal_the_per_sample_loop(self, unit_square):
        # about one repulsion value in a thousand squares to a different last
        # bit as a NumPy array than as a Python float; this many samples
        # reaches such values
        rng = np.random.default_rng(21)
        pred = rng.uniform(-0.5, 1.5, size=(4000, 3, 2))
        refs = list(rng.uniform(-0.5, 1.5, size=(4000, 2, 2)))
        loops = np.broadcast_to(unit_square.vertices, (4000, 4, 2))
        w = LossWeights(1.0, 1.0, 10.0)
        terms, grad = composite(pred, refs, loops, w)
        want_terms, want_grad = per_sample_composite(pred, refs, loops, w)
        assert terms.tobytes() == want_terms.tobytes()
        assert grad.tobytes() == want_grad.tobytes()

    def test_interior_and_mean_distance_are_per_sample(self, unit_square):
        # sample 0 has an intruder, sample 1 does not
        pred = np.array([[[0.5, 0.3], [5.0, 5.0]], [[2.0, 0.5], [5.0, 5.0]]])
        loops = np.stack([unit_square.vertices] * 2)
        terms, grad = composite(pred, [pred[0], pred[1]], loops, LossWeights(1.0, 1.0, 10.0))
        assert terms[0, 2] == pytest.approx(0.3 ** 2 / 2)
        assert terms[1, 2] == 0.0
        assert terms[:, 4] == pytest.approx([np.hypot(4.5, 4.7), np.hypot(3.0, 4.5)])


class TestMeanPairwiseDistance:
    def test_two_points(self):
        assert one_mean_pairwise([[0.0, 0.0], [3.0, 4.0]]) == pytest.approx(5.0)

    def test_three_collinear(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert one_mean_pairwise(pts) == pytest.approx(4.0 / 3.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(23, 2))
        assert one_mean_pairwise(pts) == pytest.approx(brute_mean_pairwise(pts), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 17, 400])
    def test_strided_off_diagonal_equals_the_mask_selection(self, n):
        """The off-diagonal entries read as a strided view of each flattened
        (N, N) slice reach the reduction as one contiguous vector holding the
        boolean-mask copy's elements in its order, so the sums are equal."""
        a = np.random.default_rng(n).normal(size=(3, n, n))
        seen = []
        _off_diagonal(a, lambda v: seen.append(v) or 0.0)
        for got, m in zip(seen, a, strict=True):
            assert got.ndim == 1 and got.flags.c_contiguous
            assert np.array_equal(got, off_diagonal_by_mask(m))
        for reduce in (np.sum, np.mean):
            assert _off_diagonal(a, reduce) == [float(reduce(off_diagonal_by_mask(m))) for m in a]

    def test_one_value_per_cloud_and_degenerate_sizes(self):
        pts = np.array([[[0.0, 0.0], [3.0, 4.0]], [[1.0, 1.0], [1.0, 2.0]]])
        assert mean_pairwise_distance(_pairwise(pts)) == [5.0, 1.0]
        assert one_mean_pairwise([[1.0, 1.0]]) == 0.0
        assert one_mean_pairwise(np.empty((0, 2))) == 0.0
