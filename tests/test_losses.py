import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loop2mesh.errors import InputError
from loop2mesh.losses import (
    _LEAF,
    LossWeights,
    _pairs,
    _tree_sum,
    chamfer,
    composite,
    interior_penalty,
    mean_pairwise_distance,
    repulsion,
    workspace,
)

from oracles import (
    _off_diagonal,
    brute_chamfer,
    brute_mean_pairwise,
    broadcast_composite,
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
    values, grad = repulsion(_pairs(xy(points)[None], epsilon))
    return values[0], grad[0]


def one_interior(points, loop):
    values, grad = interior_penalty(xy(points)[None], loop[None])
    return values[0], grad[0]


def one_mean_pairwise(points) -> float:
    return mean_pairwise_distance(_pairs(xy(points)[None], 1e-8))[0]


def one_composite(pred, ref, loop, weights):
    """The terms (chamfer, repulsion, interior, total, mean pairwise) and the gradient."""
    terms, grad = composite(pred[None], [ref], loop[None], weights)
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

    @pytest.mark.parametrize("n, m", [(37, 99), (40, 64)])  # M mod 8 < 4: no edge columns
    def test_blas_canary_product_entries_round_as_one_fma(self, n, m):
        """Chamfer's one product -2P @ G.T, as ``chamfer`` calls it: each entry
        is fma(-2 p_y, g_y, round(-2 p_x g_x)), one rounding of the exact sum,
        on the BLAS build every pinned training digest was computed with."""
        rng = np.random.default_rng(2026)
        P, G = rng.uniform(-1.5, 1.5, (n, 2)), rng.uniform(-1.5, 1.5, (m, 2))
        got = np.matmul(-2.0 * P, G.T, out=np.empty((n, m))).tolist()
        fma, two_roundings = [], []
        for (px, py), (gx, gy) in itertools.product(P.tolist(), G.tolist()):
            first = (-2.0 * px) * gx
            fma.append(float(Fraction(-2.0 * py) * Fraction(gy) + Fraction(first)))
            two_roundings.append(first + (-2.0 * py) * gy)
        assert sum(a != b for a, b in zip(fma, two_roundings)) > 100  # the rule is told apart
        bad = sum(a != b for a, b in zip(sum(got, []), fma))
        assert not bad, (
            f"{bad} of {n * m} entries of -2P @ G.T no longer round as one fused "
            "multiply-add: this BLAS kernel rounds Chamfer's product differently, so "
            "every SHA-256 pin of a training checkpoint or trainlog in tests/ will fail "
            "for this reason, not for a change in loop2mesh")


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

    @pytest.mark.parametrize("eps", [1e-308, 2.2250738585072014e-308, 5e-324])
    def test_a_square_past_the_float_range_is_minus_inf_not_an_error(self, eps):
        """1 / mean is above 1.3e154 here, so Python's v ** 2 overflows: the
        gradient's scale is -inf, times the zero d(mean) of coincident points
        nan, with no exception and no warning, for train's divergence checks."""
        (value,), grad = repulsion(_pairs(np.zeros((1, 2, 2)), eps))
        assert value == 4.0 / (2.0 * np.sqrt(eps))
        assert np.isnan(grad).all()
        # apart along x, the x gradients are infinite, and descent moves each point away
        _, grad = repulsion(_pairs(np.array([[[0.0, 0.0], [1e-170, 0.0]]]), eps))
        assert grad[0, :, 0].tolist() == [np.inf, -np.inf]

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
        loops = np.broadcast_to(unit_square, (4000, 4, 2))
        w = LossWeights(1.0, 1.0, 10.0)
        terms, grad = composite(pred, refs, loops, w)
        want_terms, want_grad = per_sample_composite(pred, refs, loops, w)
        assert terms.tobytes() == want_terms.tobytes()
        assert grad.tobytes() == want_grad.tobytes()

    def test_interior_and_mean_distance_are_per_sample(self, unit_square):
        # sample 0 has an intruder, sample 1 does not
        pred = np.array([[[0.5, 0.3], [5.0, 5.0]], [[2.0, 0.5], [5.0, 5.0]]])
        loops = np.stack([unit_square] * 2)
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
        assert mean_pairwise_distance(_pairs(pts, 1e-8)) == [5.0, 1.0]
        assert one_mean_pairwise([[1.0, 1.0]]) == 0.0
        assert one_mean_pairwise(np.empty((0, 2))) == 0.0


# ---------------------------------------------------------- blocked kernels

@st.composite
def blocked_batches(draw):
    """S in {1, 2, 12} clouds of 2 to 160 points, each with its own reference,
    at one scale from 1e-4 to 1e4. On a coarse grid the clouds hold exact
    Chamfer ties, coincident points and signed zeros (rounding a small
    negative coordinate gives -0.0). At S = 12 the pair kernel's slabs hold
    fewer rows than N from N = 53 (mostly not dividing it), N(N-1) needs
    several tree leaves from N = 92 and the rolling buffer's moves from
    N = 139."""
    s, n, m = draw(st.sampled_from([1, 2, 12])), draw(st.integers(2, 160)), draw(st.integers(1, 60))
    scale = 10.0 ** draw(st.integers(-4, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pred, refs = rng.normal(size=(s, n, 2)), rng.normal(size=(s, m, 2))
    if draw(st.booleans()):
        pred, refs = np.round(pred * 2) / 2, np.round(refs * 2) / 2
    loops = np.broadcast_to(np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]),
                            (s, 4, 2))
    return scale * pred, scale * refs, scale * loops, draw(st.sampled_from(WEIGHTS))


class TestBlockedKernels:
    @settings(max_examples=120, deadline=None, database=None, derandomize=True)
    @given(blocked_batches())
    def test_composite_equals_the_broadcast_kernels_bit_for_bit(self, case):
        pred, refs, loops, w = case
        want_terms, want_grad = broadcast_composite(pred, refs, loops, w)
        work = workspace(*pred.shape[:2], refs.shape[1])
        for array in work:
            array.fill(np.nan)  # nothing is read before it is written
        for out in (None, work, work):
            terms, grad = composite(pred, refs, loops, w, out)
            assert terms.tobytes() == want_terms.tobytes()
            assert grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 9), (9, 1), (2, 2), (7, 9), (40, 33)])
    def test_rank_two_products_are_the_broadcast_sum_and_difference(self, rows, cols):
        """Chamfer adds |p|^2 + |g|^2 as [a, 1] @ [1; b], and the pair kernel
        takes x_i - x_j as [x_i, 1] @ [1; -x_j]: each product is by exactly
        1.0, so whatever path BLAS takes, the one rounding is that of the sum,
        also for zeros, subnormals and values near overflow, and into a
        buffer of stale NaNs. The difference may differ in the sign of a
        zero only (-0.0 - 0.0 is -0.0, the product +0.0)."""
        values = np.array([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.75, 1.0,
                           3.0, 1e300, 8.98846567431158e307, 1.7976931348623157e308])
        rng = np.random.default_rng(rows * 100 + cols)
        a, b = rng.choice(values, rows), rng.choice(values, cols)
        out = np.full((rows, cols), np.nan)
        lhs, rhs = np.ones((rows, 2)), np.ones((2, cols))
        lhs[:, 0], rhs[1] = a, b
        with np.errstate(over="ignore"):
            want = a[:, None] + b
            assert np.matmul(lhs, rhs, out=out).tobytes() == want.tobytes()
            x, y = a * rng.choice([-1.0, 1.0], rows), b * rng.choice([-1.0, 1.0], cols)
            lhs[:, 0], rhs[1] = x, -y
            got, want = np.matmul(lhs, rhs, out=out), x[:, None] - y
        assert np.array_equal(got, want)
        assert (np.signbit(got) == np.signbit(want))[want != 0.0].all()

    @pytest.mark.parametrize("n", [2, 100, 400, 2000])
    def test_tree_sum_equals_numpy_sum_and_mean_at_the_pair_counts(self, n):
        self.check_tree_sum(n * (n - 1), seed=n)

    @settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @given(st.integers(1, 300_000), st.integers(0, 2 ** 32 - 1))
    def test_tree_sum_equals_numpy_sum_and_mean_at_any_length(self, length, seed):
        self.check_tree_sum(length, seed)

    @staticmethod
    def check_tree_sum(length, seed):
        """The pair kernel's sums arrive in pieces through a rolling buffer;
        ``_tree_sum`` must still give np.sum's bits, and np.mean's once divided."""
        rng = np.random.default_rng(seed)
        v = rng.random((2, 3, length)) * 10.0 ** rng.uniform(-4, 4, (2, 3, length))
        cuts = np.sort(rng.choice(np.arange(1, length), min(length - 1, 60), replace=False))
        pieces = np.split(v, cuts, axis=-1)
        longest = max(p.shape[-1] for p in pieces)
        stream = np.full((2, 3, min(length, 2 * _LEAF + longest)), np.nan)
        got = _tree_sum(pieces, length, stream)
        sums = [[np.sum(row) for row in rows] for rows in v]
        means = [[np.mean(row) for row in rows] for rows in v]
        why = ("the leaf-wise tree sum no longer equals np.sum: NumPy's pairwise_sum "
               "(numpy/_core/src/umath/loops_utils.h.src) no longer splits a node of n > 128 "
               "elements at n // 2 rounded down to a multiple of 8, or np.sum and np.mean no "
               "longer reduce a contiguous float64 vector through it")
        assert got.tolist() == sums, why
        assert (got / length).tolist() == means, why

    def test_a_second_call_on_a_workspace_allocates_no_n_by_n_or_n_by_m_array(self, unit_square):
        s, n, m = 2, 300, 900
        rng = np.random.default_rng(30)
        pred, refs = rng.uniform(-0.5, 1.5, (s, n, 2)), rng.uniform(-0.5, 1.5, (s, m, 2))
        loops, w = np.stack([unit_square] * s), LossWeights(1.0, 1.0, 10.0)
        work = workspace(s, n, m)
        composite(pred, refs, loops, w, work)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            composite(pred, refs, loops, w, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # all of the call's live arrays together stay below one (N, N) float array
        assert peak - base < 8 * n * n
