import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loop2mesh.errors import InputError
from loop2mesh.geometry import (
    check_loop,
    check_map,
    _is_simple,
    _signed_area,
    as_point_array,
    edge_query,
    fit_standardize,
    intruders,
    invert_standardize,
    padded_bbox,
    points_in_polygon,
    resample_loop,
    standardize_loop,
)
from loop2mesh.synth import naca4_contour, synth_fluid_mesh

from oracles import (
    even_odd_edge_loop,
    invert_standardize_fields,
    is_simple_double_loop,
    nearest_edge_broadcast,
    standardize_fields,
    winding_inside,
)


# ------------------------------------------------------------- primitives

class TestAsPointArray:
    def test_coerces_a_list_to_float64_points(self):
        xy = as_point_array([[1, 2], [3, 4]])
        assert xy.dtype == np.float64 and xy.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("bad", [np.zeros((4, 3)), np.zeros(4), [[0.0, np.nan]],
                                     [[np.inf, 0.0]], [[1e999, 0.0]]])
    def test_rejects_bad_shapes_and_non_finite(self, bad):
        with pytest.raises(InputError):
            as_point_array(bad)

    def test_resample_loop_validates_its_contour(self):
        with pytest.raises(InputError, match="contour contains non-finite"):
            resample_loop([[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]], 4)
        with pytest.raises(InputError, match="3 distinct points"):
            resample_loop(np.zeros((0, 2)), 4)


class TestCheckLoop:
    def test_returns_the_vertices_as_a_float64_array(self):
        loop = check_loop([[0, 0], [1, 0], [0, 1]])
        assert isinstance(loop, np.ndarray) and loop.dtype == np.float64
        assert loop.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("bad, message", [
        (np.zeros((4, 3)), r"loop vertices must be an \(N, 2\) array"),
        ([[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]], "loop vertices contains non-finite"),
    ])
    def test_rejects_bad_shapes_and_non_finite(self, bad, message):
        with pytest.raises(InputError, match=message):
            check_loop(bad)

    def test_requires_three_vertices(self):
        with pytest.raises(InputError, match="a loop needs at least 3 vertices, got 2"):
            check_loop([[0.0, 0.0], [1.0, 0.0]])

    def test_rejects_repeated_consecutive_vertices(self):
        with pytest.raises(InputError, match="loop has zero-length edges"):
            check_loop([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def test_rejects_collinear_zero_area(self):
        with pytest.raises(InputError, match="degenerate loop: enclosed area is numerically zero"):
            check_loop([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])

    def test_rejects_self_intersection(self):
        # lobes of unequal area, so the crossing, not the area, is what fails
        with pytest.raises(InputError, match="loop is self-intersecting"):
            check_loop([[0.0, 0.0], [2.0, 2.0], [2.0, 0.0], [0.0, 1.0]])
        # a symmetric bow tie's lobes cancel, so it fails on its zero area first
        with pytest.raises(InputError, match="degenerate loop"):
            check_loop([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])

    def test_simplicity_check_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        verdicts = []
        for trial in range(600):
            n = int(rng.integers(3, 13))
            if trial % 2:
                # a small integer grid makes shared points, touches and
                # collinear overlaps common
                v = rng.integers(0, 4, size=(n, 2)).astype(np.float64)
            else:
                v = rng.uniform(-1.0, 1.0, size=(n, 2))
            got = _is_simple(v)
            assert got == is_simple_double_loop(v), v.tolist()
            verdicts.append(got)
        assert 50 < sum(verdicts) < 550  # both outcomes well represented

    def test_touches_and_collinear_overlaps_are_not_crossings(self):
        # vertex (1,0) of the first triangle touches the second's edge
        touch = [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        # edges (0,0)-(2,0) and (3,0)-(1,0) overlap on a collinear stretch
        overlap = [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [3.0, 1.0], [3.0, 0.0], [1.0, 0.0], [0.0, 2.0]]
        bowtie = [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        for v, want in ((touch, True), (overlap, True), (bowtie, False)):
            v = np.array(v)
            assert _is_simple(v) is want
            assert is_simple_double_loop(v) is want

    def test_pieces_of_one_straight_side_are_not_crossings(self):
        # edges 41 and 64 of this resampled pentagon lie on one side, and
        # rounding gives each an orientation of opposite sign (1.7e-18)
        # against the other's line, so only their disjoint boxes tell them apart
        verts = star_polygon(np.random.default_rng(976), 5)
        loop = resample_loop(verts, 191)
        assert len(loop) == 191
        assert is_simple_double_loop(loop) is True

    def test_signed_area_unit_square(self, unit_square):
        assert _signed_area(unit_square) == pytest.approx(1.0)

    def test_orientation_flips_signed_area(self, unit_square):
        rev = check_loop(unit_square[::-1])
        assert _signed_area(rev) == pytest.approx(-1.0)


# ------------------------------------------------------------ containment

def star_polygon(rng, k: int) -> np.ndarray:
    # stratified angles keep every gap below pi, so a polygon that is
    # star-shaped about the origin stays simple
    angles = (np.arange(k) + rng.uniform(0.15, 0.85, size=k)) * (2 * np.pi / k)
    radii = rng.uniform(0.5, 2.0, size=k)
    return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


@pytest.fixture()
def u_notch() -> np.ndarray:
    return check_loop([[0, 0], [3, 0], [3, 3], [2, 3], [2, 1], [1, 1], [1, 3], [0, 3]])


class TestContainment:
    def test_interior_point_of_unit_square(self, unit_square):
        assert points_in_polygon([[0.5, 0.5]], unit_square)[0]

    def test_edge_point_counts_as_outside(self, unit_square):
        assert not points_in_polygon([[0.5, 0.0]], unit_square)[0]
        assert not points_in_polygon([[1.0, 0.5]], unit_square)[0]

    def test_vertex_counts_as_outside(self, unit_square):
        assert not points_in_polygon([[0.0, 0.0]], unit_square)[0]

    def test_clearly_outside(self, unit_square):
        assert not points_in_polygon([[-0.1, 0.5]], unit_square)[0]
        assert not points_in_polygon([[0.5, 1.2]], unit_square)[0]

    def test_concave_polygon_notch(self, u_notch):
        # U-shape: the notch between the prongs is outside
        assert points_in_polygon([[0.5, 2.0]], u_notch)[0]
        assert points_in_polygon([[2.5, 2.0]], u_notch)[0]
        assert not points_in_polygon([[1.5, 2.0]], u_notch)[0]  # inside the notch
        assert points_in_polygon([[1.5, 0.5]], u_notch)[0]      # in the base

    def test_horizontal_edge_scanline_robust(self):
        # points level with a horizontal edge must classify correctly
        tri = check_loop([[0.0, 0.0], [4.0, 0.0], [2.0, 2.0]])
        assert points_in_polygon([[2.0, 0.5]], tri)[0]
        assert not points_in_polygon([[5.0, 0.0]], tri)[0]
        assert not points_in_polygon([[-1.0, 0.0]], tri)[0]

    def test_matches_winding_oracle_on_random_star_polygons(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            verts = star_polygon(rng, int(rng.integers(5, 12)))
            loop = check_loop(verts)
            pts = rng.uniform(-2.5, 2.5, size=(200, 2))
            dist, _, got = edge_query(pts, loop)
            clear = dist > 1e-9  # winding sum is ill-defined on the boundary
            want = np.array([winding_inside(x, y, verts) for x, y in pts])
            assert np.array_equal(got[clear], want[clear])

    def test_interior_and_exterior_points_together(self, unit_square):
        pts = np.array([[0.5, 0.5], [2.0, 0.5]])
        assert points_in_polygon(pts, unit_square).tolist() == [True, False]


class TestEdgeQuery:
    def test_interior_distances_unit_square(self, unit_square):
        pts = np.array([[0.5, 0.5], [0.25, 0.5], [0.5, 0.1]])
        dist, closest, _ = edge_query(pts, unit_square)
        assert dist == pytest.approx([0.5, 0.25, 0.1])
        assert closest[1] == pytest.approx([0.0, 0.5])
        assert closest[2] == pytest.approx([0.5, 0.0])

    def test_exterior_point_projects_onto_edge(self, unit_square):
        dist, closest, _ = edge_query(np.array([[2.0, 0.5]]), unit_square)
        assert dist[0] == pytest.approx(1.0)
        assert closest[0] == pytest.approx([1.0, 0.5])

    def test_exterior_point_near_corner_projects_onto_vertex(self, unit_square):
        dist, closest, _ = edge_query(np.array([[-3.0, -4.0]]), unit_square)
        assert dist[0] == pytest.approx(5.0)
        assert closest[0] == pytest.approx([0.0, 0.0])

    def test_tie_resolves_to_lowest_edge_index(self, unit_square):
        # center is equidistant from all four edges; edge 0 is the bottom
        _, closest, _ = edge_query(np.array([[0.5, 0.5]]), unit_square)
        assert closest[0] == pytest.approx([0.5, 0.0])

    def test_on_edge_distance_is_zero(self, unit_square):
        dist, _, _ = edge_query(np.array([[0.5, 0.0]]), unit_square)
        assert dist[0] == 0.0

    def test_containment_is_the_third_result(self, unit_square):
        pts = np.array([[0.5, 0.5], [2.0, 0.5], [0.5, 0.0]])
        assert edge_query(pts, unit_square)[2].tolist() == [True, False, False]
        assert np.array_equal(points_in_polygon(pts, unit_square), edge_query(pts, unit_square)[2])

    def test_empty_input(self, unit_square):
        dist, closest, inside = edge_query(np.zeros((0, 2)), unit_square)
        assert (dist.shape, closest.shape, inside.shape) == ((0,), (0, 2), (0,))
        assert inside.dtype == bool


# every NACA section the benchmark workloads train on or score
WORKLOAD_CODES = ("2220", "0009", "0011", "0014", "0017", "0020", "0023", "2411", "2414", "2420",
                  "4414", "4420", "6414", "0012", "2417", "4417", "6418", "0010", "0015",
                  "0018", "0021", "0024", "1410", "2412", "2415", "2418", "2421", "4412",
                  "4415", "4418", "4421", "6412")


class TestEdgeQueryMatchesOracle:
    """Bit equality with the (N, L, 2) broadcast and the loop over edges."""

    @staticmethod
    def assert_bit_equal(pts, loop):
        dist, closest, inside = edge_query(pts, loop)
        want_dist, want_closest = nearest_edge_broadcast(pts, loop)
        want_inside = even_odd_edge_loop(pts, loop) & (want_dist > 0.0)
        assert np.array_equal(dist, want_dist)
        assert np.array_equal(closest, want_closest)
        assert np.array_equal(inside, want_inside)

    @staticmethod
    def vertices_and_midpoints(loop):
        return np.vstack([loop, 0.5 * (loop + np.roll(loop, -1, axis=0))])

    def test_workload_naca_loops(self):
        rng = np.random.default_rng(11)
        for code in WORKLOAD_CODES:
            contour = naca4_contour(code)
            for loop in (check_loop(contour[:-1]), resample_loop(contour, 35)):
                pts = np.vstack([rng.uniform([-0.5, -0.4], [1.5, 0.4], size=(300, 2)),
                                 self.vertices_and_midpoints(loop)])
                self.assert_bit_equal(pts, loop)

    def test_random_star_polygons(self):
        rng = np.random.default_rng(12)
        for trial in range(40):
            loop = check_loop(star_polygon(rng, int(rng.integers(3, 15))))
            pts = np.vstack([rng.uniform(-2.5, 2.5, size=(200, 2)),
                             self.vertices_and_midpoints(loop)])
            self.assert_bit_equal(pts, loop)

    def test_loops_with_horizontal_edges(self, unit_square, u_notch):
        rng = np.random.default_rng(13)
        for loop in (unit_square, u_notch):
            lo, hi = loop.min(axis=0) - 0.5, loop.max(axis=0) + 0.5
            # grid points sit level with the horizontal edges and on the vertical ones
            grid = np.stack(np.meshgrid(np.linspace(lo[0], hi[0], 17),
                                        np.linspace(lo[1], hi[1], 17)), axis=-1).reshape(-1, 2)
            pts = np.vstack([rng.uniform(lo, hi, size=(200, 2)), grid,
                             self.vertices_and_midpoints(loop)])
            self.assert_bit_equal(pts, loop)

    def test_sizes_up_to_3000_points(self, airfoil_loop):
        rng = np.random.default_rng(14)
        for n in (0, 1, 2, 3, 17, 100, 400, 1000, 3000):
            self.assert_bit_equal(rng.uniform([-2.0, -2.0], [3.0, 2.0], size=(n, 2)), airfoil_loop)


# a dyadic grid: its sums with offsets on the same grid, and its products
# with powers of two, are exact in float64
GRID = 2.0 ** -10


@st.composite
def star_and_points(draw):
    """A star polygon and test points, every coordinate on the dyadic grid."""
    k = draw(st.integers(4, 12))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    verts = np.round(star_polygon(np.random.default_rng(seed), k) / GRID) * GRID
    ticks = st.integers(-2560, 2560)
    pts = draw(st.lists(st.tuples(ticks, ticks), min_size=1, max_size=60))
    return verts, np.array(pts, dtype=np.float64) * GRID


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)


class TestContainmentProperties:
    @PROPERTY_SETTINGS
    @given(star_and_points())
    def test_agrees_with_winding_number_clear_of_the_boundary(self, case):
        verts, pts = case
        dist, _, inside = edge_query(pts, check_loop(verts))
        want = np.array([winding_inside(x, y, verts) for x, y in pts])
        clear = dist > 1e-9
        assert np.array_equal(inside[clear], want[clear])

    @PROPERTY_SETTINGS
    @given(star_and_points(), st.integers(-16, 16))
    def test_unchanged_by_power_of_two_scaling(self, case, k):
        verts, pts = case
        dist, closest, inside = edge_query(pts, check_loop(verts))
        scale = 2.0 ** k  # every rounding step scales exactly, so all bits carry over
        s_dist, s_closest, s_inside = edge_query(pts * scale, check_loop(verts * scale))
        assert np.array_equal(s_inside, inside)
        assert np.array_equal(s_dist, dist * scale)
        assert np.array_equal(s_closest, closest * scale)

    @PROPERTY_SETTINGS
    @given(star_and_points(), st.tuples(st.integers(-2 ** 20, 2 ** 20), st.integers(-2 ** 20, 2 ** 20)))
    def test_unchanged_by_dyadic_translation(self, case, ticks):
        verts, pts = case
        shift = np.array(ticks, dtype=np.float64) * GRID
        dist, _, inside = edge_query(pts, check_loop(verts))
        _, _, moved = edge_query(pts + shift, check_loop(verts + shift))
        # the inputs move exactly; only the rounding of a ray's crossing
        # abscissa changes with the offset, which a point clear of the
        # boundary cannot feel
        clear = dist > 1e-9
        assert np.array_equal(moved[clear], inside[clear])


def step_ulps(x: float, k: int) -> float:
    """x moved k representable doubles up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.copysign(np.inf, k))
    return x


def box_line_points(verts: np.ndarray) -> np.ndarray:
    """Points on the four lines of the loop's bounding box and 1-4 ulps to
    either side, each paired with every vertex's and edge midpoint's other
    coordinate, plus the vertices and edge midpoints themselves."""
    marks = np.vstack([verts, 0.5 * (verts + np.roll(verts, -1, axis=0))])
    pts = [marks]
    for axis in (0, 1):
        for line in (verts[:, axis].min(), verts[:, axis].max()):
            for k in range(-4, 5):
                p = marks.copy()
                p[:, axis] = step_ulps(line, k)
                pts.append(p)
    return np.vstack(pts)


@st.composite
def star_batches(draw):
    """S = 1..6 star loops of one size on the dyadic grid, each with its own
    cloud: box-line points, vertices, edge midpoints and dyadic points."""
    n_loops, k = draw(st.integers(1, 6)), draw(st.integers(4, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    verts = np.stack([np.round(star_polygon(rng, k) / GRID) * GRID for _ in range(n_loops)])
    ticks = rng.integers(-2560, 2561, size=(n_loops, draw(st.integers(0, 80)), 2))
    clouds = np.stack([np.vstack([box_line_points(v), t * GRID]) for v, t in zip(verts, ticks)])
    return verts, clouds


class TestIntrudersMatchDenseKernel:
    """The bounding-box candidate rows give what the dense kernel gives:
    the same classification of every point, and bit-equal distance and
    closest point for every intruder."""

    @staticmethod
    def assert_matches_dense(verts, clouds):
        s, n, dist, closest = intruders(clouds, verts)
        dense = [edge_query(c, check_loop(v)) for c, v in zip(clouds, verts)]
        inside = np.stack([d[2] for d in dense])
        want_s, want_n = np.nonzero(inside)
        assert np.array_equal(s, want_s) and np.array_equal(n, want_n)
        assert np.array_equal(dist, np.stack([d[0] for d in dense])[want_s, want_n])
        assert np.array_equal(closest, np.stack([d[1] for d in dense])[want_s, want_n])
        for c, v, want in zip(clouds, verts, inside):
            assert np.array_equal(points_in_polygon(c, check_loop(v)), want)

    @PROPERTY_SETTINGS
    @given(star_batches())
    def test_on_box_lines_vertices_midpoints_and_dyadic_points(self, case):
        self.assert_matches_dense(*case)

    @PROPERTY_SETTINGS
    @given(star_batches())
    def test_no_candidates(self, case):
        verts, clouds = case
        # moved clear of every loop's box, so no point reaches the kernel
        clouds = clouds + 2.0 * (np.abs(verts).max() + np.abs(clouds).max())
        s, n, dist, closest = intruders(clouds, verts)
        assert (s.shape, n.shape, dist.shape, closest.shape) == ((0,), (0,), (0,), (0, 2))
        self.assert_matches_dense(verts, clouds)

    def test_workload_naca_meshes(self):
        for code in ("2220", "0009", "6418"):
            contour = naca4_contour(code)
            loop = resample_loop(contour, 35)
            mesh = synth_fluid_mesh(contour, 2000, seed=3)
            self.assert_matches_dense(loop[None], mesh[None])


class TestPaddedBbox:
    def test_pads_each_axis_by_its_extent(self):
        lo, hi = padded_bbox(np.array([[0.0, -1.0], [2.0, 3.0], [1.0, 0.0]]))
        assert lo == [-0.1, -1.2] and hi == [2.1, 3.2]

    def test_zero_extent_stays_zero_unless_floored(self):
        xy = np.array([[1.0, 0.0], [1.0, 2.0]])
        assert padded_bbox(xy) == ([1.0, -0.1], [1.0, 2.1])
        lo, hi = padded_bbox(xy, min_extent=1e-9)
        assert lo[0] == 1.0 - 0.05 * 1e-9 and hi[0] == 1.0 + 0.05 * 1e-9


# ------------------------------------------------------------- resampling

class TestResampleLoop:
    def test_square_resampled_to_own_vertices(self):
        sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        loop = resample_loop(sq, 4)
        assert loop == pytest.approx(sq)

    def test_square_to_eight_hits_edge_midpoints(self):
        sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        loop = resample_loop(sq, 8)
        expect = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 0.5],
                           [1.0, 1.0], [0.5, 1.0], [0.0, 1.0], [0.0, 0.5]])
        assert loop == pytest.approx(expect)

    def test_unit_square_spacing_is_perimeter_over_count(self, unit_square):
        for target in (4, 8, 12, 20):
            loop = resample_loop(unit_square, target)
            closed = np.vstack([loop, loop[:1]])
            steps = np.hypot(*np.diff(closed, axis=0).T)
            # a multiple of 4 samples puts one on every corner, so no step cuts a corner
            assert steps == pytest.approx(np.full(target, 4.0 / target))
            assert steps.sum() == pytest.approx(4.0)

    def test_vertex_count_and_first_vertex(self, contour_2220):
        loop = resample_loop(contour_2220, 35)
        assert len(loop) == 35
        assert loop[0] == pytest.approx(contour_2220[0])

    def test_spacing_is_uniform_along_arc(self, contour_2220):
        loop = resample_loop(contour_2220, 50)
        closed = np.vstack([loop, loop[:1]])
        steps = np.hypot(*np.diff(closed, axis=0).T)
        # straight-line steps between consecutive samples may cut corners,
        # so they can only be <= the uniform arc spacing, and mostly equal
        assert steps.max() <= steps.mean() * 1.5
        assert np.median(steps) == pytest.approx(steps.max(), rel=0.05)

    def test_closing_duplicate_and_repeats_are_dropped(self):
        sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                       [0.0, 1.0], [0.0, 0.0]])
        loop = resample_loop(sq, 4)
        assert loop == pytest.approx(
            np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))

    def test_orientation_preserved(self, contour_2220):
        fwd = resample_loop(contour_2220, 35)
        rev = resample_loop(contour_2220[::-1], 35)
        assert np.sign(_signed_area(fwd)) == -np.sign(_signed_area(rev))

    def test_rejects_tiny_targets_and_degenerate_input(self):
        sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(InputError):
            resample_loop(sq, 2)
        with pytest.raises(InputError):
            resample_loop(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), 4)


class TestResampleLoopProperties:
    @PROPERTY_SETTINGS
    @given(st.integers(4, 12), st.integers(0, 2 ** 32 - 1), st.integers(0, 200),
           st.booleans(), st.booleans())
    def test_keeps_first_vertex_closure_orientation_and_count(self, k, seed, extra,
                                                              closed, reverse):
        verts = star_polygon(np.random.default_rng(seed), k)
        if reverse:
            verts = verts[::-1]
        area = _signed_area(verts)
        contour = np.vstack([verts, verts[:1]]) if closed else verts
        target = 4 * k + extra
        loop = resample_loop(contour, target)
        assert len(loop) == target
        assert np.array_equal(loop[0], verts[0])
        assert not np.all(loop[1:] == verts[0], axis=1).any()  # no closing repeat
        assert np.sign(_signed_area(loop)) == np.sign(area)


# --------------------------------------------------------- standardisation

# finite coordinates that include -0.0 and subnormals, and positive scales down
# to the smallest subnormal (whose quotients overflow)
COORDS = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308])
CLOUDS = st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=20).map(np.array)
SCALES = st.floats(1e-6, 1e6) | st.sampled_from([5e-324, 1e-310, 2.2e-308])


def same_bits(a, b) -> bool:
    """Equal shapes and identical float64 bit patterns (so -0.0 != 0.0)."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestCheckMap:
    def test_returns_a_float64_copy_of_a_valid_map(self):
        t = check_map([[1, -2], [3, 4]])
        assert t.dtype == np.float64 and t.tolist() == [[1.0, -2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("bad, message", [
        (np.zeros(4), r"^transform must be a \(2, 2\) array, got shape \(4,\)"),
        (np.ones((3, 2)), r"^transform must be a \(2, 2\) array"),
        ([[0.0, np.nan], [1.0, 1.0]], "^transform parameters must be finite"),
        ([[0.0, 0.0], [np.inf, 1.0]], "^transform parameters must be finite"),
        ([[0.0, 0.0], [0.0, 1.0]], "^transform scales must be positive"),
        ([[0.0, 0.0], [1.0, -0.0]], "^transform scales must be positive"),
        ([[0.0, 0.0], [1.0, -2.0]], "^transform scales must be positive"),
    ])
    def test_rejects_bad_shapes_non_finite_entries_and_nonpositive_scales(self, bad, message):
        with pytest.raises(InputError, match=message):
            check_map(bad)

    def test_names_the_map_in_its_errors(self):
        with pytest.raises(InputError, match="^chord transform parameters must be finite"):
            check_map([[0.0, 0.0], [np.inf, np.inf]], name="chord transform")


class TestStandardize:
    def test_population_sigma_two_points(self):
        t = fit_standardize(np.array([[0.0, 10.0], [2.0, 14.0]]))
        assert t.shape == (2, 2) and t.dtype == np.float64
        assert t[0] == pytest.approx([1.0, 12.0])  # the mean
        assert t[1] == pytest.approx([1.0, 2.0])  # population sigma, not sample

    def test_apply_gives_zero_mean_unit_variance(self):
        rng = np.random.default_rng(3)
        xy = rng.normal(size=(500, 2)) * [2.0, 0.3] + [5.0, -1.0]
        out = standardize_loop(fit_standardize(xy), xy)
        assert out.mean(axis=0) == pytest.approx([0.0, 0.0], abs=1e-12)
        assert out.std(axis=0) == pytest.approx([1.0, 1.0], rel=1e-12)

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(4)
        xy = rng.uniform(-3, 3, size=(50, 2))
        t = fit_standardize(xy)
        back = invert_standardize(t, standardize_loop(t, xy))
        assert back == pytest.approx(xy, abs=1e-12)

    def test_zero_variance_axis_rejected(self):
        with pytest.raises(InputError):
            fit_standardize(np.array([[0.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(InputError):
            fit_standardize(np.array([[2.0, 3.0]]))

    def test_loop_standardisation_preserves_containment(self, airfoil_loop, dataset):
        t = fit_standardize(dataset.samples[0].target)
        std_loop = check_loop(standardize_loop(t, airfoil_loop))
        rng = np.random.default_rng(9)
        pts = rng.uniform([-0.2, -0.3], [1.2, 0.3], size=(300, 2))
        before = points_in_polygon(pts, airfoil_loop)
        after = points_in_polygon((pts - t[0]) / t[1], std_loop)
        assert np.array_equal(before, after)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(xy=CLOUDS, mean=st.tuples(COORDS, COORDS), scale=st.tuples(SCALES, SCALES))
    def test_maps_equal_the_four_field_arithmetic_bit_for_bit(self, xy, mean, scale):
        fields = (*mean, *scale)
        t = check_map([mean, scale])
        with np.errstate(over="ignore"):  # a subnormal scale overflows both ways alike
            assert same_bits(standardize_loop(t, xy), standardize_fields(*fields, xy))
            assert same_bits(invert_standardize(t, xy), invert_standardize_fields(*fields, xy))
