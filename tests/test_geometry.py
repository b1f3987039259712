import numpy as np
import pytest

from loop2mesh.errors import (
    DegenerateDataError,
    FrameMismatchError,
    InvalidGeometryError,
    InvalidInputError,
)
from loop2mesh.geometry import (
    AirfoilLoop,
    Frame,
    PointSet,
    _is_simple,
    apply_standardize,
    clamp_points,
    fit_standardize,
    invert_standardize,
    nearest_edge,
    point_in_polygon,
    points_in_polygon,
    resample_loop,
    standardize_loop,
)

from oracles import is_simple_double_loop, winding_inside


# ------------------------------------------------------------- primitives

class TestPointSet:
    def test_copies_and_freezes_input(self):
        src = np.zeros((3, 2))
        ps = PointSet(src)
        src[0, 0] = 99.0
        assert ps.xy[0, 0] == 0.0
        with pytest.raises(ValueError):
            ps.xy[0, 0] = 1.0

    def test_rejects_empty_and_bad_shapes(self):
        with pytest.raises(InvalidInputError):
            PointSet(np.zeros((0, 2)))
        with pytest.raises(InvalidInputError):
            PointSet(np.zeros((4, 3)))
        with pytest.raises(InvalidInputError):
            PointSet([[0.0, np.nan]])

    def test_default_frame_and_len(self):
        ps = PointSet([[1.0, 2.0], [3.0, 4.0]])
        assert ps.frame is Frame.ORIGINAL
        assert len(ps) == 2


class TestAirfoilLoop:
    def test_requires_three_vertices(self):
        with pytest.raises(InvalidGeometryError):
            AirfoilLoop([[0.0, 0.0], [1.0, 0.0]])

    def test_rejects_repeated_consecutive_vertices(self):
        with pytest.raises(InvalidGeometryError):
            AirfoilLoop([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def test_rejects_collinear_zero_area(self):
        with pytest.raises(InvalidGeometryError):
            AirfoilLoop([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])

    def test_rejects_self_intersection(self):
        bowtie = [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(InvalidGeometryError):
            AirfoilLoop(bowtie)

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

    def test_signed_area_and_perimeter_unit_square(self, unit_square):
        assert unit_square.signed_area == pytest.approx(1.0)
        assert unit_square.perimeter == pytest.approx(4.0)

    def test_orientation_flips_signed_area(self, unit_square):
        rev = AirfoilLoop(unit_square.vertices[::-1])
        assert rev.signed_area == pytest.approx(-1.0)


# ------------------------------------------------------------ containment

class TestContainment:
    def test_interior_point_of_unit_square(self, unit_square):
        assert point_in_polygon((0.5, 0.5), unit_square)

    def test_edge_point_counts_as_outside(self, unit_square):
        assert not point_in_polygon((0.5, 0.0), unit_square)
        assert not point_in_polygon((1.0, 0.5), unit_square)

    def test_vertex_counts_as_outside(self, unit_square):
        assert not point_in_polygon((0.0, 0.0), unit_square)

    def test_clearly_outside(self, unit_square):
        assert not point_in_polygon((-0.1, 0.5), unit_square)
        assert not point_in_polygon((0.5, 1.2), unit_square)

    def test_concave_polygon_notch(self):
        # U-shape: the notch between the prongs is outside
        u = AirfoilLoop([[0, 0], [3, 0], [3, 3], [2, 3], [2, 1], [1, 1], [1, 3], [0, 3]])
        assert point_in_polygon((0.5, 2.0), u)
        assert point_in_polygon((2.5, 2.0), u)
        assert not point_in_polygon((1.5, 2.0), u)  # inside the notch
        assert point_in_polygon((1.5, 0.5), u)      # in the base

    def test_horizontal_edge_scanline_robust(self):
        # points level with a horizontal edge must classify correctly
        tri = AirfoilLoop([[0.0, 0.0], [4.0, 0.0], [2.0, 2.0]])
        assert point_in_polygon((2.0, 0.5), tri)
        assert not point_in_polygon((5.0, 0.0), tri)
        assert not point_in_polygon((-1.0, 0.0), tri)

    def test_matches_winding_oracle_on_random_star_polygons(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            k = int(rng.integers(5, 12))
            # stratified angles keep every gap below pi, so a polygon that is
            # star-shaped about the origin stays simple
            angles = (np.arange(k) + rng.uniform(0.15, 0.85, size=k)) * (2 * np.pi / k)
            radii = rng.uniform(0.5, 2.0, size=k)
            verts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
            loop = AirfoilLoop(verts)
            pts = rng.uniform(-2.5, 2.5, size=(200, 2))
            dist, _ = nearest_edge(pts, loop)
            clear = dist > 1e-9  # winding sum is ill-defined on the boundary
            got = points_in_polygon(pts, loop)
            want = np.array([winding_inside(x, y, verts) for x, y in pts])
            assert np.array_equal(got[clear], want[clear])

    def test_accepts_precomputed_edge_distances(self, unit_square):
        pts = np.array([[0.5, 0.5], [2.0, 0.5]])
        dist, _ = nearest_edge(pts, unit_square)
        direct = points_in_polygon(pts, unit_square)
        cached = points_in_polygon(pts, unit_square, edge_distances=dist)
        assert np.array_equal(direct, cached)
        assert direct.tolist() == [True, False]


class TestNearestEdge:
    def test_interior_distances_unit_square(self, unit_square):
        pts = np.array([[0.5, 0.5], [0.25, 0.5], [0.5, 0.1]])
        dist, closest = nearest_edge(pts, unit_square)
        assert dist == pytest.approx([0.5, 0.25, 0.1])
        assert closest[1] == pytest.approx([0.0, 0.5])
        assert closest[2] == pytest.approx([0.5, 0.0])

    def test_exterior_point_projects_onto_edge(self, unit_square):
        dist, closest = nearest_edge(np.array([[2.0, 0.5]]), unit_square)
        assert dist[0] == pytest.approx(1.0)
        assert closest[0] == pytest.approx([1.0, 0.5])

    def test_exterior_point_near_corner_projects_onto_vertex(self, unit_square):
        dist, closest = nearest_edge(np.array([[-3.0, -4.0]]), unit_square)
        assert dist[0] == pytest.approx(5.0)
        assert closest[0] == pytest.approx([0.0, 0.0])

    def test_tie_resolves_to_lowest_edge_index(self, unit_square):
        # center is equidistant from all four edges; edge 0 is the bottom
        _, closest = nearest_edge(np.array([[0.5, 0.5]]), unit_square)
        assert closest[0] == pytest.approx([0.5, 0.0])

    def test_on_edge_distance_is_zero(self, unit_square):
        dist, _ = nearest_edge(np.array([[0.5, 0.0]]), unit_square)
        assert dist[0] == 0.0


# ------------------------------------------------------------- resampling

class TestResampleLoop:
    def test_square_resampled_to_own_vertices(self):
        sq = PointSet([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        loop = resample_loop(sq, 4)
        assert loop.vertices == pytest.approx(sq.xy)

    def test_square_to_eight_hits_edge_midpoints(self):
        sq = PointSet([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        loop = resample_loop(sq, 8)
        expect = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 0.5],
                           [1.0, 1.0], [0.5, 1.0], [0.0, 1.0], [0.0, 0.5]])
        assert loop.vertices == pytest.approx(expect)

    def test_vertex_count_and_first_vertex(self, contour_2220):
        loop = resample_loop(PointSet(contour_2220), 35)
        assert len(loop) == 35
        assert loop.vertices[0] == pytest.approx(contour_2220[0])

    def test_spacing_is_uniform_along_arc(self, contour_2220):
        loop = resample_loop(PointSet(contour_2220), 50)
        closed = np.vstack([loop.vertices, loop.vertices[:1]])
        steps = np.hypot(*np.diff(closed, axis=0).T)
        # straight-line steps between consecutive samples may cut corners,
        # so they can only be <= the uniform arc spacing, and mostly equal
        assert steps.max() <= steps.mean() * 1.5
        assert np.median(steps) == pytest.approx(steps.max(), rel=0.05)

    def test_closing_duplicate_and_repeats_are_dropped(self):
        sq = PointSet([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                       [0.0, 1.0], [0.0, 0.0]])
        loop = resample_loop(sq, 4)
        assert loop.vertices == pytest.approx(
            np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))

    def test_orientation_preserved(self, contour_2220):
        fwd = resample_loop(PointSet(contour_2220), 35)
        rev = resample_loop(PointSet(contour_2220[::-1]), 35)
        assert np.sign(fwd.signed_area) == -np.sign(rev.signed_area)

    def test_frame_carried_through(self, contour_2220):
        ps = PointSet(contour_2220, Frame.STANDARDISED)
        assert resample_loop(ps, 35).frame is Frame.STANDARDISED

    def test_rejects_tiny_targets_and_degenerate_input(self):
        sq = PointSet([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(InvalidGeometryError):
            resample_loop(sq, 2)
        with pytest.raises(InvalidGeometryError):
            resample_loop(PointSet([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), 4)


# --------------------------------------------------------- standardisation

class TestStandardize:
    def test_population_sigma_two_points(self):
        ps = PointSet([[0.0, 10.0], [2.0, 14.0]])
        t = fit_standardize(ps)
        assert t.mean_x == pytest.approx(1.0)
        assert t.mean_y == pytest.approx(12.0)
        assert t.scale_x == pytest.approx(1.0)  # population sigma, not sample
        assert t.scale_y == pytest.approx(2.0)

    def test_apply_gives_zero_mean_unit_variance(self):
        rng = np.random.default_rng(3)
        ps = PointSet(rng.normal(size=(500, 2)) * [2.0, 0.3] + [5.0, -1.0])
        out = apply_standardize(fit_standardize(ps), ps)
        assert out.frame is Frame.STANDARDISED
        assert out.xy.mean(axis=0) == pytest.approx([0.0, 0.0], abs=1e-12)
        assert out.xy.std(axis=0) == pytest.approx([1.0, 1.0], rel=1e-12)

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(4)
        ps = PointSet(rng.uniform(-3, 3, size=(50, 2)))
        t = fit_standardize(ps)
        back = invert_standardize(t, apply_standardize(t, ps))
        assert back.frame is Frame.ORIGINAL
        assert back.xy == pytest.approx(ps.xy, abs=1e-12)

    def test_frame_mismatch_raises(self):
        ps = PointSet([[0.0, 0.0], [1.0, 1.0]])
        t = fit_standardize(ps)
        std = apply_standardize(t, ps)
        with pytest.raises(FrameMismatchError):
            apply_standardize(t, std)
        with pytest.raises(FrameMismatchError):
            invert_standardize(t, ps)

    def test_zero_variance_axis_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_standardize(PointSet([[0.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(DegenerateDataError):
            fit_standardize(PointSet([[2.0, 3.0]]))

    def test_loop_standardisation_preserves_containment(self, airfoil_loop, dataset):
        t = fit_standardize(dataset.samples[0].target)
        std_loop = standardize_loop(t, airfoil_loop)
        rng = np.random.default_rng(9)
        pts = rng.uniform([-0.2, -0.3], [1.2, 0.3], size=(300, 2))
        before = points_in_polygon(pts, airfoil_loop)
        after = points_in_polygon((pts - [t.mean_x, t.mean_y]) / [t.scale_x, t.scale_y],
                                  std_loop)
        assert np.array_equal(before, after)

    def test_transform_dict_round_trip(self):
        from loop2mesh.geometry import StandardizeTransform
        t = StandardizeTransform(0.5, -0.1, 0.3, 0.12)
        assert StandardizeTransform.from_dict(t.to_dict()) == t
        with pytest.raises(InvalidInputError):
            StandardizeTransform(0.0, 0.0, 0.0, 1.0)


class TestClampPoints:
    def test_clamps_only_requested_axis(self):
        ps = PointSet([[5.0, 5.0], [-5.0, -5.0], [0.2, 0.3]])
        out = clamp_points(ps, y_range=(-1.0, 1.0))
        assert out.xy[:, 0] == pytest.approx([5.0, -5.0, 0.2])  # x untouched
        assert out.xy[:, 1] == pytest.approx([1.0, -1.0, 0.3])

    def test_idempotent_and_frame_preserving(self):
        ps = PointSet([[2.0, -3.0]], Frame.STANDARDISED)
        once = clamp_points(ps, x_range=(0.0, 1.0), y_range=(-1.0, 1.0))
        twice = clamp_points(once, x_range=(0.0, 1.0), y_range=(-1.0, 1.0))
        assert once.frame is Frame.STANDARDISED
        assert np.array_equal(once.xy, twice.xy)
        assert once.xy[0] == pytest.approx([1.0, -1.0])

    def test_empty_range_rejected(self):
        ps = PointSet([[0.0, 0.0]])
        with pytest.raises(InvalidInputError):
            clamp_points(ps, y_range=(1.0, -1.0))
