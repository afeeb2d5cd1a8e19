import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from pointset_anchors.anchors import sample_box_perimeters
from pointset_anchors.errors import JointCountMismatchError, PointSetError
from pointset_anchors.geometry import Box, Contour
from pointset_anchors.matching import (
    CORNER_PROJECTION,
    NEAREST_LINE,
    NEAREST_POINT,
    STRATEGIES,
    match,
    match_corner_projection,
    match_nearest_line,
    match_nearest_point,
    match_points,
    match_pose,
)
from pointset_anchors.synthetic import random_convex_polygon, random_star_polygon

from oracles import brute_corner_projection, brute_nearest_line, brute_nearest_point
from util import anchor_from_box, random_box, random_polygon


DIAMOND = Contour([(2.0, 0.0), (4.0, 2.0), (2.0, 4.0), (0.0, 2.0)])
UNIT_SQUARE_4 = Contour([(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)])
# Its second and third vertices lie about 1e-170 right of x = 0, so the
# distances of a vertical cast line at x = 0 to that edge's ends multiply to
# 0 in floating point although the edge stays on one side.
SUBNORMAL_EDGE = Contour([(-2.0, -2.0), (1e-170, -2.4), (3e-170, -3.6),
                          (2.0, -2.0), (2.0, 2.0), (-2.0, 2.0)])
# Tie cases for the top-side point (0, -2) of the box (-2, -2, 2, 2) at n = 8,
# whose cast line is x = 0, with its exact target. The first two hold an
# edge lying on the line with a -0.0 end: the far end (-0.0, -1) ties with the
# next edge's crossing (0.0, -1) and comes first in traversal order; the near
# end (-0.0, -1.5) is nearest outright. In the third, the crossing of the top
# part's last edge at its end vertex (0, -2.1) rounds to y = -2.1000000000000014;
# the bottom part is longer, so the top part is padded by repeating that
# vertex, and the padding must offer no candidate.
TIE_CASES = [
    (Contour([(-2.0, -2.0), (0.0, -5.0), (-0.0, -1.0), (-1.0, -1.0), (1.0, -5.0),
              (2.0, -2.0), (2.0, 2.0), (-2.0, 2.0)]), (-0.0, -1.0)),
    (Contour([(-0.0, -1.5), (0.0, -5.0), (2.0, -2.0), (2.0, 2.0), (-2.0, 2.0)]), (-0.0, -1.5)),
    (Contour([(-2.0, -2.0), (-1.0, -23.62), (0.0, -2.1), (2.0, 2.0), (1.0, 2.5),
              (0.0, 2.5), (-1.0, 2.5), (-2.0, 2.0)]), (0.0, -2.1000000000000014)),
]
BOX_8 = np.array([[-2.0, -2.0, 2.0, 2.0]])


@st.composite
def _batch_cases(draw):
    """(contour vertices, anchor boxes, n): one contour and 1-6 anchors.

    Convex or star polygons of 3-30 vertices; few vertices give parts of a
    single vertex. With ``snap``, vertices and box corners are rounded to a
    grid and box sides span whole multiples of snap * n/4, so cast lines run
    through vertices and along axis-aligned edges, and distances tie. Shapes
    near the origin round some coordinates to -0.0.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.sampled_from([4, 8, 16, 36]))
    snap = draw(st.sampled_from([0.0, 1.0, 2.0, 4.0]))
    polygon = random_convex_polygon if draw(st.booleans()) else random_star_polygon
    center = rng.uniform(-5.0, 40.0, 2)
    verts = polygon(rng, draw(st.integers(3, 30)), center, rng.uniform(3.0, 25.0, 2))
    count = draw(st.integers(1, 6))
    corner = center - rng.uniform(0.0, 30.0, (count, 2))
    size = rng.uniform(1.0, 60.0, (count, 2))
    if snap:
        verts = np.round(verts / snap) * snap
        corner = np.round(corner / snap) * snap
        size = np.maximum(np.round(size / (snap * n // 4)), 1.0) * (snap * n // 4)
    try:
        contour = Contour(verts)
    except PointSetError:
        assume(False)
    return contour.vertices, np.column_stack([corner, corner + size]), n


class TestNearestPoint:
    def test_snaps_to_vertices_with_lowest_index_ties(self):
        anchor = anchor_from_box(Box(0.0, 0.0, 4.0, 4.0), 8)
        result = match_nearest_point(anchor, UNIT_SQUARE_4)
        # midpoint (2, 0) is L1-equidistant from (0,0) and (4,0); the lower
        # vertex index wins
        assert tuple(result.targets[1]) == (0.0, 0.0)
        assert result.valid.all()
        assert result.offsets[1].tolist() == [-2.0, 0.0]

    def test_agrees_with_brute_force(self, rng):
        for trial in range(30):
            n_vertices = int(rng.integers(3, 41))
            contour = random_polygon(rng, n_vertices, convex=bool(trial % 2))
            anchor = anchor_from_box(random_box(rng), 16)
            result = match_nearest_point(anchor, contour)
            idx, targets = brute_nearest_point(anchor.points, contour.vertices)
            assert np.array_equal(result.targets, targets)
            assert np.array_equal(result.targets, contour.vertices[idx])
            assert result.valid.all()


class TestNearestLine:
    def test_projection_reference(self):
        result = match_nearest_line(np.array([(5.0, 1.0)]), UNIT_SQUARE_4)
        assert tuple(result.targets[0]) == (4.0, 1.0)

    def test_targets_lie_no_farther_than_vertices(self, rng):
        contour = random_polygon(rng, 9, convex=False)
        anchor = anchor_from_box(random_box(rng), 24)
        line = match_nearest_line(anchor, contour)
        point = match_nearest_point(anchor, contour)
        d_line = np.linalg.norm(line.targets - anchor.points, axis=1)
        d_point = np.linalg.norm(point.targets - anchor.points, axis=1)
        assert (d_line <= d_point + 1e-9).all()

    def test_agrees_with_brute_force(self, rng):
        for trial in range(30):
            n_vertices = int(rng.integers(3, 41))
            contour = random_polygon(rng, n_vertices, convex=bool(trial % 2))
            anchor = anchor_from_box(random_box(rng), 16)
            result = match_nearest_line(anchor, contour)
            _, targets = brute_nearest_line(anchor.points, contour.vertices)
            assert np.array_equal(result.targets, targets)
            assert result.valid.all()


class TestCornerProjection:
    def test_diamond_reference_targets(self):
        anchor = anchor_from_box(Box(0.0, 0.0, 4.0, 4.0), 8)
        result = match_corner_projection(anchor, DIAMOND)
        expected = [
            (2.0, 0.0), (2.0, 0.0), (2.0, 0.0), (4.0, 2.0),
            (4.0, 2.0), (2.0, 4.0), (2.0, 4.0), (0.0, 2.0),
        ]
        assert result.valid.all()
        assert np.array_equal(result.targets, np.asarray(expected))

    def test_single_vertex_part_validity(self):
        # with n = 16 both top corners match the diamond vertex (2, 0); the
        # degenerate top part accepts only the cast line through x == 2
        anchor = anchor_from_box(Box(0.0, 0.0, 4.0, 4.0), 16)
        result = match_corner_projection(anchor, DIAMOND)
        top = result.valid[1:4]
        assert top.tolist() == [False, True, False]
        assert tuple(result.targets[2]) == (2.0, 0.0)
        # invalid rows carry zeros
        assert result.targets[1].tolist() == [0.0, 0.0]
        assert result.offsets[1].tolist() == [0.0, 0.0]

    def test_corners_always_valid(self, rng):
        for trial in range(20):
            contour = random_polygon(rng, int(rng.integers(3, 30)), convex=bool(trial % 2))
            anchor = anchor_from_box(random_box(rng), 36)
            result = match_corner_projection(anchor, contour)
            assert result.valid[list(anchor.corner_indices)].all()

    def test_projection_pins_cast_coordinate(self, rng):
        # a valid non-corner target shares the cast-line coordinate with its
        # anchor point: x on top/bottom sides, y on right/left
        contour = random_polygon(rng, 14, convex=True)
        anchor = anchor_from_box(random_box(rng), 36)
        result = match_corner_projection(anchor, contour)
        n = anchor.num_points
        side_of = np.zeros(n, dtype=int)
        ci = anchor.corner_indices
        for side in range(4):
            first = ci[side]
            last = ci[side + 1] if side < 3 else n
            side_of[first:last] = side
        for i in range(n):
            if i in ci or not result.valid[i]:
                continue
            axis = 0 if side_of[i] % 2 == 0 else 1
            assert result.targets[i][axis] == anchor.points[i][axis]

    def test_requires_mask_anchor(self):
        with pytest.raises(PointSetError):
            match_corner_projection(np.zeros((8, 2)), DIAMOND)

    def test_crossing_decided_by_signs(self):
        # the top side's cast line x = 0 misses the edge (1e-170, -2.4) ->
        # (3e-170, -3.6) and meets the edge before it at (0, -2.4); taking
        # the missed edge as crossed extrapolates it to (0, -1.8)
        anchor = anchor_from_box(Box(-2.0, -2.0, 2.0, 2.0), 8)
        result = match_corner_projection(anchor, SUBNORMAL_EDGE)
        assert result.valid[1]
        assert result.targets[1].tolist() == [0.0, -2.4]
        targets, valid = brute_corner_projection(anchor.points, anchor.corner_indices,
                                                 SUBNORMAL_EDGE.vertices)
        assert targets.tobytes() == result.targets.tobytes()
        assert valid.tolist() == result.valid.tolist()

    @pytest.mark.parametrize("contour,expected", TIE_CASES)
    def test_tie_rules(self, contour, expected):
        points, corners = sample_box_perimeters(BOX_8, 8)
        targets, valid = match_points(points, corners, contour.vertices, CORNER_PROJECTION)
        assert valid[0, 1]
        assert targets[0, 1].tobytes() == np.array(expected).tobytes()
        oracle, _ = brute_corner_projection(points[0], corners, contour.vertices)
        assert oracle[1].tobytes() == np.array(expected).tobytes()


class TestBatchedMatching:
    """A batch of anchors against one contour equals one oracle call per anchor."""

    @given(case=_batch_cases())
    @example(case=(SUBNORMAL_EDGE.vertices, BOX_8, 8))
    @example(case=(TIE_CASES[0][0].vertices, BOX_8, 8))
    @example(case=(TIE_CASES[1][0].vertices, BOX_8, 8))
    @example(case=(TIE_CASES[2][0].vertices, BOX_8, 8))
    def test_corner_projection_matches_oracle(self, case):
        verts, boxes, n = case
        points, corners = sample_box_perimeters(boxes, n)
        targets, valid = match_points(points, corners, verts, CORNER_PROJECTION)
        for a in range(len(points)):
            expected, expected_valid = brute_corner_projection(points[a], corners, verts)
            assert targets[a].tobytes() == expected.tobytes()    # -0.0 included
            assert valid[a].tolist() == expected_valid.tolist()

    @given(case=_batch_cases())
    def test_nearest_strategies_match_oracles(self, case):
        verts, boxes, n = case
        points, corners = sample_box_perimeters(boxes, n)
        for strategy, oracle in ((NEAREST_POINT, brute_nearest_point),
                                 (NEAREST_LINE, brute_nearest_line)):
            targets, valid = match_points(points, corners, verts, strategy)
            assert valid.all()
            for a in range(len(points)):
                assert targets[a].tobytes() == oracle(points[a], verts)[1].tobytes()

    def test_single_anchor_entry_points_are_batches_of_one(self, rng):
        contour = random_polygon(rng, 17, convex=False)
        boxes = np.stack([random_box(rng).as_array() for _ in range(5)])
        points, corners = sample_box_perimeters(boxes, 36)
        for strategy in STRATEGIES:
            targets, valid = match_points(points, corners, contour.vertices, strategy)
            for a, box in enumerate(boxes):
                result = match(anchor_from_box(Box(*box), 36), contour, strategy)
                assert result.targets.tobytes() == targets[a].tobytes()
                assert result.valid.tolist() == valid[a].tolist()

    def test_corner_indices_must_increase(self):
        points, _ = sample_box_perimeters(np.array([[0.0, 0.0, 4.0, 4.0]]), 8)
        with pytest.raises(PointSetError):
            match_points(points, (0, 4, 2, 6), DIAMOND.vertices, CORNER_PROJECTION)


class TestIdempotence:
    def test_anchor_perimeter_contour_gives_zero_offsets(self):
        anchor = anchor_from_box(Box(10.0, 20.0, 50.0, 44.0), 16)
        contour = Contour(anchor.points)
        for strategy in STRATEGIES:
            result = match(anchor, contour, strategy)
            assert result.valid.all(), strategy
            assert np.abs(result.offsets).max() == 0.0, strategy

    def test_four_vertex_contour_breaks_nearest_point_only(self):
        # the box's own 4 corners are a different contour than the n sampled
        # perimeter points: nearest-point snaps midpoints to corners
        box = Box(0.0, 0.0, 4.0, 4.0)
        anchor = anchor_from_box(box, 8)
        result = match_nearest_point(anchor, UNIT_SQUARE_4)
        assert np.abs(result.offsets).max() == 2.0
        for strategy in (NEAREST_LINE, CORNER_PROJECTION):
            result = match(anchor, UNIT_SQUARE_4, strategy)
            assert np.abs(result.offsets).max() == 0.0, strategy


class TestDispatch:
    def test_strategy_tags(self):
        anchor = anchor_from_box(Box(0.0, 0.0, 4.0, 4.0), 8)
        for strategy in STRATEGIES:
            assert match(anchor, DIAMOND, strategy).strategy == strategy

    def test_unknown_strategy(self):
        anchor = anchor_from_box(Box(0.0, 0.0, 4.0, 4.0), 8)
        with pytest.raises(PointSetError):
            match(anchor, DIAMOND, "closest")


class TestMatchPose:
    def test_visibility_becomes_validity(self):
        anchor_joints = np.zeros((17, 2))
        gt = np.arange(34, dtype=float).reshape(17, 2)
        visibility = np.zeros(17, dtype=int)
        visibility[[0, 4, 16]] = 2
        result = match_pose(anchor_joints, gt, visibility)
        assert result.valid.sum() == 3
        assert np.array_equal(result.targets[0], gt[0])
        assert result.targets[1].tolist() == [0.0, 0.0]
        assert np.array_equal(result.offsets[4], gt[4])

    def test_shape_validation(self):
        with pytest.raises(JointCountMismatchError):
            match_pose(np.zeros((5, 2)), np.zeros((17, 2)), np.zeros(17))
        with pytest.raises(JointCountMismatchError):
            match_pose(np.zeros((17, 2)), np.zeros((17, 2)), np.zeros(5))

