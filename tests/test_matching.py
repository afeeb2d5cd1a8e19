from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from pointset_anchors.anchors import sample_box_perimeters
from pointset_anchors.errors import PointSetError
from pointset_anchors.geometry import Box, Contour
from pointset_anchors import matching
from pointset_anchors.matching import (
    CORNER_PROJECTION,
    NEAREST_LINE,
    NEAREST_POINT,
    STRATEGIES,
    match_points,
    match_pose_points,
    point_offsets,
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


def _match_one(points, corners, contour, strategy):
    """(targets, valid, offsets) of one anchor's (n, 2) points, matched as a batch of one."""
    targets, valid = match_points(points[None], corners, contour.vertices, strategy)
    return targets[0], valid[0], point_offsets(points, targets[0], valid[0])


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


@st.composite
def _ragged_cases(draw):
    """(contours' vertices, anchor boxes, each anchor's contour index, n).

    1-4 of ``_batch_cases``' contours, of different vertex counts, with all
    their anchors; each anchor is matched to a contour drawn at random.
    """
    cases = draw(st.lists(_batch_cases(), min_size=1, max_size=4,
                          unique_by=lambda case: len(case[0])))
    boxes = np.concatenate([boxes for _, boxes, _ in cases])
    owner = draw(st.lists(st.integers(0, len(cases) - 1), min_size=len(boxes),
                          max_size=len(boxes)))
    return [verts for verts, _, _ in cases], boxes, np.array(owner), cases[0][2]


class TestNearestPoint:
    def test_snaps_to_vertices_with_lowest_index_ties(self):
        points, corners = anchor_from_box(Box(0.0, 0.0, 4.0, 4.0), 8)
        targets, valid, offsets = _match_one(points, corners, UNIT_SQUARE_4, NEAREST_POINT)
        # midpoint (2, 0) is L1-equidistant from (0,0) and (4,0); the lower
        # vertex index wins
        assert tuple(targets[1]) == (0.0, 0.0)
        assert valid.all()
        assert offsets[1].tolist() == [-2.0, 0.0]

    def test_agrees_with_brute_force(self, rng):
        for trial in range(30):
            n_vertices = int(rng.integers(3, 41))
            contour = random_polygon(rng, n_vertices, convex=bool(trial % 2))
            points, corners = anchor_from_box(random_box(rng), 16)
            targets, valid, _ = _match_one(points, corners, contour, NEAREST_POINT)
            idx, expected = brute_nearest_point(points, contour.vertices)
            assert np.array_equal(targets, expected)
            assert np.array_equal(targets, contour.vertices[idx])
            assert valid.all()


class TestNearestLine:
    def test_projection_reference(self):
        targets, _, _ = _match_one(np.array([(5.0, 1.0)]), None, UNIT_SQUARE_4, NEAREST_LINE)
        assert tuple(targets[0]) == (4.0, 1.0)

    def test_targets_lie_no_farther_than_vertices(self, rng):
        contour = random_polygon(rng, 9, convex=False)
        points, corners = anchor_from_box(random_box(rng), 24)
        line, _, _ = _match_one(points, corners, contour, NEAREST_LINE)
        point, _, _ = _match_one(points, corners, contour, NEAREST_POINT)
        d_line = np.linalg.norm(line - points, axis=1)
        d_point = np.linalg.norm(point - points, axis=1)
        assert (d_line <= d_point + 1e-9).all()

    def test_agrees_with_brute_force(self, rng):
        for trial in range(30):
            n_vertices = int(rng.integers(3, 41))
            contour = random_polygon(rng, n_vertices, convex=bool(trial % 2))
            points, corners = anchor_from_box(random_box(rng), 16)
            targets, valid, _ = _match_one(points, corners, contour, NEAREST_LINE)
            _, expected = brute_nearest_line(points, contour.vertices)
            assert np.array_equal(targets, expected)
            assert valid.all()


class TestCornerProjection:
    def test_diamond_reference_targets(self):
        points, corners = anchor_from_box(Box(0.0, 0.0, 4.0, 4.0), 8)
        targets, valid, _ = _match_one(points, corners, DIAMOND, CORNER_PROJECTION)
        expected = [
            (2.0, 0.0), (2.0, 0.0), (2.0, 0.0), (4.0, 2.0),
            (4.0, 2.0), (2.0, 4.0), (2.0, 4.0), (0.0, 2.0),
        ]
        assert valid.all()
        assert np.array_equal(targets, np.asarray(expected))

    def test_single_vertex_part_validity(self):
        # with n = 16 both top corners match the diamond vertex (2, 0); the
        # degenerate top part accepts only the cast line through x == 2
        points, corners = anchor_from_box(Box(0.0, 0.0, 4.0, 4.0), 16)
        targets, valid, offsets = _match_one(points, corners, DIAMOND, CORNER_PROJECTION)
        top = valid[1:4]
        assert top.tolist() == [False, True, False]
        assert tuple(targets[2]) == (2.0, 0.0)
        # invalid rows carry zeros
        assert targets[1].tolist() == [0.0, 0.0]
        assert offsets[1].tolist() == [0.0, 0.0]

    def test_corners_always_valid(self, rng):
        for trial in range(20):
            contour = random_polygon(rng, int(rng.integers(3, 30)), convex=bool(trial % 2))
            points, corners = anchor_from_box(random_box(rng), 36)
            _, valid, _ = _match_one(points, corners, contour, CORNER_PROJECTION)
            assert valid[list(corners)].all()

    def test_projection_pins_cast_coordinate(self, rng):
        # a valid non-corner target shares the cast-line coordinate with its
        # anchor point: x on top/bottom sides, y on right/left
        contour = random_polygon(rng, 14, convex=True)
        points, ci = anchor_from_box(random_box(rng), 36)
        targets, valid, _ = _match_one(points, ci, contour, CORNER_PROJECTION)
        n = len(points)
        side_of = np.zeros(n, dtype=int)
        for side in range(4):
            first = ci[side]
            last = ci[side + 1] if side < 3 else n
            side_of[first:last] = side
        for i in range(n):
            if i in ci or not valid[i]:
                continue
            axis = 0 if side_of[i] % 2 == 0 else 1
            assert targets[i][axis] == points[i][axis]

    def test_requires_mask_anchor(self):
        # a mask anchor's four corner indices; None is not iterable in the kernel
        with pytest.raises(PointSetError, match="4 corner indices"):
            match_points(np.zeros((1, 8, 2)), None, DIAMOND.vertices, CORNER_PROJECTION)
        with pytest.raises(PointSetError, match="4 corner indices"):
            match_points(np.zeros((1, 8, 2)), (0, 2, 4), DIAMOND.vertices, CORNER_PROJECTION)

    def test_crossing_decided_by_signs(self):
        # the top side's cast line x = 0 misses the edge (1e-170, -2.4) ->
        # (3e-170, -3.6) and meets the edge before it at (0, -2.4); taking
        # the missed edge as crossed extrapolates it to (0, -1.8)
        points, corners = anchor_from_box(Box(-2.0, -2.0, 2.0, 2.0), 8)
        targets, valid, _ = _match_one(points, corners, SUBNORMAL_EDGE, CORNER_PROJECTION)
        assert valid[1]
        assert targets[1].tolist() == [0.0, -2.4]
        expected, expected_valid = brute_corner_projection(points, corners,
                                                           SUBNORMAL_EDGE.vertices)
        assert expected.tobytes() == targets.tobytes()
        assert expected_valid.tolist() == valid.tolist()

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
        # each batch row equals the match of its one-row slice, bit for bit
        contour = random_polygon(rng, 17, convex=False)
        boxes = np.stack([random_box(rng).as_array() for _ in range(5)])
        points, corners = sample_box_perimeters(boxes, 36)
        for strategy in STRATEGIES:
            targets, valid = match_points(points, corners, contour.vertices, strategy)
            for a in range(len(boxes)):
                one, one_valid = match_points(points[a:a + 1], corners, contour.vertices, strategy)
                assert one.tobytes() == targets[a:a + 1].tobytes()
                assert one_valid.tolist() == valid[a:a + 1].tolist()

    def test_corner_indices_must_increase(self):
        points, _ = sample_box_perimeters(np.array([[0.0, 0.0, 4.0, 4.0]]), 8)
        with pytest.raises(PointSetError):
            match_points(points, (0, 4, 2, 6), DIAMOND.vertices, CORNER_PROJECTION)

    def test_points_must_be_a_batch(self):
        # one anchor's (n, 2) points, unbatched, name the shape they lack
        points, corners = anchor_from_box(Box(0.0, 0.0, 4.0, 4.0), 8)
        for strategy in STRATEGIES:
            with pytest.raises(PointSetError, match=r"\(P, n, 2\)"):
                match_points(points, corners, DIAMOND.vertices, strategy)
            with pytest.raises(PointSetError, match=r"\(P, n, 2\)"):
                match_points(np.zeros((1, 8, 3)), corners, DIAMOND.vertices, strategy)


class TestRaggedMatching:
    """Anchors matched to their own contours, of different sizes, in one call."""

    @pytest.mark.parametrize("bound", [matching.BATCH_ELEMENTS, 1], ids=["default", "one-anchor"])
    @given(case=_ragged_cases())
    def test_rows_equal_one_contour_matches(self, bound, case):
        # padding vertices and segments never win, and no NaN is made on a
        # path that reaches the output
        contours, boxes, owner, n = case
        points, corners = sample_box_perimeters(boxes, n)
        for strategy in STRATEGIES:
            with mock.patch.object(matching, "BATCH_ELEMENTS", bound), \
                    np.errstate(invalid="raise"):
                targets, valid = match_points(points, corners, contours, strategy, owner)
            for a, c in enumerate(owner):
                one, one_valid = match_points(points[a:a + 1], corners, contours[c], strategy)
                assert targets[a:a + 1].tobytes() == one.tobytes()
                assert valid[a:a + 1].tolist() == one_valid.tolist()

    def test_kernel_calls_stay_within_the_bound(self, rng, monkeypatch):
        # each call's working set, recounted from its arguments, is at most
        # BATCH_ELEMENTS unless the call holds a single anchor
        calls = []

        def checked(kernel, elements):
            def call(points, *args):
                calls.append((len(points), elements(points, *args)))
                return kernel(points, *args)
            return call

        def nearest(points, verts, *_):
            return 4 * points.shape[0] * points.shape[1] * verts.shape[1]

        def corner(points, corner_indices, verts, sizes, corner_vertex, span):
            # the parts' segment counts, recounted
            spans = (np.roll(corner_vertex, -1, axis=1) - corner_vertex) % sizes[:, None]
            assert spans.tolist() == span.tolist()
            return len(points) * max(points.shape[1] - 4, 4) * (max(spans.max(), 1) + 1)

        monkeypatch.setattr(matching, "_nearest_vertex", checked(matching._nearest_vertex, nearest))
        monkeypatch.setattr(matching, "_corner_projection",
                            checked(matching._corner_projection, corner))
        for kernel in ("_nearest_point", "_nearest_line"):
            monkeypatch.setattr(matching, kernel, checked(getattr(matching, kernel), nearest))
        contours = [random_polygon(rng, m, convex=bool(m % 2)).vertices for m in (5, 60, 17, 33)]
        boxes = np.stack([random_box(rng).as_array() for _ in range(200)])
        points, corners = sample_box_perimeters(boxes, 36)
        owner = rng.integers(0, 4, len(boxes))
        # bounds that do not divide the working sets evenly, so that an
        # undercounted one shows
        for bound in range(2 ** 15, 2 ** 16, 2749):
            monkeypatch.setattr(matching, "BATCH_ELEMENTS", bound)
            calls.clear()
            for strategy in STRATEGIES:
                match_points(points, corners, contours, strategy, owner)
            assert all(count == 1 or elements <= bound for count, elements in calls)
            assert max(count for count, _ in calls) > 1

    def test_contour_indices_name_a_contour(self):
        points, corners = sample_box_perimeters(BOX_8, 8)
        for contour in ([1], [-1], [0.0], [0, 0]):
            with pytest.raises(PointSetError, match="contour indices"):
                match_points(points, corners, [DIAMOND.vertices], NEAREST_POINT, contour)


class TestIdempotence:
    def test_anchor_perimeter_contour_gives_zero_offsets(self):
        points, corners = anchor_from_box(Box(10.0, 20.0, 50.0, 44.0), 16)
        contour = Contour(points)
        for strategy in STRATEGIES:
            _, valid, offsets = _match_one(points, corners, contour, strategy)
            assert valid.all(), strategy
            assert np.abs(offsets).max() == 0.0, strategy

    def test_four_vertex_contour_breaks_nearest_point_only(self):
        # the box's own 4 corners are a different contour than the n sampled
        # perimeter points: nearest-point snaps midpoints to corners
        box = Box(0.0, 0.0, 4.0, 4.0)
        points, corners = anchor_from_box(box, 8)
        _, _, offsets = _match_one(points, corners, UNIT_SQUARE_4, NEAREST_POINT)
        assert np.abs(offsets).max() == 2.0
        for strategy in (NEAREST_LINE, CORNER_PROJECTION):
            _, _, offsets = _match_one(points, corners, UNIT_SQUARE_4, strategy)
            assert np.abs(offsets).max() == 0.0, strategy


class TestDispatch:
    def test_unknown_strategy(self):
        points, corners = anchor_from_box(Box(0.0, 0.0, 4.0, 4.0), 8)
        with pytest.raises(PointSetError, match="unknown matching strategy"):
            match_points(points[None], corners, DIAMOND.vertices, "closest")


class TestMatchPose:
    def test_visibility_becomes_validity(self):
        anchor_joints = np.zeros((17, 2))
        gt = np.arange(34, dtype=float).reshape(17, 2)
        visibility = np.zeros(17, dtype=int)
        visibility[[0, 4, 16]] = 2
        targets, valid = match_pose_points(anchor_joints[None], gt[None], visibility[None])
        offsets = point_offsets(anchor_joints[None], targets, valid)
        assert valid.shape == (1, 17)
        assert valid.sum() == 3
        assert np.array_equal(targets[0, 0], gt[0])
        assert targets[0, 1].tolist() == [0.0, 0.0]
        assert np.array_equal(offsets[0, 4], gt[4])

    def test_rows_pair_with_their_own_gts(self, rng):
        joints = rng.uniform(0.0, 50.0, (4, 17, 2))
        gts = rng.uniform(0.0, 50.0, (4, 17, 2))
        visibility = rng.integers(0, 3, (4, 17))
        targets, valid = match_pose_points(joints, gts, visibility)
        for a in range(4):
            one, one_valid = match_pose_points(joints[a:a + 1], gts[a:a + 1], visibility[a:a + 1])
            assert one.tobytes() == targets[a:a + 1].tobytes()
            assert one_valid.tolist() == valid[a:a + 1].tolist()

    def test_shape_validation(self):
        for joints, gt, visibility in (
            (np.zeros((1, 5, 2)), np.zeros((1, 5, 2)), np.zeros((1, 5))),   # 5 anchor joints
            (np.zeros((17, 2)), np.zeros((17, 2)), np.zeros(17)),           # unbatched
            (np.zeros((1, 17, 2)), np.zeros((1, 5, 2)), np.zeros((1, 17))),  # 5 gt joints
            (np.zeros((1, 17, 2)), np.zeros((1, 17, 2)), np.zeros((1, 5))),  # 5 visibilities
            (np.zeros((2, 17, 2)), np.zeros((3, 17, 2)), np.zeros((2, 17))),  # 3 gts, 2 anchors
            (np.zeros((2, 17, 2)), np.zeros((2, 17, 2)), np.zeros((3, 17))),
            (np.zeros((2, 17, 2)), np.zeros((17, 2)), np.zeros(17)),        # one gt for all
        ):
            with pytest.raises(PointSetError,
                               match="^(joints|gt_joints|visibility) must have shape"):
                match_pose_points(joints, gt, visibility)

