import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pointset_anchors import geometry
from pointset_anchors.errors import PointSetError
from pointset_anchors.geometry import (
    Box,
    Contour,
    box_iou_matrix,
    points_in_polygon,
    rasterized_mask_iou,
    transform_points,
)

from oracles import _iou as brute_iou
from util import random_polygon


@pytest.mark.parametrize("call, message", [
    (lambda: Contour(np.zeros((3, 3))), "expected an (n, 2) vertex array, got shape (3, 3)"),
    (lambda: Contour([(0.0, 0.0), (1.0, 0.0), (np.nan, 1.0)]), "contour vertices must be finite"),
], ids=["shape", "non-finite"])
def test_rejections_are_named(call, message):
    with pytest.raises(PointSetError, match=re.escape(message)):
        call()


class TestBox:
    def test_accessors(self):
        box = Box(1.0, 2.0, 4.0, 8.0)
        assert box.width == 3.0
        assert box.height == 6.0
        assert box.area == 18.0
        assert box.center == (2.5, 5.0)

    def test_zero_extent_is_allowed(self):
        # degenerate but ordered boxes are legal (point boxes appear as
        # enclosing boxes of single points)
        assert Box(1.0, 1.0, 1.0, 1.0).area == 0.0

    def test_inverted_corners_rejected(self):
        with pytest.raises(PointSetError, match="box min corner exceeds max corner"):
            Box(2.0, 0.0, 1.0, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(PointSetError, match="box coordinates must be finite"):
            Box(0.0, 0.0, float("inf"), 1.0)


class TestContour:
    def test_positive_orientation_kept(self):
        # y grows downward, so this screen-clockwise traversal has positive
        # shoelace area and is stored as given
        verts = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
        contour = Contour(verts)
        assert np.array_equal(contour.vertices, np.asarray(verts))
        assert contour.area == 4.0

    def test_negative_orientation_reversed_first_vertex_stays(self):
        verts = [(0.0, 0.0), (0.0, 2.0), (2.0, 2.0), (2.0, 0.0)]
        contour = Contour(verts)
        assert contour.area == 4.0
        assert tuple(contour.vertices[0]) == (0.0, 0.0)

    @pytest.mark.parametrize("orientation", [1, -1], ids=["positive", "reversed"])
    def test_area_is_the_shoelace_of_the_stored_vertices(self, rng, orientation):
        # bit for bit: a reversed list's area is summed again, not negated
        for _ in range(50):
            verts = random_polygon(rng, int(rng.integers(3, 30)), convex=False).vertices
            contour = Contour(verts[::orientation])
            assert contour.area == geometry._shoelace(contour.vertices) > 0.0

    def test_vertices_read_only(self):
        contour = Contour([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        with pytest.raises(ValueError):
            contour.vertices[0, 0] = 5.0

    def test_too_few_vertices(self):
        with pytest.raises(PointSetError, match="contour needs >= 3 vertices, got 2"):
            Contour([(0.0, 0.0), (1.0, 1.0)])

    def test_zero_area_rejected(self):
        with pytest.raises(PointSetError, match="contour has zero signed area"):
            Contour([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])

    def test_bounds(self):
        contour = Contour([(1.0, 2.0), (5.0, 3.0), (2.0, 7.0)])
        assert contour.bounds() == Box(1.0, 2.0, 5.0, 7.0)

    def test_repr(self):
        contour = Contour([(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)])
        assert repr(contour) == "Contour(3 vertices, area=6.000)"


def _iou(a: Box, b: Box) -> float:
    return float(box_iou_matrix(a.as_array(), b.as_array())[0, 0])


class TestBoxIou:
    def test_reference_value(self):
        # 1x1 overlap, union 7 -> exactly 1/7
        assert _iou(Box(0, 0, 2, 2), Box(1, 1, 3, 3)) == 1.0 / 7.0

    def test_disjoint_is_zero(self):
        assert _iou(Box(0, 0, 1, 1), Box(5, 5, 6, 6)) == 0.0

    def test_identical_is_one(self):
        assert _iou(Box(0, 0, 3, 2), Box(0, 0, 3, 2)) == 1.0

    def test_zero_union_is_zero(self):
        assert _iou(Box(1, 1, 1, 1), Box(1, 1, 1, 1)) == 0.0

    def test_matrix_matches_scalar(self, rng):
        from util import random_box

        boxes_a = [random_box(rng) for _ in range(13)]
        boxes_b = [random_box(rng) for _ in range(7)]
        mat = box_iou_matrix(
            np.asarray([b.as_array() for b in boxes_a]),
            np.asarray([b.as_array() for b in boxes_b]),
        )
        for i, a in enumerate(boxes_a):
            for j, b in enumerate(boxes_b):
                assert mat[i, j] == brute_iou(a.as_array().tolist(), b.as_array().tolist())

    def test_matrix_into_nan_buffer_matches_fresh(self, rng):
        # ``out`` is overwritten whole, a zero-union pair's 0 included
        from util import random_box

        boxes_a = np.asarray([random_box(rng).as_array() for _ in range(5)] + [[1, 1, 1, 1]])
        boxes_b = np.asarray([random_box(rng).as_array() for _ in range(3)] + [[1, 1, 1, 1]])
        out = np.full((6, 4), np.nan)
        assert box_iou_matrix(boxes_a, boxes_b, out) is out
        assert out[-1, -1] == 0.0
        assert out.tobytes() == box_iou_matrix(boxes_a, boxes_b).tobytes()

    @given(shift=st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
    def test_iou_symmetric(self, shift):
        a = Box(0.0, 0.0, 2.0, 2.0)
        b = Box(shift, 0.0, shift + 2.0, 2.0)
        assert _iou(a, b) == _iou(b, a)


class TestPointsInPolygon:
    def test_square_classification(self):
        verts = np.array([(0.0, 0.0), (0.0, 4.0), (4.0, 4.0), (4.0, 0.0)])
        inside = points_in_polygon([(2.0, 2.0), (5.0, 2.0), (-1.0, 2.0)], verts)
        assert inside.tolist() == [True, False, False]

    def test_concave_notch(self):
        # u-shape: the notch interior is outside
        verts = np.array([
            (0.0, 0.0), (6.0, 0.0), (6.0, 6.0), (4.0, 6.0),
            (4.0, 2.0), (2.0, 2.0), (2.0, 6.0), (0.0, 6.0),
        ])
        inside = points_in_polygon([(1.0, 5.0), (3.0, 5.0), (5.0, 5.0)], verts)
        assert inside.tolist() == [True, False, True]


class TestRasterizedMaskIou:
    def test_identical_contours(self):
        contour = Contour([(0.0, 0.0), (0.0, 4.0), (4.0, 4.0), (4.0, 0.0)])
        assert rasterized_mask_iou(contour, contour) == 1.0

    def test_disjoint_contours(self):
        a = Contour([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)])
        b = Contour([(10.0, 10.0), (10.0, 11.0), (11.0, 11.0), (11.0, 10.0)])
        assert rasterized_mask_iou(a, b) < 0.02

    def test_half_overlap_squares(self):
        a = Contour([(0.0, 0.0), (0.0, 2.0), (2.0, 2.0), (2.0, 0.0)])
        b = Contour([(1.0, 0.0), (1.0, 2.0), (3.0, 2.0), (3.0, 0.0)])
        assert rasterized_mask_iou(a, b, resolution=256) == pytest.approx(1.0 / 3.0, abs=0.01)

    def test_no_cell_inside_either_is_zero(self):
        # A contour against itself reads 1 unless no cell centre is inside it. A
        # sliver along the raster's diagonal holds none: the centres on the
        # diagonal lie on its edge, and the crossing test leaves them out.
        sliver = Contour([(0.0, 0.0), (1.0, 1.0), (1.0 - 1e-6, 1.0)])
        assert rasterized_mask_iou(sliver, sliver) == 0.0

    def test_resolution_floor(self):
        contour = Contour([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
        with pytest.raises(PointSetError, match="resolution must be >= 16, got 8"):
            rasterized_mask_iou(contour, contour, resolution=8)


class TestTransformPoints:
    def test_rotation_reference(self):
        # shoelace-consistent 90 degrees: (1, 0) -> (0, 1)
        out = transform_points((1.0, 0.0), (0.0, 0.0), 90.0, 1.0)
        assert out == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_scale_reference(self):
        out = transform_points((2.0, 0.0), (0.0, 0.0), 0.0, 1.5)
        assert out == pytest.approx([3.0, 0.0], abs=0.0)

    def test_center_is_fixed_point(self, rng):
        center = (3.0, -2.0)
        out = transform_points(np.array([center]), center, 37.0, 2.2)
        assert out[0] == pytest.approx(center, abs=1e-12)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(PointSetError, match="scale must be finite and > 0, got 0.0"):
            transform_points((1.0, 1.0), (0.0, 0.0), 0.0, 0.0)

    def test_non_finite_center_rejected(self):
        for center in ((float("nan"), 0.0), (0.0, float("inf"))):
            with pytest.raises(PointSetError):
                transform_points((1.0, 1.0), center, 0.0, 1.0)

    @given(angles=st.lists(st.floats(-720.0, 720.0) | st.sampled_from([-0.0, 90.0, -90.0, 180.0]),
                           min_size=1, max_size=4),
           scales=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=3),
           points=hnp.arrays(float, st.sampled_from([(2,), (3, 2)]), elements=st.floats(-1e3, 1e3)),
           center=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
    @example(angles=[-0.0, 90.0, -90.0, 180.0], scales=[1.0, 0.5], points=np.array([2.0, -3.0]),
             center=(0.0, 0.0))
    @example(angles=[-0.0, 90.0, -90.0, 180.0], scales=[1.5],
             points=np.array([[1.0, 0.0], [-0.0, -2.5], [3.0, 4.0]]), center=(1.0, -1.0))
    def test_array_call_is_each_scalar_call(self, angles, scales, points, center):
        out = transform_points(points, center, np.array(angles)[:, None], np.array(scales))
        assert out.shape == (len(angles), len(scales)) + points.shape
        for (i, angle), (j, scale) in itertools.product(enumerate(angles), enumerate(scales)):
            one = transform_points(points, center, angle, scale)
            assert out[i, j].tobytes() == one.tobytes()
            # the scalar call is the rotate-then-scale formula, one point at a time
            theta = math.radians(angle)
            cos_t, sin_t = math.cos(theta), math.sin(theta)
            formula = [(((x - center[0]) * cos_t - (y - center[1]) * sin_t) * scale + center[0],
                        ((x - center[0]) * sin_t + (y - center[1]) * cos_t) * scale + center[1])
                       for x, y in points.reshape(-1, 2).tolist()]
            assert one.tobytes() == np.array(formula).reshape(points.shape).tobytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    def test_any_bad_scale_in_an_array_is_rejected(self, bad):
        with pytest.raises(PointSetError, match="scale must be finite and > 0"):
            transform_points((1.0, 1.0), (0.0, 0.0), [0.0, 10.0], [[1.0], [bad], [2.0]])

    @pytest.mark.parametrize("points", [1.0, (1.0, 2.0, 3.0), np.zeros((4, 3)), np.zeros((2, 1))])
    def test_points_without_an_xy_axis_are_named(self, points):
        with pytest.raises(PointSetError, match="points must be"):
            transform_points(points, (0.0, 0.0), 0.0, 1.0)

    @pytest.mark.parametrize("angle", [float("nan"), float("inf"), -float("inf"),
                                       [0.0, float("inf")]])
    def test_non_finite_angle_is_named(self, angle):
        with pytest.raises(PointSetError, match="angle_degrees must be finite"):
            transform_points((1.0, 1.0), (0.0, 0.0), angle, 1.0)

    @given(angle=st.floats(min_value=-360.0, max_value=360.0, allow_nan=False))
    def test_rotation_preserves_distance_to_center(self, angle):
        pts = np.array([(3.0, 1.0), (-2.0, 5.0)])
        out = transform_points(pts, (1.0, 1.0), angle, 1.0)
        before = np.hypot(pts[:, 0] - 1.0, pts[:, 1] - 1.0)
        after = np.hypot(out[:, 0] - 1.0, out[:, 1] - 1.0)
        assert np.allclose(before, after, atol=1e-9)
