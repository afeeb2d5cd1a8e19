import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pointset_anchors.errors import (
    DegenerateBoxError,
    DegenerateContourError,
    NonPositiveScaleError,
    PointSetError,
    TooFewVerticesError,
)
from pointset_anchors.geometry import (
    Box,
    Contour,
    box_iou_matrix,
    points_in_polygon,
    rasterized_mask_iou,
    signed_area,
    transform_points,
)

from oracles import _iou as brute_iou
from util import random_polygon


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
        with pytest.raises(DegenerateBoxError):
            Box(2.0, 0.0, 1.0, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DegenerateBoxError):
            Box(0.0, 0.0, float("inf"), 1.0)


class TestContour:
    def test_positive_orientation_kept(self):
        # y grows downward, so this screen-clockwise traversal has positive
        # shoelace area and is stored as given
        verts = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
        contour = Contour(verts)
        assert np.array_equal(contour.vertices, np.asarray(verts))

    def test_negative_orientation_reversed_first_vertex_stays(self):
        verts = [(0.0, 0.0), (0.0, 2.0), (2.0, 2.0), (2.0, 0.0)]
        contour = Contour(verts)
        assert signed_area(contour) > 0.0
        assert tuple(contour.vertices[0]) == (0.0, 0.0)

    def test_vertices_read_only(self):
        contour = Contour([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        with pytest.raises(ValueError):
            contour.vertices[0, 0] = 5.0

    def test_too_few_vertices(self):
        with pytest.raises(TooFewVerticesError):
            Contour([(0.0, 0.0), (1.0, 1.0)])

    def test_zero_area_rejected(self):
        with pytest.raises(DegenerateContourError):
            Contour([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])

    def test_bounds(self):
        contour = Contour([(1.0, 2.0), (5.0, 3.0), (2.0, 7.0)])
        assert contour.bounds() == Box(1.0, 2.0, 5.0, 7.0)


class TestSignedArea:
    def test_triangle_reference_value(self):
        # (0,0) -> (4,0) -> (0,3) has shoelace area +6 in image coordinates
        assert signed_area(np.array([(0.0, 0.0), (4.0, 0.0), (0.0, 3.0)])) == 6.0
        assert signed_area(np.array([(0.0, 0.0), (0.0, 3.0), (4.0, 0.0)])) == -6.0

    def test_reversal_flips_sign(self, rng):
        contour = random_polygon(rng, 12, convex=False)
        verts = contour.vertices
        assert signed_area(verts[::-1]) == -signed_area(verts)


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

    def test_resolution_floor(self):
        contour = Contour([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
        with pytest.raises(NonPositiveScaleError):
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
        with pytest.raises(NonPositiveScaleError):
            transform_points((1.0, 1.0), (0.0, 0.0), 0.0, 0.0)

    def test_non_finite_center_rejected(self):
        for center in ((float("nan"), 0.0), (0.0, float("inf"))):
            with pytest.raises(PointSetError):
                transform_points((1.0, 1.0), center, 0.0, 1.0)

    @given(angle=st.floats(min_value=-360.0, max_value=360.0, allow_nan=False))
    def test_rotation_preserves_distance_to_center(self, angle):
        pts = np.array([(3.0, 1.0), (-2.0, 5.0)])
        out = transform_points(pts, (1.0, 1.0), angle, 1.0)
        before = np.hypot(pts[:, 0] - 1.0, pts[:, 1] - 1.0)
        after = np.hypot(out[:, 0] - 1.0, out[:, 1] - 1.0)
        assert np.allclose(before, after, atol=1e-9)
