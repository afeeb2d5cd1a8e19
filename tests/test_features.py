import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pointset_anchors.geometry import Box

from util import anchor_from_box
from pointset_anchors.errors import (
    LengthMismatchError,
    NonPositiveScaleError,
    PointSetError,
)
from pointset_anchors.features import (
    FeatureGrid,
    bilinear_sample,
    shape_indexed_coords,
)


class TestFeatureGrid:
    def test_2d_values_promoted_to_single_channel(self):
        grid = FeatureGrid(np.zeros((3, 5)), stride=8.0)
        assert (grid.height, grid.width, grid.channels) == (3, 5, 1)

    def test_bad_shape(self):
        with pytest.raises(LengthMismatchError):
            FeatureGrid(np.zeros(4), stride=8.0)

    def test_non_finite_rejected(self):
        with pytest.raises(PointSetError):
            FeatureGrid(np.full((2, 2), np.inf), stride=8.0)

    def test_bad_stride(self):
        with pytest.raises(NonPositiveScaleError):
            FeatureGrid(np.zeros((2, 2)), stride=0.0)


class TestShapeIndexedCoords:
    def test_reference_value(self):
        coords = shape_indexed_coords(np.array([[8.0, 4.0]]), stride=8.0)
        assert coords.tolist() == [[0.5, 0.0]]

    def test_cell_center_round_trip(self):
        # pixel center of cell (row=1, col=2) at stride 8 is (20, 12)
        coords = shape_indexed_coords(np.array([[20.0, 12.0]]), stride=8.0)
        assert coords.tolist() == [[2.0, 1.0]]

    def test_mask_anchor_points_used(self):
        points, _ = anchor_from_box(Box(0.0, 0.0, 16.0, 16.0), n=4)
        coords = shape_indexed_coords(points, stride=16.0)
        assert np.array_equal(coords, points / 16.0 - 0.5)
        assert coords[0].tolist() == [-0.5, -0.5]

    def test_pose_anchor_joints_used(self):
        joints = np.tile([[32.0, 16.0]], (17, 1))
        coords = shape_indexed_coords(joints, stride=32.0)
        assert coords.shape == (17, 2)
        assert np.all(coords == [0.5, 0.0])

    def test_bad_stride(self):
        with pytest.raises(NonPositiveScaleError):
            shape_indexed_coords(np.zeros((1, 2)), stride=-1.0)

    def test_bad_points(self):
        with pytest.raises(LengthMismatchError):
            shape_indexed_coords(np.zeros((2, 3)), stride=8.0)


class TestBilinearSample:
    def test_center_of_2x2_patch(self):
        grid = FeatureGrid(np.array([[1.0, 2.0], [2.0, 3.0]]), stride=8.0)
        out = bilinear_sample(grid, [[0.5, 0.5]])
        assert out.shape == (1, 1)
        assert out[0, 0] == 2.0

    def test_exact_texel_reads_value(self):
        values = np.arange(12.0).reshape(3, 4)
        grid = FeatureGrid(values, stride=4.0)
        out = bilinear_sample(grid, [[3.0, 2.0], [0.0, 0.0]])
        assert out[:, 0].tolist() == [11.0, 0.0]

    def test_border_clamp(self):
        grid = FeatureGrid(np.array([[1.0, 2.0], [3.0, 4.0]]), stride=8.0)
        out = bilinear_sample(grid, [[-5.0, -5.0], [10.0, 10.0], [0.5, -3.0]])
        assert out[:, 0].tolist() == [1.0, 4.0, 1.5]

    def test_multi_channel(self):
        values = np.stack([np.zeros((2, 2)), np.ones((2, 2)) * 7.0], axis=2)
        grid = FeatureGrid(values, stride=8.0)
        out = bilinear_sample(grid, [[0.25, 0.75]])
        assert out.tolist() == [[0.0, 7.0]]

    @given(
        x=st.floats(0.0, 3.0),
        y=st.floats(0.0, 2.0),
    )
    def test_interpolation_within_value_range(self, x, y):
        values = np.array([[0.0, 1.0, 5.0, 2.0], [3.0, 9.0, 1.0, 0.0], [2.0, 4.0, 6.0, 8.0]])
        grid = FeatureGrid(values, stride=8.0)
        out = bilinear_sample(grid, [[x, y]])
        assert values.min() - 1e-12 <= out[0, 0] <= values.max() + 1e-12

    def test_linear_field_reproduced_exactly(self, rng):
        # bilinear interpolation is exact on v = a*x + b*y + c
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(4.0))
        values = 2.0 * xs - 3.0 * ys + 1.0
        grid = FeatureGrid(values, stride=8.0)
        pts = rng.uniform([0.0, 0.0], [4.0, 3.0], (50, 2))
        out = bilinear_sample(grid, pts)
        expected = 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 1.0
        assert np.allclose(out[:, 0], expected, atol=1e-12)

    def test_bad_coords(self):
        grid = FeatureGrid(np.zeros((2, 2)), stride=8.0)
        with pytest.raises(LengthMismatchError):
            bilinear_sample(grid, [[1.0, 2.0, 3.0]])
        with pytest.raises(PointSetError):
            bilinear_sample(grid, [[np.nan, 0.0]])
