import itertools
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import brute_grid_anchors
from util import anchor_from_box
from pointset_anchors.anchors import (
    DEFAULT_POSE_ROTATIONS,
    DEFAULT_POSE_SCALES,
    MASK_MODE,
    NUM_JOINTS,
    POSE_MODE,
    POSE_ROTATIONS_FIVE,
    POSE_SCALES_FIVE,
    PyramidConfig,
    generate_grid,
    load_config_document,
    sample_box_perimeters,
)
from pointset_anchors.errors import (
    BadPointCountError,
    DegenerateBoxError,
    MissingCanonicalPosesError,
    NonPositiveScaleError,
    PointSetError,
)
from pointset_anchors.geometry import Box, transform_points


def _indexed_anchors(grid):
    """(stack row, level grid, row, col, slot, location centre) per anchor, via index_columns."""
    by_level = {level.level: level for level in grid.levels}
    columns = zip(*(column.tolist() for column in grid.index_columns()))
    for a, (lvl, row, col, slot) in enumerate(columns):
        level = by_level[lvl]
        centre = np.array([(col + 0.5) * level.stride, (row + 0.5) * level.stride])
        yield a, level, row, col, slot, centre


def _slot_box(base_scale, octave=1.0, aspect=1.0):
    """The implicit box of a one-slot grid's one location, centred at (4, 4)."""
    config = PyramidConfig(levels=((8.0, base_scale),), octave_scales=(octave,),
                           aspect_ratios=(aspect,))
    return Box(*generate_grid(config, (8, 8), MASK_MODE).box_stack()[0])


class TestSampleBoxPerimeter:
    def test_n8_reference_points(self):
        points, corners = anchor_from_box(Box(0.0, 0.0, 4.0, 4.0), 8)
        expected = [
            (0.0, 0.0), (2.0, 0.0),   # top, left to right
            (4.0, 0.0), (4.0, 2.0),   # right, downward
            (4.0, 4.0), (2.0, 4.0),   # bottom, right to left
            (0.0, 4.0), (0.0, 2.0),   # left, upward
        ]
        assert np.array_equal(points, np.asarray(expected))
        assert corners == (0, 2, 4, 6)

    def test_corners_land_exactly(self):
        box = Box(3.0, 5.0, 10.0, 9.0)
        for n in (4, 12, 36, 60):
            points, (tl, tr, br, bl) = anchor_from_box(box, n)
            assert tuple(points[tl]) == (3.0, 5.0)
            assert tuple(points[tr]) == (10.0, 5.0)
            assert tuple(points[br]) == (10.0, 9.0)
            assert tuple(points[bl]) == (3.0, 9.0)
            assert len(points) == n

    def test_side_arithmetic_is_pinned(self):
        # targets bytes depend on these exact roundings: x0 + t * (x1 - x0)
        # with t = i / (n / 4) along the top, and likewise on the other sides
        x0, y0, x1, y1 = 0.1, 0.2, 1.3, 0.9
        points, _ = anchor_from_box(Box(x0, y0, x1, y1), 12)
        t = [i / 3 for i in range(3)]
        expected = ([(x0 + u * (x1 - x0), y0) for u in t] + [(x1, y0 + u * (y1 - y0)) for u in t]
                    + [(x1 - u * (x1 - x0), y1) for u in t] + [(x0, y1 - u * (y1 - y0)) for u in t])
        assert points.tobytes() == np.array(expected).tobytes()

    def test_count_must_be_multiple_of_four(self):
        box = Box(0.0, 0.0, 1.0, 1.0)
        for bad in (0, 3, 6, -4):
            with pytest.raises(BadPointCountError):
                anchor_from_box(box, bad)

    def test_degenerate_box_rejected(self):
        with pytest.raises(DegenerateBoxError):
            anchor_from_box(Box(0.0, 0.0, 0.0, 1.0), 8)


class TestSlotBox:
    def test_aspect_two_dimensions(self):
        box = _slot_box(32.0, aspect=2.0)
        assert box.width == pytest.approx(45.2548, abs=1e-4)
        assert box.height == pytest.approx(22.6274, abs=1e-4)
        # area is scale^2 regardless of aspect
        assert box.area == pytest.approx(1024.0, rel=1e-12)
        assert box.center == (4.0, 4.0)

    def test_octave_scaling(self):
        box = _slot_box(32.0, octave=2.0 ** (1.0 / 3.0))
        assert box.width == pytest.approx(40.3175, abs=1e-4)

    def test_point_count_default(self):
        assert PyramidConfig().num_points == 36
        points, _ = sample_box_perimeters(_slot_box(16.0).as_array()[None],
                                          PyramidConfig().num_points)
        assert points.shape == (1, 36, 2)

    def test_invalid_parameters(self):
        for kwargs in ({"levels": ((8.0, 0.0),)}, {"octave_scales": (-1.0,)},
                       {"aspect_ratios": (0.0,)}):
            with pytest.raises(NonPositiveScaleError):
                PyramidConfig(**kwargs)


class TestPyramidConfig:
    def test_defaults(self):
        config = PyramidConfig()
        assert tuple(s for s, _ in config.levels) == (8.0, 16.0, 32.0, 64.0, 128.0)
        assert tuple(b for _, b in config.levels) == (32.0, 64.0, 128.0, 256.0, 512.0)
        assert config.mask_anchors_per_location == 9
        assert config.pose_scales == (0.8, 1.0, 1.2)
        assert config.pose_rotations == (-10.0, 0.0, 10.0)

    def test_five_entry_presets_bracket_defaults(self):
        assert DEFAULT_POSE_SCALES == POSE_SCALES_FIVE[1:4]
        assert DEFAULT_POSE_ROTATIONS == POSE_ROTATIONS_FIVE[1:4]

    def test_round_trip_dict(self):
        config = PyramidConfig(levels=((4.0, 16.0), (8.0, 32.0)), num_points=12)
        assert PyramidConfig.from_dict(config.to_dict()) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(PointSetError):
            PyramidConfig.from_dict({"stride": 8})

    def test_strides_must_increase(self):
        with pytest.raises(PointSetError):
            PyramidConfig(levels=((16.0, 64.0), (8.0, 32.0)))

    def test_config_document_json_and_yaml(self, tmp_path):
        config = PyramidConfig(levels=((8.0, 32.0),))
        json_path = tmp_path / "pyramid.json"
        json_path.write_text(json.dumps(config.to_dict()))
        assert PyramidConfig.from_dict(load_config_document(json_path)) == config

        yaml_path = tmp_path / "pyramid.yaml"
        yaml_path.write_text(
            "levels: [[8.0, 32.0]]\n"
        )
        assert PyramidConfig.from_dict(load_config_document(yaml_path)).levels == ((8.0, 32.0),)

    def test_non_mapping_document_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(PointSetError):
            load_config_document(path)


class TestMaskGrid:
    def test_two_by_two_level(self):
        config = PyramidConfig(levels=((8.0, 32.0),))
        grid = generate_grid(config, (16, 16), MASK_MODE)
        level = grid.levels[0]
        assert (level.rows, level.cols) == (2, 2)
        assert level.anchors_per_location == 9
        assert grid.num_anchors == 36

    def test_boxes_centred_on_cells(self):
        config = PyramidConfig(levels=((8.0, 32.0),))
        boxes = generate_grid(config, (16, 16), MASK_MODE).box_stack().reshape(4, 9, 4)
        centres = (boxes[..., :2] + boxes[..., 2:]) / 2.0
        expected = np.array([[4.0, 4.0], [12.0, 4.0], [4.0, 12.0], [12.0, 12.0]])
        assert np.allclose(centres, expected[:, None, :], atol=1e-12)

    def test_box_stack_matches_anchor_lookup(self):
        config = PyramidConfig(levels=((8.0, 32.0), (16.0, 64.0)))
        grid = generate_grid(config, (32, 32), MASK_MODE)
        stack = grid.box_stack()
        assert stack.shape == (grid.num_anchors, 4)
        for a, level, row, col, slot, centre in _indexed_anchors(grid):
            assert level.templates.shape == (level.anchors_per_location, 2, 2)
            assert np.array_equal(stack[a], (centre + level.templates[slot]).ravel())
            assert np.allclose(Box(*stack[a]).center, centre, atol=1e-12)

    def test_batched_perimeters_match_anchor_points(self):
        config = PyramidConfig(levels=((8.0, 32.0), (16.0, 64.0)), num_points=12)
        grid = generate_grid(config, (24, 40), MASK_MODE)
        points, corners = sample_box_perimeters(grid.box_stack(), 12)
        assert points.shape == (grid.num_anchors, 12, 2)
        for a, box in enumerate(grid.box_stack()):
            one, one_corners = anchor_from_box(Box(*box), 12)
            assert points[a].tobytes() == one.tobytes()
            assert corners == one_corners

    def test_slot_enumerates_octaves_and_aspects(self):
        config = PyramidConfig(levels=((8.0, 32.0),))
        level = generate_grid(config, (8, 8), MASK_MODE).levels[0]
        # each slot's box corners give back its (octave, aspect), octave-major
        width, height = (level.templates[:, 1] - level.templates[:, 0]).T
        octaves, aspects = np.sqrt(width * height) / 32.0, width / height
        expected = list(itertools.product(config.octave_scales, config.aspect_ratios))
        assert np.allclose(np.column_stack([octaves, aspects]), expected, rtol=1e-12)
        combos = set(zip(np.round(octaves, 9).tolist(), np.round(aspects, 9).tolist()))
        assert len(combos) == 9

    def test_partial_cells_round_up(self):
        config = PyramidConfig(levels=((8.0, 32.0),))
        level = generate_grid(config, (20, 9), MASK_MODE).levels[0]
        assert (level.rows, level.cols) == (2, 3)


class TestPoseGrid:
    def _modes(self, k=1):
        rng = np.random.default_rng(7)
        modes = rng.uniform(-0.5, 0.5, (k, NUM_JOINTS, 2))
        return modes

    def test_27_anchors_per_location(self):
        config = PyramidConfig(levels=((8.0, 32.0),))
        modes = self._modes(3)
        grid = generate_grid(config, (8, 8), POSE_MODE, modes)
        level = grid.levels[0]
        assert level.anchors_per_location == 27
        # name each slot's template by the one (mode, scale, rotation) it is
        combos = []
        for template in level.templates:
            (found,) = [
                (m, s, r)
                for m, s, r in itertools.product(range(3), DEFAULT_POSE_SCALES,
                                                 DEFAULT_POSE_ROTATIONS)
                if np.allclose(template, transform_points(
                    modes[m] * 32.0 - (modes[m] * 32.0).mean(axis=0), (0.0, 0.0), r, s),
                    atol=1e-9)
            ]
            combos.append(found)
        assert combos == list(itertools.product(range(3), DEFAULT_POSE_SCALES,
                                                DEFAULT_POSE_ROTATIONS))
        assert len(set(combos)) == 27
        assert {m for m, _, _ in combos} == {0, 1, 2}

    def test_variant_transform_about_centroid(self):
        modes = self._modes(1)
        config = PyramidConfig(levels=((8.0, 32.0),))
        grid = generate_grid(config, (8, 8), POSE_MODE, modes)
        level = grid.levels[0]
        base = modes[0] * 32.0
        centered = base - base.mean(axis=0)
        center = np.array([4.0, 4.0])      # location (0, 0) at stride 8
        slots = list(itertools.product(config.pose_scales, config.pose_rotations))
        assert len(slots) == level.anchors_per_location
        for slot, (scale, rotation) in enumerate(slots):
            joints = center + level.templates[slot]
            expected = transform_points(centered, (0.0, 0.0), rotation, scale) + center
            assert np.allclose(joints, expected, atol=1e-9)
            # the pivot is the joint centroid: it never moves under the variant
            assert np.allclose(joints.mean(axis=0), center, atol=1e-9)

    def test_missing_modes_raises(self):
        with pytest.raises(MissingCanonicalPosesError):
            generate_grid(PyramidConfig(), (64, 64), POSE_MODE)

    def test_bad_mode_shape_raises(self):
        with pytest.raises(PointSetError):
            generate_grid(PyramidConfig(), (64, 64), POSE_MODE, np.zeros((1, 5, 2)))

    def test_joint_stack_is_centre_plus_variant(self):
        config = PyramidConfig(levels=((8.0, 32.0), (16.0, 64.0)))
        grid = generate_grid(config, (32, 40), POSE_MODE, self._modes(2))
        stacked = grid.joint_stack()
        assert stacked.shape == (grid.num_anchors, NUM_JOINTS, 2)
        picks = np.array([grid.num_anchors - 1, 0, 7, 7, grid.levels[0].num_anchors])
        assert grid.joint_stack(picks).tobytes() == stacked[picks].tobytes()
        for a, level, row, col, slot, centre in _indexed_anchors(grid):
            assert level.templates.shape == (level.anchors_per_location, NUM_JOINTS, 2)
            assert np.array_equal(stacked[a], centre + level.templates[slot])
        for level in grid.levels:
            assert np.allclose(level.templates.mean(axis=1), 0.0, atol=1e-12)

    def test_mode_stack_guards(self):
        mask_grid = generate_grid(PyramidConfig(levels=((8.0, 32.0),)), (8, 8), MASK_MODE)
        with pytest.raises(PointSetError):
            mask_grid.joint_stack()
        pose_grid = generate_grid(PyramidConfig(levels=((8.0, 32.0),)), (8, 8),
                                  POSE_MODE, self._modes(1))
        with pytest.raises(PointSetError):
            pose_grid.box_stack()


@st.composite
def _grid_cases(draw):
    """A random 1-3 level pyramid, image size and mode, with 1-2 pose modes."""
    strides = np.cumsum(draw(st.lists(st.floats(2.0, 24.0), min_size=1, max_size=3)))
    positive = st.floats(0.25, 4.0)
    config = PyramidConfig(
        levels=tuple((float(s), draw(st.floats(4.0, 160.0))) for s in strides),
        octave_scales=draw(st.lists(positive, min_size=1, max_size=3)),
        aspect_ratios=draw(st.lists(positive, min_size=1, max_size=3)),
        pose_scales=draw(st.lists(positive, min_size=1, max_size=2)),
        pose_rotations=draw(st.lists(st.floats(-180.0, 180.0), min_size=1, max_size=2)),
    )
    size = (draw(st.integers(1, 64)), draw(st.integers(1, 64)))
    mode = draw(st.sampled_from([MASK_MODE, POSE_MODE]))
    modes = draw(hnp.arrays(float, (draw(st.integers(1, 2)), NUM_JOINTS, 2),
                            elements=st.floats(-1.0, 1.0)))
    return config, size, mode, modes


class TestGridOracle:
    @given(case=_grid_cases(), data=st.data())
    def test_stacks_match_one_anchor_at_a_time(self, case, data):
        config, size, mode, modes = case
        expected = brute_grid_anchors(config, size, mode, modes)
        if mode == MASK_MODE:
            grid = generate_grid(config, size, mode)
            assert grid.box_stack().shape == expected.shape
            assert grid.box_stack().tobytes() == expected.tobytes()
            return
        grid = generate_grid(config, size, mode, modes)
        assert grid.joint_stack().shape == expected.shape
        assert grid.joint_stack().tobytes() == expected.tobytes()
        index = np.asarray(data.draw(st.lists(st.integers(0, grid.num_anchors - 1), max_size=12)),
                           dtype=int)
        assert grid.joint_stack(index).tobytes() == expected[index].tobytes()


class TestIndexColumns:
    def test_alignment_with_iteration(self):
        # stack row a is (level, row, col, slot) in nested loop order
        config = PyramidConfig(levels=((8.0, 32.0), (16.0, 64.0)))
        modes = np.random.default_rng(7).uniform(-0.5, 0.5, (2, NUM_JOINTS, 2))
        for grid in (generate_grid(config, (32, 24), MASK_MODE),
                     generate_grid(config, (32, 24), POSE_MODE, modes)):
            expected = [
                (level.level, row, col, slot)
                for level in grid.levels
                for row in range(level.rows)
                for col in range(level.cols)
                for slot in range(level.anchors_per_location)
            ]
            seen = [(level.level, row, col, slot)
                    for _, level, row, col, slot, _ in _indexed_anchors(grid)]
            assert len(seen) == grid.num_anchors
            assert seen == expected
