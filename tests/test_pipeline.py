import collections
import hashlib
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import brute_grid_anchors, brute_oks_grid, brute_target_line
from pointset_anchors.anchors import (
    MASK_MODE,
    NUM_JOINTS,
    POSE_MODE,
    POSE_ROTATIONS_FIVE,
    POSE_SCALES_FIVE,
    PyramidConfig,
    generate_grid,
)
from pointset_anchors.assignment import (
    COCO_KAPPAS,
    EXP_FLUSH,
    SIMILARITY_IOU,
    SIMILARITY_OKS,
    assign_arrays,
    oks,
    oks_matrix,
)
from pointset_anchors.datasets import InstanceRecord
from pointset_anchors.errors import PointSetError
from pointset_anchors.geometry import Box
from pointset_anchors import anchors, matching, pipeline
from pointset_anchors.matching import NEAREST_LINE, NEAREST_POINT
from pointset_anchors.pipeline import (
    CoverageConfig,
    TASK_MASK,
    TASK_POSE_TARGETS,
    TargetConfig,
    _image_similarity,
    _match_positives,
    _render_image,
    coverage_report,
    coverage_to_dict,
    emit_targets,
    render_coverage_table,
)
from pointset_anchors.pose_modes import (center_point_shape, kmeans_poses, normalize_pose,
                                         rectangle_shape)
from pointset_anchors.synthetic import (
    CORPUS_CONTOURS,
    CORPUS_POSES,
    generate_synthetic_corpus,
)
from util import replace

SMALL_PYRAMID = PyramidConfig(
    levels=((16.0, 64.0), (32.0, 128.0)),
    octave_scales=(1.0,),
    aspect_ratios=(1.0,),
    pose_scales=(1.0,),
    pose_rotations=(0.0,),
    num_points=16,
)


def _contour_corpus(count=8, seed=3):
    return generate_synthetic_corpus(
        CORPUS_CONTOURS, count, seed=seed, image_size=(192, 192),
        instances_per_image=2, radius_range=(18.0, 50.0),
    )


def _pose_corpus(count=8, seed=3, **kw):
    return generate_synthetic_corpus(
        CORPUS_POSES, count, seed=seed, image_size=(256, 256),
        instances_per_image=2, **kw,
    )


def _modes(records):
    # one mode: the mean of the records' centred, size-normalised poses
    return np.stack([(r.keypoints[:, :2] - r.keypoints[:, :2].mean(axis=0))
                     / max(r.bbox.width, r.bbox.height) for r in records]).mean(axis=0)[None]



def _pinned_case(name):
    """(records, config, canonical poses) of one pinned-bytes case."""
    if name == "pose-kmeans2-force":
        records = _pose_corpus(count=12)
        poses = [normalize_pose(r.keypoints[:, :2], r.keypoints[:, 2], r.bbox) for r in records]
        config = TargetConfig(task=TASK_POSE_TARGETS, pyramid=SMALL_PYRAMID, force_nearest=True)
        return records, config, kmeans_poses(poses, 2, seed=0).modes
    if name == "mask-nearest-line-force":
        # 12 gts an image, so two-digit gt indices reach the file.
        records = generate_synthetic_corpus(
            CORPUS_CONTOURS, 24, seed=5, image_size=(192, 192),
            instances_per_image=12, radius_range=(10.0, 30.0),
        )
        config = TargetConfig(pyramid=SMALL_PYRAMID, strategy=NEAREST_LINE,
                              force_nearest=True, num_classes=3)
        return records, config, None
    records = _contour_corpus()
    if name == "mask-nearest-point":
        return records, TargetConfig(pyramid=SMALL_PYRAMID, strategy=NEAREST_POINT), None
    if name == "mask-image-without-gt":
        # Image 99 holds keypoint-only records: no gt is eligible for masks.
        records = records + [replace(r, image_id=99) for r in _pose_corpus(count=2)]
    return records, TargetConfig(pyramid=SMALL_PYRAMID), None

def _single_anchor_grid():
    config = PyramidConfig(levels=((8.0, 32.0),), pose_scales=(1.0,), pose_rotations=(0.0,))
    modes = np.random.default_rng(5).uniform(-0.5, 0.5, (1, NUM_JOINTS, 2))
    return generate_grid(config, (8, 8), POSE_MODE, modes)


def _pose_record(joints, visibility, scale, image_size=(8, 8)):
    """A pose gt whose bbox area, and so OKS scale, is exactly ``scale``."""
    keypoints = np.column_stack([joints, visibility]).astype(float)
    return InstanceRecord(0, image_size, 1, Box(0.0, 0.0, scale, 1.0), keypoints=keypoints)


# (stride, base-scale range) per level. On an image of at most 72 px a side
# the stride-64 level is a 1x1 or 1x2 map, so its matmuls take BLAS's vector
# paths.
_LATTICE_LEVELS = ((8.0, (16.0, 48.0)), (16.0, (32.0, 96.0)), (64.0, (64.0, 192.0)))


def _three_level_case(num_gts, size=(40, 23)):
    """A 3-level pose grid on a ``size`` image (its top level 1x1 at the
    default size) plus ``num_gts`` gts, and the grid's anchor joints as the
    oracle builds them."""
    config = PyramidConfig(levels=tuple((stride, low) for stride, (low, _) in _LATTICE_LEVELS),
                           pose_scales=(0.8, 1.2), pose_rotations=(-10.0, 10.0))
    rng = np.random.default_rng(num_gts)
    modes = rng.uniform(-0.5, 0.5, (2, NUM_JOINTS, 2))
    records = [_pose_record(rng.uniform(-20.0, 60.0, (NUM_JOINTS, 2)),
                            rng.integers(1, 3, NUM_JOINTS), 2000.0, size) for _ in range(num_gts)]
    return (generate_grid(config, size, POSE_MODE, modes), records,
            brute_grid_anchors(config, size, POSE_MODE, modes))


@st.composite
def _pose_grid_cases(draw):
    """A small pose grid of 1-3 levels plus 1-3 gts, partly outside the image,
    and the grid's anchor joints as the oracle builds them.

    Invisible joints carry NaN coordinates. About half the gts take a scale
    that puts one axis factor of one anchor joint at the flush edge, give or
    take a couple of ulps.
    """
    levels = tuple((stride, draw(st.floats(*bases))) for stride, bases in _LATTICE_LEVELS)
    scales = st.lists(st.sampled_from(POSE_SCALES_FIVE), min_size=1, max_size=2, unique=True)
    rotations = st.lists(st.sampled_from(POSE_ROTATIONS_FIVE), min_size=1, max_size=2, unique=True)
    config = PyramidConfig(levels=levels[:draw(st.integers(1, 3))],
                           pose_scales=draw(scales), pose_rotations=draw(rotations))
    modes = draw(hnp.arrays(float, (draw(st.integers(1, 2)), NUM_JOINTS, 2),
                            elements=st.floats(-0.5, 0.5)))
    size = (draw(st.integers(8, 72)), draw(st.integers(8, 72)))
    grid = generate_grid(config, size, POSE_MODE, modes)
    stacked = grid.joint_stack()
    kappas = COCO_KAPPAS
    records = []
    for _ in range(draw(st.integers(1, 3))):
        joints = draw(hnp.arrays(float, (NUM_JOINTS, 2), elements=st.floats(-20.0, 60.0)))
        visibility = draw(hnp.arrays(int, NUM_JOINTS, elements=st.sampled_from([0, 0, 1, 2])))
        j = draw(st.integers(0, NUM_JOINTS - 1))
        visibility[j] = 2
        joints[visibility == 0] = np.nan
        scale = draw(st.floats(1.0, 3000.0))
        if draw(st.booleans()):
            a, axis = draw(st.integers(0, len(stacked) - 1)), draw(st.integers(0, 1))
            gap = stacked[a, j, axis] - joints[j, axis]
            edge = gap * gap / (EXP_FLUSH * 2.0 * kappas[j] ** 2)
            for _ in range(draw(st.integers(0, 2))):
                edge = np.nextafter(edge, draw(st.sampled_from([0.0, np.inf])))
            if np.isfinite(edge) and edge > 0.0:
                scale = float(edge)
        records.append(_pose_record(joints, visibility, scale, size))
    return grid, records, brute_grid_anchors(config, size, POSE_MODE, modes)



_SPECIAL_SIMS = (0.0, -0.0, 5e-324, 2.2e-308, 1.0 / 3.0, 0.1 + 0.2, 1.0)
_SPECIAL_OFFSETS = (0.0, -0.0, 5e-324, -2.2e-308, 1e-300, 1.7e308, -1e22, 0.1 + 0.2)


_COORDS = st.sampled_from(_SPECIAL_OFFSETS) | st.floats(allow_nan=False, allow_infinity=False)


def _draw_row(draw, image, label, points):
    """Field values of one targets line; a positive (label > 0) also gets
    the offsets and flags of ``points`` points."""
    row = {
        "image": image,
        "level": draw(st.integers(0, 7)),
        "row": draw(st.integers(0, 300)),
        "col": draw(st.integers(0, 300)),
        "slot": draw(st.integers(0, 80)),
        "label": label,
        "gt": draw(st.integers(-1, 12)),
        "sim": draw(st.sampled_from(_SPECIAL_SIMS) | st.floats(0.0, 1.0)),
    }
    if label > 0:
        row["scaled"] = draw(hnp.arrays(float, (points, 2), elements=_COORDS))
        row["valid"] = draw(hnp.arrays(bool, points))
    return row


@st.composite
def _target_rows(draw):
    """One targets line, positives with their offsets and flags."""
    return _draw_row(draw, draw(st.integers(0, 10 ** 12)), draw(st.integers(-1, 4)),
                     draw(st.integers(1, 6)))


@st.composite
def _target_images(draw):
    """One image's lines as oracle rows, a render step that splits them and
    the most positives whose texts are made at once.

    The image spans up to five steps; positives crowd the step edges, both
    0.0 and -0.0 occur as sims and at least one line has no gt.
    """
    step = draw(st.integers(1, 8))
    count = draw(st.integers(2, 5 * step + 1))
    edges = [i for i in range(count) if i % step in (0, step - 1)]
    positives = draw(st.sets(st.sampled_from(edges) | st.integers(0, count - 1), max_size=count))
    image, points = draw(st.integers(0, 10 ** 12)), draw(st.integers(1, 6))
    rows = [_draw_row(draw, image, draw(st.integers(1, 4) if i in positives
                                        else st.integers(-1, 0)), points)
            for i in range(count)]
    zero, negative_zero = draw(st.permutations(range(count)))[:2]
    no_gt = draw(st.integers(0, count - 1))
    rows[zero]["sim"], rows[negative_zero]["sim"], rows[no_gt]["gt"] = 0.0, -0.0, -1
    return rows, step, draw(st.integers(1, 5))


def _example_image(labels, gts, step, positives=1):
    """An image of one line per (label, gt), rendered ``step`` lines at a
    time; each positive has two points."""
    rows = []
    for i, (label, gt) in enumerate(zip(labels, gts)):
        row = {"image": 9, "level": i % 3, "row": i // 3, "col": 2 * i, "slot": i % 2,
               "label": label, "gt": gt, "sim": (0.0, -0.0, 1.0 / 3.0)[i % 3]}
        if label > 0:
            row["scaled"] = np.array([[0.5 * i, -0.0], [1e-300, -1.5]])
            row["valid"] = np.array([True, False])
        rows.append(row)
    return rows, step, positives


def _render(rows):
    """Render oracle rows as one image, from the arrays ``emit_targets`` hands
    the renderer: the per-line columns, the positives' line indices and their
    scaled offsets (P, n, 2) and valid flags (P, n)."""
    columns = [np.array([row[key] for row in rows]) for key in
               ("level", "row", "col", "slot", "label", "gt", "sim")]
    pos = np.flatnonzero(columns[4] > 0)
    points = len(rows[pos[0]]["valid"]) if len(pos) else 1
    scaled = np.array([rows[k]["scaled"] for k in pos], dtype=float).reshape(len(pos), points, 2)
    valid = np.array([rows[k]["valid"] for k in pos], dtype=bool).reshape(len(pos), points)
    return b"".join(_render_image(rows[0]["image"], columns, pos, scaled, valid))


class TestTargetConfig:
    def test_mask_defaults(self):
        config = TargetConfig()
        assert config.task == TASK_MASK
        assert (config.hi, config.lo) == (0.6, 0.4)
        assert config.similarity == SIMILARITY_IOU

    def test_pose_defaults(self):
        config = TargetConfig(task=TASK_POSE_TARGETS)
        assert (config.hi, config.lo) == (0.5, 0.4)
        assert config.similarity == SIMILARITY_OKS

    def test_explicit_thresholds_kept(self):
        config = TargetConfig(hi=0.75, lo=0.3)
        assert (config.hi, config.lo) == (0.75, 0.3)

    def test_unknown_task_and_strategy(self):
        with pytest.raises(PointSetError, match="unknown task"):
            TargetConfig(task="detection3d")
        with pytest.raises(PointSetError, match="unknown strategy"):
            TargetConfig(strategy="iterative-closest-point")

    def test_dict_round_trip(self):
        config = TargetConfig(pyramid=SMALL_PYRAMID, strategy=NEAREST_POINT,
                              num_classes=4, force_nearest=True)
        back = TargetConfig.from_dict(config.to_dict())
        assert back == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(PointSetError, match="unknown config keys"):
            TargetConfig.from_dict({"task": TASK_MASK, "ankor": 1})

    def test_configs_are_read_only_and_equal_by_fields(self):
        for config in (SMALL_PYRAMID, TargetConfig(pyramid=SMALL_PYRAMID, task=TASK_POSE_TARGETS)):
            for name in type(config).__slots__:
                with pytest.raises(AttributeError, match=repr(name)):
                    setattr(config, name, getattr(config, name))
            assert replace(config) == config and replace(config) is not config
        assert TargetConfig(hi=0.7) != TargetConfig()
        assert PyramidConfig(num_points=16) != PyramidConfig()
        assert PyramidConfig() != TargetConfig()

    @pytest.mark.parametrize("task", [TASK_MASK, TASK_POSE_TARGETS])
    def test_header_states_every_setting(self, tmp_path, task):
        # a field the header left out would be a setting no file records
        pyramid = replace(SMALL_PYRAMID, octave_scales=(1.0, 1.5), pose_rotations=(-5.0, 5.0))
        config = TargetConfig(pyramid=pyramid, task=task, hi=0.7, lo=0.2, force_nearest=True)
        records = _contour_corpus(count=2) if task == TASK_MASK else _pose_corpus(count=2)
        out = tmp_path / "targets.jsonl"
        emit_targets(records, config, out, None if task == TASK_MASK else _modes(records))
        header = json.loads(out.read_text().splitlines()[0])
        for kind, value in ((TargetConfig, config), (PyramidConfig, pyramid)):
            names = set(kind.__slots__)
            assert set(value.to_dict()) == names
            assert kind.from_dict(value.to_dict()) == value
        assert set(TargetConfig.__slots__) <= set(header)
        assert header["pyramid"] == pyramid.to_dict()


class TestFloatTexts:
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    @example(np.array([np.nextafter(1e-4, 0)]))  # the largest with a small exponent
    @example(np.array([1e-4]))
    @example(np.array([np.nextafter(1e16, 0)]))  # the largest without an exponent
    @example(np.array([1e16]))
    @example(np.array([-0.0]))
    @example(np.array([5e-324]))  # the least subnormal
    @example(np.array([2.0 ** 53]))
    @example(np.array([1.7976931348623157e308]))
    @example((np.arange(-12.0, 12.0).reshape(4, 6) * 3e-5)[::-2, 1::2])  # a strided 2-D view
    def test_texts_are_json_texts(self, values):
        """One text a value, in C order, each json's own, for finite values only:
        orjson writes null for NaN or inf where json writes NaN. Targets' floats
        are finite, since ``assign_arrays`` rejects a non-finite sim and
        ``MAX_MAGNITUDE`` bounds the coordinates the offsets come from."""
        expected = [json.dumps(v).encode() for v in values.ravel().tolist()]
        assert pipeline._float_texts(values) == expected


class TestEmitTargets:
    def test_mask_file_structure(self, tmp_path):
        records = _contour_corpus()
        config = TargetConfig(pyramid=SMALL_PYRAMID)
        out = tmp_path / "targets.jsonl"
        summary = emit_targets(records, config, out)

        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["format"] == "point-set-targets"
        assert header["version"] == 1
        assert header["task"] == TASK_MASK
        assert header["head_dims"]["shape_regression"] == [1, 32]
        assert summary["lines"] == len(lines)
        assert summary["anchors"] == len(lines) - 1
        assert (summary["positives"] + summary["negatives"] + summary["ignores"]
                == summary["anchors"])

        positives = 0
        for raw in lines[1:]:
            line = json.loads(raw)
            if line["label"] > 0:
                positives += 1
                assert len(line["valid"]) == 16
                assert len(line["offsets"]) == 16
                assert isinstance(line["gt"], int)
            else:
                assert line["valid"] is None and line["offsets"] is None
        assert positives == summary["positives"]

    def test_lines_sorted_by_image_level_row_col_slot(self, tmp_path):
        records = _contour_corpus()
        out = tmp_path / "targets.jsonl"
        emit_targets(records, TargetConfig(pyramid=SMALL_PYRAMID), out)
        keys = [
            (d["image"], d["level"], d["row"], d["col"], d["slot"])
            for d in map(json.loads, out.read_text().splitlines()[1:])
        ]
        assert keys == sorted(keys)

    def test_byte_determinism(self, tmp_path):
        records = _contour_corpus()
        config = TargetConfig(pyramid=SMALL_PYRAMID)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        emit_targets(records, config, p1)
        emit_targets(records, config, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_pose_requires_canonical_poses(self, tmp_path):
        with pytest.raises(PointSetError, match="pose target emission needs canonical_poses"):
            emit_targets(_pose_corpus(), TargetConfig(task=TASK_POSE_TARGETS),
                         tmp_path / "t.jsonl")

    def test_pose_targets_emit_positives(self, tmp_path):
        records = _pose_corpus(count=12)
        config = TargetConfig(task=TASK_POSE_TARGETS, pyramid=SMALL_PYRAMID,
                              force_nearest=True)
        out = tmp_path / "pose.jsonl"
        summary = emit_targets(records, config, out, canonical_poses=_modes(records))
        assert summary["positives"] > 0
        header = json.loads(out.read_text().splitlines()[0])
        assert header["head_dims"]["shape_regression"] == [1, 34]
        assert header["head_dims"]["box_regression"] is None

    def test_ineligible_record_class_id_not_checked(self, tmp_path):
        # a keypoint-only record is no mask gt, so its class id is never a label
        pose = replace(_pose_corpus(count=1)[0], image_id=99, class_id=0)
        out = tmp_path / "t.jsonl"
        summary = emit_targets(_contour_corpus(count=4) + [pose],
                               TargetConfig(pyramid=SMALL_PYRAMID), out)
        assert summary["skipped_records"] == 1

    def test_records_without_contours_skipped(self, tmp_path):
        records = _pose_corpus(count=4)   # keypoints only, no contours
        out = tmp_path / "t.jsonl"
        summary = emit_targets(records, TargetConfig(pyramid=SMALL_PYRAMID), out)
        assert summary["skipped_records"] == 4
        assert summary["positives"] == 0
        # anchors still emitted, all negative
        assert summary["negatives"] == summary["anchors"]


    # sha256 of each case's file as written with one dict and one json.dumps
    # per anchor, or (mask-nearest-point) with one single-anchor match per positive;
    # the bytes must not move.
    PINNED_DIGESTS = {
        "mask-corner-projection":
            "1fe431d399e3cb68817cc53d6218561ce002e281ba33b6a39c65d395b41ac982",
        "mask-nearest-line-force":
            "73536ddb9266dc60ce68b38a840c0cc9898286b13b608b893450d5fe691a6ccf",
        "mask-nearest-point":
            "80af44804529f5900a7f3a3df12c26a2a972e930a724402f4bcbfb95812daa43",
        "pose-kmeans2-force":
            "13c741aac092fdccca39c1c8d71d629e6af05e614878f906b3f465c1a5eb9ab7",
        "mask-image-without-gt":
            "be290c1a557b79d034764ffbd709b6ec3f36845734de398baf74ad5e89dfa24e",
    }

    @pytest.mark.parametrize("case", sorted(PINNED_DIGESTS))
    def test_pinned_bytes(self, case, tmp_path):
        records, config, modes = _pinned_case(case)
        out = tmp_path / "targets.jsonl"
        summary = emit_targets(records, config, out, canonical_poses=modes)
        assert summary["positives"] > 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PINNED_DIGESTS[case]

    @pytest.mark.parametrize("case", ["mask-corner-projection", "mask-nearest-line-force"])
    def test_pinned_bytes_one_anchor_a_batch(self, case, tmp_path, monkeypatch):
        # every gt's positives are matched one anchor at a time
        monkeypatch.setattr(matching, "BATCH_ELEMENTS", 1)
        records, config, modes = _pinned_case(case)
        out = tmp_path / "targets.jsonl"
        emit_targets(records, config, out, canonical_poses=modes)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PINNED_DIGESTS[case]

    @pytest.mark.parametrize("lines", [1, 7])
    @pytest.mark.parametrize("case", sorted(PINNED_DIGESTS))
    def test_pinned_bytes_render_steps(self, case, lines, tmp_path, monkeypatch):
        # lines rendered 1 or 7 at a time; 7 divides no image's line count
        monkeypatch.setattr(pipeline, "RENDER_LINES", lines)
        records, config, modes = _pinned_case(case)
        out = tmp_path / "targets.jsonl"
        emit_targets(records, config, out, canonical_poses=modes)
        body = out.read_bytes()
        assert hashlib.sha256(body).hexdigest() == self.PINNED_DIGESTS[case]
        per_image = collections.Counter(line.split(b'"image": ')[1].split(b",")[0]
                                        for line in body.splitlines()[1:])
        assert lines == 1 or all(count % lines for count in per_image.values())

    @pytest.mark.parametrize("positives", [1, 5])
    @pytest.mark.parametrize("case", sorted(PINNED_DIGESTS))
    def test_pinned_bytes_text_batches(self, case, positives, tmp_path, monkeypatch):
        # the positives' texts are made 1 or 5 at a time
        monkeypatch.setattr(pipeline, "RENDER_POSITIVES", positives)
        records, config, modes = _pinned_case(case)
        out = tmp_path / "targets.jsonl"
        emit_targets(records, config, out, canonical_poses=modes)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PINNED_DIGESTS[case]

    @given(_target_rows())
    def test_line_renderer_matches_dict_oracle(self, row):
        assert _render([row]).decode() == brute_target_line(**row)

    @given(_target_images())
    @example(_example_image([0, 2, 0, 0], [-1, 0, -1, -1], step=2))  # a step's last line
    @example(_example_image([0, 0, 1], [-1, -1, 0], step=2))  # the image's last line
    @example(_example_image([0, 1, 3, 0], [-1, 0, 1, -1], step=4))  # adjacent positives
    @example(_example_image([1, 2, 3, 4, 0, 1], [0, 1, 0, 1, -1, 2], step=3,
                            positives=5))  # a text batch that spans two steps
    @example(_example_image([0, -1, 0], [2, 1, -1], step=3))  # a gt without a positive label
    @example(_example_image([-1, 0], [-1, -1], step=1))  # an ignore without a gt
    def test_image_renderer_matches_dict_oracle(self, case):
        rows, step, positives = case
        with mock.patch.object(pipeline, "RENDER_LINES", step), \
                mock.patch.object(pipeline, "RENDER_POSITIVES", positives):
            lines = _render(rows).decode().splitlines(keepends=True)
        assert lines == [brute_target_line(**row) for row in rows]

    def test_render_working_set_is_bounded(self, monkeypatch):
        # a 640 x 640 image on the default pyramid: 76,725 lines, about 10 MB of text
        records = generate_synthetic_corpus(CORPUS_CONTOURS, 1, seed=4, image_size=(640, 640))
        config = TargetConfig()
        grid = generate_grid(config.pyramid, (640, 640), MASK_MODE)
        sim = _image_similarity(grid, records, TASK_MASK)
        labels, matched, best = assign_arrays(sim, config.hi, config.lo, False, [1])
        columns = (*grid.index_columns(), labels, matched, best)
        pos = np.flatnonzero(labels > 0)
        positives = _match_positives(grid, records, pos, matched[pos], config)

        def render():
            """(bytes yielded, tracemalloc peak) of consuming the image's pieces."""
            tracemalloc.start()
            try:
                size = sum(map(len, _render_image(records[0].image_id, columns, pos, *positives)))
                return size, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        size, peak = render()
        assert grid.num_anchors == 76725 and len(pos) > 0 and size > 9_000_000
        bound = size // 2
        assert peak < bound
        # the bound catches a renderer that joins the whole image at once
        monkeypatch.setattr(pipeline, "RENDER_LINES", grid.num_anchors)
        whole_size, whole_peak = render()
        assert whole_size == size and whole_peak > bound


class TestImageSimilarityRoutes:
    def test_pose_route_matches_plain_oks_matrix(self):
        # the lattice route (per-axis factors, one batched matmul) must agree
        # with the direct per-pair form, and flush to zero at exactly the same spots
        records = _pose_corpus(count=10, seed=21, truncation=0.4, jitter=2.0)
        grid = generate_grid(SMALL_PYRAMID, (256, 256), POSE_MODE, _modes(records))
        sim = _image_similarity(grid, records, TASK_POSE_TARGETS)

        direct = oks_matrix(
            grid.joint_stack(),
            np.asarray([r.keypoints[:, :2] for r in records]),
            np.asarray([r.keypoints[:, 2] for r in records]),
            np.asarray([r.bbox.area for r in records]),
        )
        assert sim.shape == direct.shape
        assert np.allclose(sim, direct, atol=1e-12)
        assert np.array_equal(sim == 0.0, direct == 0.0)

    @given(case=_pose_grid_cases())
    @example(case=_three_level_case(1))
    @example(case=_three_level_case(3))
    def test_pose_route_matches_brute_force_oracle(self, case):
        grid, records, anchor_joints = case
        sim = _image_similarity(grid, records, TASK_POSE_TARGETS)
        expected = brute_oks_grid(
            anchor_joints,
            [r.keypoints[:, :2] for r in records],
            [r.keypoints[:, 2] for r in records],
            [r.bbox.area for r in records],
            COCO_KAPPAS,
            EXP_FLUSH,
        )
        assert sim.shape == expected.shape
        assert np.abs(sim - expected).max() <= 1e-12
        assert np.array_equal(sim == 0.0, expected == 0.0)

    @pytest.mark.parametrize("size", [(40, 23), (72, 23)])
    @pytest.mark.parametrize("num_gts", [1, 3])
    def test_each_level_scores_as_if_alone(self, num_gts, size):
        # the levels share one exponential per axis, yet each level's rows,
        # a 1x1 or 1x2 top level's too, keep the bits of that level alone
        grid, records, _ = _three_level_case(num_gts, size)
        sim = _image_similarity(grid, records, TASK_POSE_TARGETS)
        start = 0
        for level in grid.levels:
            alone = replace(grid, levels=(level,))
            rows = _image_similarity(alone, records, TASK_POSE_TARGETS)
            assert rows.tobytes() == sim[start:start + level.num_anchors].tobytes()
            start += level.num_anchors
        assert start == len(sim)

    def test_diagonal_offset_scores_past_the_summed_cutoff(self):
        # one joint off by zx = zy = 30 on each axis: 60 > EXP_FLUSH in sum,
        # but each axis factor is below the cutoff, so every path scores
        # exp(-60) / n_vis; the other two visible joints are flushed
        grid = _single_anchor_grid()
        anchor = grid.joint_stack()[0]
        scale = 100.0
        offset = math.sqrt(30.0 * 2.0 * scale * COCO_KAPPAS[0] ** 2)
        gt = anchor.copy()
        gt[0] += offset
        gt[1:3] += 1e3
        visibility = np.zeros(NUM_JOINTS)
        visibility[:3] = 2
        record = _pose_record(gt, visibility, scale)
        expected = math.exp(-60.0) / 3
        values = (
            oks(anchor, gt, visibility, scale),
            oks_matrix(anchor[None], gt[None], visibility[None], [scale])[0, 0],
            _image_similarity(grid, [record], TASK_POSE_TARGETS)[0, 0],
        )
        for value in values:
            assert value > 0.0
            assert value == pytest.approx(expected, rel=1e-9)

    def test_underflowing_scale_rejected(self):
        # 2 * 1e-323 * kappa^2 underflows to 0: a named error, not 0 / 0
        grid = _single_anchor_grid()
        anchor = grid.joint_stack()[0]
        record = _pose_record(anchor, np.full(NUM_JOINTS, 2.0), 1e-323)
        with pytest.raises(PointSetError, match=r"OKS needs 2 \* scale \* kappa\^2"):
            _image_similarity(grid, [record], TASK_POSE_TARGETS)


class TestBenchmarkSeams:
    """The benchmark's tracer wraps ``pipeline.assign_arrays`` and
    ``pipeline._image_similarity`` by name. Its ``assignment.anchors`` sums
    the rows of each similarity assigned, its ``similarity.pairs`` the size
    of each one made, and a similarity call's first gt names the image."""

    @staticmethod
    def _counted(monkeypatch):
        """Per call, the anchors assigned and the (image, pairs) scored."""
        calls = {"assigned": [], "scored": []}
        assign, score = pipeline.assign_arrays, pipeline._image_similarity

        def counted_assign(sim, *args, **kwargs):
            calls["assigned"].append(len(sim))
            return assign(sim, *args, **kwargs)

        def counted_score(grid, gts, *args):
            sim = score(grid, gts, *args)
            calls["scored"].append((gts[0].image_id, sim.size))
            return sim

        monkeypatch.setattr(pipeline, "assign_arrays", counted_assign)
        monkeypatch.setattr(pipeline, "_image_similarity", counted_score)
        return calls

    def test_targets_assign_every_image_and_score_those_with_gts(self, tmp_path, monkeypatch):
        records, config, _ = _pinned_case("mask-image-without-gt")
        calls = self._counted(monkeypatch)
        summary = emit_targets(records, config, tmp_path / "targets.jsonl")
        with_gts = sorted({r.image_id for r in records if r.contours})
        assert [image for image, _ in calls["scored"]] == with_gts
        assert len(calls["assigned"]) == summary["images"] == len(with_gts) + 1
        assert sum(calls["assigned"]) == summary["anchors"] == summary["lines"] - 1
        grid = generate_grid(config.pyramid, records[0].image_size, MASK_MODE)
        gts = collections.Counter(r.image_id for r in records if r.contours)
        assert [pairs for _, pairs in calls["scored"]] == [
            grid.num_anchors * gts[image] for image in with_gts]

    def test_coverage_assigns_each_image_once_a_configuration(self, monkeypatch):
        # pose images, plus image 99 whose two records are contours only
        records = _pose_corpus(count=4) + [replace(r, image_id=99)
                                           for r in _contour_corpus(count=2)]
        poses = [r for r in records if r.has_keypoints]
        configs = [CoverageConfig("pose", SMALL_PYRAMID, TASK_POSE_TARGETS, _modes(poses)),
                   CoverageConfig("mask", SMALL_PYRAMID, TASK_MASK)]
        calls = self._counted(monkeypatch)
        reports = coverage_report(records, configs)
        images = sorted({r.image_id for r in records})
        pose_images = sorted({r.image_id for r in poses})
        assert [image for image, _ in calls["scored"]] == pose_images + [99]
        assert len(calls["assigned"]) == 2 * len(images)
        per_config = [calls["assigned"][:len(images)], calls["assigned"][len(images):]]
        assert [sum(anchors) for anchors in per_config] == [r.anchor_count for r in reports]
        assert all(r.anchor_count == r.positive_count + r.negative_count + r.ignore_count
                   for r in reports)


def _mixed_images(task):
    """Records of five images in two sizes holding 1, 3, 0, 3 and 1 gts of
    ``task``: images 1 and 2 share a grid, a small image follows a large one,
    and image 3's only record is of the other task."""
    own = _contour_corpus(count=8) if task == TASK_MASK else _pose_corpus(count=8)
    other = _pose_corpus(count=1) if task == TASK_MASK else _contour_corpus(count=1)
    large, small = (192, 192), (96, 64)
    layout = [(large, own[0:1]), (large, own[1:4]), (small, other), (small, own[4:7]),
              (large, own[7:8])]
    return [replace(r, image_id=image_id, image_size=size)
            for image_id, (size, records) in enumerate(layout, 1) for r in records]


def _scored(task, labelled=False):
    """``_scored_images`` over ``_mixed_images(task)`` on the small pyramid."""
    records = _mixed_images(task)
    modes = None if task == TASK_MASK else _modes([r for r in records if r.has_keypoints])
    grouped = pipeline._group_by_image(records)
    grids = pipeline._grids(grouped, task, SMALL_PYRAMID, modes)
    return pipeline._scored_images(grouped, grids, task, 0.5, 0.3, True, labelled)


class TestScoringBuffers:
    """``_scored_images`` fills one set of buffers a call for every image."""

    @pytest.mark.parametrize("labelled", [False, True])
    @pytest.mark.parametrize("task", [TASK_MASK, TASK_POSE_TARGETS])
    def test_each_image_matches_a_fresh_call(self, task, labelled):
        gt_counts = []
        for _, _, gts, grid, *arrays in _scored(task, labelled):
            sim = (_image_similarity(grid, gts, task) if gts
                   else np.empty((grid.num_anchors, 0)))
            fresh = (sim, *assign_arrays(sim, 0.5, 0.3, True,
                                         [g.class_id for g in gts] if labelled else None))
            for got, want in zip(arrays, fresh):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()
            gt_counts.append(len(gts))
        assert gt_counts == [1, 3, 0, 3, 1]

    @pytest.mark.parametrize("task", [TASK_MASK, TASK_POSE_TARGETS])
    def test_consecutive_images_of_one_grid_share_buffers(self, task):
        scored = _scored(task)
        first, second = next(scored), next(scored)
        assert first[3] is second[3]              # images 1 and 2: one grid
        for a, b in zip(first[4:], second[4:]):
            assert np.shares_memory(a, b)

    def test_out_buffers_holding_garbage_match_fresh_similarity(self):
        for task in (TASK_MASK, TASK_POSE_TARGETS):
            records = _mixed_images(task)[1:4]        # image 2's three gts
            modes = None if task == TASK_MASK else _modes(records)
            grid = generate_grid(SMALL_PYRAMID, records[0].image_size, task, modes)
            fresh = _image_similarity(grid, records, task)
            for fill in (np.nan, -7.5):
                out = np.full(fresh.shape, fill)
                assert _image_similarity(grid, records, task, out) is out
                assert out.tobytes() == fresh.tobytes()

    @given(case=_pose_grid_cases())
    @example(case=_three_level_case(3))
    def test_lattice_into_nan_buffer_matches_brute_force_oracle(self, case):
        grid, records, anchor_joints = case
        out = np.full((grid.num_anchors, len(records)), np.nan)
        sim = _image_similarity(grid, records, TASK_POSE_TARGETS, out)
        expected = brute_oks_grid(
            anchor_joints,
            [r.keypoints[:, :2] for r in records],
            [r.keypoints[:, 2] for r in records],
            [r.bbox.area for r in records],
            COCO_KAPPAS,
            EXP_FLUSH,
        )
        assert sim is out
        assert np.abs(sim - expected).max() <= 1e-12
        assert np.array_equal(sim == 0.0, expected == 0.0)

    def test_coverage_traced_peak_is_bounded(self):
        # 12 poses on images of two sizes, two configurations on the default
        # pyramid: the largest (anchors, gts) matrix is 24,552 x 2. One block
        # of buffers a call peaks at 2.47 MB; a block per grid size read
        # 2.93 MB and the fresh arrays of every image 1.95 MB.
        records = [replace(r, image_size=(256, 256) if r.image_id % 2 else (192, 160))
                   for r in _pose_corpus(count=12)]
        modes = _modes(records)
        configs = [CoverageConfig("one", PyramidConfig(), TASK_POSE_TARGETS, modes),
                   CoverageConfig("two", PyramidConfig(), TASK_POSE_TARGETS,
                                  np.concatenate([modes, 1.2 * modes]))]
        coverage_report(records, configs)             # compiles and caches what it can
        tracemalloc.start()
        try:
            coverage_report(records, configs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.7e6


class TestCoverageReport:
    def test_mask_coverage_semantics(self):
        records = _contour_corpus(count=10)
        config = CoverageConfig(name="boxes", pyramid=PyramidConfig(), task=TASK_MASK)
        [report] = coverage_report(records, [config], threshold=0.5)
        assert report.name == "boxes"
        assert report.gt_count == 10
        assert 0.0 <= report.matched_gt_fraction <= 1.0
        assert report.matched_gt_count == round(report.matched_gt_fraction * 10)
        assert sum(report.histogram) == 10
        assert report.positive_count >= 1      # force_nearest claims per gt
        assert (report.positive_count + report.negative_count
                + report.ignore_count == report.anchor_count)
        assert report.pos_neg_per_mille == pytest.approx(report.pos_neg_ratio * 1000.0)

    def test_default_pyramid_covers_synthetic_boxes(self):
        records = _contour_corpus(count=20)
        config = CoverageConfig(name="full", pyramid=PyramidConfig(), task=TASK_MASK)
        [report] = coverage_report(records, [config], threshold=0.5)
        assert report.matched_gt_fraction >= 0.9

    def test_pose_config_requires_modes(self):
        with pytest.raises(PointSetError, match="config 'pose' needs canonical_poses"):
            CoverageConfig(name="pose", task=TASK_POSE_TARGETS)

    def test_report_similarity_follows_task(self):
        # the label names the similarity the report computed, taken from the task
        mask = CoverageConfig(name="mask", pyramid=SMALL_PYRAMID, task=TASK_MASK)
        assert mask.similarity == SIMILARITY_IOU
        [report] = coverage_report(_contour_corpus(count=4), [mask])
        assert report.similarity == SIMILARITY_IOU
        records = _pose_corpus()
        pose = CoverageConfig(name="pose", pyramid=SMALL_PYRAMID,
                              task=TASK_POSE_TARGETS, canonical_poses=_modes(records))
        assert pose.similarity == SIMILARITY_OKS
        [report] = coverage_report(records, [pose])
        assert report.similarity == SIMILARITY_OKS

    def test_threshold_validated(self):
        with pytest.raises(PointSetError, match="threshold"):
            coverage_report([], [], threshold=0.0)

    def test_no_usable_records(self):
        records = _pose_corpus(count=3)   # no contours
        config = CoverageConfig(name="m", pyramid=SMALL_PYRAMID, task=TASK_MASK)
        with pytest.raises(PointSetError, match="no records usable for coverage config 'm'"):
            coverage_report(records, [config])

    def test_report_order_follows_configs(self):
        records = _contour_corpus(count=6)
        configs = [
            CoverageConfig(name="a", pyramid=SMALL_PYRAMID, task=TASK_MASK),
            CoverageConfig(name="b", pyramid=PyramidConfig(), task=TASK_MASK),
        ]
        reports = coverage_report(records, configs)
        assert [r.name for r in reports] == ["a", "b"]


# Per variant field, the values a configuration draws its list from.
_VARIANT_POOLS = {
    "octave_scales": (1.0, 2.0 ** (1.0 / 3.0), 2.0 ** (2.0 / 3.0), 1.5),
    "aspect_ratios": (0.5, 1.0, 2.0, 0.75),
    "pose_scales": POSE_SCALES_FIVE,
    "pose_rotations": POSE_ROTATIONS_FIVE,
}


@st.composite
def _growing_anchor_sets(draw):
    """(records, task, threshold, A, B) on non-square images, A and B each a
    (pyramid, canonical poses) pair. B holds A's anchors and more: it adds mask
    octaves or aspects, pose scales or rotations, or appends a pose mode."""
    task = draw(st.sampled_from([TASK_MASK, TASK_POSE_TARGETS]))
    seed, count = draw(st.integers(0, 2 ** 16)), draw(st.integers(1, 3))
    if task == TASK_MASK:
        size = draw(st.sampled_from([(160, 96), (96, 144)]))
        records = generate_synthetic_corpus(CORPUS_CONTOURS, 2, seed=seed, image_size=size,
                                            instances_per_image=count, radius_range=(10.0, 40.0))
        grown = draw(st.sampled_from(["octave_scales", "aspect_ratios"]))
    else:
        size = draw(st.sampled_from([(288, 256), (256, 320)]))
        records = generate_synthetic_corpus(CORPUS_POSES, 2, seed=seed, image_size=size,
                                            instances_per_image=count, jitter=4.0,
                                            truncation=0.5)
        grown = draw(st.sampled_from(["pose_scales", "pose_rotations", "modes"]))
    shared = {"levels": draw(st.sampled_from([((16.0, 48.0),), ((8.0, 24.0), (32.0, 96.0))])),
              "num_points": 16, **{name: pool[1:2] for name, pool in _VARIANT_POOLS.items()}}
    mean = _modes(records)[0] if task == TASK_POSE_TARGETS else None
    pool = ((center_point_shape(), rectangle_shape(), mean, 1.2 * mean) if grown == "modes"
            else _VARIANT_POOLS[grown])
    values = draw(st.permutations(range(len(pool))))
    kept = draw(st.integers(1, len(pool) - 1))
    if grown == "modes":   # one mode appended
        a, b = values[:kept], values[:kept + 1]
    else:                  # more values, anywhere in the list
        a = values[:kept]
        b = draw(st.permutations(values[:draw(st.integers(kept + 1, len(pool)))]))
    configs = []
    for chosen in (a, b):
        picked = [pool[i] for i in chosen]
        if grown == "modes":
            configs.append((PyramidConfig(**shared), np.stack(picked)))
        else:
            modes = None if mean is None else mean[None]
            configs.append((PyramidConfig(**{**shared, grown: picked}), modes))
    return records, task, draw(st.sampled_from([0.3, 0.5, 0.7])), *configs


def _best_per_gt(records, task, pyramid, modes):
    """Each gt's best similarity, in image order, from ``_scored_images``."""
    grouped = pipeline._group_by_image(records)
    grids = pipeline._grids(grouped, task, pyramid, modes)
    return np.concatenate([sim.max(axis=0) for _, _, _, _, sim, _, _, _ in
                           pipeline._scored_images(grouped, grids, task, 0.5, 0.4, True, False)])


class TestCoverageGrowsWithAnchors:
    """The paper adds scale, aspect and rotation variants, and pose modes, as
    further point-set candidates: a superset of anchors never lowers a gt's
    best similarity, so it never matches fewer gts."""

    @given(case=_growing_anchor_sets())
    def test_a_superset_never_covers_less(self, case):
        records, task, threshold, (pyramid_a, modes_a), (pyramid_b, modes_b) = case
        size = records[0].image_size
        anchors_a, anchors_b = ({anchor.tobytes() for anchor in
                                 generate_grid(pyramid, size, task, modes).points()}
                                for pyramid, modes in ((pyramid_a, modes_a), (pyramid_b, modes_b)))
        missing = anchors_a - anchors_b
        assert not missing, f"{len(missing)} of A's {len(anchors_a)} anchors are not B's"
        assert len(anchors_b) > len(anchors_a)
        best_a = _best_per_gt(records, task, pyramid_a, modes_a)
        best_b = _best_per_gt(records, task, pyramid_b, modes_b)
        assert (best_b >= best_a).all(), (best_a, best_b)
        report_a, report_b = coverage_report(
            records, [CoverageConfig("a", pyramid_a, task, modes_a),
                      CoverageConfig("b", pyramid_b, task, modes_b)], threshold)
        assert report_b.matched_gt_count >= report_a.matched_gt_count


class TestAnchorBudget:
    """Both commands make each image size's grid, within MAX_IMAGE_ANCHORS, before scoring."""

    @pytest.mark.parametrize("task", [TASK_MASK, TASK_POSE_TARGETS])
    def test_an_image_at_the_budget_passes_and_one_over_is_named(self, task, tmp_path,
                                                                  monkeypatch):
        records = _contour_corpus() if task == TASK_MASK else _pose_corpus()
        modes = None if task == TASK_MASK else _modes(records)
        count = generate_grid(SMALL_PYRAMID, records[0].image_size,
                              MASK_MODE if task == TASK_MASK else POSE_MODE, modes).num_anchors
        config = TargetConfig(pyramid=SMALL_PYRAMID, task=task)
        coverage = [CoverageConfig("budget", SMALL_PYRAMID, task, modes)]
        monkeypatch.setattr(anchors, "MAX_IMAGE_ANCHORS", count)
        assert emit_targets(records, config, tmp_path / "at.jsonl", modes)["anchors"] > count
        assert coverage_report(records, coverage)[0].anchor_count > count
        monkeypatch.setattr(anchors, "MAX_IMAGE_ANCHORS", count - 1)
        named = f"image {min(r.image_id for r in records)}: .* {count} anchors"
        out = tmp_path / "over.jsonl"
        with pytest.raises(PointSetError, match=named):
            emit_targets(records, config, out, modes)
        assert not out.exists()
        with pytest.raises(PointSetError, match=named):
            coverage_report(records, coverage)


class TestCoverageRendering:
    def _reports(self):
        records = _contour_corpus(count=6)
        config = CoverageConfig(name="mask-small", pyramid=SMALL_PYRAMID, task=TASK_MASK)
        return coverage_report(records, [config])

    def test_table_layout(self):
        table = render_coverage_table(self._reports())
        lines = table.splitlines()
        assert lines[0].startswith("config")
        assert set(lines[1]) <= {"-", " "}
        assert lines[2].startswith("mask-small")
        assert table.endswith("\n")

    def test_dict_rendering(self):
        reports = self._reports()
        doc = coverage_to_dict(reports)
        assert len(doc["reports"]) == 1
        entry = doc["reports"][0]
        assert entry["name"] == "mask-small"
        assert entry["gt_count"] == reports[0].gt_count
        json.dumps(doc)   # stays JSON-serializable
