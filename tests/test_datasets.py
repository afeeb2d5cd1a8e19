import json

import numpy as np
import pytest

from pointset_anchors.datasets import InstanceRecord, parse_annotations
from pointset_anchors.errors import MalformedDocumentError
from pointset_anchors.geometry import Box, Contour


def _doc(annotations, images=None):
    if images is None:
        images = [{"id": 1, "width": 100, "height": 80}]
    return {"images": images, "annotations": annotations}


def _write(tmp_path, doc):
    path = tmp_path / "ann.json"
    path.write_text(json.dumps(doc))
    return path


SQUARE = [10.0, 10.0, 40.0, 10.0, 40.0, 40.0, 10.0, 40.0]


class TestParse:
    def test_minimal_polygon_instance(self, tmp_path):
        ann = {
            "image_id": 1,
            "category_id": 3,
            "bbox": [10, 10, 30, 30],
            "segmentation": [SQUARE],
        }
        result = parse_annotations(_write(tmp_path, _doc([ann])))
        assert len(result.records) == 1
        record = result.records[0]
        assert record.image_id == 1
        assert record.image_size == (100, 80)
        assert record.class_id == 3
        assert record.bbox == Box(10.0, 10.0, 40.0, 40.0)
        assert len(record.contours) == 1
        assert record.contours[0].vertices.shape == (4, 2)
        assert record.keypoints is None
        assert not record.has_keypoints
        assert not record.out_of_bounds
        assert result.stats.images == 1
        assert result.stats.annotations == 1
        assert result.stats.records == 1

    def test_keypoints_parsed(self, tmp_path):
        flat = [0.0, 0.0, 0.0] * 17
        flat[0:3] = [25.0, 30.0, 2.0]
        ann = {"image_id": 1, "bbox": [10, 10, 30, 30], "keypoints": flat}
        result = parse_annotations(_write(tmp_path, _doc([ann])))
        record = result.records[0]
        assert record.keypoints.shape == (17, 3)
        assert record.has_keypoints
        assert record.visible_mask().sum() == 1
        assert record.keypoints[0].tolist() == [25.0, 30.0, 2.0]
        # category_id defaults to 1 when absent
        assert record.class_id == 1

    def test_rle_segmentation_rejected(self, tmp_path):
        ann = {
            "image_id": 1,
            "bbox": [0, 0, 10, 10],
            "segmentation": {"counts": "abc", "size": [80, 100]},
        }
        result = parse_annotations(_write(tmp_path, _doc([ann])))
        assert len(result.records) == 0
        assert result.stats.rejected_rle == 1
        assert result.stats.annotations == 1

    def test_crowd_rejected(self, tmp_path):
        ann = {"image_id": 1, "bbox": [0, 0, 10, 10], "iscrowd": 1,
               "segmentation": [SQUARE]}
        result = parse_annotations(_write(tmp_path, _doc([ann])))
        assert len(result.records) == 0
        assert result.stats.rejected_crowd == 1

    def test_degenerate_polygon_dropped_record_survives(self, tmp_path):
        # one real part plus a two-point sliver: record keeps the good part
        ann = {
            "image_id": 1,
            "bbox": [10, 10, 30, 30],
            "segmentation": [SQUARE, [1.0, 1.0, 2.0, 2.0]],
        }
        result = parse_annotations(_write(tmp_path, _doc([ann])))
        assert len(result.records) == 1
        assert len(result.records[0].contours) == 1
        assert result.stats.dropped_polygons == 1

    def test_duplicate_and_closing_vertices_removed(self, tmp_path):
        closed = SQUARE + [10.0, 10.0]
        ann = {"image_id": 1, "bbox": [10, 10, 30, 30], "segmentation": [closed]}
        result = parse_annotations(_write(tmp_path, _doc([ann])))
        assert result.records[0].contours[0].vertices.shape == (4, 2)

    def test_out_of_bounds_flagged_not_clamped(self, tmp_path):
        ann = {"image_id": 1, "bbox": [90, 70, 30, 30]}
        result = parse_annotations(_write(tmp_path, _doc([ann])))
        record = result.records[0]
        assert record.out_of_bounds
        assert record.bbox.x_max == 120.0
        assert result.stats.out_of_bounds == 1

    def test_invisible_keypoints_do_not_trip_bounds(self, tmp_path):
        flat = [0.0, 0.0, 0.0] * 17
        flat[0:3] = [500.0, 500.0, 0.0]   # marked invisible, coords ignored
        flat[3:6] = [20.0, 20.0, 2.0]
        flat[6:9] = [30.0, 20.0, 2.0]
        ann = {"image_id": 1, "bbox": [10, 10, 30, 30], "keypoints": flat}
        result = parse_annotations(_write(tmp_path, _doc([ann])))
        assert not result.records[0].out_of_bounds

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_annotations(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(MalformedDocumentError, match="not valid JSON"):
            parse_annotations(path)

    def test_error_names_offending_field(self, tmp_path):
        ann = {"image_id": 1, "bbox": [0, 0, 10]}
        with pytest.raises(MalformedDocumentError, match=r"annotations\[0\].*bbox"):
            parse_annotations(_write(tmp_path, _doc([ann])))

    def test_unknown_image_id(self, tmp_path):
        ann = {"image_id": 99, "bbox": [0, 0, 10, 10]}
        with pytest.raises(MalformedDocumentError, match="unknown image_id"):
            parse_annotations(_write(tmp_path, _doc([ann])))

    def test_unhashable_image_id(self, tmp_path):
        ann = {"image_id": [1], "bbox": [0, 0, 10, 10]}
        with pytest.raises(MalformedDocumentError, match=r"annotations\[0\]: unknown image_id"):
            parse_annotations(_write(tmp_path, _doc([ann])))

    def test_bad_keypoint_count(self, tmp_path):
        ann = {"image_id": 1, "bbox": [0, 0, 10, 10], "keypoints": [1.0, 2.0, 2.0]}
        with pytest.raises(MalformedDocumentError, match="keypoints"):
            parse_annotations(_write(tmp_path, _doc([ann])))

    def test_missing_top_level_key(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps({"images": []}))
        with pytest.raises(MalformedDocumentError, match="annotations"):
            parse_annotations(path)

    @pytest.mark.parametrize("field, value", [
        ("bbox", ["a", 0, 1, 1]),
        ("bbox", [0, None, 1, 1]),
        ("bbox", [0, 0, True, 1]),
        ("keypoints", [0.0] * 50 + ["2"]),
        ("segmentation", [SQUARE[:-1] + ["x"]]),
        ("segmentation", [[[10, 10], [40, 10], [40, 40], [10, 40]]]),
        ("category_id", "x"),
        ("category_id", 1.5),
    ], ids=["bbox-str", "bbox-null", "bbox-bool", "keypoints-str", "polygon-str",
            "polygon-nested", "category-str", "category-float"])
    def test_non_numeric_field_named(self, tmp_path, field, value):
        ann = {"image_id": 1, "bbox": [10, 10, 30, 30], field: value}
        doc = _doc([{"image_id": 1, "bbox": [0, 0, 5, 5]}, ann])
        with pytest.raises(MalformedDocumentError, match=rf"annotations\[1\]: '{field}'"):
            parse_annotations(_write(tmp_path, doc))

    @pytest.mark.parametrize("field, value", [
        ("bbox", [float("nan"), 10, 30, 30]),
        ("bbox", [10, 10, float("inf"), 30]),
        ("keypoints", [float("inf")] + [0] * 50),
        ("segmentation", [[10, 10, 40, float("nan"), 40, 40, 10, 40]]),
    ], ids=["bbox-nan", "bbox-inf", "keypoints-inf", "polygon-nan"])
    def test_non_finite_field_named(self, tmp_path, field, value):
        ann = {"image_id": 1, "bbox": [10, 10, 30, 30], field: value}
        doc = _doc([{"image_id": 1, "bbox": [0, 0, 5, 5]}, ann])
        with pytest.raises(MalformedDocumentError,
                           match=rf"annotations\[1\]: '{field}'.* finite numbers"):
            parse_annotations(_write(tmp_path, doc))


class TestInstanceRecordHelpers:
    def test_largest_contour(self):
        small = Contour([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        big = Contour([(0.0, 0.0), (5.0, 0.0), (5.0, 5.0), (0.0, 5.0)])
        record = InstanceRecord(
            image_id=1, image_size=(10, 10), class_id=1,
            bbox=Box(0.0, 0.0, 5.0, 5.0), contours=(small, big),
        )
        assert record.largest_contour() is big

    def test_largest_contour_none_without_parts(self):
        record = InstanceRecord(
            image_id=1, image_size=(10, 10), class_id=1,
            bbox=Box(0.0, 0.0, 5.0, 5.0),
        )
        assert record.largest_contour() is None
        assert record.visible_mask().any() == False  # noqa: E712

    def test_has_keypoints_requires_visibility(self):
        kp = np.zeros((17, 3))
        record = InstanceRecord(
            image_id=1, image_size=(10, 10), class_id=1,
            bbox=Box(0.0, 0.0, 5.0, 5.0), keypoints=kp,
        )
        assert not record.has_keypoints
