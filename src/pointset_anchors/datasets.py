"""COCO-style annotation parsing into in-memory instance records.

Supported payloads per annotation: a bbox ([x, y, w, h], converted to corner
form), polygon segmentations (flat [x0, y0, x1, y1, ...] lists) and 17-joint
keypoint triples. RLE segmentations and crowd annotations are out of scope
and dropped with a counter; polygons with fewer than 3 points or zero area
are dropped individually. Out-of-bounds coordinates are tolerated and
flagged, never clamped.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .anchors import NUM_JOINTS
from .errors import MAX_MAGNITUDE, MalformedDocumentError, PointSetError, is_numbers
from .geometry import Box, Contour

# The synthetic corpus kinds and pose figure heights (px), stated here and not
# in synthetic so that building the CLI's parser loads no generator.
CORPUS_CONTOURS = "contours"
CORPUS_POSES = "poses"
POSE_SCALE_RANGE = (64.0, 160.0)

# How far, in multiples of its bbox's longer side, a visible joint may lie from
# the bbox centre. Pose normalization divides by that side, so this bounds a
# normalized joint; a bbox drawn round the person puts every joint within 0.5.
MAX_JOINT_REACH = 4.0


def min_pose_image_side(scale_range=POSE_SCALE_RANGE) -> int:
    """The smallest image side, px, that fits figures up to ``scale_range[1]`` tall.

    A figure may reach 0.75 x its height from its centre in any direction,
    so both sides must exceed 1.5 x the tallest height.
    """
    return int(1.5 * scale_range[1]) + 1


class InstanceRecord:
    """One object instance: class, box, optional contours and keypoints."""

    __slots__ = ("image_id", "image_size", "class_id", "bbox", "contours", "keypoints")

    def __init__(self, image_id: int, image_size: tuple[int, int], class_id: int, bbox: Box,
                 contours: tuple[Contour, ...] = (), keypoints: np.ndarray | None = None):
        self.image_id, self.class_id, self.bbox, self.contours = image_id, class_id, bbox, contours
        self.image_size = image_size          # (width, height) in pixels
        self.keypoints = keypoints            # (17, 3) rows of (x, y, visibility)

    @property
    def has_keypoints(self) -> bool:
        return self.keypoints is not None and bool((self.keypoints[:, 2] > 0).any())

    def visible_mask(self) -> np.ndarray:
        if self.keypoints is None:
            return np.zeros(NUM_JOINTS, dtype=bool)
        return self.keypoints[:, 2] > 0

    @property
    def out_of_bounds(self) -> bool:
        """Whether a box corner, contour vertex or visible joint lies outside the image."""
        points = [np.reshape(self.bbox.as_array(), (2, 2))]
        points += [contour.vertices for contour in self.contours]
        if self.keypoints is not None:
            points.append(self.keypoints[self.visible_mask(), :2])
        points = np.concatenate(points)
        return bool(((points < 0) | (points > self.image_size)).any())

    def largest_contour(self) -> Contour | None:
        """The matching contour of a multi-part instance: largest by area."""
        if not self.contours:
            return None
        return max(self.contours, key=lambda c: c.area)


class ParseStats:
    """Counters accumulated while parsing, each from 0; diagnostics, not data output."""

    __slots__ = ("images", "annotations", "records", "rejected_rle", "rejected_crowd",
                 "dropped_polygons", "out_of_bounds")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)


class ParseResult:
    """The parsed records, in document order, and the parse's counters."""

    __slots__ = ("records", "stats")

    def __init__(self):
        self.records: list[InstanceRecord] = []
        self.stats = ParseStats()


def _require(condition: bool, context: str, message: str) -> None:
    if not condition:
        raise MalformedDocumentError(f"{context}: {message}")


def _finite_numbers(value, length=None) -> bool:
    """Whether ``value`` is a list of numbers of size <= MAX_MAGNITUDE, of ``length`` if given."""
    return is_numbers(value, length) and all(map(MAX_MAGNITUDE.__ge__, map(abs, value)))


def _dedup_consecutive(vertices: np.ndarray) -> np.ndarray:
    if len(vertices) < 2:
        return vertices
    keep = np.ones(len(vertices), dtype=bool)
    keep[1:] = (vertices[1:] != vertices[:-1]).any(axis=1)
    out = vertices[keep]
    if len(out) > 1 and (out[0] == out[-1]).all():
        out = out[:-1]
    return out


def _parse_polygons(segmentation, context: str, stats: ParseStats) -> tuple[Contour, ...]:
    _require(isinstance(segmentation, list), context, "polygon segmentation must be a list")
    contours = []
    for poly_idx, flat in enumerate(segmentation):
        _require(_finite_numbers(flat), context,
                 f"'segmentation' polygon {poly_idx} must be finite numbers of size <= 2**500")
        _require(len(flat) % 2 == 0, context, f"polygon {poly_idx} has an odd value count")
        vertices = np.asarray(flat, dtype=float).reshape(-1, 2)
        try:   # fewer than 3 distinct vertices, or zero area
            contours.append(Contour(_dedup_consecutive(vertices)))
        except PointSetError:
            stats.dropped_polygons += 1
    return tuple(contours)


def parse_annotations(path) -> ParseResult:
    """Parse a COCO-style JSON document into instance records.

    Raises FileNotFoundError for a missing path and MalformedDocumentError
    (naming the offending field) for structural problems. Unsupported
    payloads are counted in the result's stats rather than raised.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"annotation document not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except (ValueError, RecursionError) as err:   # ValueError: also a byte that is not UTF-8
        raise MalformedDocumentError(f"{path}: not valid JSON ({err})") from err

    _require(isinstance(doc, dict), str(path), "top level must be an object")
    for key in ("images", "annotations"):
        _require(key in doc, str(path), f"missing top-level key {key!r}")
        _require(isinstance(doc[key], list), str(path), f"{key!r} must be a list")

    result = ParseResult()
    sizes: dict[int, tuple[int, int]] = {}
    for i, image in enumerate(doc["images"]):
        context = f"images[{i}]"
        _require(isinstance(image, dict), context, "must be an object")
        for key in ("id", "width", "height"):
            _require(key in image, context, f"missing key {key!r}")
            _require(type(image[key]) is int, context, f"{key!r} must be an integer")
        _require(0 < image["width"] <= MAX_MAGNITUDE and 0 < image["height"] <= MAX_MAGNITUDE,
                 context, "width and height must be positive and <= 2**500")
        _require(image["id"] not in sizes, context, f"repeats image id {image['id']}")
        sizes[image["id"]] = (image["width"], image["height"])
    result.stats.images = len(sizes)

    annotation_ids: set[int] = set()
    for i, ann in enumerate(doc["annotations"]):
        context = f"annotations[{i}]"
        _require(isinstance(ann, dict), context, "must be an object")
        result.stats.annotations += 1
        if "id" in ann:
            _require(type(ann["id"]) is int, context, "'id' must be an integer")
            _require(ann["id"] not in annotation_ids, context, f"repeats annotation id {ann['id']}")
            annotation_ids.add(ann["id"])
        _require("image_id" in ann, context, "missing key 'image_id'")
        image_id = ann["image_id"]
        _require(type(image_id) is int and image_id in sizes, context,
                 f"unknown image_id {image_id!r}")

        if ann.get("iscrowd", 0):
            result.stats.rejected_crowd += 1
            continue
        segmentation = ann.get("segmentation")
        if isinstance(segmentation, dict):
            # run-length masks are out of scope
            result.stats.rejected_rle += 1
            continue

        _require("bbox" in ann, context, "missing key 'bbox'")
        bbox = ann["bbox"]
        _require(_finite_numbers(bbox, 4), context,
                 "'bbox' must be [x, y, width, height] finite numbers of size <= 2**500")
        x, y, w, h = (float(v) for v in bbox)
        _require(w >= 0 and h >= 0, context, "bbox width/height must be >= 0")
        box = Box(x, y, x + w, y + h)

        contours: tuple[Contour, ...] = ()
        if segmentation is not None:
            contours = _parse_polygons(segmentation, context, result.stats)

        keypoints = None
        if "keypoints" in ann:
            flat = ann["keypoints"]
            _require(_finite_numbers(flat, NUM_JOINTS * 3), context,
                     f"'keypoints' must hold {NUM_JOINTS * 3} finite numbers of size <= 2**500")
            keypoints = np.asarray(flat, dtype=float).reshape(NUM_JOINTS, 3)
            reach = np.abs(keypoints[keypoints[:, 2] > 0, :2] - box.center).max(initial=0.0)
            _require(reach <= MAX_JOINT_REACH * max(w, h), context,
                     f"a visible keypoint lies {reach:.6g} px from the bbox centre, over "
                     f"{MAX_JOINT_REACH:g} x the bbox's longer side ({max(w, h):.6g} px)")

        class_id = ann.get("category_id", 1)
        _require(type(class_id) is int, context, "'category_id' must be an integer")
        record = InstanceRecord(
            image_id=image_id,
            image_size=sizes[image_id],
            class_id=class_id,
            bbox=box,
            contours=contours,
            keypoints=keypoints,
        )
        if record.out_of_bounds:
            result.stats.out_of_bounds += 1
        result.records.append(record)
    result.stats.records = len(result.records)
    return result
