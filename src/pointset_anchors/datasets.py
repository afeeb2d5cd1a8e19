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
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .anchors import NUM_JOINTS
from .errors import DegenerateContourError, MalformedDocumentError, TooFewVerticesError, is_numbers
from .geometry import Box, Contour


@dataclass
class InstanceRecord:
    """One object instance: class, box, optional contours and keypoints."""

    image_id: int
    image_size: tuple[int, int]          # (width, height) in pixels
    class_id: int
    bbox: Box
    contours: tuple[Contour, ...] = ()
    keypoints: np.ndarray | None = None  # (17, 3) rows of (x, y, visibility)
    out_of_bounds: bool = False

    @property
    def has_keypoints(self) -> bool:
        return self.keypoints is not None and bool((self.keypoints[:, 2] > 0).any())

    def visible_mask(self) -> np.ndarray:
        if self.keypoints is None:
            return np.zeros(NUM_JOINTS, dtype=bool)
        return self.keypoints[:, 2] > 0

    def largest_contour(self) -> Contour | None:
        """The matching contour of a multi-part instance: largest by area."""
        if not self.contours:
            return None
        from .geometry import signed_area

        return max(self.contours, key=lambda c: abs(signed_area(c)))


@dataclass
class ParseStats:
    """Counters accumulated while parsing; diagnostics, not data output."""

    images: int = 0
    annotations: int = 0
    records: int = 0
    rejected_rle: int = 0
    rejected_crowd: int = 0
    dropped_polygons: int = 0
    out_of_bounds: int = 0


@dataclass
class ParseResult:
    records: list[InstanceRecord] = field(default_factory=list)
    stats: ParseStats = field(default_factory=ParseStats)


def _require(condition: bool, context: str, message: str) -> None:
    if not condition:
        raise MalformedDocumentError(f"{context}: {message}")


def _finite_numbers(value, length=None) -> bool:
    """Whether ``value`` is a list of finite numbers, of ``length`` when given."""
    return is_numbers(value, length) and all(map(math.isfinite, value))


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
                 f"'segmentation' polygon {poly_idx} must be finite numbers")
        _require(len(flat) % 2 == 0, context, f"polygon {poly_idx} has an odd value count")
        vertices = np.asarray(flat, dtype=float).reshape(-1, 2)
        vertices = _dedup_consecutive(vertices)
        if len(vertices) < 3:
            stats.dropped_polygons += 1
            continue
        try:
            contours.append(Contour(vertices))
        except (TooFewVerticesError, DegenerateContourError):
            stats.dropped_polygons += 1
    return tuple(contours)


def _record_out_of_bounds(record: InstanceRecord) -> bool:
    w, h = record.image_size

    def outside(points: np.ndarray) -> bool:
        return bool((points[:, 0] < 0).any() or (points[:, 1] < 0).any()
                    or (points[:, 0] > w).any() or (points[:, 1] > h).any())

    if outside(np.asarray([[record.bbox.x_min, record.bbox.y_min],
                           [record.bbox.x_max, record.bbox.y_max]])):
        return True
    for contour in record.contours:
        if outside(contour.vertices):
            return True
    if record.keypoints is not None:
        visible = record.keypoints[:, 2] > 0
        if visible.any() and outside(record.keypoints[visible, :2]):
            return True
    return False


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
    except json.JSONDecodeError as err:
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
        _require(image["width"] > 0 and image["height"] > 0, context,
                 "width and height must be positive")
        _require(image["id"] not in sizes, context, f"repeats image id {image['id']}")
        sizes[image["id"]] = (image["width"], image["height"])
    result.stats.images = len(sizes)

    for i, ann in enumerate(doc["annotations"]):
        context = f"annotations[{i}]"
        _require(isinstance(ann, dict), context, "must be an object")
        result.stats.annotations += 1
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
                 "'bbox' must be [x, y, width, height] finite numbers")
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
                     f"'keypoints' must hold {NUM_JOINTS * 3} finite numbers")
            keypoints = np.asarray(flat, dtype=float).reshape(NUM_JOINTS, 3)

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
        record.out_of_bounds = _record_out_of_bounds(record)
        if record.out_of_bounds:
            result.stats.out_of_bounds += 1
        result.records.append(record)
    result.stats.records = len(result.records)
    return result
