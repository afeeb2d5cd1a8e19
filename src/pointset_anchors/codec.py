"""Decoding predicted offsets back into shapes, candidate selection and NMS."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import LengthMismatchError, PointSetError, TooFewValidPointsError
from .geometry import Box, Contour, box_iou_matrix

DEFAULT_NMS_THRESHOLD = 0.5


def _points_and_valid(points, valid) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise LengthMismatchError(f"expected an (n, 2) point array, got shape {pts.shape}")
    if valid is None:
        flags = np.ones(len(pts), dtype=bool)
    else:
        flags = np.asarray(valid, dtype=bool)
        if flags.shape != (len(pts),):
            raise LengthMismatchError(
                f"valid flags must have shape ({len(pts)},), got {flags.shape}"
            )
    return pts, flags


def decode_points(anchor_points, offsets, valid=None) -> tuple[np.ndarray, np.ndarray]:
    """Add offsets to anchor points where valid; pass invalid entries through.

    Returns (points, valid): invalid rows keep the anchor point coordinates
    and stay flagged so downstream construction can drop them.
    """
    anchor_points, flags = _points_and_valid(anchor_points, valid)
    offsets = np.asarray(offsets, dtype=float)
    if offsets.shape != anchor_points.shape:
        raise LengthMismatchError(
            f"offsets shape {offsets.shape} != anchor points shape {anchor_points.shape}"
        )
    decoded = np.where(flags[:, None], anchor_points + offsets, anchor_points)
    return decoded, flags.copy()


def construct_mask(points, valid=None, strategy: str | None = None) -> Contour:
    """Connect the valid points, in anchor order, into a closed contour.

    ``strategy`` is an optional provenance tag; it does not change the rule.
    Raises TooFewValidPointsError below 3 valid points.
    """
    pts, flags = _points_and_valid(points, valid)
    kept = pts[flags]
    if len(kept) < 3:
        raise TooFewValidPointsError(
            f"mask construction needs >= 3 valid points, got {len(kept)}"
        )
    return Contour(kept)


@dataclass(frozen=True)
class Detection:
    """One scored candidate: a shape, its class, and an optional box output.

    ``shape`` is a Contour (mask), a (17, 2) joint array (pose) or a Box.
    ``box`` is the bounding-box head output when the model has one; NMS falls
    back to the min/max box of the shape's points otherwise.
    """

    score: float
    class_id: int
    shape: object
    box: Box | None = None
    anchor_ref: object = None

    def __post_init__(self):
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise PointSetError(f"score must be a finite value in [0, 1], got {self.score}")

    def bounding_box(self) -> Box:
        if self.box is not None:
            return self.box
        if isinstance(self.shape, Box):
            return self.shape
        if isinstance(self.shape, Contour):
            return self.shape.bounds()
        joints = np.asarray(self.shape, dtype=float)
        return Box(*joints.min(axis=0).tolist(), *joints.max(axis=0).tolist())


def nms(detections: Sequence[Detection],
        iou_threshold: float = DEFAULT_NMS_THRESHOLD) -> list[int]:
    """Greedy non-maximum suppression; returns kept indices, best first.

    Candidates are visited in score-descending order (ties by input index);
    one is kept iff its box IoU with every previously kept detection of the
    same class is <= ``iou_threshold``. Boxes come from
    ``Detection.bounding_box``.
    """
    if not (0.0 <= iou_threshold <= 1.0):
        raise PointSetError(f"iou_threshold must be in [0, 1], got {iou_threshold}")
    if len(detections) == 0:
        return []
    boxes = np.asarray([det.bounding_box().as_array() for det in detections])
    classes = np.asarray([det.class_id for det in detections])
    scores = [det.score for det in detections]
    order = sorted(range(len(detections)), key=lambda i: (-scores[i], i))

    # Pairwise IoU once, then walk in score order suppressing forward. A
    # candidate is dropped iff it overlaps an already-kept same-class one,
    # exactly as if each were checked against the kept list in turn.
    iou = box_iou_matrix(boxes, boxes)

    kept: list[int] = []
    suppressed = np.zeros(len(detections), dtype=bool)
    for i in order:
        if suppressed[i]:
            continue
        kept.append(i)
        suppressed |= (iou[i] > iou_threshold) & (classes == classes[i])
    return kept
