"""Planar primitives shared across the library.

Axis-aligned boxes, closed contours, pairwise box IoU, point-in-polygon and
a rasterized mask IoU. Coordinates follow the image convention: x grows to
the right, y grows downward, and orientation is defined by the shoelace sign
(positive signed area is the stored "counter-clockwise" form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBoxError,
    DegenerateContourError,
    NonPositiveScaleError,
    PointSetError,
    TooFewVerticesError,
)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by its min and max corners."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        vals = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(math.isfinite(float(v)) for v in vals):
            raise DegenerateBoxError(f"box coordinates must be finite: {vals}")
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise DegenerateBoxError(f"box min corner exceeds max corner: {vals}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0

    def as_array(self) -> np.ndarray:
        return np.array([self.x_min, self.y_min, self.x_max, self.y_max], dtype=float)


class Contour:
    """Closed polygon with ordered vertices and positive signed area.

    Construction normalizes orientation: a negatively oriented vertex list is
    reversed in place (the first vertex stays first). Fewer than 3 vertices or
    zero signed area are construction errors. Vertices are stored as a
    read-only float64 array of shape (n, 2).
    """

    __slots__ = ("_vertices",)

    def __init__(self, vertices):
        arr = np.asarray(vertices, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise TooFewVerticesError(
                f"expected an (n, 2) vertex array, got shape {arr.shape}"
            )
        if arr.shape[0] < 3:
            raise TooFewVerticesError(f"contour needs >= 3 vertices, got {arr.shape[0]}")
        if not np.isfinite(arr).all():
            raise TooFewVerticesError("contour vertices must be finite")
        area = _shoelace(arr)
        if area == 0.0:
            raise DegenerateContourError("contour has zero signed area")
        if area < 0.0:
            arr = np.concatenate([arr[:1], arr[:0:-1]], axis=0)
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self._vertices = arr

    @property
    def vertices(self) -> np.ndarray:
        return self._vertices

    def bounds(self) -> Box:
        lo = self._vertices.min(axis=0)
        hi = self._vertices.max(axis=0)
        return Box(float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))

    def __repr__(self) -> str:
        return f"Contour({len(self._vertices)} vertices, area={_shoelace(self._vertices):.3f})"


def _shoelace(vertices: np.ndarray) -> float:
    x = vertices[:, 0]
    y = vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def signed_area(contour) -> float:
    """Shoelace signed area; positive for the stored counter-clockwise form.

    Accepts a Contour or a raw (n, 2) vertex array (which may be negatively
    oriented; the sign flips when the traversal is reversed).
    """
    if isinstance(contour, Contour):
        return _shoelace(contour.vertices)
    arr = np.asarray(contour, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise TooFewVerticesError(f"expected an (n >= 3, 2) vertex array, got shape {arr.shape}")
    return _shoelace(arr)


def box_iou_matrix(a, b) -> np.ndarray:
    """Pairwise IoU between two (n, 4) arrays of (x_min, y_min, x_max, y_max)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


def points_in_polygon(points, vertices) -> np.ndarray:
    """Crossing-number point-in-polygon test, vectorized over points.

    Points exactly on the boundary follow the half-open edge rule of the
    crossing test; the result is deterministic either way.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    v = np.asarray(vertices, dtype=float)
    x = pts[:, 0]
    y = pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    x1, y1 = v[:, 0], v[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    for i in range(len(v)):
        if y1[i] == y2[i]:
            continue
        crosses = (y1[i] > y) != (y2[i] > y)
        idx = np.nonzero(crosses)[0]
        if idx.size == 0:
            continue
        xi = x1[i] + (y[idx] - y1[i]) * (x2[i] - x1[i]) / (y2[i] - y1[i])
        inside[idx] ^= x[idx] < xi
    return inside


def rasterized_mask_iou(a: Contour, b: Contour, resolution: int = 512) -> float:
    """Mask IoU of two contours on a shared raster over their joint bounds.

    Cell centers of a resolution x resolution grid spanning the union of the
    two bounding boxes are classified against each polygon; the IoU of the two
    boolean masks is returned. Intended as a measurement/test oracle, not a
    training-path operation.
    """
    if resolution < 16:
        raise NonPositiveScaleError(f"resolution must be >= 16, got {resolution}")
    ba, bb = a.bounds(), b.bounds()
    x_min, y_min = min(ba.x_min, bb.x_min), min(ba.y_min, bb.y_min)
    x_max, y_max = max(ba.x_max, bb.x_max), max(ba.y_max, bb.y_max)
    xs = x_min + (np.arange(resolution) + 0.5) * ((x_max - x_min) / resolution)
    ys = y_min + (np.arange(resolution) + 0.5) * ((y_max - y_min) / resolution)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    mask_a = points_in_polygon(pts, a.vertices)
    mask_b = points_in_polygon(pts, b.vertices)
    union = int(np.count_nonzero(mask_a | mask_b))
    if union == 0:
        return 0.0
    inter = int(np.count_nonzero(mask_a & mask_b))
    return inter / union


def transform_points(points, center, angle_degrees: float, scale: float) -> np.ndarray:
    """Rotate then uniformly scale points about ``center``.

    The rotation is the standard shoelace-consistent one: at 90 degrees the
    point (1, 0) maps to (0, 1) about the origin. Returns a float64 array of
    the same point order.
    """
    if not (math.isfinite(scale) and scale > 0.0):
        raise NonPositiveScaleError(f"scale must be finite and > 0, got {scale}")
    pts = np.asarray(points, dtype=float)
    squeeze = pts.ndim == 1
    pts = np.atleast_2d(pts)
    cx, cy = float(center[0]), float(center[1])
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise PointSetError(f"center must be finite, got ({cx}, {cy})")
    theta = math.radians(angle_degrees)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    rel = pts - (cx, cy)
    out = np.empty_like(rel)
    out[:, 0] = (rel[:, 0] * cos_t - rel[:, 1] * sin_t) * scale + cx
    out[:, 1] = (rel[:, 0] * sin_t + rel[:, 1] * cos_t) * scale + cy
    return out[0] if squeeze else out
