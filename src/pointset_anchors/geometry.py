"""Planar primitives shared across the library.

Axis-aligned boxes, closed contours, pairwise box IoU, point-in-polygon and
a rasterized mask IoU. Coordinates follow the image convention: x grows to
the right, y grows downward, and orientation is defined by the shoelace sign
(positive signed area is the stored "counter-clockwise" form).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PointSetError, check_at_least


class Box:
    """Axis-aligned box given by its min and max corners; boxes of equal corners are equal."""

    __slots__ = ("x_min", "y_min", "x_max", "y_max")

    def __init__(self, x_min: float, y_min: float, x_max: float, y_max: float):
        vals = (x_min, y_min, x_max, y_max)
        if not all(math.isfinite(float(v)) for v in vals):
            raise PointSetError(f"box coordinates must be finite: {vals}")
        if x_min > x_max or y_min > y_max:
            raise PointSetError(f"box min corner exceeds max corner: {vals}")
        self.x_min, self.y_min, self.x_max, self.y_max = vals

    def _key(self) -> tuple:
        return self.x_min, self.y_min, self.x_max, self.y_max

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is Box else NotImplemented

    def __repr__(self) -> str:
        return "Box(x_min={!r}, y_min={!r}, x_max={!r}, y_max={!r})".format(*self._key())

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
    read-only float64 array of shape (n, 2), and their shoelace once as ``area``.
    """

    __slots__ = ("_vertices", "area")

    def __init__(self, vertices):
        arr = np.asarray(vertices, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise PointSetError(f"expected an (n, 2) vertex array, got shape {arr.shape}")
        if arr.shape[0] < 3:
            raise PointSetError(f"contour needs >= 3 vertices, got {arr.shape[0]}")
        if not np.isfinite(arr).all():
            raise PointSetError("contour vertices must be finite")
        area = _shoelace(arr)
        if area == 0.0:
            raise PointSetError("contour has zero signed area")
        if area < 0.0:   # re-summed, not negated: the reversed order can round differently
            arr = np.concatenate([arr[:1], arr[:0:-1]], axis=0)
            area = _shoelace(arr)
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        self._vertices, self.area = arr, area

    @property
    def vertices(self) -> np.ndarray:
        return self._vertices

    def bounds(self) -> Box:
        lo = self._vertices.min(axis=0)
        hi = self._vertices.max(axis=0)
        return Box(float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))

    def __repr__(self) -> str:
        return f"Contour({len(self._vertices)} vertices, area={self.area:.3f})"


def _shoelace(vertices: np.ndarray) -> float:
    x = vertices[:, 0]
    y = vertices[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def box_iou_matrix(a, b, out=None) -> np.ndarray:
    """Pairwise IoU between two (n, 4) arrays of (x_min, y_min, x_max, y_max),
    written into ``out`` when given, an (n_a, n_b) array."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(iw, 0.0, None) * np.clip(ih, 0.0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.empty_like(inter) if out is None else out
    out.fill(0.0)
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
    check_at_least(("resolution", resolution, 16))
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


def transform_points(points, center, angle_degrees, scale) -> np.ndarray:
    """Rotate then uniformly scale points about ``center``.

    The rotation is the standard shoelace-consistent one: at 90 degrees the
    point (1, 0) maps to (0, 1) about the origin. ``angle_degrees`` and
    ``scale`` broadcast to a variant shape V; the float64 result has shape V +
    the points' shape, each variant the bytes of a call with its one angle and scale.
    """
    angles, scales = np.asarray(angle_degrees, dtype=float), np.asarray(scale, dtype=float)
    if not (np.isfinite(scales) & (scales > 0.0)).all():
        raise PointSetError(f"scale must be finite and > 0, got {scale}")
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1:] != (2,):
        raise PointSetError(f"points must be (x, y) pairs, got shape {pts.shape}")
    cx, cy = float(center[0]), float(center[1])
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise PointSetError(f"center must be finite, got ({cx}, {cy})")
    if not np.isfinite(angles).all():
        raise PointSetError(f"angle_degrees must be finite, got {angle_degrees}")
    tail = (1,) * (pts.ndim - 1)   # variant axes lead, point axes follow
    cos_t, sin_t = (np.reshape([f(math.radians(a)) for a in angles.ravel().tolist()],
                               angles.shape + tail) for f in (math.cos, math.sin))
    scales = scales.reshape(scales.shape + tail)
    x, y = np.moveaxis(pts - (cx, cy), -1, 0)
    return np.stack([(x * cos_t - y * sin_t) * scales + cx,
                     (x * sin_t + y * cos_t) * scales + cy], axis=-1)
