"""Feature-space reference math: shape-indexed coordinates and bilinear sampling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError, NonPositiveScaleError, PointSetError


@dataclass(frozen=True, eq=False)
class FeatureGrid:
    """A (H, W, C) feature map with its pixel stride."""

    values: np.ndarray
    stride: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 2:
            values = values[:, :, None]
        if values.ndim != 3 or values.shape[0] < 1 or values.shape[1] < 1:
            raise LengthMismatchError(f"values must be (H, W, C), got shape {values.shape}")
        if not np.isfinite(values).all():
            raise PointSetError("feature values must be finite")
        if not self.stride > 0.0:
            raise NonPositiveScaleError(f"stride must be > 0, got {self.stride}")
        object.__setattr__(self, "values", values)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def channels(self) -> int:
        return self.values.shape[2]


def shape_indexed_coords(points, stride: float) -> np.ndarray:
    """Map (n, 2) anchor points or joints from pixel space to feature-grid coordinates.

    A pixel point p sits at grid coordinate p / stride - 0.5, so the center
    of feature cell (row, col) maps back to exactly (col, row).
    """
    if not stride > 0.0:
        raise NonPositiveScaleError(f"stride must be > 0, got {stride}")
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise LengthMismatchError(f"expected (n, 2) points, got shape {points.shape}")
    return points / stride - 0.5


def bilinear_sample(grid: FeatureGrid, coords) -> np.ndarray:
    """Bilinearly interpolate grid values at (x, y) grid coordinates.

    Coordinates are clamped to the border (values outside [0, W-1] x
    [0, H-1] read the nearest edge texel). Returns an (n, C) array.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise LengthMismatchError(f"expected (n, 2) coords, got shape {coords.shape}")
    if not np.isfinite(coords).all():
        raise PointSetError("sample coordinates must be finite")
    h, w = grid.height, grid.width
    x = np.clip(coords[:, 0], 0.0, w - 1.0)
    y = np.clip(coords[:, 1], 0.0, h - 1.0)
    x0 = np.floor(x).astype(int)
    y0 = np.floor(y).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (x - x0)[:, None]
    fy = (y - y0)[:, None]
    v00 = grid.values[y0, x0]
    v01 = grid.values[y0, x1]
    v10 = grid.values[y1, x0]
    v11 = grid.values[y1, x1]
    top = v00 * (1.0 - fx) + v01 * fx
    bottom = v10 * (1.0 - fx) + v11 * fx
    return top * (1.0 - fy) + bottom * fy
