"""Point-set anchor synthesis and feature-pyramid tiling.

A mask anchor is an ordered set of n points sampled on the perimeter of an
implicit box (n divisible by 4, traversal clockwise in image coordinates from
the top-left corner). A pose anchor is an ordered set of 17 joints obtained by
placing a canonical pose at a location and applying a scale/rotation variant
about its joint centroid. ``generate_grid`` tiles either kind over a feature
pyramid: one anchor set per (level, row, col, slot). Both kinds are held in
one form, a ``LevelGrid`` per level: a per-slot template of points about the
location centre (box corners, or joints), placed at every location.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import (
    BadPointCountError,
    DegenerateBoxError,
    JointCountMismatchError,
    MalformedDocumentError,
    MissingCanonicalPosesError,
    NonPositiveScaleError,
    PointSetError,
    check_fields,
    is_numbers,
)
from .geometry import transform_points

NUM_JOINTS = 17

DEFAULT_LEVELS = ((8.0, 32.0), (16.0, 64.0), (32.0, 128.0), (64.0, 256.0), (128.0, 512.0))
DEFAULT_OCTAVE_SCALES = (1.0, 2.0 ** (1.0 / 3.0), 2.0 ** (2.0 / 3.0))
DEFAULT_ASPECT_RATIOS = (0.5, 1.0, 2.0)

POSE_SCALES_FIVE = (0.6, 0.8, 1.0, 1.2, 1.4)
POSE_ROTATIONS_FIVE = (-20.0, -10.0, 0.0, 10.0, 20.0)
DEFAULT_POSE_SCALES = POSE_SCALES_FIVE[1:4]
DEFAULT_POSE_ROTATIONS = POSE_ROTATIONS_FIVE[1:4]

MASK_MODE = "mask"
POSE_MODE = "pose"


def sample_box_perimeters(boxes, n: int) -> tuple[np.ndarray, tuple[int, int, int, int]]:
    """Sample ``n`` points on each (x_min, y_min, x_max, y_max) row's perimeter.

    Points run clockwise from the top-left. Each side carries n/4 points at
    parameter i * side_length / (n / 4), i = 0 .. n/4 - 1, so the four box
    corners land exactly at indices 0, n/4, n/2 and 3n/4 (top-left,
    top-right, bottom-right, bottom-left). n must be a positive multiple of
    4 and every row needs positive width and height.

    Returns:
        (points, corner_indices): float64 array of shape (len(boxes), n, 2)
        and the four corner positions within each row.
    """
    if n < 4 or n % 4 != 0:
        raise BadPointCountError(f"point count must be a positive multiple of 4, got {n}")
    x0, y0, x1, y1 = (boxes[:, i, None] for i in range(4))
    if not ((x1 > x0) & (y1 > y0)).all():
        raise DegenerateBoxError("cannot sample the perimeter of a box without positive extent")
    per_side = n // 4
    t = np.arange(per_side, dtype=float) / per_side
    run_x, run_y = t * (x1 - x0), t * (y1 - y0)
    x = np.concatenate(np.broadcast_arrays(x0 + run_x, x1, x1 - run_x, x0), axis=1)
    y = np.concatenate(np.broadcast_arrays(y0, y0 + run_y, y1, y1 - run_y), axis=1)
    return np.stack([x, y], axis=-1), (0, per_side, 2 * per_side, 3 * per_side)


@dataclass(frozen=True)
class PyramidConfig:
    """Feature-pyramid tiling: (stride, base_scale) per level plus variants.

    Defaults give 3 octaves x 3 aspects = 9 mask anchors per location and
    3 scales x 3 rotations per canonical pose. ``num_points`` is the mask
    anchor sample count n.
    """

    levels: tuple[tuple[float, float], ...] = DEFAULT_LEVELS
    octave_scales: tuple[float, ...] = DEFAULT_OCTAVE_SCALES
    aspect_ratios: tuple[float, ...] = DEFAULT_ASPECT_RATIOS
    pose_scales: tuple[float, ...] = DEFAULT_POSE_SCALES
    pose_rotations: tuple[float, ...] = DEFAULT_POSE_ROTATIONS
    num_points: int = 36

    def __post_init__(self):
        levels = tuple((float(s), float(b)) for s, b in self.levels)
        if not levels:
            raise PointSetError("config needs at least one pyramid level")
        strides = [s for s, _ in levels]
        if any(s <= 0 or b <= 0 for s, b in levels):
            raise NonPositiveScaleError("strides and base scales must be > 0")
        if any(b <= a for a, b in zip(strides, strides[1:])):
            raise PointSetError(f"strides must be strictly increasing, got {strides}")
        for name in ("octave_scales", "aspect_ratios", "pose_scales"):
            vals = tuple(float(v) for v in getattr(self, name))
            if not vals or any(v <= 0 for v in vals):
                raise NonPositiveScaleError(f"{name} must be non-empty and > 0")
            object.__setattr__(self, name, vals)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "pose_rotations", tuple(float(r) for r in self.pose_rotations))
        if self.num_points < 4 or self.num_points % 4:
            raise BadPointCountError(f"num_points must be a multiple of 4, got {self.num_points}")

    @property
    def mask_anchors_per_location(self) -> int:
        return len(self.octave_scales) * len(self.aspect_ratios)

    def to_dict(self) -> dict:
        return {
            "levels": [[s, b] for s, b in self.levels],
            "octave_scales": list(self.octave_scales),
            "aspect_ratios": list(self.aspect_ratios),
            "pose_scales": list(self.pose_scales),
            "pose_rotations": list(self.pose_rotations),
            "num_points": self.num_points,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PyramidConfig":
        numbers = (is_numbers, "a list of numbers")
        check_fields(data, {
            "levels": (lambda v: isinstance(v, list) and all(is_numbers(lv, 2) for lv in v),
                       "a list of [stride, base_scale] pairs"),
            "octave_scales": numbers, "aspect_ratios": numbers, "pose_scales": numbers,
            "pose_rotations": numbers, "num_points": (lambda v: type(v) is int, "an integer"),
        }, "pyramid")
        return cls(**data)


def load_config_document(path) -> dict:
    """Read a JSON or YAML key/value document; MalformedDocumentError names a bad file."""
    path = Path(path)
    if path.suffix.lower() in (".yaml", ".yml"):
        import yaml

        load, malformed = yaml.safe_load, yaml.YAMLError
    else:
        load, malformed = json.loads, ValueError
    try:
        data = load(path.read_text())
    except malformed as err:
        raise MalformedDocumentError(f"{path}: not a valid document ({err})") from err
    if not isinstance(data, dict):
        raise MalformedDocumentError(f"{path}: must be a mapping, got {type(data).__name__}")
    return data


def _feature_shape(image_size, stride: float) -> tuple[int, int]:
    width, height = int(image_size[0]), int(image_size[1])
    if width <= 0 or height <= 0:
        raise DegenerateBoxError(f"image size must be positive, got {image_size}")
    return math.ceil(height / stride), math.ceil(width / stride)


def axis_centers(count: int, stride: float) -> np.ndarray:
    """Location centres (i + 0.5) * stride along one feature-map axis."""
    return (np.arange(count, dtype=float) + 0.5) * stride


@dataclass(frozen=True, eq=False)
class LevelGrid:
    """Anchors of one pyramid level, stacked in (row, col, slot) order.

    ``templates`` is (slots, p, 2): per slot, p points about the location
    centre. Anchor (row, col, slot) is ((col + 0.5) * stride,
    (row + 0.5) * stride) + templates[slot]: a mask anchor's implicit box
    corners (p = 2) or a pose anchor's joints (p = 17).
    """

    level: int
    stride: float
    rows: int
    cols: int
    templates: np.ndarray

    @property
    def anchors_per_location(self) -> int:
        return len(self.templates)

    @property
    def num_anchors(self) -> int:
        return self.rows * self.cols * self.anchors_per_location

    def placed(self) -> np.ndarray:
        """Every anchor's points, centre + template, as (rows, cols, slots, p, 2)."""
        x = axis_centers(self.cols, self.stride)[None, :, None, None] + self.templates[..., 0]
        y = axis_centers(self.rows, self.stride)[:, None, None, None] + self.templates[..., 1]
        return np.stack(np.broadcast_arrays(x, y), axis=-1)


@dataclass(frozen=True)
class AnchorGrid:
    """All anchors of one image: one LevelGrid per pyramid level."""

    mode: str
    image_size: tuple[int, int]
    levels: tuple[LevelGrid, ...]

    @property
    def num_anchors(self) -> int:
        return sum(level.num_anchors for level in self.levels)

    def box_stack(self) -> np.ndarray:
        """All implicit boxes, (num_anchors, 4), in (level, row, col, slot) order."""
        if self.mode != MASK_MODE:
            raise PointSetError("box_stack is defined for mask grids")
        cached = self.__dict__.get("_box_stack")
        if cached is None:
            cached = np.concatenate([level.placed().reshape(-1, 4) for level in self.levels])
            cached.setflags(write=False)
            object.__setattr__(self, "_box_stack", cached)
        return cached

    def joint_stack(self, index=None) -> np.ndarray:
        """Pose joints of the stacked anchors at ``index`` (all when None), (len, 17, 2).

        Each is its location centre + templates[slot].
        """
        if self.mode != POSE_MODE:
            raise PointSetError("joint_stack is defined for pose grids")
        level, row, col, slot = (column if index is None else column[index]
                                 for column in self.index_columns())
        stride = np.asarray([lv.stride for lv in self.levels])[level]
        centre = np.stack([(col + 0.5) * stride, (row + 0.5) * stride], axis=-1)
        return centre[:, None, :] + np.stack([lv.templates for lv in self.levels])[level, slot]

    def index_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(level, row, col, slot) per stacked anchor, aligned with the stacks."""
        level = np.repeat([lv.level for lv in self.levels], [lv.num_anchors for lv in self.levels])
        row, col, slot = np.concatenate(
            [np.indices((lv.rows, lv.cols, lv.anchors_per_location)).reshape(3, -1)
             for lv in self.levels], axis=1)
        return level, row, col, slot


def _box_templates(config: PyramidConfig, base_scale: float) -> np.ndarray:
    """Box corners [(-w/2, -h/2), (w/2, h/2)] per (octave, aspect) slot."""
    half = np.array([(base_scale * octave * math.sqrt(aspect) / 2.0,
                      base_scale * octave / math.sqrt(aspect) / 2.0)
                     for octave in config.octave_scales for aspect in config.aspect_ratios])
    return np.stack([-half, half], axis=1)


def _pose_templates(config: PyramidConfig, base_scale: float, modes: np.ndarray) -> np.ndarray:
    """Joints about their centroid per (mode, scale, rotation) slot."""
    templates = []
    for mode in modes:
        scaled = mode * base_scale
        centred = scaled - scaled.mean(axis=0)
        templates += [transform_points(centred, (0.0, 0.0), r, s)
                      for s in config.pose_scales for r in config.pose_rotations]
    return np.stack(templates)


def generate_grid(config: PyramidConfig, image_size, mode: str = MASK_MODE,
                  canonical_poses=None) -> AnchorGrid:
    """Tile anchors over the feature pyramid of one image.

    Args:
        config: pyramid levels and per-location variants.
        image_size: (width, height) in pixels; each level's feature map is
            ceil(side / stride) and location (row, col) sits at
            ((col + 0.5) * stride, (row + 0.5) * stride).
        mode: "mask" or "pose".
        canonical_poses: (k, 17, 2) canonical poses in the normalized frame,
            required in pose mode; they are de-normalized by each level's
            base scale, translated so the joint centroid sits at the location
            center, then each (scale, rotation) variant is applied about the
            centroid.
    """
    if mode == MASK_MODE:
        templates = partial(_box_templates, config)
    elif mode == POSE_MODE:
        if canonical_poses is None:
            raise MissingCanonicalPosesError("pose grids need canonical_poses")
        modes = np.asarray(canonical_poses, dtype=float)
        if modes.ndim != 3 or modes.shape[1:] != (NUM_JOINTS, 2) or len(modes) == 0:
            raise JointCountMismatchError(
                f"canonical_poses must be (k, {NUM_JOINTS}, 2) with k >= 1, got {modes.shape}"
            )
        if not np.isfinite(modes).all():
            raise PointSetError("canonical_poses must be finite")
        templates = partial(_pose_templates, config, modes=modes)
    else:
        raise PointSetError(f"unknown grid mode: {mode!r}")
    levels = tuple(LevelGrid(i, stride, *_feature_shape(image_size, stride), templates(base_scale))
                   for i, (stride, base_scale) in enumerate(config.levels))
    return AnchorGrid(mode=mode, image_size=(int(image_size[0]), int(image_size[1])), levels=levels)
