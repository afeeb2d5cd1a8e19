"""Point-set anchor synthesis and feature-pyramid tiling.

A mask anchor is an ordered set of n points sampled on the perimeter of an
implicit box (n divisible by 4, traversal clockwise in image coordinates from
the top-left corner). A pose anchor is an ordered set of 17 joints obtained by
placing a canonical pose at a location and applying a scale/rotation variant
about its joint centroid. ``generate_grid`` tiles either kind over a feature
pyramid: one anchor set per (level, row, col, slot). Both kinds are held in
one form, a ``LevelGrid`` per level: a per-slot template of points about the
location centre (box corners, or joints), placed at every location. The
head output shapes of each family's per-location anchors, ``head_output_dims``,
are stated here too.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import (MAX_MAGNITUDE, MalformedDocumentError, PointSetError, check_at_least,
                     check_fields, is_numbers)
from .geometry import transform_points

NUM_JOINTS = 17


def joint_array(value, shape, what: str, dtype=float) -> np.ndarray:
    """``value`` as a ``dtype`` array of ``shape``, where a None axis matches any length.

    The one shape check of every joint array (modes, templates, kappas, OKS
    and matching inputs): a mismatch raises PointSetError naming ``what``.
    """
    array = np.asarray(value, dtype)
    if array.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, array.shape)):
        raise PointSetError(f"{what} must have shape {shape}, got {array.shape}")
    return array

DEFAULT_LEVELS = ((8.0, 32.0), (16.0, 64.0), (32.0, 128.0), (64.0, 256.0), (128.0, 512.0))
DEFAULT_OCTAVE_SCALES = (1.0, 2.0 ** (1.0 / 3.0), 2.0 ** (2.0 / 3.0))
DEFAULT_ASPECT_RATIOS = (0.5, 1.0, 2.0)

POSE_SCALES_FIVE = (0.6, 0.8, 1.0, 1.2, 1.4)
POSE_ROTATIONS_FIVE = (-20.0, -10.0, 0.0, 10.0, 20.0)
DEFAULT_POSE_SCALES = POSE_SCALES_FIVE[1:4]
DEFAULT_POSE_ROTATIONS = POSE_ROTATIONS_FIVE[1:4]

# The mask matching strategies, named here so that the CLI and TargetConfig need not load matching
NEAREST_POINT = "nearest-point"
NEAREST_LINE = "nearest-line"
CORNER_PROJECTION = "corner-projection"
STRATEGIES = (NEAREST_POINT, NEAREST_LINE, CORNER_PROJECTION)

MASK_MODE = "mask"
POSE_MODE = "pose"
TASK_SEGMENTATION = "instance-segmentation"


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
        raise PointSetError(f"point count must be a positive multiple of 4, got {n}")
    x0, y0, x1, y1 = (boxes[:, i, None] for i in range(4))
    if not ((x1 > x0) & (y1 > y0)).all():
        raise PointSetError("cannot sample the perimeter of a box without positive extent")
    per_side = n // 4
    t = np.arange(per_side, dtype=float) / per_side
    run_x, run_y = t * (x1 - x0), t * (y1 - y0)
    x = np.concatenate(np.broadcast_arrays(x0 + run_x, x1, x1 - run_x, x0), axis=1)
    y = np.concatenate(np.broadcast_arrays(y0, y0 + run_y, y1, y1 - run_y), axis=1)
    return np.stack([x, y], axis=-1), (0, per_side, 2 * per_side, 3 * per_side)


class Frozen:
    """Slots set once, by ``_set`` in ``__init__``, then read-only; equal by class and slots."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, _value):
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


class PyramidConfig(Frozen):
    """Feature-pyramid tiling: (stride, base_scale) per level plus variants.

    Defaults give 3 octaves x 3 aspects = 9 mask anchors per location and
    3 scales x 3 rotations per canonical pose. ``num_points`` is the mask
    anchor sample count n.
    """

    __slots__ = ("levels", "octave_scales", "aspect_ratios", "pose_scales", "pose_rotations",
                 "num_points")

    def __init__(self, levels=DEFAULT_LEVELS, octave_scales=DEFAULT_OCTAVE_SCALES,
                 aspect_ratios=DEFAULT_ASPECT_RATIOS, pose_scales=DEFAULT_POSE_SCALES,
                 pose_rotations=DEFAULT_POSE_ROTATIONS, num_points: int = 36):
        levels = tuple((float(s), float(b)) for s, b in levels)
        if not levels:
            raise PointSetError("config needs at least one pyramid level")
        strides = [s for s, _ in levels]
        if not all(math.isfinite(v) and v > 0 for level in levels for v in level):
            raise PointSetError("levels: strides and base scales must be finite and > 0")
        if any(b <= a for a, b in zip(strides, strides[1:])):
            raise PointSetError(f"strides must be strictly increasing, got {strides}")
        positive = []
        for name, values in zip(self.__slots__[1:4], (octave_scales, aspect_ratios, pose_scales)):
            positive.append(tuple(float(v) for v in values))
            if not (positive[-1] and all(math.isfinite(v) and v > 0 for v in positive[-1])):
                raise PointSetError(f"{name} must be non-empty, finite and > 0")
        rotations = tuple(float(r) for r in pose_rotations)
        if not (rotations and all(map(math.isfinite, rotations))):
            raise PointSetError("pose_rotations must be non-empty and finite")
        if num_points < 4 or num_points % 4:
            raise PointSetError(f"num_points must be a multiple of 4, got {num_points}")
        self._set(levels, *positive, rotations, num_points)

    @property
    def mask_anchors_per_location(self) -> int:
        return len(self.octave_scales) * len(self.aspect_ratios)

    def pose_anchors_per_location(self, modes: int) -> int:
        return modes * len(self.pose_scales) * len(self.pose_rotations)

    def to_dict(self) -> dict:
        lists = {name: list(getattr(self, name)) for name in self.__slots__[1:5]}
        return {"levels": [[s, b] for s, b in self.levels], **lists, "num_points": self.num_points}

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


def head_output_dims(task: str, num_anchors: int, num_classes: int | None = None,
                     num_points: int | None = None) -> dict[str, tuple[int, int] | None]:
    """Per-location head output shapes for K anchors.

    Instance segmentation: classification (K, C), shape regression (K, 2n),
    box regression (K, 4). Pose: classification (K, 2), shape regression
    (K, 34), no box branch.
    """
    check_at_least(("num_anchors", num_anchors, 1))
    if task == TASK_SEGMENTATION:
        if num_classes is None or num_points is None:
            raise PointSetError("segmentation dims need num_classes and num_points")
        return {
            "classification": (num_anchors, num_classes),
            "shape_regression": (num_anchors, 2 * num_points),
            "box_regression": (num_anchors, 4),
        }
    if task == POSE_MODE:
        return {
            "classification": (num_anchors, 2),
            "shape_regression": (num_anchors, 2 * NUM_JOINTS),
            "box_regression": None,
        }
    raise PointSetError(f"unknown task {task!r}")


def load_config_document(path) -> dict:
    """Read a JSON or YAML key/value document; MalformedDocumentError names a bad file."""
    path = Path(path)
    if path.suffix.lower() in (".yaml", ".yml"):
        import yaml

        load, malformed = yaml.safe_load, yaml.YAMLError
    else:
        load, malformed = json.loads, json.JSONDecodeError
    try:
        data = load(path.read_text())
    except (malformed, ValueError, RecursionError) as err:  # ValueError: not UTF-8, > 4300 digits
        raise MalformedDocumentError(f"{path}: not a valid document ({err})") from err
    if not isinstance(data, dict):
        raise MalformedDocumentError(f"{path}: must be a mapping, got {type(data).__name__}")
    return data


def _feature_shape(image_size, stride: float) -> tuple[int, int]:
    width, height = int(image_size[0]), int(image_size[1])
    if width <= 0 or height <= 0:
        raise PointSetError(f"image size must be positive, got {image_size}")
    return math.ceil(height / stride), math.ceil(width / stride)


# The most anchors one image's grid may hold: 55 times the 76,725 of a 640 x 640
# image on the default mask pyramid. Mask targets peak at about 140 B an anchor
# (141 MB for the 785,664 of a 2048 x 2048 image), so a grid at the budget needs
# well under 1 GB, where a 10,000,000 x 64 image would need tens of GB.
MAX_IMAGE_ANCHORS = 2 ** 22


class LevelGrid:
    """Anchors of one pyramid level, stacked in (row, col, slot) order.

    ``templates`` is (slots, p, 2): per slot, p points about the location
    centre. Anchor (row, col, slot) is ((col + 0.5) * stride,
    (row + 0.5) * stride) + templates[slot]: a mask anchor's implicit box
    corners (p = 2) or a pose anchor's joints (p = 17).
    """

    __slots__ = ("level", "stride", "rows", "cols", "templates")

    def __init__(self, level: int, stride: float, rows: int, cols: int, templates: np.ndarray):
        self.level, self.stride, self.rows, self.cols = level, stride, rows, cols
        self.templates = templates

    @property
    def anchors_per_location(self) -> int:
        return len(self.templates)

    @property
    def num_anchors(self) -> int:
        return self.rows * self.cols * self.anchors_per_location


class AnchorGrid:
    """All anchors of one image: one LevelGrid per pyramid level."""

    __slots__ = ("mode", "levels", "_cache")

    def __init__(self, mode: str, levels: tuple[LevelGrid, ...]):
        self.mode, self.levels, self._cache = mode, levels, {}

    @property
    def num_anchors(self) -> int:
        return sum(level.num_anchors for level in self.levels)

    def _cached(self, name: str, build):
        """``build()``'s array or arrays, made read-only on the first call and kept on the grid."""
        if name not in self._cache:
            value = build()
            for array in value if isinstance(value, tuple) else (value,):
                array.setflags(write=False)
            self._cache[name] = value
        return self._cache[name]

    def points(self, index=None) -> np.ndarray:
        """Points of the stacked anchors at ``index`` (all when None), (len, p, 2),
        gathered from ``axis_coordinates``: each is its location centre + templates[slot]."""
        level, row, col, slot = (column if index is None else column[index]
                                 for column in self.index_columns())
        x, y = self.axis_coordinates()
        start = np.cumsum([(0, 0)] + [(lv.cols, lv.rows) for lv in self.levels], axis=0)[level]
        return np.stack([x[slot, :, start[:, 0] + col], y[slot, :, start[:, 1] + row]], axis=-1)

    def box_stack(self) -> np.ndarray:
        """All implicit boxes, (num_anchors, 4), in (level, row, col, slot) order."""
        if self.mode != MASK_MODE:
            raise PointSetError("box_stack is defined for mask grids")
        return self._cached("_box_stack", lambda: self.points().reshape(-1, 4))

    def joint_stack(self, index=None) -> np.ndarray:
        """Pose joints of the stacked anchors at ``index`` (all when None), (len, 17, 2)."""
        if self.mode != POSE_MODE:
            raise PointSetError("joint_stack is defined for pose grids")
        return self.points(index)

    def axis_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Every level's point x per map column and y per map row, side by side:
        (slots, p, all cols) and (slots, p, all rows), each centre + template."""
        return self._cached("_axis_coordinates", lambda: tuple(np.concatenate(
            [(np.arange((lv.cols, lv.rows)[axis]) + 0.5) * lv.stride
             + lv.templates[:, :, axis, None] for lv in self.levels], axis=-1)
            for axis in (0, 1)))

    def index_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(level, row, col, slot) per stacked anchor, aligned with the stacks."""
        return self._cached("_index_columns", lambda: (
            np.repeat([lv.level for lv in self.levels], [lv.num_anchors for lv in self.levels]),
            *np.concatenate([np.indices((lv.rows, lv.cols, lv.anchors_per_location)).reshape(3, -1)
                             for lv in self.levels], axis=1)))


def _box_templates(config: PyramidConfig, base_scale: float) -> np.ndarray:
    """Box corners [(-w/2, -h/2), (w/2, h/2)] per (octave, aspect) slot."""
    half = np.array([(base_scale * octave * math.sqrt(aspect) / 2.0,
                      base_scale * octave / math.sqrt(aspect) / 2.0)
                     for octave in config.octave_scales for aspect in config.aspect_ratios])
    return np.stack([-half, half], axis=1)


def _pose_templates(config: PyramidConfig, modes: np.ndarray) -> np.ndarray:
    """(levels, slots, 17, 2): joints about their centroid per (mode, scale, rotation) slot."""
    scaled = np.multiply.outer([base_scale for _, base_scale in config.levels], modes)
    variants = transform_points(scaled - scaled.mean(axis=2, keepdims=True), (0.0, 0.0),
                                config.pose_rotations, np.array(config.pose_scales)[:, None])
    return np.moveaxis(variants, (0, 1), (2, 3)).reshape(len(config.levels), -1, NUM_JOINTS, 2)


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

    A grid over ``MAX_IMAGE_ANCHORS`` anchors, or whose anchor points would
    lie beyond ``MAX_MAGNITUDE``, is rejected before any per-anchor array exists;
    so is a mask grid whose ``axis_coordinates`` give a box no positive extent
    (a small half-width added to a large centre rounds back to the centre).
    """
    if mode == MASK_MODE:
        templates = [_box_templates(config, base_scale) for _, base_scale in config.levels]
    elif mode == POSE_MODE:
        if canonical_poses is None:
            raise PointSetError("pose grids need canonical_poses")
        modes = joint_array(canonical_poses, (None, NUM_JOINTS, 2), "canonical_poses")
        if not (len(modes) and np.isfinite(modes).all()):
            raise PointSetError("canonical_poses must be k >= 1 finite poses")
        with np.errstate(over="ignore", invalid="ignore"):   # rejected by the reach below
            templates = _pose_templates(config, modes)
    else:
        raise PointSetError(f"unknown grid mode: {mode!r}")
    grid = AnchorGrid(mode, tuple(
        LevelGrid(i, stride, *_feature_shape(image_size, stride), templates[i])
        for i, (stride, _) in enumerate(config.levels)))
    if grid.num_anchors > MAX_IMAGE_ANCHORS:
        raise PointSetError(f"its {image_size[0]} x {image_size[1]} grid would hold"
                            f" {grid.num_anchors} anchors, over the budget of {MAX_IMAGE_ANCHORS}")
    reach = max(max(lv.rows, lv.cols) * lv.stride + abs(lv.templates).max() for lv in grid.levels)
    if not reach <= MAX_MAGNITUDE:
        what = "the pyramid" if mode == MASK_MODE else "the pyramid and pose modes"
        raise PointSetError(f"{what} put anchor points {reach:.3g} px out, beyond 2**500")
    if mode == MASK_MODE and not all((c[:, 1] > c[:, 0]).all() for c in grid.axis_coordinates()):
        raise PointSetError("the pyramid's anchor boxes round to no positive extent")
    return grid
