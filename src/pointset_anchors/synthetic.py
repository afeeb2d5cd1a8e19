"""Seed-deterministic synthetic corpora: contours and poses.

Contour records are random convex or star-shaped polygons with randomized
position, scale and aspect. Pose records are random placements of a built-in
17-joint skeleton (optionally deformed into a handful of prototype poses)
with randomized scale, rotation, per-joint jitter, truncated visibility
patterns and per-joint dropout. Generation uses a single numpy Generator per
corpus, so a fixed seed and parameter set reproduces the corpus exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .anchors import NUM_JOINTS
from .datasets import (CORPUS_CONTOURS, CORPUS_POSES, POSE_SCALE_RANGE, InstanceRecord,
                       min_pose_image_side)
from .errors import PointSetError, check_at_least
from .geometry import Box, Contour, transform_points

KEYPOINT_NAMES = (
    "nose", "left_eye", "right_eye", "left_ear", "right_ear",
    "left_shoulder", "right_shoulder", "left_elbow", "right_elbow",
    "left_wrist", "right_wrist", "left_hip", "right_hip",
    "left_knee", "right_knee", "left_ankle", "right_ankle",
)

# Upright figure in index order, left side at +x, y growing downward.
_RAW_SKELETON = np.array([
    [0.000, -0.460],   # nose
    [0.035, -0.490], [-0.035, -0.490],   # eyes
    [0.080, -0.470], [-0.080, -0.470],   # ears
    [0.170, -0.320], [-0.170, -0.320],   # shoulders
    [0.230, -0.120], [-0.230, -0.120],   # elbows
    [0.260, 0.060], [-0.260, 0.060],     # wrists
    [0.100, 0.020], [-0.100, 0.020],     # hips
    [0.120, 0.260], [-0.120, 0.260],     # knees
    [0.130, 0.500], [-0.130, 0.500],     # ankles
])


def _normalize_shape(joints: np.ndarray) -> np.ndarray:
    lo, hi = joints.min(axis=0), joints.max(axis=0)
    center = (lo + hi) / 2.0
    return (joints - center) / max(hi - lo)


BASE_SKELETON = _normalize_shape(_RAW_SKELETON)
BASE_SKELETON.setflags(write=False)


def _prototype(deltas: dict[int, tuple[float, float]]) -> np.ndarray:
    joints = _RAW_SKELETON.copy()
    for idx, (dx, dy) in deltas.items():
        joints[idx] += (dx, dy)
    return _normalize_shape(joints)


# A few fixed deformations of the skeleton; prototype 0 is the skeleton
# itself so the default corpus is exact transforms of BASE_SKELETON.
POSE_PROTOTYPES = np.stack([
    BASE_SKELETON,
    _prototype({7: (-0.02, -0.33), 8: (0.02, -0.33),
                9: (-0.06, -0.54), 10: (0.06, -0.54)}),          # arms raised
    _prototype({7: (0.09, -0.16), 8: (-0.09, -0.16),
                9: (0.19, -0.51), 10: (-0.19, -0.51),
                13: (0.12, 0.0), 14: (-0.12, 0.0),
                15: (0.22, 0.0), 16: (-0.22, 0.0)}),             # spread out
    _prototype({0: (0.0, 0.15), 1: (0.0, 0.15), 2: (0.0, 0.15),
                3: (0.0, 0.15), 4: (0.0, 0.15),
                5: (0.0, 0.14), 6: (0.0, 0.14),
                11: (0.0, 0.10), 12: (0.0, 0.10),
                13: (0.09, 0.02), 14: (-0.09, 0.02)}),           # crouched
    _prototype({0: (0.12, 0.0), 1: (0.12, 0.0), 2: (0.12, 0.0),
                3: (0.12, 0.0), 4: (0.12, 0.0),
                5: (0.12, 0.0), 6: (0.12, 0.0),
                9: (0.10, 0.04), 10: (0.10, 0.04)}),             # leaning
])
POSE_PROTOTYPES.setflags(write=False)

ASPECT_RANGE = (0.6, 1.6)         # a contour's rx / ry, drawn uniformly
ROTATION_RANGE = (-25.0, 25.0)    # a figure's rotation in degrees, drawn uniformly
MIN_VISIBLE_JOINTS = 3            # dropout re-draws until at least this many stay visible
SPIKINESS = 0.45                  # a star contour's radius multipliers lie in 1 +- this


def _ellipse_polygon(rng: np.random.Generator, n_vertices: int, center, radii,
                     spikiness: float | None = None) -> np.ndarray:
    """Vertices at sorted angles on an axis-aligned ellipse, each radius scaled by a
    draw from [1 - spikiness, 1 + spikiness] unless ``spikiness`` is None. Angles
    are re-drawn until no gap collapses, so no three are collinear in practice."""
    check_at_least(("n_vertices", n_vertices, 3))
    rx, ry = float(radii[0]), float(radii[1])
    cx, cy = float(center[0]), float(center[1])
    while True:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n_vertices))
        gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
        if gaps.min() > (2.0 * np.pi) / (8.0 * n_vertices) and gaps.max() < np.pi * 0.95:
            break
    mult = 1.0 if spikiness is None else rng.uniform(1.0 - spikiness, 1.0 + spikiness, n_vertices)
    return np.column_stack([cx + mult * rx * np.cos(angles), cy + mult * ry * np.sin(angles)])


def random_convex_polygon(rng: np.random.Generator, n_vertices: int, center,
                          radii) -> np.ndarray:
    """Convex polygon: sorted angles on an axis-aligned ellipse."""
    return _ellipse_polygon(rng, n_vertices, center, radii)


def random_star_polygon(rng: np.random.Generator, n_vertices: int, center,
                        radii, spikiness: float = SPIKINESS) -> np.ndarray:
    """Star-shaped (generally concave) polygon around ``center``.

    Vertices sit at sorted angles with per-vertex radius multipliers in
    [1 - spikiness, 1 + spikiness]; sorted angles keep it simple
    (non-self-intersecting).
    """
    if not 0.0 <= spikiness < 1.0:
        raise PointSetError(f"spikiness must be in [0, 1), got {spikiness}")
    return _ellipse_polygon(rng, n_vertices, center, radii, spikiness)


def _contour_records(count: int, rng: np.random.Generator, image_size,
                     instances_per_image: int, vertex_range=(6, 28), radius_range=(18.0, 80.0),
                     convex=None) -> list[InstanceRecord]:
    lo, hi = vertex_range
    if not 3 <= lo <= hi:
        raise PointSetError(f"vertex_range must satisfy 3 <= lo <= hi, got {tuple(vertex_range)}")
    width, height = image_size
    # largest radius whose worst-case reach still fits inside the image;
    # both wide (rx = r sqrt(a)) and tall (ry = r / sqrt(a)) shapes count
    stretch = max(np.sqrt(ASPECT_RANGE[1]), 1.0 / np.sqrt(ASPECT_RANGE[0]))
    spread = (1.0 + SPIKINESS) * stretch
    r_cap = (min(width, height) / 2.0 - 1.0) / spread
    if r_cap < radius_range[0]:
        side = math.ceil(2.0 * (radius_range[0] * spread + 1.0))
        raise PointSetError(f"image {image_size} too small for contours of radius"
                            f" {radius_range[0]:g} px: both sides must be at least {side} px")
    records = []
    for i in range(count):
        n = int(rng.integers(lo, hi + 1))
        r = min(rng.uniform(*radius_range), r_cap)
        aspect = rng.uniform(*ASPECT_RANGE)
        rx, ry = r * np.sqrt(aspect), r / np.sqrt(aspect)
        reach = max(rx, ry) * (1.0 + SPIKINESS)
        cx = rng.uniform(reach, width - reach)
        cy = rng.uniform(reach, height - reach)
        make_convex = bool(rng.integers(2)) if convex is None else bool(convex)
        if make_convex:
            vertices = random_convex_polygon(rng, n, (cx, cy), (rx, ry))
        else:
            vertices = random_star_polygon(rng, n, (cx, cy), (rx, ry))
        contour = Contour(vertices)
        records.append(InstanceRecord(
            image_id=i // instances_per_image + 1,
            image_size=(int(width), int(height)),
            class_id=1,
            bbox=contour.bounds(),
            contours=(contour,),
        ))
    return records


# Visible-joint patterns for truncated people (cut by the image border or a
# foreground object): upper body, person-left side, person-right side, and
# peripheral joints only (torso hidden). Every pattern keeps at least three
# joints whose pairwise spread stays comparable to the person box.
_TRUNCATION_PATTERNS = (
    np.arange(0, 11),
    np.array([0, 1, 3, 5, 7, 9, 11, 13, 15]),
    np.array([0, 2, 4, 6, 8, 10, 12, 14, 16]),
    np.array([0, 9, 10, 15, 16]),
)


def _pose_records(count: int, rng: np.random.Generator, image_size,
                  instances_per_image: int, scale_range=POSE_SCALE_RANGE, jitter: float = 0.0,
                  dropout: float = 0.0, truncation: float = 0.0,
                  n_prototypes: int = 1) -> list[InstanceRecord]:
    width, height = image_size
    if not 1 <= n_prototypes <= len(POSE_PROTOTYPES):
        raise PointSetError(
            f"n_prototypes must be in 1..{len(POSE_PROTOTYPES)}, got {n_prototypes}"
        )
    if not 0.0 <= jitter < math.inf:
        raise PointSetError(f"jitter must be finite and >= 0, got {jitter}")
    if not 0.0 <= dropout < 1.0:
        raise PointSetError(f"dropout must be in [0, 1), got {dropout}")
    if not 0.0 <= truncation <= 1.0:
        raise PointSetError(f"truncation must be in [0, 1], got {truncation}")
    if min(width, height) < min_pose_image_side(scale_range):
        raise PointSetError(f"image {image_size} too small for figures up to {scale_range[1]:g}"
                            f" px tall: both sides must be at least"
                            f" {min_pose_image_side(scale_range)} px")
    records = []
    for i in range(count):
        proto = POSE_PROTOTYPES[int(rng.integers(n_prototypes))]
        size = rng.uniform(*scale_range)
        angle = rng.uniform(*ROTATION_RANGE)
        reach = 0.75 * size
        cx = rng.uniform(reach, width - reach)
        cy = rng.uniform(reach, height - reach)
        joints = transform_points(proto * size, (0.0, 0.0), angle, 1.0) + (cx, cy)
        if jitter > 0.0:
            joints = joints + rng.normal(0.0, jitter, joints.shape)
        visibility = np.full(NUM_JOINTS, 2, dtype=int)
        if truncation > 0.0 and rng.random() < truncation:
            pattern = _TRUNCATION_PATTERNS[int(rng.integers(len(_TRUNCATION_PATTERNS)))]
            visibility[:] = 0
            visibility[pattern] = 2
        if dropout > 0.0:
            while True:
                drop = rng.random(NUM_JOINTS) < dropout
                keep = (visibility > 0) & ~drop
                if np.count_nonzero(keep) >= MIN_VISIBLE_JOINTS:
                    break
            visibility[drop] = 0
        visible = visibility > 0
        keypoints = np.zeros((NUM_JOINTS, 3))
        keypoints[visible, :2] = joints[visible]
        keypoints[:, 2] = visibility
        # The person box spans the whole figure, visible or not, mirroring
        # box annotations for truncated people; OKS scale stays meaningful
        # for sparse visible subsets.
        lo = joints.min(axis=0)
        hi = joints.max(axis=0)
        records.append(InstanceRecord(
            image_id=i // instances_per_image + 1,
            image_size=(int(width), int(height)),
            class_id=1,
            bbox=Box(float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1])),
            keypoints=keypoints,
        ))
    return records


def generate_synthetic_corpus(kind: str, count: int, seed: int = 0,
                              image_size=(256, 256), instances_per_image: int = 1,
                              **difficulty) -> list[InstanceRecord]:
    """Generate ``count`` instance records of the given kind.

    kind "contours" accepts vertex_range, radius_range and convex
    (True/False/None for a mix); kind "poses" accepts scale_range, jitter,
    dropout, truncation and n_prototypes. The same (kind, count, seed,
    parameters) always yields the same records.
    """
    check_at_least(("count", count, 1), ("instances_per_image", instances_per_image, 1),
                   ("seed", seed, 0))
    rng = np.random.default_rng(seed)
    if kind == CORPUS_CONTOURS:
        return _contour_records(count, rng, image_size, instances_per_image, **difficulty)
    if kind == CORPUS_POSES:
        return _pose_records(count, rng, image_size, instances_per_image, **difficulty)
    raise PointSetError(f"unknown corpus kind {kind!r}")


def corpus_to_coco(records: list[InstanceRecord]) -> dict:
    """Render records as a COCO-style document (the parser's inverse)."""
    images = {}
    annotations = []
    has_poses = False
    for i, record in enumerate(records):
        images.setdefault(record.image_id, record.image_size)
        ann = {
            "id": i + 1,
            "image_id": record.image_id,
            "category_id": record.class_id,
            "iscrowd": 0,
            "bbox": [record.bbox.x_min, record.bbox.y_min,
                     record.bbox.width, record.bbox.height],
            "area": record.bbox.area,
        }
        if record.contours:
            ann["segmentation"] = [
                [float(v) for v in contour.vertices.ravel()] for contour in record.contours
            ]
        if record.keypoints is not None:
            has_poses = True
            ann["keypoints"] = [float(v) for v in record.keypoints.ravel()]
            ann["num_keypoints"] = int(np.count_nonzero(record.keypoints[:, 2] > 0))
        annotations.append(ann)
    category = {"id": 1, "name": "figure" if has_poses else "shape"}
    if has_poses:
        category["keypoints"] = list(KEYPOINT_NAMES)
        category["skeleton"] = []
    return {
        "images": [{"id": image_id, "width": size[0], "height": size[1]}
                   for image_id, size in sorted(images.items())],
        "annotations": annotations,
        "categories": [category],
    }


def save_corpus(records: list[InstanceRecord], path) -> None:
    """Write records as deterministic COCO-style JSON."""
    Path(path).write_text(json.dumps(corpus_to_coco(records), sort_keys=True) + "\n")
