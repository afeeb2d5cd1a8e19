"""Seeded synthetic corpora for the benchmark, written as COCO-style JSON.

The generator lives here, apart from the package, so a change to the
package's own synthetic module cannot change what the benchmark feeds it:
the same (kind, seed) always gives the same file. Only numpy and the
standard library are used.

* contours: random convex or star-shaped polygons, ``per_image`` to an image;
* poses: 17-joint figures drawn from five prototypes, scaled, rotated,
  jittered and sometimes truncated.

Run as a script, it writes the corpus of a workload as its shards, one file
per shard of consecutive images (``corpus0.json``, ``corpus1.json``, ...):

    python bench/corpus.py WORKLOAD SEED OUT_DIR
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

NUM_JOINTS = 17
IMAGE_SIZE = (256, 256)          # (width, height) of every image

RADIUS_RANGE = (18.0, 80.0)      # contours: mean radius, px
SPIKINESS = 0.45                 # star-shaped contours: radii scaled by 1 +- this

JITTER = 2.0                     # poses: per-joint Gaussian noise, px
TRUNCATION = 0.3                 # poses: share of figures truncated
SCALE_RANGE = (64.0, 160.0)      # poses: figure height, px

# Upright figure in COCO joint order (nose, eyes, ears, shoulders, elbows,
# wrists, hips, knees, ankles), the figure's left side at +x, y downward.
_SKELETON = np.array([
    [0.00, -0.45],
    [0.04, -0.48], [-0.04, -0.48],
    [0.08, -0.46], [-0.08, -0.46],
    [0.17, -0.31], [-0.17, -0.31],
    [0.22, -0.11], [-0.22, -0.11],
    [0.25, 0.07], [-0.25, 0.07],
    [0.10, 0.03], [-0.10, 0.03],
    [0.11, 0.27], [-0.11, 0.27],
    [0.12, 0.50], [-0.12, 0.50],
])

# Joint displacements of the four other prototypes (the first is the
# skeleton itself): arms up, limbs spread, crouched, leaning.
_DEFORMATIONS = (
    {},
    {7: (-0.03, -0.32), 8: (0.03, -0.32), 9: (-0.07, -0.55), 10: (0.07, -0.55)},
    {7: (0.10, -0.15), 8: (-0.10, -0.15), 9: (0.20, -0.50), 10: (-0.20, -0.50),
     13: (0.11, 0.0), 14: (-0.11, 0.0), 15: (0.21, 0.0), 16: (-0.21, 0.0)},
    {0: (0.0, 0.16), 1: (0.0, 0.16), 2: (0.0, 0.16), 3: (0.0, 0.16), 4: (0.0, 0.16),
     5: (0.0, 0.14), 6: (0.0, 0.14), 11: (0.0, 0.09), 12: (0.0, 0.09),
     13: (0.10, 0.02), 14: (-0.10, 0.02)},
    {0: (0.13, 0.0), 1: (0.13, 0.0), 2: (0.13, 0.0), 3: (0.13, 0.0), 4: (0.13, 0.0),
     5: (0.11, 0.0), 6: (0.11, 0.0), 9: (0.09, 0.05), 10: (0.09, 0.05)},
)

# Visible joints of a truncated figure: upper body, one side, the other side.
_TRUNCATIONS = (
    np.arange(0, 11),
    np.array([0, 1, 3, 5, 7, 9, 11, 13, 15]),
    np.array([0, 2, 4, 6, 8, 10, 12, 14, 16]),
)


def _prototypes() -> np.ndarray:
    shapes = []
    for deltas in _DEFORMATIONS:
        joints = _SKELETON.copy()
        for idx, delta in deltas.items():
            joints[idx] += delta
        lo, hi = joints.min(axis=0), joints.max(axis=0)
        shapes.append((joints - (lo + hi) / 2.0) / (hi - lo).max())
    return np.stack(shapes)


def _polygon(rng, n: int, center, radii, spikiness: float) -> np.ndarray:
    """Sorted angles on an ellipse, radii scaled by 1 +- spikiness (0: convex)."""
    while True:
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
        gaps = np.diff(angles, append=angles[0] + 2.0 * math.pi)
        if gaps.min() > 2.0 * math.pi / (8.0 * n) and gaps.max() < 0.95 * math.pi:
            break
    mult = rng.uniform(1.0 - spikiness, 1.0 + spikiness, n) if spikiness else np.ones(n)
    return np.column_stack([center[0] + mult * radii[0] * np.cos(angles),
                            center[1] + mult * radii[1] * np.sin(angles)])


def _strata(rng, count: int) -> np.ndarray:
    """One draw per stratum of [0, 1), shuffled: ``count`` values spread evenly.

    Stratifying the per-instance parameters keeps the corpus totals (and so
    the work a command does) close to their expectation for every seed.
    """
    return (rng.permutation(count) + rng.random(count)) / count


def contour_document(seed: int, images: int, per_image: int, vertex_range) -> dict:
    """``images`` images of ``per_image`` polygons each, half convex, half star.

    Vertex count, radius and aspect (log-uniform in [1/1.6, 1.6]) are
    stratified over the corpus; positions and shapes are free.
    """
    rng = np.random.default_rng([seed, 1])
    width, height = IMAGE_SIZE
    count = images * per_image
    r_cap = (min(width, height) / 2.0 - 1.0) / ((1.0 + SPIKINESS) * math.sqrt(1.6))
    span = vertex_range[1] - vertex_range[0] + 1
    vertices = vertex_range[0] + (_strata(rng, count) * span).astype(int)
    radii = np.minimum(RADIUS_RANGE[0] + _strata(rng, count) * np.ptp(RADIUS_RANGE), r_cap)
    aspects = 1.6 ** (2.0 * _strata(rng, count) - 1.0)
    stars = rng.permutation(count) % 2 == 1
    annotations = []
    for i in range(count):
        rx, ry = radii[i] * math.sqrt(aspects[i]), radii[i] / math.sqrt(aspects[i])
        reach = max(rx, ry) * (1.0 + SPIKINESS if stars[i] else 1.0)
        center = (rng.uniform(reach, width - reach), rng.uniform(reach, height - reach))
        verts = _polygon(rng, int(vertices[i]), center, (rx, ry), SPIKINESS if stars[i] else 0.0)
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        annotations.append({
            "id": i + 1,
            "image_id": i // per_image + 1,
            "category_id": 1,
            "iscrowd": 0,
            "bbox": [float(lo[0]), float(lo[1]), float(hi[0] - lo[0]), float(hi[1] - lo[1])],
            "segmentation": [[float(v) for v in verts.ravel()]],
        })
    return _document(images, annotations)


def pose_document(seed: int, images: int, per_image: int) -> dict:
    """Figures from five prototypes; hidden joints are written as (0, 0, 0).

    Prototype, size, rotation and which figures are truncated are stratified
    over the corpus; placement, jitter and the truncation pattern are free.
    Untruncated figures keep every joint, so k-means (which clusters fully
    visible poses only) has 70% of the corpus to work with.
    """
    rng = np.random.default_rng([seed, 2])
    protos = _prototypes()
    width, height = IMAGE_SIZE
    count = images * per_image
    proto_ids = rng.permutation(count) % len(protos)
    sizes = SCALE_RANGE[0] + _strata(rng, count) * np.ptp(SCALE_RANGE)
    angles = np.radians(-25.0 + 50.0 * _strata(rng, count))
    truncated = rng.permutation(count) < round(TRUNCATION * count)
    annotations = []
    for i in range(count):
        size, theta = sizes[i], angles[i]
        reach = 0.75 * size
        cx = rng.uniform(reach, width - reach)
        cy = rng.uniform(reach, height - reach)
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        joints = (protos[proto_ids[i]] * size) @ rot.T + (cx, cy)
        joints = joints + rng.normal(0.0, JITTER, joints.shape)
        keep = np.ones(NUM_JOINTS, dtype=bool)
        if truncated[i]:
            keep[:] = False
            keep[_TRUNCATIONS[int(rng.integers(len(_TRUNCATIONS)))]] = True
        keypoints = []
        for (x, y), v in zip(joints, keep):
            keypoints.extend([float(x), float(y), 2.0] if v else [0.0, 0.0, 0.0])
        lo, hi = joints.min(axis=0), joints.max(axis=0)
        annotations.append({
            "id": i + 1,
            "image_id": i // per_image + 1,
            "category_id": 1,
            "iscrowd": 0,
            "bbox": [float(lo[0]), float(lo[1]), float(hi[0] - lo[0]), float(hi[1] - lo[1])],
            "keypoints": keypoints,
            "num_keypoints": int(np.count_nonzero(keep)),
        })
    return _document(images, annotations)


def _document(images: int, annotations: list) -> dict:
    return {
        "images": [{"id": i, "width": IMAGE_SIZE[0], "height": IMAGE_SIZE[1]}
                   for i in range(1, images + 1)],
        "annotations": annotations,
        "categories": [{"id": 1, "name": "shape"}],
    }


def write_document(doc: dict, path) -> None:
    with open(path, "w") as out:
        json.dump(doc, out, sort_keys=True)
        out.write("\n")


def workload_document(workload, seed: int) -> dict:
    if workload.command == "targets":
        return contour_document(seed, workload.images, workload.per_image, workload.vertex_range)
    return pose_document(seed, workload.images, workload.per_image)


def split_document(doc: dict, shards: int) -> list[dict]:
    """The document cut into ``shards`` documents of consecutive images."""
    per_shard = len(doc["images"]) // shards
    parts = []
    for i in range(shards):
        images = doc["images"][i * per_shard:(i + 1) * per_shard]
        ids = {image["id"] for image in images}
        parts.append(dict(doc, images=images,
                          annotations=[a for a in doc["annotations"] if a["image_id"] in ids]))
    return parts


if __name__ == "__main__":
    from pathlib import Path

    from workloads import WORKLOADS

    workload = WORKLOADS[sys.argv[1]]
    doc = workload_document(workload, int(sys.argv[2]))
    for i, part in enumerate(split_document(doc, workload.shards)):
        write_document(part, Path(sys.argv[3]) / f"corpus{i}.json")
