"""Canonical pose shapes: normalization, k-means modes, and fixed baselines.

Poses are normalized into a person-box frame (translate by the box center,
scale by 1 / max(width, height)) so that clustering compares shape, not
placement. Modes are de-normalized against a pyramid level's base scale when
a grid is generated.
"""

from __future__ import annotations

import json
import math
import operator
from pathlib import Path

import numpy as np

from .anchors import NUM_JOINTS, joint_array, load_config_document
from .errors import PointSetError, check_at_least, check_fields, is_numbers
from .geometry import Box


class NormalizedPose:
    """Joints in the person-box frame plus per-joint validity, both read-only."""

    __slots__ = ("joints", "valid_mask")

    def __init__(self, joints: np.ndarray, valid_mask: np.ndarray):
        joints = joint_array(joints, (NUM_JOINTS, 2), "joints")
        valid = joint_array(valid_mask, (NUM_JOINTS,), "valid_mask", bool)
        if not np.isfinite(joints[valid]).all():
            raise PointSetError("valid joints must be finite")
        for name, value in (("joints", joints), ("valid_mask", valid)):
            value = np.ascontiguousarray(value)
            value.setflags(write=False)
            setattr(self, name, value)

    @property
    def fully_visible(self) -> bool:
        return bool(self.valid_mask.all())


def normalize_pose(joints, visibility, ref_box: Box) -> NormalizedPose:
    """Map joints into the reference-box frame.

    Joints are translated by the box center and scaled by 1 / max(width,
    height); a pose spanning exactly its box ends up centered at the origin
    with maximum dimension 1. Requires >= 2 visible joints and a box with
    positive extent.
    """
    joints = joint_array(joints, (NUM_JOINTS, 2), "joints")
    valid = joint_array(visibility, (NUM_JOINTS,), "visibility") > 0
    if np.count_nonzero(valid) < 2:
        raise PointSetError(
            f"normalization needs >= 2 visible joints, got {np.count_nonzero(valid)}"
        )
    scale = max(ref_box.width, ref_box.height)
    if scale <= 0.0:
        raise PointSetError(f"reference box has no extent: {ref_box}")
    cx, cy = ref_box.center
    out = (joints - (cx, cy)) / scale
    out[~valid] = 0.0
    return NormalizedPose(out, valid)


class PoseModes:
    """K canonical poses from clustering (read-only), with the final inertia and seed."""

    __slots__ = ("modes", "inertia", "seed", "inertia_history")

    def __init__(self, modes: np.ndarray, inertia: float, seed: int,
                 inertia_history: tuple[float, ...] = ()):
        modes = np.ascontiguousarray(joint_array(modes, (None, NUM_JOINTS, 2), "modes"))
        if not len(modes):
            raise PointSetError("modes must hold k >= 1 poses")
        modes.setflags(write=False)
        self.modes, self.inertia, self.seed = modes, inertia, seed
        self.inertia_history = inertia_history

    @property
    def k(self) -> int:
        return len(self.modes)


def _admissible_matrix(poses) -> np.ndarray:
    """Stack fully visible poses as (N, 34) row vectors."""
    rows = []
    for i, pose in enumerate(poses):
        if not isinstance(pose, NormalizedPose):
            rows.append(joint_array(pose, (NUM_JOINTS, 2), f"poses[{i}]"))
        elif pose.fully_visible:
            rows.append(pose.joints)
    return np.reshape(rows, (-1, NUM_JOINTS * 2))


def _kmeans_pp_init(x: np.ndarray, k: int, seed: int) -> np.ndarray:
    from .pcg64 import Pcg64    # only k-means compiles the generator

    rng = Pcg64(seed)
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(len(x))]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    total = d2.sum()
    if not math.isfinite(total):
        raise PointSetError(f"k-means++ seeding: the poses' squared distances sum to {total}; "
                            "poses this far apart cannot be clustered")
    for c in range(1, k):
        if total > 0.0:
            # Generator.choice(len(x), p=d2 / total)
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        else:
            idx = rng.integers(len(x))
        centroids[c] = x[idx]
        d2 = np.minimum(d2, ((x - centroids[c]) ** 2).sum(axis=1))
        total = d2.sum()
    return centroids


def check_kmeans_settings(k: int, seed: int, max_iters: int = 1) -> None:
    """Name the first of a k or max_iters below 1 and a negative seed."""
    check_at_least(("k", k, 1), ("max_iters", max_iters, 1), ("seed", seed, 0))


def kmeans_poses(poses, k: int, seed: int = 0, max_iters: int = 100) -> PoseModes:
    """Lloyd k-means over 34-vectors of fully visible normalized poses.

    k-means++ seeding draws the numbers ``np.random.default_rng(seed)``
    would, from ``pcg64.Pcg64``, so the result is deterministic for a fixed
    (input order, seed); a non-finite sum of squared distances raises
    PointSetError. Empty clusters are re-seeded from the point farthest from
    its assigned centroid; one that stays empty (distances that underflow to
    0 tie every point) keeps its centroid.
    Iteration stops at an assignment fixed point or ``max_iters``; the
    recorded inertia history is non-increasing. Fewer than k distinct poses
    would leave a cluster empty, so they raise PointSetError.
    """
    check_kmeans_settings(k, seed, max_iters)
    x = _admissible_matrix(poses)
    if not np.isfinite(x).all():
        raise PointSetError("poses must be finite")
    distinct = len({row.tobytes() for row in x + 0.0})   # + 0.0 turns -0.0 into 0.0
    if distinct < k:
        raise PointSetError(f"need >= {k} distinct fully visible poses, got {distinct}")

    centroids = _kmeans_pp_init(x, k, operator.index(seed))
    labels = np.full(len(x), -1)
    history: list[float] = []
    for _ in range(max_iters):
        # Assign; while a cluster is empty, re-seed it from the globally
        # farthest point and assign again, at most k times.
        for reseeds in range(k + 1):
            d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            new_labels = d2.argmin(axis=1)
            empty = np.flatnonzero(np.bincount(new_labels, minlength=k) == 0)
            if empty.size == 0 or reseeds == k:
                break
            centroids[empty[0]] = x[int(d2[np.arange(len(x)), new_labels].argmax())]
        history.append(float(d2[np.arange(len(x)), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in np.flatnonzero(np.bincount(labels, minlength=k)):
            centroids[c] = x[labels == c].mean(axis=0)
    return PoseModes(
        modes=centroids.reshape(k, NUM_JOINTS, 2),
        inertia=history[-1],
        seed=int(seed),
        inertia_history=tuple(history),
    )


def center_point_shape() -> np.ndarray:
    """Degenerate canonical shape: all 17 joints at the frame origin."""
    return np.zeros((NUM_JOINTS, 2))


# Clockwise perimeter walk assigned anatomically: head across the top edge
# (person-right first, since the person's left is at +x when facing the
# camera), left arm down the right edge, left leg then right leg along the
# bottom, right arm back up the left edge.
_RECTANGLE_WALK = (4, 2, 0, 1, 3, 5, 7, 9, 11, 13, 15, 16, 14, 12, 10, 8, 6)


def rectangle_shape() -> np.ndarray:
    """Canonical shape with 17 joints spread uniformly on a unit square.

    Points sit at equal arc-length steps along the perimeter of the square
    spanning [-0.5, 0.5]^2, clockwise in image coordinates from the top-left
    corner, assigned to joints in an anatomical walk (head along the top,
    arms down the sides, legs along the bottom).
    """
    arc = np.arange(NUM_JOINTS) * (4.0 / NUM_JOINTS)
    pts = np.empty((NUM_JOINTS, 2))
    for i, s in enumerate(arc):
        side, t = int(s), s - int(s)
        # the top, right, bottom and left edges, each walked clockwise
        pts[_RECTANGLE_WALK[i]] = ((-0.5 + t, -0.5), (0.5, -0.5 + t), (0.5 - t, 0.5),
                                   (-0.5, 0.5 - t))[side]
    return pts


def save_pose_modes(modes: PoseModes, path) -> None:
    """Write modes as JSON: k, seed, inertia and 17 (x, y) pairs per mode."""
    doc = {
        "k": modes.k,
        "seed": modes.seed,
        "inertia": modes.inertia,
        "modes": [[[float(x), float(y)] for x, y in mode] for mode in modes.modes],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def load_pose_modes(path) -> PoseModes:
    """Read modes written by ``save_pose_modes``; MalformedDocumentError names a bad or
    unknown key, and a missing one reads as null."""
    doc = {**dict.fromkeys(("modes", "k", "seed", "inertia")), **load_config_document(path)}
    integer = (lambda v: type(v) is int, "an integer")
    finite = (lambda v: np.isfinite(np.asarray(v, float)).all(), "finite numbers")
    check_fields(doc, {"modes": finite, "k": integer, "seed": integer,
                       "inertia": (lambda v: is_numbers([v]) and math.isfinite(v),
                                   "a finite number")}, str(path))
    k = doc["k"]
    modes = joint_array(doc["modes"], (k, NUM_JOINTS, 2), f"{path}: 'modes' of k={k}")
    return PoseModes(modes=modes, inertia=float(doc["inertia"]), seed=doc["seed"])
