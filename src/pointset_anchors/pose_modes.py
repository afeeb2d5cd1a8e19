"""Canonical pose shapes: normalization, k-means modes, and fixed baselines.

Poses are normalized into a person-box frame (translate by the box center,
scale by 1 / max(width, height)) so that clustering compares shape, not
placement. Modes are de-normalized against a pyramid level's base scale when
a grid is generated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .anchors import NUM_JOINTS, load_config_document
from .errors import (
    DegenerateBoxError,
    JointCountMismatchError,
    MalformedDocumentError,
    PointSetError,
    TooFewPosesError,
    TooFewVisibleJointsError,
)
from .geometry import Box


@dataclass(frozen=True)
class NormalizedPose:
    """Joints in the person-box frame plus per-joint validity."""

    joints: np.ndarray
    valid_mask: np.ndarray

    def __post_init__(self):
        joints = np.ascontiguousarray(np.asarray(self.joints, dtype=float))
        valid = np.ascontiguousarray(np.asarray(self.valid_mask, dtype=bool))
        if joints.shape != (NUM_JOINTS, 2):
            raise JointCountMismatchError(f"expected ({NUM_JOINTS}, 2) joints, got {joints.shape}")
        if valid.shape != (NUM_JOINTS,):
            raise JointCountMismatchError(f"expected ({NUM_JOINTS},) mask, got {valid.shape}")
        if not np.isfinite(joints[valid]).all():
            raise PointSetError("valid joints must be finite")
        joints.setflags(write=False)
        valid.setflags(write=False)
        object.__setattr__(self, "joints", joints)
        object.__setattr__(self, "valid_mask", valid)

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
    joints = np.asarray(joints, dtype=float)
    visibility = np.asarray(visibility)
    if joints.shape != (NUM_JOINTS, 2):
        raise JointCountMismatchError(f"expected ({NUM_JOINTS}, 2) joints, got {joints.shape}")
    if visibility.shape != (NUM_JOINTS,):
        raise JointCountMismatchError(f"expected ({NUM_JOINTS},) visibility, got {visibility.shape}")
    valid = visibility > 0
    if np.count_nonzero(valid) < 2:
        raise TooFewVisibleJointsError(
            f"normalization needs >= 2 visible joints, got {np.count_nonzero(valid)}"
        )
    scale = max(ref_box.width, ref_box.height)
    if scale <= 0.0:
        raise DegenerateBoxError(f"reference box has no extent: {ref_box}")
    cx, cy = ref_box.center
    out = (joints - (cx, cy)) / scale
    out[~valid] = 0.0
    return NormalizedPose(out, valid)


@dataclass(frozen=True)
class PoseModes:
    """K canonical poses from clustering, with the final inertia and seed."""

    modes: np.ndarray
    inertia: float
    seed: int
    inertia_history: tuple[float, ...] = ()

    def __post_init__(self):
        modes = np.ascontiguousarray(np.asarray(self.modes, dtype=float))
        if modes.ndim != 3 or modes.shape[1:] != (NUM_JOINTS, 2) or len(modes) == 0:
            raise JointCountMismatchError(
                f"modes must be (k >= 1, {NUM_JOINTS}, 2), got {modes.shape}"
            )
        modes.setflags(write=False)
        object.__setattr__(self, "modes", modes)

    @property
    def k(self) -> int:
        return len(self.modes)


def _admissible_matrix(poses) -> np.ndarray:
    """Stack fully visible poses as (N, 34) row vectors."""
    rows = []
    for pose in poses:
        if isinstance(pose, NormalizedPose):
            if pose.fully_visible:
                rows.append(pose.joints.ravel())
        else:
            arr = np.asarray(pose, dtype=float)
            if arr.shape != (NUM_JOINTS, 2):
                raise JointCountMismatchError(
                    f"expected ({NUM_JOINTS}, 2) poses, got {arr.shape}"
                )
            rows.append(arr.ravel())
    if not rows:
        return np.empty((0, NUM_JOINTS * 2))
    return np.asarray(rows)


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(len(x))]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = rng.choice(len(x), p=d2 / total)
        else:
            idx = rng.integers(len(x))
        centroids[c] = x[idx]
        d2 = np.minimum(d2, ((x - centroids[c]) ** 2).sum(axis=1))
    return centroids


def kmeans_poses(poses, k: int, seed: int = 0, max_iters: int = 100) -> PoseModes:
    """Lloyd k-means over 34-vectors of fully visible normalized poses.

    k-means++ seeding from a numpy Generator with the given seed, so the
    result is deterministic for a fixed (input order, seed). Empty clusters
    are re-seeded from the point farthest from its assigned centroid.
    Iteration stops at an assignment fixed point or ``max_iters``; the
    recorded inertia history is non-increasing. Fewer than k distinct poses
    would leave a cluster empty, so they raise TooFewPosesError.
    """
    if k < 1:
        raise PointSetError(f"k must be >= 1, got {k}")
    if max_iters < 1:
        raise PointSetError(f"max_iters must be >= 1, got {max_iters}")
    x = _admissible_matrix(poses)
    if not np.isfinite(x).all():
        raise PointSetError("poses must be finite")
    distinct = len({row.tobytes() for row in x + 0.0})   # + 0.0 turns -0.0 into 0.0
    if distinct < k:
        raise TooFewPosesError(f"need >= {k} distinct fully visible poses, got {distinct}")

    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(x, k, rng)
    labels = np.full(len(x), -1)
    history: list[float] = []
    for _ in range(max_iters):
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        # Re-seed empty clusters from the globally farthest point, then
        # recompute assignments; repeats until every cluster is non-empty.
        for _ in range(k):
            empty = np.flatnonzero(np.bincount(new_labels, minlength=k) == 0)
            if empty.size == 0:
                break
            assigned_d2 = d2[np.arange(len(x)), new_labels]
            farthest = int(assigned_d2.argmax())
            centroids[empty[0]] = x[farthest]
            d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            new_labels = d2.argmin(axis=1)
        history.append(float(d2[np.arange(len(x)), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
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
        if side == 0:
            pts[_RECTANGLE_WALK[i]] = (-0.5 + t, -0.5)
        elif side == 1:
            pts[_RECTANGLE_WALK[i]] = (0.5, -0.5 + t)
        elif side == 2:
            pts[_RECTANGLE_WALK[i]] = (0.5 - t, 0.5)
        else:
            pts[_RECTANGLE_WALK[i]] = (-0.5, 0.5 - t)
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
    """Read modes written by ``save_pose_modes``."""
    doc = load_config_document(path)
    try:
        modes = np.asarray(doc["modes"], dtype=float)
        k, inertia, seed = int(doc["k"]), float(doc["inertia"]), int(doc["seed"])
    except (KeyError, TypeError, ValueError) as err:
        raise MalformedDocumentError(f"{path}: not a pose modes document ({err!r})") from err
    if modes.shape != (k, NUM_JOINTS, 2):
        raise JointCountMismatchError(
            f"mode file claims k={doc['k']} but carries shape {modes.shape}"
        )
    return PoseModes(modes=modes, inertia=inertia, seed=seed)
