"""Anchor-to-shape matching: per-point targets, validity flags and offsets.

Three strategies match an ordered mask anchor to a ground-truth contour:

* nearest point: each anchor point takes the L1-nearest contour vertex;
* nearest line: each anchor point takes its Euclidean projection onto the
  nearest contour segment;
* corner point with projection: the four corner anchor points take their
  L1-nearest vertices, which split the contour into top/right/bottom/left
  parts; every other anchor point casts an axis-aligned line (vertical for
  top/bottom side points, horizontal for left/right) and takes the nearest
  intersection with its part, or is marked invalid when the line misses it.

All offsets are raw pixels (target minus anchor point). Pose matching pairs
joints by index and uses visibility as validity.
"""

from __future__ import annotations

import numpy as np

from .anchors import (CORNER_PROJECTION, NEAREST_LINE, NEAREST_POINT, NUM_JOINTS, STRATEGIES,
                      joint_array)
from .errors import PointSetError

# The most array elements one kernel call works on. A larger batch is matched
# in slices of anchors, each sized by its kernel's working set, so memory
# stays bounded.
BATCH_ELEMENTS = 2 ** 17


def point_offsets(points: np.ndarray, targets: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Target minus anchor point where valid and 0 elsewhere, for any leading shape."""
    return np.where(valid[..., None], targets - points, 0.0)


def _nearest_vertex(points, verts):
    """Index of each of P anchors' (P, n, 2) points' L1-nearest vertex of its
    anchor's own (P, w, 2) ones, the lowest index on ties. A kernel's anchors'
    vertices are padded with +inf past their sizes, so padding never wins.
    |dx| + |dy| is summed over separate x and y planes, not a length-2 axis."""
    dist = np.abs(points[:, :, None, 0] - verts[:, None, :, 0])
    dist += np.abs(points[:, :, None, 1] - verts[:, None, :, 1])
    return dist.argmin(axis=-1)


def _nearest_point(points, verts, _sizes):
    targets = np.take_along_axis(verts, _nearest_vertex(points, verts)[..., None], axis=1)
    return targets, np.ones(points.shape[:2], dtype=bool)


def _nearest_line(points, verts, sizes):
    width = verts.shape[1]
    following = np.take_along_axis(verts, ((np.arange(width) + 1) % sizes[:, None])[..., None], 1)
    # A padding segment starts at +inf and runs (1, 1): its projection clamps
    # to its start, at infinite distance, and no NaN arises.
    ab = np.where((np.arange(width) < sizes[:, None])[..., None], following - verts, 1.0)
    denom = (ab * ab).sum(axis=-1)[:, None]
    t = ((points[:, :, None, :] - verts[:, None]) * ab[:, None]).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denom > 0.0, t / denom, 0.0)
    proj = verts[:, None] + np.clip(t, 0.0, 1.0)[..., None] * ab[:, None]
    seg = ((points[:, :, None, :] - proj) ** 2).sum(axis=-1).argmin(axis=-1)
    targets = np.take_along_axis(proj, seg[..., None, None], axis=2)[:, :, 0]
    return targets, np.ones(points.shape[:2], dtype=bool)


def _corner_projection(points, corner_indices, verts, sizes, corner_vertex, span):
    count, n, _ = points.shape
    ci = list(corner_indices)
    targets = np.zeros(points.shape)
    valid = np.zeros((count, n), dtype=bool)
    targets[:, ci] = verts[np.arange(count)[:, None], corner_vertex]
    valid[:, ci] = True
    # Side s holds anchor points ci[s]+1 .. ci[s+1]-1 (the last side runs to
    # the end) and the contour part from vertex corner_vertex[s] to
    # corner_vertex[s+1]. Top and bottom points (s = 0, 2) cast vertical
    # lines, right and left ones horizontal lines.
    side_points = np.diff(ci + [n]) - 1
    side = np.repeat(np.arange(4), side_points)
    index = np.delete(np.arange(ci[0] + 1, n), np.subtract(ci[1:], ci[0] + 1))
    axis = side % 2
    line, at = points[:, index, axis], points[:, index, 1 - axis]
    # Part s has span[s] segments. Its vertex j is its corner's vertex + j
    # along the contour; parts are padded to the longest by repeating their
    # last vertex, so a single-vertex part is the segment from that vertex to
    # itself; segment j joins vertices j and j + 1. Each part's coordinates
    # are read once, the one its side's lines fix (x for vertical ones) and
    # the free one, which sit at ``flat`` and ``flat ^ 1`` in verts.ravel().
    width = max(int(span.max(initial=0)), 1)
    vertex = (corner_vertex[..., None] + np.minimum(np.arange(width + 1), span[..., None])
              ) % sizes[:, None, None]
    flat = ((np.arange(count)[:, None, None] * verts.shape[1] + vertex) * 2
            + np.arange(4)[:, None] % 2)
    fixed, free = (verts.ravel()[at].reshape(-1, width + 1) for at in (flat, flat ^ 1))
    # A segment meets a line unless both its ends lie strictly on one side:
    # unless its lower end is above the line or its upper end below. The
    # comparisons decide; the product of the distances can underflow. Each
    # side's lines meet its part's segments in a (P, side points, width) block.
    ends = fixed.reshape(count, 4, 1, width + 1)
    low, high = np.minimum(ends[..., :-1], ends[..., 1:]), np.maximum(ends[..., :-1], ends[..., 1:])
    bounds = np.cumsum([0, *side_points]).tolist()
    meets = np.concatenate([(low[:, s] <= line[:, a:b, None]) & (high[:, s] >= line[:, a:b, None])
                            for s, (a, b) in enumerate(zip(bounds, bounds[1:]))], axis=1)
    point, seg = np.divmod(np.flatnonzero(meets), width)            # point: anchor x (n - 4) + k
    part = (4 * np.arange(count)[:, None] + side).ravel()[point]    # its row of fixed and free
    keep = seg < np.maximum(span.ravel()[part], 1)                  # not padding
    point, ia = point[keep], part[keep] * (width + 1) + seg[keep]
    fixed, free = fixed.ravel(), free.ravel()
    c, at = line.ravel()[point], at.ravel()[point]
    s1, s2 = fixed[ia] - c, fixed[ia + 1] - c
    # A segment lying on the line offers its nearer end, the first on a tie,
    # any other its crossing. The nearest candidate wins, the first in
    # traversal order on ties, as a scan keeping only strictly nearer ones.
    on = (s1 == 0.0) & (s2 == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        free_at = np.where(on, free[ia], free[ia] + s1 / (s1 - s2) * (free[ia + 1] - free[ia]))
    d2, d2_end = (free_at - at) ** 2, (free[ia + 1] - at) ** 2
    end = on & (d2_end < d2)
    fixed_at = np.where(end, fixed[ia + 1], np.where(on, fixed[ia], c))
    free_at, d2 = np.where(end, free[ia + 1], free_at), np.where(end, d2_end, d2)
    # Candidates come grouped by point, in traversal order: each point takes
    # its first one at the group's least distance.
    starts = np.flatnonzero(np.diff(point, prepend=-1))
    least = np.repeat(np.fmin.reduceat(d2, starts), np.diff(starts, append=len(d2)))
    hit = np.flatnonzero(d2 == least)
    first = hit[np.diff(point[hit], prepend=-1) != 0]
    first = first[d2[first] < np.inf]
    anchor, k = np.divmod(point[first], len(index))
    targets[anchor, index[k], axis[k]] = fixed_at[first]
    targets[anchor, index[k], 1 - axis[k]] = free_at[first]
    valid[anchor, index[k]] = True
    return targets, valid


def _slices(count: int, elements: int) -> list[slice]:
    """Slices of ``count`` anchors, at most BATCH_ELEMENTS // ``elements`` and at least one each."""
    step = max(1, BATCH_ELEMENTS // max(elements, 1))
    return [slice(i, i + step) for i in range(0, count, step)]


def match_points(points, corner_indices, vertices, strategy: str,
                 contour=None) -> tuple[np.ndarray, np.ndarray]:
    """Match P mask anchors, (P, n, 2) points sharing ``corner_indices``, to contours.

    ``vertices`` is one contour's (m, 2) vertex array, matched to every
    anchor; or, given ``contour``, a sequence of contours' vertex arrays of
    any sizes, anchor i being matched to ``vertices[contour[i]]``. Returns
    targets (P, n, 2), zero where not valid, and valid (P, n); each anchor's
    rows equal its match alone. Anchors are matched in slices, each sized so
    that its kernel works on at most ``BATCH_ELEMENTS`` array elements, or
    on one anchor: 4 x n x m an anchor for the nearest strategies, m being
    the largest contour, and max(n - 4, 4) x (widest part + 1) for corner
    projection, after a pass of 4 x 4 x m that finds the corners' vertices.

    * Nearest point: exact L1 distance ties go to the lowest vertex index.
      Every point is valid.
    * Nearest line: segments are the closed edges (v_i, v_{i+1 mod m}), the
      distance is Euclidean to the clamped projection, and exact ties go to
      the lowest segment index. Every point is valid.
    * Corner projection needs the four increasing ``corner_indices``
      (top-left, top-right, bottom-right, bottom-left, the stored
      orientation); the nearest strategies ignore them. The corners' nearest
      vertices split the contour into four parts by traversal order. A
      non-corner point takes the intersection of its cast line with its part
      nearest to it, ties going to the first in traversal order; it is
      invalid when the line misses the part. Corner points are always valid.
      A part whose two corner targets coincide is a single vertex and matches
      only a line through it.
    """
    if strategy not in STRATEGIES:
        raise PointSetError(f"unknown matching strategy {strategy!r}; expected one of {STRATEGIES}")
    points = np.asarray(points, dtype=float)
    if points.ndim != 3 or points.shape[2] != 2:
        raise PointSetError(f"expected (P, n, 2) anchor points, got shape {points.shape}")
    if strategy == CORNER_PROJECTION and np.shape(corner_indices) != (4,):
        raise PointSetError(f"corner projection needs 4 corner indices, got {corner_indices}")
    count, n, _ = points.shape
    contours = [vertices] if contour is None else list(vertices)
    owner = np.zeros(count, dtype=np.intp) if contour is None else np.asarray(contour)
    if (owner.shape != (count,) or owner.dtype.kind not in "iu"
            or ((owner < 0) | (owner >= len(contours))).any()):
        raise PointSetError(f"expected {count} contour indices in 0..{len(contours) - 1}")
    sizes = np.array([len(v) for v in contours], dtype=np.intp)
    table = np.full((len(contours), sizes.max(initial=0), 2), np.inf)
    for row, verts in zip(table, contours):
        row[:len(verts)] = verts
    sizes, m = sizes[owner], table.shape[1]
    targets, valid = np.empty(points.shape), np.empty((count, n), dtype=bool)
    if strategy != CORNER_PROJECTION:
        kernel = {NEAREST_POINT: _nearest_point, NEAREST_LINE: _nearest_line}[strategy]
        for s in _slices(count, 4 * n * m):
            targets[s], valid[s] = kernel(points[s], table[owner[s]], sizes[s])
        return targets, valid
    ci = list(corner_indices)
    if not 0 <= ci[0] < ci[1] < ci[2] < ci[3] < n:
        raise PointSetError(f"corner indices must increase within {n} points, got {ci}")
    corner_vertex = np.empty((count, 4), dtype=np.intp)
    for s in _slices(count, 4 * 4 * m):
        corner_vertex[s] = _nearest_vertex(points[s][:, ci], table[owner[s]])
    span = (corner_vertex[:, [1, 2, 3, 0]] - corner_vertex) % sizes[:, None]
    for s in _slices(count, max(n - 4, 4) * (max(int(span.max(initial=0)), 1) + 1)):
        targets[s], valid[s] = _corner_projection(points[s], ci, table[owner[s]], sizes[s],
                                                  corner_vertex[s], span[s])
    return targets, valid


def match_pose_points(joints, gt_joints, visibility) -> tuple[np.ndarray, np.ndarray]:
    """Pair (P, 17, 2) anchor joints with their gts' joints by index.

    ``gt_joints`` is each anchor's gt's joints, (P, 17, 2), and
    ``visibility`` their (P, 17) visibility. Returns targets (P, 17, 2) and
    valid (P, 17). Validity is visibility > 0; the targets of invisible
    joints are zeroed and carry no offset.
    """
    shape = joint_array(joints, (None, NUM_JOINTS, 2), "joints").shape
    gt_joints = joint_array(gt_joints, shape, "gt_joints")
    valid = joint_array(visibility, shape[:2], "visibility") > 0
    return np.where(valid[..., None], gt_joints, 0.0), valid
