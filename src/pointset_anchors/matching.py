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

from .anchors import NUM_JOINTS
from .errors import JointCountMismatchError, PointSetError

NEAREST_POINT = "nearest-point"
NEAREST_LINE = "nearest-line"
CORNER_PROJECTION = "corner-projection"
STRATEGIES = (NEAREST_POINT, NEAREST_LINE, CORNER_PROJECTION)

# The most anchors x points x vertices one matching step holds; a larger
# batch is matched in slices of anchors, so the working set stays bounded.
BATCH_ELEMENTS = 2 ** 15


def point_offsets(points: np.ndarray, targets: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Target minus anchor point where valid and 0 elsewhere, for any leading shape."""
    return np.where(valid[..., None], targets - points, 0.0)


def _nearest_vertex(points: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Index of each point's L1-nearest vertex, the lowest index on ties."""
    dist = np.abs(points[..., None, :] - verts)
    return (dist[..., 0] + dist[..., 1]).argmin(axis=-1)     # .sum(-1)'s bits: no -0.0


def _nearest_point(points, corner_indices, verts):
    return verts[_nearest_vertex(points, verts)], np.ones(points.shape[:2], dtype=bool)


def _nearest_line(points, corner_indices, verts):
    ab = np.roll(verts, -1, axis=0) - verts
    denom = (ab * ab).sum(axis=1)
    t = ((points[:, :, None, :] - verts) * ab).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denom > 0.0, t / denom, 0.0)
    proj = verts + np.clip(t, 0.0, 1.0)[..., None] * ab
    seg = ((points[:, :, None, :] - proj) ** 2).sum(axis=-1).argmin(axis=-1)
    targets = np.take_along_axis(proj, seg[..., None, None], axis=2)[:, :, 0]
    return targets, np.ones(points.shape[:2], dtype=bool)


def _corner_projection(points, corner_indices, verts):
    count, n, _ = points.shape
    m = len(verts)
    ci = list(corner_indices)
    if not 0 <= ci[0] < ci[1] < ci[2] < ci[3] < n:
        raise PointSetError(f"corner indices must increase within {n} points, got {ci}")
    corner_vertex = _nearest_vertex(points[:, ci], verts)          # (P, 4)
    targets = np.zeros(points.shape)
    valid = np.zeros((count, n), dtype=bool)
    targets[:, ci] = verts[corner_vertex]
    valid[:, ci] = True
    # Side s holds anchor points ci[s]+1 .. ci[s+1]-1 (the last side runs to
    # the end) and the contour part from vertex corner_vertex[s] to
    # corner_vertex[s+1]. Top and bottom points (s = 0, 2) cast vertical
    # lines, right and left ones horizontal lines.
    side = np.repeat(np.arange(4), np.diff(ci + [n]) - 1)
    index = np.delete(np.arange(ci[0] + 1, n), np.subtract(ci[1:], ci[0] + 1))
    axis = np.tile(side % 2, count)                                 # per (anchor, point)
    span = ((corner_vertex[:, (side + 1) % 4] - corner_vertex[:, side]) % m).ravel()
    line, at = points[:, index, side % 2].ravel(), points[:, index, 1 - side % 2].ravel()
    # ``coords`` is x, y, y, x along the contour twice over: vertex v has the
    # coordinate a line fixes at axis * 2m + v, its free one 4m on. Segment j
    # of a part joins its vertices j and j + 1, and parts are padded to the
    # longest by repeating their last vertex, so a single-vertex part is the
    # segment from that vertex to itself.
    coords = np.tile(verts.T[[0, 1, 1, 0]], 2).ravel()
    width = max(int(span.max(initial=0)), 1)
    part = (corner_vertex[:, side].ravel() + axis * 2 * m)[:, None] + np.minimum(
        np.arange(width + 1), span[:, None])
    above, below = coords[part] > line[:, None], coords[part] < line[:, None]
    # A segment meets the line unless both ends lie strictly on one side,
    # which comparisons decide; the product of the distances can underflow.
    meets = ~(above[:, :-1] & above[:, 1:] | below[:, :-1] & below[:, 1:])
    point, seg = np.divmod(np.flatnonzero(meets), width)
    keep = seg < np.maximum(span[point], 1)                         # not padding
    point, seg = point[keep], seg[keep]
    ia, ib, c = part[point, seg], part[point, seg + 1], line[point]
    s1, s2 = coords[ia] - c, coords[ib] - c
    a_free, b_free = coords[ia + 4 * m], coords[ib + 4 * m]
    # A segment lying on the line offers both ends, any other its crossing.
    # The nearest candidate wins and, the sort being stable, the first in
    # traversal order on ties, as a scan keeping only strictly nearer ones.
    on = (s1 == 0.0) & (s2 == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = np.where(on, a_free, a_free + s1 / (s1 - s2) * (b_free - a_free))
    owner = np.repeat(point, 2)
    fixed = np.column_stack([np.where(on, coords[ia], c), coords[ib]]).ravel()
    free = np.column_stack([cross, b_free]).ravel()
    d2 = np.where(np.column_stack([np.ones_like(on), on]).ravel(), (free - at[owner]) ** 2, np.inf)
    order = np.lexsort((d2, owner))
    first = order[np.diff(owner[order], prepend=-1) != 0]
    first = first[d2[first] < np.inf]
    anchor, k = np.divmod(owner[first], len(index))
    targets[anchor, index[k], axis[owner[first]]] = fixed[first]
    targets[anchor, index[k], 1 - axis[owner[first]]] = free[first]
    valid[anchor, index[k]] = True
    return targets, valid


_KERNELS = dict(zip(STRATEGIES, (_nearest_point, _nearest_line, _corner_projection)))


def match_points(points, corner_indices, vertices, strategy: str) -> tuple[np.ndarray, np.ndarray]:
    """Match P mask anchors, (P, n, 2) points sharing ``corner_indices``, to one contour.

    ``vertices`` is the contour's (m, 2) vertex array. Returns targets
    (P, n, 2), zero where not valid, and valid (P, n); each anchor's rows
    equal its match alone. At most ``BATCH_ELEMENTS`` of P x n x m are worked
    on at once.

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
    kernel = _KERNELS.get(strategy)
    if kernel is None:
        raise PointSetError(f"unknown matching strategy {strategy!r}; expected one of {STRATEGIES}")
    points = np.asarray(points, dtype=float)
    verts = np.asarray(vertices, dtype=float)
    if points.ndim != 3 or points.shape[2] != 2:
        raise PointSetError(f"expected (P, n, 2) anchor points, got shape {points.shape}")
    if strategy == CORNER_PROJECTION and np.shape(corner_indices) != (4,):
        raise PointSetError(f"corner projection needs 4 corner indices, got {corner_indices}")
    count, n, _ = points.shape
    step = max(1, BATCH_ELEMENTS // max(n * len(verts), 1))
    targets = np.empty(points.shape)
    valid = np.empty((count, n), dtype=bool)
    for i in range(0, count, step):
        targets[i:i + step], valid[i:i + step] = kernel(points[i:i + step], corner_indices, verts)
    return targets, valid


def match_pose_points(joints, gt_joints, visibility) -> tuple[np.ndarray, np.ndarray]:
    """Pair (P, 17, 2) anchor joints with one gt's (17, 2) joints by index.

    Returns targets (P, 17, 2) and valid (P, 17). Validity is visibility > 0;
    the targets of invisible joints are zeroed and carry no offset.
    """
    shape = np.shape(joints)
    gt_joints = np.asarray(gt_joints, dtype=float)
    visibility = np.asarray(visibility)
    if len(shape) != 3 or shape[1:] != (NUM_JOINTS, 2) or gt_joints.shape != (NUM_JOINTS, 2):
        raise JointCountMismatchError(f"expected (P, {NUM_JOINTS}, 2) and ({NUM_JOINTS}, 2) "
                                      f"joint arrays, got {shape} and {gt_joints.shape}")
    if visibility.shape != (NUM_JOINTS,):
        raise JointCountMismatchError(
            f"expected ({NUM_JOINTS},) visibility, got {visibility.shape}"
        )
    valid = np.broadcast_to(visibility > 0, shape[:2])
    return np.where(valid[..., None], gt_joints, 0.0), valid
