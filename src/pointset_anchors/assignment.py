"""Positive/negative/ignore assignment of anchors to ground truths.

Similarity is box IoU for mask anchors (their implicit boxes vs gt boxes) or
object keypoint similarity (OKS) for pose anchors. An anchor is positive when
its best similarity reaches ``hi`` (matched to its argmax gt), negative when
it stays below ``lo``, and ignored in between. With ``force_nearest`` each gt
also claims its best anchor even below ``hi``; a contested anchor changes owner
only on a strictly higher similarity, so a gt can end with no positive at all.

OKS has one term function and three entry points: ``oks`` for one pair,
``oks_matrix`` for arbitrary candidates and ``oks_lattice`` for grids. A
joint's term is flushed per axis, f(dx^2, d) * f(dy^2, d) with f = 0 past
EXP_FLUSH, because only a per-axis rule keeps the term separable into an x
part and a y part, and the lattice path is built on that split.
"""

from __future__ import annotations

import numpy as np

from .anchors import NUM_JOINTS, joint_array
from .errors import PointSetError

# Per-joint falloff widths kappa, index-aligned with the canonical 17-joint
# order (nose, eyes, ears, shoulders, elbows, wrists, hips, knees, ankles).
COCO_SIGMAS = np.array([
    0.026, 0.025, 0.025, 0.035, 0.035, 0.079, 0.079, 0.072, 0.072,
    0.062, 0.062, 0.107, 0.107, 0.087, 0.087, 0.089, 0.089,
])
COCO_KAPPAS = 2.0 * COCO_SIGMAS
COCO_KAPPAS.setflags(write=False)

SIMILARITY_IOU = "iou"
SIMILARITY_OKS = "oks"

# Per-axis flush: an axis factor exp(-s/d) is exactly 0 once s/d > EXP_FLUSH
# (exp(-40) < 5e-18, far below every stated tolerance). A cutoff on the summed
# square dx^2 + dy^2 cannot be split into an x part and a y part; this one
# can, and the lattice path is built on that split. Every OKS entry point
# calls ``_flushed_exp``, so all of them flush at exactly the same spots.
EXP_FLUSH = 40.0


def _flushed_exp(delta, d):
    """The OKS factor of one axis: exp(-delta^2 / d), or 0 once delta^2 / d > EXP_FLUSH.

    ``delta`` is the caller's own temporary, and the factor is made in it.
    """
    z = np.multiply(delta, delta, out=delta)
    with np.errstate(over="ignore"):  # a tiny d overflows to -inf, which is flushed to 0
        z /= -d
    flushed = z < -EXP_FLUSH
    # an underflowing exp takes a slow path, and flushed entries are zeroed anyway
    np.maximum(z, -EXP_FLUSH, out=z)
    np.exp(z, out=z)
    np.putmask(z, flushed, 0.0)
    return z


def _oks_widths(gt_scales, gt_visibility):
    """Per gt and joint the Gaussian width d = 2 * scale * kappa^2, plus visibility.

    Raises when a gt has no visible joint, or when a visible joint's width is
    not finite and > 0 (a scale of 0 or below, not finite, or so small that
    the product underflows), so no path ever divides 0 by 0.
    """
    visible = np.reshape(gt_visibility, (-1, NUM_JOINTS)) > 0
    scales = np.asarray(gt_scales, dtype=float).reshape(len(visible))
    has_visible = visible.any(axis=1)
    if not has_visible.all():
        raise PointSetError(f"gt {np.argmin(has_visible)} has no visible joints")
    with np.errstate(over="ignore"):
        widths = 2.0 * scales[:, None] * COCO_KAPPAS ** 2
    valid = ((widths > 0.0) & (widths < np.inf)) | ~visible
    if not valid.all():
        g = np.argmin(valid.all(axis=1))
        raise PointSetError(
            f"gt {g} has scale {scales[g]}; OKS needs 2 * scale * kappa^2 "
            "finite and > 0 for every visible joint"
        )
    return widths, visible


def oks(candidate, gt_joints, visibility, gt_scale: float) -> float:
    """Object keypoint similarity of a candidate joint set against a gt pose.

    Mean over visible joints of exp(-d_i^2 / (2 * gt_scale * kappa_i^2)),
    where d_i is the Euclidean distance between paired joints and gt_scale is
    the gt's area in square pixels. Each term is flushed per axis (see
    EXP_FLUSH).
    """
    return float(oks_matrix(joint_array(candidate, (NUM_JOINTS, 2), "candidate"),
                            joint_array(gt_joints, (NUM_JOINTS, 2), "gt_joints"),
                            joint_array(visibility, (NUM_JOINTS,), "visibility"),
                            [gt_scale])[0, 0])


def oks_matrix(candidates, gt_joints, gt_visibility, gt_scales) -> np.ndarray:
    """Pairwise OKS between (A, 17, 2) candidates and (G, 17, 2) ground truths.

    The direct form, for candidates of any layout (such as the output of
    ``refine_pose_anchors``); grids go through ``oks_lattice``.
    """
    candidates = np.asarray(candidates, dtype=float).reshape(-1, NUM_JOINTS, 2)
    gt_joints = np.asarray(gt_joints, dtype=float).reshape(-1, NUM_JOINTS, 2)
    widths, visible = _oks_widths(gt_scales, gt_visibility)
    out = np.empty((len(candidates), len(gt_joints)))
    for g in range(len(gt_joints)):
        v = visible[g]
        diff = candidates[:, v, :] - gt_joints[g, v, :]
        terms = _flushed_exp(diff[..., 0], widths[g, v]) * _flushed_exp(diff[..., 1], widths[g, v])
        out[:, g] = terms.mean(axis=1)
    return out


def oks_lattice(grid, gt_joints, gt_visibility, gt_scales, out=None) -> np.ndarray:
    """OKS of every anchor of a pose grid against every gt.

    Rows follow the grid's stacking order (level, row, col, slot). The anchor
    at (row, col, slot) has joints (x[col], y[row]) + templates[slot], so its
    term for joint j factors into f over x, which depends only on
    (slot, j, col), and f over y, which depends only on (slot, j, row). With
    all levels' coordinates side by side (``grid.axis_coordinates``), an
    image costs one exponential per axis; each level's score maps of all
    (gt, slot) pairs come from one batched matmul of (ey * weight)^T @ ex on
    its own columns, written into one output. ``grid.points`` gathers the
    stacked joints from these same coordinates, so every factor, and every
    flush, is bit-identical to ``oks_matrix`` on them by construction.
    The result is written into ``out`` when given, an (anchors, gts) array.
    """
    gt_joints = np.asarray(gt_joints, dtype=float).reshape(-1, NUM_JOINTS, 2)
    widths, visible = _oks_widths(gt_scales, gt_visibility)
    # Invisible joints get a harmless coordinate and width and a weight of 0,
    # so their arbitrary (possibly non-finite) input never reaches the matmul.
    gt = np.where(visible[..., None], gt_joints, 0.0)[:, None, :, :, None]   # (G, 1, 17, 2, 1)
    widths = np.where(visible, widths, 1.0)[:, None, :, None]                 # (G, 1, 17, 1)
    x, y = grid.axis_coordinates()
    ex = _flushed_exp(x - gt[..., 0, :], widths)                              # (G, K, 17, all cols)
    ey = _flushed_exp(y - gt[..., 1, :], widths)                              # (G, K, 17, all rows)
    ey *= (visible / visible.sum(axis=1, keepdims=True))[:, None, :, None]
    if out is None:
        out = np.empty((grid.num_anchors, len(gt_joints)))
    start = col = row = 0
    for level in grid.levels:
        ey_level, ex_level = ey[..., row:row + level.rows], ex[..., col:col + level.cols]
        if min(level.rows, level.cols) == 1:
            # a one-row or one-column map takes BLAS's vector path, whose
            # summing order follows the vector's stride: keep it unit
            ey_level, ex_level = np.ascontiguousarray(ey_level), np.ascontiguousarray(ex_level)
        level_out = out[start:start + level.num_anchors].reshape(
            level.rows, level.cols, -1, len(gt_joints))
        # the (G, K, rows, cols) maps, gone before the next level's are made
        level_out[...] = np.matmul(ey_level.transpose(0, 1, 3, 2), ex_level).transpose(2, 3, 1, 0)
        start, col, row = start + level.num_anchors, col + level.cols, row + level.rows
    return out


LABEL_IGNORE = -1
LABEL_NEGATIVE = 0


def check_thresholds(hi: float, lo: float) -> None:
    """Reject assignment thresholds unless 0 <= lo <= hi <= 1 (so NaN too)."""
    if not (0.0 <= lo <= hi <= 1.0):
        raise PointSetError(f"thresholds must satisfy 0 <= lo <= hi <= 1, got lo={lo} hi={hi}")


def assign_arrays(similarity, hi: float, lo: float, force_nearest: bool = False,
                  gt_class_ids=None, out=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assign labels from an (anchors, gts) similarity matrix: (labels, matched_gt, best).

    ``labels`` holds 0 for negative, -1 for ignore, else the positive class
    id; ``matched_gt`` holds the claimed gt index or -1; ``best`` is the
    similarity to the claimed gt, or the best one for an unclaimed anchor.
    The similarity must be finite. It is read in one pass per gt column, and
    three tie rules hold (``tests/oracles.py::brute_assign`` pins them):
    an anchor takes the lowest-index gt among equal bests; with
    ``force_nearest`` each gt, in index order, claims its lowest-index
    argmax anchor even below ``hi``; and a contested anchor changes owner
    only on a strictly higher similarity. With no gts (an (A, 0) matrix)
    every anchor is negative. The three arrays are written into ``out``
    when given, an (anchors,) int, intp and float array.
    """
    check_thresholds(hi, lo)
    sim = np.asarray(similarity, dtype=float)
    if sim.ndim != 2:
        raise PointSetError(f"similarity must be 2-D, got shape {sim.shape}")
    if not np.isfinite(sim).all():
        raise PointSetError("similarity must be finite (no NaN or inf)")
    num_anchors, num_gts = sim.shape
    if gt_class_ids is None:
        gt_class_ids = np.ones(num_gts, dtype=int)
    else:
        gt_class_ids = np.asarray(gt_class_ids, dtype=int)
        if gt_class_ids.shape != (num_gts,):
            raise PointSetError(
                f"gt_class_ids must have shape ({num_gts},), got {gt_class_ids.shape}"
            )
        if (gt_class_ids <= 0).any():
            raise PointSetError("gt class ids must be positive integers")
    if out is None:
        out = (np.empty(num_anchors, dtype=int), np.empty(num_anchors, dtype=np.intp),
               np.empty(num_anchors))
    elif any(a.shape != (num_anchors,) for a in out):
        raise PointSetError(f"out must hold three ({num_anchors},) arrays")
    labels, matched, best = out

    labels.fill(LABEL_NEGATIVE)
    if num_gts == 0:
        matched.fill(-1)
        best.fill(0.0)
        return labels, matched, best

    columns = sim.T
    np.copyto(best, columns[0])
    matched.fill(0)                      # the best gt, until it is cut at hi
    for g in range(1, num_gts):
        better = columns[g] > best
        np.copyto(best, columns[g], where=better)
        matched[better] = g
    np.putmask(matched, best < hi, -1)
    if force_nearest:
        for g in range(num_gts):
            a = int(columns[g].argmax())
            if matched[a] < 0 or sim[a, g] > sim[a, matched[a]]:
                matched[a] = g
                best[a] = sim[a, g]

    np.putmask(labels, best >= lo, LABEL_IGNORE)   # a claimed anchor's is overwritten next
    claimed = np.flatnonzero(matched >= 0)
    labels[claimed] = gt_class_ids[matched[claimed]]
    return labels, matched, best


def refine_pose_anchors(stage1_predictions) -> np.ndarray:
    """Stage-1 joint predictions as (P, 17, 2) anchors for a second assignment round.

    A single (17, 2) prediction becomes a batch of one. The result goes
    straight into ``oks`` or ``oks_matrix``.
    """
    preds = np.asarray(stage1_predictions, dtype=float)
    return joint_array(preds[None] if preds.ndim == 2 else preds, (None, NUM_JOINTS, 2),
                       "stage1_predictions")
