"""Reference loss math.

The total objective is

    L = (1 / max(N_pos, 1)) * sum L_cls  +  (lambda / max(N_pos, 1)) * sum L_reg

where L_cls is the focal loss over per-class probabilities, L_reg is the
per-coordinate L1 over valid offsets of positive anchors, and N_pos counts the
positive anchors. These are plain-numpy reference formulas, not a training
loop. The head output dimensions (``head_output_dims``) and the task names
live in ``anchors``, beside the anchor families; this module binds them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import anchors
from .errors import PointSetError

FOCAL_ALPHA = 0.25
FOCAL_GAMMA = 2.0
EPSILON = 1e-12

LAMBDA_SEGMENTATION = 0.1
LAMBDA_POSE = 10.0

TASK_SEGMENTATION = anchors.TASK_SEGMENTATION
TASK_POSE = anchors.POSE_MODE
head_output_dims = anchors.head_output_dims


def balance_for_task(task: str) -> float:
    """The regression balance lambda preset for a task."""
    if task == TASK_SEGMENTATION:
        return LAMBDA_SEGMENTATION
    if task == TASK_POSE:
        return LAMBDA_POSE
    raise PointSetError(f"unknown task {task!r}")


def focal_loss(p: float, is_positive: bool, alpha: float = FOCAL_ALPHA,
               gamma: float = FOCAL_GAMMA) -> float:
    """Focal loss for one predicted probability.

    -alpha * (1 - p)**gamma * log(p) for a positive target and
    -(1 - alpha) * p**gamma * log(1 - p) for a negative one, with p clamped
    to [EPSILON, 1 - EPSILON]. At gamma=0, alpha=1 this is plain cross
    entropy.
    """
    if not (0.0 <= p <= 1.0):
        raise PointSetError(f"probability must be in [0, 1], got {p}")
    return float(_focal_terms(p, is_positive, alpha, gamma))


def _focal_terms(probs, positive, alpha: float, gamma: float) -> np.ndarray:
    """Per-entry focal loss of ``focal_loss``, elementwise over arrays."""
    probs = np.clip(probs, EPSILON, 1.0 - EPSILON)
    return np.where(
        positive,
        -alpha * (1.0 - probs) ** gamma * np.log(probs),
        -(1.0 - alpha) * probs ** gamma * np.log(1.0 - probs),
    )


class LossBreakdown(NamedTuple):
    loss_cls: float
    loss_reg: float
    total: float


@dataclass(frozen=True, eq=False)
class LossInputs:
    """Aligned predictions and targets for the reference objective.

    class_probs: (A, C) per-class probabilities (independent sigmoids).
    class_targets: (A,) labels; 0 negative, -1 ignore, 1..C the positive class.
    reg_preds / reg_targets: (A, P, 2) offset predictions and targets.
    reg_valid: (A, P) validity of each target point.
    balance: the regression weight lambda.
    """

    class_probs: np.ndarray
    class_targets: np.ndarray
    reg_preds: np.ndarray
    reg_targets: np.ndarray
    reg_valid: np.ndarray
    balance: float = LAMBDA_SEGMENTATION

    def __post_init__(self):
        probs = np.asarray(self.class_probs, dtype=float)
        targets = np.asarray(self.class_targets, dtype=int)
        preds = np.asarray(self.reg_preds, dtype=float)
        reg_targets = np.asarray(self.reg_targets, dtype=float)
        valid = np.asarray(self.reg_valid, dtype=bool)
        if probs.ndim != 2:
            raise PointSetError(f"class_probs must be (A, C), got {probs.shape}")
        a, c = probs.shape
        if targets.shape != (a,):
            raise PointSetError(f"class_targets must be ({a},), got {targets.shape}")
        if targets.max(initial=0) > c:
            raise PointSetError(f"class target exceeds {c} classes")
        if targets.min(initial=0) < -1:
            raise PointSetError("class targets are 0, -1 or positive class ids")
        if preds.ndim != 3 or preds.shape[0] != a or preds.shape[2] != 2:
            raise PointSetError(f"reg_preds must be ({a}, P, 2), got {preds.shape}")
        if reg_targets.shape != preds.shape:
            raise PointSetError(
                f"reg_targets shape {reg_targets.shape} != reg_preds shape {preds.shape}"
            )
        if valid.shape != preds.shape[:2]:
            raise PointSetError(f"reg_valid must be {preds.shape[:2]}, got {valid.shape}")
        if not (np.isfinite(probs).all() and (probs >= 0).all() and (probs <= 1).all()):
            raise PointSetError("class_probs must be probabilities in [0, 1]")
        if not self.balance > 0.0:
            raise PointSetError(f"balance must be > 0, got {self.balance}")
        for name, value in (("class_probs", probs), ("class_targets", targets),
                            ("reg_preds", preds), ("reg_targets", reg_targets),
                            ("reg_valid", valid)):
            object.__setattr__(self, name, value)


def total_loss(inputs: LossInputs) -> LossBreakdown:
    """Classification + regression objective over one anchor set.

    Ignored anchors (class target -1) contribute to neither term; regression
    covers only valid points of positive anchors; both sums divide by
    max(N_pos, 1).
    """
    targets = inputs.class_targets
    counted = targets >= 0
    probs = inputs.class_probs[counted]
    labels = targets[counted]
    positive = np.zeros(probs.shape, dtype=bool)
    rows = np.nonzero(labels > 0)[0]
    positive[rows, labels[rows] - 1] = True
    per_entry = _focal_terms(probs, positive, FOCAL_ALPHA, FOCAL_GAMMA)
    denom = max(int(np.count_nonzero(targets > 0)), 1)
    loss_cls = float(per_entry.sum()) / denom

    pos_rows = targets > 0
    mask = inputs.reg_valid & pos_rows[:, None]
    residual = np.abs(inputs.reg_preds - inputs.reg_targets)
    loss_reg = inputs.balance * float(residual[mask].sum()) / denom
    return LossBreakdown(loss_cls, loss_reg, loss_cls + loss_reg)
