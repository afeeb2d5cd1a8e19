"""The small closed-form pieces: focal loss and OKS falloff.

None of this involves anchors directly; these are the reference
computations training and evaluation lean on, shown at points where the
expected value is known in closed form.
"""

import numpy as np

from pointset_anchors import (
    COCO_KAPPAS,
    LossInputs,
    balance_for_task,
    focal_loss,
    oks,
    total_loss,
)

# --- focal loss --------------------------------------------------------------

# The (1 - p)^gamma factor silences easy examples: a confident correct
# positive costs orders of magnitude less than an uncertain one.
print("focal loss for a positive at confidence p:")
for p in (0.1, 0.5, 0.9, 0.99):
    print(f"  p = {p:4}: {focal_loss(p, True):.6f}")

print("\nregression/classification balance:",
      {task: balance_for_task(task) for task in ("instance-segmentation", "pose")})

# Perfect offsets zero out the regression term exactly, no epsilon floor.
inputs = LossInputs(
    class_probs=np.array([[0.9, 0.1], [0.1, 0.05]]),
    class_targets=np.array([1, 0]),
    reg_preds=np.zeros((2, 4, 2)),
    reg_targets=np.zeros((2, 4, 2)),
    reg_valid=np.ones((2, 4), dtype=bool),
    balance=balance_for_task("instance-segmentation"),
)
breakdown = total_loss(inputs)
print(f"loss with perfect offsets: cls {breakdown.loss_cls:.4f}, "
      f"reg {breakdown.loss_reg}, total {breakdown.total:.4f}")
assert breakdown.loss_reg == 0.0

# --- OKS ---------------------------------------------------------------------

# Displacing one joint by kappa * sqrt(2 * scale) costs exactly exp(-1) on
# that joint; OKS averages over visible joints.
gt = np.zeros((17, 2))
gt[:, 0] = np.arange(17) * 10.0
visibility = np.ones(17)
scale = 120.0 ** 2

candidate = gt.copy()
candidate[0, 0] += COCO_KAPPAS[0] * np.sqrt(2.0 * scale)
value = oks(candidate, gt, visibility, scale)
expected = (16.0 + np.exp(-1.0)) / 17.0
print(f"\nOKS with one joint at its kappa distance: {value:.6f} "
      f"(closed form {expected:.6f})")
assert abs(value - expected) < 1e-12
assert oks(gt, gt, visibility, scale) == 1.0

