"""Pose anchor shapes: from a center point to k-means modes.

Pose anchors start from canonical skeleton shapes. This script builds the
ladder of candidates and measures, on a synthetic pose corpus, what
fraction of ground truths each shape family can reach at OKS 0.5: a
single center point, a rectangle outline, the corpus mean pose, and
k-means cluster modes. Richer shape priors match more people.
"""

import numpy as np

from pointset_anchors import (
    CoverageConfig,
    PyramidConfig,
    center_point_shape,
    coverage_report,
    generate_synthetic_corpus,
    kmeans_poses,
    normalize_pose,
    rectangle_shape,
    render_coverage_table,
)

records = generate_synthetic_corpus("poses", count=300, seed=8,
                                    image_size=(256, 256), jitter=2.0,
                                    truncation=0.3)
print(f"corpus: {len(records)} poses, "
      f"{sum(r.keypoints[:, 2].min() == 0 for r in records)} truncated")

# Normalize each pose into the unit frame of its bounding box; this is the
# space the canonical shapes live in.
normalized = [normalize_pose(r.keypoints[:, :2], r.keypoints[:, 2], r.bbox)
              for r in records]
modes = kmeans_poses(normalized, k=3, seed=0)
print("k-means inertia per iteration:",
      [round(v, 3) for v in modes.inertia_history[:4]], "...")

spread = np.linalg.norm(modes.modes - modes.modes.mean(axis=0), axis=2).mean()
print(f"3 modes, mean joint spread around their average: {spread:.3f}")

# --- coverage ladder ---------------------------------------------------------

pyramid = PyramidConfig()
mean = kmeans_poses(normalized, k=1, seed=0)
ladder = [
    CoverageConfig("center-point", pyramid, "pose", center_point_shape()[None]),
    CoverageConfig("rectangle", pyramid, "pose", rectangle_shape()[None]),
    CoverageConfig("mean-pose", pyramid, "pose", mean.modes),
    CoverageConfig("kmeans-3", pyramid, "pose", modes.modes),
]
reports = coverage_report(records, ladder, threshold=0.5)
print()
print(render_coverage_table(reports))

fractions = [r.matched_gt_fraction for r in reports]
assert fractions == sorted(fractions), "the ladder should only improve"
print("\nmatched-gt fraction is monotone up the ladder: ok")
