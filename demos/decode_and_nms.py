"""Inference-side plumbing: decode, then NMS.

Simulates a detector head on a crowded scene. Each ground truth contour
gets several candidate detections whose offsets are corrupted copies of
the perfect regression targets; decoding turns them back into polygons
and NMS keeps one per object.
"""

import numpy as np

from pointset_anchors import (
    Contour,
    Detection,
    construct_mask,
    decode_points,
    match_points,
    nms,
    point_offsets,
    random_convex_polygon,
    rasterized_mask_iou,
    sample_box_perimeters,
)

rng = np.random.default_rng(3)

# Three objects, deliberately overlapping: centers 60 px apart, radius ~45.
centers = [(100.0, 100.0), (160.0, 110.0), (120.0, 170.0)]
gts = [Contour(random_convex_polygon(rng, 10, c, radii=(45.0, 45.0))) for c in centers]

candidates = []
for gt_index, gt in enumerate(gts):
    bounds = gt.bounds()
    side = float(np.sqrt(bounds.width * bounds.height))
    # Five candidates per object: jittered anchor placements with noisy
    # offsets, scored by how little noise they carry.
    for trial in range(5):
        shift = rng.normal(0.0, 6.0, size=2)
        centre = np.add(bounds.center, shift)
        box = np.concatenate([centre - side / 2.0, centre + side / 2.0])
        points, corners = sample_box_perimeters(box[None], 24)   # a batch of one
        targets, valid = match_points(points, corners, gt.vertices, "corner-projection")
        points = points[0]
        offsets = point_offsets(points, targets[0], valid[0])
        noise = rng.normal(0.0, 0.5 + 2.0 * trial, size=offsets.shape)
        decoded, valid = decode_points(points, offsets + noise, valid[0])
        shape = construct_mask(decoded, valid)
        score = float(np.clip(0.95 - 0.12 * trial + rng.normal(0, 0.02), 0.05, 1.0))
        candidates.append(Detection(score=score, class_id=1, shape=shape,
                                    anchor_ref=gt_index))

print(f"{len(candidates)} candidates for {len(gts)} objects")

kept = nms(candidates, iou_threshold=0.5)
print(f"\nNMS at 0.5 keeps {len(kept)}:")
for i in kept:
    det = candidates[i]
    best = max(rasterized_mask_iou(det.shape, gt) for gt in gts)
    print(f"  score {det.score:.2f}  object {det.anchor_ref}  "
          f"mask IoU vs its gt {best:.3f}")

# Each surviving detection should cover a distinct object.
assert len({candidates[i].anchor_ref for i in kept}) == len(kept)
