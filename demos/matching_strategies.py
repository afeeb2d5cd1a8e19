"""Compare the three anchor-to-contour matching strategies.

Matching decides which ground-truth boundary point each anchor point is
responsible for. The choice matters: nearest-point collapses many anchor
points onto the same vertex, nearest-line projects onto the closest edge
(both always valid), and corner-projection splits the contour into four
parts at the box corners and casts axis-aligned rays, marking points
whose ray misses their part invalid. Order preservation is what the
decoded polygon's quality hinges on.

The round trip anchor -> match -> offsets -> decode -> polygon measures
how much of the original shape each strategy can represent.
"""

import numpy as np

from pointset_anchors import (
    Contour,
    STRATEGIES,
    construct_mask,
    decode_points,
    match_points,
    point_offsets,
    random_star_polygon,
    rasterized_mask_iou,
    sample_box_perimeters,
)

rng = np.random.default_rng(42)
gt = Contour(random_star_polygon(rng, n_vertices=14, center=(128.0, 128.0),
                                 radii=(70.0, 60.0), spikiness=0.35))
bounds = gt.bounds()
print(f"ground truth: {len(gt.vertices)}-gon, bounds {bounds}")

# The anchor whose implicit box is the gt bounding box, 40 points around it:
# a batch of one.
points, corners = sample_box_perimeters(bounds.as_array()[None], 40)
points = points[0]


def match_one(strategy):
    """(targets, valid, offsets) of the one anchor: a batch of one."""
    targets, valid = match_points(points[None], corners, gt.vertices, strategy)
    return targets[0], valid[0], point_offsets(points, targets[0], valid[0])


print(f"\n{'strategy':>18} {'valid':>5} {'mean |offset|':>13} {'round-trip IoU':>14}")
for strategy in STRATEGIES:
    _, valid, offsets = match_one(strategy)
    decoded, flags = decode_points(points, offsets, valid)
    recovered = construct_mask(decoded, flags, strategy)
    iou = rasterized_mask_iou(gt, recovered)
    norms = np.linalg.norm(offsets[valid], axis=1)
    print(f"{strategy:>18} {valid.sum():>3}/40 {norms.mean():>13.2f} {iou:>14.4f}")

# Offsets are literal per-point displacements, so decoding is just addition;
# check one strategy end to end.
_, valid, offsets = match_one("corner-projection")
decoded, _ = decode_points(points, offsets, valid)
assert np.allclose(decoded, points + offsets)
print("\ndecoded points == anchor points + offsets: ok")
