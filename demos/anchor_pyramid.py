"""Walk through anchor synthesis: one anchor, then a whole pyramid.

A mask anchor is nothing more than n points sampled clockwise around an
implicit box, with the four box corners pinned to indices 0, n/4, n/2 and
3n/4. A pose anchor is a canonical 17-joint skeleton scaled and rotated
into place. Tiling either over feature-map locations gives the anchor
grid a detector would regress from.
"""

import numpy as np

from pointset_anchors import (
    Box,
    PyramidConfig,
    generate_grid,
    sample_box_perimeter,
    rectangle_shape,
)

# --- one anchor, by hand ---------------------------------------------------

box = Box(40.0, 30.0, 120.0, 90.0)
points, corners = sample_box_perimeter(box, n=16)
print("perimeter samples of", box)
print("corner indices:", corners)
for idx in corners:
    print(f"  point[{idx:2d}] = ({points[idx, 0]:6.1f}, {points[idx, 1]:6.1f})")

# The grid states each box by (base scale, octave, aspect) instead: a level
# of stride 160 over a 160 x 160 image has one location, centred at (80, 80),
# and with one octave and one aspect it holds one box. aspect < 1 means
# taller than wide.
one_slot = PyramidConfig(levels=((160.0, 64.0),), octave_scales=(1.0,), aspect_ratios=(0.5,))
anchor_box = Box(*generate_grid(one_slot, (160, 160), "mask").box_stack()[0].tolist())
print("\nanchor box for aspect 0.5:", anchor_box)
print("width / height =", anchor_box.width / anchor_box.height)

# --- the full pyramid ------------------------------------------------------

config = PyramidConfig()
grid = generate_grid(config, image_size=(512, 512), mode="mask")
print("\nmask grid over a 512 x 512 image")
print(f"{'level':>5} {'stride':>6} {'rows':>4} {'cols':>4} {'per-loc':>7} {'anchors':>8}")
for level in grid.levels:
    print(f"{level.level:>5} {level.stride:>6.0f} {level.rows:>4} {level.cols:>4} "
          f"{level.anchors_per_location:>7} {level.num_anchors:>8}")
print("total mask anchors:", grid.num_anchors)

# Pose grids need canonical poses; a single rectangle shape is the crudest
# possible choice (see pose_modes_ladder.py for learned ones). Every pose
# anchor is one of k modes x 3 scales x 3 rotations per location.
pose_grid = generate_grid(config, image_size=(512, 512), mode="pose",
                          canonical_poses=rectangle_shape()[None])
per_loc = pose_grid.levels[0].anchors_per_location
print(f"\npose grid with 1 canonical mode: {per_loc} variants per location, "
      f"{pose_grid.num_anchors} anchors total")

# The stacked views are what the vectorized pipeline consumes.
boxes = grid.box_stack()
joints = pose_grid.joint_stack()
print("box_stack:", boxes.shape, " joint_stack:", joints.shape)
assert np.isfinite(boxes).all() and np.isfinite(joints).all()
