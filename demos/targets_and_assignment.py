"""From a corpus of instances to a training-targets file.

Assignment labels every anchor against every ground truth by similarity
(box IoU for masks, OKS for poses): positive at or above hi, negative
below lo, ignored in between. emit_targets runs assignment plus matching
over a whole corpus and writes one JSON line per anchor, with per-point
regression offsets on the positive ones.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from pointset_anchors import (
    PyramidConfig,
    TargetConfig,
    assign_arrays,
    box_iou_matrix,
    emit_targets,
    generate_grid,
    generate_synthetic_corpus,
)

records = generate_synthetic_corpus("contours", count=6, seed=5,
                                    image_size=(256, 256))
print(f"corpus: {len(records)} contour instances on 256 x 256 images")

# A two-level pyramid keeps the numbers readable.
pyramid = PyramidConfig(levels=((16.0, 64.0), (32.0, 128.0)))
grid = generate_grid(pyramid, (256, 256), mode="mask")

# the mask task's default thresholds
hi, lo = TargetConfig().hi, TargetConfig().lo
first = [r for r in records if r.image_id == records[0].image_id]
# One row per anchor, one column per gt: the IoU of the anchor's implicit box.
sim = box_iou_matrix(grid.box_stack(), np.asarray([r.bbox.as_array() for r in first]))
labels, matched, best = assign_arrays(sim, hi=hi, lo=lo, force_nearest=True)
print(f"\nimage {first[0].image_id}: {grid.num_anchors} anchors vs "
      f"{len(first)} gt at hi={hi} lo={lo}")
print("  positives:", np.count_nonzero(labels > 0),
      " negatives:", np.count_nonzero(labels == 0),
      " ignored:", np.count_nonzero(labels < 0))

# force_nearest guarantees every gt owns at least its best anchor, so no
# instance is silently dropped even when nothing clears hi.
claimed = set(matched[labels > 0].tolist())
assert claimed == set(range(len(first)))

# --- the file format ---------------------------------------------------------

config = TargetConfig(pyramid=pyramid, strategy="corner-projection")
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "targets.jsonl"
    summary = emit_targets(records, config, out)
    lines = out.read_text().splitlines()

header = json.loads(lines[0])
print("\nheader:", {k: header[k] for k in ("format", "version", "task", "head_dims")})
print("summary:", {k: summary[k] for k in ("images", "anchors", "positives", "lines")})

# One line per anchor in (image, level, row, col, slot) order; positives
# carry the matched offsets in units of the level stride.
positive = next(json.loads(s) for s in lines[1:] if json.loads(s)["label"] > 0)
print("\nfirst positive line:")
print("  keys:", sorted(positive))
print("  (image, level, row, col, slot) =",
      tuple(positive[k] for k in ("image", "level", "row", "col", "slot")))
offsets = np.asarray(positive["offsets"])
print("  matched gt:", positive["gt"], " IoU:", round(positive["sim"], 4),
      " offsets shape:", offsets.shape)
