"""Point-set anchors: one anchor family for boxes, masks and poses.

The package turns ordered point sets into a drop-in replacement for box
anchors: perimeter-sampled mask anchors and clustered pose anchors, with
matching strategies, similarity-based assignment, target codecs, losses
and a small dataset/CLI layer on top.
"""

from types import ModuleType as _ModuleType

from .anchors import (
    DEFAULT_ASPECT_RATIOS, DEFAULT_LEVELS, DEFAULT_OCTAVE_SCALES,
    DEFAULT_POSE_ROTATIONS, DEFAULT_POSE_SCALES, MASK_MODE, NUM_JOINTS, POSE_MODE,
    POSE_ROTATIONS_FIVE, POSE_SCALES_FIVE, AnchorGrid, PyramidConfig, generate_grid,
    load_config_document, sample_box_perimeters,
)
from .assignment import (
    COCO_KAPPAS, COCO_SIGMAS, LABEL_IGNORE, LABEL_NEGATIVE, SCALE_FROM_BBOX_AREA,
    SCALE_FROM_SEGMENT_AREA, SIMILARITY_IOU, SIMILARITY_OKS, THRESHOLD_PRESETS,
    OksParams, assign_arrays, oks, oks_lattice, oks_matrix, refine_pose_anchors,
    threshold_preset,
)
from .codec import (
    DEFAULT_NMS_THRESHOLD, Detection, construct_mask, decode_points, nms,
)
from .datasets import InstanceRecord, ParseResult, ParseStats, parse_annotations
from .errors import PointSetError
from .geometry import (
    Box, Contour, box_iou_matrix, points_in_polygon, rasterized_mask_iou,
    signed_area, transform_points,
)
from .losses import (
    FOCAL_ALPHA, FOCAL_GAMMA, LAMBDA_POSE, LAMBDA_SEGMENTATION, TASK_POSE,
    TASK_SEGMENTATION, LossBreakdown, LossInputs, balance_for_task, focal_loss,
    head_output_dims, total_loss,
)
from .matching import (
    CORNER_PROJECTION, NEAREST_LINE, NEAREST_POINT, STRATEGIES, match_points,
    match_pose_points, point_offsets,
)
from .pipeline import (
    TASK_MASK, TASK_POSE_TARGETS, CoverageConfig, CoverageReport, TargetConfig,
    coverage_report, coverage_to_dict, emit_targets, render_coverage_table,
)
from .pose_modes import (
    NormalizedPose, PoseModes, center_point_shape, kmeans_poses, load_pose_modes,
    normalize_pose, rectangle_shape, save_pose_modes,
)
from .synthetic import (
    CORPUS_CONTOURS, CORPUS_POSES, POSE_PROTOTYPES, corpus_to_coco,
    generate_synthetic_corpus, random_convex_polygon, random_star_polygon, save_corpus,
)

__version__ = "0.1.0"

# Every name the imports above bind; submodules stay reachable as attributes.
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)] + ["__version__"]
