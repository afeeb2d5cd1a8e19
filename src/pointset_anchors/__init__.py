"""Point-set anchors: one anchor family for boxes, masks and poses.

The package turns ordered point sets into a drop-in replacement for box
anchors: perimeter-sampled mask anchors and clustered pose anchors, with
matching strategies, similarity-based assignment, target codecs, losses
and a small dataset/CLI layer on top.

Importing the package loads no submodule: an exported name or a submodule
attribute loads its module on first use (PEP 562).
"""

from importlib import import_module as _import_module

# Each exported name by its home module, in export order.
_EXPORTS = {
    "anchors": "CORNER_PROJECTION DEFAULT_ASPECT_RATIOS DEFAULT_LEVELS DEFAULT_OCTAVE_SCALES"
               " DEFAULT_POSE_ROTATIONS DEFAULT_POSE_SCALES MASK_MODE NEAREST_LINE NEAREST_POINT"
               " NUM_JOINTS POSE_MODE POSE_ROTATIONS_FIVE POSE_SCALES_FIVE STRATEGIES"
               " TASK_SEGMENTATION AnchorGrid PyramidConfig generate_grid head_output_dims"
               " load_config_document sample_box_perimeters",
    "assignment": "COCO_KAPPAS COCO_SIGMAS LABEL_IGNORE LABEL_NEGATIVE SIMILARITY_IOU"
                  " SIMILARITY_OKS assign_arrays oks oks_lattice oks_matrix refine_pose_anchors",
    "codec": "DEFAULT_NMS_THRESHOLD Detection construct_mask decode_points nms",
    "datasets": "CORPUS_CONTOURS CORPUS_POSES InstanceRecord ParseResult ParseStats"
                " parse_annotations",
    "errors": "PointSetError",
    "geometry": "Box Contour box_iou_matrix points_in_polygon rasterized_mask_iou transform_points",
    "losses": "FOCAL_ALPHA FOCAL_GAMMA LAMBDA_POSE LAMBDA_SEGMENTATION TASK_POSE"
              " LossBreakdown LossInputs balance_for_task focal_loss total_loss",
    "matching": "match_points match_pose_points point_offsets",
    "pipeline": "TASK_MASK TASK_POSE_TARGETS CoverageConfig CoverageReport TargetConfig"
                " coverage_report coverage_to_dict emit_targets render_coverage_table",
    "pose_modes": "NormalizedPose PoseModes center_point_shape kmeans_poses load_pose_modes"
                  " normalize_pose rectangle_shape save_pose_modes",
    "synthetic": "POSE_PROTOTYPES corpus_to_coco generate_synthetic_corpus"
                 " random_convex_polygon random_star_polygon save_corpus",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {*_EXPORTS, "cli"}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _HOME:
        value = getattr(_import_module("." + _HOME[name], __name__), name)
    elif name in _SUBMODULES:
        value = _import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
