"""Command-line entry points: synth, modes, targets, coverage.

All data goes to the --out file; warnings and counters go to stderr. Every
command is deterministic for a fixed seed, config and input, so repeated runs
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from .anchors import STRATEGIES, load_config_document
from .assignment import SIMILARITY_IOU, SIMILARITY_OKS
from .datasets import (CORPUS_CONTOURS, CORPUS_POSES, ParseResult, min_pose_image_side,
                       parse_annotations)
from .errors import PointSetError
from .pipeline import (
    TASK_MASK,
    TASK_POSE_TARGETS,
    CoverageConfig,
    TargetConfig,
    check_coverage_threshold,
    coverage_report,
    coverage_to_dict,
    emit_targets,
    render_coverage_table,
)


# k-means' k and seed where --k / --seed are not given: modes and the coverage ladder
KMEANS_K, KMEANS_SEED = 3, 0


def _warn(message: str) -> None:
    print(message, file=sys.stderr)


def _report_parse_stats(result: ParseResult) -> None:
    stats = result.stats
    for count, text in ((stats.rejected_rle, "rejected {} RLE segmentation(s)"),
                        (stats.rejected_crowd, "rejected {} crowd annotation(s)"),
                        (stats.dropped_polygons, "dropped {} degenerate polygon(s)"),
                        (stats.out_of_bounds, "{} record(s) have out-of-bounds coordinates")):
        if count:
            _warn("warning: " + text.format(count))


def kmeans_poses(poses, k: int, seed: int = 0, max_iters: int = 100):
    """``pose_modes.kmeans_poses``, through a name of this module that a tracer may wrap."""
    from .pose_modes import kmeans_poses
    return kmeans_poses(poses, k, seed=seed, max_iters=max_iters)


def _normalized_poses(result: ParseResult):
    # pose_modes is loaded where the pose commands start: mask targets never compile it
    from .pose_modes import normalize_pose

    poses = []
    skipped = 0
    for record in result.records:
        if (record.keypoints is None or not record.bbox.area > 0.0
                or np.count_nonzero(record.visible_mask()) < 2):
            skipped += 1
            continue
        poses.append(normalize_pose(record.keypoints[:, :2], record.keypoints[:, 2], record.bbox))
    if skipped:
        _warn(f"warning: skipped {skipped} record(s) without usable keypoints")
    visible = sum(pose.fully_visible for pose in poses)
    if visible < len(poses):
        _warn(f"warning: k-means clusters the {visible} fully visible of {len(poses)} pose(s)")
    return poses


def _reject_flags(args, option: str, value: str, flags: dict) -> None:
    """Reject, by name, a flag of another value of ``--option`` than ``value``.
    ``flags`` maps each value to the names of its flags, whose parser defaults are None."""
    for owner, names in flags.items():
        given = [name for name in names if getattr(args, name) is not None]
        if owner != value and given:
            flag = given[0].replace("_", "-")
            raise PointSetError(f"--{flag} applies only to --{option} {owner}")


# synth's flags of each corpus kind and the generator parameter each sets.
# A flag not given is not passed, and the generator's own default holds.
_SYNTH_FLAGS = {
    CORPUS_CONTOURS: {"convex": "convex", "vertex_range": "vertex_range"},
    CORPUS_POSES: {"jitter": "jitter", "dropout": "dropout", "truncation": "truncation",
                   "prototypes": "n_prototypes"},
}


def _cmd_synth(args) -> str:
    # only synth runs the generators; the other commands never compile them
    from .synthetic import generate_synthetic_corpus, save_corpus

    _reject_flags(args, "kind", args.kind, _SYNTH_FLAGS)
    difficulty = {parameter: getattr(args, name)
                  for name, parameter in _SYNTH_FLAGS[args.kind].items()
                  if getattr(args, name) is not None}
    records = generate_synthetic_corpus(
        args.kind, args.count, seed=args.seed,
        image_size=tuple(args.image_size),
        instances_per_image=args.instances_per_image,
        **difficulty,
    )
    save_corpus(records, args.out)
    return f"wrote {len(records)} {args.kind} record(s) to {args.out}\n"


def _cmd_modes(args) -> str:
    from .pose_modes import check_kmeans_settings, save_pose_modes

    check_kmeans_settings(args.k, args.seed, args.max_iters)   # before the corpus is read
    result = parse_annotations(args.annotations)
    _report_parse_stats(result)
    poses = _normalized_poses(result)
    modes = kmeans_poses(poses, k=args.k, seed=args.seed, max_iters=args.max_iters)
    save_pose_modes(modes, args.out)
    return f"wrote {modes.k} mode(s) to {args.out} (inertia {modes.inertia:.6f})\n"


def _target_config(document: dict, **flags) -> TargetConfig:
    """The --config ``document`` with the ``flags`` that are not None put over it, read
    as one config, so the hi/lo defaults follow the final task."""
    return TargetConfig.from_dict(
        {**document, **{key: value for key, value in flags.items() if value is not None}})


def _cmd_targets(args) -> str:
    # the settings are checked whole before the corpus is read
    document = load_config_document(args.config) if args.config else {}
    config = _target_config(document, task=args.task, strategy=args.strategy, hi=args.hi,
                            lo=args.lo, force_nearest=args.force_nearest or None)
    _reject_flags(args, "task", config.task,
                  {TASK_MASK: ["strategy"], TASK_POSE_TARGETS: ["modes"]})
    canonical_poses = None
    if config.task == TASK_POSE_TARGETS:
        from .pose_modes import load_pose_modes

        if "strategy" in document:   # as --strategy is: pose targets match no contour
            raise PointSetError(f"config: 'strategy' applies only to --task {TASK_MASK}")
        if not args.modes:
            raise PointSetError("pose targets need --modes <modes.json>")
        canonical_poses = load_pose_modes(args.modes).modes
    result = parse_annotations(args.annotations)
    _report_parse_stats(result)
    summary = emit_targets(result.records, config, args.out, canonical_poses)
    return json.dumps(summary, sort_keys=True) + "\n"


def _coverage_settings(args):
    """The pyramid, k and seed of a coverage run, each setting checked as the library does."""
    k = KMEANS_K if args.k is None else args.k
    seed = KMEANS_SEED if args.seed is None else args.seed
    if args.similarity == SIMILARITY_OKS:
        from .pose_modes import check_kmeans_settings
        check_kmeans_settings(k, seed)
    check_coverage_threshold(args.threshold)
    document = load_config_document(args.config) if args.config else {}
    pyramid = TargetConfig.from_dict(document).pyramid
    for key in document:
        if key != "pyramid":   # a valid key but pyramid is a setting of targets alone
            raise PointSetError(f"config: {key!r} applies only to targets")
    return pyramid, k, seed


def _coverage_ladder(args, poses) -> list[CoverageConfig]:
    from .pose_modes import center_point_shape, rectangle_shape

    # the scale and rotation variants stay on: single-variant grids are too
    # coarse for the degenerate baselines to register at all
    pyramid, k, seed = _coverage_settings(args)
    shapes = [("center-point", center_point_shape()[None]), ("rectangle", rectangle_shape()[None]),
              ("mean-pose", kmeans_poses(poses, k=1, seed=seed).modes)]
    if k > 1:
        shapes.append((f"kmeans-{k}", kmeans_poses(poses, k=k, seed=seed).modes))
    return [CoverageConfig(name, pyramid, TASK_POSE_TARGETS, modes) for name, modes in shapes]


def _cmd_coverage(args) -> str:
    _reject_flags(args, "similarity", args.similarity, {SIMILARITY_OKS: ["k", "seed"]})
    # the settings are checked whole before the corpus is read
    pyramid = _coverage_settings(args)[0]
    result = parse_annotations(args.annotations)
    _report_parse_stats(result)
    if args.similarity == SIMILARITY_OKS:
        configs = _coverage_ladder(args, _normalized_poses(result))
    else:
        configs = [CoverageConfig("mask-anchors", pyramid, TASK_MASK)]
    reports = coverage_report(result.records, configs, threshold=args.threshold)
    Path(args.out).write_text(
        json.dumps(coverage_to_dict(reports), sort_keys=True, allow_nan=False) + "\n")
    return render_coverage_table(reports)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointset-anchors",
        description="Point-set anchor target generation and coverage tooling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic COCO-style corpus")
    synth.add_argument("--kind", choices=(CORPUS_CONTOURS, CORPUS_POSES), required=True)
    synth.add_argument("--count", type=int, required=True)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)
    synth.add_argument("--image-size", type=int, nargs=2, default=(256, 256),
                       metavar=("WIDTH", "HEIGHT"),
                       help=f"default 256 256; poses need both sides at least "
                            f"{min_pose_image_side()}")
    synth.add_argument("--instances-per-image", type=int, default=1)
    synth.add_argument("--convex", action="store_true", default=None,
                       help="contours: emit only convex polygons")
    synth.add_argument("--vertex-range", type=int, nargs=2, default=None,
                       metavar=("LO", "HI"))
    synth.add_argument("--jitter", type=float, default=None,
                       help="poses: per-joint gaussian noise in pixels")
    synth.add_argument("--dropout", type=float, default=None,
                       help="poses: per-joint invisibility probability")
    synth.add_argument("--truncation", type=float, default=None,
                       help="poses: probability of a truncated visibility pattern")
    synth.add_argument("--prototypes", type=int, default=None,
                       help="poses: number of built-in prototype poses to draw from")
    synth.set_defaults(func=_cmd_synth)

    modes = sub.add_parser("modes", help="cluster corpus poses into canonical modes")
    modes.add_argument("--annotations", required=True)
    modes.add_argument("--k", type=int, default=KMEANS_K)
    modes.add_argument("--seed", type=int, default=KMEANS_SEED)
    modes.add_argument("--max-iters", type=int, default=100)
    modes.add_argument("--out", required=True)
    modes.set_defaults(func=_cmd_modes)

    targets = sub.add_parser("targets", help="emit per-anchor training targets")
    targets.add_argument("--annotations", required=True)
    targets.add_argument("--config", default=None, help="TargetConfig JSON/YAML document")
    targets.add_argument("--task", choices=(TASK_MASK, TASK_POSE_TARGETS), default=None)
    targets.add_argument("--strategy", choices=STRATEGIES, default=None)
    targets.add_argument("--modes", default=None, help="pose modes JSON (pose task)")
    targets.add_argument("--hi", type=float, default=None)
    targets.add_argument("--lo", type=float, default=None)
    targets.add_argument("--force-nearest", action="store_true")
    targets.add_argument("--out", required=True)
    targets.set_defaults(func=_cmd_targets)

    coverage = sub.add_parser("coverage", help="report anchor coverage over a corpus")
    coverage.add_argument("--annotations", required=True)
    coverage.add_argument("--config", default=None, help="TargetConfig JSON/YAML document")
    coverage.add_argument("--similarity", choices=(SIMILARITY_OKS, SIMILARITY_IOU),
                          default=SIMILARITY_OKS)
    coverage.add_argument("--threshold", type=float, default=0.5)
    coverage.add_argument("--k", type=int, default=None,
                          help=f"oks ladder: add a k-means configuration with this k "
                               f"(default {KMEANS_K})")
    coverage.add_argument("--seed", type=int, default=None,
                          help=f"oks ladder: the k-means seed (default {KMEANS_SEED})")
    coverage.add_argument("--out", required=True)
    coverage.set_defaults(func=_cmd_coverage)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    status = 1
    try:
        text = args.func(args)
        status = 120   # stdout refuses the text (a closed pipe): run's status for a failed flush
        sys.stdout.write(text)
    except (PointSetError, OSError) as err:
        _warn(f"error: {err}")
        return status
    return 0


def run() -> None:
    """The process entry of ``python -m pointset_anchors.cli`` and the console script.

    Runs ``main``, which has closed every file it wrote, then the ``atexit``
    callbacks, flushes stdout and stderr and ends the process with main's
    status, skipping the interpreter's teardown (4-7 ms on 2 cores). A
    stream that cannot be flushed (a closed pipe) gives one ``error:`` line
    and status 120, as the interpreter's would. What ``main`` raises passes.
    """
    status = main()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as err:
        status = 120
        with contextlib.suppress(OSError):
            _warn(f"error: {err}")
    os._exit(status)


if __name__ == "__main__":
    run()
