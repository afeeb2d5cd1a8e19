"""End-to-end acceptance checks, one test per contract item.

Each test pins the observable promise (exact values, oracle equivalence or
an ordering) and its wall-clock budget. Budgets are asserted inside the
test so a regression in speed fails the same line as a regression in
behavior.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pointset_anchors import matching
from pointset_anchors.anchors import (
    MASK_MODE,
    POSE_MODE,
    PyramidConfig,
    generate_grid,
)
from pointset_anchors.assignment import (
    COCO_KAPPAS,
    oks,
    refine_pose_anchors,
)
from pointset_anchors.codec import Detection, construct_mask, decode_points, nms
from pointset_anchors.geometry import Box, Contour, rasterized_mask_iou
from pointset_anchors.losses import (
    LossInputs,
    TASK_POSE,
    TASK_SEGMENTATION,
    balance_for_task,
    focal_loss,
    total_loss,
)
from pointset_anchors.pipeline import (
    CoverageConfig,
    TASK_POSE_TARGETS,
    coverage_report,
)
from pointset_anchors.pose_modes import (
    center_point_shape,
    kmeans_poses,
    normalize_pose,
    rectangle_shape,
)
from pointset_anchors.synthetic import POSE_PROTOTYPES, generate_synthetic_corpus

from oracles import brute_nearest_line, brute_nearest_point, brute_nms
from util import anchor_from_box, random_box, random_polygon


def _round_trip_iou(contour: Contour, strategy: str, n: int) -> float:
    anchor, corners = anchor_from_box(contour.bounds(), n)
    targets, valid = matching.match_points(anchor[None], corners, contour.vertices, strategy)
    offsets = matching.point_offsets(anchor, targets[0], valid[0])
    points, valid = decode_points(anchor, offsets, valid[0])
    rebuilt = construct_mask(points, valid)
    return rasterized_mask_iou(contour, rebuilt, resolution=512)


def test_01_anchor_density():
    """Paper-default pyramids put 9 mask and 27 pose anchors per location."""
    start = time.perf_counter()
    config = PyramidConfig()

    mask_grid = generate_grid(config, (512, 512), MASK_MODE)
    for level in mask_grid.levels:
        assert level.anchors_per_location == 9

    pose_grid = generate_grid(config, (512, 512), POSE_MODE, POSE_PROTOTYPES[:3])
    for level in pose_grid.levels:
        assert level.anchors_per_location == 27   # 3 modes x 3 scales x 3 rotations

    assert time.perf_counter() - start < 1.0


def test_02_matching_idempotence():
    """A contour tracing the anchor's own box matches with zero offsets."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        points, corners = anchor_from_box(random_box(rng), 16)
        contour = Contour(points)
        for strategy in matching.STRATEGIES:
            targets, valid = matching.match_points(points[None], corners, contour.vertices,
                                                   strategy)
            assert np.abs(matching.point_offsets(points, targets, valid)).max() <= 1e-9
            if strategy == matching.CORNER_PROJECTION:
                assert valid.all()
    assert time.perf_counter() - start < 5.0


def test_03_matching_matches_brute_force():
    """Nearest-point and nearest-line equal exhaustive references exactly."""
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    for trial in range(500):
        n_vertices = int(rng.integers(3, 41))
        contour = random_polygon(rng, n_vertices, convex=bool(trial % 2))
        points, corners = anchor_from_box(random_box(rng), 16)

        point_targets, point_valid = matching.match_points(
            points[None], corners, contour.vertices, matching.NEAREST_POINT)
        indices, targets = brute_nearest_point(points, contour.vertices)
        assert np.array_equal(point_targets[0], targets)
        assert np.array_equal(point_targets[0], contour.vertices[indices])
        assert point_valid.all()

        line_targets, line_valid = matching.match_points(
            points[None], corners, contour.vertices, matching.NEAREST_LINE)
        segments, targets = brute_nearest_line(points, contour.vertices)
        assert np.array_equal(line_targets[0], targets)
        assert segments.min() >= 0 and segments.max() < n_vertices
        assert line_valid.all()
    assert time.perf_counter() - start < 30.0


def test_04_nms_matches_quadratic_reference():
    """Greedy NMS equals the quadratic reference; permutation changes nothing."""
    start = time.perf_counter()
    rng = np.random.default_rng(19)
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        xy = rng.uniform(0.0, 400.0, (n, 2))
        wh = rng.uniform(5.0, 80.0, (n, 2))
        boxes = np.column_stack([xy, xy + wh])
        scores = (rng.permutation(n) / n * 0.9 + 0.05).tolist()
        classes = rng.integers(0, 3, n).tolist()
        detections = [
            Detection(score=s, class_id=c, shape=Box(*b))
            for s, c, b in zip(scores, classes, boxes.tolist())
        ]

        kept = nms(detections, 0.5)
        assert kept == brute_nms(boxes, scores, classes, 0.5)

        perm = rng.permutation(n).tolist()
        kept_permuted = nms([detections[i] for i in perm], 0.5)
        assert sorted(perm[i] for i in kept_permuted) == sorted(kept)
    assert time.perf_counter() - start < 10.0


def test_05_round_trip_mask_fidelity():
    """Corner projection at n=60 reconstructs convex shapes above 0.95 IoU."""
    start = time.perf_counter()
    records = generate_synthetic_corpus(
        "contours", 50, seed=17, image_size=(256, 256), convex=True
    )
    ious = np.asarray([
        _round_trip_iou(r.contours[0], matching.CORNER_PROJECTION, 60)
        for r in records
    ])
    assert ious.mean() >= 0.95
    assert ious.min() >= 0.90
    assert time.perf_counter() - start < 60.0


def test_06_strategy_ordering():
    """Mean reconstruction IoU: corner-projection >= nearest-line >= nearest-point."""
    start = time.perf_counter()
    records = generate_synthetic_corpus("contours", 60, seed=23, image_size=(256, 256))
    concave = 0
    for r in records:
        v = r.contours[0].vertices
        a = np.roll(v, -1, axis=0) - v
        b = np.roll(a, -1, axis=0)
        signs = np.sign(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
        if (signs > 0).any() and (signs < 0).any():
            concave += 1
    assert concave > 0

    means = {
        strategy: np.mean([_round_trip_iou(r.contours[0], strategy, 36) for r in records])
        for strategy in matching.STRATEGIES
    }
    assert (means[matching.CORNER_PROJECTION]
            >= means[matching.NEAREST_LINE]
            >= means[matching.NEAREST_POINT])
    assert time.perf_counter() - start < 60.0


def test_07_coverage_ordering():
    """Pose coverage climbs center-point -> rectangle -> mean -> k-means modes."""
    start = time.perf_counter()
    raw = generate_synthetic_corpus(
        "poses", 2600, seed=11, image_size=(256, 256),
        jitter=2.0, truncation=0.45, n_prototypes=5,
    )

    # keep figures whose visible joints spread at least 2 kappa sqrt(2 scale):
    # below that a single well-placed point could sit within every joint's
    # OKS waist and the zero-coverage claim for center points would not hold
    kappa_max = COCO_KAPPAS.max()

    def spread_ok(record):
        pts = record.keypoints[record.visible_mask(), :2]
        spread = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2)).max()
        return spread >= 2.0 * kappa_max * np.sqrt(2.0 * record.bbox.area)

    records = [r for r in raw if spread_ok(r)][:2000]
    assert len(records) == 2000
    assert all(spread_ok(r) for r in records)

    poses = [
        normalize_pose(r.keypoints[:, :2], r.keypoints[:, 2], r.bbox) for r in records
    ]
    k1 = kmeans_poses(poses, k=1, seed=0)
    k3 = kmeans_poses(poses, k=3, seed=0)
    k5 = kmeans_poses(poses, k=5, seed=0)

    pyramid = PyramidConfig()
    configs = [
        CoverageConfig("center-point", pyramid, TASK_POSE_TARGETS, center_point_shape()[None]),
        CoverageConfig("rectangle", pyramid, TASK_POSE_TARGETS, rectangle_shape()[None]),
        CoverageConfig("mean-pose", pyramid, TASK_POSE_TARGETS, k1.modes),
        CoverageConfig("kmeans-3", pyramid, TASK_POSE_TARGETS, k3.modes),
        CoverageConfig("kmeans-5", pyramid, TASK_POSE_TARGETS, k5.modes),
    ]
    reports = coverage_report(records, configs, threshold=0.5)
    fraction = {r.name: r.matched_gt_fraction for r in reports}

    assert fraction["center-point"] == 0.0
    assert fraction["mean-pose"] > fraction["rectangle"] > fraction["center-point"]
    # the mean pose is the k=1 mode, so the k ladder starts at mean-pose
    assert fraction["mean-pose"] <= fraction["kmeans-3"] <= fraction["kmeans-5"]
    assert time.perf_counter() - start < 120.0


def test_08_oks_reference_values():
    """One joint displaced kappa sqrt(2 scale) scores exp(-1); identical scores 1."""
    start = time.perf_counter()
    scale = 120.0 ** 2
    gt = np.zeros((17, 2))
    gt[0] = (250.0, 250.0)
    visibility = np.zeros(17)
    visibility[0] = 2.0

    candidate = gt.copy()
    candidate[0, 0] += COCO_KAPPAS[0] * math.sqrt(2.0 * scale)
    value = oks(candidate, gt, visibility, scale)
    assert value == pytest.approx(math.exp(-1.0), abs=1e-9)

    assert oks(gt, gt, visibility, scale) == 1.0
    assert oks(gt, gt, np.full(17, 2.0), scale) == 1.0
    assert time.perf_counter() - start < 1.0


def test_09_kmeans_inertia_and_k1_mean():
    """Inertia never rises within a run; the k=1 mode is the coordinate mean."""
    start = time.perf_counter()
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        poses = rng.uniform(-0.5, 0.5, (40, 17, 2))

        modes = kmeans_poses(poses, k=2 + seed % 3, seed=seed)
        history = modes.inertia_history
        assert all(a >= b for a, b in zip(history, history[1:]))

        single = kmeans_poses(poses, k=1, seed=seed)
        assert np.allclose(single.modes[0], poses.mean(axis=0), atol=1e-9)
    assert time.perf_counter() - start < 10.0


def test_10_loss_reference_values():
    """Perfect regression costs zero; focal and lambda presets match."""
    start = time.perf_counter()
    rng = np.random.default_rng(41)
    targets = rng.normal(0.0, 1.0, (6, 8, 2))
    inputs = LossInputs(
        class_probs=rng.uniform(0.1, 0.9, (6, 3)),
        class_targets=np.array([1, 2, 0, 3, -1, 1]),
        reg_preds=targets.copy(),
        reg_targets=targets,
        reg_valid=np.ones((6, 8), dtype=bool),
        balance=balance_for_task(TASK_SEGMENTATION),
    )
    breakdown = total_loss(inputs)
    assert breakdown.loss_reg == 0.0
    assert breakdown.total == breakdown.loss_cls

    assert focal_loss(0.5, is_positive=True) == pytest.approx(0.04332, abs=1e-5)
    assert balance_for_task(TASK_SEGMENTATION) == 0.1
    assert balance_for_task(TASK_POSE) == 10.0
    assert time.perf_counter() - start < 1.0


def test_11_refinement_coverage_gain():
    """Anchors refined from near-truth predictions beat grid anchors outright."""
    start = time.perf_counter()
    records = generate_synthetic_corpus(
        "poses", 600, seed=29, image_size=(256, 256), jitter=2.0, n_prototypes=5
    )
    poses = [
        normalize_pose(r.keypoints[:, :2], r.keypoints[:, 2], r.bbox) for r in records
    ]
    modes = kmeans_poses(poses, k=1, seed=0).modes
    config = CoverageConfig("stage1", PyramidConfig(), TASK_POSE_TARGETS, modes)
    [stage1] = coverage_report(records, [config], threshold=0.5)

    # stage-2 anchors: each gt corrupted by noise far below the distance from
    # the gt to its best stage-1 anchor, then scored against the gt itself
    from pointset_anchors.anchors import POSE_MODE as _pose_mode
    from pointset_anchors.pipeline import _image_similarity

    grid = generate_grid(PyramidConfig(), (256, 256), _pose_mode, modes)
    sim = _image_similarity(grid, records, TASK_POSE_TARGETS)
    stacked = grid.joint_stack()

    rng = np.random.default_rng(31)
    matched = 0
    for g, record in enumerate(records):
        gt = record.keypoints[:, :2]
        noise = rng.uniform(-0.3, 0.3, gt.shape)
        best = int(np.argmax(sim[:, g]))
        anchor_error = np.linalg.norm(stacked[best] - gt, axis=1).mean()
        assert np.linalg.norm(noise, axis=1).mean() < anchor_error

        [refined] = refine_pose_anchors((gt + noise)[None])
        score = oks(refined, gt, record.keypoints[:, 2], record.bbox.area)
        if score >= 0.99:
            matched += 1

    assert matched / len(records) > stage1.matched_gt_fraction
    assert time.perf_counter() - start < 30.0


def test_12_cli_determinism(tmp_path):
    """targets and coverage runs reproduce their outputs byte for byte."""
    start = time.perf_counter()

    # the children run in tmp_path, so a relative PYTHONPATH would not reach
    # the package; put the absolute src directory first
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "pointset_anchors.cli", *args],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "pyramid": {
            "levels": [[16.0, 64.0], [32.0, 128.0]],
            "octave_scales": [1.0, 1.26],
            "aspect_ratios": [0.5, 1.0],
            "pose_scales": [1.0],
            "pose_rotations": [-10.0, 0.0, 10.0],
            "num_points": 16,
        },
    }))

    contours = tmp_path / "contours.json"
    run("synth", "--kind", "contours", "--count", "40", "--seed", "3",
        "--image-size", "192", "192", "--out", str(contours))
    poses = tmp_path / "poses.json"
    run("synth", "--kind", "poses", "--count", "40", "--seed", "5",
        "--jitter", "2.0", "--out", str(poses))

    target_bytes = []
    for name in ("t1.jsonl", "t2.jsonl"):
        out = tmp_path / name
        run("targets", "--annotations", str(contours), "--config", str(config),
            "--out", str(out))
        target_bytes.append(out.read_bytes())
    assert target_bytes[0] == target_bytes[1]

    coverage_bytes = []
    tables = []
    for name in ("c1.json", "c2.json"):
        out = tmp_path / name
        proc = run("coverage", "--annotations", str(poses), "--config", str(config),
                   "--k", "2", "--seed", "0", "--out", str(out))
        coverage_bytes.append(out.read_bytes())
        tables.append(proc.stdout)
    assert coverage_bytes[0] == coverage_bytes[1]
    assert tables[0] == tables[1]
    assert time.perf_counter() - start < 60.0
