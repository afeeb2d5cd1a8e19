import numpy as np
import pytest

from pointset_anchors.anchors import NUM_JOINTS
from pointset_anchors.errors import (
    DegenerateBoxError,
    JointCountMismatchError,
    PointSetError,
    TooFewPosesError,
    TooFewVisibleJointsError,
)
from pointset_anchors.geometry import Box
from pointset_anchors.pose_modes import (
    NormalizedPose,
    PoseModes,
    center_point_shape,
    kmeans_poses,
    load_pose_modes,
    normalize_pose,
    rectangle_shape,
    save_pose_modes,
)


def _pose_cloud(rng, count: int, spread: float = 0.1) -> np.ndarray:
    base = rng.uniform(-0.4, 0.4, (NUM_JOINTS, 2))
    return base[None] + rng.normal(0.0, spread, (count, NUM_JOINTS, 2))


class TestNormalizePose:
    def test_reference_value(self):
        joints = np.zeros((NUM_JOINTS, 2))
        joints[0] = (100.0, 50.0)
        visibility = np.zeros(NUM_JOINTS, dtype=int)
        visibility[[0, 1]] = 2
        pose = normalize_pose(joints, visibility, Box(0.0, 0.0, 100.0, 50.0))
        # center (50, 25), scale max(w, h) = 100
        assert pose.joints[0].tolist() == [0.5, 0.25]

    def test_invisible_joints_zeroed(self):
        joints = np.full((NUM_JOINTS, 2), 30.0)
        visibility = np.zeros(NUM_JOINTS, dtype=int)
        visibility[[0, 1]] = 2
        pose = normalize_pose(joints, visibility, Box(0.0, 0.0, 60.0, 60.0))
        assert pose.joints[5].tolist() == [0.0, 0.0]
        assert not pose.fully_visible
        assert pose.valid_mask.sum() == 2

    def test_too_few_visible(self):
        joints = np.zeros((NUM_JOINTS, 2))
        visibility = np.zeros(NUM_JOINTS, dtype=int)
        visibility[0] = 2
        with pytest.raises(TooFewVisibleJointsError):
            normalize_pose(joints, visibility, Box(0.0, 0.0, 10.0, 10.0))

    def test_degenerate_box(self):
        joints = np.zeros((NUM_JOINTS, 2))
        visibility = np.full(NUM_JOINTS, 2)
        with pytest.raises(DegenerateBoxError):
            normalize_pose(joints, visibility, Box(5.0, 5.0, 5.0, 5.0))


class TestKmeans:
    def test_k1_equals_coordinate_mean(self, rng):
        poses = _pose_cloud(rng, 40)
        modes = kmeans_poses(poses, k=1, seed=3)
        assert modes.k == 1
        assert np.allclose(modes.modes[0], poses.mean(axis=0), atol=1e-9)

    def test_inertia_history_non_increasing(self, rng):
        poses = np.concatenate(
            [_pose_cloud(rng, 30), _pose_cloud(rng, 30) + 2.0], axis=0
        )
        for seed in range(10):
            modes = kmeans_poses(poses, k=3, seed=seed)
            history = modes.inertia_history
            assert len(history) >= 1
            assert all(a >= b - 1e-12 for a, b in zip(history, history[1:]))
            assert modes.inertia == history[-1]

    def test_seed_determinism(self, rng):
        poses = _pose_cloud(rng, 50)
        a = kmeans_poses(poses, k=4, seed=11)
        b = kmeans_poses(poses, k=4, seed=11)
        assert np.array_equal(a.modes, b.modes)
        assert a.inertia_history == b.inertia_history

    def test_separated_clusters_recovered(self, rng):
        lobes = [np.full((NUM_JOINTS, 2), c) for c in (0.0, 10.0, 20.0)]
        poses = np.concatenate(
            [lobe[None] + rng.normal(0.0, 0.01, (20, NUM_JOINTS, 2)) for lobe in lobes]
        )
        modes = kmeans_poses(poses, k=3, seed=0)
        centers = sorted(float(m.mean()) for m in modes.modes)
        assert centers == pytest.approx([0.0, 10.0, 20.0], abs=0.05)

    def test_only_fully_visible_normalized_poses_admitted(self, rng):
        partial = NormalizedPose(
            np.zeros((NUM_JOINTS, 2)),
            np.array([True] * 10 + [False] * 7),
        )
        full = [
            NormalizedPose(rng.uniform(-0.5, 0.5, (NUM_JOINTS, 2)),
                           np.ones(NUM_JOINTS, dtype=bool))
            for _ in range(3)
        ]
        modes = kmeans_poses(full + [partial], k=1, seed=0)
        expected = np.stack([p.joints for p in full]).mean(axis=0)
        assert np.allclose(modes.modes[0], expected, atol=1e-12)

    def test_too_few_poses(self, rng):
        with pytest.raises(TooFewPosesError):
            kmeans_poses(_pose_cloud(rng, 2), k=3)

    def test_k_validation(self, rng):
        with pytest.raises(PointSetError):
            kmeans_poses(_pose_cloud(rng, 5), k=0)

    def test_non_finite_rejected(self, rng):
        poses = _pose_cloud(rng, 5)
        poses[0, 0, 0] = np.nan
        with pytest.raises(PointSetError):
            kmeans_poses(poses, k=1)


class TestCanonicalShapes:
    def test_center_point_is_all_zeros(self):
        shape = center_point_shape()
        assert shape.shape == (NUM_JOINTS, 2)
        assert np.abs(shape).max() == 0.0

    def test_rectangle_points_on_unit_square(self):
        shape = rectangle_shape()
        assert shape.shape == (NUM_JOINTS, 2)
        on_edge = (np.abs(np.abs(shape[:, 0]) - 0.5) < 1e-12) | (
            np.abs(np.abs(shape[:, 1]) - 0.5) < 1e-12
        )
        assert on_edge.all()
        assert np.abs(shape).max() == 0.5
        # all 17 perimeter positions are distinct and every joint is placed
        assert len({tuple(p) for p in shape.round(12)}) == NUM_JOINTS

    def test_rectangle_walk_is_anatomical(self):
        shape = rectangle_shape()
        # head joints sit on the top edge, ankles along the bottom
        assert (shape[:5, 1] == -0.5).all()
        assert shape[15, 1] == 0.5 and shape[16, 1] == 0.5


class TestPoseModesIO:
    def test_round_trip(self, rng, tmp_path):
        modes = kmeans_poses(_pose_cloud(rng, 25), k=2, seed=5)
        path = tmp_path / "modes.json"
        save_pose_modes(modes, path)
        loaded = load_pose_modes(path)
        assert loaded.k == 2
        assert loaded.seed == 5
        assert np.array_equal(loaded.modes, modes.modes)
        assert loaded.inertia == modes.inertia

    def test_inconsistent_file_rejected(self, tmp_path):
        path = tmp_path / "modes.json"
        path.write_text('{"k": 2, "seed": 0, "inertia": 0.0, "modes": []}')
        with pytest.raises(JointCountMismatchError):
            load_pose_modes(path)

    def test_modes_shape_validated(self):
        with pytest.raises(JointCountMismatchError):
            PoseModes(modes=np.zeros((0, NUM_JOINTS, 2)), inertia=0.0, seed=0)
