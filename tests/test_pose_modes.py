import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pointset_anchors import pcg64, pose_modes

from pointset_anchors.anchors import NUM_JOINTS
from pointset_anchors.errors import PointSetError
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

from oracles import numpy_kmeans_pp_init


def _pose_cloud(rng, count: int, spread: float = 0.1) -> np.ndarray:
    base = rng.uniform(-0.4, 0.4, (NUM_JOINTS, 2))
    return base[None] + rng.normal(0.0, spread, (count, NUM_JOINTS, 2))


@pytest.mark.parametrize("call, message", [
    (lambda: NormalizedPose(np.full((NUM_JOINTS, 2), np.nan), np.ones(NUM_JOINTS, dtype=bool)),
     "valid joints must be finite"),
], ids=["non-finite-joints"])
def test_rejections_are_named(call, message):
    with pytest.raises(PointSetError, match=re.escape(message)):
        call()


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
        with pytest.raises(PointSetError, match="normalization needs >= 2 visible joints, got 1"):
            normalize_pose(joints, visibility, Box(0.0, 0.0, 10.0, 10.0))

    def test_degenerate_box(self):
        joints = np.zeros((NUM_JOINTS, 2))
        visibility = np.full(NUM_JOINTS, 2)
        with pytest.raises(PointSetError, match="reference box has no extent"):
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
        with pytest.raises(PointSetError, match="need >= 3 distinct fully visible poses, got 2"):
            kmeans_poses(_pose_cloud(rng, 2), k=3)

    def test_too_few_distinct_poses(self, rng):
        # three copies of one pose, and -0.0 against 0.0, leave one distinct pose
        pose = _pose_cloud(rng, 1)[0]
        pose[0, 0] = 0.0
        negated = pose.copy()
        negated[0, 0] = -0.0
        with pytest.raises(PointSetError, match="need >= 2 distinct fully visible poses, got 1"):
            kmeans_poses([pose, pose, negated], k=2)
        assert np.allclose(kmeans_poses([pose, pose, negated], k=1).modes[0], pose, atol=1e-12)

    def test_k_validation(self, rng):
        with pytest.raises(PointSetError):
            kmeans_poses(_pose_cloud(rng, 5), k=0)

    def test_non_finite_rejected(self, rng):
        poses = _pose_cloud(rng, 5)
        poses[0, 0, 0] = np.nan
        with pytest.raises(PointSetError):
            kmeans_poses(poses, k=1)

    def test_overflowing_distances_named(self, rng):
        # finite poses whose squared distances overflow: numpy's choice raised
        # on the NaN probabilities, and a plain draw would pick a poisoned mode
        poses = _pose_cloud(rng, 4) * 1e160
        for k in (1, 3):
            with np.errstate(over="ignore"), pytest.raises(
                    PointSetError, match="k-means.. seeding: the poses' squared distances sum "
                                         "to inf"):
                kmeans_poses(poses, k=k)


class TestSeedingStream:
    """k-means++ draws from ``pcg64.Pcg64``; numpy's Generator is its oracle."""

    SEEDS = [0, 1, 5, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1, 10 ** 30,
             2 ** 128 - 1, 2 ** 128, 2 ** 200 + 12345]
    # 3 * 2**30 rejects a quarter of its 32-bit draws
    BOUNDS = [1, 2, 17, 3 * 2 ** 30, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 63]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_draws_equal_default_rng(self, seed):
        ours, oracle = pcg64.Pcg64(seed), np.random.default_rng(seed)
        # a random() between two 32-bit draws leaves the spare half of the
        # first draw's output for the second
        for bound in self.BOUNDS * 3:
            for _ in range(5):
                assert ours.integers(bound) == oracle.integers(bound), bound
            assert ours.random() == oracle.random()
            assert ours.integers(bound) == oracle.integers(bound), bound

    @given(k=st.integers(1, 5), seed=st.integers(0, 2 ** 70),
           data_seed=st.integers(0, 2 ** 32 - 1), count=st.integers(5, 40),
           prototypes=st.integers(1, 4), spread=st.sampled_from([1e-3, 0.2]),
           scale=st.sampled_from([1.0, 1e-200]))
    @example(k=3, seed=0, data_seed=0, count=6, prototypes=1, spread=0.2, scale=1e-200)
    def test_kmeans_equals_the_loop_on_default_rng(self, k, seed, data_seed, count,
                                                   prototypes, spread, scale):
        # scale 1e-200: distinct poses whose squared distances underflow to 0
        rng = np.random.default_rng(data_seed)
        centres = rng.uniform(-0.5, 0.5, (prototypes, NUM_JOINTS, 2))
        poses = scale * (centres[rng.integers(prototypes, size=count)]
                         + rng.normal(0.0, spread, (count, NUM_JOINTS, 2)))
        modes = kmeans_poses(poses, k=k, seed=seed)
        with mock.patch.object(pose_modes, "_kmeans_pp_init", numpy_kmeans_pp_init):
            expected = kmeans_poses(poses, k=k, seed=seed)
        assert modes.modes.tobytes() == expected.modes.tobytes()
        assert modes.inertia_history == expected.inertia_history
        assert np.isfinite(modes.modes).all()


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
        with pytest.raises(PointSetError, match="'modes' of k=2 must have shape"):
            load_pose_modes(path)

    def test_modes_shape_validated(self):
        with pytest.raises(PointSetError, match="modes must hold k >= 1 poses"):
            PoseModes(modes=np.zeros((0, NUM_JOINTS, 2)), inertia=0.0, seed=0)
