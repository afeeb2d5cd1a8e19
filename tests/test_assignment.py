import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import brute_assign
from pointset_anchors.anchors import NUM_JOINTS
from pointset_anchors.assignment import (
    COCO_KAPPAS,
    COCO_SIGMAS,
    EXP_FLUSH,
    LABEL_IGNORE,
    LABEL_NEGATIVE,
    assign_arrays,
    oks,
    oks_matrix,
    refine_pose_anchors,
)
from pointset_anchors.errors import PointSetError


@pytest.mark.parametrize("call, message", [
    (lambda: assign_arrays(np.zeros((3, 2)), 0.5, 0.4, gt_class_ids=[1]),
     "gt_class_ids must have shape (2,), got (1,)"),
], ids=["class-ids"])
def test_rejections_are_named(call, message):
    with pytest.raises(PointSetError, match=re.escape(message)):
        call()


def _single_joint_case(scale: float = 100.0):
    gt = np.zeros((NUM_JOINTS, 2))
    gt[0] = (50.0, 50.0)
    visibility = np.zeros(NUM_JOINTS, dtype=int)
    visibility[0] = 2
    return gt, visibility, scale


class TestOks:
    def test_identical_poses_give_exactly_one(self, rng):
        joints = rng.uniform(0.0, 100.0, (NUM_JOINTS, 2))
        visibility = np.full(NUM_JOINTS, 2)
        assert oks(joints, joints, visibility, gt_scale=5000.0) == 1.0

    def test_characteristic_displacement_gives_inverse_e(self):
        gt, visibility, scale = _single_joint_case()
        candidate = gt.copy()
        candidate[0, 0] += COCO_KAPPAS[0] * math.sqrt(2.0 * scale)
        value = oks(candidate, gt, visibility, gt_scale=scale)
        assert value == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_two_joint_reference_value(self):
        gt, visibility, scale = _single_joint_case()
        gt[1] = (20.0, 80.0)
        visibility[1] = 1
        candidate = gt.copy()
        candidate[1, 1] += COCO_KAPPAS[1] * math.sqrt(2.0 * scale)
        value = oks(candidate, gt, visibility, gt_scale=scale)
        assert value == pytest.approx(0.6839397205857212, abs=1e-12)

    def test_invisible_joints_do_not_contribute(self):
        gt, visibility, scale = _single_joint_case()
        candidate = gt.copy()
        candidate[5] = (1e6, 1e6)   # invisible, may be garbage
        assert oks(candidate, gt, visibility, gt_scale=scale) == 1.0

    def test_flush_rule_boundary(self):
        gt, visibility, scale = _single_joint_case()
        kappa = COCO_KAPPAS[0]
        d_over = math.sqrt((EXP_FLUSH + 1e-6) * 2.0 * scale) * kappa
        d_under = math.sqrt((EXP_FLUSH - 1e-6) * 2.0 * scale) * kappa
        over = gt.copy()
        over[0, 0] += d_over
        under = gt.copy()
        under[0, 0] += d_under
        assert oks(over, gt, visibility, gt_scale=scale) == 0.0
        assert oks(under, gt, visibility, gt_scale=scale) > 0.0

    def test_no_visible_joints_rejected(self):
        gt = np.zeros((NUM_JOINTS, 2))
        with pytest.raises(PointSetError, match="gt 0 has no visible joints"):
            oks(gt, gt, np.zeros(NUM_JOINTS), gt_scale=10.0)

    def test_nonpositive_scale_rejected(self):
        gt, visibility, _ = _single_joint_case()
        with pytest.raises(PointSetError, match=r"OKS needs 2 \* scale \* kappa\^2"):
            oks(gt, gt, visibility, gt_scale=0.0)

    def test_underflowing_scale_rejected(self):
        # 1e-323 passes a plain > 0 check, but 2 * scale * kappa^2 underflows to 0
        gt, visibility, _ = _single_joint_case()
        with pytest.raises(PointSetError, match=r"OKS needs 2 \* scale \* kappa\^2"):
            oks(gt, gt, visibility, gt_scale=1e-323)

    @given(
        offsets=hnp.arrays(
            float, (NUM_JOINTS, 2),
            elements=st.floats(min_value=-500.0, max_value=500.0, allow_nan=False),
        ),
    )
    def test_bounded_in_unit_interval(self, offsets):
        gt = np.full((NUM_JOINTS, 2), 250.0)
        visibility = np.full(NUM_JOINTS, 2)
        value = oks(gt + offsets, gt, visibility, gt_scale=300.0)
        assert 0.0 <= value <= 1.0


class TestOksMatrix:
    def test_matches_scalar_exactly(self, rng):
        candidates = rng.uniform(0.0, 300.0, (25, NUM_JOINTS, 2))
        gt_joints = rng.uniform(0.0, 300.0, (4, NUM_JOINTS, 2))
        gt_vis = (rng.random((4, NUM_JOINTS)) < 0.8).astype(int) * 2
        gt_vis[:, 0] = 2   # keep every gt legal
        gt_scales = rng.uniform(500.0, 5000.0, 4)
        mat = oks_matrix(candidates, gt_joints, gt_vis, gt_scales)
        for a in range(len(candidates)):
            for g in range(len(gt_joints)):
                expected = oks(candidates[a], gt_joints[g], gt_vis[g], gt_scales[g])
                assert mat[a, g] == expected

    def test_far_candidates_score_exact_zero(self):
        gt, visibility, scale = _single_joint_case()
        far = gt + 1e5
        mat = oks_matrix(far[None], gt[None], visibility[None], [scale])
        assert mat[0, 0] == 0.0

    def test_gt_without_visible_joints_rejected(self):
        gt = np.zeros((1, NUM_JOINTS, 2))
        with pytest.raises(PointSetError, match="gt 0 has no visible joints"):
            oks_matrix(gt, gt, np.zeros((1, NUM_JOINTS)), [10.0])

    def test_underflowing_scale_rejected(self):
        gt, visibility, _ = _single_joint_case()
        with pytest.raises(PointSetError, match=r"OKS needs 2 \* scale \* kappa\^2"):
            oks_matrix(gt[None], gt[None], visibility[None], [1e-323])


class TestKappas:
    def test_kappas_are_twice_coco_sigmas(self):
        assert np.array_equal(COCO_KAPPAS, 2.0 * COCO_SIGMAS)
        assert len(COCO_KAPPAS) == NUM_JOINTS


# Quarter steps make ties common; -0.0 ties 0.0 but keeps its sign bit.
_QUARTERS = (-0.0, 0.0, 0.25, 0.5, 0.75, 1.0)


@st.composite
def _assign_cases(draw):
    """A quarter-quantised (A, G) similarity, thresholds, force_nearest and class ids."""
    num_gts = draw(st.integers(0, 5))
    sim = draw(hnp.arrays(float, (draw(st.integers(1, 40)), num_gts),
                          elements=st.sampled_from(_QUARTERS)))
    lo, hi = sorted(draw(st.lists(st.sampled_from(_QUARTERS[1:]), min_size=2, max_size=2)))
    class_ids = draw(st.none() | st.lists(st.integers(1, 9), min_size=num_gts, max_size=num_gts))
    return sim, hi, lo, draw(st.booleans()), class_ids


class TestAssign:
    def test_label_bands(self):
        sim = np.array([[0.7], [0.5], [0.3]])
        labels, matched, best = assign_arrays(sim, hi=0.6, lo=0.4)
        assert labels.tolist() == [1, LABEL_IGNORE, LABEL_NEGATIVE]
        assert matched.tolist() == [0, -1, -1]
        assert best.tolist() == [0.7, 0.5, 0.3]

    def test_boundary_is_inclusive(self):
        sim = np.array([[0.6], [0.4]])
        labels, _, _ = assign_arrays(sim, hi=0.6, lo=0.4)
        assert labels.tolist() == [1, LABEL_IGNORE]

    def test_anchor_takes_highest_gt(self):
        sim = np.array([[0.65, 0.8]])
        labels, matched, best = assign_arrays(sim, hi=0.6, lo=0.4)
        assert matched.tolist() == [1]
        assert best.tolist() == [0.8]

    def test_force_nearest_claims_argmax_anchor(self):
        sim = np.array([[0.3], [0.2]])
        labels, matched, best = assign_arrays(sim, hi=0.6, lo=0.4, force_nearest=True)
        assert labels.tolist() == [1, LABEL_NEGATIVE]
        assert matched.tolist() == [0, -1]
        assert best[0] == 0.3

    def test_force_nearest_contested_anchor_keeps_higher_similarity(self):
        sim = np.array([[0.3, 0.4], [0.1, 0.05]])
        _, matched, _ = assign_arrays(sim, hi=0.9, lo=0.4, force_nearest=True)
        assert matched[0] == 1

    def test_force_nearest_exact_tie_keeps_earlier_gt(self):
        sim = np.array([[0.3, 0.3], [0.1, 0.05]])
        _, matched, _ = assign_arrays(sim, hi=0.9, lo=0.4, force_nearest=True)
        assert matched[0] == 0

    def test_class_ids_propagate(self):
        sim = np.array([[0.9, 0.1], [0.2, 0.95]])
        labels, _, _ = assign_arrays(sim, hi=0.6, lo=0.4, gt_class_ids=[3, 7])
        assert labels.tolist() == [3, 7]

    def test_class_ids_must_be_positive(self):
        with pytest.raises(PointSetError):
            assign_arrays(np.ones((1, 1)), 0.6, 0.4, gt_class_ids=[0])

    def test_no_gts_all_negative(self):
        labels, matched, best = assign_arrays(np.empty((3, 0)), 0.6, 0.4)
        assert labels.tolist() == [0, 0, 0]
        assert matched.tolist() == [-1, -1, -1]
        assert best.tolist() == [0.0, 0.0, 0.0]

    def test_bad_thresholds(self):
        for hi, lo in ((0.4, 0.6), (1.2, 0.4), (0.6, -0.1)):
            with pytest.raises(PointSetError, match="thresholds must satisfy 0 <= lo <= hi <= 1"):
                assign_arrays(np.ones((1, 1)), hi, lo)

    def test_similarity_must_be_2d(self):
        with pytest.raises(PointSetError, match="similarity must be 2-D"):
            assign_arrays(np.ones(4), 0.6, 0.4)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_similarity_rejected(self, value):
        # a NaN would win a row argmax and leave its anchor negative
        sim = np.array([[0.7, 0.2], [0.1, value]])
        with pytest.raises(PointSetError, match="similarity"):
            assign_arrays(sim, 0.6, 0.4)

    @given(case=_assign_cases())
    def test_matches_brute_force_oracle(self, case):
        sim, hi, lo, force_nearest, class_ids = case
        got = assign_arrays(sim, hi, lo, force_nearest, class_ids)
        expected = brute_assign(sim, hi, lo, force_nearest,
                                [1] * sim.shape[1] if class_ids is None else class_ids)
        for array, oracle in zip(got, expected):
            assert array.dtype == oracle.dtype
            assert array.tobytes() == oracle.tobytes()

    @given(case=_assign_cases(), seed=st.integers(0, 2**32 - 1))
    def test_out_buffers_match_brute_force_oracle(self, case, seed):
        # ``out`` views of larger buffers, holding garbage (NaN in best), are
        # overwritten whole; the same arrays are returned
        sim, hi, lo, force_nearest, class_ids = case
        rng = np.random.default_rng(seed)
        num_anchors = len(sim) + 3
        out = (rng.integers(-9, 9, num_anchors)[:len(sim)],
               rng.integers(-9, 9, num_anchors).astype(np.intp)[:len(sim)],
               np.full(num_anchors, np.nan)[:len(sim)])
        got = assign_arrays(sim, hi, lo, force_nearest, class_ids, out=out)
        expected = brute_assign(sim, hi, lo, force_nearest,
                                [1] * sim.shape[1] if class_ids is None else class_ids)
        for array, buffer, oracle in zip(got, out, expected):
            assert array is buffer
            assert array.dtype == oracle.dtype
            assert array.tobytes() == oracle.tobytes()

    def test_out_of_another_length_rejected(self):
        out = (np.empty(4, dtype=int), np.empty(4, dtype=np.intp), np.empty(3))
        with pytest.raises(PointSetError, match=r"out must hold three \(4,\) arrays"):
            assign_arrays(np.ones((4, 2)), 0.6, 0.4, out=out)


class TestRefinePoses:
    def test_single_prediction(self, rng):
        joints = rng.uniform(0.0, 50.0, (NUM_JOINTS, 2))
        anchors = refine_pose_anchors(joints)
        assert anchors.shape == (1, NUM_JOINTS, 2)
        assert np.array_equal(anchors[0], joints)

    def test_batch_predictions(self, rng):
        preds = rng.uniform(0.0, 50.0, (5, NUM_JOINTS, 2))
        assert np.array_equal(refine_pose_anchors(preds), preds)

    def test_bad_shape(self):
        with pytest.raises(PointSetError, match="stage1_predictions must have shape"):
            refine_pose_anchors(np.zeros((3, 5, 2)))
