import math
import re

import numpy as np
import pytest

from pointset_anchors.errors import PointSetError
from pointset_anchors.losses import (
    FOCAL_ALPHA,
    FOCAL_GAMMA,
    LAMBDA_POSE,
    LAMBDA_SEGMENTATION,
    TASK_POSE,
    TASK_SEGMENTATION,
    LossInputs,
    balance_for_task,
    focal_loss,
    head_output_dims,
    total_loss,
)


class TestFocalLoss:
    def test_cross_entropy_special_case(self):
        value = focal_loss(0.5, is_positive=True, alpha=1.0, gamma=0.0)
        assert value == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_reference_value(self):
        value = focal_loss(0.5, is_positive=True, alpha=0.25, gamma=2.0)
        assert value == pytest.approx(0.0433217, abs=1e-5)
        assert value == 0.25 * 0.25 * math.log(2.0)

    def test_negative_branch(self):
        value = focal_loss(0.5, is_positive=False, alpha=0.25, gamma=2.0)
        assert value == pytest.approx(0.75 * 0.25 * math.log(2.0), abs=1e-12)

    def test_confident_correct_is_near_zero(self):
        assert focal_loss(1.0, is_positive=True) < 1e-9
        assert focal_loss(0.0, is_positive=False) < 1e-9

    def test_defaults(self):
        assert FOCAL_ALPHA == 0.25
        assert FOCAL_GAMMA == 2.0

    def test_out_of_range_probability(self):
        with pytest.raises(PointSetError):
            focal_loss(1.5, True)


class TestBalance:
    def test_presets(self):
        assert balance_for_task(TASK_SEGMENTATION) == 0.1
        assert balance_for_task(TASK_POSE) == 10.0
        assert LAMBDA_SEGMENTATION == 0.1
        assert LAMBDA_POSE == 10.0

    def test_unknown_task(self):
        with pytest.raises(PointSetError):
            balance_for_task("detection")


def _inputs(class_probs, class_targets, reg_preds, reg_targets, reg_valid,
            **kwargs) -> LossInputs:
    return LossInputs(
        class_probs=np.asarray(class_probs, dtype=float),
        class_targets=np.asarray(class_targets, dtype=int),
        reg_preds=np.asarray(reg_preds, dtype=float),
        reg_targets=np.asarray(reg_targets, dtype=float),
        reg_valid=np.asarray(reg_valid, dtype=bool),
        **kwargs,
    )


def _one_anchor(**changes) -> dict:
    """Valid LossInputs fields of one anchor, one class and two points, with ``changes``."""
    return {"class_probs": [[0.5]], "class_targets": [1], "reg_preds": np.zeros((1, 2, 2)),
            "reg_targets": np.zeros((1, 2, 2)), "reg_valid": np.ones((1, 2)), **changes}


@pytest.mark.parametrize("changes, message", [
    ({"class_probs": [0.5]}, "class_probs must be (A, C), got (1,)"),
    ({"class_targets": [2]}, "class target exceeds 1 classes"),
    ({"class_targets": [-2]}, "class targets are 0, -1 or positive class ids"),
    ({"reg_preds": np.zeros((1, 2))}, "reg_preds must be (1, P, 2), got (1, 2)"),
    ({"reg_targets": np.zeros((1, 3, 2))},
     "reg_targets shape (1, 3, 2) != reg_preds shape (1, 2, 2)"),
    ({"reg_valid": np.ones((1, 3))}, "reg_valid must be (1, 2), got (1, 3)"),
], ids=["probs", "target-class", "target-value", "preds", "targets", "valid"])
def test_rejections_are_named(changes, message):
    _inputs(**_one_anchor())     # without the change the fields are valid
    with pytest.raises(PointSetError, match=re.escape(message)):
        _inputs(**_one_anchor(**changes))


class TestTotalLoss:
    def test_perfect_predictions_zero_regression(self, rng):
        targets = rng.uniform(-5.0, 5.0, (4, 6, 2))
        inputs = _inputs(
            class_probs=[[1.0], [1.0], [0.0], [0.0]],
            class_targets=[1, 1, 0, 0],
            reg_preds=targets,
            reg_targets=targets,
            reg_valid=np.ones((4, 6)),
        )
        breakdown = total_loss(inputs)
        assert breakdown.loss_reg == 0.0
        assert breakdown.total == breakdown.loss_cls

    def test_l1_sum_over_valid_points_of_positives(self):
        preds = np.zeros((2, 2, 2))
        targets = np.ones((2, 2, 2))
        valid = np.array([[True, False], [True, True]])
        inputs = _inputs(
            class_probs=[[1.0], [0.0]],
            class_targets=[1, 0],
            reg_preds=preds,
            reg_targets=targets,
            reg_valid=valid,
            balance=0.1,
        )
        # one positive anchor, one valid point, |0 - 1| per coordinate
        assert total_loss(inputs).loss_reg == pytest.approx(0.1 * 2.0, abs=1e-12)

    def test_ignore_anchors_contribute_nothing(self):
        base = _inputs(
            class_probs=[[0.8], [0.3]],
            class_targets=[1, 0],
            reg_preds=np.zeros((2, 1, 2)),
            reg_targets=np.zeros((2, 1, 2)),
            reg_valid=np.ones((2, 1)),
        )
        ignore_targets = np.zeros((3, 1, 2))
        ignore_targets[2] = 9.0
        with_ignore = _inputs(
            class_probs=[[0.8], [0.3], [0.99]],
            class_targets=[1, 0, -1],
            reg_preds=np.zeros((3, 1, 2)),
            reg_targets=ignore_targets,
            reg_valid=np.ones((3, 1)),
        )
        assert total_loss(with_ignore) == total_loss(base)

    def test_denominator_is_max_positives_one(self):
        # no positives: the classification sum still divides by 1
        inputs = _inputs(
            class_probs=[[0.5]],
            class_targets=[0],
            reg_preds=np.zeros((1, 1, 2)),
            reg_targets=np.ones((1, 1, 2)),
            reg_valid=np.ones((1, 1)),
        )
        breakdown = total_loss(inputs)
        assert breakdown.loss_cls == pytest.approx(
            focal_loss(0.5, is_positive=False), abs=1e-12
        )
        assert breakdown.loss_reg == 0.0

    def test_classification_matches_scalar_focal(self):
        inputs = _inputs(
            class_probs=[[0.7, 0.2], [0.1, 0.6]],
            class_targets=[1, 2],
            reg_preds=np.zeros((2, 1, 2)),
            reg_targets=np.zeros((2, 1, 2)),
            reg_valid=np.ones((2, 1)),
        )
        expected = (
            focal_loss(0.7, True) + focal_loss(0.2, False)
            + focal_loss(0.1, False) + focal_loss(0.6, True)
        ) / 2.0
        assert total_loss(inputs).loss_cls == pytest.approx(expected, abs=1e-12)

    def test_validation(self):
        with pytest.raises(PointSetError, match=r"class_targets must be \(1,\), got \(2,\)"):
            _inputs([[0.5]], [0, 0], np.zeros((1, 1, 2)), np.zeros((1, 1, 2)),
                    np.ones((1, 1)))
        with pytest.raises(PointSetError):
            _inputs([[1.5]], [0], np.zeros((1, 1, 2)), np.zeros((1, 1, 2)),
                    np.ones((1, 1)))
        with pytest.raises(PointSetError, match="balance must be > 0"):
            _inputs([[0.5]], [0], np.zeros((1, 1, 2)), np.zeros((1, 1, 2)),
                    np.ones((1, 1)), balance=0.0)


class TestHeadOutputDims:
    def test_segmentation_table(self):
        dims = head_output_dims(TASK_SEGMENTATION, num_anchors=9,
                                num_classes=80, num_points=36)
        assert dims == {
            "classification": (9, 80),
            "shape_regression": (9, 72),
            "box_regression": (9, 4),
        }

    def test_pose_table(self):
        dims = head_output_dims(TASK_POSE, num_anchors=27)
        assert dims == {
            "classification": (27, 2),
            "shape_regression": (27, 34),
            "box_regression": None,
        }

    def test_segmentation_needs_sizes(self):
        with pytest.raises(PointSetError):
            head_output_dims(TASK_SEGMENTATION, num_anchors=9)

    def test_unknown_task(self):
        with pytest.raises(PointSetError):
            head_output_dims("boxes", num_anchors=9)
