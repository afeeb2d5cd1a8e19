import numpy as np
import pytest

from pointset_anchors.codec import Detection, construct_mask, decode_points, nms
from pointset_anchors.errors import LengthMismatchError, PointSetError, TooFewValidPointsError
from pointset_anchors.geometry import Box, Contour, box_iou_matrix
from pointset_anchors.matching import STRATEGIES, match_points, point_offsets

from oracles import brute_nms
from util import anchor_from_box, random_box, random_polygon


def _box_det(box: Box, score: float, class_id: int = 1) -> Detection:
    return Detection(score=score, class_id=class_id, shape=box)


class TestDecodePoints:
    def test_adds_offsets_where_valid(self):
        anchor_points = np.array([(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)])
        offsets = np.array([(1.0, 0.0), (5.0, 5.0), (0.5, -0.5)])
        valid = np.array([True, False, True])
        decoded, flags = decode_points(anchor_points, offsets, valid)
        assert decoded[0].tolist() == [1.0, 0.0]
        assert decoded[1].tolist() == [1.0, 1.0]   # invalid: anchor kept as-is
        assert decoded[2].tolist() == [2.5, 1.5]
        assert flags.tolist() == [True, False, True]

    def test_inverts_matching(self, rng):
        contour = random_polygon(rng, 11, convex=True)
        points, corners = anchor_from_box(contour.bounds(), 24)
        for strategy in STRATEGIES:
            targets, valid = match_points(points[None], corners, contour.vertices, strategy)
            offsets = point_offsets(points, targets[0], valid[0])
            decoded, flags = decode_points(points, offsets, valid[0])
            assert np.array_equal(decoded[flags], targets[0][flags]), strategy

    def test_shape_mismatch(self):
        with pytest.raises(LengthMismatchError):
            decode_points(np.zeros((3, 2)), np.zeros((4, 2)))


class TestConstructMask:
    def test_keeps_valid_points_in_order(self):
        points = np.array([(0.0, 0.0), (4.0, 0.0), (9.0, 9.0), (4.0, 4.0), (0.0, 4.0)])
        valid = np.array([True, True, False, True, True])
        contour = construct_mask(points, valid)
        assert np.array_equal(contour.vertices, points[valid])

    def test_too_few_valid(self):
        points = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        with pytest.raises(TooFewValidPointsError):
            construct_mask(points, np.array([True, True, False]))


class TestDetection:
    def test_score_range_enforced(self):
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(PointSetError):
                Detection(score=bad, class_id=1, shape=Box(0, 0, 1, 1))

    def test_bounding_box_prefers_box_field(self):
        det = Detection(score=0.5, class_id=1,
                        shape=Box(0.0, 0.0, 1.0, 1.0), box=Box(5.0, 5.0, 6.0, 6.0))
        assert det.bounding_box() == Box(5.0, 5.0, 6.0, 6.0)

    def test_bounding_box_from_contour_and_joints(self):
        contour = Contour([(1.0, 1.0), (4.0, 1.0), (4.0, 3.0)])
        det = Detection(score=0.5, class_id=1, shape=contour)
        assert det.bounding_box() == Box(1.0, 1.0, 4.0, 3.0)
        joints = np.array([(0.0, 2.0), (6.0, 5.0)])
        det = Detection(score=0.5, class_id=1, shape=joints)
        assert det.bounding_box() == Box(0.0, 2.0, 6.0, 5.0)


class TestNms:
    def test_reference_chain(self):
        # A-B and B-C overlap at exactly IoU 0.6; A-C at 1/3, the smallest
        # IoU an equal-score 0.6/0.6 chain admits. Greedy at threshold 0.5
        # drops B against A and then keeps C.
        a = Box(0.0, 0.0, 10.0, 10.0)
        b = Box(2.5, 0.0, 12.5, 10.0)
        c = Box(5.0, 0.0, 15.0, 10.0)
        iou = box_iou_matrix([a.as_array(), b.as_array()], [b.as_array(), c.as_array()])
        assert iou[0, 0] == 0.6
        assert iou[1, 1] == 0.6
        assert iou[0, 1] == 1.0 / 3.0
        detections = [_box_det(a, 0.9), _box_det(b, 0.8), _box_det(c, 0.7)]
        assert nms(detections, iou_threshold=0.5) == [0, 2]

    def test_class_aware_keeps_other_classes(self):
        box = Box(0.0, 0.0, 10.0, 10.0)
        detections = [_box_det(box, 0.9, class_id=1), _box_det(box, 0.8, class_id=2)]
        assert nms(detections, iou_threshold=0.5) == [0, 1]

    def test_empty_input(self):
        assert nms([]) == []

    def test_threshold_validation(self):
        with pytest.raises(PointSetError):
            nms([_box_det(Box(0, 0, 1, 1), 0.5)], iou_threshold=1.5)

    def test_agrees_with_quadratic_reference(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 60))
            detections = []
            scores = rng.permutation(n) / n * 0.9 + 0.05
            for i in range(n):
                detections.append(_box_det(random_box(rng, span=40.0, max_side=25.0),
                                           float(scores[i]),
                                           class_id=int(rng.integers(1, 3))))
            threshold = float(rng.uniform(0.2, 0.7))
            kept = nms(detections, iou_threshold=threshold)
            boxes = [d.bounding_box().as_array() for d in detections]
            expected = brute_nms(boxes, [d.score for d in detections],
                                 [d.class_id for d in detections], threshold)
            assert kept == expected

    def test_permutation_invariant_kept_set(self, rng):
        n = 30
        scores = rng.permutation(n) / n * 0.9 + 0.05
        detections = [
            _box_det(random_box(rng, span=30.0, max_side=20.0), float(scores[i]))
            for i in range(n)
        ]
        base = {detections[i].score for i in nms(detections, 0.5)}
        for _ in range(5):
            perm = rng.permutation(n)
            shuffled = [detections[int(p)] for p in perm]
            kept = {shuffled[i].score for i in nms(shuffled, 0.5)}
            assert kept == base
