"""Every entry point taking a joint array rejects a wrong joint count or batch length."""

import json
import re

import numpy as np
import pytest

from pointset_anchors.anchors import NUM_JOINTS, POSE_MODE, PyramidConfig, generate_grid
from pointset_anchors.assignment import oks, refine_pose_anchors
from pointset_anchors.errors import PointSetError
from pointset_anchors.geometry import Box
from pointset_anchors.matching import match_pose_points
from pointset_anchors.pose_modes import (
    NormalizedPose,
    PoseModes,
    kmeans_poses,
    load_pose_modes,
    normalize_pose,
)

J = NUM_JOINTS
POSE, VIS = np.zeros((J, 2)), np.ones(J)


def _modes_file(tmp_path):
    path = tmp_path / "modes.json"
    path.write_text(json.dumps({"k": 2, "seed": 0, "inertia": 0.0, "modes": [POSE.tolist()]}))
    return load_pose_modes(path)


# (call of tmp_path, the argument its message names)
CASES = {
    "grid-joints": (lambda _: generate_grid(PyramidConfig(), (64, 64), POSE_MODE,
                                            np.zeros((1, 5, 2))), "canonical_poses"),
    "oks-candidate": (lambda _: oks(np.zeros((5, 2)), POSE, VIS, 1.0), "candidate"),
    "oks-gt": (lambda _: oks(POSE, np.zeros((5, 2)), VIS, 1.0), "gt_joints"),
    "oks-visibility": (lambda _: oks(POSE, POSE, np.ones(5), 1.0), "visibility"),
    "refine": (lambda _: refine_pose_anchors(np.zeros((3, 5, 2))), "stage1_predictions"),
    "match-joints": (lambda _: match_pose_points(np.zeros((2, 5, 2)), np.zeros((2, 5, 2)),
                                                 np.ones((2, 5))), "joints"),
    "match-gt-batch": (lambda _: match_pose_points(np.zeros((2, J, 2)), np.zeros((3, J, 2)),
                                                   np.ones((2, J))), "gt_joints"),
    "match-one-gt": (lambda _: match_pose_points(np.zeros((2, J, 2)), POSE, np.ones((2, J))),
                     "gt_joints"),
    "match-visibility-batch": (lambda _: match_pose_points(np.zeros((2, J, 2)),
                                                           np.zeros((2, J, 2)), np.ones((3, J))),
                               "visibility"),
    "normalized-joints": (lambda _: NormalizedPose(np.zeros((5, 2)), VIS > 0), "joints"),
    "normalized-mask": (lambda _: NormalizedPose(POSE, np.ones(5, bool)), "valid_mask"),
    "normalize-joints": (lambda _: normalize_pose(np.zeros((5, 2)), VIS, Box(0, 0, 1, 1)),
                         "joints"),
    "normalize-visibility": (lambda _: normalize_pose(POSE, np.ones(5), Box(0, 0, 1, 1)),
                             "visibility"),
    "modes": (lambda _: PoseModes(np.zeros((2, 5, 2)), 0.0, 0), "modes"),
    "kmeans-raw-pose": (lambda _: kmeans_poses([POSE, np.zeros((5, 2))], k=1), "poses[1]"),
    "modes-file-k": (_modes_file, "'modes' of k=2"),
}


@pytest.mark.parametrize("call, name", list(CASES.values()), ids=list(CASES))
def test_wrong_joint_count_or_batch_length_is_named(tmp_path, call, name):
    with pytest.raises(PointSetError, match=re.escape(f"{name} must have shape")):
        call(tmp_path)
