"""The benchmark's output checks accept real outputs and reject corrupted ones.

    python -m pytest bench/tests

Each case runs the real CLI on a small seeded corpus, then feeds the checker
the untouched output and copies with one deliberate fault.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import corpus  # noqa: E402
import workloads  # noqa: E402


def cli(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **workloads.THREAD_ENV)
    done = subprocess.run([sys.executable, "-m", "pointset_anchors.cli", *args], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return done.stdout


class TargetsCase:
    def __init__(self, workload: workloads.Workload, images: int, directory: Path):
        self.workload = workload
        self.corpus = directory / "corpus.json"
        corpus.write_document(corpus.contour_document(
            5, images, workload.per_image, workload.vertex_range), self.corpus)
        self.out = directory / "targets.jsonl"
        args = ["targets", "--annotations", str(self.corpus), "--out", str(self.out)]
        if workload.config is not None:
            config = directory / "config.json"
            config.write_text(json.dumps(workload.config))
            args += ["--config", str(config)]
        self.summary = json.loads(cli(*args))
        self.lines = self.out.read_text().splitlines()

    def check(self, path=None):
        w = self.workload
        return checks.check_targets(path or self.out, self.corpus, w.pyramid, w.hi, w.lo,
                                    w.force_nearest, summary=self.summary)

    def corrupted(self, tmp_path: Path, edit) -> Path:
        """A copy with ``edit(records)`` applied to the decoded anchor lines."""
        records = [json.loads(line) for line in self.lines[1:]]
        edit(records)
        path = tmp_path / "corrupted.jsonl"
        path.write_text("\n".join([self.lines[0]] + [json.dumps(r, sort_keys=True)
                                                      for r in records]) + "\n")
        return path

    def first_positive(self, records) -> dict:
        return next(r for r in records if r["label"] > 0)


@pytest.fixture(scope="module")
def mask_case(tmp_path_factory):
    return TargetsCase(workloads.WORKLOADS["mask-targets"], 2, tmp_path_factory.mktemp("mask"))


@pytest.fixture(scope="module")
def crowded_case(tmp_path_factory):
    return TargetsCase(workloads.WORKLOADS["mask-targets-crowded"], 1,
                       tmp_path_factory.mktemp("crowded"))


@pytest.fixture(params=["mask", "crowded"])
def case(request, mask_case, crowded_case):
    return mask_case if request.param == "mask" else crowded_case


def test_targets_accepts_untouched_output(case):
    counts = case.check()
    assert counts["positives"] == case.summary["positives"] > 0
    assert counts["valid_points"] > 0


def test_targets_rejects_flipped_label(case, tmp_path):
    def flip(records):
        case.first_positive(records)["label"] = 0

    with pytest.raises(checks.CheckError, match="expected"):
        case.check(case.corrupted(tmp_path, flip))


def test_targets_rejects_similarity_off_by_1e_6(case, tmp_path):
    def nudge(records):
        line = next(r for r in records if r["sim"] > 0.0)
        line["sim"] += 1e-6

    with pytest.raises(checks.CheckError, match="expected"):
        case.check(case.corrupted(tmp_path, nudge))


def test_targets_rejects_offset_moved_off_the_contour(case, tmp_path):
    def move(records):
        line = case.first_positive(records)
        n = len(line["valid"])
        i = next(i for i in range(n) if line["valid"][i] and i % (n // 4))
        free = 1 if (i // (n // 4)) % 2 == 0 else 0   # the coordinate along the cast line
        line["offsets"][i][free] += 0.25

    with pytest.raises(checks.CheckError, match="off the matched contour"):
        case.check(case.corrupted(tmp_path, move))


def test_targets_rejects_offset_off_its_cast_line(mask_case, tmp_path):
    def shift(records):
        line = mask_case.first_positive(records)
        n = len(line["valid"])
        i = next(i for i in range(n) if line["valid"][i] and i % (n // 4))
        cast = 0 if (i // (n // 4)) % 2 == 0 else 1
        line["offsets"][i][cast] += 1e-9

    with pytest.raises(checks.CheckError, match="cast line"):
        mask_case.check(mask_case.corrupted(tmp_path, shift))


def test_targets_rejects_swapped_lines(mask_case, tmp_path):
    def swap(records):
        records[10], records[11] = records[11], records[10]

    with pytest.raises(checks.CheckError):
        mask_case.check(mask_case.corrupted(tmp_path, swap))


def test_targets_rejects_a_wrong_summary(mask_case):
    summary = dict(mask_case.summary, positives=mask_case.summary["positives"] + 1)
    w = mask_case.workload
    with pytest.raises(checks.CheckError, match="summary"):
        checks.check_targets(mask_case.out, mask_case.corpus, w.pyramid, w.hi, w.lo,
                             w.force_nearest, summary=summary)


def test_main_rejects_an_output_it_cannot_read(mask_case, tmp_path):
    def replace_line(records):
        records[3] = 1

    stdout = tmp_path / "stdout.txt"
    stdout.write_text(json.dumps(mask_case.summary) + "\n")
    args = [str(mask_case.corpus), str(mask_case.corrupted(tmp_path, replace_line)), str(stdout)]
    assert checks.main(["mask-targets", *args]) == 3
    assert checks.main(["mask-targets", str(mask_case.corpus), str(mask_case.out),
                        str(stdout)]) == 0


@pytest.fixture(scope="module")
def coverage_case(tmp_path_factory):
    directory = tmp_path_factory.mktemp("coverage")
    path = directory / "corpus.json"
    corpus.write_document(corpus.pose_document(5, 20, 1), path)
    shapes = [np.zeros((1, checks.NUM_JOINTS, 2)), checks.rectangle_shape()[None]]
    for k in (1, 3):
        modes = directory / f"modes{k}.json"
        cli("modes", "--annotations", str(path), "--k", str(k), "--seed", "0", "--out", str(modes))
        shapes.append(checks.load_modes(modes))
    out = directory / "coverage.json"
    cli("coverage", "--annotations", str(path), "--out", str(out))
    return path, out, list(zip(workloads.COVERAGE_NAMES, shapes))


def check_coverage(coverage_case, doc=None, tmp_path=None):
    path, out, configs = coverage_case
    if doc is not None:
        out = tmp_path / "corrupted.json"
        out.write_text(json.dumps(doc))
    return checks.check_coverage(out, path, workloads.WORKLOADS["pose-coverage"].pyramid, configs)


def test_coverage_accepts_untouched_output(coverage_case):
    assert check_coverage(coverage_case)["reports"] == 4


def test_coverage_rejects_a_histogram_with_one_count_moved(coverage_case, tmp_path):
    doc = json.loads(coverage_case[1].read_text())
    hist = doc["reports"][3]["histogram"]
    src = next(i for i, c in enumerate(hist) if c > 0)
    hist[src] -= 1
    hist[src + 1 if src < 9 else src - 1] += 1
    with pytest.raises(checks.CheckError, match="histogram"):
        check_coverage(coverage_case, doc, tmp_path)


def test_coverage_rejects_a_wrong_matched_count(coverage_case, tmp_path):
    doc = json.loads(coverage_case[1].read_text())
    doc["reports"][2]["matched_gt_count"] += 1
    with pytest.raises(checks.CheckError, match="matched_gt_count"):
        check_coverage(coverage_case, doc, tmp_path)


def test_coverage_rejects_labels_that_do_not_add_up(coverage_case, tmp_path):
    doc = json.loads(coverage_case[1].read_text())
    doc["reports"][0]["negative_count"] -= 1
    with pytest.raises(checks.CheckError, match="add up"):
        check_coverage(coverage_case, doc, tmp_path)
