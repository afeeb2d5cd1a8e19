import gc
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from pointset_anchors.anchors import DEFAULT_LEVELS, MAX_IMAGE_ANCHORS
from pointset_anchors.cli import build_parser, main
from pointset_anchors.datasets import min_pose_image_side
from pointset_anchors.pose_modes import load_pose_modes
from pointset_anchors.synthetic import (
    CORPUS_CONTOURS,
    CORPUS_POSES,
    generate_synthetic_corpus,
    save_corpus,
)
from util import SMALL_CONFIG, replace


def _synth(tmp_path, name, *extra):
    path = tmp_path / name
    code = main([
        "synth", "--kind", "contours", "--count", "6", "--seed", "3",
        "--image-size", "192", "192", "--out", str(path), *extra,
    ])
    assert code == 0
    return path


def _synth_poses(tmp_path, name, *extra):
    path = tmp_path / name
    code = main([
        "synth", "--kind", "poses", "--count", "10", "--seed", "5",
        "--out", str(path), *extra,
    ])
    assert code == 0
    return path


def _duplicate_poses(tmp_path):
    """A pose document holding three copies of one fully visible annotation."""
    ann = _synth_poses(tmp_path, "poses.json")
    doc = json.loads(ann.read_text())
    first = doc["annotations"][0]
    first["keypoints"][2::3] = [2] * 17
    doc["annotations"] = [dict(first, id=i + 1) for i in range(3)]
    ann.write_text(json.dumps(doc))
    return ann


def _config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


def _fresh_python(tmp_path, *args, stdout=subprocess.PIPE):
    """``python ARGS`` in a fresh interpreter that imports the package from this
    checkout, with stdout block-buffered as on any pipe (PYTHONUNBUFFERED unset)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, cwd=tmp_path, env=env)


class TestSynth:
    def test_writes_parseable_corpus(self, tmp_path, capsys):
        path = _synth(tmp_path, "c.json")
        doc = json.loads(path.read_text())
        assert len(doc["annotations"]) == 6
        assert "wrote 6 contours record(s)" in capsys.readouterr().out

    def test_deterministic_across_runs(self, tmp_path):
        a = _synth(tmp_path, "a.json")
        b = _synth(tmp_path, "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_bad_parameters_exit_1(self, tmp_path, capsys):
        code = main([
            "synth", "--kind", "poses", "--count", "0",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_pose_image_too_small_names_the_smallest_size(self, tmp_path, capsys):
        # figures up to 160 px tall reach 120 px from their centre
        for size, code in ((("200", "120"), 1), (("240", "241"), 1), (("241", "241"), 0)):
            capsys.readouterr()
            status = main(["synth", "--kind", "poses", "--count", "4", "--image-size", *size,
                           "--out", str(tmp_path / "p.json")])
            if code:
                _assert_named_error(capsys, status, f"image ({size[0]}, {size[1]})",
                                    "at least 241 px")
            else:
                assert status == 0
        with pytest.raises(SystemExit):
            main(["synth", "--help"])
        assert min_pose_image_side() == 241
        assert (f"poses need both sides at least {min_pose_image_side()}"
                in " ".join(capsys.readouterr().out.split()))

    def test_kind_choices_are_the_corpus_kinds(self):
        commands = next(a for a in build_parser()._actions if a.dest == "command").choices
        kind = next(a for a in commands["synth"]._actions if a.dest == "kind")
        assert tuple(kind.choices) == (CORPUS_CONTOURS, CORPUS_POSES)

    def test_contour_image_too_small_names_the_smallest_size(self, tmp_path, capsys):
        # the default radii, aspects and spikiness need 69.39 px a side
        out = tmp_path / "c.json"
        for size in (("69", "69"), ("200", "69"), ("69", "200")):
            capsys.readouterr()
            status = main(["synth", "--kind", "contours", "--count", "2", "--image-size", *size,
                           "--out", str(out)])
            _assert_named_error(capsys, status, f"image ({size[0]}, {size[1]})",
                                "at least 70 px")
            assert not out.exists()
        assert main(["synth", "--kind", "contours", "--count", "2", "--image-size", "70", "70",
                     "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["annotations"]) == 2

    @pytest.mark.parametrize("flags, name", [
        (["--kind", "poses", "--seed", "-1"], "seed must be >= 0"),
        (["--kind", "contours", "--seed", "-1"], "seed must be >= 0"),
        (["--kind", "contours", "--vertex-range", "9", "5"], "vertex_range"),
        # seeds 0-9 drew a 2-vertex polygon in 7 of 10 corpora, and wrote the other 3
        (["--kind", "contours", "--vertex-range", "2", "12"], "vertex_range"),
        (["--kind", "poses", "--jitter", "-5"], "jitter"),
        (["--kind", "poses", "--jitter", "nan"], "jitter"),
        (["--kind", "poses", "--jitter", "inf"], "jitter"),
    ], ids=["seed-poses", "seed-contours", "vertex-range-reversed", "vertex-range-2",
            "jitter-negative", "jitter-nan", "jitter-inf"])
    def test_bad_value_is_named_before_anything_is_written(self, tmp_path, capsys, flags, name):
        out = tmp_path / "c.json"
        code = main(["synth", "--count", "20", *flags, "--out", str(out)])
        _assert_named_error(capsys, code, name)
        assert not out.exists()

    @pytest.mark.parametrize("flags, name", [
        (["--kind", "contours", "--jitter", "5", "--dropout", "3"], "--jitter"),
        (["--kind", "contours", "--prototypes", "2"], "--prototypes"),
        (["--kind", "poses", "--vertex-range", "1", "0"], "--vertex-range"),
        (["--kind", "poses", "--convex"], "--convex"),
    ], ids=["jitter-contours", "prototypes-contours", "vertex-range-poses", "convex-poses"])
    def test_flag_of_the_other_kind_is_named(self, tmp_path, capsys, flags, name):
        out = tmp_path / "c.json"
        code = main(["synth", "--count", "2", *flags, "--out", str(out)])
        _assert_named_error(capsys, code, name)
        assert not out.exists()

    def test_vertex_range_of_one_count_draws_that_count(self, tmp_path):
        out = _synth(tmp_path, "c.json", "--vertex-range", "3", "3")
        polygons = [a["segmentation"][0] for a in json.loads(out.read_text())["annotations"]]
        assert {len(polygon) for polygon in polygons} == {6}

    # sha256 of a 12-record corpus of each kind (seed 11, 2 an image), with no
    # difficulty flag and with every one: pins the generators' draw order
    PINNED_DIGESTS = {
        "contours": ([], "f9a801d305387490bd790afdcb388e8c7a6994f91e21d4988342b8974ed2b6bf"),
        "contours-every-flag": (["--convex", "--vertex-range", "5", "9"],
                                "4288e659cb1f7ac1027bca27b65773c3841b3d50544ba403bfc4295d336ea49a"),
        "poses": ([], "734f3c0bfc9ba7f0981bac3378f6b4efe9c455051279fece77e3fe020f482e2e"),
        "poses-every-flag": (["--jitter", "1.5", "--dropout", "0.3", "--truncation", "0.4",
                              "--prototypes", "5"],
                             "75126489de71df19287aabe5bf9b93e1ae2ad6afc2fea4904f9e256766529231"),
    }

    @pytest.mark.parametrize("case", sorted(PINNED_DIGESTS))
    def test_pinned_bytes(self, tmp_path, case):
        flags, digest = self.PINNED_DIGESTS[case]
        out = tmp_path / "corpus.json"
        assert main(["synth", "--kind", case.split("-")[0], *flags, "--count", "12", "--seed",
                     "11", "--instances-per-image", "2", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("kind", [CORPUS_CONTOURS, CORPUS_POSES])
    def test_no_difficulty_flag_leaves_the_generators_defaults(self, tmp_path, kind):
        out, expected = tmp_path / "cli.json", tmp_path / "library.json"
        assert main(["synth", "--kind", kind, "--count", "7", "--seed", "2",
                     "--out", str(out)]) == 0
        save_corpus(generate_synthetic_corpus(kind, 7, seed=2), expected)
        assert out.read_bytes() == expected.read_bytes()


class TestModes:
    def test_clusters_pose_corpus(self, tmp_path, capsys):
        ann = _synth_poses(tmp_path, "poses.json", "--jitter", "1.5")
        out = tmp_path / "modes.json"
        code = main(["modes", "--annotations", str(ann), "--k", "2",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        modes = load_pose_modes(out)
        assert modes.k == 2
        assert "wrote 2 mode(s)" in capsys.readouterr().out

    def test_missing_annotations_exit_1(self, tmp_path, capsys):
        code = main(["modes", "--annotations", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_fewer_distinct_poses_than_k_exit_1(self, tmp_path, capsys):
        ann = _duplicate_poses(tmp_path)
        capsys.readouterr()
        out = tmp_path / "modes.json"
        code = main(["modes", "--annotations", str(ann), "--k", "2", "--out", str(out)])
        _assert_named_error(capsys, code, "distinct fully visible poses, got 1")
        assert not out.exists()

    def test_negative_seed_exit_1(self, tmp_path, capsys):
        ann = _synth_poses(tmp_path, "poses.json", "--jitter", "1.5")
        capsys.readouterr()
        out = tmp_path / "modes.json"
        code = main(["modes", "--annotations", str(ann), "--seed", "-1", "--out", str(out)])
        _assert_named_error(capsys, code, "seed must be >= 0, got -1")
        assert not out.exists()

    def test_partly_visible_poses_left_out_are_counted(self, tmp_path, capsys):
        # 3 of 40 poses are fully visible, and k-means clusters only those
        ann = tmp_path / "poses.json"
        assert main(["synth", "--kind", "poses", "--count", "40", "--seed", "3",
                     "--truncation", "0.5", "--dropout", "0.1", "--out", str(ann)]) == 0
        capsys.readouterr()
        line = "warning: k-means clusters the 3 fully visible of 40 pose(s)\n"
        assert main(["modes", "--annotations", str(ann), "--k", "3",
                     "--out", str(tmp_path / "m.json")]) == 0
        assert capsys.readouterr().err == line
        assert main(["coverage", "--annotations", str(ann), "--k", "2",
                     "--out", str(tmp_path / "c.json")]) == 0
        assert capsys.readouterr().err == line
        # a corpus of fully visible poses says nothing
        assert main(["modes", "--annotations", str(_duplicate_poses(tmp_path)), "--k", "1",
                     "--out", str(tmp_path / "m.json")]) == 0
        assert capsys.readouterr().err == ""


class TestFlagsOfTheTaskThatRuns:
    """A flag that the running task or similarity would not read exits 1 by name."""

    CASES = {
        "modes-on-mask": ("targets --annotations {contours} --modes {modes}",
                          "--modes applies only to --task pose"),
        "strategy-on-pose": ("targets --annotations {poses} --task pose"
                             " --strategy nearest-line --modes {modes}",
                             "--strategy applies only to --task mask"),
        "strategy-on-pose-config": ("targets --annotations {poses} --config {pose_config}"
                                    " --strategy nearest-point --modes {modes}",
                                    "--strategy applies only to --task mask"),
        "k-on-iou": ("coverage --annotations {contours} --similarity iou --k 0 --seed -5",
                     "--k applies only to --similarity oks"),
        "seed-on-iou": ("coverage --annotations {contours} --similarity iou --seed 0",
                        "--seed applies only to --similarity oks"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_flag_is_named_and_nothing_is_written(self, tmp_path, capsys, case):
        files = {"poses": _synth_poses(tmp_path, "poses.json"),
                 "contours": _synth(tmp_path, "c.json"),
                 "modes": tmp_path / "modes.json", "pose_config": tmp_path / "config.json"}
        assert main(["modes", "--annotations", str(files["poses"]), "--k", "1",
                     "--out", str(files["modes"])]) == 0
        files["pose_config"].write_text(json.dumps({"task": "pose"}))
        command, message = self.CASES[case]
        capsys.readouterr()
        out = tmp_path / "out"
        assert main([*(token.format(**files) for token in command.split()),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_flag_is_named_before_the_corpus_is_read(self, tmp_path, capsys):
        # the corpus's own warning would print if it were parsed first
        contours = _synth(tmp_path, "c.json")
        doc = json.loads(contours.read_text())
        doc["annotations"][0]["segmentation"].append([1.0, 1.0, 5.0, 5.0])
        contours.write_text(json.dumps(doc))
        modes, out = tmp_path / "modes.json", tmp_path / "t.jsonl"
        modes.write_text("{}")
        assert main(["targets", "--annotations", str(contours), "--out", str(out)]) == 0
        assert capsys.readouterr().err == "warning: dropped 1 degenerate polygon(s)\n"
        out.unlink()
        assert main(["targets", "--annotations", str(contours), "--modes", str(modes),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: --modes applies only to --task pose\n"
        assert not out.exists()

    def test_modes_file_is_read_before_the_corpus(self, tmp_path, capsys):
        # the corpus's crowd warning would print if it were parsed first
        poses = _synth_poses(tmp_path, "poses.json")
        doc = json.loads(poses.read_text())
        doc["annotations"][0]["iscrowd"] = 1
        poses.write_text(json.dumps(doc))
        modes, out = tmp_path / "modes.json", tmp_path / "t.jsonl"
        modes.write_text('{"k": true}')
        capsys.readouterr()
        assert main(["targets", "--annotations", str(poses), "--task", "pose",
                     "--modes", str(modes), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {modes}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--threshold", "2"], "threshold must be in (0, 1], got 2.0"),
        (["--k", "0"], "k must be >= 1, got 0"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--config", "{config}"], "thresholds must satisfy 0 <= lo <= hi <= 1, got lo=0.4 hi=2"),
        (["--similarity", "iou", "--threshold", "0"], "threshold must be in (0, 1], got 0.0"),
        (["--similarity", "iou", "--config", "{config}"],
         "thresholds must satisfy 0 <= lo <= hi <= 1, got lo=0.4 hi=2"),
    ], ids=["threshold", "k", "seed", "config", "iou-threshold", "iou-config"])
    def test_coverage_setting_is_named_before_the_corpus_is_read(self, tmp_path, capsys,
                                                                 flags, message):
        self._assert_named_before_the_corpus(tmp_path, capsys, "coverage", flags, message)

    @pytest.mark.parametrize("flags, message", [
        (["--k", "0"], "k must be >= 1, got 0"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--max-iters", "0"], "max_iters must be >= 1, got 0"),
    ], ids=["k", "seed", "max-iters"])
    def test_modes_setting_is_named_before_the_corpus_is_read(self, tmp_path, capsys,
                                                              flags, message):
        self._assert_named_before_the_corpus(tmp_path, capsys, "modes", flags, message)

    @staticmethod
    def _assert_named_before_the_corpus(tmp_path, capsys, command, flags, message):
        # the corpus's own warnings would print if it were parsed first
        poses = tmp_path / "poses.json"
        assert main(["synth", "--kind", "poses", "--count", "40", "--seed", "3",
                     "--truncation", "0.5", "--dropout", "0.1", "--out", str(poses)]) == 0
        doc = json.loads(poses.read_text())
        doc["annotations"][0]["segmentation"] = [[1.0, 1.0, 5.0, 5.0]]
        poses.write_text(json.dumps(doc))
        config, out = tmp_path / "config.json", tmp_path / "out.json"
        config.write_text('{"hi": 2}')
        capsys.readouterr()
        assert main([command, "--annotations", str(poses), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ("warning: dropped 1 degenerate polygon(s)\n"
                                           "warning: k-means clusters the 3 fully visible"
                                           " of 40 pose(s)\n")
        out.unlink()
        assert main([command, "--annotations", str(poses), "--out", str(out),
                     *(flag.format(config=config) for flag in flags)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_a_config_key_that_changes_nothing_is_rejected(self, tmp_path, capsys):
        # a pose run has no strategy, and coverage reads only the pyramid: such a
        # key is named, as such a flag is, before the (here missing) corpus is read
        contours, missing = _synth(tmp_path, "c.json"), str(tmp_path / "missing.json")
        modes, config = tmp_path / "modes.json", tmp_path / "config.json"
        assert main(["modes", "--annotations", str(_synth_poses(tmp_path, "poses.json")),
                     "--k", "1", "--out", str(modes)]) == 0
        runs = [({"strategy": "nearest-line"}, ["targets", "--task", "pose", "--modes", str(modes)],
                 "'strategy' applies only to --task mask")]
        runs += [({key: value}, ["coverage", "--similarity", similarity],
                  f"{key!r} applies only to targets")
                 for key, value in (("hi", 0.9), ("strategy", "nearest-line"), ("num_classes", 2))
                 for similarity in ("oks", "iou")]
        for doc, argv, message in runs:
            config.write_text(json.dumps({**SMALL_CONFIG, **doc}))
            capsys.readouterr()
            out = tmp_path / "out"
            assert main([*argv, "--annotations", missing, "--config", str(config),
                         "--out", str(out)]) == 1, argv
            assert capsys.readouterr().err == f"error: config: {message}\n", argv
            assert not out.exists()
            # the same document serves mask targets
            assert main(["targets", "--annotations", str(contours), "--config", str(config),
                         "--out", str(tmp_path / "t.jsonl")]) == 0, argv
        config.write_text(json.dumps(SMALL_CONFIG))
        assert main(["coverage", "--annotations", str(contours), "--config", str(config),
                     "--similarity", "iou", "--out", str(tmp_path / "cov.json")]) == 0


class TestTargets:
    def test_mask_targets(self, tmp_path, capsys):
        ann = _synth(tmp_path, "c.json")
        capsys.readouterr()
        out = tmp_path / "targets.jsonl"
        code = main(["targets", "--annotations", str(ann),
                     "--config", str(_config_file(tmp_path)), "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["images"] == 6
        header = json.loads(out.read_text().splitlines()[0])
        assert header["task"] == "mask"

    def test_cli_flags_override_document(self, tmp_path):
        ann = _synth(tmp_path, "c.json")
        out = tmp_path / "targets.jsonl"
        code = main(["targets", "--annotations", str(ann),
                     "--config", str(_config_file(tmp_path)),
                     "--strategy", "nearest-point", "--hi", "0.7",
                     "--out", str(out)])
        assert code == 0
        header = json.loads(out.read_text().splitlines()[0])
        assert header["strategy"] == "nearest-point"
        assert header["hi"] == 0.7
        assert header["lo"] == 0.4    # the default fills what flags leave unset

    def test_pose_targets_need_modes_flag(self, tmp_path, capsys):
        ann = _synth_poses(tmp_path, "poses.json")
        code = main(["targets", "--annotations", str(ann), "--task", "pose",
                     "--out", str(tmp_path / "t.jsonl")])
        assert code == 1
        assert "--modes" in capsys.readouterr().err

    def test_pose_targets_with_modes(self, tmp_path, capsys):
        ann = _synth_poses(tmp_path, "poses.json")
        modes_path = tmp_path / "modes.json"
        assert main(["modes", "--annotations", str(ann), "--k", "1",
                     "--out", str(modes_path)]) == 0
        out = tmp_path / "t.jsonl"
        code = main(["targets", "--annotations", str(ann), "--task", "pose",
                     "--config", str(_config_file(tmp_path)),
                     "--modes", str(modes_path), "--force-nearest",
                     "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["positives"] > 0

    def test_category_zero_rejected_before_out_is_opened(self, tmp_path, capsys):
        records = generate_synthetic_corpus(CORPUS_CONTOURS, 6, seed=3, image_size=(192, 192))
        records[4] = replace(records[4], class_id=0)
        ann = tmp_path / "corpus.json"
        save_corpus(records, ann)
        out = tmp_path / "targets.jsonl"
        code = main(["targets", "--annotations", str(ann), "--out", str(out)])
        assert code == 1
        assert f"image {records[4].image_id}" in capsys.readouterr().err
        assert not out.exists()

    def test_category_above_num_classes_rejected_before_out_is_opened(self, tmp_path, capsys):
        # the header's classification head has num_classes (1) columns, so
        # label 7 would name a column that does not exist
        records = generate_synthetic_corpus(CORPUS_CONTOURS, 6, seed=3, image_size=(192, 192))
        records[2] = replace(records[2], class_id=7)
        ann = tmp_path / "corpus.json"
        save_corpus(records, ann)
        out = tmp_path / "targets.jsonl"
        code = main(["targets", "--annotations", str(ann), "--out", str(out)])
        assert code == 1
        assert f"image {records[2].image_id}" in capsys.readouterr().err
        assert not out.exists()
        # coverage uses no class ids and keeps accepting the corpus
        assert main(["coverage", "--annotations", str(ann), "--similarity", "iou",
                     "--out", str(tmp_path / "coverage.json")]) == 0

    def test_byte_identical_runs(self, tmp_path):
        ann = _synth(tmp_path, "c.json")
        config = _config_file(tmp_path)
        outs = []
        for name in ("r1.jsonl", "r2.jsonl"):
            out = tmp_path / name
            assert main(["targets", "--annotations", str(ann),
                         "--config", str(config), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def _assert_named_error(capsys, code, *names):
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:"), err
    assert "Traceback" not in err
    for name in names:
        assert name in err, err


class TestDocumentErrors:
    """A bad field of an input document exits 1 with a named error, not a traceback."""

    def test_non_numeric_bbox(self, tmp_path, capsys):
        ann = _synth(tmp_path, "c.json")
        doc = json.loads(ann.read_text())
        doc["annotations"][2]["bbox"] = ["a", 0, 1, 1]
        ann.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["targets", "--annotations", str(ann), "--out", str(tmp_path / "t.jsonl")])
        _assert_named_error(capsys, code, "annotations[2]", "'bbox'")

    @pytest.mark.parametrize("command, field, index, value", [
        ("targets", "bbox", 0, float("nan")),
        ("targets", "segmentation", 3, float("inf")),
        ("coverage", "keypoints", 0, float("inf")),
        ("modes", "keypoints", 4, float("-inf")),
    ], ids=["targets-bbox-nan", "targets-polygon-inf", "coverage-keypoint-inf",
            "modes-keypoint-inf"])
    def test_non_finite_value(self, tmp_path, capsys, command, field, index, value):
        ann = (_synth if field != "keypoints" else _synth_poses)(tmp_path, "c.json")
        doc = json.loads(ann.read_text())
        values = doc["annotations"][2][field]
        (values[0] if field == "segmentation" else values)[index] = value
        ann.write_text(json.dumps(doc))           # NaN / Infinity, as json writes them
        capsys.readouterr()
        code = main([command, "--annotations", str(ann), "--out", str(tmp_path / "out")])
        _assert_named_error(capsys, code, "annotations[2]", f"'{field}'", "finite")

    @pytest.mark.parametrize("section, index, field, name", [
        ("images", 0, "width", "'width'"), ("images", 1, "id", "'id'"),
        ("images", 0, "height", "'height'"), ("annotations", 2, "image_id", "image_id True"),
        ("annotations", 3, "category_id", "'category_id'"),
    ], ids=["width", "image-id", "height", "annotation-image-id", "category-id"])
    def test_boolean_for_an_integer(self, tmp_path, capsys, section, index, field, name):
        # json's true would pass as the integer 1
        ann = _synth(tmp_path, "c.json")
        doc = json.loads(ann.read_text())
        doc[section][index][field] = True
        ann.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["targets", "--annotations", str(ann), "--out", str(tmp_path / "t.jsonl")])
        _assert_named_error(capsys, code, f"{section}[{index}]", name)

    def test_repeated_image_id(self, tmp_path, capsys):
        ann = _synth(tmp_path, "c.json")
        doc = json.loads(ann.read_text())
        doc["images"][3]["id"] = doc["images"][1]["id"]
        ann.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["targets", "--annotations", str(ann), "--out", str(tmp_path / "t.jsonl")])
        _assert_named_error(capsys, code, "images[3]", f"image id {doc['images'][1]['id']}")

    @pytest.mark.parametrize("value, name", [
        (2, "repeats annotation id 2"), ("4", "'id' must be an integer"),
        (True, "'id' must be an integer"),
    ], ids=["repeated", "string", "boolean"])
    def test_bad_annotation_id(self, tmp_path, capsys, value, name):
        ann = _synth(tmp_path, "c.json")
        doc = json.loads(ann.read_text())
        doc["annotations"][3]["id"] = value
        ann.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "t.jsonl"
        code = main(["targets", "--annotations", str(ann), "--out", str(out)])
        _assert_named_error(capsys, code, "annotations[3]", name)
        assert not out.exists()

    BAD_CONFIGS = {
        "invalid-json": ("config.json", '{"pyramid": ', ["config.json", "not a valid document"]),
        "invalid-yaml": ("config.yaml", "pyramid: [1, 2", ["config.yaml", "not a valid document"]),
        # python converts no int of over 4,300 digits, and the YAML loader raises ValueError
        "huge-int-yaml": ("config.yaml", f"hi: {'9' * 4301}",
                          ["config.yaml", "not a valid document"]),
        "level-pair": ("config.json", '{"pyramid": {"levels": [[8]]}}', ["'levels'"]),
        "num-points-str": ("config.json", '{"pyramid": {"num_points": "36"}}', ["'num_points'"]),
        "hi-str": ("config.json", '{"hi": "0.5"}', ["'hi'"]),
        "hi-below-lo": ("config.json", '{"hi": 0.3, "lo": 0.5}', ["lo=0.5 hi=0.3"]),
        "hi-nan": ("config.json", '{"hi": NaN}', ["hi=nan"]),
    }

    # targets and coverage read --config through one function, so each bad
    # document fails both alike; the threshold flags are targets' own
    @pytest.mark.parametrize("command, name, text, flags, names", [
        *(pytest.param("targets", name, text, [], names, id=case)
          for case, (name, text, names) in BAD_CONFIGS.items()),
        pytest.param("targets", "config.json", "{}", ["--hi", "0.3", "--lo", "0.5"],
                     ["lo=0.5 hi=0.3"], id="hi-below-lo-flags"),
        *(pytest.param("coverage", name, text, [], names, id=f"coverage-{case}")
          for case, (name, text, names) in BAD_CONFIGS.items()),
    ])
    def test_bad_config(self, tmp_path, capsys, command, name, text, flags, names):
        ann = (_synth if command == "targets" else _synth_poses)(tmp_path, "c.json")
        config = tmp_path / name
        config.write_text(text)
        capsys.readouterr()
        out = tmp_path / "t.jsonl"
        code = main([command, "--annotations", str(ann), "--config", str(config),
                     *flags, "--out", str(out)])
        _assert_named_error(capsys, code, *names)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["targets", "coverage"])
    @pytest.mark.parametrize("text, name", [
        ('{"pyramid": {"levels": [[NaN, 32.0]]}}', "levels"),
        ('{"pyramid": {"pose_rotations": [Infinity]}}', "pose_rotations"),
        ('{"pyramid": {"pose_rotations": []}}', "pose_rotations"),
        ('{"pyramid": {"octave_scales": [Infinity]}}', "octave_scales"),
    ], ids=["stride-nan", "rotation-inf", "no-rotations", "octave-inf"])
    def test_non_finite_or_empty_pyramid_variant(self, tmp_path, capsys, command, text, name):
        # json reads NaN and Infinity; the pyramid names the field before any grid is made
        ann = (_synth if command == "targets" else _synth_poses)(tmp_path, "a.json")
        config = tmp_path / "config.json"
        config.write_text(text)
        capsys.readouterr()
        out = tmp_path / "out"
        code = main([command, "--annotations", str(ann), "--config", str(config),
                     "--out", str(out)])
        _assert_named_error(capsys, code, name)
        assert not out.exists()

    @pytest.mark.parametrize("doc, name", [
        ({}, "'modes'"),
        ({"k": "x"}, "'x'"),
        ({"modes": [[[float("nan"), 0.0]] * 17]}, "'modes' must be finite"),
        ({"k": True}, "'k' must be an integer, got True"),     # json's true would read as k = 1
        ({"k": 2.7}, "'k' must be an integer, got 2.7"),
        ({"seed": 1.5}, "'seed' must be an integer, got 1.5"),
        ({"seed": True}, "'seed' must be an integer, got True"),
        ({"inertia": "1"}, "'inertia' must be a finite number, got '1'"),
        ({"inertia": float("nan")}, "'inertia' must be a finite number, got nan"),
        ({"extra": 1}, "unknown config keys: ['extra']"),
        # a long value's text is cut at errors.MAX_VALUE_TEXT characters
        ({"modes": [[[0.25, 0.5]] * 16 + [[float("nan"), 0.5]]]},
         "'modes' must be finite numbers, got [[[0.25, 0.5], [0.25, 0.5], [0.25, 0.5],"
         " [0.25, 0.5], [0....\n"),
        ({"inertia": 10 ** 400}, f"'inertia' must be a finite number, got 1{'0' * 56}...\n"),
        # and so is a long list of unknown keys, still naming the first
        (dict.fromkeys(f"key{i:03d}" for i in range(200)), "unknown config keys: ['key000',"
         " 'key001', 'key002', 'key003', 'key004', 'key00...\n"),
    ], ids=["no-modes", "k-str", "nan-mode", "k-bool", "k-float", "seed-float", "seed-bool",
            "inertia-str", "inertia-nan", "unknown-key", "long-modes", "huge-inertia",
            "many-unknown-keys"])
    def test_bad_modes_file(self, tmp_path, capsys, doc, name):
        ann = _synth_poses(tmp_path, "poses.json")
        modes = tmp_path / "modes.json"
        # one valid mode, the mean of the corpus, with ``doc``'s keys put over it
        main(["modes", "--annotations", str(ann), "--k", "1", "--out", str(modes)])
        modes.write_text(json.dumps({**json.loads(modes.read_text()), **doc} if doc else {}))
        capsys.readouterr()
        out = tmp_path / "t.jsonl"
        code = main(["targets", "--annotations", str(ann), "--task", "pose",
                     "--modes", str(modes), "--out", str(out)])
        _assert_named_error(capsys, code, "modes.json", name)
        assert not out.exists()

    @pytest.mark.parametrize("content", [b"\xff", b"[" * 5000 + b"]" * 5000, b"9" * 4301],
                             ids=["byte-ff", "deep-array", "huge-int"])
    @pytest.mark.parametrize("option, name", [
        ("--annotations", "bad.json"), ("--config", "bad.json"), ("--config", "bad.yaml"),
        ("--modes", "bad.json")], ids=["annotations", "config-json", "config-yaml", "modes"])
    def test_undecodable_or_too_deep_document(self, tmp_path, content, option, name):
        # a byte that is not UTF-8, nesting deeper than the readers recurse, or
        # an integer of over 4,300 digits, which python will not convert
        poses = _synth_poses(tmp_path, "poses.json")
        assert main(["modes", "--annotations", str(poses), "--k", "1",
                     "--out", str(tmp_path / "modes.json")]) == 0
        (tmp_path / name).write_bytes(content)
        args = {"--annotations": "poses.json", "--task": "pose", "--modes": "modes.json",
                option: name}
        done = _fresh_python(tmp_path, "-m", "pointset_anchors.cli", "targets",
                             *(text for pair in args.items() for text in pair), "--out", "out")
        assert (done.returncode, done.stdout, done.stderr.count("\n")) == (1, "", 1), done.stderr
        assert done.stderr.startswith(f"error: {name}: not "), done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "out").exists()


class TestCoverage:
    def test_iou_coverage(self, tmp_path, capsys):
        ann = _synth(tmp_path, "c.json")
        capsys.readouterr()
        out = tmp_path / "coverage.json"
        code = main(["coverage", "--annotations", str(ann),
                     "--similarity", "iou", "--out", str(out)])
        assert code == 0
        table = capsys.readouterr().out
        assert table.splitlines()[0].startswith("config")
        assert "mask-anchors" in table
        doc = json.loads(out.read_text())
        assert doc["reports"][0]["gt_count"] == 6

    def test_pose_ladder_names(self, tmp_path, capsys):
        ann = _synth_poses(tmp_path, "poses.json", "--jitter", "2.0")
        out = tmp_path / "coverage.json"
        code = main(["coverage", "--annotations", str(ann), "--k", "2",
                     "--config", str(_config_file(tmp_path)),
                     "--threshold", "0.5", "--out", str(out)])
        assert code == 0
        names = [r["name"] for r in json.loads(out.read_text())["reports"]]
        assert names == ["center-point", "rectangle", "mean-pose", "kmeans-2"]

    def test_byte_identical_runs(self, tmp_path):
        ann = _synth_poses(tmp_path, "poses.json")
        config = _config_file(tmp_path)
        outs = []
        for name in ("c1.json", "c2.json"):
            out = tmp_path / name
            assert main(["coverage", "--annotations", str(ann), "--k", "1",
                         "--config", str(config), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_no_negatives_writes_null_ratios(self, tmp_path, capsys):
        # every anchor is claimed or ignored: pos/neg has no value, and the
        # file stays strict JSON (no Infinity token)
        ann = tmp_path / "poses.json"
        assert main(["synth", "--kind", "poses", "--count", "2", "--seed", "1",
                     "--out", str(ann)]) == 0
        doc = json.loads(ann.read_text())
        for annotation in doc["annotations"]:
            annotation["bbox"] = [0, 0, 10000, 10000]
        ann.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "coverage.json"
        assert main(["coverage", "--annotations", str(ann), "--k", "2",
                     "--threshold", "1e-300", "--out", str(out)]) == 0

        def non_finite(token):
            raise ValueError(f"non-finite token {token}")

        reports = json.loads(out.read_text(), parse_constant=non_finite)["reports"]
        assert len(reports) == 4
        for report in reports:
            assert report["negative_count"] == 0 < report["positive_count"]
            assert report["pos_neg_ratio"] is None
            assert report["pos_neg_per_mille"] is None
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split()[-2:] for row in rows] == [["inf", "inf"]] * 4

    def test_bad_threshold_exit_1(self, tmp_path, capsys):
        ann = _synth_poses(tmp_path, "poses.json")
        code = main(["coverage", "--annotations", str(ann),
                     "--threshold", "1.5", "--out", str(tmp_path / "c.json")])
        assert code == 1
        assert "threshold" in capsys.readouterr().err

    def test_fewer_distinct_poses_than_k_exit_1(self, tmp_path, capsys):
        ann = _duplicate_poses(tmp_path)
        capsys.readouterr()
        out = tmp_path / "coverage.json"
        code = main(["coverage", "--annotations", str(ann), "--k", "2", "--out", str(out)])
        _assert_named_error(capsys, code, "distinct fully visible poses, got 1")
        assert not out.exists()

    def test_negative_seed_exit_1(self, tmp_path, capsys):
        ann = _synth_poses(tmp_path, "poses.json", "--jitter", "1.5")
        capsys.readouterr()
        out = tmp_path / "coverage.json"
        code = main(["coverage", "--annotations", str(ann), "--seed", "-1", "--out", str(out)])
        _assert_named_error(capsys, code, "seed must be >= 0, got -1")
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_k_below_1_exit_1(self, tmp_path, capsys, k):
        ann = _synth_poses(tmp_path, "poses.json", "--jitter", "1.5")
        capsys.readouterr()
        out = tmp_path / "coverage.json"
        code = main(["coverage", "--annotations", str(ann), "--k", k, "--out", str(out)])
        _assert_named_error(capsys, code, f"k must be >= 1, got {k}")
        assert not out.exists()
        assert main(["coverage", "--annotations", str(ann), "--k", "1", "--out", str(out)]) == 0
        names = [r["name"] for r in json.loads(out.read_text())["reports"]]
        assert names == ["center-point", "rectangle", "mean-pose"]

    def test_does_not_import_numpy_ma(self, tmp_path):
        # numpy.ma is a lazy import of about 12 ms that coverage has no use for
        ann = _synth_poses(tmp_path, "poses.json")
        argv = ["coverage", "--annotations", str(ann), "--out", str(tmp_path / "c.json")]
        script = ("import sys; from pointset_anchors.cli import main; "
                  f"assert main({argv!r}) == 0; print('numpy.ma' in sys.modules)")
        done = _fresh_python(tmp_path, "-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"

    # sha256 of the coverage JSON of each case; the bytes must not move.
    PINNED_DIGESTS = {
        "oks-ladder":
            "7cc26278be06fe0bc959fc9bf0e973a79dc118b517d3df2cdab5fd58c2d27c1f",
        "iou":
            "4f8e93348f6cdb8dea1644ea22db6f976495b9650f2f25f98a5b755e227b85df",
    }

    @staticmethod
    def pinned_args(case, tmp_path) -> list[str]:
        """The coverage arguments, but ``--out``, of a PINNED_DIGESTS case."""
        poses = generate_synthetic_corpus(CORPUS_POSES, 10, seed=5, jitter=2.0,
                                          truncation=0.3)
        contours = generate_synthetic_corpus(CORPUS_CONTOURS, 6, seed=3,
                                             image_size=(192, 192))
        if case == "iou":
            # category 0: coverage uses no class ids, so the record still counts
            contours[0] = replace(contours[0], class_id=0)
            records, other, flags = contours, poses, ["--similarity", "iou"]
        else:
            records, other, flags = poses, contours, ["--k", "2"]
        # Image 99 holds records of the other kind: no gt of it is eligible.
        records = records + [replace(r, image_id=99) for r in other[:2]]
        ann = tmp_path / "corpus.json"
        save_corpus(records, ann)
        return ["coverage", "--annotations", str(ann), *flags]

    @pytest.mark.parametrize("case", sorted(PINNED_DIGESTS))
    def test_pinned_bytes(self, case, tmp_path):
        out = tmp_path / "coverage.json"
        assert main([*self.pinned_args(case, tmp_path), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PINNED_DIGESTS[case]


class TestProcessEntry:
    """The process entry, ``cli.run``, runs ``main``, then the atexit callbacks,
    flushes stdout and stderr and ends the process with main's status; ``main``
    itself never ends the process or touches gc."""

    ENTRY = ["-m", "pointset_anchors.cli"]
    SYNTH = ["synth", "--kind", "poses", "--out", "p.json"]

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
    def test_main_leaves_the_collector_as_it_was(self, tmp_path, enabled):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            frozen = gc.get_freeze_count()
            assert main(["targets", "--annotations", str(_synth(tmp_path, "c.json")),
                         "--config", str(_config_file(tmp_path)),
                         "--out", str(tmp_path / "t.jsonl")]) == 0
            assert main([*TestCoverage.pinned_args("oks-ladder", tmp_path),
                         "--out", str(tmp_path / "c.json")]) == 0
            assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
        finally:
            (gc.enable if was_enabled else gc.disable)()

    @pytest.mark.parametrize("count, status, out, err", [
        ("2", 0, "wrote 2 poses record(s) to p.json\n", ""),
        ("0", 1, "", "error: count must be >= 1, got 0\n")], ids=["ok", "error"])
    def test_run_exits_with_mains_status(self, tmp_path, count, status, out, err):
        done = _fresh_python(tmp_path, *self.ENTRY, *self.SYNTH, "--count", count)
        assert (done.returncode, done.stdout, done.stderr) == (status, out, err)

    def test_atexit_callbacks_run_before_the_final_flush(self, tmp_path):
        script = ("import atexit, sys\n"
                  "import pointset_anchors.cli as cli\n"
                  "atexit.register(print, 'atexit ran')\n"
                  "sys.argv = ['pointset-anchors', *sys.argv[1:]]\n"
                  "cli.run()\n"
                  "print('run returned')\n")
        done = _fresh_python(tmp_path, "-c", script, *self.SYNTH, "--count", "2")
        assert (done.returncode, done.stdout, done.stderr) == (
            0, "wrote 2 poses record(s) to p.json\natexit ran\n", "")

    @pytest.mark.parametrize("argv, status, stream", [
        (["--help"], 0, "stdout"), (["synth", "--kind", "bogus"], 2, "stderr")],
        ids=["help", "usage-error"])
    def test_argparse_exits_leave_run_as_before(self, tmp_path, argv, status, stream):
        done = _fresh_python(tmp_path, *self.ENTRY, *argv)
        assert done.returncode == status, done.stderr
        assert getattr(done, stream).startswith("usage: pointset-anchors")
        assert "Traceback" not in done.stderr

    def _into_closed_pipe(self, tmp_path, *flags):
        """(status, stderr) of synth with a stdout pipe whose read end is closed."""
        read, write = os.pipe()
        os.close(read)
        try:
            done = _fresh_python(tmp_path, *flags, *self.ENTRY, *self.SYNTH, "--count", "2",
                                 stdout=write)
        finally:
            os.close(write)
        return done.returncode, done.stderr

    def test_closed_stdout_pipe_is_one_error_line(self, tmp_path):
        # The summary line waits in stdout's buffer until run flushes it;
        # with the pipe's read end closed that flush fails.
        assert self._into_closed_pipe(tmp_path) == (120, "error: [Errno 32] Broken pipe\n")

    def test_closed_unbuffered_stdout_pipe_is_the_same_error_line(self, tmp_path):
        # -u, as PYTHONUNBUFFERED=1: main's own write of the summary line fails
        assert self._into_closed_pipe(tmp_path, "-u") == (120, "error: [Errno 32] Broken pipe\n")

    @pytest.mark.parametrize("case", ["targets", *sorted(TestCoverage.PINNED_DIGESTS)])
    def test_module_run_writes_what_main_writes(self, case, tmp_path, capsys):
        if case == "targets":
            args = ["targets", "--annotations", str(_synth(tmp_path, "c.json")),
                    "--config", str(_config_file(tmp_path))]
        else:
            args = TestCoverage.pinned_args(case, tmp_path)
        capsys.readouterr()
        assert main([*args, "--out", str(tmp_path / "main.out")]) == 0
        expected = capsys.readouterr()
        done = _fresh_python(tmp_path, "-m", "pointset_anchors.cli", *args,
                             "--out", str(tmp_path / "run.out"))
        assert done.returncode == 0, done.stderr
        # the oks ladder warns once about image 99's records and once about
        # the truncated poses k-means leaves out, both ways
        assert done.stderr == expected.err == ("" if case != "oks-ladder" else
                                               "warning: skipped 2 record(s) without usable"
                                               " keypoints\nwarning: k-means clusters the 6"
                                               " fully visible of 10 pose(s)\n")
        assert done.stdout == expected.out
        written = (tmp_path / "run.out").read_bytes()
        assert written == (tmp_path / "main.out").read_bytes()
        if case != "targets":
            assert hashlib.sha256(written).hexdigest() == TestCoverage.PINNED_DIGESTS[case]


def _huge_bbox(doc):
    doc["annotations"][0]["bbox"] = [10, 10, 1e200, 1e200]
    doc["annotations"][0]["segmentation"] = [[10, 10, 1e200, 10, 1e200, 1e200, 10, 1e200]]


def _huge_keypoint(doc):
    doc["annotations"][0]["keypoints"][1] = 1e200


def _huge_width(doc):
    doc["images"][0]["width"] = 10 ** 400      # json writes the integer's digits


class TestMagnitudeBound:
    """Numbers too large for the kernels are rejected by name before --out is opened.

    Unbounded, each overflows: a RuntimeWarning and a file of negatives, or a traceback.
    """

    @pytest.mark.parametrize("command, corpus, pyramid, edit, names", [
        (["targets"], _synth, {"octave_scales": [1e300]}, None, ["image 1:", "pyramid"]),
        (["targets"], _synth, {"levels": [[8.0, 1e160]]}, None, ["image 1:", "pyramid"]),
        (["coverage"], _synth_poses, {"pose_scales": [1e200]}, None, ["image 1:", "pyramid"]),
        # the templates overflow to inf while they are made, with no warning
        (["coverage"], _synth_poses, {"pose_scales": [1e308]}, None, ["image 1:", "pyramid"]),
        (["targets"], _synth, None, _huge_bbox, ["annotations[0]", "'bbox'", "finite numbers"]),
        (["coverage"], _synth_poses, None, _huge_keypoint,
         ["annotations[0]", "'keypoints'", "finite numbers"]),
        (["targets"], _synth, None, _huge_width, ["images[0]", "width"]),
        (["coverage", "--similarity", "iou"], _synth, None, _huge_width, ["images[0]", "width"]),
    ], ids=["octave", "level-base", "pose-scale", "pose-scale-inf", "bbox", "keypoint",
            "width-targets", "width-coverage"])
    def test_rejected_by_name(self, tmp_path, capsys, command, corpus, pyramid, edit, names):
        ann = corpus(tmp_path, "a.json")
        argv = [*command, "--annotations", str(ann)]
        if edit is not None:
            doc = json.loads(ann.read_text())
            edit(doc)
            ann.write_text(json.dumps(doc))
        if pyramid is not None:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"pyramid": pyramid}))
            argv += ["--config", str(config)]
        capsys.readouterr()
        out = tmp_path / "out"
        code = main([*argv, "--out", str(out)])
        _assert_named_error(capsys, code, *names, "2**500")
        assert not out.exists()


class TestUnscorable:
    """Anchors or gts that no kernel can score are rejected by name before --out is opened."""

    @pytest.mark.parametrize("command", [["targets", "--force-nearest"],
                                         ["coverage", "--similarity", "iou"]],
                             ids=["targets", "coverage"])
    def test_mask_boxes_of_no_extent(self, tmp_path, capsys, command):
        # The one location's centre is 2**54 px out, where doubles are 4 px
        # apart, so each box's corners at +-0.5 px round to the centre.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"pyramid": {
            "levels": [[2.0 ** 55, 1.0]], "octave_scales": [1.0], "aspect_ratios": [1.0],
            "num_points": 4}}))
        out = tmp_path / "out"
        argv = [*command, "--annotations", str(_synth(tmp_path, "c.json")),
                "--config", str(config), "--out", str(out)]
        capsys.readouterr()
        code = main(argv)
        assert (code, capsys.readouterr().err) == (
            1, "error: image 1: the pyramid's anchor boxes round to no positive extent\n")
        assert not out.exists()

    @staticmethod
    def _underflowing_pose(tmp_path, index):
        """A 6-image pose corpus whose gt ``index`` has a subnormal bbox area.

        The area, 2.27e-322, is positive, so the gt is eligible; 2 * area *
        kappa^2 underflows to 0 for every joint. Returns the corpus and the
        gt's image id.
        """
        ann = tmp_path / "poses.json"
        assert main(["synth", "--kind", "poses", "--count", "6", "--seed", "3",
                     "--out", str(ann)]) == 0
        doc = json.loads(ann.read_text())
        gt = doc["annotations"][index]
        gt["bbox"] = [0, 0, 1.5e-161, 1.5e-161]
        gt["keypoints"] = [7.5e-162, 7.5e-162, 2] * 17
        ann.write_text(json.dumps(doc))
        return ann, gt["image_id"]

    def test_pose_gt_whose_oks_width_underflows(self, tmp_path, capsys):
        modes = tmp_path / "modes.json"
        ann = _synth_poses(tmp_path, "modes-corpus.json")
        assert main(["modes", "--annotations", str(ann), "--k", "2", "--out", str(modes)]) == 0
        ann, image_id = self._underflowing_pose(tmp_path, 0)
        out = tmp_path / "out"
        capsys.readouterr()
        code = main(["targets", "--task", "pose", "--modes", str(modes),
                     "--annotations", str(ann), "--out", str(out)])
        err = capsys.readouterr().err
        assert (code, err.count("\n")) == (1, 1), err
        assert err.startswith(f"error: image {image_id}: gt 0 has scale 2.27e-322;"), err
        assert not out.exists()

    def test_coverage_names_the_image_of_a_pose_gt_whose_oks_width_underflows(self, tmp_path,
                                                                               capsys):
        ann, image_id = self._underflowing_pose(tmp_path, 3)
        out = tmp_path / "out"
        capsys.readouterr()
        code = main(["coverage", "--annotations", str(ann), "--k", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert (code, err.count("\n")) == (1, 1), err
        assert err.startswith(f"error: image {image_id}: gt 0 has scale 2.27e-322;"), err
        assert not out.exists()


class TestPoseFrame:
    """A pose gt whose visible joints lie far outside its bbox is rejected by name.

    Pose normalization divides the joints by the bbox's longer side, and OKS
    takes the bbox area as the gt's scale. With a 1e-155 bbox the k-means++
    seeding ended in a traceback; with 1e-140 coverage overflowed and wrote
    poisoned results. The tier-1 filter fails a test on any RuntimeWarning.
    """

    @pytest.mark.parametrize("side", [1e-155, 1e-150, 1e-140])
    @pytest.mark.parametrize("command", ["modes", "coverage", "targets"])
    def test_tiny_bbox_named(self, tmp_path, capsys, command, side):
        ann, modes = tmp_path / "poses.json", tmp_path / "modes.json"
        assert main(["synth", "--kind", "poses", "--count", "6", "--seed", "3",
                     "--out", str(ann)]) == 0
        assert main(["modes", "--annotations", str(ann), "--k", "3", "--out", str(modes)]) == 0
        doc = json.loads(ann.read_text())
        doc["annotations"][0]["bbox"] = [0, 0, side, side]
        ann.write_text(json.dumps(doc))
        argv = {"modes": ["modes", "--k", "3"], "coverage": ["coverage"],
                "targets": ["targets", "--task", "pose", "--modes", str(modes)]}[command]
        capsys.readouterr()
        out = tmp_path / "out"
        code = main([*argv, "--annotations", str(ann), "--out", str(out)])
        err = capsys.readouterr().err
        assert (code, err.count("\n")) == (1, 1), err
        assert err.startswith("error: annotations[0]: a visible keypoint lies ")
        assert f"over 4 x the bbox's longer side ({side:g} px)" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["coverage", "targets"])
    def test_tiny_bbox_framing_its_joints_scores_zero(self, tmp_path, capsys, command):
        # Every joint lies inside the 1e-155 bbox, so the parser accepts it. Its
        # OKS width is about 1e-313 px^2, and an anchor 100 px away overflows
        # delta^2 / width: the factor flushes to exactly 0, with no warning.
        ann, modes = tmp_path / "poses.json", tmp_path / "modes.json"
        assert main(["synth", "--kind", "poses", "--count", "6", "--seed", "3",
                     "--out", str(ann)]) == 0
        doc = json.loads(ann.read_text())
        first = doc["annotations"][0]
        first["bbox"] = [0, 0, 1e-155, 1e-155]
        first["keypoints"][0::3] = first["keypoints"][1::3] = [0] * 17
        ann.write_text(json.dumps(doc))
        assert main(["modes", "--annotations", str(ann), "--k", "2", "--out", str(modes)]) == 0
        argv = {"coverage": ["coverage", "--k", "2"],
                "targets": ["targets", "--task", "pose", "--modes", str(modes)]}[command]
        runs = []
        for name in ("first", "second"):
            out = tmp_path / name
            capsys.readouterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main([*argv, "--annotations", str(ann), "--out", str(out)])
            runs.append((code, out.read_bytes(), *capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][3] == "", runs[0][3]


def _doubled(document: dict) -> dict:
    """The corpus document with every image side and every bbox, polygon and
    keypoint coordinate doubled (and every area multiplied by 4)."""
    for image in document["images"]:
        image["width"], image["height"] = 2 * image["width"], 2 * image["height"]
    for annotation in document["annotations"]:
        annotation["bbox"] = [2 * v for v in annotation["bbox"]]
        annotation["area"] *= 4
        if "segmentation" in annotation:
            annotation["segmentation"] = [[2 * v for v in polygon]
                                          for polygon in annotation["segmentation"]]
        if "keypoints" in annotation:
            keypoints = annotation["keypoints"]
            keypoints[0::3] = [2 * v for v in keypoints[0::3]]
            keypoints[1::3] = [2 * v for v in keypoints[1::3]]
    return document


class TestScaleByTwo:
    """Doubling the whole problem, corpus and every level's stride and base,
    changes no targets line after the header: powers of two scale every
    product and quotient exactly, IoU is a ratio of areas, the OKS scale is
    the bbox area, and offsets are divided by their level's stride."""

    # 6 contours, 2 an image, at 240 x 176, and 4 poses at 256 x 320
    CORPORA = {CORPUS_CONTOURS: ["--count", "6", "--instances-per-image", "2",
                                 "--image-size", "240", "176"],
               CORPUS_POSES: ["--count", "4", "--image-size", "256", "320"]}
    CASES = {"mask": (CORPUS_CONTOURS, {}),
             "crowded": (CORPUS_CONTOURS, {"hi": 0.3, "lo": 0.2, "force_nearest": True}),
             "pose-kmeans2": (CORPUS_POSES, {})}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_targets_lines_are_unchanged(self, tmp_path, case):
        kind, settings = self.CASES[case]
        corpus = tmp_path / "corpus.json"
        assert main(["synth", "--kind", kind, *self.CORPORA[kind], "--seed", "7",
                     "--out", str(corpus)]) == 0
        lines = []
        for scale in (1, 2):
            document = json.loads(corpus.read_text())
            ann, config = tmp_path / f"corpus-{scale}.json", tmp_path / f"config-{scale}.json"
            ann.write_text(json.dumps(_doubled(document) if scale == 2 else document))
            config.write_text(json.dumps({**settings, "pyramid": {
                "levels": [[scale * stride, scale * base] for stride, base in DEFAULT_LEVELS]}}))
            args = ["--annotations", str(ann), "--config", str(config)]
            if kind == CORPUS_POSES:
                modes = tmp_path / f"modes-{scale}.json"
                assert main(["modes", *args[:2], "--k", "2", "--out", str(modes)]) == 0
                args += ["--task", "pose", "--modes", str(modes)]
            out = tmp_path / f"targets-{scale}.jsonl"
            assert main(["targets", *args, "--out", str(out)]) == 0
            lines.append(out.read_bytes().split(b"\n", 1))
        (header, body), (doubled_header, doubled_body) = lines
        assert header != doubled_header
        assert body == doubled_body
        assert body.count(b"\n") == {"pose-kmeans2": 122832}.get(case, 24003)
        assert b'"label": 1' in body


class TestSharedAssignment:
    """``targets`` and ``coverage`` label anchors through one assignment step:
    with coverage's thresholds (hi = t, lo = min(0.4, t), force_nearest on)
    targets reports the counts of coverage's matching configuration."""

    @staticmethod
    def _targets_counts(capsys, *argv):
        capsys.readouterr()
        assert main(["targets", *argv]) == 0
        summary = json.loads(capsys.readouterr().out)
        return [summary[key] for key in ("anchors", "positives", "negatives", "ignores")]

    @staticmethod
    def _report_counts(report):
        return [report[key] for key in
                ("anchor_count", "positive_count", "negative_count", "ignore_count")]

    @pytest.mark.parametrize("threshold", [0.6, 0.35])
    def test_mask_counts_agree(self, tmp_path, capsys, threshold):
        ann = tmp_path / "contours.json"
        assert main(["synth", "--kind", "contours", "--count", "12", "--seed", "3",
                     "--out", str(ann)]) == 0
        out = tmp_path / "coverage.json"
        assert main(["coverage", "--similarity", "iou", "--threshold", str(threshold),
                     "--annotations", str(ann), "--out", str(out)]) == 0
        (report,) = json.loads(out.read_text())["reports"]
        counts = self._targets_counts(
            capsys, "--hi", str(threshold), "--lo", str(min(0.4, threshold)), "--force-nearest",
            "--annotations", str(ann), "--out", str(tmp_path / "targets.jsonl"))
        assert counts == self._report_counts(report)
        if threshold == 0.6:
            assert counts == [147312, 118, 146194, 1000]

    def test_pose_counts_agree(self, tmp_path, capsys):
        ann, modes = tmp_path / "poses.json", tmp_path / "modes.json"
        assert main(["synth", "--kind", "poses", "--count", "8", "--seed", "3",
                     "--out", str(ann)]) == 0
        out = tmp_path / "coverage.json"
        assert main(["coverage", "--k", "2", "--annotations", str(ann), "--out", str(out)]) == 0
        report = {r["name"]: r for r in json.loads(out.read_text())["reports"]}["kmeans-2"]
        # the modes the ladder's kmeans-2 row is built from
        assert main(["modes", "--k", "2", "--annotations", str(ann), "--out", str(modes)]) == 0
        counts = self._targets_counts(
            capsys, "--task", "pose", "--modes", str(modes), "--hi", "0.5", "--lo", "0.4",
            "--force-nearest", "--annotations", str(ann), "--out", str(tmp_path / "t.jsonl"))
        assert counts == self._report_counts(report)
        assert counts[1] > 0 and counts[3] > 0


def _huge_image_corpus(tmp_path):
    """One image 10,000,000 x 64 px with one small square gt: about 120 million anchors."""
    ann = tmp_path / "huge.json"
    ann.write_text(json.dumps({
        "images": [{"id": 7, "width": 10_000_000, "height": 64}],
        "annotations": [{"id": 1, "image_id": 7, "category_id": 1, "bbox": [8, 8, 40, 40],
                         "segmentation": [[8, 8, 48, 8, 48, 48, 8, 48]]}],
    }))
    return ann


class TestAnchorBudget:
    """An image whose grid would exceed MAX_IMAGE_ANCHORS is rejected before anything is built."""

    @pytest.mark.parametrize("command", [["targets"], ["coverage", "--similarity", "iou"]],
                             ids=["targets", "coverage"])
    def test_huge_image_rejected_before_out_is_opened(self, tmp_path, command):
        # a 1 GiB address space: were the grid built, numpy could not allocate it
        # and the child would fail with a traceback, not take the machine's memory
        out = tmp_path / "out"
        argv = ["pointset-anchors", *command, "--annotations", str(_huge_image_corpus(tmp_path)),
                "--out", str(out)]
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                  "from pointset_anchors.cli import run\n"
                  f"sys.argv = {argv!r}\n"
                  "run()\n")
        done = _fresh_python(tmp_path, "-c", script)
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error: image 7:"), done.stderr
        assert "Traceback" not in done.stderr
        assert f"over the budget of {MAX_IMAGE_ANCHORS}" in done.stderr
        assert not out.exists()


class TestLoadedModules:
    """Each command loads only the package modules it runs; the package import loads none."""

    @staticmethod
    def _loaded(tmp_path, statement):
        script = (f"import sys\n{statement}\n"
                  "print(' '.join(sorted(m for m in sys.modules"
                  " if m.startswith('pointset_anchors'))))")
        done = _fresh_python(tmp_path, "-c", script)
        assert done.returncode == 0, done.stderr
        return set(done.stdout.splitlines()[-1].split())

    @staticmethod
    def _commands(tmp_path):
        """Mask targets, coverage and modes, each on a small synth corpus."""
        contours, poses = _synth(tmp_path, "c.json"), _synth_poses(tmp_path, "p.json")
        return (["targets", "--annotations", str(contours), "--out", "t.jsonl"],
                ["coverage", "--annotations", str(poses), "--k", "2", "--out", "c.out"],
                ["modes", "--annotations", str(poses), "--k", "2", "--out", "m.json"])

    def test_package_import_loads_no_submodule(self, tmp_path):
        assert self._loaded(tmp_path, "import pointset_anchors") == {"pointset_anchors"}

    def test_commands_load_neither_codec_nor_synthetic(self, tmp_path):
        for argv in self._commands(tmp_path):
            loaded = self._loaded(tmp_path, "from pointset_anchors.cli import main\n"
                                            f"assert main({argv!r}) == 0")
            assert "pointset_anchors.cli" in loaded
            assert not loaded & {"pointset_anchors.codec", "pointset_anchors.synthetic"}, argv
            # nor losses: the header's head dims live in anchors
            assert "pointset_anchors.losses" not in loaded, argv
            # the k-means stream is compiled only where modes are computed
            assert ("pointset_anchors.pcg64" in loaded) == (argv[0] != "targets"), argv
            # and mask targets never compile pose_modes
            assert ("pointset_anchors.pose_modes" in loaded) == (argv[0] != "targets"), argv
            # only targets matches anchors to shapes
            assert ("pointset_anchors.matching" in loaded) == (argv[0] == "targets"), argv

    def test_no_command_loads_dataclasses(self, tmp_path):
        # every record is a plain slots class: building a dataclass costs about 1 ms
        for argv in self._commands(tmp_path):
            script = ("import sys\nfrom pointset_anchors.cli import main\n"
                      f"assert main({argv!r}) == 0\n"
                      "print('dataclasses' in sys.modules)")
            done = _fresh_python(tmp_path, "-c", script)
            assert done.returncode == 0, done.stderr
            assert done.stdout.splitlines()[-1] == "False", argv

    def test_only_targets_imports_orjson(self, tmp_path):
        # orjson writes the targets' float text; its import (5-10 ms after numpy,
        # as it pulls in datetime, zoneinfo and uuid) is paid by no other command
        synth = ["synth", "--kind", "poses", "--count", "2", "--seed", "1", "--out", "s.json"]
        for argv in (*self._commands(tmp_path), synth):
            script = ("import sys\nfrom pointset_anchors.cli import main\n"
                      f"assert main({argv!r}) == 0\n"
                      "print('orjson' in sys.modules)")
            done = _fresh_python(tmp_path, "-c", script)
            assert done.returncode == 0, done.stderr
            assert done.stdout.splitlines()[-1] == str(argv[0] == "targets"), argv

    def test_coverage_and_modes_do_not_import_numpy_random(self, tmp_path):
        # k-means++ draws from the package's own PCG64 stream; numpy.random's
        # lazy import would also load secrets, hmac and OpenSSL's _hashlib
        poses = _synth_poses(tmp_path, "p.json")
        for argv in (["coverage", "--annotations", str(poses), "--k", "2", "--out", "c.out"],
                     ["modes", "--annotations", str(poses), "--k", "2", "--out", "m.json"]):
            script = ("import sys; from pointset_anchors.cli import main; "
                      f"assert main({argv!r}) == 0; "
                      "print(sorted({'numpy.random', 'secrets', '_hashlib'} & set(sys.modules)))")
            done = _fresh_python(tmp_path, "-c", script)
            assert done.returncode == 0, done.stderr
            assert done.stdout.splitlines()[-1] == "[]", argv

    def test_head_output_dims_is_one_object_homed_in_anchors(self, tmp_path):
        import pointset_anchors
        from pointset_anchors import anchors, losses

        assert pointset_anchors.head_output_dims is losses.head_output_dims
        assert losses.head_output_dims is anchors.head_output_dims
        assert pointset_anchors.TASK_SEGMENTATION is losses.TASK_SEGMENTATION
        loaded = self._loaded(tmp_path, "import pointset_anchors\n"
                                        "pointset_anchors.head_output_dims")
        assert "pointset_anchors.anchors" in loaded and "pointset_anchors.losses" not in loaded

    def test_strategies_are_one_object_homed_in_anchors(self, tmp_path):
        import pointset_anchors
        from pointset_anchors import anchors, matching

        for name in ("STRATEGIES", "NEAREST_POINT", "NEAREST_LINE", "CORNER_PROJECTION"):
            assert getattr(pointset_anchors, name) is getattr(matching, name), name
            assert getattr(matching, name) is getattr(anchors, name), name
        assert anchors.STRATEGIES == (anchors.NEAREST_POINT, anchors.NEAREST_LINE,
                                      anchors.CORNER_PROJECTION)
        loaded = self._loaded(tmp_path, "import pointset_anchors\n"
                                        "pointset_anchors.STRATEGIES")
        assert "pointset_anchors.anchors" in loaded and "pointset_anchors.matching" not in loaded

    def test_synth_loads_synthetic(self, tmp_path):
        argv = ["synth", "--kind", "poses", "--count", "2", "--out", "p.json"]
        loaded = self._loaded(tmp_path, f"from pointset_anchors.cli import main\n"
                                        f"assert main({argv!r}) == 0")
        assert "pointset_anchors.synthetic" in loaded

    def test_unknown_attribute_is_an_attribute_error(self):
        import pointset_anchors

        for name in ("no_such_name", "tracing", "__wrapped__"):
            assert not hasattr(pointset_anchors, name)
            with pytest.raises(AttributeError, match=name):
                getattr(pointset_anchors, name)


class TestParser:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_module_entry_point_exists(self):
        from pointset_anchors import cli

        assert callable(cli.main) and callable(cli.run)
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        assert 'pointset-anchors = "pointset_anchors.cli:run"' in pyproject.read_text()
