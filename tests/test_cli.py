import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pointset_anchors.cli import main
from pointset_anchors.pose_modes import load_pose_modes
from pointset_anchors.synthetic import (
    CORPUS_CONTOURS,
    CORPUS_POSES,
    generate_synthetic_corpus,
    save_corpus,
)

SMALL_CONFIG = {
    "pyramid": {
        "levels": [[16.0, 64.0], [32.0, 128.0]],
        "octave_scales": [1.0],
        "aspect_ratios": [1.0],
        "pose_scales": [1.0],
        "pose_rotations": [0.0],
        "num_points": 16,
    }
}


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
    doc["annotations"] = [first] * 3
    ann.write_text(json.dumps(doc))
    return ann


def _config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


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
        assert header["lo"] == 0.4    # preset fills what flags leave unset

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
        records[4] = dataclasses.replace(records[4], class_id=0)
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
        records[2] = dataclasses.replace(records[2], class_id=7)
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

    @pytest.mark.parametrize("name, text, names", [
        ("config.json", '{"pyramid": ', ["config.json", "not a valid document"]),
        ("config.yaml", "pyramid: [1, 2", ["config.yaml", "not a valid document"]),
        ("config.json", '{"pyramid": {"levels": [[8]]}}', ["'levels'"]),
        ("config.json", '{"pyramid": {"num_points": "36"}}', ["'num_points'"]),
        ("config.json", '{"hi": "0.5"}', ["'hi'"]),
    ], ids=["invalid-json", "invalid-yaml", "level-pair", "num-points-str", "hi-str"])
    def test_bad_config(self, tmp_path, capsys, name, text, names):
        ann = _synth(tmp_path, "c.json")
        config = tmp_path / name
        config.write_text(text)
        capsys.readouterr()
        code = main(["targets", "--annotations", str(ann), "--config", str(config),
                     "--out", str(tmp_path / "t.jsonl")])
        _assert_named_error(capsys, code, *names)

    @pytest.mark.parametrize("doc, name", [
        ({}, "'modes'"),
        ({"k": "x", "seed": 0, "inertia": 0.0, "modes": [[[0.0, 0.0]] * 17]}, "'x'"),
    ], ids=["no-modes", "k-str"])
    def test_bad_modes_file(self, tmp_path, capsys, doc, name):
        ann = _synth_poses(tmp_path, "poses.json")
        modes = tmp_path / "modes.json"
        modes.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["targets", "--annotations", str(ann), "--task", "pose",
                     "--modes", str(modes), "--out", str(tmp_path / "t.jsonl")])
        _assert_named_error(capsys, code, "modes.json", name)


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

    def test_does_not_import_numpy_ma(self, tmp_path):
        # numpy.ma is a lazy import of about 12 ms that coverage has no use for
        ann = _synth_poses(tmp_path, "poses.json")
        argv = ["coverage", "--annotations", str(ann), "--out", str(tmp_path / "c.json")]
        script = ("import sys; from pointset_anchors.cli import main; "
                  f"assert main({argv!r}) == 0; print('numpy.ma' in sys.modules)")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              cwd=tmp_path, env=env)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "False"

    # sha256 of the coverage JSON of each case; the bytes must not move.
    PINNED_DIGESTS = {
        "oks-ladder":
            "7cc26278be06fe0bc959fc9bf0e973a79dc118b517d3df2cdab5fd58c2d27c1f",
        "iou":
            "4f8e93348f6cdb8dea1644ea22db6f976495b9650f2f25f98a5b755e227b85df",
    }

    @pytest.mark.parametrize("case", sorted(PINNED_DIGESTS))
    def test_pinned_bytes(self, case, tmp_path):
        poses = generate_synthetic_corpus(CORPUS_POSES, 10, seed=5, jitter=2.0,
                                          truncation=0.3)
        contours = generate_synthetic_corpus(CORPUS_CONTOURS, 6, seed=3,
                                             image_size=(192, 192))
        if case == "iou":
            # category 0: coverage uses no class ids, so the record still counts
            contours[0] = dataclasses.replace(contours[0], class_id=0)
            records, other, flags = contours, poses, ["--similarity", "iou"]
        else:
            records, other, flags = poses, contours, ["--k", "2"]
        # Image 99 holds records of the other kind: no gt of it is eligible.
        records = records + [dataclasses.replace(r, image_id=99) for r in other[:2]]
        ann = tmp_path / "corpus.json"
        save_corpus(records, ann)
        out = tmp_path / "coverage.json"
        assert main(["coverage", "--annotations", str(ann), *flags, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PINNED_DIGESTS[case]


class TestParser:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_module_entry_point_exists(self):
        from pointset_anchors import cli

        assert callable(cli.main)
