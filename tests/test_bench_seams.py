"""The package names the benchmark drives still resolve, and stay on the call path.

``bench/setup_probe.py`` times set-up through the CLI's own helpers, and
``bench/tracing.py::install`` wraps package functions by name. Both run here
in a fresh interpreter, against the package in src/, on tiny corpora.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pointset_anchors.cli import main

ROOT = Path(__file__).resolve().parents[1]
PROBE_KEYS = {"import_s", "parse_s", "modes_s", "grid_s", "setup_s", "calibration_s"}
# seams the tracer still names but the package had already dropped: the
# object-form assigner and the one-anchor matchers
GONE_BEFORE = {
    "pointset_anchors.pipeline.assign_from_similarity",
    "pointset_anchors.matching.match",
    "pointset_anchors.matching.match_pose",
}


def _python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          cwd=cwd, env=env)


@pytest.mark.parametrize("command, kind", [("targets", "contours"), ("coverage", "poses")])
def test_setup_probe_runs(tmp_path, command, kind):
    corpus = tmp_path / "corpus.json"
    assert main(["synth", "--kind", kind, "--count", "8", "--seed", "1",
                 "--out", str(corpus)]) == 0
    proc = _python([str(ROOT / "bench" / "setup_probe.py"), command,
                    "--annotations", str(corpus), "--out", str(tmp_path / "unused")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    timings = json.loads(proc.stdout.splitlines()[-1])
    assert PROBE_KEYS <= set(timings)
    assert not (tmp_path / "unused").exists()


def test_tracer_seams_resolve(tmp_path):
    script = ("import json, sys; sys.path.insert(0, sys.argv[1]); import tracing; "
              "t = tracing.Tracer(); tracing.install(t); print(json.dumps(t.missing))")
    proc = _python(["-c", script, str(ROOT / "bench")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    missing = set(json.loads(proc.stdout.splitlines()[-1]))
    assert missing <= GONE_BEFORE, missing - GONE_BEFORE


@pytest.mark.parametrize("argv, span, calls", [
    (["coverage", "--k", "3"], "pose_modes.kmeans", 2),   # the mean pose and k-means 3
    (["targets"], "pipeline.emit", 1),
], ids=["coverage", "mask-targets"])
def test_traced_run_records_the_seams_it_calls(tmp_path, argv, span, calls):
    # a seam that resolves but sits off the command's call path records nothing
    kind = "poses" if argv[0] == "coverage" else "contours"
    corpus, spans = tmp_path / "corpus.json", tmp_path / "spans.npz"
    assert main(["synth", "--kind", kind, "--count", "8", "--seed", "1",
                 "--out", str(corpus)]) == 0
    proc = _python([str(ROOT / "bench" / "tracing.py"), str(spans), "--", *argv,
                    "--annotations", str(corpus), "--out", str(tmp_path / "out")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    with np.load(spans) as data:
        names = data["names"][data["kind"]].tolist()
        assert set(data["missing"].tolist()) <= GONE_BEFORE
    assert names.count(span) == calls, names
