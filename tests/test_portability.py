"""The outputs that do not depend on the CPU stay so.

OpenBLAS picks its kernel by CPU at run time (``OPENBLAS_CORETYPE`` forces
one) and numpy dispatches its SIMD loops by CPU (``NPY_DISABLE_CPU_FEATURES``
turns targets off). Each child process below runs the same commands under one
such setting; every child must write the same bytes. Pose ``targets`` is left
out: its 17-digit sims hold the last bits of the BLAS sum and of ``np.exp``,
which differ between these settings.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pointset_anchors.cli import main
from util import SMALL_CONFIG

# numpy >= 2 names its dispatch targets here
umath = pytest.importorskip("numpy._core._multiarray_umath")

# the crowded benchmark workload's settings: two coarse levels, 64-point anchors
CROWDED_CONFIG = {"pyramid": {"levels": [[32.0, 96.0], [64.0, 192.0]],
                              "octave_scales": [1.0, 2.0 ** (1 / 3), 2.0 ** (2 / 3)],
                              "aspect_ratios": [0.5, 1.0, 2.0], "num_points": 64},
                  "hi": 0.3, "lo": 0.2, "force_nearest": True}
# the AVX-512 dispatch targets this CPU has: empty on one without, which then
# runs the BLAS axis alone
AVX512_TARGETS = " ".join(target for target in umath.__cpu_dispatch__
                          if (target.startswith("AVX512") or target == "X86_V4")
                          and umath.__cpu_features__.get(target))
SETTINGS = [(coretype, disabled) for coretype in (None, "Prescott", "SandyBridge")
            for disabled in dict.fromkeys(("", AVX512_TARGETS))]

# runs each command of argv[1] through cli.main and prints the sha256 of each
# command's output file and stdout, and the dispatch targets numpy has on
CHILD = """
import contextlib, hashlib, io, json, sys
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from pointset_anchors.cli import main
digests = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as text:
        assert main(argv) == 0, argv
    with open(argv[-1], "rb") as out:
        digests.append(hashlib.sha256(out.read() + text.getvalue().encode()).hexdigest())
print(json.dumps([digests, [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]]))
"""


def _commands(tmp_path):
    """Each command's argv, writing to one path of ``tmp_path`` (modes prints its own)."""
    contours, crowded, poses = (tmp_path / name for name in ("c.json", "crowded.json",
                                                             "p.json"))
    for kind, path, extra in (("contours", contours, []),
                              ("contours", crowded, ["--instances-per-image", "8"]),
                              ("poses", poses, [])):
        assert main(["synth", "--kind", kind, "--count", "8", "--seed", "3",
                     "--out", str(path), *extra]) == 0
    small, crowded_config = tmp_path / "small.json", tmp_path / "crowded-config.json"
    small.write_text(json.dumps(SMALL_CONFIG))
    crowded_config.write_text(json.dumps(CROWDED_CONFIG))
    commands = [["targets", "--annotations", str(contours), "--config", str(small),
                 "--strategy", strategy] for strategy in
                ("corner-projection", "nearest-point", "nearest-line")]
    commands += [["targets", "--annotations", str(crowded), "--config", str(crowded_config)],
                 ["coverage", "--annotations", str(poses), "--config", str(small)],
                 ["coverage", "--annotations", str(contours), "--similarity", "iou"],
                 ["modes", "--annotations", str(poses), "--k", "3"]]
    return [[*command, "--out", str(tmp_path / f"out-{i}")] for i, command in enumerate(commands)]


def test_outputs_are_the_same_under_every_blas_kernel_and_simd_dispatch(tmp_path):
    argv = json.dumps(_commands(tmp_path))
    src = str(Path(__file__).resolve().parents[1] / "src")
    results = []
    for coretype, disabled in SETTINGS:
        env = {key: value for key, value in os.environ.items()
               if key not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        env.update({"OPENBLAS_CORETYPE": coretype} if coretype else {})
        env.update({"NPY_DISABLE_CPU_FEATURES": disabled} if disabled else {})
        done = subprocess.run([sys.executable, "-c", CHILD, argv],
                              capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        digests, dispatched = json.loads(done.stdout)
        assert dispatched == [target for target in umath.__cpu_dispatch__ if
                              umath.__cpu_features__.get(target)
                              and target not in disabled.split()]
        results.append(digests)
    assert all(digests == results[0] for digests in results), results
