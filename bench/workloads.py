"""The benchmark's workloads: the command each runs, its corpus and its settings.

Standard library only: ``run.py`` imports this, and the process that spawns
and times the commands must stay small (see ``run.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Pyramid:
    """A tiling: (stride, base) per level and the per-location variants."""

    levels: tuple
    octaves: tuple
    aspects: tuple
    num_points: int = 36
    pose_scales: tuple = (0.8, 1.0, 1.2)
    pose_rotations: tuple = (-10.0, 0.0, 10.0)

    def header_dict(self) -> dict:
        """The pyramid as the targets header and a config document spell it."""
        return {
            "levels": [[float(s), float(b)] for s, b in self.levels],
            "octave_scales": [float(v) for v in self.octaves],
            "aspect_ratios": [float(v) for v in self.aspects],
            "pose_scales": [float(v) for v in self.pose_scales],
            "pose_rotations": [float(v) for v in self.pose_rotations],
            "num_points": self.num_points,
        }

    def shape(self, stride: float, size) -> tuple[int, int]:
        """(rows, cols) of a level's feature map for an image (width, height)."""
        return math.ceil(size[1] / stride), math.ceil(size[0] / stride)


OCTAVES = (1.0, 2.0 ** (1.0 / 3.0), 2.0 ** (2.0 / 3.0))
ASPECTS = (0.5, 1.0, 2.0)
# The package's default pyramid, which ``targets`` and ``coverage`` use
# without --config.
DEFAULT_PYRAMID = Pyramid(
    levels=((8.0, 32.0), (16.0, 64.0), (32.0, 128.0), (64.0, 256.0), (128.0, 512.0)),
    octaves=OCTAVES, aspects=ASPECTS, num_points=36)
CROWDED_PYRAMID = Pyramid(
    levels=((32.0, 96.0), (64.0, 192.0)), octaves=OCTAVES, aspects=ASPECTS, num_points=64)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                  # "targets" or "coverage"
    images: int                   # in the whole corpus
    per_image: int
    shards: int                   # an invocation runs on one shard of images / shards images
    vertex_range: tuple = (6, 28)
    pyramid: Pyramid = DEFAULT_PYRAMID
    hi: float = 0.6               # the command's defaults for the mask task
    lo: float = 0.4
    force_nearest: bool = False

    @property
    def config(self) -> dict | None:
        """The ``targets --config`` document; None runs the command's defaults."""
        if self.pyramid == DEFAULT_PYRAMID:
            return None
        return {"pyramid": self.pyramid.header_dict(), "hi": self.hi, "lo": self.lo,
                "force_nearest": self.force_nearest}


# The host's speed drifts by up to 1.7x over seconds to minutes, so a run
# takes its medians over many short invocations: each runs on one shard of
# the corpus, in turn, for about 1 s. The corpus as a whole is large enough
# that its work varies little between seeds. That matters most for the
# crowded workload, whose matching cost follows the positives and vertex
# counts; emission cost barely depends on the corpus.
WORKLOADS = {w.name: w for w in (
    Workload("mask-targets", "targets", images=16, per_image=1, shards=4),
    Workload("mask-targets-crowded", "targets", images=16, per_image=8, shards=8,
             vertex_range=(24, 60), pyramid=CROWDED_PYRAMID, hi=0.3, lo=0.2,
             force_nearest=True),
    Workload("pose-coverage", "coverage", images=40, per_image=1, shards=2),
)}

# End-to-end times read as on a host where ``setup_probe.calibrate()`` takes
# this long; on the 2-core machine of README.md's reference figures either
# mix took 0.08-0.16 s.
REFERENCE_CALIBRATION_S = 0.1

# The coverage command's OKS ladder with its default --k 3.
COVERAGE_NAMES = ("center-point", "rectangle", "mean-pose", "kmeans-3")

# Math libraries run single-threaded, so a command uses one core of two.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS")}
