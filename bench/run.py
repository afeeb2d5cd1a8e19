"""Benchmark of the ``targets`` and ``coverage`` commands.

    python3 bench/run.py --workload mask-targets --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository: the package is loaded from its
``src`` directory. The seed makes the corpus (before timing starts), cut
into the workload's shards; the command only ever sees a shard's file. A
run repeats rounds until ``--seconds`` have passed. A round visits every
shard once, with one set-up probe in a fresh interpreter and one invocation
of the workload's command; with ``--trace 1`` it runs one plain and one
traced invocation on every shard. An operation is one invocation and its
output check: the first output on each shard is checked in full by
``checks.py``, each later one by being byte-identical to it. An operation
fails when the command exits with an error, writes no output or writes a
wrong one; only operations that pass are timed. The last stdout line is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (medians over the invocations, scaled to a
reference host speed; see ``end_to_end``) under ``--trace 0`` and the
per-layer metrics of the traced invocations, as measured, under
``--trace 1``, together with the unscaled times and the scale factor.
``correct`` is false when any operation failed. When none passed, no
metrics are printed and the exit code is 1.

This process only spawns, times and compares; it imports nothing beyond the
standard library. The corpus, the checks and the span reduction run in child
processes. Linux reports as a child's peak RSS (``os.wait4``) at least the
peak RSS of the process that spawned it, so the spawner must stay smaller
than any command it measures.

Working files go to a temporary directory under ``bench/results/``, which
is removed when the run ends; the spans of the last traced round are kept
there as ``<workload>.shard<i>.spans.npz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import REFERENCE_CALIBRATION_S, THREAD_ENV, WORKLOADS, Workload  # noqa: E402

CHILD_TIMEOUT_S = 120.0


@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    code: int
    stdout: Path


def spawn(args: list[str], log: Path, env: dict) -> Invocation:
    """Run a child to completion: wall time, peak RSS (os.wait4), exit code, stdout file."""
    with open(log, "w") as out, open(log.with_suffix(".err"), "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.stderr.write(log.with_suffix(".err").read_text()[-2000:])
    return Invocation(wall, usage.ru_maxrss / 1024.0, proc.returncode, log)


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Run:
    """One benchmark run: its working directory, corpus shards and operation counts."""

    def __init__(self, workload: Workload, work: Path, seed: int):
        self.workload = workload
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
        self.attempted = 0
        self.failed = 0          # invocations that exited with an error or gave a wrong output
        self.anchors = 0         # anchors labelled per invocation, from a checked output
        self.verified = {}       # shard -> (output digest, stdout) of its fully checked output
        self.counter = 0
        made = self.python([str(HERE / "corpus.py"), workload.name, str(seed), str(work)],
                           "corpus")
        if made.code:
            raise RuntimeError("corpus generation failed")
        self.shards = [work / f"corpus{i}.json" for i in range(workload.shards)]
        self.config = None
        if workload.config is not None:
            self.config = work / "config.json"
            self.config.write_text(json.dumps(workload.config))

    def python(self, args: list[str], log: str) -> Invocation:
        return spawn([sys.executable] + args, self.work / f"{log}.log", self.env)

    def cli(self, *args: str, log: str) -> Invocation:
        return self.python(["-m", "pointset_anchors.cli", *args], log)

    def command_args(self, shard: int, out: Path) -> list[str]:
        args = [self.workload.command, "--annotations", str(self.shards[shard]), "--out", str(out)]
        if self.config is not None:
            args += ["--config", str(self.config)]
        return args

    def invoke(self, shard: int, spans: Path | None = None) -> Invocation | None:
        """One operation: a command invocation and its output check.

        Returns the invocation, or None (and counts a failure) when the
        command exits with an error or its output fails the check.
        """
        self.counter += 1
        out = self.work / f"out{self.counter}"
        log = f"cmd{self.counter}"
        if spans is None:
            result = self.cli(*self.command_args(shard, out), log=log)
        else:
            result = self.python([str(HERE / "tracing.py"), str(spans), "--",
                                  *self.command_args(shard, out)], log)
        self.attempted += 1
        try:
            if result.code != 0:
                problem = f"exited with {result.code}"
            else:
                problem = self.check(shard, out, result.stdout.read_text())
        finally:
            out.unlink(missing_ok=True)
        if problem:
            self.failed += 1
            print(f"operation {self.counter} failed: {problem}", file=sys.stderr)
            return None
        return result

    def check(self, shard: int, out: Path, stdout: str) -> str | None:
        """Full check of a shard's first output, byte identity with it for the rest.

        Returns None when the output is right, else what is wrong with it.
        """
        if not out.is_file():
            return "no output file"
        seen = (digest(out), stdout)
        if shard in self.verified:
            if seen != self.verified[shard]:
                return "output differs from the checked output"
            return None
        corpus = str(self.shards[shard])
        modes = []
        if self.workload.command == "coverage":
            for k in (1, 3):
                modes.append(str(self.work / f"modes{shard}-{k}.json"))
                made = self.cli("modes", "--annotations", corpus, "--k", str(k),
                                "--seed", "0", "--out", modes[-1], log=f"modes{k}")
                if made.code:
                    return f"modes --k {k} exited with {made.code}"
        stdout_file = self.work / "stdout.txt"
        stdout_file.write_text(stdout)
        result = self.python([str(HERE / "checks.py"), self.workload.name, corpus, str(out),
                              str(stdout_file), *modes], "check")
        if result.code:
            return f"the output check exited with {result.code}"
        self.anchors = json.loads(result.stdout.read_text())["anchors"]
        self.verified[shard] = seen
        return None

    def probe(self, shard: int) -> tuple[float, float]:
        """(set-up seconds, calibration seconds) from a fresh interpreter."""
        args = self.command_args(shard, self.work / "unused")
        result = self.python([str(HERE / "setup_probe.py"), *args], "probe")
        if result.code:
            raise RuntimeError("set-up probe failed")
        probe = json.loads(result.stdout.read_text())
        return probe["setup_s"], probe["calibration_s"]


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(quantiles(values, n=4, method="inclusive"))


def end_to_end(run: Run, samples: list[tuple[float, float, float, float]]) -> tuple[dict, dict]:
    """End-to-end metrics from (set-up, calibration, wall, peak RSS) samples.

    The host's speed drifts by up to 1.7x, in stretches of seconds to tens of
    minutes. So each set-up and wall time is divided by the calibration that
    the same round timed just before the invocation: a fixed workload that
    uses no package code, so only the host's speed moves it. A time is the
    median of these ratios over the run times REFERENCE_CALIBRATION_S, so it
    reads as on a host where that workload takes REFERENCE_CALIBRATION_S.
    Peak RSS is the median, not scaled.

    Returns the metrics and, apart, the medians of the set-up and wall times
    as measured with the factor that the scaling applied to the wall time.
    """
    setups, calibrations, walls, rss = zip(*samples)
    setup = REFERENCE_CALIBRATION_S * median(s / c for s, c in zip(setups, calibrations))
    wall = REFERENCE_CALIBRATION_S * median(w / c for w, c in zip(walls, calibrations))
    busy = wall - setup
    workload = run.workload
    images = workload.images // workload.shards
    print(f"{workload.name}: {len(walls)} checked invocations over {workload.shards} shards, "
          f"{images} images and {run.anchors} anchors per invocation; quartiles as measured: "
          f"wall {fmt(walls)} s, set-up {fmt(setups)} s, calibration {fmt(calibrations)} s")
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (wall, "s"),
        "images_per_s": (images / busy if busy > 0 else 0.0, "images/s"),
        "anchors_per_s": (run.anchors / busy if busy > 0 else 0.0, "anchors/s"),
        "peak_rss_mb": (median(rss), "MB"),
    }
    host = {
        "host.raw_setup_s": (median(setups), "s"),
        "host.raw_wall_s": (median(walls), "s"),
        "host.scale": (wall / median(walls), "ratio"),
    }
    return metrics, host


def fmt(values) -> str:
    return " ".join(f"{q:.4f}" for q in quartiles(values))


def measure(run: Run, seconds: float) -> dict:
    """End-to-end metrics of one set-up probe and one invocation a shard a round.

    Only invocations that exit with 0 and pass their check are timed. Returns
    no metrics when none did.
    """
    run.probe(0)                                 # warm the file cache, unmeasured
    samples = []
    start = time.perf_counter()
    while True:
        for shard in range(len(run.shards)):
            setup, calibration = run.probe(shard)
            result = run.invoke(shard)
            if result is not None:
                samples.append((setup, calibration, result.wall_s, result.rss_mb))
        if time.perf_counter() - start >= seconds:
            break
    if not samples:
        return {}
    return end_to_end(run, samples)[0]


def measure_traced(run: Run, seconds: float, results: Path) -> dict:
    """Per-layer totals over one traced invocation of every shard, medians over rounds.

    A round also runs a set-up probe and a plain invocation on every shard,
    which give ``trace.overhead_s`` and the ``host.*`` figures behind the
    scaled end-to-end times. A round with a failed traced invocation adds no
    per-layer values. Returns no metrics when no round was complete.
    """
    run.probe(0)                                 # warm the file cache, unmeasured
    samples, traced, layers = [], [], []
    name = run.workload.name
    turn = 0
    start = time.perf_counter()
    while True:
        spans = []
        for shard in range(len(run.shards)):
            setup, calibration = run.probe(shard)
            turn += 1
            for with_trace in (False, True) if turn % 2 else (True, False):
                path = run.work / f"spans{shard}.npz" if with_trace else None
                result = run.invoke(shard, path)
                if result is None:
                    continue
                if with_trace:
                    spans.append(path)
                    traced.append(result.wall_s)
                else:
                    samples.append((setup, calibration, result.wall_s, result.rss_mb))
        if len(spans) == len(run.shards):
            reduced = run.python([str(HERE / "tracing.py"), "--reduce", *map(str, spans)],
                                 "reduce")
            if reduced.code:
                raise RuntimeError("span reduction failed")
            layers.append(json.loads(reduced.stdout.read_text()))
            for shard, path in enumerate(spans):
                shutil.move(path, results / f"{name}.shard{shard}.spans.npz")
        if time.perf_counter() - start >= seconds:
            break
    if not layers or not samples:
        return {}
    print(f"{name}: {len(layers)} traced rounds of {len(run.shards)} shards, {len(samples)} plain "
          f"invocations; per-layer values are medians over the rounds of each round's totals; "
          f"spans of the last round in {results}")
    metrics = {key: (median(layer[key][0] for layer in layers), unit)
               for key, (_, unit) in layers[0].items()}
    plain = median(wall for _, _, wall, _ in samples)
    metrics["trace.overhead_s"] = (median(traced) - plain, "s")
    metrics.update(end_to_end(run, samples)[1])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an interrupt, so the running child is killed and
    # reaped and the working directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "pointset_anchors" / "cli.py").is_file():
        print(f"error: no pointset_anchors package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=results))
    workload = WORKLOADS[args.workload]
    try:
        run = Run(workload, work, args.seed)
        if args.trace:
            metrics = measure_traced(run, args.seconds, results)
        else:
            metrics = measure(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            raise SystemExit(f"error: metric {name} is {value}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    if not metrics:
        print("error: no operation succeeded, so nothing was measured", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
