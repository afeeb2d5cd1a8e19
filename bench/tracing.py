"""Span tracing for the benchmark's traced run, recorded from outside the package.

Run as a script, it wraps by name the functions the CLI calls across module
boundaries, runs the CLI, and writes the spans it kept in memory to an
``.npz`` file when the command ends:

    python bench/tracing.py SPANS.npz -- targets --annotations corpus.json --out t.jsonl
    python bench/tracing.py --reduce SPANS.npz...   # per-layer metrics as JSON

Each span has a name, start, end, the span it ran inside (its parent) and a
request id: the image id of the image being processed, or -1 before the
first image. Counters are taken at the same seams. ``layer_metrics`` turns
spans files into per-layer self times, counts and rates (summed over the
files), where self time is a span's duration minus the time its child spans
cover.

The seams (module attribute -> span name):

    cli.parse_annotations            datasets.parse
    cli.kmeans_poses                 pose_modes.kmeans
    cli.emit_targets                 pipeline.emit
    cli.coverage_report              pipeline.coverage
    pipeline.generate_grid           anchors.grid
    pipeline._image_similarity       similarity
    pipeline.assign_from_similarity  assignment.objects
    pipeline.assign_arrays           assignment.arrays
    matching.match                   matching.match
    matching.match_pose              matching.match_pose
    pipeline.json.dumps              pipeline.serialize   (emit_targets' json.dumps)
    pipeline.Path(...).open().write  pipeline.write       (emit_targets' file writes)

A seam the package no longer has is reported on stderr and counted in
``trace.seams_missing``; its layer then reads zero.
"""

from __future__ import annotations

import json
import sys
import time
import types
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    """Spans in parallel typed arrays, so a million of them stay small."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("H")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.request_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []

    def wrap(self, name: str, fn, request=None, count=None):
        """``fn`` recording one span per call.

        ``request(args)`` may return a new request id before the call;
        ``count(counts, args, result)`` updates counters after it.
        """
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        kind, parent, req, start, end = self.kind, self.parent, self.request, self.start, self.end
        stack, counts, clock = self.stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            if request is not None:
                rid = request(args)
                if rid is not None:
                    self.request_id = rid
            i = len(start)
            kind.append(nid)
            parent.append(stack[-1] if stack else -1)
            req.append(self.request_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, **hooks) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            print(f"trace: seam {module.__name__}.{attr} not found", file=sys.stderr)
            return
        setattr(module, attr, self.wrap(name, fn, **hooks))

    def save(self, path) -> None:
        keys = sorted(self.counts)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            kind=np.frombuffer(self.kind, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            request=np.frombuffer(self.request, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            count_names=np.array(keys, dtype=str),
            count_values=np.array([self.counts[k] for k in keys], dtype=np.int64),
            missing=np.array(self.missing, dtype=str),
        )


def _add(key: str, amount):
    def count(counts, args, result):
        counts[key] += amount(args, result)
    return count


def _count_match(counts, args, result):
    counts["matching.calls"] += 1
    counts["matching.points"] += len(result.valid)
    counts["matching.valid_points"] += int(np.count_nonzero(result.valid))


def install(tracer: Tracer) -> None:
    """Wrap every seam listed in the module docstring."""
    import pathlib

    from pointset_anchors import cli, matching, pipeline

    tracer.patch(cli, "parse_annotations", "datasets.parse")
    tracer.patch(cli, "kmeans_poses", "pose_modes.kmeans",
                 count=_add("pose_modes.kmeans_iters", lambda a, r: len(r.inertia_history)))
    tracer.patch(cli, "emit_targets", "pipeline.emit")
    tracer.patch(cli, "coverage_report", "pipeline.coverage")
    tracer.patch(pipeline, "generate_grid", "anchors.grid",
                 count=_add("anchors.grid_calls", lambda a, r: 1))
    tracer.patch(pipeline, "_image_similarity", "similarity",
                 request=lambda a: a[1][0].image_id if a[1] else None,
                 count=_add("similarity.pairs", lambda a, r: r.size))
    anchors = _add("assignment.anchors", lambda a, r: len(a[0]))
    tracer.patch(pipeline, "assign_from_similarity", "assignment.objects", count=anchors)
    tracer.patch(pipeline, "assign_arrays", "assignment.arrays", count=anchors)
    tracer.patch(matching, "match", "matching.match", count=_count_match)
    tracer.patch(matching, "match_pose", "matching.match_pose", count=_count_match)

    real_json = getattr(pipeline, "json", None)
    if real_json is None or not hasattr(real_json, "dumps"):
        tracer.missing.append("pipeline.json")
        print("trace: seam pipeline.json not found", file=sys.stderr)
    else:
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(real_json))
        proxy.dumps = tracer.wrap(
            "pipeline.serialize", real_json.dumps,
            request=lambda a: a[0].get("image") if isinstance(a[0], dict) else None,
            count=_add("pipeline.serialized_bytes", lambda a, r: len(r)))
        pipeline.json = proxy

    if getattr(pipeline, "Path", None) is None:
        tracer.missing.append("pipeline.Path")
        print("trace: seam pipeline.Path not found", file=sys.stderr)
        return
    write_count = _add("pipeline.written_bytes", lambda a, r: len(a[0]))

    class _TracedFile:
        def __init__(self, raw):
            self._raw = raw
            self.write = tracer.wrap("pipeline.write", raw.write, count=write_count)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self._raw.__exit__(*exc)

        def __getattr__(self, attr):
            return getattr(self._raw, attr)

    class _TracedPath(type(pathlib.Path())):
        def open(self, *args, **kwargs):
            return _TracedFile(super().open(*args, **kwargs))

    pipeline.Path = _TracedPath


def layer_metrics(paths) -> dict[str, tuple[float, str]]:
    """Per-layer self times (s), counts and rates, as (value, unit), summed over spans files.

    A rate whose time is zero (the layer did not run) reads 0.
    """
    self_s: dict[str, float] = defaultdict(float)
    c: dict[str, int] = defaultdict(int)
    spans = missing = 0
    for path in paths:
        with np.load(path) as data:
            names = [str(n) for n in data["names"]]
            kind, parent = data["kind"], data["parent"]
            dur = data["end"] - data["start"]
            for key, value in zip(data["count_names"], data["count_values"].tolist()):
                c[str(key)] += value
            missing = max(missing, len(data["missing"]))
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        own = np.bincount(kind, weights=dur - child, minlength=len(names))
        for i, name in enumerate(names):
            self_s[name] += float(own[i])
        spans += len(dur)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    sim, assign = self_s["similarity"], self_s["assignment.objects"] + self_s["assignment.arrays"]
    match = self_s["matching.match"] + self_s["matching.match_pose"]
    serialize = self_s["pipeline.serialize"]
    return {
        "datasets.parse_s": (self_s["datasets.parse"], "s"),
        "pose_modes.kmeans_s": (self_s["pose_modes.kmeans"], "s"),
        "pose_modes.kmeans_iters": (c["pose_modes.kmeans_iters"], "count"),
        "anchors.grid_s": (self_s["anchors.grid"], "s"),
        "anchors.grid_calls": (c["anchors.grid_calls"], "count"),
        "similarity.self_s": (sim, "s"),
        "similarity.pairs": (c["similarity.pairs"], "count"),
        "similarity.pairs_per_s": (rate(c["similarity.pairs"], sim), "pairs/s"),
        "assignment.self_s": (assign, "s"),
        "assignment.anchors": (c["assignment.anchors"], "count"),
        "assignment.anchors_per_s": (rate(c["assignment.anchors"], assign), "anchors/s"),
        "matching.self_s": (match, "s"),
        "matching.calls": (c["matching.calls"], "count"),
        "matching.calls_per_s": (rate(c["matching.calls"], match), "calls/s"),
        "matching.points": (c["matching.points"], "count"),
        "matching.valid_point_fraction": (
            rate(c["matching.valid_points"], c["matching.points"]), "ratio"),
        "pipeline.serialize_s": (serialize, "s"),
        "pipeline.serialize_mb_per_s": (
            rate(c["pipeline.serialized_bytes"] / 1e6, serialize), "MB/s"),
        "pipeline.write_s": (self_s["pipeline.write"], "s"),
        "pipeline.written_bytes": (c["pipeline.written_bytes"], "bytes"),
        "pipeline.emit_self_s": (self_s["pipeline.emit"], "s"),
        "pipeline.coverage_self_s": (self_s["pipeline.coverage"], "s"),
        "trace.spans": (spans, "count"),
        "trace.seams_missing": (missing, "count"),
    }


def main(argv: list[str]) -> int:
    if len(argv) >= 2 and argv[0] == "--reduce":
        print(json.dumps(layer_metrics(argv[1:])))
        return 0
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS.npz -- <cli arguments> | tracing.py --reduce SPANS.npz...",
              file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    from pointset_anchors import cli

    try:
        return cli.main(argv[2:])
    finally:
        tracer.save(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
