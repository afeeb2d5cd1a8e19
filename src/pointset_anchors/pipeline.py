"""Dataset-level target emission and anchor coverage reports.

``emit_targets`` writes one line-delimited JSON record per anchor (after a
versioned header line), sorted by (image, level, row, col, slot), with shape
offsets normalized by the emitting level's stride. ``coverage_report``
measures how well a set of anchor configurations covers the ground truths of
a corpus: the fraction of gts whose best anchor similarity reaches a
threshold, plus positive/negative counts under the assigner with
force_nearest on.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import matching
from .anchors import (
    MASK_MODE,
    NUM_JOINTS,
    POSE_MODE,
    AnchorGrid,
    PyramidConfig,
    generate_grid,
    load_config_document,
    sample_box_perimeters,
)
from .assignment import (
    DEFAULT_OKS_PARAMS,
    LABEL_IGNORE,
    LABEL_NEGATIVE,
    SCALE_FROM_SEGMENT_AREA,
    SIMILARITY_IOU,
    SIMILARITY_OKS,
    OksParams,
    assign_arrays,
    oks_lattice,
    threshold_preset,
)
from .datasets import InstanceRecord
from .errors import (
    MissingCanonicalPosesError,
    NoApplicableRecordsError,
    PointSetError,
    check_fields,
    is_numbers,
)
from .geometry import box_iou_matrix, signed_area
from .losses import TASK_POSE, TASK_SEGMENTATION, head_output_dims

TARGET_FORMAT = "point-set-targets"
TARGET_VERSION = 1

TASK_MASK = "mask"
TASK_POSE_TARGETS = "pose"


class _TaskConfig:
    """The task check and the task -> similarity rule of both configurations."""

    def _check_task(self):
        if self.task not in (TASK_MASK, TASK_POSE_TARGETS):
            raise PointSetError(f"unknown task {self.task!r}")

    @property
    def similarity(self) -> str:
        return SIMILARITY_IOU if self.task == TASK_MASK else SIMILARITY_OKS


@dataclass(frozen=True)
class TargetConfig(_TaskConfig):
    """Everything emit_targets needs besides the records themselves."""

    pyramid: PyramidConfig = field(default_factory=PyramidConfig)
    task: str = TASK_MASK
    strategy: str = matching.CORNER_PROJECTION
    hi: float | None = None
    lo: float | None = None
    force_nearest: bool = False
    num_classes: int = 1
    oks_params: OksParams = field(default_factory=OksParams)

    def __post_init__(self):
        self._check_task()
        if self.task == TASK_MASK and self.strategy not in matching.STRATEGIES:
            raise PointSetError(f"unknown strategy {self.strategy!r}")
        if self.num_classes < 1:
            raise PointSetError(f"num_classes must be >= 1, got {self.num_classes}")
        preset = threshold_preset("detection" if self.task == TASK_MASK else "pose-stage1")
        if self.hi is None:
            object.__setattr__(self, "hi", preset[0])
        if self.lo is None:
            object.__setattr__(self, "lo", preset[1])

    def to_dict(self) -> dict:
        return {
            "pyramid": self.pyramid.to_dict(),
            "task": self.task,
            "strategy": self.strategy,
            "hi": self.hi,
            "lo": self.lo,
            "force_nearest": self.force_nearest,
            "num_classes": self.num_classes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TargetConfig":
        number = (lambda v: v is None or is_numbers([v]), "a number")
        name = (lambda v: isinstance(v, str), "a string")
        check_fields(data, {"pyramid": (lambda v: isinstance(v, dict), "a mapping"),
                            "task": name, "strategy": name, "hi": number, "lo": number,
                            "force_nearest": (lambda v: isinstance(v, bool), "true or false"),
                            "num_classes": (lambda v: type(v) is int, "an integer")}, "config")
        kwargs = dict(data)
        if "pyramid" in kwargs:
            kwargs["pyramid"] = PyramidConfig.from_dict(kwargs["pyramid"])
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "TargetConfig":
        return cls.from_dict(load_config_document(path))


def _group_by_image(records) -> dict[int, list[InstanceRecord]]:
    grouped: dict[int, list[InstanceRecord]] = {}
    for record in records:
        grouped.setdefault(record.image_id, []).append(record)
    return dict(sorted(grouped.items()))


def _gt_scale(record: InstanceRecord, params: OksParams) -> float:
    if params.scale_source == SCALE_FROM_SEGMENT_AREA and record.contours:
        return abs(signed_area(record.largest_contour()))
    return record.bbox.area


def _eligible(record: InstanceRecord, task: str) -> bool:
    """A gt of a task: a box of positive area plus contours, or visible joints."""
    annotated = record.contours if task == TASK_MASK else record.has_keypoints
    return bool(annotated) and record.bbox.area > 0.0


def _image_similarity(grid: AnchorGrid, gts: list[InstanceRecord], task: str,
                      oks_params: OksParams) -> np.ndarray:
    if task == TASK_MASK:
        gt_boxes = np.asarray([g.bbox.as_array() for g in gts])
        return box_iou_matrix(grid.box_stack(), gt_boxes)
    joints = np.asarray([g.keypoints[:, :2] for g in gts])
    vis = np.asarray([g.keypoints[:, 2] for g in gts])
    scales = np.asarray([_gt_scale(g, oks_params) for g in gts])
    return oks_lattice(grid.levels, joints, vis, scales, oks_params)


def _scored_images(grouped, task: str, pyramid: PyramidConfig, canonical_poses,
                   oks_params: OksParams):
    """Score every image's anchors against its eligible gts, in image-id order.

    Yields ``(image_id, image_records, gts, grid, sim)``. One grid is built
    per distinct image size; ``sim`` is the (anchors, gts) IoU or OKS matrix,
    ``(A, 0)`` for an image with no eligible gt, whose anchors the assigner
    then labels all negative.
    """
    mode = MASK_MODE if task == TASK_MASK else POSE_MODE
    grids: dict[tuple[int, int], AnchorGrid] = {}
    for image_id, image_records in grouped.items():
        gts = [r for r in image_records if _eligible(r, task)]
        size = image_records[0].image_size
        if size not in grids:
            grids[size] = generate_grid(pyramid, size, mode, canonical_poses)
        grid = grids[size]
        if gts:
            sim = _image_similarity(grid, gts, task, oks_params)
        else:
            sim = np.empty((grid.num_anchors, 0))
        yield image_id, image_records, gts, grid, sim


def emit_targets(records, config: TargetConfig, out_path, canonical_poses=None) -> dict:
    """Write assignment and regression targets for every anchor of a corpus.

    The output starts with a versioned header line (format name, version,
    configuration echo, head output dims), followed by one JSON line per
    anchor in (image, level, row, col, slot) order. Offsets are divided by
    the anchor's level stride. Keys within a line are sorted; floats use
    repr, so a fixed corpus and config reproduce the file byte for byte.

    Each image's lines are rendered as bytes from its columns by
    ``_render_image``, at most ``RENDER_LINES`` lines a step, into a file
    opened in binary mode. Only positives are matched: all of an image's in
    one call, each against its own gt. Their offsets and flags are rendered
    by ``_positive_texts``, ``RENDER_POSITIVES`` at a time, and spliced into
    their lines. Every float is written as json's text of its value, so the
    bytes equal one ``json.dumps(line, sort_keys=True)`` per anchor.

    A gt's class id is its label, so an eligible gt with a ``category_id``
    outside 1 .. ``config.num_classes`` is rejected, naming its image, before
    ``out_path`` is opened.

    Returns a summary dict with anchor/label counts.
    """
    if config.task == TASK_POSE_TARGETS and canonical_poses is None:
        raise MissingCanonicalPosesError("pose target emission needs canonical_poses")
    records = list(records)
    for record in records:
        if not 1 <= record.class_id <= config.num_classes and _eligible(record, config.task):
            raise PointSetError(f"image {record.image_id}: a gt has category_id {record.class_id};"
                                f" target labels need ids in 1..{config.num_classes}")

    grouped = _group_by_image(records)
    summary = {"images": len(grouped), "anchors": 0, "positives": 0,
               "negatives": 0, "ignores": 0, "skipped_records": 0, "lines": 0}

    out_path = Path(out_path)
    with out_path.open("wb") as out:
        header = {
            **config.to_dict(),
            "format": TARGET_FORMAT,
            "version": TARGET_VERSION,
            "strategy": config.strategy if config.task == TASK_MASK else "pose",
            "similarity": config.similarity,
            "head_dims": _header_dims(config, canonical_poses),
            "images": sorted(grouped),
        }
        out.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        summary["lines"] += 1

        for image_id, image_records, gts, grid, sim in _scored_images(
                grouped, config.task, config.pyramid, canonical_poses, config.oks_params):
            summary["skipped_records"] += len(image_records) - len(gts)
            labels, matched, best = assign_arrays(
                sim, config.hi, config.lo, config.force_nearest, [g.class_id for g in gts],
            )
            summary["positives"] += int(np.count_nonzero(labels > 0))
            summary["negatives"] += int(np.count_nonzero(labels == LABEL_NEGATIVE))
            summary["ignores"] += int(np.count_nonzero(labels == LABEL_IGNORE))

            columns = (*grid.index_columns(), labels, matched, best)
            pos = np.flatnonzero(labels > 0)
            for piece in _render_image(image_id, columns, pos, *_match_positives(
                    grid, gts, pos, columns[0][pos], matched[pos], config)):
                out.write(piece)
            summary["anchors"] += grid.num_anchors
            summary["lines"] += grid.num_anchors
    return summary


def _match_positives(grid: AnchorGrid, gts, pos, levels, owner, config: TargetConfig):
    """The offsets and valid texts of an image's positives ``pos``, on
    ``levels``, each matched against its gt ``gts[owner]``.

    All of them are matched in one call; their texts are made
    ``RENDER_POSITIVES`` at a time.
    """
    if config.task == TASK_MASK:
        points, corners = sample_box_perimeters(grid.box_stack()[pos], config.pyramid.num_points)
        targets, valid = matching.match_points(
            points, corners, [g.largest_contour().vertices for g in gts], config.strategy, owner)
    else:
        points = grid.joint_stack(pos)
        keypoints = np.reshape([g.keypoints for g in gts], (-1, NUM_JOINTS, 3))[owner]
        targets, valid = matching.match_pose_points(points, keypoints[..., :2], keypoints[..., 2])
    stride = np.asarray([lv.stride for lv in grid.levels])[levels, None, None]
    scaled = matching.point_offsets(points, targets, valid) / stride
    offsets, flags = [], []
    for i in range(0, len(pos), RENDER_POSITIVES):
        texts = _positive_texts(scaled[i:i + RENDER_POSITIVES], valid[i:i + RENDER_POSITIVES])
        offsets += texts[0]
        flags += texts[1]
    return offsets, flags


# The most lines one rendering step holds, and the most positives whose
# texts are made at once. A step's byte matrix is lines x line width, so the
# working set stays bounded on dense grids and crowded images.
RENDER_LINES = 1024
RENDER_POSITIVES = 128

# One anchor's line, keys in json.dumps(sort_keys=True) order: the text
# before each of its rendered fields (col, gt, label, level, row, sim, slot),
# then the tail. Offsets and valid read null; a positive's texts are spliced
# over those two nulls.
_LINE_TEXT = (b'{"col": ', b', "gt": ', b', "image": %s, "label": ', b', "level": ',
              b', "offsets": null, "row": ', b', "sim": ', b', "slot": ', b', "valid": null}\n')


@lru_cache(maxsize=None)
def _int_tokens(bits: int, null: bool) -> np.ndarray:
    """The texts of 0 .. 2**bits - 1 and then of -1 ("null" if ``null``), NUL-padded.

    -1 is the last entry, so indexing with a value of -1 picks its text. The
    cached table is read-only.
    """
    table = np.array([b"%d" % v for v in range(2 ** bits)] + [b"null" if null else b"-1"])
    table.flags.writeable = False
    return table


def _int_field(values: np.ndarray, null: bool = False):
    """(tokens, index) of an integer column of values >= -1."""
    return _int_tokens(int(values.max(initial=0)).bit_length(), null), values


def _float_texts(values: np.ndarray) -> tuple[list[bytes], np.ndarray]:
    """json's text of each distinct bit pattern of a float array, and each value's index into them.

    Keyed by bits, not value, so -0.0 keeps its sign. ``index`` has the
    shape of ``values``.
    """
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    texts = json.dumps(bits.view(np.float64).tolist())[1:-1].encode().split(b", ")
    return texts, index.reshape(values.shape)


def _lay_out(parts, count: int) -> bytes:
    """Lay ``count`` rows of bytes pieces side by side and drop the NUL padding.

    A part is a bytes literal, the same in every row, or an array of
    ``count`` NUL-padded bytes tokens.
    """
    matrix = np.concatenate([np.broadcast_to(np.frombuffer(part, np.uint8), (count, len(part)))
                             if isinstance(part, bytes) else part.view(np.uint8).reshape(count, -1)
                             for part in parts], axis=1)
    return matrix.tobytes().translate(None, b"\0")


def _render_image(image_id, columns, pos, offsets, valid):
    """Yield one image's lines as bytes pieces, rendered from its per-anchor columns.

    ``columns`` holds (level, row, col, slot, label, matched gt, best sim)
    arrays. An integer field is a lookup in a token table indexed by value,
    and ``sim`` takes json's text once per distinct bit pattern. Each step of
    at most ``RENDER_LINES`` lines is laid out as one byte matrix. ``pos``
    holds the positives' line indices, ascending; their ``offsets`` and
    ``valid`` texts are spliced over the nulls at byte positions summed from
    the field widths.
    """
    levels, rows, cols, slots, labels, matched, best = columns
    sims, sim_index = _float_texts(best)
    fields = (_int_field(cols), _int_field(matched, null=True), _int_field(labels),
              _int_field(levels), _int_field(rows), (np.array(sims), sim_index), _int_field(slots))
    texts = list(_LINE_TEXT)
    texts[2] %= json.dumps(image_id).encode()
    literal_width = sum(map(len, texts))
    offsets_from = sum(map(len, texts[:4])) + len(b', "offsets": ')   # + 4 field widths
    for start in range(0, len(best), RENDER_LINES):
        stop = min(start + RENDER_LINES, len(best))
        tokens = [table[index[start:stop]] for table, index in fields]
        chunk = _lay_out([part for pair in zip(texts, tokens) for part in pair] + texts[-1:],
                         stop - start)
        first, last = np.searchsorted(pos, (start, stop))
        if first == last:
            yield chunk
            continue
        here = pos[first:last] - start
        widths = [np.char.str_len(token) for token in tokens]
        line = sum(widths) + literal_width
        ends = np.cumsum(line)[here]
        offsets_at = ends - line[here] + offsets_from + sum(w[here] for w in widths[:4])
        valid_at = ends - len(b'null}\n')
        chunk, at = memoryview(chunk), 0
        for k, o, v in zip(range(first, last), offsets_at.tolist(), valid_at.tolist()):
            yield from (chunk[at:o], offsets[k], chunk[o + 4:v], valid[k])
            at = v + 4
        yield chunk[at:]


def _positive_texts(scaled: np.ndarray, valid: np.ndarray) -> tuple[list[bytes], list[bytes]]:
    """The offsets and valid texts of a batch of positives, as ``json.dumps``
    writes their lists: [[dx, dy], ...] and [1, 0, ...].

    Each distinct offset is rendered once, and each text is one ``%``
    template a positive, filled for the whole batch at once.
    """
    count, n = valid.shape
    texts, index = _float_texts(scaled)
    offsets = _fill(b"[" + b", ".join([b"[%s, %s]"] * n) + b"]\n", count,
                    np.array(texts, dtype=object)[index.ravel()])
    flags = np.array([b"0", b"1"], dtype=object)[valid.ravel().view(np.uint8)]
    return offsets, _fill(b"[" + b", ".join([b"%s"] * n) + b"]\n", count, flags)


def _fill(template: bytes, count: int, values) -> list[bytes]:
    """``count`` lines of a one-line ``%`` template, filled in turn from ``values``."""
    return (template * count % tuple(values)).split(b"\n")[:-1]


def _header_dims(config: TargetConfig, canonical_poses) -> dict:
    if config.task == TASK_MASK:
        return head_output_dims(
            TASK_SEGMENTATION,
            config.pyramid.mask_anchors_per_location,
            num_classes=config.num_classes,
            num_points=config.pyramid.num_points,
        )
    per_location = (len(canonical_poses) * len(config.pyramid.pose_scales)
                    * len(config.pyramid.pose_rotations))
    return head_output_dims(TASK_POSE, per_location)


@dataclass(frozen=True)
class CoverageConfig(_TaskConfig):
    """One named anchor configuration to measure coverage for."""

    name: str
    pyramid: PyramidConfig = field(default_factory=PyramidConfig)
    task: str = TASK_POSE_TARGETS
    canonical_poses: np.ndarray | None = None

    def __post_init__(self):
        self._check_task()
        if self.task == TASK_POSE_TARGETS and self.canonical_poses is None:
            raise MissingCanonicalPosesError(f"config {self.name!r} needs canonical_poses")


@dataclass(frozen=True)
class CoverageReport:
    """Coverage of one anchor configuration over one corpus."""

    name: str
    similarity: str
    threshold: float
    gt_count: int
    matched_gt_count: int
    matched_gt_fraction: float
    anchor_count: int
    positive_count: int
    negative_count: int
    ignore_count: int
    pos_neg_ratio: float
    pos_neg_per_mille: float
    histogram: tuple[int, ...]   # best similarity per gt, 10 uniform bins on [0, 1]


def coverage_report(records, configs, threshold: float = 0.5,
                    oks_params: OksParams = DEFAULT_OKS_PARAMS) -> list[CoverageReport]:
    """Measure gt coverage of each anchor configuration over a corpus.

    A gt counts as matched when its best anchor similarity (IoU for a mask
    configuration, OKS for a pose one) reaches ``threshold``.
    Positive/negative counts come from the assigner with hi=threshold,
    lo=min(0.4, threshold) and force_nearest on (every gt claims its best
    anchor).
    """
    if not 0.0 < threshold <= 1.0:
        raise PointSetError(f"threshold must be in (0, 1], got {threshold}")
    lo = min(0.4, threshold)
    grouped = _group_by_image(records)
    reports = []
    for config in configs:
        best_sims: list[float] = []
        anchor_count = positive = negative = ignore = 0
        for _, _, _, grid, sim in _scored_images(
                grouped, config.task, config.pyramid, config.canonical_poses, oks_params):
            anchor_count += grid.num_anchors
            best_sims.extend(sim.max(axis=0).tolist())
            labels, _, _ = assign_arrays(sim, threshold, lo, force_nearest=True)
            positive += int(np.count_nonzero(labels > 0))
            negative += int(np.count_nonzero(labels == 0))
            ignore += int(np.count_nonzero(labels < 0))
        if not best_sims:
            raise NoApplicableRecordsError(
                f"no records usable for coverage config {config.name!r}"
            )
        best = np.asarray(best_sims)
        matched = int(np.count_nonzero(best >= threshold))
        hist = np.histogram(np.clip(best, 0.0, 1.0), bins=10, range=(0.0, 1.0))[0]
        ratio = positive / negative if negative else float("inf")
        reports.append(CoverageReport(
            name=config.name,
            similarity=config.similarity,
            threshold=threshold,
            gt_count=len(best),
            matched_gt_count=matched,
            matched_gt_fraction=matched / len(best),
            anchor_count=anchor_count,
            positive_count=positive,
            negative_count=negative,
            ignore_count=ignore,
            pos_neg_ratio=ratio,
            pos_neg_per_mille=ratio * 1000.0,
            histogram=tuple(int(c) for c in hist),
        ))
    return reports


def render_coverage_table(reports) -> str:
    """Aligned text table: one row per configuration."""
    headers = ("config", "gts", "matched", "matched%", "pos", "neg", "pos/neg", "pos/neg (permille)")
    rows = [headers]
    for r in reports:
        rows.append((
            r.name, str(r.gt_count), str(r.matched_gt_count),
            f"{100.0 * r.matched_gt_fraction:.1f}",
            str(r.positive_count), str(r.negative_count),
            f"{r.pos_neg_ratio:.6f}", f"{r.pos_neg_per_mille:.3f}",
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines) + "\n"


def coverage_to_dict(reports) -> dict:
    """Machine-readable rendering of coverage reports."""
    return {"reports": [asdict(r) for r in reports]}
