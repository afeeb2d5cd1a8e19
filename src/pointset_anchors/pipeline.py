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
from pathlib import Path

import numpy as np

from .anchors import (
    CORNER_PROJECTION,
    MASK_MODE,
    NUM_JOINTS,
    POSE_MODE,
    STRATEGIES,
    TASK_SEGMENTATION,
    AnchorGrid,
    Frozen,
    PyramidConfig,
    generate_grid,
    head_output_dims,
    sample_box_perimeters,
)
from .assignment import (
    LABEL_IGNORE,
    SIMILARITY_IOU,
    SIMILARITY_OKS,
    _oks_widths,
    assign_arrays,
    check_thresholds,
    oks_lattice,
)
from .datasets import InstanceRecord
from .errors import PointSetError, check_at_least, check_fields, is_numbers
from .geometry import box_iou_matrix

TARGET_FORMAT = "point-set-targets"
TARGET_VERSION = 1

# A task is named by the mode of its grids.
TASK_MASK = MASK_MODE
TASK_POSE_TARGETS = POSE_MODE


class _TaskConfig:
    """The task check and the task -> similarity rule of both configurations."""

    __slots__ = ()

    @staticmethod
    def _check_task(task: str):
        if task not in (TASK_MASK, TASK_POSE_TARGETS):
            raise PointSetError(f"unknown task {task!r}")

    @property
    def similarity(self) -> str:
        return SIMILARITY_IOU if self.task == TASK_MASK else SIMILARITY_OKS


class TargetConfig(_TaskConfig, Frozen):
    """Everything emit_targets needs besides the records themselves: ``to_dict``
    holds every field, and the targets header states it whole. ``hi`` and
    ``lo`` default to (0.6, 0.4) on mask IoU and (0.5, 0.4) on pose OKS;
    ``pyramid`` defaults to ``PyramidConfig()``."""

    __slots__ = ("pyramid", "task", "strategy", "hi", "lo", "force_nearest", "num_classes")

    def __init__(self, pyramid: PyramidConfig | None = None, task: str = TASK_MASK,
                 strategy: str = CORNER_PROJECTION, hi: float | None = None,
                 lo: float | None = None, force_nearest: bool = False, num_classes: int = 1):
        self._check_task(task)
        if task == TASK_MASK and strategy not in STRATEGIES:
            raise PointSetError(f"unknown strategy {strategy!r}")
        check_at_least(("num_classes", num_classes, 1))
        hi = (0.6 if task == TASK_MASK else 0.5) if hi is None else hi
        lo = 0.4 if lo is None else lo
        check_thresholds(hi, lo)
        self._set(PyramidConfig() if pyramid is None else pyramid, task, strategy, hi, lo,
                  force_nearest, num_classes)

    def to_dict(self) -> dict:
        return {**{name: getattr(self, name) for name in self.__slots__},
                "pyramid": self.pyramid.to_dict()}

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


def _group_by_image(records) -> dict[int, list[InstanceRecord]]:
    grouped: dict[int, list[InstanceRecord]] = {}
    for record in records:
        grouped.setdefault(record.image_id, []).append(record)
    return dict(sorted(grouped.items()))


def _eligible(record: InstanceRecord, task: str) -> bool:
    """A gt of a task: a box of positive area plus contours, or visible joints."""
    annotated = record.contours if task == TASK_MASK else record.has_keypoints
    return bool(annotated) and record.bbox.area > 0.0


def _image_similarity(grid: AnchorGrid, gts: list[InstanceRecord], task: str,
                      out=None) -> np.ndarray:
    """The (anchors, gts) IoU or OKS matrix, written into ``out`` when given."""
    if task == TASK_MASK:
        gt_boxes = np.asarray([g.bbox.as_array() for g in gts])
        return box_iou_matrix(grid.box_stack(), gt_boxes, out)
    joints = np.asarray([g.keypoints[:, :2] for g in gts])
    vis = np.asarray([g.keypoints[:, 2] for g in gts])
    scales = np.asarray([g.bbox.area for g in gts])
    return oks_lattice(grid, joints, vis, scales, out)


def _grids(grouped, task: str, pyramid: PyramidConfig, canonical_poses) -> dict:
    """One grid per distinct image size, keyed by size. An error of ``generate_grid``
    (a grid over ``MAX_IMAGE_ANCHORS`` anchors) names the first image of that size."""
    grids: dict[tuple[int, int], AnchorGrid] = {}
    for image_id, image_records in grouped.items():
        size = image_records[0].image_size
        if size not in grids:
            try:
                grids[size] = generate_grid(pyramid, size, task, canonical_poses)
            except PointSetError as err:
                raise type(err)(f"image {image_id}: {err}") from err
    return grids


def _scored_images(grouped, grids, task: str, hi: float, lo: float, force_nearest: bool,
                   labelled: bool):
    """Score and assign each image's anchors against its eligible gts, in image-id order.

    Yields ``(image_id, skipped, gts, grid, sim, labels, matched, best)``:
    the count of records that are not gts of ``task``, the gts, the image
    size's grid, the (anchors, gts) IoU or OKS matrix (``(A, 0)`` with no gt,
    so every anchor is negative) and ``assign_arrays``' output, whose
    positive labels are the gts' class ids when ``labelled``, else 1. The
    four arrays are views of buffers made once per call, sized for its
    largest image, and refilled for every image: they hold an image's
    values only until the next image is asked for.
    """
    images = [(image_id, [r for r in image_records if _eligible(r, task)], len(image_records),
               grids[image_records[0].image_size]) for image_id, image_records in grouped.items()]
    size = max((grid.num_anchors * len(gts) for _, gts, _, grid in images), default=0)
    anchors = max((grid.num_anchors for grid in grids.values()), default=0)
    # One allocation for all four. Once it is handed back, glibc keeps up to
    # twice its size of freed heap mapped, so the scoring temporaries of the
    # next call's images reuse their pages instead of faulting them back in.
    sims, labels, matched, best = np.split(np.empty(size + 3 * anchors),
                                           [size, size + anchors, size + 2 * anchors])
    buffers = labels.view(int), matched.view(np.intp), best
    for image_id, gts, count, grid in images:
        rows = grid.num_anchors
        sim = sims[:rows * len(gts)].reshape(rows, len(gts))
        if gts:
            sim = _image_similarity(grid, gts, task, sim)
        yield (image_id, count - len(gts), gts, grid, sim, *assign_arrays(
            sim, hi, lo, force_nearest, [g.class_id for g in gts] if labelled else None,
            out=[buffer[:rows] for buffer in buffers]))


def _label_counts(labels: np.ndarray) -> np.ndarray:
    """(anchors, positives, negatives, ignores) of an image's labels."""
    positives = np.count_nonzero(labels > 0)
    ignores = np.count_nonzero(labels == LABEL_IGNORE)
    return np.array([labels.size, positives, labels.size - positives - ignores, ignores])


def emit_targets(records, config: TargetConfig, out_path, canonical_poses=None) -> dict:
    """Write assignment and regression targets for every anchor of a corpus.

    The output starts with a versioned header line (format name, version,
    configuration echo, head output dims), followed by one JSON line per
    anchor in (image, level, row, col, slot) order. Offsets are divided by
    the anchor's level stride.

    Each image is scored and assigned by ``_scored_images``. Only its
    positives are matched: all in one call, each against its own gt, giving
    their offsets and flags as arrays. ``_render_image`` renders the lines
    as bytes from the arrays, into a file opened in binary mode: a line is
    three lookups into small tables of texts and its sim's text, and each
    step of at most ``RENDER_LINES`` lines is one join and one write. Floats
    are written by orjson, whose shortest round-trip digits are json's, and
    by json itself where json writes an exponent (0 < |v| < 1e-4 or |v| >=
    1e16), so the bytes equal one ``json.dumps(line, sort_keys=True)`` per
    anchor, and a fixed corpus and config reproduce the file byte for byte.

    A gt's class id is its label, so an eligible gt with a ``category_id``
    outside 1 .. ``config.num_classes`` is rejected, naming its image, before
    ``out_path`` is opened. So is a pose gt whose OKS widths are not finite
    and > 0, and an image whose grid ``generate_grid`` rejects.

    Returns a summary dict with anchor/label counts.
    """
    if config.task == TASK_POSE_TARGETS and canonical_poses is None:
        raise PointSetError("pose target emission needs canonical_poses")
    records = list(records)
    for record in records:
        if not 1 <= record.class_id <= config.num_classes and _eligible(record, config.task):
            raise PointSetError(f"image {record.image_id}: a gt has category_id {record.class_id};"
                                f" target labels need ids in 1..{config.num_classes}")

    grouped = _group_by_image(records)
    if config.task == TASK_POSE_TARGETS:   # the widths each image's OKS will divide by
        for image_id, image_records in grouped.items():
            gts = [r for r in image_records if _eligible(r, config.task)]
            try:
                _oks_widths([g.bbox.area for g in gts], [g.keypoints[:, 2] for g in gts])
            except PointSetError as err:
                raise PointSetError(f"image {image_id}: {err}") from err
    grids = _grids(grouped, config.task, config.pyramid, canonical_poses)
    counts, skipped_records = np.zeros(4, dtype=np.int64), 0
    with Path(out_path).open("wb") as out:
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
        for image_id, skipped, gts, grid, sim, labels, matched, best in _scored_images(
                grouped, grids, config.task, config.hi, config.lo, config.force_nearest,
                labelled=True):
            counts += _label_counts(labels)
            skipped_records += skipped
            pos = np.flatnonzero(labels > 0)
            for piece in _render_image(image_id, (*grid.index_columns(), labels, matched, best),
                                       pos, *_match_positives(grid, gts, pos, matched[pos], config)):
                out.write(piece)
    anchors, positives, negatives, ignores = counts.tolist()
    return {"images": len(grouped), "anchors": anchors, "positives": positives,
            "negatives": negatives, "ignores": ignores, "skipped_records": skipped_records,
            "lines": anchors + 1}


def _match_positives(grid: AnchorGrid, gts, pos, owner, config: TargetConfig):
    """The offsets, divided by their level's stride, (P, n, 2) and the valid
    flags (P, n) of an image's positives ``pos``, each matched against its gt
    ``gts[owner]``, all in one call. Only targets compiles ``matching``."""
    from .matching import match_points, match_pose_points, point_offsets

    if config.task == TASK_MASK:
        points, corners = sample_box_perimeters(grid.box_stack()[pos], config.pyramid.num_points)
        targets, valid = match_points(
            points, corners, [g.largest_contour().vertices for g in gts], config.strategy, owner)
    else:
        points = grid.joint_stack(pos)
        keypoints = np.reshape([g.keypoints for g in gts], (-1, NUM_JOINTS, 3))[owner]
        targets, valid = match_pose_points(points, keypoints[..., :2], keypoints[..., 2])
    stride = np.asarray([lv.stride for lv in grid.levels])[grid.index_columns()[0][pos], None, None]
    return point_offsets(points, targets, valid) / stride, valid


# The most lines one rendering step holds, and the most positives whose
# texts are made at once. A step is one list of four pieces a line, so the
# working set stays bounded on dense grids and crowded images.
RENDER_LINES = 1024
RENDER_POSITIVES = 128


def _float_texts(values: np.ndarray) -> list[bytes]:
    """json's text of each value of a finite float64 array, in C order: one
    ``orjson.dumps``, whose shortest round-trip digits are json's, then one
    ``json.dumps`` of the values json writes with an exponent, 0 < |v| < 1e-4
    or |v| >= 1e16, which orjson spells differently. Only targets imports orjson."""
    import orjson

    flat = np.ravel(values)  # C-contiguous, as orjson needs
    texts = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
    exponent = np.flatnonzero((flat != 0) & (np.abs(flat) < 1e-4) | (np.abs(flat) >= 1e16))
    for at, text in zip(exponent.tolist(),
                        json.dumps(flat[exponent].tolist())[1:-1].encode().split(b", ")):
        texts[at] = text
    return texts if flat.size else []


def _render_image(image_id, columns, pos, scaled, valid):
    """Yield one image's lines as bytes pieces, rendered from its per-anchor columns.

    ``columns`` holds (level, row, col, slot, label, matched gt, best sim)
    arrays. Keys are in json.dumps(sort_keys=True) order, and a line is three
    lookups into small tables of texts, the gt (-1 reads null) and label with
    the image id, the level and row, and a join, the line's slot tail with the
    next line's col head, plus its sim's text. The first line's col head leads
    the image and the last line's join is its slot tail alone. Each step of at
    most ``RENDER_LINES`` lines is one list of pieces, joined, its sims written
    by orjson, or by json where it writes an exponent (0 < |v| < 1e-4 or |v| >=
    1e16). ``pos`` holds the positives' line indices, ascending, ``scaled``
    their offsets over the stride (P, n, 2) and ``valid`` their flags (P, n),
    made into texts ``RENDER_POSITIVES`` at a time. A positive's offsets text
    replaces the null of its level/row piece, and its valid text the first
    null of its join.
    """
    offset_texts, valid_texts = [], []
    for i in range(0, len(pos), RENDER_POSITIVES):
        texts = _positive_texts(scaled[i:i + RENDER_POSITIVES], valid[i:i + RENDER_POSITIVES])
        offset_texts += texts[0]
        valid_texts += texts[1]
    del scaled, valid  # the texts are all the steps need
    levels, rows, cols, slots, labels, matched, best = columns
    image = json.dumps(image_id).encode()
    tails = [b', "slot": %d, "valid": null}\n' % v for v in range(slots.max(initial=0) + 1)]
    heads = [b'{"col": %d, "gt": ' % v for v in range(cols.max(initial=0) + 1)]
    gt_texts = [b"null"] + [b"%d" % v for v in range(matched.max(initial=-1) + 1)]
    label_range = range(-1, labels.max(initial=0) + 1)
    row_range = range(rows.max(initial=0) + 1)
    tables = (
        (np.array([b'%s, "image": %s, "label": %d, "level": ' % (gt, image, label)
                   for gt in gt_texts for label in label_range], dtype=object),
         (matched + 1) * len(label_range) + labels + 1),
        (np.array([b'%d, "offsets": null, "row": %d, "sim": ' % (level, row)
                   for level in range(levels.max(initial=0) + 1) for row in row_range],
                  dtype=object), levels * len(row_range) + rows),
        (np.array([tail + head for tail in tails for head in heads + [b""]], dtype=object),
         slots * (len(heads) + 1) + np.append(cols[1:], len(heads))),
    )
    lead = heads[cols[0]]
    for start in range(0, len(best), RENDER_LINES):
        stop = min(start + RENDER_LINES, len(best))
        parts = [lead] * (4 * (stop - start) + 1)
        for at, (table, index) in zip((1, 2, 4), tables):
            parts[at::4] = table[index[start:stop]].tolist()
        parts[3::4] = _float_texts(best[start:stop])
        for k in range(*np.searchsorted(pos, (start, stop))):
            at = 4 * (pos[k] - start)
            parts[at + 2] = parts[at + 2].replace(b"null", offset_texts[k], 1)
            parts[at + 4] = parts[at + 4].replace(b"null", valid_texts[k], 1)
        yield b"".join(parts)
        lead = b""


def _positive_texts(scaled: np.ndarray, valid: np.ndarray) -> tuple[list[bytes], list[bytes]]:
    """The offsets and valid texts of a batch of positives, as ``json.dumps``
    writes their lists: [[dx, dy], ...] and [1, 0, ...].

    The offsets are one ``_float_texts`` call, and each text is one ``%``
    template a positive, filled for the whole batch at once.
    """
    count, n = valid.shape
    offsets = _fill(b"[" + b", ".join([b"[%s, %s]"] * n) + b"]\n", count, _float_texts(scaled))
    flags = np.array([b"0", b"1"], dtype=object)[valid.ravel().view(np.uint8)]
    return offsets, _fill(b"[" + b", ".join([b"%s"] * n) + b"]\n", count, flags)


def _fill(template: bytes, count: int, values) -> list[bytes]:
    """``count`` lines of a one-line ``%`` template, filled in turn from ``values``."""
    return (template * count % tuple(values)).split(b"\n")[:-1]


def _header_dims(config: TargetConfig, canonical_poses) -> dict:
    pyramid = config.pyramid
    if config.task == TASK_MASK:
        return head_output_dims(TASK_SEGMENTATION, pyramid.mask_anchors_per_location,
                                num_classes=config.num_classes, num_points=pyramid.num_points)
    return head_output_dims(POSE_MODE, pyramid.pose_anchors_per_location(len(canonical_poses)))


class CoverageConfig(_TaskConfig):
    """One named anchor configuration to measure coverage for; ``pyramid``
    defaults to ``PyramidConfig()``."""

    __slots__ = ("name", "pyramid", "task", "canonical_poses")

    def __init__(self, name: str, pyramid: PyramidConfig | None = None,
                 task: str = TASK_POSE_TARGETS, canonical_poses: np.ndarray | None = None):
        self.name, self.task, self.canonical_poses = name, task, canonical_poses
        self.pyramid = PyramidConfig() if pyramid is None else pyramid
        self._check_task(task)
        if task == TASK_POSE_TARGETS and canonical_poses is None:
            raise PointSetError(f"config {name!r} needs canonical_poses")


class CoverageReport:
    """Coverage of one anchor configuration over one corpus, derived from each
    gt's best similarity ``best`` and the summed (anchors, positives, negatives,
    ignores) ``label_counts``.

    A gt is matched when its best similarity reaches ``threshold``. The two
    ratios are None when there is no negative; ``histogram`` counts the best
    similarity per gt in 10 uniform bins on [0, 1].
    """

    __slots__ = ("name", "similarity", "threshold", "gt_count", "matched_gt_count",
                 "matched_gt_fraction", "anchor_count", "positive_count", "negative_count",
                 "ignore_count", "pos_neg_ratio", "pos_neg_per_mille", "histogram")

    def __init__(self, name: str, similarity: str, threshold: float, best: np.ndarray,
                 label_counts: np.ndarray):
        self.name, self.similarity, self.threshold = name, similarity, threshold
        self.gt_count = len(best)
        self.matched_gt_count = int(np.count_nonzero(best >= threshold))
        self.matched_gt_fraction = self.matched_gt_count / self.gt_count
        (self.anchor_count, self.positive_count, self.negative_count,
         self.ignore_count) = label_counts.tolist()
        ratio = self.positive_count / self.negative_count if self.negative_count else None
        self.pos_neg_ratio, self.pos_neg_per_mille = ratio, None if ratio is None else ratio * 1e3
        hist = np.histogram(np.clip(best, 0.0, 1.0), bins=10, range=(0.0, 1.0))[0]
        self.histogram = tuple(int(c) for c in hist)


def check_coverage_threshold(threshold: float) -> None:
    """Reject a coverage threshold outside (0, 1] (so NaN too)."""
    if not 0.0 < threshold <= 1.0:
        raise PointSetError(f"threshold must be in (0, 1], got {threshold}")


def coverage_report(records, configs, threshold: float = 0.5) -> list[CoverageReport]:
    """Measure gt coverage of each anchor configuration over a corpus.

    A gt counts as matched when its best anchor similarity (IoU for a mask
    configuration, OKS for a pose one) reaches ``threshold``.
    Positive/negative counts come from the assigner with hi=threshold,
    lo=min(0.4, threshold) and force_nearest on: each gt claims its best anchor
    unless another gt holds it at an equal or higher similarity, and may then
    have no positive. Every configuration's grids are made before any image is
    scored, so an image whose grid would hold more than ``MAX_IMAGE_ANCHORS``
    anchors is rejected, naming it, first.
    """
    check_coverage_threshold(threshold)
    grouped = _group_by_image(records)
    ladder = [(config, _grids(grouped, config.task, config.pyramid, config.canonical_poses))
              for config in configs]
    reports = []
    while ladder:
        # popped, so a configuration's grids and their cached arrays go once it is done
        config, grids = ladder.pop(0)
        # no class ids: coverage accepts any category_id, 0 included. The
        # comprehension's names go with it, so nothing keeps this configuration's
        # buffers or grids once the next one's are made.
        scored = [(_label_counts(labels), sim.max(axis=0)) for _, _, _, _, sim, labels, _, _
                  in _scored_images(grouped, grids, config.task, threshold, min(0.4, threshold),
                                    force_nearest=True, labelled=False)]
        best = np.concatenate([np.zeros(0)] + [image_best for _, image_best in scored])
        if not best.size:
            raise PointSetError(f"no records usable for coverage config {config.name!r}")
        reports.append(CoverageReport(config.name, config.similarity, threshold, best,
                                      sum(counts for counts, _ in scored)))
    return reports


def render_coverage_table(reports) -> str:
    """Aligned text table: one row per configuration."""
    headers = ("config", "gts", "matched", "matched%", "pos", "neg", "pos/neg", "pos/neg (permille)")
    rows = [headers] + [(
        r.name, str(r.gt_count), str(r.matched_gt_count), f"{100.0 * r.matched_gt_fraction:.1f}",
        str(r.positive_count), str(r.negative_count),
        *(("inf", "inf") if r.pos_neg_ratio is None else
          (f"{r.pos_neg_ratio:.6f}", f"{r.pos_neg_per_mille:.3f}")),
    ) for r in reports]
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines) + "\n"


def coverage_to_dict(reports) -> dict:
    """Machine-readable rendering of coverage reports (a ratio with no negative is None)."""
    return {"reports": [{name: getattr(r, name) for name in CoverageReport.__slots__}
                        for r in reports]}
