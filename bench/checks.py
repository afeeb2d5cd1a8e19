"""Output checks for the benchmark, computed apart from the program.

Nothing here imports the package. The corpus is read from its COCO file with
the parser's documented rules, anchors are rebuilt from the pyramid formula,
and IoU, the label rule and OKS are written out again. No check compares
against a stored copy of an earlier output.

``check_targets`` verifies every line of a targets JSONL file;
``check_coverage`` verifies a coverage JSON document. Both raise
``CheckError`` on the first disagreement and return a small count summary.
Run as a script, it checks one output of a workload:

    python bench/checks.py WORKLOAD CORPUS OUTPUT STDOUT [MODES_K1 MODES_K3]

and prints ``{"anchors": N}`` (anchors labelled), or exits with 3 when the
output is wrong or cannot be read.
"""

from __future__ import annotations

import json
import math
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NUM_JOINTS = 17
TARGET_FORMAT = "point-set-targets"

# COCO per-joint sigmas; OKS uses kappa = 2 * sigma.
COCO_SIGMAS = np.array([
    0.026, 0.025, 0.025, 0.035, 0.035, 0.079, 0.079, 0.072, 0.072,
    0.062, 0.062, 0.107, 0.107, 0.087, 0.087, 0.089, 0.089,
])
KAPPAS2 = (2.0 * COCO_SIGMAS) ** 2

COVERAGE_THRESHOLD = 0.5   # the coverage command's default --threshold

ON_CONTOUR_TOL = 1e-7   # pixels
EDGE_TOL = 1e-9         # OKS values this close to a bin edge or the threshold may go either way


class CheckError(Exception):
    """An output disagrees with the independent computation."""


@dataclass
class Gt:
    box: np.ndarray                  # (x_min, y_min, x_max, y_max)
    class_id: int
    contour: np.ndarray | None       # largest polygon, (m, 2)
    keypoints: np.ndarray | None     # (17, 3)

    @property
    def area(self) -> float:
        return (self.box[2] - self.box[0]) * (self.box[3] - self.box[1])


def _shoelace(v: np.ndarray) -> float:
    return 0.5 * float(np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1]))


def _polygon(flat) -> np.ndarray | None:
    v = np.asarray(flat, dtype=float).reshape(-1, 2)
    if len(v) > 1:
        keep = np.ones(len(v), dtype=bool)
        keep[1:] = (v[1:] != v[:-1]).any(axis=1)
        v = v[keep]
        if len(v) > 1 and (v[0] == v[-1]).all():
            v = v[:-1]
    if len(v) < 3 or _shoelace(v) == 0.0:
        return None
    return v


def load_corpus(path) -> tuple[dict, dict]:
    """(image sizes, gts per image) from a COCO file, in annotation order.

    Crowd and run-length annotations are skipped and polygons are cleaned as
    the parser documents (consecutive duplicates and a closing repeat
    removed; fewer than 3 vertices or zero area dropped).
    """
    with open(path) as f:
        doc = json.load(f)
    sizes = {img["id"]: (img["width"], img["height"]) for img in doc["images"]}
    gts: dict[int, list[Gt]] = {}
    for ann in doc["annotations"]:
        seg = ann.get("segmentation")
        if ann.get("iscrowd", 0) or isinstance(seg, dict):
            continue
        x, y, w, h = (float(v) for v in ann["bbox"])
        polygons = [p for p in (_polygon(flat) for flat in seg or []) if p is not None]
        contour = max(polygons, key=lambda p: abs(_shoelace(p))) if polygons else None
        kp = ann.get("keypoints")
        gts.setdefault(ann["image_id"], []).append(Gt(
            box=np.array([x, y, x + w, y + h]),
            class_id=int(ann.get("category_id", 1)),
            contour=contour,
            keypoints=None if kp is None else np.asarray(kp, dtype=float).reshape(NUM_JOINTS, 3),
        ))
    return sizes, gts


# ---------------------------------------------------------------- targets


def mask_boxes(pyramid, size) -> tuple[np.ndarray, np.ndarray]:
    """Implicit boxes of every anchor in (level, row, col, slot) order.

    Location (row, col) of a level sits at ((col + 0.5) * stride,
    (row + 0.5) * stride); slot (i, j) has side base * octave_i, split into
    width side * sqrt(aspect_j) and height side / sqrt(aspect_j).
    Returns (boxes (A, 4), index (A, 5) of level, row, col, slot, stride).
    """
    boxes, index = [], []
    for level, (stride, base) in enumerate(pyramid.levels):
        rows, cols = pyramid.shape(stride, size)
        half = np.array([[base * o * math.sqrt(a) / 2.0, base * o / math.sqrt(a) / 2.0]
                         for o in pyramid.octaves for a in pyramid.aspects])
        k = len(half)
        r, c, s = np.meshgrid(np.arange(rows), np.arange(cols), np.arange(k), indexing="ij")
        r, c, s = r.ravel(), c.ravel(), s.ravel()
        cx = (c + 0.5) * stride
        cy = (r + 0.5) * stride
        boxes.append(np.column_stack([cx - half[s, 0], cy - half[s, 1],
                                      cx + half[s, 0], cy + half[s, 1]]))
        index.append(np.column_stack([np.full(len(r), level), r, c, s, np.full(len(r), stride)]))
    return np.concatenate(boxes), np.concatenate(index)


def iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of (A, 4) and (G, 4) corner boxes; 0 where the union is empty."""
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


def label_rule(sim: np.ndarray, hi: float, lo: float, force_nearest: bool, classes):
    """(label, matched gt or -1, reported similarity) per anchor.

    An anchor whose best similarity reaches ``hi`` is positive for its first
    best gt. With ``force_nearest`` each gt in turn claims its first best
    anchor, unless that anchor already holds a gt it scores at least as
    well. Unmatched anchors are ignored (-1) at or above ``lo``, else
    negative (0). The similarity reported is that of the held gt, or the
    anchor's best one.
    """
    num = len(sim)
    best_gt = sim.argmax(axis=1)
    best = sim[np.arange(num), best_gt]
    matched = np.where(best >= hi, best_gt, -1)
    if force_nearest:
        for g in range(sim.shape[1]):
            a = int(sim[:, g].argmax())
            if matched[a] < 0 or sim[a, g] > sim[a, matched[a]]:
                matched[a] = g
                best[a] = sim[a, g]
    labels = np.where(matched >= 0, np.asarray(classes)[matched], 0)
    labels[(matched < 0) & (best >= lo)] = -1
    return labels, matched, best


def perimeter_points(box, n: int) -> np.ndarray:
    """n points clockwise from the top-left corner, n/4 to a side."""
    x0, y0, x1, y1 = box
    per = n // 4
    t = np.arange(per, dtype=float) / per
    return np.concatenate([
        np.column_stack([x0 + t * (x1 - x0), np.full(per, y0)]),
        np.column_stack([np.full(per, x1), y0 + t * (y1 - y0)]),
        np.column_stack([x1 - t * (x1 - x0), np.full(per, y1)]),
        np.column_stack([np.full(per, x0), y1 - t * (y1 - y0)]),
    ])


def distance_to_contour(points: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Euclidean distance from each point to the closed polygon's edges."""
    a = verts
    ab = np.roll(verts, -1, axis=0) - a
    rel = points[:, None, :] - a[None, :, :]
    den = (ab * ab).sum(axis=1)
    t = np.clip((rel * ab[None]).sum(axis=-1) / np.where(den > 0, den, 1.0), 0.0, 1.0)
    diff = rel - t[:, :, None] * ab[None]
    return np.sqrt((diff ** 2).sum(axis=-1)).min(axis=1)


def _check_positive(where: str, anchor_box, stride: float, n: int, contour: np.ndarray,
                    valid, offsets) -> tuple[int, int]:
    if not (isinstance(valid, list) and isinstance(offsets, list)
            and len(valid) == n and len(offsets) == n):
        raise CheckError(f"{where}: positive needs {n} valid flags and offsets")
    points = perimeter_points(anchor_box, n)
    valid = np.asarray(valid, dtype=int)
    offsets = np.asarray(offsets, dtype=float).reshape(n, 2)
    if not np.isin(valid, (0, 1)).all():
        raise CheckError(f"{where}: valid flags must be 0 or 1")
    ok = valid == 1
    if (offsets[~ok] != 0.0).any():
        raise CheckError(f"{where}: an invalid point carries a non-zero offset")
    targets = points + offsets * stride
    far = distance_to_contour(targets[ok], contour) > ON_CONTOUR_TOL
    if far.any():
        bad = np.flatnonzero(ok)[far][0]
        raise CheckError(f"{where}: point {bad} lies off the matched contour")
    per = n // 4
    corners = np.arange(4) * per
    if not ok[corners].all():
        raise CheckError(f"{where}: a corner point is not valid")
    for c in corners:
        near = np.abs(contour - targets[c]).max(axis=1) <= ON_CONTOUR_TOL
        l1 = np.abs(contour - points[c]).sum(axis=1)
        if not (near & (l1 == l1.min())).any():
            raise CheckError(f"{where}: corner {c} does not land on its L1-nearest vertex")
    side = np.arange(n) // per
    axis = side % 2                      # top/bottom cast x, right/left cast y
    cast = ok & (np.arange(n) % per != 0)
    moved = targets[cast, axis[cast]] != points[cast, axis[cast]]
    if moved.any():
        bad = np.flatnonzero(cast)[moved][0]
        raise CheckError(f"{where}: point {bad} left its cast line")
    return n, int(ok.sum())


def check_targets(out_path, corpus_path, pyramid, hi: float, lo: float,
                  force_nearest: bool, summary: dict | None = None) -> dict:
    """Verify every line of a corner-projection mask targets file.

    Checks the header echo, the line count and (image, level, row, col, slot)
    order, each anchor's label, matched gt and similarity exactly, and for
    every positive the corner-projection geometry of each valid point.
    ``summary`` is the command's printed summary; its counts must agree.
    """
    sizes, gts = load_corpus(corpus_path)
    image_ids = sorted(gts)
    counts = {"images": len(image_ids), "anchors": 0, "positives": 0, "negatives": 0,
              "ignores": 0, "skipped_records": 0, "lines": 1}
    points = valid_points = 0
    with open(out_path) as f:
        header = json.loads(f.readline() or "null")
        if not isinstance(header, dict):
            raise CheckError("missing header line")
        expect = {"format": TARGET_FORMAT, "task": "mask", "strategy": "corner-projection",
                  "similarity": "iou", "hi": hi, "lo": lo, "force_nearest": force_nearest,
                  "pyramid": pyramid.header_dict(), "images": image_ids}
        for key, value in expect.items():
            if header.get(key) != value:
                raise CheckError(f"header {key!r} is {header.get(key)!r}, expected {value!r}")
        for image_id in image_ids:
            records = gts[image_id]
            eligible = [g for g in records if g.contour is not None and g.area > 0.0]
            counts["skipped_records"] += len(records) - len(eligible)
            boxes, index = mask_boxes(pyramid, sizes[image_id])
            num = len(boxes)
            if eligible:
                sim = iou(boxes, np.array([g.box for g in eligible]))
                labels, matched, best = label_rule(sim, hi, lo, force_nearest,
                                                   [g.class_id for g in eligible])
            else:
                labels = np.zeros(num, dtype=int)
                matched = np.full(num, -1)
                best = np.zeros(num)
            got = np.empty((num, 8))
            extras = {}
            for a in range(num):
                raw = f.readline()
                if not raw:
                    raise CheckError(f"image {image_id}: file ends after {a} of {num} lines")
                line = json.loads(raw)
                gt = line.get("gt")
                got[a] = (line.get("image"), line.get("level"), line.get("row"),
                          line.get("col"), line.get("slot"), line.get("label"),
                          -1 if gt is None else gt, line.get("sim"))
                if line.get("valid") is not None or line.get("offsets") is not None:
                    extras[a] = (line.get("valid"), line.get("offsets"))
            want = np.column_stack([np.full(num, image_id), index[:, :4], labels, matched, best])
            diff = np.flatnonzero((got != want).any(axis=1))
            if len(diff):
                a = diff[0]
                raise CheckError(f"image {image_id} anchor {a}: got {got[a].tolist()}, "
                                 f"expected {want[a].tolist()}")
            positives = np.flatnonzero(labels > 0)
            if set(extras) != set(positives.tolist()):
                raise CheckError(f"image {image_id}: offsets present on other lines than the positives")
            for a in positives:
                where = f"image {image_id} anchor {a}"
                valid, offsets = extras[a]
                p, v = _check_positive(where, boxes[a], index[a, 4], pyramid.num_points,
                                       eligible[matched[a]].contour, valid, offsets)
                points += p
                valid_points += v
            counts["anchors"] += num
            counts["lines"] += num
            counts["positives"] += len(positives)
            counts["negatives"] += int(np.count_nonzero(labels == 0))
            counts["ignores"] += int(np.count_nonzero(labels < 0))
        if f.readline():
            raise CheckError("lines after the last anchor")
    if summary is not None and summary != counts:
        raise CheckError(f"summary {summary} disagrees with recomputed {counts}")
    return dict(counts, points=points, valid_points=valid_points)


# ---------------------------------------------------------------- coverage

# Clockwise walk of the 17 joints round the unit square: head along the top,
# the figure's left arm down the right edge, legs along the bottom, the right
# arm back up the left edge.
_RECTANGLE_WALK = (4, 2, 0, 1, 3, 5, 7, 9, 11, 13, 15, 16, 14, 12, 10, 8, 6)


def rectangle_shape() -> np.ndarray:
    """17 joints at equal perimeter steps on the square [-0.5, 0.5]^2."""
    pts = np.empty((NUM_JOINTS, 2))
    for i in range(NUM_JOINTS):
        s = i * 4.0 / NUM_JOINTS
        side, t = int(s), s - int(s)
        pts[_RECTANGLE_WALK[i]] = [(-0.5 + t, -0.5), (0.5, -0.5 + t),
                                   (0.5 - t, 0.5), (-0.5, 0.5 - t)][side]
    return pts


def load_modes(path) -> np.ndarray:
    with open(path) as f:
        doc = json.load(f)
    modes = np.asarray(doc["modes"], dtype=float)
    if modes.shape != (int(doc["k"]), NUM_JOINTS, 2):
        raise CheckError(f"mode file {path} has shape {modes.shape}")
    return modes


def pose_levels(pyramid, size, modes: np.ndarray):
    """Per level: (location centers (L, 2), slot joint offsets (S, 17, 2)).

    A slot is (mode, scale, rotation) in that nesting: the mode times the
    level's base, centred on its joint mean, rotated then scaled.
    """
    out = []
    for stride, base in pyramid.levels:
        rows, cols = pyramid.shape(stride, size)
        r, c = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
        centers = np.column_stack([(c.ravel() + 0.5) * stride, (r.ravel() + 0.5) * stride])
        variants = []
        for mode in modes:
            scaled = mode * base
            centred = scaled - scaled.mean(axis=0)
            for s in pyramid.pose_scales:
                for deg in pyramid.pose_rotations:
                    th = math.radians(deg)
                    x, y = centred[:, 0], centred[:, 1]
                    variants.append(np.column_stack([(x * math.cos(th) - y * math.sin(th)) * s,
                                                     (x * math.sin(th) + y * math.cos(th)) * s]))
        out.append((centers, np.stack(variants)))
    return out


def best_oks(levels, gt: Gt) -> float:
    """Highest OKS of any anchor: mean over visible joints of exp(-d^2 / (2 A kappa^2))."""
    vis = gt.keypoints[:, 2] > 0
    joints = gt.keypoints[vis, :2]
    denom = 2.0 * gt.area * KAPPAS2[vis]
    best = 0.0
    for centers, variants in levels:
        rel = variants[None, :, vis, :] + (centers[:, None, None, :] - joints[None, None])
        oks = np.exp(-(rel ** 2).sum(axis=-1) / denom).mean(axis=-1)
        best = max(best, float(oks.max()))
    return best


def _histogram_matches(reported, best: np.ndarray) -> bool:
    """Reported 10-bin histogram of ``best`` on [0, 1], allowing near-edge values either side."""
    clipped = np.clip(best, 0.0, 1.0)
    bins = np.minimum((clipped * 10.0).astype(int), 9)
    edges = np.arange(1, 10) / 10.0
    near = np.abs(clipped[:, None] - edges[None]).min(axis=1) <= EDGE_TOL
    firm = np.bincount(bins[~near], minlength=10)
    loose = np.zeros(10, dtype=int)
    for value in clipped[near]:
        e = int(np.abs(edges - value).argmin())
        loose[e] += 1
        loose[e + 1] += 1
    reported = np.asarray(reported)
    return (len(reported) == 10 and reported.sum() == len(best)
            and bool(((firm <= reported) & (reported <= firm + loose)).all()))


def check_coverage(out_path, corpus_path, pyramid, configs) -> dict:
    """Verify a pose coverage document.

    ``configs`` lists (name, canonical poses) in the order the reports must
    follow. For each, every gt's best OKS over the rebuilt anchors gives
    ``matched_gt_count`` and the histogram, exact except for values within
    EDGE_TOL of COVERAGE_THRESHOLD or a bin edge. Label counts must add up
    to ``anchor_count``.
    """
    sizes, gts = load_corpus(corpus_path)
    with open(out_path) as f:
        reports = json.load(f)["reports"]
    if [r["name"] for r in reports] != [name for name, _ in configs]:
        raise CheckError(f"report names {[r['name'] for r in reports]}")
    anchors = 0
    for report, (name, modes) in zip(reports, configs):
        best, anchor_count, by_size = [], 0, {}
        for image_id in sorted(gts):
            size = sizes[image_id]
            if size not in by_size:
                by_size[size] = pose_levels(pyramid, size, modes)
            levels = by_size[size]
            anchor_count += sum(len(c) * len(v) for c, v in levels)
            for g in gts[image_id]:
                if g.keypoints is not None and (g.keypoints[:, 2] > 0).any() and g.area > 0.0:
                    best.append(best_oks(levels, g))
        best = np.asarray(best)
        sure = np.abs(best - COVERAGE_THRESHOLD) > EDGE_TOL
        matched_lo = int(np.count_nonzero(sure & (best >= COVERAGE_THRESHOLD)))
        matched_hi = matched_lo + int(np.count_nonzero(~sure))
        if report["gt_count"] != len(best):
            raise CheckError(f"{name}: gt_count {report['gt_count']}, expected {len(best)}")
        if not matched_lo <= report["matched_gt_count"] <= matched_hi:
            raise CheckError(f"{name}: matched_gt_count {report['matched_gt_count']}, "
                             f"expected {matched_lo}..{matched_hi}")
        if not _histogram_matches(report["histogram"], best):
            raise CheckError(f"{name}: histogram {report['histogram']} disagrees with the "
                             f"recomputed best OKS values")
        if report["anchor_count"] != anchor_count:
            raise CheckError(f"{name}: anchor_count {report['anchor_count']}, expected {anchor_count}")
        labelled = report["positive_count"] + report["negative_count"] + report["ignore_count"]
        if labelled != anchor_count:
            raise CheckError(f"{name}: labels add up to {labelled}, not {anchor_count}")
        if report["similarity"] != "oks" or report["threshold"] != COVERAGE_THRESHOLD:
            raise CheckError(f"{name}: similarity/threshold echo is wrong")
        anchors += anchor_count
    return {"reports": len(reports), "anchors": anchors}


def main(argv: list[str]) -> int:
    from workloads import COVERAGE_NAMES, WORKLOADS

    w = WORKLOADS[argv[0]]
    corpus_path, out, stdout = argv[1:4]
    try:
        if w.command == "targets":
            summary = json.loads(Path(stdout).read_text().strip().splitlines()[-1])
            check_targets(out, corpus_path, w.pyramid, w.hi, w.lo, w.force_nearest,
                          summary=summary)
            anchors = summary["anchors"]
        else:
            shapes = [np.zeros((1, NUM_JOINTS, 2)), rectangle_shape()[None]]
            shapes += [load_modes(path) for path in argv[4:6]]
            configs = list(zip(COVERAGE_NAMES, shapes))
            anchors = check_coverage(out, corpus_path, w.pyramid, configs)["anchors"]
    except CheckError as err:
        print(f"check failed: {err}", file=sys.stderr)
        return 3
    except Exception:                    # an output the checks cannot read is rejected too
        traceback.print_exc()
        return 3
    print(json.dumps({"anchors": anchors}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
