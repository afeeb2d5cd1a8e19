"""Brute-force references the fast implementations are checked against.

Everything here is deliberately naive: explicit loops, one candidate at a
time, the same tie-break rules the library documents (lowest vertex index,
lowest segment index, input order for equal scores). Keep it slow and
obvious; only ``brute_nms`` broadcasts its pairwise IoU, so that the
acceptance test timing NMS spends its time in the code it checks.
"""

from __future__ import annotations

import json
import math

import numpy as np


def brute_nearest_point(points, vertices):
    """Per point: index and coordinates of the L1-nearest polygon vertex.

    Ties go to the lowest vertex index.
    """
    points = np.asarray(points, dtype=float)
    vertices = np.asarray(vertices, dtype=float)
    indices = []
    targets = []
    for p in points:
        best_idx = -1
        best_dist = np.inf
        for j, v in enumerate(vertices):
            dist = abs(p[0] - v[0]) + abs(p[1] - v[1])
            if dist < best_dist:
                best_dist = dist
                best_idx = j
        indices.append(best_idx)
        targets.append(vertices[best_idx])
    return np.asarray(indices), np.asarray(targets)


def brute_nearest_line(points, vertices):
    """Per point: segment index and clamped projection with minimal distance.

    Segments are the closed edges (v_i, v_{i+1 mod m}); ties go to the lowest
    segment index. Mirrors the library's arithmetic step for step so exact
    ties land identically.
    """
    points = np.asarray(points, dtype=float)
    vertices = np.asarray(vertices, dtype=float)
    m = len(vertices)
    segments = []
    targets = []
    for p in points:
        best_seg = -1
        best_d2 = np.inf
        best_proj = None
        for j in range(m):
            a = vertices[j]
            b = vertices[(j + 1) % m]
            ab = b - a
            denom = ab[0] * ab[0] + ab[1] * ab[1]
            if denom > 0.0:
                t = ((p[0] - a[0]) * ab[0] + (p[1] - a[1]) * ab[1]) / denom
            else:
                t = 0.0
            t = min(1.0, max(0.0, t))
            proj = a + t * ab
            d2 = (p[0] - proj[0]) ** 2 + (p[1] - proj[1]) ** 2
            if d2 < best_d2:
                best_d2 = d2
                best_seg = j
                best_proj = proj
        segments.append(best_seg)
        targets.append(best_proj)
    return np.asarray(segments), np.asarray(targets)


def _iou(box_a, box_b) -> float:
    """IoU of two (x_min, y_min, x_max, y_max) tuples of Python floats."""
    ax0, ay0, ax1, ay1 = box_a
    bx0, by0, bx1, by1 = box_b
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    inter = max(iw, 0.0) * max(ih, 0.0)
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def brute_nms(boxes, scores, classes, iou_threshold: float,
              class_aware: bool = True) -> list[int]:
    """Quadratic greedy NMS over (x_min, y_min, x_max, y_max) boxes.

    Visits candidates by score descending (ties by input index) and keeps one
    iff its IoU with every kept box of the same class is <= the threshold.
    Every pair's IoU is ``_iou``'s arithmetic, broadcast over all pairs at
    once; each candidate is then checked against the whole kept list.
    """
    boxes = np.asarray(boxes, dtype=float).reshape(-1, 4)
    scores = np.asarray(scores, dtype=float).tolist()
    classes = np.asarray(classes, dtype=int)
    (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = boxes.T[:, :, None], boxes.T[:, None, :]
    iw = np.minimum(ax1, bx1) - np.maximum(ax0, bx0)
    ih = np.minimum(ay1, by1) - np.maximum(ay0, by0)
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        overlaps = np.where(union > 0.0, inter / union, 0.0) > iou_threshold
    if class_aware:
        overlaps &= classes[:, None] == classes[None, :]
    kept: list[int] = []
    for i in sorted(range(len(boxes)), key=lambda i: (-scores[i], i)):
        if not overlaps[i, kept].any():
            kept.append(i)
    return kept


def brute_grid_anchors(config, image_size, mode, modes=None) -> np.ndarray:
    """Every anchor of a grid, built one at a time from the ``PyramidConfig`` rules.

    Anchors come in (level, row, col, slot) order; location (row, col) of a
    level with stride s is centred at ((col + 0.5) * s, (row + 0.5) * s) on a
    ceil(height / s) x ceil(width / s) map. A mask anchor is its implicit box
    (x_min, y_min, x_max, y_max): side base * octave, width side * sqrt(aspect),
    height side / sqrt(aspect), centred on the location, with slots in
    (octave, aspect) order; the result is (A, 4). A pose anchor is mode * base,
    moved so its joint centroid (the mean of its joints, summed in joint
    order) sits at the origin, rotated by r degrees and scaled by s about it,
    then centred on the location, with slots in (mode, scale, rotation)
    order; the result is (A, 17, 2).
    """
    width, height = image_size
    anchors = []
    for stride, base in config.levels:
        slots = []
        if mode == "mask":
            for octave in config.octave_scales:
                for aspect in config.aspect_ratios:
                    side = base * octave
                    slots.append((side * math.sqrt(aspect) / 2.0, side / math.sqrt(aspect) / 2.0))
        else:
            for pose in np.asarray(modes, dtype=float).tolist():
                scaled = [(x * base, y * base) for x, y in pose]
                mx = my = 0.0
                for x, y in scaled:
                    mx += x
                    my += y
                mx, my = mx / len(scaled), my / len(scaled)
                for s in config.pose_scales:
                    for r in config.pose_rotations:
                        theta = math.radians(r)
                        cos_t, sin_t = math.cos(theta), math.sin(theta)
                        slots.append([(((x - mx) * cos_t - (y - my) * sin_t) * s,
                                        ((x - mx) * sin_t + (y - my) * cos_t) * s)
                                       for x, y in scaled])
        for row in range(math.ceil(height / stride)):
            for col in range(math.ceil(width / stride)):
                cx, cy = (col + 0.5) * stride, (row + 0.5) * stride
                for slot in slots:
                    if mode == "mask":
                        half_w, half_h = slot
                        anchors.append([cx - half_w, cy - half_h, cx + half_w, cy + half_h])
                    else:
                        anchors.append([[cx + dx, cy + dy] for dx, dy in slot])
    return np.asarray(anchors, dtype=float)


def brute_oks_grid(anchor_joints, gt_joints, gt_visibility, gt_scales, kappas,
                   flush: float) -> np.ndarray:
    """OKS of every (17, 2) anchor against every gt, one pair at a time.

    A visible joint scores
    f(dx^2, d) * f(dy^2, d) with d = 2 * scale * kappa^2 and the per-axis
    flush f(s, d) = 0 if s / d > flush else exp(-s / d); the OKS is the mean
    over visible joints. The width is grouped as (2 * scale) * (kappa^2), as
    the library groups it, so flush decisions at the edge land identically.
    """
    gts = list(zip(np.asarray(gt_joints, dtype=float).tolist(),
                   np.asarray(gt_visibility).tolist(),
                   np.asarray(gt_scales, dtype=float).tolist()))
    kappas = np.asarray(kappas, dtype=float).tolist()

    def f(s, d):
        z = s / d
        return 0.0 if z > flush else math.exp(-z)

    rows = []
    for anchor in np.asarray(anchor_joints, dtype=float).tolist():
        scores = []
        for joints, visibility, scale in gts:
            total = 0.0
            count = 0
            for (ax, ay), (gx, gy), v, kappa in zip(anchor, joints, visibility, kappas):
                if v <= 0:
                    continue
                d = 2.0 * scale * (kappa * kappa)
                dx = ax - gx
                dy = ay - gy
                total += f(dx * dx, d) * f(dy * dy, d)
                count += 1
            scores.append(total / count)
        rows.append(scores)
    return np.asarray(rows).reshape(-1, len(gts))


def brute_assign(similarity, hi: float, lo: float, force_nearest: bool, class_ids):
    """(labels, matched_gt, best) of an (A, G) similarity matrix, one pair at a time.

    An anchor's best gt is the lowest-index gt among equal bests (a later gt
    must be strictly higher, so 0.0 and -0.0 tie), and ``best`` is that gt's
    similarity as stored; the anchor claims it when best >= hi. Under
    ``force_nearest`` the gts then go in index order: each picks its
    lowest-index anchor among equal bests, and claims it when the anchor is
    unclaimed or when the gt's similarity is strictly higher than that of the
    anchor's current owner. A claimed anchor's label is its gt's class id; an
    unclaimed one is ignore (-1) when best >= lo, else negative (0). With no
    gts every anchor is negative, with best 0.0.
    """
    sim = np.asarray(similarity, dtype=float).tolist()
    num_gts = len(class_ids)
    labels, matched, best = [], [], []
    for row in sim:
        top = 0
        for g in range(1, num_gts):
            if row[g] > row[top]:
                top = g
        value = row[top] if num_gts else 0.0
        best.append(value)
        matched.append(top if num_gts and value >= hi else -1)
    if force_nearest:
        for g in range(num_gts):
            top = 0
            for a in range(1, len(sim)):
                if sim[a][g] > sim[top][g]:
                    top = a
            owner = matched[top]
            if owner < 0 or sim[top][g] > sim[top][owner]:
                matched[top] = g
                best[top] = sim[top][g]
    for m, value in zip(matched, best):
        if m >= 0:
            labels.append(int(class_ids[m]))
        else:
            labels.append(-1 if num_gts and value >= lo else 0)
    return (np.asarray(labels, dtype=np.int64), np.asarray(matched, dtype=np.int64),
            np.asarray(best, dtype=float))


def brute_target_line(image, level, row, col, slot, label, gt, sim,
                      scaled=None, valid=None) -> str:
    """One targets line as the dict-per-anchor emitter wrote it.

    A dict per anchor, serialized with ``json.dumps(sort_keys=True)``; a
    positive (label > 0) also carries its stride-scaled offsets and valid
    flags, converted one point at a time.
    """
    line = {
        "image": image,
        "level": level,
        "row": row,
        "col": col,
        "slot": slot,
        "label": label,
        "gt": gt if gt >= 0 else None,
        "sim": sim,
        "valid": None,
        "offsets": None,
    }
    if label > 0:
        line["valid"] = [int(v) for v in valid]
        line["offsets"] = [[float(dx), float(dy)] for dx, dy in scaled]
    return json.dumps(line, sort_keys=True) + "\n"


def brute_corner_projection(points, corner_indices, vertices):
    """Corner point with projection, one anchor point and one segment at a time.

    Returns (targets, valid); invalid rows are zero. Corners take their
    L1-nearest vertex (lowest index on ties) and split the contour into four
    parts in traversal order. Every other point casts an axis-aligned line
    (vertical on the top and bottom sides, horizontal on the right and left)
    and keeps the first intersection with its part at the smallest squared
    distance (strict <). A segment lying on the line offers both endpoints;
    any other segment crosses the line unless both its ends lie strictly on
    one side, decided by signs. A single-vertex part matches only a line
    through its vertex.
    """
    points = np.asarray(points, dtype=float)
    verts = np.asarray(vertices, dtype=float)
    n = len(points)
    m = len(verts)
    ci = corner_indices

    def intersections(coord, axis, p1, p2):
        s1 = p1[axis] - coord
        s2 = p2[axis] - coord
        if s1 == 0.0 and s2 == 0.0:
            return [p1, p2]
        if (s1 > 0.0 and s2 > 0.0) or (s1 < 0.0 and s2 < 0.0):
            return []
        t = s1 / (s1 - s2)
        point = np.empty(2)
        point[axis] = coord
        point[1 - axis] = p1[1 - axis] + t * (p2[1 - axis] - p1[1 - axis])
        return [point]

    corner_vertex, _ = brute_nearest_point(points[list(ci)], verts)
    targets = np.zeros((n, 2))
    valid = np.zeros(n, dtype=bool)
    for corner_pos, vertex_idx in zip(ci, corner_vertex):
        targets[corner_pos] = verts[vertex_idx]
        valid[corner_pos] = True
    for side in range(4):
        start_vertex = int(corner_vertex[side])
        end_vertex = int(corner_vertex[(side + 1) % 4])
        axis = 0 if side % 2 == 0 else 1
        span = (end_vertex - start_vertex) % m
        part = [verts[(start_vertex + j) % m] for j in range(span + 1)]
        last = ci[side + 1] if side < 3 else n
        for i in range(ci[side] + 1, last):
            p = points[i]
            best = None
            best_d2 = np.inf
            if len(part) == 1:
                if part[0][axis] == p[axis]:
                    best = part[0].copy()
                    best_d2 = 0.0
            else:
                for j in range(len(part) - 1):
                    for cand in intersections(p[axis], axis, part[j], part[j + 1]):
                        d2 = float(((cand - p) ** 2).sum())
                        if d2 < best_d2:
                            best = cand
                            best_d2 = d2
            if best is not None:
                targets[i] = best
                valid[i] = True
    return targets, valid


def numpy_kmeans_pp_init(x, k: int, seed: int) -> np.ndarray:
    """k-means++ seeding on ``np.random.default_rng(seed)``: ``integers`` picks
    the first centre, ``choice`` weighted by squared distance to the nearest
    centre picks each next one (``integers`` again when every distance is 0)."""
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[rng.integers(len(x))]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        idx = rng.choice(len(x), p=d2 / total) if total > 0.0 else rng.integers(len(x))
        centroids[c] = x[idx]
        d2 = np.minimum(d2, ((x - centroids[c]) ** 2).sum(axis=1))
    return centroids
