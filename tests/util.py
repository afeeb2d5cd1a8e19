"""Small builders shared across test modules."""

from __future__ import annotations

import numpy as np

from pointset_anchors.anchors import sample_box_perimeters
from pointset_anchors.geometry import Box, Contour
from pointset_anchors.synthetic import random_convex_polygon, random_star_polygon


def anchor_from_box(box: Box, n: int) -> tuple[np.ndarray, tuple[int, int, int, int]]:
    """(points, corner indices) of the mask anchor whose implicit box is ``box``: a batch of one."""
    points, corners = sample_box_perimeters(box.as_array()[None], n)
    return points[0], corners


def random_box(rng: np.random.Generator, span: float = 100.0,
               min_side: float = 1.0, max_side: float = 60.0) -> Box:
    x0 = rng.uniform(0.0, span)
    y0 = rng.uniform(0.0, span)
    w = rng.uniform(min_side, max_side)
    h = rng.uniform(min_side, max_side)
    return Box(x0, y0, x0 + w, y0 + h)


def random_polygon(rng: np.random.Generator, n_vertices: int,
                   convex: bool) -> Contour:
    center = rng.uniform(30.0, 70.0, 2)
    radii = rng.uniform(8.0, 25.0, 2)
    if convex:
        verts = random_convex_polygon(rng, n_vertices, center, radii)
    else:
        verts = random_star_polygon(rng, n_vertices, center, radii)
    return Contour(verts)
