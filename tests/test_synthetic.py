import numpy as np
import pytest

from pointset_anchors.datasets import parse_annotations
from pointset_anchors.errors import PointSetError
from pointset_anchors.geometry import signed_area
from pointset_anchors.synthetic import (
    CORPUS_CONTOURS,
    CORPUS_POSES,
    POSE_PROTOTYPES,
    generate_synthetic_corpus,
    random_convex_polygon,
    random_star_polygon,
    save_corpus,
)


def _cross_signs(vertices: np.ndarray) -> np.ndarray:
    a = np.roll(vertices, -1, axis=0) - vertices
    b = np.roll(a, -1, axis=0)
    return np.sign(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])


class TestPolygonGenerators:
    def test_convex_polygon_is_convex(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 30))
            vertices = random_convex_polygon(rng, n, (50.0, 50.0), (20.0, 12.0))
            assert vertices.shape == (n, 2)
            signs = _cross_signs(vertices)
            assert (signs >= 0).all() or (signs <= 0).all()

    def test_star_polygon_usually_concave(self, rng):
        concave = 0
        for _ in range(20):
            vertices = random_star_polygon(rng, 16, (50.0, 50.0), (20.0, 20.0))
            signs = _cross_signs(vertices)
            if (signs > 0).any() and (signs < 0).any():
                concave += 1
        assert concave >= 15

    def test_polygons_have_positive_area(self, rng):
        for n in (3, 5, 12):
            for maker in (random_convex_polygon, random_star_polygon):
                vertices = maker(rng, n, (40.0, 40.0), (15.0, 15.0))
                assert abs(signed_area(vertices)) > 0.0


class TestContourCorpus:
    def test_seed_determinism(self):
        a = generate_synthetic_corpus(CORPUS_CONTOURS, 20, seed=7)
        b = generate_synthetic_corpus(CORPUS_CONTOURS, 20, seed=7)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.contours[0].vertices, rb.contours[0].vertices)
        c = generate_synthetic_corpus(CORPUS_CONTOURS, 20, seed=8)
        assert not np.array_equal(a[0].contours[0].vertices, c[0].contours[0].vertices)

    def test_convex_flag(self, rng):
        records = generate_synthetic_corpus(CORPUS_CONTOURS, 30, seed=1, convex=True)
        for record in records:
            signs = _cross_signs(record.contours[0].vertices)
            assert (signs >= 0).all() or (signs <= 0).all()

    def test_shapes_stay_inside_image(self):
        records = generate_synthetic_corpus(
            CORPUS_CONTOURS, 60, seed=3, image_size=(200, 160)
        )
        for record in records:
            assert not record.out_of_bounds
            v = record.contours[0].vertices
            assert v.min() >= 0.0
            assert v[:, 0].max() <= 200.0 and v[:, 1].max() <= 160.0

    def test_bbox_matches_contour(self):
        records = generate_synthetic_corpus(CORPUS_CONTOURS, 5, seed=2)
        for record in records:
            assert record.bbox == record.contours[0].bounds()

    def test_image_grouping(self):
        records = generate_synthetic_corpus(
            CORPUS_CONTOURS, 6, seed=0, instances_per_image=3
        )
        assert [r.image_id for r in records] == [1, 1, 1, 2, 2, 2]

    def test_too_small_image_raises(self):
        with pytest.raises(PointSetError, match="too small"):
            generate_synthetic_corpus(CORPUS_CONTOURS, 1, image_size=(64, 64))


class TestPoseCorpus:
    def test_seed_determinism(self):
        a = generate_synthetic_corpus(CORPUS_POSES, 15, seed=9, jitter=1.0)
        b = generate_synthetic_corpus(CORPUS_POSES, 15, seed=9, jitter=1.0)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.keypoints, rb.keypoints)

    def test_clean_corpus_fully_visible(self):
        records = generate_synthetic_corpus(CORPUS_POSES, 25, seed=4)
        for record in records:
            assert record.visible_mask().all()
            assert record.has_keypoints

    def test_truncation_patterns_respected(self):
        records = generate_synthetic_corpus(
            CORPUS_POSES, 300, seed=5, truncation=0.5
        )
        partial = [r for r in records if not r.visible_mask().all()]
        assert 100 <= len(partial) <= 200
        for record in partial:
            assert record.visible_mask().sum() >= 3
            # hidden joints carry zeroed coordinates
            hidden = ~record.visible_mask()
            assert np.abs(record.keypoints[hidden, :2]).max() == 0.0

    def test_dropout_keeps_min_visible(self):
        records = generate_synthetic_corpus(
            CORPUS_POSES, 200, seed=6, dropout=0.85, min_visible=3
        )
        for record in records:
            assert record.visible_mask().sum() >= 3

    def test_bbox_spans_all_joints_even_hidden(self):
        records = generate_synthetic_corpus(
            CORPUS_POSES, 100, seed=7, truncation=1.0
        )
        # visible subsets are strictly inside the full-figure box for at
        # least some records: the box covers hidden joints too
        strict = 0
        for record in records:
            vis = record.visible_mask()
            pts = record.keypoints[vis, :2]
            b = record.bbox
            assert pts[:, 0].min() >= b.x_min - 1e-9
            assert pts[:, 1].max() <= b.y_max + 1e-9
            span = (pts[:, 0].max() - pts[:, 0].min()) * (pts[:, 1].max() - pts[:, 1].min())
            if span < 0.9 * b.area:
                strict += 1
        assert strict > 0

    def test_prototype_count_validated(self):
        with pytest.raises(PointSetError, match="n_prototypes"):
            generate_synthetic_corpus(CORPUS_POSES, 1, n_prototypes=99)

    def test_prototypes_are_normalized(self):
        for proto in POSE_PROTOTYPES:
            assert proto.shape == (17, 2)
            assert np.isfinite(proto).all()
            # unit max extent, centered at the bbox midrange
            midrange = (proto.min(axis=0) + proto.max(axis=0)) / 2.0
            assert np.allclose(midrange, 0.0, atol=1e-9)
            assert np.ptp(proto, axis=0).max() == pytest.approx(1.0)

    def test_bad_kind_and_count(self):
        with pytest.raises(PointSetError, match="unknown corpus kind"):
            generate_synthetic_corpus("voxels", 1)
        with pytest.raises(PointSetError, match="count"):
            generate_synthetic_corpus(CORPUS_POSES, 0)


class TestCocoRoundTrip:
    def test_contour_corpus_round_trips_through_parser(self, tmp_path):
        records = generate_synthetic_corpus(CORPUS_CONTOURS, 12, seed=11)
        path = tmp_path / "corpus.json"
        save_corpus(records, path)
        parsed = parse_annotations(path)
        assert len(parsed.records) == 12
        assert parsed.stats.dropped_polygons == 0
        for orig, back in zip(records, parsed.records):
            # the document keeps [x, y, w, h], so max corners reassemble
            # through one addition and may differ in the last ulp
            assert back.bbox.x_min == orig.bbox.x_min
            assert back.bbox.y_min == orig.bbox.y_min
            assert back.bbox.x_max == pytest.approx(orig.bbox.x_max, rel=1e-12)
            assert back.bbox.y_max == pytest.approx(orig.bbox.y_max, rel=1e-12)
            assert np.array_equal(back.contours[0].vertices, orig.contours[0].vertices)

    def test_pose_corpus_round_trips_through_parser(self, tmp_path):
        records = generate_synthetic_corpus(
            CORPUS_POSES, 12, seed=11, truncation=0.4
        )
        path = tmp_path / "corpus.json"
        save_corpus(records, path)
        parsed = parse_annotations(path)
        assert len(parsed.records) == 12
        for orig, back in zip(records, parsed.records):
            assert np.array_equal(back.keypoints, orig.keypoints)
            assert back.image_size == orig.image_size

    def test_save_is_byte_deterministic(self, tmp_path):
        records = generate_synthetic_corpus(CORPUS_POSES, 5, seed=2)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_corpus(records, p1)
        save_corpus(records, p2)
        assert p1.read_bytes() == p2.read_bytes()
