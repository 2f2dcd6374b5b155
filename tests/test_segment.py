import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from texturedge import binarize, otsu_threshold, refine_mask, trace_contour
from texturedge.errors import DegenerateMapError
from texturedge.segment import (
    boundary_pixels,
    contours_to_text,
    disk_footprint,
    make_overlay,
    mask_to_gray,
)


# --- independent oracles -----------------------------------------------------

def oracle_otsu_bin(values):
    """Brute-force between-class-variance sweep over the 256-bin histogram
    of the min-max-normalized values; returns the winning bin index."""
    a = np.asarray(values, dtype=float).ravel()
    lo, hi = a.min(), a.max()
    norm = (a - lo) / (hi - lo)
    bins = np.minimum((norm * 256).astype(int), 255)
    best_k, best_var = 0, -1.0
    for k in range(255):
        left = bins <= k
        w0, w1 = left.sum(), (~left).sum()
        if w0 == 0 or w1 == 0:
            continue
        mu0, mu1 = bins[left].mean(), bins[~left].mean()
        var = w0 * w1 * (mu0 - mu1) ** 2
        if var > best_var:
            best_var, best_k = var, k
    return best_k


def oracle_flood_fill_holes(mask):
    """Complement flood fill (4-connectivity) from the border; anything the
    fill cannot reach is a hole and gets set."""
    m = np.asarray(mask, dtype=bool)
    h, w = m.shape
    outside = np.zeros_like(m)
    stack = [(y, x) for y in range(h) for x in (0, w - 1) if not m[y, x]]
    stack += [(y, x) for x in range(w) for y in (0, h - 1) if not m[y, x]]
    for y, x in stack:
        outside[y, x] = True
    while stack:
        y, x = stack.pop()
        for ny, nx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
            if 0 <= ny < h and 0 <= nx < w and not m[ny, nx] and not outside[ny, nx]:
                outside[ny, nx] = True
                stack.append((ny, nx))
    return m | ~outside


def ring_mask(size=21, center=10, outer=8, inner=6):
    yy, xx = np.mgrid[0:size, 0:size]
    rr = (xx - center) ** 2 + (yy - center) ** 2
    return (rr <= outer ** 2) & (rr >= inner ** 2)


# --- otsu --------------------------------------------------------------------

class TestOtsu:
    def test_bimodal_halves(self):
        m = np.zeros((10, 10))
        m[:, 5:] = 1.0
        t = otsu_threshold(m)
        assert 0.0 < t < 1.0
        assert binarize(m, t).sum() == 50

    def test_constant_map_degenerate(self):
        with pytest.raises(DegenerateMapError):
            otsu_threshold(np.full((4, 4), 2.5))

    def test_bimodal_gaussians_in_band(self, rng):
        vals = np.concatenate([rng.normal(0.2, 0.05, 500), rng.normal(0.8, 0.05, 500)])
        m = vals.reshape(20, 50)
        assert 0.3 <= otsu_threshold(m) <= 0.7

    def test_matches_sweep_oracle_bin(self, rng):
        for _ in range(10):
            m = rng.random((12, 12)) * rng.uniform(1, 50)
            t = otsu_threshold(m)
            lo, hi = m.min(), m.max()
            k = oracle_otsu_bin(m)
            assert t == pytest.approx(lo + (k + 1) * (hi - lo) / 256.0, rel=1e-12)


class TestBinarize:
    def test_below_min_all_true(self):
        m = np.array([[0.3, 0.7]])
        assert binarize(m, 0.1).all()

    def test_above_max_all_false(self):
        m = np.array([[0.3, 0.7]])
        assert not binarize(m, 0.9).any()

    def test_comparison_rule(self):
        assert binarize(np.array([[0.1, 0.9]]), 0.5).tolist() == [[False, True]]

    def test_threshold_must_be_finite(self):
        with pytest.raises(ValueError):
            binarize(np.zeros((2, 2)), float("nan"))

    @given(st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, t1, t2):
        rng = np.random.default_rng(5)
        m = rng.random((8, 8)) * 2 - 1
        lo, hi = min(t1, t2), max(t1, t2)
        high_mask = binarize(m, hi)
        low_mask = binarize(m, lo)
        assert not (high_mask & ~low_mask).any()


# --- refine_mask -------------------------------------------------------------

class TestRefineMask:
    def test_empty_stays_empty(self):
        out = refine_mask(np.zeros((8, 8), bool), (4, 4))
        assert not out.any()

    def test_nearest_centroid_selection(self):
        m = np.zeros((30, 30), bool)
        m[12:18, 12:18] = True
        m[0:4, 0:4] = True
        out = refine_mask(m, (15, 15), close_radius=0, fill_holes=False)
        assert out[14, 14] and not out[1, 1]

    def test_single_component_or_empty(self, rng):
        from scipy import ndimage
        for _ in range(8):
            m = rng.random((24, 24)) > 0.72
            out = refine_mask(m, (12, 12), close_radius=1, fill_holes=True)
            _, n = ndimage.label(out, structure=np.ones((3, 3)))
            assert n <= 1

    def test_ring_gap_closes(self):
        ring = ring_mask()
        ring[10, 17] = ring[10, 18] = False  # punch a gap in the band
        closed = refine_mask(ring, (10, 10), close_radius=2, fill_holes=False)
        # closing bridges the gap: complement flood fill now leaves a hole
        assert oracle_flood_fill_holes(closed).sum() > closed.sum()

    def test_ring_fills_to_disk(self):
        ring = ring_mask()
        filled = refine_mask(ring, (10, 10), close_radius=2, fill_holes=True)
        assert filled[10, 10]
        assert np.array_equal(
            filled,
            oracle_flood_fill_holes(refine_mask(ring, (10, 10), 2, fill_holes=False)))

    def test_output_within_closure_distance(self, rng):
        # without hole filling, nothing may appear farther than close_radius
        # from an input pixel
        radius = 2
        for _ in range(6):
            m = rng.random((20, 20)) > 0.8
            out = refine_mask(m, (10, 10), close_radius=radius, fill_holes=False)
            ys, xs = np.nonzero(m)
            for y, x in zip(*np.nonzero(out)):
                d2 = ((ys - y) ** 2 + (xs - x) ** 2).min()
                assert d2 <= radius * radius

    def test_negative_close_radius_rejected(self):
        m = np.zeros((8, 8), bool)
        m[2:5, 2:5] = True
        for mask in (m, np.zeros((8, 8), bool)):
            with pytest.raises(ValueError, match="close_radius must be >= 0"):
                refine_mask(mask, (3, 3), close_radius=-2)
        assert np.array_equal(refine_mask(m, (3, 3), close_radius=0, fill_holes=False), m)

    def test_disk_footprint_shape(self):
        fp = disk_footprint(1)
        assert fp.tolist() == [[False, True, False], [True, True, True], [False, True, False]]


# --- contour tracing ---------------------------------------------------------

class TestTraceContour:
    def test_single_pixel_degenerate_square(self):
        m = np.zeros((5, 5), bool)
        m[2, 2] = True
        contours = trace_contour(m)
        assert contours == [[(2, 2), (2, 2), (2, 2), (2, 2)]]

    def test_3x3_square_border(self):
        m = np.zeros((6, 6), bool)
        m[1:4, 1:4] = True
        (c,) = trace_contour(m)
        assert len(c) == 8
        assert c[0] == (1, 1)  # topmost-leftmost start
        assert set(c) == {(x, y) for x in (1, 2, 3) for y in (1, 2, 3)} - {(2, 2)}
        # clockwise: the second vertex moves right along the top row
        assert c[1] == (2, 1)

    def test_empty_mask(self):
        assert trace_contour(np.zeros((4, 4), bool)) == []

    def test_two_components_two_contours(self):
        m = np.zeros((8, 8), bool)
        m[1, 1] = True
        m[5:7, 5:7] = True
        assert len(trace_contour(m)) == 2

    def test_vertices_on_boundary_and_adjacent(self, rng):
        for _ in range(6):
            m = rng.random((16, 16)) > 0.6
            boundary = boundary_pixels(m)
            for contour in trace_contour(m):
                assert len(contour) >= 3
                for x, y in contour:
                    assert m[y, x]
                    assert boundary[y, x]
                closed = contour + contour[:1]
                for (x0, y0), (x1, y1) in zip(closed, closed[1:]):
                    assert max(abs(x1 - x0), abs(y1 - y0)) <= 1

    def test_walk_covers_outer_boundary(self, rng):
        # for hole-free components, every boundary pixel must be visited
        from scipy import ndimage
        for _ in range(40):
            m = rng.random((8, 8)) > rng.uniform(0.3, 0.8)
            labels, n = ndimage.label(m, structure=np.ones((3, 3)))
            contours = trace_contour(m)
            assert len(contours) == n
            for i, contour in enumerate(contours, start=1):
                comp = labels == i
                if not (ndimage.binary_fill_holes(comp) == comp).all():
                    continue
                missing = {(x, y) for y, x in zip(*np.nonzero(boundary_pixels(comp)))}
                assert missing <= set(contour)

    def test_contours_to_text(self):
        text = contours_to_text([[(1, 2), (3, 4)], [(5, 6)]])
        assert text == "1,2 3,4\n5,6\n"
        assert contours_to_text([]) == ""


class TestRenderHelpers:
    def test_mask_to_gray(self):
        m = np.array([[True, False]])
        assert mask_to_gray(m).tolist() == [[255, 0]]

    def test_overlay_burns_boundary(self):
        img = np.zeros((7, 7), dtype=np.uint8)
        m = np.zeros((7, 7), bool)
        m[2:5, 2:5] = True
        out = make_overlay(img, m)
        assert out[2, 2] == 255 and out[3, 3] == 0
