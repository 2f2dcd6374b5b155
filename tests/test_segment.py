import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from texturedge import (binarize, circle_mask, otsu_threshold, refine_mask, trace_contour,
                        write_pgm)
from texturedge.errors import InternalInvariantError, TexturedgeError
from texturedge.segment import (
    _close,
    _fill_holes,
    boundary_pixels,
    contours_to_text,
    disk_rectangles,
    make_overlay,
    mask_to_gray,
    read_mask,
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


def oracle_otsu_threshold(texture_map):
    """The per-bin loop that ``otsu_threshold`` ran before its prefix-sum
    form: the reference for its float bits, ties included."""
    a = np.asarray(texture_map, dtype=np.float64)
    lo, hi = float(a.min()), float(a.max())
    norm = (a - lo) / (hi - lo)
    bins = np.minimum((norm * 256.0).astype(np.int64), 255)
    hist = np.bincount(bins.ravel(), minlength=256)
    total = int(hist.sum())
    weighted = hist * np.arange(256, dtype=np.int64)
    sum_total = int(weighted.sum())
    best_k, best_var = 0, -1.0
    w0, s0 = 0, 0
    for k in range(255):
        w0 += int(hist[k])
        s0 += int(weighted[k])
        w1 = total - w0
        if w0 == 0 or w1 == 0:
            continue
        num = float(s0 * total - sum_total * w0)
        var = num * num / (float(w0) * float(w1))
        if var > best_var:
            best_var, best_k = var, k
    return lo + (best_k + 1) * (hi - lo) / 256.0


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


def disk(radius):
    return circle_mask(2 * radius + 1, 2 * radius + 1, radius, radius, radius)


def oracle_close(mask, radius):
    """Closing by the disk through scipy, on the mask padded by ``radius``
    unset pixels so the erosion never meets the array edge."""
    padded = np.pad(mask, radius)
    closed = ndimage.binary_closing(padded, structure=disk(radius))
    return closed[radius:radius + mask.shape[0], radius:radius + mask.shape[1]]


def oracle_boundary_pixels(mask):
    """Mask pixels that scipy's erosion by the 4-neighbour cross removes,
    with everything outside the array unset."""
    cross = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    return mask & ~ndimage.binary_erosion(mask, structure=cross, border_value=0)


def oracle_refine_mask(mask, roi_center, close_radius, fill_holes):
    """``refine_mask`` as it was built from scipy's morphology calls and
    ``center_of_mass``."""
    cx, cy = roi_center
    m = np.asarray(mask, dtype=bool)
    if not m.any():
        return m.copy()
    if close_radius > 0:
        m = oracle_close(m, close_radius)
    if fill_holes:
        m = ndimage.binary_fill_holes(m)
    labels, n = ndimage.label(m, structure=np.ones((3, 3)))
    if n <= 1:
        return m
    centroids = ndimage.center_of_mass(m, labels, range(1, n + 1))
    dists = [(py - cy) ** 2 + (px - cx) ** 2 for py, px in centroids]
    return labels == 1 + int(np.argmin(dists))


_MOORE = ((-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1))


def oracle_moore_trace(comp, start):
    """The clockwise Moore walk over one component's boolean array, one
    bounds check and array read per neighbour test."""
    h, w = comp.shape
    sy, sx = start
    backtrack = 7
    vertices = [(sx, sy)]
    pos = start
    first_state = None
    for _ in range(4 * (int(comp.sum()) + 1) * 8):
        found = None
        for step in range(8):
            k = (backtrack + step) % 8
            dy, dx = _MOORE[k]
            ny, nx = pos[0] + dy, pos[1] + dx
            if 0 <= ny < h and 0 <= nx < w and comp[ny, nx]:
                found = (ny, nx, k)
                break
        if found is None:
            break
        ny, nx, k = found
        pos = (ny, nx)
        backtrack = (k + 5) % 8
        state = (pos, backtrack)
        if first_state is None:
            first_state = state
        elif state == first_state:
            break
        vertices.append((nx, ny))
    else:
        raise InternalInvariantError("boundary trace failed to close")
    if len(vertices) >= 2 and vertices[0] == vertices[-1]:
        vertices.pop()
    if len(vertices) == 1:
        vertices = vertices * 4
    while len(vertices) < 3:
        vertices = vertices + vertices[:1]
    return vertices


def oracle_trace_contour(mask):
    """One ``labels == i`` array per component, walked from its first pixel
    in raster order."""
    labels, n = ndimage.label(mask, structure=np.ones((3, 3)))
    contours = []
    for i in range(1, n + 1):
        comp = labels == i
        contours.append(oracle_moore_trace(comp, divmod(int(np.argmax(comp)), comp.shape[1])))
    return contours


def differential_masks(rng):
    """Random masks of every density, all-set and all-unset masks, and
    single rows and columns."""
    masks = []
    for shape in ((1, 1), (1, 17), (17, 1), (2, 9), (9, 2), (12, 12), (23, 31)):
        masks += [np.zeros(shape, bool), np.ones(shape, bool)]
        masks += [rng.random(shape) > p for p in (0.2, 0.5, 0.8, 0.95)]
    return masks


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
        with pytest.raises(TexturedgeError, match="map is constant; no threshold exists"):
            otsu_threshold(np.full((4, 4), 2.5))

    def test_range_wider_than_a_float_is_degenerate(self):
        # max - min overflows: refused before any arithmetic can warn
        m = np.zeros((20, 20))
        m[0, 0] = -1e308
        m[5:10, 5:10] = 1e308
        with pytest.raises(TexturedgeError, match=r"map range \[-1e\+308, 1e\+308\]"):
            otsu_threshold(m)

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

    @pytest.mark.parametrize("scale", [1.0, 1e-300])
    def test_float_bits_match_loop_oracle(self, scale, rng):
        maps = [
            np.array([[0.0, 1.0]]),  # all 255 splits tie
            np.repeat([0.0, 1.0, 2.0, 3.0], [1, 4, 4, 1])[None, :],  # runs of equal splits
            # a lone minimum and maximum: both end runs of bins are empty
            np.concatenate([[0.0, 1.0], rng.uniform(0.4, 0.6, 62)]).reshape(8, 8),
        ]
        maps += [rng.integers(0, 5, (9, 9)).astype(np.float64) for _ in range(20)]
        maps += [rng.random((12, 12)) * rng.uniform(1, 50) for _ in range(20)]
        for m in maps:
            m = m * scale
            if m.min() < m.max():
                assert otsu_threshold(m).hex() == oracle_otsu_threshold(m).hex()


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

    @pytest.mark.parametrize("center", [(np.nan, np.nan), (np.inf, 3.0), (3.0, -np.inf)])
    def test_non_finite_center_rejected(self, center):
        # with two components every distance would be NaN or inf, and argmin
        # would keep the first component without a word
        m = np.zeros((30, 30), bool)
        m[12:18, 12:18] = True
        m[0:4, 0:4] = True
        for mask in (m, np.zeros((30, 30), bool)):
            with pytest.raises(ValueError, match="roi_center must be finite"):
                refine_mask(mask, center, close_radius=0)

    @pytest.mark.parametrize("radius", range(61))
    def test_disk_is_the_union_of_its_rectangles(self, radius):
        union = np.zeros((2 * radius + 1,) * 2, bool)
        for half_h, half_w in disk_rectangles(radius):
            union[radius - half_h:radius + half_h + 1, radius - half_w:radius + half_w + 1] = True
        assert np.array_equal(union, disk(radius))
        if radius == 3:
            assert disk_rectangles(3) == [(3, 0), (2, 2), (0, 3)]

    @pytest.mark.parametrize("radius", range(1, 10))
    def test_close_matches_scipy_closing(self, radius, rng):
        for m in differential_masks(rng):
            assert np.array_equal(_close(m, radius), oracle_close(m, radius)), (m.shape, radius)

    def test_fill_holes_matches_scipy(self, rng):
        for m in differential_masks(rng) + [ring_mask(), ~ring_mask()]:
            assert np.array_equal(_fill_holes(m), ndimage.binary_fill_holes(m)), m.shape

    @pytest.mark.parametrize("fill_holes", [True, False])
    @pytest.mark.parametrize("radius", range(10))
    def test_matches_scipy_oracle(self, radius, fill_holes, rng):
        for m in differential_masks(rng):
            center = (rng.uniform(0, m.shape[1]), rng.uniform(0, m.shape[0]))
            got = refine_mask(m, center, radius, fill_holes)
            assert got.dtype == bool
            assert np.array_equal(got, oracle_refine_mask(m, center, radius, fill_holes))

    def test_disk_footprint_shape(self):
        # the radius-1 disk is the 4-neighbour cross: a 3x1 and a 1x3 box
        assert disk_rectangles(1) == [(1, 0), (0, 1)]


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

    def test_start_is_first_pixel_in_raster_order(self):
        # the leftmost pixels (x = 1) lie below the top row
        m = np.zeros((5, 6), bool)
        m[1, 3:5] = True
        m[2:4, 1:5] = True
        (c,) = trace_contour(m)
        assert c[0] == (3, 1)
        assert c[1] == (4, 1)

    def test_empty_mask(self):
        assert trace_contour(np.zeros((4, 4), bool)) == []

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_zero_size_mask(self, shape):
        assert trace_contour(np.zeros(shape, bool)) == []
        assert refine_mask(np.zeros(shape, bool), (1, 1)).shape == shape

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

    def test_matches_array_walk_oracle(self, rng):
        masks = differential_masks(rng) + [ring_mask(), ~ring_mask()]
        masks += [refine_mask(m, (6, 6), 3) for m in masks]
        for m in masks:
            assert trace_contour(m) == oracle_trace_contour(m), m.shape

    def test_contours_to_text(self):
        text = contours_to_text([[(1, 2), (3, 4)], [(5, 6)]])
        assert text == "1,2 3,4\n5,6\n"
        assert contours_to_text([]) == ""


class TestRenderHelpers:
    def test_mask_to_gray(self):
        m = np.array([[True, False]])
        assert mask_to_gray(m).tolist() == [[255, 0]]

    def test_read_mask_inverts_mask_to_gray(self, tmp_path):
        m = np.random.default_rng(5).random((9, 7)) > 0.5
        write_pgm(tmp_path / "m.pgm", mask_to_gray(m))
        assert np.array_equal(read_mask(tmp_path / "m.pgm"), m)

    def test_read_mask_names_the_first_other_value(self, tmp_path):
        gray = mask_to_gray(np.eye(4, dtype=bool))
        gray[2, 1], gray[3, 0] = 7, 128
        write_pgm(tmp_path / "m.pgm", gray)
        with pytest.raises(TexturedgeError, match=r"m\.pgm: a mask holds only 0 and 255, found 7$"):
            read_mask(tmp_path / "m.pgm")

    def test_overlay_burns_boundary(self):
        img = np.zeros((7, 7), dtype=np.uint8)
        m = np.zeros((7, 7), bool)
        m[2:5, 2:5] = True
        out = make_overlay(img, m)
        assert out[2, 2] == 255 and out[3, 3] == 0

    def test_boundary_matches_scipy_erosion(self, rng):
        masks = differential_masks(rng) + [ring_mask(), ~ring_mask()]
        masks += [np.zeros(shape, bool) for shape in ((0, 5), (5, 0), (0, 0))]
        for m in masks:
            got = boundary_pixels(m)
            assert got.shape == m.shape and np.array_equal(got, oracle_boundary_pixels(m)), m.shape
