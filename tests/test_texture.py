import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from texturedge import (
    Descriptor,
    Offset,
    QuantizedImage,
    contrast,
    descriptor,
    directional_sum,
    glcm_window,
    offsets_for_distance,
    quantize,
    texture_map_naive,
    texture_map_sliding,
)
from texturedge import refine_mask, segment, texture
from texturedge.errors import TexturedgeError
from texturedge.texture import (
    box_sums,
    decode_texture_map,
    encode_texture_map,
    texture_map_to_gray,
)

ALL_OFFSETS = tuple(offsets_for_distance(1).values())
JOINT_DESCRIPTORS = (Descriptor.ENTROPY, Descriptor.ASM, Descriptor.IDM)

# (plane dtype, extreme entry, box, lane): box area x largest entry magnitude
# either side of each lane's top; a boolean plane's largest entry is 1, and
# a negative entry keeps a signed lane that holds -bound - 1 to bound
LANE_EDGES = [
    (bool, 1, (15, 17), np.uint8), (bool, 1, (16, 16), np.uint16),
    (np.uint8, 17, (3, 5), np.uint8), (np.uint8, 16, (4, 4), np.uint16),
    (np.int32, 4369, (3, 5), np.uint16), (np.int32, 4096, (4, 4), np.uint32),
    (np.int64, 286331153, (3, 5), np.uint32), (np.int64, 2 ** 28, (4, 4), np.uint64),
    (np.int8, -1, (1, 127), np.int8), (np.int8, -1, (2, 64), np.int16),
    (np.int16, -4681, (1, 7), np.int16), (np.int16, -2048, (4, 4), np.int32),
    (np.int64, 1 - 2 ** 31, (1, 1), np.int32), (np.int64, -2 ** 27, (4, 4), np.int64)]


def assert_same_bits(a, b):
    assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


# --- independent oracles -----------------------------------------------------

def oracle_glcm_probabilities(values, region, offset, symmetric=False):
    """Plain-Python pair enumeration, normalized to probabilities."""
    x0, y0, w, h = region
    dx, dy = offset
    counts = {}
    n = 0
    for y in range(y0, y0 + h):
        for x in range(x0, x0 + w):
            xb, yb = x + dx, y + dy
            if x0 <= xb < x0 + w and y0 <= yb < y0 + h:
                pairs = [(int(values[y][x]), int(values[yb][xb]))]
                if symmetric:
                    pairs.append((int(values[yb][xb]), int(values[y][x])))
                for key in pairs:
                    counts[key] = counts.get(key, 0) + 1
                    n += 1
    return counts, n


def oracle_contrast(values, region, offset):
    counts, n = oracle_glcm_probabilities(values, region, offset)
    if n == 0:
        return 0.0
    return sum((i - j) ** 2 * (c / n) for (i, j), c in sorted(counts.items()))


def oracle_texture_map(q, kind, window_side, offset):
    """Per-pixel double loop over the reflect-padded image, composing the
    hand-verified window GLCM with the hand-verified descriptor."""
    pad = window_side // 2
    padded = QuantizedImage(np.pad(q.values, pad, mode="reflect"), q.levels)
    h, w = q.values.shape
    out = np.empty((h, w), dtype=np.float64)
    for y in range(h):
        for x in range(w):
            g = glcm_window(padded, (x, y, window_side, window_side), offset)
            out[y, x] = descriptor(g, kind)
    return out


# --- quantize ----------------------------------------------------------------

class TestQuantize:
    def test_two_levels_split(self):
        img = np.array([[127, 128]], dtype=np.uint8)
        q = quantize(img, 2)
        assert q.values.tolist() == [[0, 1]]

    def test_identity_at_256(self, rng):
        img = rng.integers(0, 256, size=(9, 9), dtype=np.uint8)
        assert np.array_equal(quantize(img, 256).values, img)

    def test_top_value_maps_to_top_level(self):
        assert quantize(np.array([[255]], dtype=np.uint8), 8).values[0, 0] == 7

    # 2**70 overflows the int64 product, so the rule must run before it
    @pytest.mark.parametrize("levels", [0, 1, 257, 2 ** 70])
    def test_levels_out_of_range(self, levels):
        message = f"levels must be in [2, 256], got {levels}"
        with pytest.raises(ValueError, match=re.escape(message)):
            quantize(np.zeros((2, 2), dtype=np.uint8), levels)

    @pytest.mark.parametrize("values,levels,message", [
        (np.zeros((0, 3), dtype=np.uint8), 8, "must be non-empty 2-D"),
        (np.zeros(3, dtype=np.uint8), 8, "must be non-empty 2-D"),
        (np.zeros((2, 2), dtype=np.uint8), 1, "levels must be in [2, 256], got 1"),
        (np.zeros((2, 2), dtype=np.uint8), 257, "levels must be in [2, 256], got 257"),
        (np.full((2, 2), 8, dtype=np.uint8), 8, "must lie in [0, levels)"),
        (np.array([[0, -1]], dtype=np.int64), 8, "must lie in [0, levels)"),
    ])
    def test_direct_construction_is_checked(self, values, levels, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            QuantizedImage(values, levels)

    @given(st.integers(0, 255), st.integers(2, 256))
    @settings(max_examples=120, deadline=None)
    def test_binning_rule(self, v, levels):
        img = np.array([[v]], dtype=np.uint8)
        assert quantize(img, levels).values[0, 0] == (v * levels) // 256


# --- windowed GLCM -----------------------------------------------------------

class TestGlcmWindow:
    def test_hand_enumeration_4x4(self):
        # rows [0,0,1,1] repeated; horizontal offset: 12 pairs, three kinds
        values = np.array([[0, 0, 1, 1]] * 4, dtype=np.uint8)
        q = QuantizedImage(values, 2)
        g = glcm_window(q, (0, 0, 4, 4), Offset(1, 0))
        assert g.dtype == np.int64 and g.shape == (2, 2)
        assert np.array_equal(g, [[4, 4], [0, 4]])

    def test_constant_region(self):
        q = QuantizedImage(np.full((5, 5), 3, dtype=np.uint8), 8)
        g = glcm_window(q, (0, 0, 5, 5), Offset(1, -1))
        assert g[3, 3] == int(g.sum()) == 16

    def test_single_pixel_region(self):
        q = QuantizedImage(np.zeros((3, 3), dtype=np.uint8), 2)
        g = glcm_window(q, (1, 1, 1, 1), Offset(1, 0))
        assert g.shape == (2, 2) and not g.any()

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("dx, dy", [(4, 0), (-4, 0), (0, 3), (0, -3),
                                        (5, 1), (-6, -1), (1, 4), (-1, -5)])
    def test_offset_spanning_the_region_has_no_pairs(self, dx, dy, symmetric):
        # the region is 4 wide and 3 high, inside a larger image
        q = QuantizedImage((np.arange(42, dtype=np.uint8) % 4).reshape(6, 7), 4)
        g = glcm_window(q, (1, 2, 4, 3), Offset(dx, dy), symmetric)
        assert g.shape == (4, 4) and not g.any()
        assert all(descriptor(g, kind) == 0.0 for kind in Descriptor)

    def test_empty_region_error(self):
        q = QuantizedImage(np.zeros((3, 3), dtype=np.uint8), 2)
        with pytest.raises(ValueError, match=re.escape("region (0, 0, 0, 3) is empty")):
            glcm_window(q, (0, 0, 0, 3), Offset(1, 0))

    def test_zero_offset_rejected(self):
        q = QuantizedImage(np.zeros((3, 3), dtype=np.uint8), 2)
        with pytest.raises(ValueError):
            glcm_window(q, (0, 0, 3, 3), Offset(0, 0))

    def test_region_outside_image(self):
        q = QuantizedImage(np.zeros((3, 3), dtype=np.uint8), 2)
        with pytest.raises(ValueError):
            glcm_window(q, (1, 1, 3, 3), Offset(1, 0))

    def test_symmetric_doubles_and_transposes(self, rng):
        values = rng.integers(0, 4, size=(6, 6), dtype=np.uint8)
        q = QuantizedImage(values, 4)
        g = glcm_window(q, (0, 0, 6, 6), Offset(1, 0))
        gs = glcm_window(q, (0, 0, 6, 6), Offset(1, 0), symmetric=True)
        assert np.array_equal(gs, g + g.T)

    def test_matches_oracle_probabilities(self, rng):
        values = rng.integers(0, 8, size=(10, 10), dtype=np.uint8)
        q = QuantizedImage(values, 8)
        for off in ALL_OFFSETS:
            g = glcm_window(q, (1, 2, 7, 7), off)
            counts, n = oracle_glcm_probabilities(values, (1, 2, 7, 7), off)
            for (i, j), c in counts.items():
                assert g[i, j] == c
            assert int(g.sum()) == n


# --- descriptors -------------------------------------------------------------

class TestDescriptors:
    def test_single_cell_degenerate(self):
        g = np.array([[0, 0], [0, 5]])
        assert descriptor(g, "entropy") == 0.0
        assert descriptor(g, "asm") == 1.0
        assert descriptor(g, "idm") == 1.0
        assert contrast(g) == 0.0

    def test_uniform_two_level(self):
        g = np.array([[1, 1], [1, 1]])
        assert descriptor(g, "entropy") == 2.0
        assert descriptor(g, "asm") == 0.25
        assert contrast(g) == 0.5

    def test_diagonal_contrast_zero(self):
        g = np.array([[1, 0], [0, 1]])
        assert contrast(g) == 0.0

    def test_anti_diagonal(self):
        g = np.array([[0, 1], [1, 0]])
        assert contrast(g) == 1.0
        assert descriptor(g, "idm") == 0.5

    def test_contrast_is_contrast_descriptor(self, rng):
        g = rng.integers(0, 9, size=(8, 8))
        assert contrast(g) == descriptor(g, Descriptor.CONTRAST)

    def test_contrast_against_double_sum_oracle(self, rng):
        for _ in range(20):
            values = rng.integers(0, 8, size=(9, 9), dtype=np.uint8)
            q = QuantizedImage(values, 8)
            for off in ALL_OFFSETS:
                got = contrast(glcm_window(q, (1, 1, 7, 7), off))
                want = oracle_contrast(values, (1, 1, 7, 7), off)
                assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("counts, fault", [
        (np.ones((2, 3)), "must be square 2-D, >= 0"),
        (-np.eye(2), "must be square 2-D, >= 0"),
        (np.ones(4), "must be square 2-D, >= 0"),
        (np.ones((2, 2, 2)), "must be square 2-D, >= 0"),
        # cast to int64 these would read 0, 1 or NumPy's undefined value
        (np.full((2, 2), 0.5), "must hold whole numbers, got 0.5"),
        (np.array([[1.9, 0], [0, 1]]), "must hold whole numbers, got 1.9"),
        (np.array([[np.nan, 0], [0, 1]]), "must hold whole numbers, got nan"),
        (np.array([[1, 0], [0, np.inf]]), "must hold whole numbers, got inf"),
        (np.array([[1, -np.inf], [0, 1]]), "must hold whole numbers, got -inf"),
        # past isqrt(2**63 - 1) pairs an int64 sum can wrap: these read ASM
        # 0.0, contrast -511.0, ASM 0.0 unwarned, ASM 1.2e-38 and ASM 0.0
        (np.array([[2**32]]), "must hold <= 3037000499 pairs, got at least 4294967296"),
        (np.pad([[2**50]], ((0, 255), (255, 0))),
         "must hold <= 3037000499 pairs, got at least 1125899906842624"),
        (np.array([[2**63]], dtype=np.uint64),
         "must hold <= 3037000499 pairs, got at least 9223372036854775808"),
        (np.array([[1e30, 0], [0, 1]]), r"must hold <= 3037000499 pairs, got at least 1e\+30"),
        (np.array([[2**62, 0], [0, 2**62]]),
         "must hold <= 3037000499 pairs, got at least 4611686018427387904"),
        (np.array([[1518500250, 0], [0, 1518500250]]),
         "must hold <= 3037000499 pairs, got at least 3037000500$"),
    ], ids=["not-square", "negative", "one-dimensional", "three-dimensional",
            "fractional", "fractional-part", "nan", "inf", "minus-inf", "count-2**32",
            "contrast-past-int64", "uint64-2**63", "float-1e30", "asm-past-int64",
            "sum-past-bound"])
    def test_malformed_count_matrix_is_refused(self, counts, fault):
        for kind in Descriptor:
            with pytest.raises(ValueError, match=f"count matrix {fault}"):
                descriptor(counts, kind)
        with pytest.raises(ValueError, match="count matrix"):
            contrast(counts)

    def test_pair_count_at_the_bound_is_exact(self):
        # 3037000499 pairs in one cell, and 3037000498 in two equal halves
        for kind in Descriptor:
            descriptor(np.array([[3037000499]]), kind)
        assert descriptor(np.array([[3037000499]]), "asm") == 1.0
        assert descriptor(np.array([[1518500249, 0], [0, 1518500249]]), "asm") == 0.5

    def test_entropy_builds_no_table_of_the_pair_count(self):
        # the terms are taken at the matrix's two counts, not gathered from
        # a table of 2 * 10**7 + 1 floats
        tracemalloc.start()
        try:
            value = descriptor([[10**7, 0], [0, 10**7]], "entropy")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 1.0
        assert peak < 2**20

    def test_whole_float_and_boolean_counts_are_counts(self):
        for kind in Descriptor:
            want = descriptor(np.array([[2, 0], [1, 1]]), kind)
            assert descriptor(np.array([[2.0, 0.0], [1.0, 1.0]]), kind) == want
            assert (descriptor(np.eye(2, dtype=bool), kind)
                    == descriptor(np.eye(2, dtype=int), kind))

    @given(st.lists(st.lists(st.integers(0, 20), min_size=4, max_size=4),
                    min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_invariant_ranges(self, counts):
        g = np.array(counts)
        if g.sum() == 0:
            return
        assert contrast(g) >= 0.0
        assert 0.0 < descriptor(g, "asm") <= 1.0
        assert 0.0 < descriptor(g, "idm") <= 1.0
        assert 0.0 <= descriptor(g, "entropy") <= 2.0 * np.log2(len(g))

    @given(st.integers(2, 16).flatmap(
        lambda levels: arrays(np.int64, (levels, levels), elements=st.integers(0, 60))))
    @settings(max_examples=200, deadline=None)
    def test_contrast_and_asm_are_correctly_rounded(self, counts):
        # each is one exact integer sum divided once, so each is the exact
        # quotient rounded to the nearest float
        n = int(counts.sum())
        assume(n > 0)
        cells = [((i - j) ** 2, int(c)) for (i, j), c in np.ndenumerate(counts)]
        assert contrast(counts) == float(Fraction(sum(w * c for w, c in cells), n))
        assert descriptor(counts, "asm") == float(Fraction(sum(c * c for _, c in cells), n * n))

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=40), st.data())
    @settings(max_examples=200, deadline=None)
    def test_entropy_is_a_running_sum_in_code_order(self, counted, data):
        # the cells counted at least once, in code order, placed among zero
        # cells at any positions of any grid large enough to hold them
        n = sum(counted)
        terms = texture._entropy_terms(np.arange(n + 1), n)
        want = 0.0
        for c in counted:
            want += terms[c]
        want /= n
        for _ in range(3):
            levels = data.draw(st.integers(max(2, math.isqrt(len(counted) - 1) + 1), 9))
            cells = data.draw(st.lists(st.integers(0, levels * levels - 1), unique=True,
                                       min_size=len(counted), max_size=len(counted)))
            flat = np.zeros(levels * levels, dtype=np.int64)
            flat[sorted(cells)] = counted
            g = flat.reshape(levels, levels)
            assert descriptor(g, Descriptor.ENTROPY).hex() == want.hex()


def oracle_idm(counts) -> Fraction:
    """Sum over (i, j) of c(i, j) / (1 + (i - j)^2), over the pair count, exactly."""
    total = sum(Fraction(int(c), 1 + (i - j) ** 2)
                for (i, j), c in np.ndenumerate(counts) if c)
    return total / int(counts.sum())


def idm_crops(rng, h, w, levels):
    """Quantized crops in which some gray-level differences never occur:
    random, constant (only d = 0), the two extreme levels (d = 0 and
    levels - 1) and a slow ramp (small d only)."""
    ramp = np.add.outer(np.arange(h), np.arange(w)) * 3
    images = [rng.integers(0, 256, size=(h, w)),
              np.full((h, w), rng.integers(0, 256)),
              np.where(rng.random((h, w)) < 0.5, 0, 255),
              np.clip(ramp, 0, 255)]
    return [quantize(img.astype(np.uint8), levels) for img in images]


class TestIdm:
    def test_descriptor_against_exact_fractions(self, rng):
        for levels in (2, 3, 8, 32, 256):
            for density in (1.0, 0.3, 0.02):
                counts = rng.integers(0, 60, size=(levels, levels))
                counts[rng.random((levels, levels)) >= density] = 0
                counts[0, 0] += 1  # at least one pair
                want = float(oracle_idm(counts))
                got = descriptor(counts, "idm")
                assert abs(got - want) <= 4 * np.spacing(want), (levels, density, got, want)

    @pytest.mark.parametrize("levels, h, w", [(2, 11, 13), (8, 11, 13), (32, 11, 13),
                                              (256, 5, 6)])
    def test_sliding_equals_naive_bit_for_bit(self, levels, h, w, rng):
        offsets = (list(offsets_for_distance(1).values())
                   + list(offsets_for_distance(2).values()))
        for q in idm_crops(rng, h, w, levels):
            for window in (3, 5, 7, 9, 11, 13):
                for off in offsets:
                    assert_same_bits(texture_map_naive(q, Descriptor.IDM, window, off),
                                     texture_map_sliding(q, Descriptor.IDM, window, off))

    def test_constant_crop_is_all_ones(self):
        q = quantize(np.full((9, 8), 77, dtype=np.uint8), 32)
        for off in ALL_OFFSETS:
            for kernel in (texture_map_naive, texture_map_sliding):
                assert (kernel(q, "idm", 5, off) == 1.0).all()

    def test_symmetric_keeps_every_bit(self, rng):
        # a reversed pair has the same |a - b|, doubling every difference
        # count and the pair count
        for levels in (2, 8, 32):
            for q in idm_crops(rng, 14, 12, levels):
                for window in (3, 7):
                    for off in offsets_for_distance(2).values():
                        plain = texture_map_naive(q, Descriptor.IDM, window, off)
                        for kernel, symmetric in [(texture_map_naive, True),
                                                  (texture_map_sliding, False),
                                                  (texture_map_sliding, True)]:
                            assert_same_bits(kernel(q, Descriptor.IDM, window, off, symmetric),
                                             plain)

    @pytest.mark.parametrize("window, offset", [(3, Offset(3, 0)), (3, Offset(5, -1)),
                                                (5, Offset(0, -5)), (7, Offset(-7, -7))])
    def test_offset_that_fits_no_window_gives_zeros(self, window, offset, rng):
        q = quantize(rng.integers(0, 256, size=(10, 12), dtype=np.uint8), 8)
        for kernel in (texture_map_naive, texture_map_sliding):
            for symmetric in (False, True):
                m = kernel(q, Descriptor.IDM, window, offset, symmetric)
                assert m.shape == (10, 12)
                assert_same_bits(m, np.zeros((10, 12)))

    def test_sliding_builds_no_pair_codes(self, rng, monkeypatch):
        q = quantize(rng.integers(0, 256, size=(12, 12), dtype=np.uint8), 8)
        want = texture_map_naive(q, Descriptor.IDM, 5, Offset(1, -1), True)

        def no_codes(*args):
            raise AssertionError("IDM built pair codes")

        monkeypatch.setattr(texture, "_codes", no_codes)
        assert_same_bits(texture_map_sliding(q, Descriptor.IDM, 5, Offset(1, -1), True), want)


# --- box sums ----------------------------------------------------------------

class TestSummedArea:
    """``box_sums``: the sum over every box of a plane, read by all four
    descriptors' maps and by ``segment``'s erosion."""

    @pytest.mark.parametrize("dtype,low,high", [
        (bool, 0, 2), (np.int64, -500, 500), (np.int64, 0, 2 ** 40)])
    def test_box_sums_equal_window_sums(self, dtype, low, high, rng):
        full = rng.integers(low, high, size=(7, 9)).astype(dtype)
        # a contiguous plane, a reversed view and a column-major copy
        for plane in (full, full[::-1, 1:], np.asfortranarray(full)):
            for n_rows in range(1, plane.shape[0] + 1):
                for n_cols in range(1, plane.shape[1] + 1):
                    want = np.lib.stride_tricks.sliding_window_view(
                        plane, (n_rows, n_cols)).sum(axis=(-2, -1))
                    got = box_sums(plane, n_rows, n_cols)
                    assert got.shape == want.shape and np.array_equal(got, want)

    @pytest.mark.parametrize("dtype,top,box,lane", LANE_EDGES, ids=[
        f"{np.dtype(d).name}-{b[0] * b[1] * abs(t)}-{np.dtype(lane).name}"
        for d, t, b, lane in LANE_EDGES])
    def test_narrowest_lane_for_the_box_bound(self, dtype, top, box, lane, rng):
        n_rows, n_cols = box
        shape = (n_rows + 3, n_cols + 4)
        # a plane full of the extreme entry reaches the bound in every box
        extreme = np.full(shape, top, dtype=dtype)
        mixed = (rng.integers(0, 2, size=shape) if dtype is bool else
                 rng.integers(min(top, 0), abs(top) + 1, size=shape)).astype(dtype)
        mixed[1, 2] = top
        for plane in (extreme, mixed, mixed[::-1]):
            want = np.lib.stride_tricks.sliding_window_view(
                plane.astype(np.int64), box).sum(axis=(-2, -1))
            got = box_sums(plane, n_rows, n_cols)
            assert got.dtype == lane and np.array_equal(got, want)

    # (plane, sums) dtypes: an int32 plane of squared differences at most 49
    # (8 levels) summed over a 4 x 4 box in uint16; every box of the maps and
    # of the radius-2 closing holds at most 16 booleans, counted in uint8
    @pytest.mark.parametrize("user,tables", [
        (Descriptor.CONTRAST, {(np.int32, np.uint16)}), (Descriptor.IDM, {(bool, np.uint8)}),
        ("refine_mask", {(bool, np.uint8)}), ("make_overlay", {(bool, np.uint8)}),
        (Descriptor.ENTROPY, {(bool, np.uint8)}), (Descriptor.ASM, {(bool, np.uint8)})])
    def test_maps_and_closing_go_through_box_sums(self, user, tables, rng, monkeypatch):
        q = quantize(rng.integers(0, 256, size=(12, 12), dtype=np.uint8), 8)
        if user == "refine_mask":
            def run():
                return refine_mask(q.values >= 4, (6, 6), close_radius=2)
        elif user == "make_overlay":
            def run():
                return segment.make_overlay(np.zeros((12, 12), np.uint8), q.values >= 4)
        else:
            def run():
                return texture_map_sliding(q, user, 5, Offset(1, -1))
        want = run()
        planes = []

        def recorded(plane, n_rows, n_cols):
            sums = box_sums(plane, n_rows, n_cols)
            planes.append((plane.dtype, sums.dtype))
            return sums

        monkeypatch.setattr(texture, "box_sums", recorded)
        monkeypatch.setattr(segment, "box_sums", recorded)
        assert np.array_equal(run(), want)
        assert planes and set(planes) == {tuple(map(np.dtype, pair)) for pair in tables}

    @pytest.mark.parametrize("kind", [Descriptor.ENTROPY, Descriptor.ASM])
    @pytest.mark.parametrize("symmetric", [False, True])
    def test_joint_maps_count_each_pair_code_that_occurs_once(self, kind, symmetric,
                                                              monkeypatch):
        # a ramp across 32 levels holds few of the 1024 pair codes
        img = (np.add.outer(np.arange(20), 2 * np.arange(24)) * 3).astype(np.uint8)
        q = quantize(img, 32)
        window, (dx, dy) = 5, (1, -1)
        padded = np.pad(q.values, window // 2, mode="reflect").tolist()
        occurring = set()
        for y in range(len(padded)):
            for x in range(len(padded[0])):
                if 0 <= y + dy < len(padded) and 0 <= x + dx < len(padded[0]):
                    i, j = padded[y][x], padded[y + dy][x + dx]
                    occurring |= {(i, j), (j, i)} if symmetric else {(i, j)}
        want = texture_map_naive(q, kind, window, Offset(dx, dy), symmetric)
        calls = []

        def counted(plane, n_rows, n_cols):
            calls.append(plane.shape)
            return box_sums(plane, n_rows, n_cols)

        monkeypatch.setattr(texture, "box_sums", counted)
        assert_same_bits(texture_map_sliding(q, kind, window, Offset(dx, dy), symmetric), want)
        assert 1 < len(calls) == len(occurring) < 32 * 32 // 4


# --- texture maps ------------------------------------------------------------

class TestTextureMaps:
    def test_constant_image_zero_contrast_map(self):
        q = quantize(np.full((12, 12), 90, dtype=np.uint8), 8)
        for off in ALL_OFFSETS:
            for kernel in (texture_map_naive, texture_map_sliding):
                assert not kernel(q, "contrast", 7, off).any()

    def test_two_region_boundary_ridge(self):
        img = np.zeros((16, 16), dtype=np.uint8)
        img[:, 8:] = 255
        q = quantize(img, 2)
        m = texture_map_naive(q, "contrast", 7, Offset(1, 0))
        # positive only on columns within 3 px of the 7|8 boundary
        near = m[:, 5:11]
        far = np.concatenate([m[:, :5], m[:, 11:]], axis=1)
        assert (near > 0).all()
        assert not far.any()

    def test_naive_matches_composition_oracle_exactly(self, rng):
        img = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
        q = quantize(img, 8)
        for kind in ("contrast", "entropy"):
            got = texture_map_naive(q, kind, 7, Offset(1, 0))
            want = oracle_texture_map(q, kind, 7, Offset(1, 0))
            assert np.array_equal(got, want)

    def test_sliding_equals_naive_exactly(self, rng):
        for _ in range(4):
            h, w = rng.integers(10, 40, size=2)
            img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
            for levels in (2, 8, 16):
                q = quantize(img, levels)
                for window in (3, 7):
                    for kind in Descriptor:
                        for off in ALL_OFFSETS:
                            a = texture_map_naive(q, kind, window, off)
                            b = texture_map_sliding(q, kind, window, off)
                            assert np.array_equal(a, b)

    def test_sliding_equals_naive_symmetric(self, rng):
        img = rng.integers(0, 256, size=(21, 17), dtype=np.uint8)
        q = quantize(img, 8)
        for kind in Descriptor:
            for distance in (1, 2):
                for off in offsets_for_distance(distance).values():
                    a = texture_map_naive(q, kind, 5, off, symmetric=True)
                    b = texture_map_sliding(q, kind, 5, off, symmetric=True)
                    assert np.array_equal(a, b), (kind, off)

    def test_sliding_equals_naive_float_bits_at_256_levels(self, rng):
        # full gray resolution: 65536 pair codes per anchor column, the
        # widest row-band histograms the joint path builds
        q = quantize(rng.integers(0, 256, size=(4, 40), dtype=np.uint8), 256)
        for window in (3, 7):
            for symmetric in (False, True):
                for kind in Descriptor:
                    for off in ALL_OFFSETS:
                        a = texture_map_naive(q, kind, window, off, symmetric)
                        b = texture_map_sliding(q, kind, window, off, symmetric)
                        assert np.array_equal(a.view(np.uint64), b.view(np.uint64)), \
                            (window, symmetric, kind, off)

    @given(st.integers(0, 2 ** 32 - 1), st.integers(5, 24), st.integers(5, 24),
           st.sampled_from([2, 8]), st.sampled_from([3, 5]),
           st.sampled_from([2, 8, 64]), st.sampled_from([3, 7, 13]), st.sampled_from([1, 2, 3]))
    @settings(max_examples=25, deadline=None)
    def test_differential_property(self, seed, h, w, levels, window,
                                   contrast_levels, contrast_window, distance):
        img = np.random.default_rng(seed).integers(0, 256, size=(h, w), dtype=np.uint8)
        q = quantize(img, levels)
        for kind in Descriptor:
            for off in ALL_OFFSETS:
                assert np.array_equal(texture_map_naive(q, kind, window, off),
                                      texture_map_sliding(q, kind, window, off))
        # contrast does not read symmetric: a reversed pair adds the same
        # square, doubling both the sum and the pair count
        q = quantize(img, contrast_levels)
        for off in offsets_for_distance(distance).values():
            plain = texture_map_naive(q, Descriptor.CONTRAST, contrast_window, off)
            for kernel, symmetric in [(texture_map_naive, True), (texture_map_sliding, False),
                                      (texture_map_sliding, True)]:
                assert_same_bits(kernel(q, Descriptor.CONTRAST, contrast_window, off, symmetric),
                                 plain)

    def test_rotation_equivariance(self, rng):
        img = rng.integers(0, 256, size=(24, 24), dtype=np.uint8)
        q = quantize(img, 8)
        offs = offsets_for_distance(1)
        m0 = texture_map_naive(q, "contrast", 7, offs[0])
        q_rot = QuantizedImage(np.rot90(q.values).copy(), q.levels)
        m90 = texture_map_naive(q_rot, "contrast", 7, offs[90])
        interior = (slice(4, -4), slice(4, -4))
        assert np.array_equal(np.rot90(m0)[interior], m90[interior])

    def test_window_validation(self, rng):
        q = quantize(rng.integers(0, 256, size=(8, 8), dtype=np.uint8), 8)
        for bad in (2, 4, 1, -3):
            with pytest.raises(ValueError):
                texture_map_naive(q, "contrast", bad, Offset(1, 0))

    @pytest.mark.parametrize("kernel", [texture_map_naive, texture_map_sliding])
    def test_zero_offset_rejected(self, kernel):
        q = quantize(np.zeros((8, 8), dtype=np.uint8), 8)
        with pytest.raises(ValueError, match=re.escape("offset must not be (0, 0)")):
            kernel(q, "contrast", 3, Offset(0, 0))

    @pytest.mark.parametrize("kernel", [texture_map_naive, texture_map_sliding])
    def test_descriptor_is_named_by_its_value(self, kernel, rng):
        q = quantize(rng.integers(0, 256, size=(8, 8), dtype=np.uint8), 8)
        assert np.array_equal(kernel(q, "idm", 3), kernel(q, Descriptor.IDM, 3))
        with pytest.raises(ValueError, match="'CONTRAST' is not a valid Descriptor"):
            kernel(q, "CONTRAST", 3)

    def test_tiny_image_rejected(self):
        q = quantize(np.zeros((1, 10), dtype=np.uint8), 8)
        with pytest.raises(TexturedgeError, match="need both image dimensions >= 2, got 10x1"):
            texture_map_naive(q, "contrast", 3, Offset(1, 0))

    def test_window_larger_than_image_ok(self, rng):
        img = rng.integers(0, 256, size=(4, 5), dtype=np.uint8)
        q = quantize(img, 4)
        a = texture_map_naive(q, "contrast", 9, Offset(1, 0))
        b = texture_map_sliding(q, "contrast", 9, Offset(1, 0))
        assert a.shape == (4, 5) and np.array_equal(a, b)

    def test_offset_beyond_window_gives_zero_map(self, rng):
        img = rng.integers(0, 256, size=(10, 10), dtype=np.uint8)
        q = quantize(img, 4)
        m = texture_map_naive(q, "contrast", 3, Offset(5, 0))
        assert not m.any()
        assert np.array_equal(m, texture_map_sliding(q, "contrast", 3, Offset(5, 0)))

    def test_joint_descriptors_at_the_edge_cases(self, rng):
        small = quantize(rng.integers(0, 256, size=(4, 5), dtype=np.uint8), 4)
        q = quantize(rng.integers(0, 256, size=(10, 10), dtype=np.uint8), 4)
        for kind in JOINT_DESCRIPTORS:
            for symmetric in (False, True):
                # a window larger than the image
                a = texture_map_naive(small, kind, 9, Offset(1, 0), symmetric)
                b = texture_map_sliding(small, kind, 9, Offset(1, 0), symmetric)
                assert a.shape == (4, 5)
                assert_same_bits(a, b)
                # an offset beyond the window: no pairs, a zero map
                m = texture_map_sliding(q, kind, 3, Offset(5, 0), symmetric)
                assert not m.any()
                assert_same_bits(m, texture_map_naive(q, kind, 3, Offset(5, 0), symmetric))

    @pytest.mark.parametrize("levels", [2, 8])
    @pytest.mark.parametrize("crop", ["constant", "two-level", "halves"])
    def test_sliding_equals_naive_at_the_lane_edges(self, crop, levels, rng):
        # windows 13 and 15 hold 143 to 210 pairs: a box count fits uint8 but
        # a symmetric count of equal levels, doubled, passes 255 on the
        # constant and halves crops. The crops hold the top and bottom
        # levels, so the squared differences sum in uint8 at 2 levels and in
        # uint16 at 8 (uint32 at 256: the float-bits test at 256 levels)
        img = {"constant": np.full((30, 30), 255),
               "two-level": np.where(rng.random((30, 30)) < 0.5, 0, 255),
               "halves": np.repeat([[0, 255]], 15, axis=1).repeat(30, axis=0)}[crop]
        q = quantize(img.astype(np.uint8), levels)
        for window in (13, 15):
            for distance in (1, 2):
                for off in offsets_for_distance(distance).values():
                    for kind in Descriptor:
                        for symmetric in (False, True):
                            assert_same_bits(texture_map_sliding(q, kind, window, off, symmetric),
                                             texture_map_naive(q, kind, window, off, symmetric))

    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 40), st.integers(2, 40),
           st.sampled_from([2, 3, 8, 32]), st.sampled_from([3, 5, 9, 13]),
           st.sampled_from([1, 2]), st.booleans(),
           st.sampled_from(["random", "constant", "two-level"]))
    @settings(max_examples=40, deadline=None)
    def test_joint_descriptors_differential(self, seed, h, w, levels, window, distance,
                                            symmetric, pattern):
        # constant and two-level images repeat a pair code within one window,
        # which a buffered scatter (hist[idx] += 1) would count once
        rng = np.random.default_rng(seed)
        if pattern == "random":
            img = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        elif pattern == "constant":
            img = np.full((h, w), rng.integers(0, 256), dtype=np.uint8)
        else:
            img = np.where(rng.random((h, w)) < 0.5, 0, 255).astype(np.uint8)
        q = quantize(img, levels)
        for kind in JOINT_DESCRIPTORS:
            for off in offsets_for_distance(distance).values():
                assert_same_bits(texture_map_naive(q, kind, window, off, symmetric),
                                 texture_map_sliding(q, kind, window, off, symmetric))

    @pytest.mark.parametrize("kind", JOINT_DESCRIPTORS)
    def test_joint_map_memory_is_a_few_window_histograms(self, kind, rng):
        # the bound is four (w, levels^2) int64 histograms; the map holds a
        # few planes of the padded image at a time, and a whole-map
        # (h, w, levels^2) array does not fit
        levels = 32
        q = quantize(rng.integers(0, 256, size=(96, 96), dtype=np.uint8), levels)
        bound = 4 * q.width * levels * levels * 8
        tracemalloc.start()
        try:
            texture_map_sliding(q, kind, 13, Offset(1, -1), symmetric=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)


    @pytest.mark.parametrize("kind", [Descriptor.ENTROPY, Descriptor.ASM])
    def test_joint_map_memory_does_not_grow_with_levels(self, kind):
        # a smooth ramp at 256 levels holds a few hundred of the 65536 pair
        # codes; one (w, levels^2) int64 histogram alone is 64 MiB here
        img = np.add.outer(np.arange(128), np.arange(128)).astype(np.uint8)
        q = quantize(img, 256)
        bound = 16 * img.size * 8
        tracemalloc.start()
        try:
            texture_map_sliding(q, kind, 13, Offset(1, -1), symmetric=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)


class TestDirectionalSum:
    def test_zeros(self):
        zeros = [np.zeros((3, 3)) for _ in range(4)]
        assert not directional_sum(zeros).any()

    def test_pointwise_arithmetic(self):
        maps = []
        for v in (1.0, 2.0, 3.0, 4.0):
            m = np.zeros((3, 3))
            m[1, 2] = v
            maps.append(m)
        total = directional_sum(maps)
        assert total[1, 2] == 10.0 and total.sum() == 10.0

    def test_dimension_mismatch(self):
        maps = [np.zeros((3, 3))] * 3 + [np.zeros((4, 3))]
        with pytest.raises(TexturedgeError, match=r"map shapes differ: \(3, 3\) vs \(4, 3\)"):
            directional_sum(maps)

    def test_requires_exactly_four(self):
        with pytest.raises(ValueError):
            directional_sum([np.zeros((2, 2))] * 3)

    def test_composes_with_per_direction_maps(self, rng):
        img = rng.integers(0, 256, size=(14, 14), dtype=np.uint8)
        q = quantize(img, 8)
        offs = offsets_for_distance(1)
        maps = [texture_map_sliding(q, "contrast", 5, offs[a]) for a in (0, 45, 90, 135)]
        again = [texture_map_naive(q, "contrast", 5, offs[a]) for a in (0, 45, 90, 135)]
        assert np.array_equal(directional_sum(maps), directional_sum(again))


class TestMapSerialization:
    def test_round_trip(self, rng):
        m = rng.random((7, 11)) * 300.0
        assert np.array_equal(decode_texture_map(encode_texture_map(m)), m)

    def test_bad_magic(self):
        with pytest.raises(TexturedgeError, match="not a texture map stream"):
            decode_texture_map(b"NOPE" + bytes(16))

    def test_truncated(self):
        data = encode_texture_map(np.ones((4, 4)))
        with pytest.raises(TexturedgeError, match="has 120 of 128 bytes"):
            decode_texture_map(data[:-8])

    @pytest.mark.parametrize("size", [4, 11])
    def test_short_header_is_truncated(self, size):
        with pytest.raises(TexturedgeError, match="header incomplete"):
            decode_texture_map(encode_texture_map(np.ones((4, 4)))[:size])

    def test_one_dimensional_map_is_refused(self):
        with pytest.raises(ValueError, match="must be non-empty 2-D"):
            encode_texture_map(np.ones(5))

    @pytest.mark.parametrize("width,height", [(0, 4), (4, 0), (0, 0)])
    def test_zero_dimension_is_truncated(self, width, height):
        data = encode_texture_map(np.ones((4, 4)))
        header = data[:4] + width.to_bytes(4, "little") + height.to_bytes(4, "little")
        with pytest.raises(TexturedgeError, match="holds no samples"):
            decode_texture_map(header + data[12:])

    @pytest.mark.parametrize("extra", [8, 40])
    def test_trailing_bytes_are_rejected(self, extra):
        data = encode_texture_map(np.ones((4, 4)))
        with pytest.raises(TexturedgeError, match="has 1[0-9]+ of 128 bytes"):
            decode_texture_map(data + bytes(extra))

    @pytest.mark.parametrize("sample", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_is_rejected(self, sample):
        m = np.ones((4, 4))
        m[2, 1] = sample
        with pytest.raises(TexturedgeError, match="non-finite sample"):
            decode_texture_map(encode_texture_map(m))

    def test_to_gray_scaling(self):
        m = np.array([[0.0, 5.0], [10.0, 10.0]])
        gray, lo, hi = texture_map_to_gray(m)
        assert (lo, hi) == (0.0, 10.0)
        assert gray.tolist() == [[0, 128], [255, 255]]

    def test_to_gray_constant(self):
        gray, lo, hi = texture_map_to_gray(np.full((3, 3), 4.2))
        assert not gray.any() and lo == hi
