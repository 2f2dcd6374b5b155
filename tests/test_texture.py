import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from texturedge import (
    Descriptor,
    Glcm,
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
from texturedge.errors import (
    DimensionMismatchError,
    EmptyRegionError,
    LevelsOutOfRangeError,
    TruncatedDataError,
    WindowTooLargeError,
)
from texturedge.errors import BadMagicError
from texturedge.texture import (
    decode_texture_map,
    encode_texture_map,
    texture_map_to_gray,
)

ALL_OFFSETS = tuple(offsets_for_distance(1).values())
JOINT_DESCRIPTORS = (Descriptor.ENTROPY, Descriptor.ASM, Descriptor.IDM)


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

    @pytest.mark.parametrize("levels", [0, 1, 257])
    def test_levels_out_of_range(self, levels):
        with pytest.raises(LevelsOutOfRangeError):
            quantize(np.zeros((2, 2), dtype=np.uint8), levels)

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
        assert g.pair_count == 12
        expected = np.array([[1 / 3, 1 / 3], [0.0, 1 / 3]])
        assert np.allclose(g.p, expected, atol=1e-15)

    def test_constant_region(self):
        q = QuantizedImage(np.full((5, 5), 3, dtype=np.uint8), 8)
        g = glcm_window(q, (0, 0, 5, 5), Offset(1, -1))
        assert g.p[3, 3] == 1.0 and g.p.sum() == 1.0

    def test_single_pixel_region(self):
        q = QuantizedImage(np.zeros((3, 3), dtype=np.uint8), 2)
        g = glcm_window(q, (1, 1, 1, 1), Offset(1, 0))
        assert g.pair_count == 0
        assert not g.p.any()

    def test_empty_region_error(self):
        q = QuantizedImage(np.zeros((3, 3), dtype=np.uint8), 2)
        with pytest.raises(EmptyRegionError):
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
        assert gs.pair_count == 2 * g.pair_count
        assert np.array_equal(gs.counts, g.counts + g.counts.T)

    def test_matches_oracle_probabilities(self, rng):
        values = rng.integers(0, 8, size=(10, 10), dtype=np.uint8)
        q = QuantizedImage(values, 8)
        for off in ALL_OFFSETS:
            g = glcm_window(q, (1, 2, 7, 7), off)
            counts, n = oracle_glcm_probabilities(values, (1, 2, 7, 7), off)
            assert g.pair_count == n
            for (i, j), c in counts.items():
                assert g.counts[i, j] == c
            assert int(g.counts.sum()) == n


# --- descriptors -------------------------------------------------------------

def _glcm_from_counts(counts):
    c = np.array(counts, dtype=np.int64)
    return Glcm(c, int(c.sum()))


class TestDescriptors:
    def test_single_cell_degenerate(self):
        g = _glcm_from_counts([[0, 0], [0, 5]])
        assert descriptor(g, "entropy") == 0.0
        assert descriptor(g, "asm") == 1.0
        assert descriptor(g, "idm") == 1.0
        assert contrast(g) == 0.0

    def test_uniform_two_level(self):
        g = _glcm_from_counts([[1, 1], [1, 1]])
        assert descriptor(g, "entropy") == 2.0
        assert descriptor(g, "asm") == 0.25
        assert contrast(g) == 0.5

    def test_diagonal_contrast_zero(self):
        g = _glcm_from_counts([[1, 0], [0, 1]])
        assert contrast(g) == 0.0

    def test_anti_diagonal(self):
        g = _glcm_from_counts([[0, 1], [1, 0]])
        assert contrast(g) == 1.0
        assert descriptor(g, "idm") == 0.5

    def test_contrast_is_contrast_descriptor(self, rng):
        c = rng.integers(0, 9, size=(8, 8))
        g = Glcm(c.astype(np.int64), int(c.sum()))
        assert contrast(g) == descriptor(g, Descriptor.CONTRAST)

    def test_contrast_against_double_sum_oracle(self, rng):
        for _ in range(20):
            values = rng.integers(0, 8, size=(9, 9), dtype=np.uint8)
            q = QuantizedImage(values, 8)
            for off in ALL_OFFSETS:
                got = contrast(glcm_window(q, (1, 1, 7, 7), off))
                want = oracle_contrast(values, (1, 1, 7, 7), off)
                assert got == pytest.approx(want, abs=1e-12)

    @given(st.lists(st.lists(st.integers(0, 20), min_size=4, max_size=4),
                    min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_invariant_ranges(self, counts):
        g = _glcm_from_counts(counts)
        if g.pair_count == 0:
            return
        assert abs(g.p.sum() - 1.0) <= 1e-9
        assert contrast(g) >= 0.0
        assert 0.0 < descriptor(g, "asm") <= 1.0
        assert 0.0 < descriptor(g, "idm") <= 1.0
        assert 0.0 <= descriptor(g, "entropy") <= 2.0 * np.log2(g.levels)


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
           st.sampled_from([2, 8]), st.sampled_from([3, 5]))
    @settings(max_examples=25, deadline=None)
    def test_differential_property(self, seed, h, w, levels, window):
        img = np.random.default_rng(seed).integers(0, 256, size=(h, w), dtype=np.uint8)
        q = quantize(img, levels)
        for kind in Descriptor:
            for off in ALL_OFFSETS:
                assert np.array_equal(texture_map_naive(q, kind, window, off),
                                      texture_map_sliding(q, kind, window, off))

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

    def test_tiny_image_rejected(self):
        q = quantize(np.zeros((1, 10), dtype=np.uint8), 8)
        with pytest.raises(WindowTooLargeError):
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
        # one (w, levels^2) int64 histogram and one float term buffer fit;
        # a (columns, levels^2) scan per row or a whole-map (h, w, levels^2)
        # array does not
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
        with pytest.raises(DimensionMismatchError):
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
        with pytest.raises(BadMagicError):
            decode_texture_map(b"NOPE" + bytes(16))

    def test_truncated(self):
        data = encode_texture_map(np.ones((4, 4)))
        with pytest.raises(TruncatedDataError):
            decode_texture_map(data[:-8])

    @pytest.mark.parametrize("width,height", [(0, 4), (4, 0), (0, 0)])
    def test_zero_dimension_is_truncated(self, width, height):
        data = encode_texture_map(np.ones((4, 4)))
        header = data[:4] + width.to_bytes(4, "little") + height.to_bytes(4, "little")
        with pytest.raises(TruncatedDataError, match="holds no samples"):
            decode_texture_map(header + data[12:])

    @pytest.mark.parametrize("extra", [8, 40])
    def test_trailing_bytes_are_rejected(self, extra):
        data = encode_texture_map(np.ones((4, 4)))
        with pytest.raises(TruncatedDataError, match="has 1[0-9]+ of 128 bytes"):
            decode_texture_map(data + bytes(extra))

    @pytest.mark.parametrize("sample", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_is_rejected(self, sample):
        m = np.ones((4, 4))
        m[2, 1] = sample
        with pytest.raises(TruncatedDataError, match="non-finite sample"):
            decode_texture_map(encode_texture_map(m))

    def test_to_gray_scaling(self):
        m = np.array([[0.0, 5.0], [10.0, 10.0]])
        gray, lo, hi = texture_map_to_gray(m)
        assert (lo, hi) == (0.0, 10.0)
        assert gray.tolist() == [[0, 128], [255, 255]]

    def test_to_gray_constant(self):
        gray, lo, hi = texture_map_to_gray(np.full((3, 3), 4.2))
        assert not gray.any() and lo == hi
