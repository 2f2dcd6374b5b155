import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from texturedge import (
    MiasRecord,
    RoiSpec,
    decode_pgm,
    encode_pgm,
    extract_roi,
    mias_to_image_y,
    parse_mias_index,
)
from texturedge.errors import (
    BadMagicError,
    CenterOutOfBoundsError,
    MalformedLineError,
    MaxvalUnsupportedError,
    TexturedgeError,
    TruncatedDataError,
)

# a P2/P5 header of small, zero or negative fields, then arbitrary bytes or
# ASCII integers of any width, ones past int64 included
pgm_streams = st.builds(
    lambda magic, header, tail: magic + b" %d %d %d\n" % header + tail,
    st.sampled_from([b"P2", b"P5"]),
    st.tuples(st.integers(-1, 3), st.integers(-1, 3), st.integers(-1, 300)),
    st.one_of(st.binary(max_size=32),
              st.lists(st.integers() | st.integers(min_value=2 ** 63), max_size=20)
              .map(lambda samples: b" ".join(b"%d" % v for v in samples))))

# lines of index-like tokens mixed with arbitrary text
mias_texts = st.lists(
    st.lists(st.sampled_from(["mdb001", "F", "G", "D", "CIRC", "NORM", "B", "M",
                              "0", "-4", "17", "1e3", "\u0663"]) | st.text(max_size=6),
             max_size=8).map(" ".join),
    max_size=5).map("\n".join)


class TestDecodePgm:
    def test_p5_hand_crafted(self):
        data = b"P5 2 2 255 " + bytes([0, 255, 128, 7])
        img = decode_pgm(data)
        assert img.shape == (2, 2)
        assert img.tolist() == [[0, 255], [128, 7]]

    def test_p2_hand_crafted(self):
        img = decode_pgm(b"P2 1 1 255 42")
        assert img.shape == (1, 1)
        assert img[0, 0] == 42

    def test_p6_rejected(self):
        with pytest.raises(BadMagicError):
            decode_pgm(b"P6 2 2 255 " + bytes(12))

    def test_garbage_rejected(self):
        with pytest.raises(BadMagicError):
            decode_pgm(b"hello world")

    def test_magic_must_be_its_own_token(self):
        with pytest.raises(BadMagicError):
            decode_pgm(b"P5x 1 1 255 \x00")

    def test_header_comments(self):
        data = b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([9, 10])
        assert decode_pgm(data).tolist() == [[9, 10]]

    def test_maxval_over_255(self):
        with pytest.raises(MaxvalUnsupportedError):
            decode_pgm(b"P5 1 1 65535 \x00\x00")

    def test_p5_sample_over_maxval(self):
        with pytest.raises(TruncatedDataError, match="outside"):
            decode_pgm(b"P5\n2 1\n100\n" + bytes([200, 5]))

    def test_truncated_raster(self):
        with pytest.raises(TruncatedDataError):
            decode_pgm(b"P5 4 4 255 " + bytes(7))

    def test_truncated_p2_samples(self):
        with pytest.raises(TruncatedDataError):
            decode_pgm(b"P2 2 2 255 1 2 3")

    def test_newline_separated_header(self):
        data = b"P5\n3 1\n255\n" + bytes([1, 2, 3])
        assert decode_pgm(data).tolist() == [[1, 2, 3]]

    def test_p2_sample_wider_than_int64(self):
        with pytest.raises(TruncatedDataError, match="outside"):
            decode_pgm(b"P2 1 1 255 99999999999999999999999")

    @given(pgm_streams)
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_stream_decodes_or_raises_library_error(self, data):
        try:
            img = decode_pgm(data)
        except TexturedgeError:
            return
        assert img.dtype == np.uint8 and img.ndim == 2


class TestEncodePgm:
    def test_single_pixel_round_trip(self):
        img = np.array([[0]], dtype=np.uint8)
        assert np.array_equal(decode_pgm(encode_pgm(img)), img)

    def test_2x2_round_trip(self):
        img = np.array([[0, 255], [128, 7]], dtype=np.uint8)
        assert np.array_equal(decode_pgm(encode_pgm(img)), img)

    def test_random_64x64_round_trip(self, rng):
        img = rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
        assert np.array_equal(decode_pgm(encode_pgm(img)), img)

    @given(arrays(np.uint8, st.tuples(st.integers(1, 20), st.integers(1, 20))))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, img):
        assert np.array_equal(decode_pgm(encode_pgm(img)), img)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            encode_pgm(np.zeros((0, 3), dtype=np.uint8))


class TestParseMiasIndex:
    def test_circ_line(self):
        recs = parse_mias_index("mdb005 F CIRC B 477 133 30")
        assert recs == [MiasRecord("mdb005", "F", "CIRC", "B", 477, 133, 30)]

    def test_norm_line(self):
        recs = parse_mias_index("mdb003 D NORM")
        assert recs == [MiasRecord("mdb003", "D", "NORM")]
        assert not recs[0].has_geometry

    def test_missing_abnormality_fails(self):
        with pytest.raises(MalformedLineError):
            parse_mias_index("mdb004 D")

    def test_severity_without_geometry(self):
        recs = parse_mias_index("mdb212 G CALC B")
        assert recs[0].severity == "B" and not recs[0].has_geometry

    def test_whole_parse_fails_with_line_number(self):
        text = "mdb001 G CIRC B 535 425 197\nmdb002 X CIRC B 1 2 3\n"
        with pytest.raises(MalformedLineError) as excinfo:
            parse_mias_index(text)
        assert excinfo.value.line_number == 2

    def test_order_preserved_and_duplicates_allowed(self):
        text = "mdb005 F CIRC B 477 133 30\nmdb005 F CIRC B 500 168 26\n"
        recs = parse_mias_index(text)
        assert [r.center_x for r in recs] == [477, 500]

    def test_blank_lines_skipped(self):
        assert len(parse_mias_index("\nmdb003 D NORM\n\n")) == 1

    @pytest.mark.parametrize("line", [
        "mdb001 G CIRC Z 1 2 3",      # bad severity
        "mdb001 G WAT B 1 2 3",       # bad abnormality
        "mdb001 G CIRC B 1 2 0",      # radius must be positive
        "mdb001 G CIRC B 1 2",        # wrong arity
        "mdb001 G CIRC B one 2 3",    # non-integer
        "mdb003 D NORM B",            # NORM carries nothing
    ])
    def test_malformed_variants(self, line):
        with pytest.raises(MalformedLineError):
            parse_mias_index(line)

    @given(mias_texts)
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_parses_or_raises_malformed_line(self, text):
        try:
            records = parse_mias_index(text)
        except MalformedLineError:
            return
        assert all(r.center_x >= 0 and r.center_y >= 0 and r.radius > 0
                   for r in records if r.has_geometry)


class TestRoi:
    def test_basic_crop(self):
        img = np.arange(100 * 100, dtype=np.int64).reshape(100, 100) % 256
        crop = extract_roi(img.astype(np.uint8), RoiSpec(50, 50, 10, 1.0))
        assert crop.image.shape == (20, 20)
        assert (crop.x0, crop.y0) == (40, 40)

    def test_clamped_crop(self):
        img = np.zeros((100, 100), dtype=np.uint8)
        crop = extract_roi(img, RoiSpec(5, 5, 10, 1.0))
        assert crop.image.shape == (15, 15)
        assert (crop.x0, crop.y0) == (0, 0)

    def test_mias_origin_conversion(self):
        assert mias_to_image_y(133, 1024) == 890  # 1024 - 1 - 133
        rec = MiasRecord("mdb005", "F", "CIRC", "B", 477, 133, 30)
        spec = RoiSpec.from_mias(rec, 1024)
        assert (spec.center_x, spec.center_y) == (477, 890)

    def test_huge_margin_crops_whole_image(self):
        # radius * margin is 1e308: the half side is capped before int()
        img = np.arange(30 * 40, dtype=np.int64).reshape(30, 40).astype(np.uint8)
        crop = extract_roi(img, RoiSpec(7, 22, 5, 1e308))
        assert np.array_equal(crop.image, img) and (crop.x0, crop.y0) == (0, 0)

    def test_center_out_of_bounds(self):
        with pytest.raises(CenterOutOfBoundsError):
            extract_roi(np.zeros((10, 10), dtype=np.uint8), RoiSpec(50, 5, 3, 1.0))

    def test_norm_record_has_no_spec(self):
        with pytest.raises(ValueError):
            RoiSpec.from_mias(MiasRecord("mdb003", "D", "NORM"), 1024)

    @given(st.integers(0, 63), st.integers(0, 63), st.integers(1, 40),
           st.floats(1.0, 3.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_crop_bounds_invariant(self, cx, cy, radius, margin):
        img = np.zeros((64, 64), dtype=np.uint8)
        crop = extract_roi(img, RoiSpec(cx, cy, radius, margin))
        limit = 2 * radius * margin + 1
        assert 0 < crop.image.shape[0] <= min(64, limit)
        assert 0 < crop.image.shape[1] <= min(64, limit)
        assert 0 <= crop.x0 and crop.x0 + crop.image.shape[1] <= 64
        assert 0 <= crop.y0 and crop.y0 + crop.image.shape[0] <= 64
