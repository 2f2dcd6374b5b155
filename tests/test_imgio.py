import re
import sys
import time

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
from texturedge.errors import MalformedLineError, TexturedgeError
from texturedge.imgio import _header_int

# a P2/P5 header of small, zero or negative fields, then arbitrary bytes or
# ASCII integers of any width, ones past int64 included
pgm_streams = st.builds(
    lambda magic, header, tail: magic + b" %d %d %d\n" % header + tail,
    st.sampled_from([b"P2", b"P5"]),
    st.tuples(st.integers(-1, 3), st.integers(-1, 3), st.integers(-1, 300)),
    st.one_of(st.binary(max_size=32),
              st.lists(st.integers() | st.integers(min_value=2 ** 63), max_size=20)
              .map(lambda samples: b" ".join(b"%d" % v for v in samples))))

# every whitespace byte, comments, ``#`` ending a token, and odd fields: signs,
# underscores, NUL bytes, integers past int64
_SEPARATORS = st.lists(st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"] * 3
                                       + [b"", b"#", b"#\n", b"# 1 2\n", b"#x\r"]),
                       min_size=1, max_size=2).map(b"".join)
_ODD_FIELDS = [b"-1", b"+2", b"1_0", b"2#5", b"\x00", b"2\x00", b"P5", b"0255",
               b"99999999999999999999999"]


@st.composite
def pgm_like_streams(draw):
    """A magic, three header fields and up to 8 samples, each after a drawn
    separator, then a tail of raw bytes, the whole maybe cut short."""
    parts = [draw(st.sampled_from([b"P2", b"P5"] * 3 + [b"P5x", b"P2#"]))]
    side = st.sampled_from([b"1", b"2", b"3"] * 6 + _ODD_FIELDS)
    header = [draw(side), draw(side), draw(st.sampled_from([b"255"] * 18 + _ODD_FIELDS))]
    samples = draw(st.lists(st.sampled_from(_ODD_FIELDS) | st.integers(0, 300).map(b"%d".__mod__),
                            max_size=8))
    for field in header + samples:
        parts += [draw(_SEPARATORS), field]
    data = b"".join(parts) + draw(_SEPARATORS) + draw(st.binary(max_size=8))
    return data[:draw(st.sampled_from([None] * 4) | st.integers(0, len(data)))]


_WHITESPACE = frozenset(b" \t\n\r\x0b\x0c")


def oracle_fields(data: bytes, count: int) -> tuple[list[bytes], int]:
    """The byte-at-a-time tokenizer ``decode_pgm`` once used: *count* fields,
    honoring ``#`` comments, and the offset one byte past the whitespace
    that ends the last field."""
    fields: list[bytes] = []
    i, n = 0, len(data)
    while len(fields) < count:
        while i < n and data[i] in _WHITESPACE:
            i += 1
        if i < n and data[i] == 0x23:  # '#'
            while i < n and data[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < n and data[i] not in _WHITESPACE and data[i] != 0x23:
            i += 1
        if i == start:
            raise TexturedgeError("header ended early")
        fields.append(data[start:i])
    if i < n and data[i] in _WHITESPACE:
        i += 1
    return fields, i


def oracle_decode(data: bytes) -> np.ndarray:
    """``decode_pgm`` as it read fields through ``oracle_fields``."""
    if len(data) < 2 or data[:2] not in (b"P2", b"P5"):
        raise TexturedgeError(f"not a P2/P5 PGM stream (starts with {data[:2]!r})")
    fields, pos = oracle_fields(data, 4)
    if fields[0] != data[:2]:
        raise TexturedgeError(f"malformed magic token {fields[0]!r}")
    width, height, maxval = (_header_int(f, what)
                             for f, what in zip(fields[1:], ("width", "height", "maxval")))
    if maxval != 255:
        raise TexturedgeError(f"maxval {maxval} not supported (must be 255)")
    if width < 1 or height < 1:
        raise TexturedgeError(f"invalid header: width={width} height={height} maxval={maxval}")
    n = width * height
    if data[:2] == b"P5":
        raster = data[pos:pos + n]
        if len(raster) < n:
            raise TexturedgeError(f"raster has {len(raster)} of {n} bytes")
        return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    try:
        samples, _ = oracle_fields(data[pos:], n)
    except TexturedgeError:
        raise TexturedgeError(f"fewer than {n} ASCII samples") from None
    values = [_header_int(tok, "sample") for tok in samples]
    if min(values) < 0 or max(values) > 255:
        raise TexturedgeError("sample value outside [0, maxval]")
    return np.array(values, dtype=np.uint8).reshape(height, width)


def decode_outcome(decode, data: bytes):
    try:
        return decode(data)
    except TexturedgeError as exc:
        return str(exc)


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
        with pytest.raises(TexturedgeError, match="not a P2/P5 PGM stream"):
            decode_pgm(b"P6 2 2 255 " + bytes(12))

    def test_garbage_rejected(self):
        with pytest.raises(TexturedgeError, match="not a P2/P5 PGM stream"):
            decode_pgm(b"hello world")

    def test_magic_must_be_its_own_token(self):
        with pytest.raises(TexturedgeError, match="malformed magic token b'P5x'"):
            decode_pgm(b"P5x 1 1 255 \x00")

    def test_header_comments(self):
        data = b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([9, 10])
        assert decode_pgm(data).tolist() == [[9, 10]]

    def test_maxval_over_255(self):
        with pytest.raises(TexturedgeError, match=re.escape("maxval 65535 not supported")):
            decode_pgm(b"P5 1 1 65535 \x00\x00")

    def test_p5_sample_over_maxval(self):
        # the maxval itself is refused, so no sample is read against it
        with pytest.raises(TexturedgeError, match=re.escape("maxval 100 not supported")):
            decode_pgm(b"P5\n2 1\n100\n" + bytes([200, 5]))

    @pytest.mark.parametrize("data, maxval", [
        (b"P5 2 1 100 " + bytes([100, 5]), 100),  # white would read as dark gray
        (b"P2 2 1 15 15 0", 15),
        (b"P5 1 1 0 \x00", 0),
    ])
    def test_maxval_other_than_255_refused(self, data, maxval):
        with pytest.raises(TexturedgeError,
                           match=re.escape(f"maxval {maxval} not supported (must be 255)")):
            decode_pgm(data)

    def test_truncated_raster(self):
        with pytest.raises(TexturedgeError, match="raster has 7 of 16 bytes"):
            decode_pgm(b"P5 4 4 255 " + bytes(7))

    def test_truncated_p2_samples(self):
        with pytest.raises(TexturedgeError, match="fewer than 4 ASCII samples"):
            decode_pgm(b"P2 2 2 255 1 2 3")

    def test_newline_separated_header(self):
        data = b"P5\n3 1\n255\n" + bytes([1, 2, 3])
        assert decode_pgm(data).tolist() == [[1, 2, 3]]

    def test_p2_sample_wider_than_int64(self):
        with pytest.raises(TexturedgeError, match="outside"):
            decode_pgm(b"P2 1 1 255 99999999999999999999999")

    # int() refuses strings of more than its digit limit (4,300 by default,
    # 640 at the least); 640 stands for an interpreter set to that least
    @pytest.mark.parametrize("digit_limit", [None, 640])
    def test_header_fields_are_read_by_value_whatever_the_digit_limit(self, digit_limit):
        saved = sys.get_int_max_str_digits()
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)
        try:
            assert decode_pgm(b"P5 " + b"0" * 4300 + b"1 1 255 \x00").tolist() == [[0]]
            assert decode_pgm(b"P5 1 1 " + b"0" * 4400 + b"255 \x09").tolist() == [[9]]
            assert decode_pgm(b"P2 1 " + b"0" * 700 + b"2 255 3 4").tolist() == [[3], [4]]
            # wider than int64, the width saturates as strtoll saturates a P2
            # sample, and the raster is then too short for it
            for width in (b"7" * 30, b"7" * 4400, b"0" * 4400 + b"7" * 4400):
                with pytest.raises(TexturedgeError,
                                   match="^raster has 1 of 9223372036854775807 bytes$"):
                    decode_pgm(b"P5 " + width + b" 1 255 \x00")
            with pytest.raises(TexturedgeError,
                               match=re.escape("maxval 9223372036854775807 not supported")):
                decode_pgm(b"P5 1 1 " + b"9" * 4400 + b" \x00")
            with pytest.raises(TexturedgeError, match="^invalid header: width=-9223372036854775808 "):
                decode_pgm(b"P2 -" + b"9" * 4400 + b" 1 255 0")
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("raster, want", [
        (b"007 -0 255", [7, 0, 255]),
        (b"1 # a comment 9 9\n2\t3", [1, 2, 3]),
        (b"1#2 9\n2 3", [1, 2, 3]),
        (b"1 2 3 x-y #4", [1, 2, 3]),  # fields past the last sample are not read
        (b"0" * 4400 + b"7 1 2", [7, 1, 2]),  # longer than int()'s digit limit
    ])
    def test_p2_samples_decode(self, raster, want):
        assert decode_pgm(b"P2 3 1 255 " + raster).tolist() == [want]

    @pytest.mark.parametrize("raster, message", [
        (b"x 2 3", "non-numeric sample field b'x'"),
        (b"1 2 3x", "non-numeric sample field b'3x'"),
        (b"1 -2- 3x", "non-numeric sample field b'-2-'"),
        (b"1 - 3", "non-numeric sample field b'-'"),
        (b"1 --2 3", "non-numeric sample field b'--2'"),
        (b"1 2-3 4", "non-numeric sample field b'2-3'"),
        (b"1 2 " + b"9" * 25, "sample value outside [0, maxval]"),
        (b"1 -" + b"9" * 25 + b" 2", "sample value outside [0, maxval]"),
        (b"1 2 " + b"9" * 4400, "sample value outside [0, maxval]"),
        (b"1 2 256", "sample value outside [0, maxval]"),
        (b"1 2", "fewer than 3 ASCII samples"),
    ])
    def test_p2_sample_refusals(self, raster, message):
        with pytest.raises(TexturedgeError, match=re.escape(message)):
            decode_pgm(b"P2 3 1 255 " + raster)

    @pytest.mark.parametrize("data", [
        b"P5 1_0 1 2_5_5 " + bytes(10),  # int() reads 1_0 as 10
        b"P2 2 1 255 +7 0_1",
    ])
    def test_integer_fields_are_plain_decimal(self, data):
        with pytest.raises(TexturedgeError, match="non-numeric"):
            decode_pgm(data)

    @pytest.mark.parametrize("data, message", [
        (b"P5 -1 1 255 ", "invalid header: width=-1"),
        (b"P2 2 1 255 7 -1", r"sample value outside \[0, maxval\]"),
    ])
    def test_negative_fields_keep_their_messages(self, data, message):
        with pytest.raises(TexturedgeError, match=message):
            decode_pgm(data)

    @given(pgm_like_streams())
    @settings(max_examples=600, deadline=None)
    def test_decode_matches_the_byte_loop_oracle(self, data):
        got, want = decode_outcome(decode_pgm, data), decode_outcome(oracle_decode, data)
        assert type(got) is type(want)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.dtype == np.uint8 and np.array_equal(got, want)

    @pytest.mark.parametrize("data", [b"P5" + b" " * 2 ** 20, b"P5\n" + b"# c\n" * 100_000],
                             ids=["1MB_whitespace", "100k_comment_lines"])
    def test_empty_header_is_refused_in_linear_time(self, data):
        start = time.process_time()
        with pytest.raises(TexturedgeError, match="header ended early"):
            decode_pgm(data)
        assert time.process_time() - start < 1.0

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

    @pytest.mark.parametrize("img,message", [
        (np.zeros((2, 2), dtype=np.float64), "expected integer pixel values, got dtype float64"),
        (np.array([[0, 256]], dtype=np.int64), "pixel values outside [0, 255]"),
        (np.array([[-1, 0]], dtype=np.int16), "pixel values outside [0, 255]"),
    ])
    def test_rejects_non_8_bit_values(self, img, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            encode_pgm(img)


class TestParseMiasIndex:
    def test_circ_line(self):
        recs = parse_mias_index("mdb005 F CIRC B 477 133 30")
        assert recs == [MiasRecord("mdb005", "F", "CIRC", "B", 477, 133, 30)]

    def test_zero_padded_geometry_is_read_by_value(self):
        recs = parse_mias_index("mdb005 F CIRC B 477 133 " + "0" * 4400 + "30")
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

    def test_abnormality_without_severity(self):
        assert parse_mias_index("mdb001 F CIRC") == [MiasRecord("mdb001", "F", "CIRC")]

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
        "mdb001 F CIRC B \u0663 1_0 +5",  # int() takes an Arabic-Indic 3, 1_0 and +5
        "../../escaped F CIRC B 64 63 14",  # the id names files: no path
        "a\\b G CALC",
        ". D NORM",
        ".. D NORM",
    ])
    def test_malformed_variants(self, line):
        with pytest.raises(MalformedLineError):
            parse_mias_index(line)

    @pytest.mark.parametrize("text,line_number,message", [
        ("mdb001 G CIRC B 1", 1, "expected 3, 4, or 7 fields, got 5"),
        ("mdb003 D NORM\nmdb001 G CIRC B 1 2", 2, "expected 3, 4, or 7 fields, got 6"),
        ("\n\nmdb001 G CIRC B 1 2 3 4", 3, "expected 3, 4, or 7 fields, got 8"),
        ("mdb001 G CIRC Z 1", 1, "unknown severity 'Z'"),  # severity before arity
        ("mdb003 D NORM B 1", 1, "NORM lines carry no further fields"),
    ])
    def test_field_count_refusals(self, text, line_number, message):
        with pytest.raises(MalformedLineError) as excinfo:
            parse_mias_index(text)
        assert excinfo.value.line_number == line_number
        assert str(excinfo.value) == f"line {line_number}: {message}"

    def test_negative_center_keeps_its_message(self):
        with pytest.raises(MalformedLineError, match="negative center coordinates"):
            parse_mias_index("mdb001 F CIRC B -3 10 5")

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
        spec = RoiSpec.from_mias(rec, 1024, 1.5)
        assert (spec.center_x, spec.center_y) == (477, 890)

    def test_huge_margin_crops_whole_image(self):
        # radius * margin is 1e308: the half side is capped before int()
        img = np.arange(30 * 40, dtype=np.int64).reshape(30, 40).astype(np.uint8)
        crop = extract_roi(img, RoiSpec(7, 22, 5, 1e308))
        assert np.array_equal(crop.image, img) and (crop.x0, crop.y0) == (0, 0)

    @pytest.mark.parametrize("spec,message", [
        (RoiSpec(5, 5, 0, 1.5), "radius must be positive, got 0"),
        (RoiSpec(5, 5, 3, 0.5), "margin_factor must be >= 1, got 0.5"),
        # NaN fails the rule rather than reaching int()
        (RoiSpec(5, 5, 3, float("nan")), "margin_factor must be >= 1, got nan"),
    ])
    def test_bad_radius_or_margin(self, spec, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            extract_roi(np.zeros((10, 10), dtype=np.uint8), spec)

    def test_center_out_of_bounds(self):
        with pytest.raises(TexturedgeError, match=re.escape("center (50, 5) outside 10x10 image")):
            extract_roi(np.zeros((10, 10), dtype=np.uint8), RoiSpec(50, 5, 3, 1.0))

    def test_norm_record_has_no_spec(self):
        with pytest.raises(TexturedgeError,
                           match="record mdb003 has no center/radius annotation"):
            RoiSpec.from_mias(MiasRecord("mdb003", "D", "NORM"), 1024, 1.5)

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
