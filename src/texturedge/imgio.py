"""PGM image I/O, mini-MIAS annotation parsing, and ROI extraction.

Images are plain 2-D uint8 numpy arrays (row-major, top-left origin).
The annotation index uses the mini-MIAS text format, one record per
line: ``ref tissue abnormality [severity x y radius]``. Annotation
coordinates use a bottom-left origin and are flipped on conversion to
image coordinates.

All functions here are pure and safe to call concurrently.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from .errors import MalformedLineError, TexturedgeError

TISSUE_CLASSES = ("F", "G", "D")
ABNORMALITY_CLASSES = ("CALC", "CIRC", "SPIC", "MISC", "ARCH", "ASYM", "NORM")
SEVERITY_CLASSES = ("B", "M")


def as_gray_image(arr) -> np.ndarray:
    """Validate and return *arr* as a 2-D uint8 image.

    Accepts any integer array with values in [0, 255]; rejects empty or
    non-2-D input.
    """
    a = np.asarray(arr)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a non-empty 2-D image, got shape {a.shape}")
    if a.dtype == np.uint8:
        return a
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"expected integer pixel values, got dtype {a.dtype}")
    if a.size and (a.min() < 0 or a.max() > 255):
        raise ValueError("pixel values outside [0, 255]")
    return a.astype(np.uint8)


def round_to_uint8(x: np.ndarray) -> np.ndarray:
    """Float64 ``x`` rounded half up and clipped to [0, 255], as uint8: the
    one rounding rule of every 8-bit output. ``x`` is overwritten."""
    x += 0.5
    np.floor(x, out=x)
    np.clip(x, 0.0, 255.0, out=x)
    return x.astype(np.uint8)


# ---------------------------------------------------------------------------
# PGM codec
# ---------------------------------------------------------------------------

# One field after any whitespace and ``#`` comments, with the one whitespace
# byte that ends it, or else the stream's end, where group 1 is unset and
# ``findall`` gives ``b""``. A comment runs to its newline, so no field starts
# inside one, and successive matches tile the stream in linear time. A P5
# raster starts where the fourth field's match ends.
_FIELD = re.compile(rb"(?:[ \t\n\r\x0b\x0c]|#[^\n]*(?=\n|\Z))*"
                    rb"(?:([^ \t\n\r\x0b\x0c#]+)[ \t\n\r\x0b\x0c]?|\Z)")


# A sign that does not start a field or is not followed by a digit. A raster
# joined by single spaces whose bytes are digits, spaces and signs, none of
# them such a sign, is a run of fields that each pass ``_decimal``.
_MISPLACED_SIGN = re.compile(rb"-(?:(?![0-9])|(?<=[^ ]-))")


def _decimal(token: str) -> int:
    """The value of an optional ``-`` and ASCII digits, nothing else, read
    as ``strtoll`` reads a P2 sample: leading zeros drop, and a value past
    int64 saturates. So no token reaches ``int``'s digit limit, which the
    interpreter's settings move, and a field too wide for an image still
    fails that field's range check."""
    sign, digits = ("-", token[1:]) if token.startswith("-") else ("", token)
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {token!r}")
    digits = digits.lstrip("0") or "0"
    if len(digits) > 19:  # past int64, whose bounds have 19 digits
        return -2 ** 63 if sign else 2 ** 63 - 1
    return max(-2 ** 63, min(int(sign + digits), 2 ** 63 - 1))


def _header_int(field: bytes, what: str) -> int:
    try:
        return _decimal(field.decode("latin-1"))
    except ValueError:
        raise TexturedgeError(f"non-numeric {what} field {field!r}") from None


def decode_pgm(data: bytes) -> np.ndarray:
    """Decode a binary (P5) or ASCII (P2) PGM byte stream.

    Header comments are allowed. maxval must be 255, the scale every stage
    assumes, and P2 samples lie in [0, 255]. Raises ``TexturedgeError``.
    """
    if len(data) < 2 or data[:2] not in (b"P2", b"P5"):
        raise TexturedgeError(f"not a P2/P5 PGM stream (starts with {data[:2]!r})")
    magic = data[:2]
    header = list(islice(_FIELD.finditer(data), 4))
    fields = [m[1] for m in header]
    if None in fields:
        raise TexturedgeError("header ended early")
    if fields[0] != magic:
        raise TexturedgeError(f"malformed magic token {fields[0]!r}")
    width = _header_int(fields[1], "width")
    height = _header_int(fields[2], "height")
    maxval = _header_int(fields[3], "maxval")
    if maxval != 255:
        raise TexturedgeError(f"maxval {maxval} not supported (must be 255)")
    if width < 1 or height < 1:
        raise TexturedgeError(f"invalid header: width={width} height={height} maxval={maxval}")
    n, pos = width * height, header[3].end()
    if magic == b"P5":
        raster = data[pos:pos + n]
        if len(raster) < n:
            raise TexturedgeError(f"raster has {len(raster)} of {n} bytes")
        arr = np.frombuffer(raster, dtype=np.uint8)
    else:
        # P2: whitespace-separated ASCII samples (comments tolerated)
        samples = _FIELD.findall(data, pos)[:n]
        if not samples[-1]:  # the stream ended first
            raise TexturedgeError(f"fewer than {n} ASCII samples")
        raster = b" ".join(samples)
        if raster.translate(None, b"0123456789 -") or _MISPLACED_SIGN.search(raster):
            for tok in samples:  # the first field outside the rule raises
                _header_int(tok, "sample")
        # strtoll saturates, so a sample too wide for int64 is only out of range
        arr = np.fromstring(raster, dtype=np.int64, sep=" ")
        if arr.min() < 0 or arr.max() > 255:
            raise TexturedgeError("sample value outside [0, maxval]")
    return arr.astype(np.uint8).reshape(height, width)


def encode_pgm(img) -> bytes:
    """Encode an image as canonical binary PGM (P5, maxval 255).

    ``decode_pgm(encode_pgm(x))`` reproduces every pixel of ``x`` exactly.
    """
    a = as_gray_image(img)
    h, w = a.shape
    return b"P5\n%d %d\n255\n" % (w, h) + a.tobytes()


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        return decode_pgm(f.read())


def write_pgm(path, img) -> None:
    with open(path, "wb") as f:
        f.write(encode_pgm(img))


# ---------------------------------------------------------------------------
# mini-MIAS annotation index
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MiasRecord:
    """One annotation line: reference id, tissue class, abnormality,
    optional severity and optional circle geometry (bottom-left origin)."""

    ref_id: str
    tissue: str                      # F | G | D
    abnormality: str                 # CALC | CIRC | SPIC | MISC | ARCH | ASYM | NORM
    severity: Optional[str] = None   # B | M
    center_x: Optional[int] = None
    center_y: Optional[int] = None
    radius: Optional[int] = None

    @property
    def has_geometry(self) -> bool:
        return self.radius is not None


def check_geometry(record: MiasRecord) -> None:
    """Refuse a record without the circle its ROI and proxy truth need."""
    if not record.has_geometry:
        raise TexturedgeError(f"record {record.ref_id} has no center/radius annotation")


def parse_mias_index(text: str) -> list[MiasRecord]:
    """Parse the annotation index; returns records in input order.

    Any malformed line aborts the whole parse with ``MalformedLineError``
    (no silent skipping). Blank lines are ignored. Grammar per line:

        ref tissue NORM
        ref tissue abnormality [severity [x y radius]]

    ``ref`` must be a plain file name (not ``.`` or ``..``, no ``/`` or ``\\``)
    and geometry fields decimal integers (an optional ``-``, ASCII digits).
    """
    records: list[MiasRecord] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 3:
            raise MalformedLineError(lineno, f"expected at least 3 fields, got {len(tokens)}")
        ref, tissue, abnorm, *rest = tokens
        if ref in (".", "..") or "/" in ref or "\\" in ref:
            raise MalformedLineError(lineno, f"id {ref!r} is not a plain file name")
        if tissue not in TISSUE_CLASSES:
            raise MalformedLineError(lineno, f"unknown tissue class {tissue!r}")
        if abnorm not in ABNORMALITY_CLASSES:
            raise MalformedLineError(lineno, f"unknown abnormality {abnorm!r}")
        if abnorm == "NORM" and rest:
            raise MalformedLineError(lineno, "NORM lines carry no further fields")
        severity, *geometry = rest or [None]
        if rest and severity not in SEVERITY_CLASSES:
            raise MalformedLineError(lineno, f"unknown severity {severity!r}")
        if len(geometry) not in (0, 3):
            raise MalformedLineError(lineno, f"expected 3, 4, or 7 fields, got {len(tokens)}")
        x = y = r = None
        if geometry:
            try:
                x, y, r = (_decimal(t) for t in geometry)
            except ValueError:
                raise MalformedLineError(lineno, "geometry fields must be integers") from None
            if x < 0 or y < 0:
                raise MalformedLineError(lineno, "negative center coordinates")
            if r <= 0:
                raise MalformedLineError(lineno, f"radius must be positive, got {r}")
        records.append(MiasRecord(ref, tissue, abnorm, severity, x, y, r))
    return records


def mias_to_image_y(y_annot: int, image_height: int) -> int:
    """Convert a bottom-left-origin annotation row to a top-left-origin row."""
    return image_height - 1 - y_annot


# ---------------------------------------------------------------------------
# ROI extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoiSpec:
    """Square crop request around a mass center, in image (top-left) coords."""

    center_x: int
    center_y: int
    radius: int
    margin_factor: float

    @classmethod
    def from_mias(cls, record: MiasRecord, image_height: int,
                  margin_factor: float) -> "RoiSpec":
        """Build a spec from an annotation record, flipping the y origin."""
        check_geometry(record)
        return cls(record.center_x, mias_to_image_y(record.center_y, image_height),
                   record.radius, margin_factor)


@dataclass(frozen=True)
class RoiCrop:
    """A crop plus its offset, so masks map back to full-image coordinates."""

    image: np.ndarray
    x0: int
    y0: int

    @property
    def width(self) -> int:
        return self.image.shape[1]

    @property
    def height(self) -> int:
        return self.image.shape[0]


def check_margin_factor(margin_factor: float) -> None:
    if not margin_factor >= 1.0:  # false for NaN too
        raise ValueError(f"margin_factor must be >= 1, got {margin_factor}")


def extract_roi(img, roi: RoiSpec) -> RoiCrop:
    """Crop the square of side ``2 * radius * margin_factor`` around the center,
    clamped to the image bounds."""
    a = as_gray_image(img)
    if roi.radius <= 0:
        raise ValueError(f"radius must be positive, got {roi.radius}")
    check_margin_factor(roi.margin_factor)
    h, w = a.shape
    if not (0 <= roi.center_x < w and 0 <= roi.center_y < h):
        raise TexturedgeError(f"center ({roi.center_x}, {roi.center_y}) outside {w}x{h} image")
    # a half side past the image's larger side crops the same whole-image clamp
    half = int(np.floor(min(roi.radius * roi.margin_factor, max(h, w)) + 0.5))
    x0 = max(0, roi.center_x - half)
    x1 = min(w, roi.center_x + half)
    y0 = max(0, roi.center_y - half)
    y1 = min(h, roi.center_y + half)
    return RoiCrop(a[y0:y1, x0:x1].copy(), x0, y0)
