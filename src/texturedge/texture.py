"""Per-pixel gray-level co-occurrence texture maps.

The contrast descriptor is the workhorse: every pixel is replaced by a
statistic of the co-occurrence matrix (GLCM) of its surrounding window,
computed for a fixed pixel displacement. Four displacement directions
(0, 45, 90, 135 degrees) are combined by elementwise sum to close mass
outlines.

Two window kernels are provided. ``texture_map_naive`` recounts every
window from scratch. ``texture_map_sliding`` reads a contrast window as a
box sum of squared differences from one summed-area table; for the other
descriptors it keeps one running pair histogram per window of the current
row and moves them all down a row by adding the entering row's pairs and
removing the leaving row's. Both reach the same integer tallies and
evaluate them through one ``_StripEvaluator`` built per map, so their
outputs are bit-identical.

All functions are pure; internal parallelism is not used, so results are
independent of the caller's threading.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    BadMagicError,
    DimensionMismatchError,
    EmptyRegionError,
    LevelsOutOfRangeError,
    TruncatedDataError,
    WindowTooLargeError,
)
from .imgio import as_gray_image


class Offset(NamedTuple):
    """Signed pixel displacement (dx right, dy down). Must not be (0, 0)."""

    dx: int
    dy: int


ANGLES = (0, 45, 90, 135)


def offsets_for_distance(distance: int = 1) -> dict[int, Offset]:
    """The four standard direction offsets at the given pixel distance,
    keyed by angle in degrees (image y grows downward)."""
    if distance < 1:
        raise ValueError(f"distance must be >= 1, got {distance}")
    d = distance
    return {0: Offset(d, 0), 45: Offset(d, -d), 90: Offset(0, -d), 135: Offset(-d, -d)}


class Descriptor(Enum):
    CONTRAST = "contrast"
    ENTROPY = "entropy"
    ASM = "asm"
    IDM = "idm"


def as_descriptor(kind) -> Descriptor:
    if isinstance(kind, Descriptor):
        return kind
    return Descriptor(str(kind).lower())


@dataclass(frozen=True, eq=False)
class QuantizedImage:
    """Gray image reduced to ``levels`` intensity bins (values < levels)."""

    values: np.ndarray
    levels: int

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or v.size == 0:
            raise ValueError("quantized image must be non-empty 2-D")
        if not (2 <= self.levels <= 256):
            raise LevelsOutOfRangeError(f"levels must be in [2, 256], got {self.levels}")
        if int(v.max()) >= self.levels or int(v.min()) < 0:
            raise ValueError("quantized values must lie in [0, levels)")

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]


def quantize(img, levels: int) -> QuantizedImage:
    """Bin 8-bit intensities: value v maps to floor(v * levels / 256)."""
    a = as_gray_image(img)
    if not (2 <= levels <= 256):
        raise LevelsOutOfRangeError(f"levels must be in [2, 256], got {levels}")
    q = (a.astype(np.int64) * levels) // 256
    return QuantizedImage(q.astype(np.uint8), levels)


@dataclass(frozen=True, eq=False)
class Glcm:
    """Co-occurrence tallies for one displacement.

    ``counts`` holds the raw ordered-pair tallies (exact integers);
    ``p`` is the probability-normalized matrix. An empty region yields
    ``pair_count == 0`` and an all-zero ``p``.
    """

    counts: np.ndarray  # (levels, levels) int64
    pair_count: int

    @property
    def levels(self) -> int:
        return self.counts.shape[0]

    @property
    def p(self) -> np.ndarray:
        if self.pair_count == 0:
            return np.zeros_like(self.counts, dtype=np.float64)
        return self.counts.astype(np.float64) / self.pair_count


def glcm_window(q: QuantizedImage, region: tuple[int, int, int, int],
                offset: Offset, symmetric: bool = False) -> Glcm:
    """GLCM of one rectangular region ``(x, y, width, height)``.

    Tallies ordered pairs ``(q[y, x], q[y+dy, x+dx])`` over every position
    where both endpoints fall inside the region, normalized by the pair
    count. ``symmetric=True`` also tallies each pair reversed.
    """
    x, y, w, h = region
    dx, dy = int(offset[0]), int(offset[1])
    if (dx, dy) == (0, 0):
        raise ValueError("offset must not be (0, 0)")
    if w <= 0 or h <= 0:
        raise EmptyRegionError(f"region {region} is empty")
    if x < 0 or y < 0 or x + w > q.width or y + h > q.height:
        raise ValueError(f"region {region} not inside {q.width}x{q.height} image")

    levels = q.levels
    ax0, ax1 = x + max(0, -dx), x + w - max(0, dx)
    ay0, ay1 = y + max(0, -dy), y + h - max(0, dy)
    counts = np.zeros(levels * levels, dtype=np.int64)
    pair_count = 0
    if ax1 > ax0 and ay1 > ay0:
        a = q.values[ay0:ay1, ax0:ax1].astype(np.int64)
        b = q.values[ay0 + dy:ay1 + dy, ax0 + dx:ax1 + dx].astype(np.int64)
        counts = np.bincount((a * levels + b).ravel(), minlength=levels * levels)
        pair_count = a.size
        if symmetric:
            counts = counts + np.bincount((b * levels + a).ravel(), minlength=levels * levels)
            pair_count *= 2
    return Glcm(counts.reshape(levels, levels), pair_count)


# ---------------------------------------------------------------------------
# Descriptor evaluation
# ---------------------------------------------------------------------------

class _StripEvaluator:
    """One descriptor over strips of flattened count matrices.

    Built once per ``(kind, levels, pair_count)``, so the weights and the
    entropy table are made once per map, not per strip. Calling it on an
    ``(n, levels^2)`` int64 strip writes the ``n`` float64 values into
    ``out``. The scalar API and both map kernels evaluate through it, so
    equal tallies always give bit-identical values: entropy and IDM sum each
    window's contiguous ``levels^2`` terms with ``np.sum(..., axis=-1)``,
    whose pairwise order depends only on that length.
    """

    def __init__(self, kind: Descriptor, levels: int, pair_count: int):
        self.kind = kind
        self.pair_count = pair_count
        idx = np.arange(levels, dtype=np.int64)
        diff_sq = np.square(idx[:, None] - idx[None, :]).reshape(-1)
        self._terms = None
        if kind is Descriptor.CONTRAST:
            self._terms = diff_sq
        elif kind is Descriptor.IDM:
            self._terms = 1.0 / (1.0 + diff_sq.astype(np.float64))
        elif kind is Descriptor.ENTROPY and pair_count > 0:
            # table of c * (log2 N - log2 c): each term >= 0, so the sum is too
            ks = np.arange(1, pair_count + 1, dtype=np.float64)
            self._terms = np.concatenate(([0.0], ks * (np.log2(float(pair_count)) - np.log2(ks))))
        self._scratch = np.empty((0, levels * levels), dtype=np.float64)

    def __call__(self, flat: np.ndarray, out: np.ndarray) -> np.ndarray:
        kind, divisor = self.kind, self.pair_count
        if divisor == 0:
            out[...] = 0.0
            return out
        if kind is Descriptor.CONTRAST:
            # integer matmul is exact, so the division is the only rounding step
            out[...] = flat @ self._terms
        elif kind is Descriptor.ASM:
            # an integer sum of squares is exact in any order
            out[...] = np.einsum("ij,ij->i", flat, flat)
            divisor *= divisor
        else:
            if self._scratch.shape != flat.shape:
                self._scratch = np.empty(flat.shape, dtype=np.float64)
            if kind is Descriptor.IDM:
                np.multiply(flat, self._terms, out=self._scratch)
            else:
                # counts lie in [0, pair_count]; a mode other than "raise"
                # writes straight into the scratch buffer
                np.take(self._terms, flat, out=self._scratch, mode="wrap")
            np.sum(self._scratch, axis=-1, out=out)
        out /= divisor
        return out


def descriptor(g: Glcm, kind) -> float:
    """Scalar descriptor of one GLCM (contrast, entropy, asm, or idm)."""
    evaluate = _StripEvaluator(as_descriptor(kind), g.levels, g.pair_count)
    return float(evaluate(g.counts.reshape(1, -1), np.empty(1))[0])


def contrast(g: Glcm) -> float:
    """Sum over (i, j) of (i - j)^2 p(i, j): the intensity-contrast measure."""
    return descriptor(g, Descriptor.CONTRAST)


# ---------------------------------------------------------------------------
# Windowed texture maps
# ---------------------------------------------------------------------------

def _map_prep(q: QuantizedImage, window_side: int, offset: Offset, symmetric: bool):
    """Shared validation and pair-code planes for both map kernels.

    Returns ``(planes, n_rows_anchor, n_cols_anchor, pair_count)`` where each
    plane P satisfies: the anchors of the window whose top-left padded corner
    is (r, c) are exactly P[r:r+n_rows_anchor, c:c+n_cols_anchor].
    """
    dx, dy = int(offset[0]), int(offset[1])
    if (dx, dy) == (0, 0):
        raise ValueError("offset must not be (0, 0)")
    if window_side < 3 or window_side % 2 == 0:
        raise ValueError(f"window_side must be odd and >= 3, got {window_side}")
    h, w = q.values.shape
    if min(h, w) < 2:
        raise WindowTooLargeError(
            f"windowed maps need both image dimensions >= 2, got {w}x{h}")

    pad = window_side // 2
    padded = np.pad(q.values, pad, mode="reflect").astype(np.int64)
    hp, wp = padded.shape
    levels = q.levels

    n_cols = window_side - abs(dx)
    n_rows = window_side - abs(dy)
    if n_cols <= 0 or n_rows <= 0:
        return [], 0, 0, 0

    ys = slice(max(0, -dy), hp - max(0, dy))
    xs = slice(max(0, -dx), wp - max(0, dx))
    ys_b = slice(max(0, -dy) + dy, hp - max(0, dy) + dy)
    xs_b = slice(max(0, -dx) + dx, wp - max(0, dx) + dx)
    a = padded[ys, xs]
    b = padded[ys_b, xs_b]
    planes = [a * levels + b]
    if symmetric:
        planes.append(b * levels + a)
    pair_count = n_rows * n_cols * len(planes)
    return planes, n_rows, n_cols, pair_count


def texture_map_naive(q: QuantizedImage, kind, window_side: int = 7,
                      offset: Offset = Offset(1, 0), symmetric: bool = False) -> np.ndarray:
    """Reference kernel: recount every window's pairs from scratch.

    The source is reflect-padded by ``window_side // 2`` so the map has the
    source dimensions. Output value at (x, y) is the descriptor of the GLCM
    of the window centered there.
    """
    kind = as_descriptor(kind)
    h, w = q.values.shape
    planes, n_rows, n_cols, pair_count = _map_prep(q, window_side, offset, symmetric)
    out = np.zeros((h, w), dtype=np.float64)
    if pair_count == 0:
        return out
    ll = q.levels * q.levels
    evaluate = _StripEvaluator(kind, q.levels, pair_count)
    for r in range(h):
        strip = np.empty((w, ll), dtype=np.int64)
        for c in range(w):
            cnt = np.bincount(planes[0][r:r + n_rows, c:c + n_cols].ravel(), minlength=ll)
            for extra in planes[1:]:
                cnt = cnt + np.bincount(extra[r:r + n_rows, c:c + n_cols].ravel(), minlength=ll)
            strip[c] = cnt
        evaluate(strip, out[r])
    return out


def texture_map_sliding(q: QuantizedImage, kind, window_side: int = 7,
                        offset: Offset = Offset(1, 0), symmetric: bool = False) -> np.ndarray:
    """Fast kernel: bit-identical to ``texture_map_naive``.

    CONTRAST sums the per-anchor plane ``(a - b)^2`` times the plane count
    (a reversed pair adds the same square) over each window from one
    summed-area table, then divides once by the pair count. The others
    keep a ``(width, levels^2)`` histogram of the current row's windows:
    each step down subtracts the pair codes of the anchor row leaving the
    windows and adds those of the row entering them, then evaluates the
    strip with the map's one ``_StripEvaluator``. The integer tallies are
    exact, so the order of updates cannot change them.
    """
    kind = as_descriptor(kind)
    h, w = q.values.shape
    planes, n_rows, n_cols, pair_count = _map_prep(q, window_side, offset, symmetric)
    if pair_count == 0:
        return np.zeros((h, w), dtype=np.float64)
    levels = q.levels
    if kind is Descriptor.CONTRAST:
        a, b = np.divmod(planes[0], levels)
        table = np.zeros((a.shape[0] + 1, a.shape[1] + 1), dtype=np.int64)
        np.cumsum(np.cumsum(np.square(a - b) * len(planes), axis=0), axis=1, out=table[1:, 1:])
        sums = (table[n_rows:, n_cols:] - table[:-n_rows, n_cols:]
                - table[n_rows:, :-n_cols] + table[:-n_rows, :-n_cols])
        return sums.astype(np.float64) / pair_count
    ll = levels * levels
    # segments[p, y, c] views the n_cols anchor codes of row y in column c's
    # window; column c's histogram starts at flat index c * ll
    segments = np.lib.stride_tricks.sliding_window_view(np.stack(planes), n_cols, axis=2)
    base = np.arange(w, dtype=np.int64)[:, None] * ll
    hist = np.bincount((segments[:, :n_rows] + base).ravel(), minlength=w * ll)
    window = hist.reshape(w, ll)
    evaluate = _StripEvaluator(kind, levels, pair_count)
    out = np.empty((h, w), dtype=np.float64)
    evaluate(window, out[0])
    for r in range(1, h):
        # unbuffered scatter: one window may hold the same code more than once
        np.subtract.at(hist, segments[:, r - 1] + base, 1)
        np.add.at(hist, segments[:, r + n_rows - 1] + base, 1)
        evaluate(window, out[r])
    return out


def directional_sum(maps: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise sum of exactly four same-shaped direction maps."""
    if len(maps) != 4:
        raise ValueError(f"expected exactly 4 maps, got {len(maps)}")
    arrays = [np.asarray(m, dtype=np.float64) for m in maps]
    shape = arrays[0].shape
    for m in arrays[1:]:
        if m.shape != shape:
            raise DimensionMismatchError(f"map shapes differ: {shape} vs {m.shape}")
    return arrays[0] + arrays[1] + arrays[2] + arrays[3]


# ---------------------------------------------------------------------------
# Texture map serialization
# ---------------------------------------------------------------------------

_MAP_MAGIC = b"TXM1"


def encode_texture_map(m: np.ndarray) -> bytes:
    """Binary raster: magic, uint32 width/height, row-major little-endian f64."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("texture map must be non-empty 2-D")
    h, w = a.shape
    return _MAP_MAGIC + struct.pack("<II", w, h) + a.astype("<f8").tobytes()


def decode_texture_map(data: bytes) -> np.ndarray:
    if data[:4] != _MAP_MAGIC:
        raise BadMagicError(f"not a texture map stream (starts with {data[:4]!r})")
    if len(data) < 12:
        raise TruncatedDataError("texture map header incomplete")
    w, h = struct.unpack("<II", data[4:12])
    if w == 0 or h == 0:
        raise TruncatedDataError(f"texture map is {w}x{h}; it holds no samples")
    need = 12 + 8 * w * h
    if len(data) != need:
        raise TruncatedDataError(f"texture map raster has {len(data) - 12} of {8 * w * h} bytes")
    m = np.frombuffer(data[12:], dtype="<f8").reshape(h, w).astype(np.float64)
    if not np.isfinite(m).all():
        raise TruncatedDataError("texture map holds a non-finite sample")
    return m


def texture_map_to_gray(m: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Min-max scale a map to 8 bits for visualization.

    Returns ``(image, min, max)``; the scaling constants belong in a sidecar
    file next to the PGM. A constant map scales to all zeros.
    """
    a = np.asarray(m, dtype=np.float64)
    lo, hi = float(a.min()), float(a.max())
    if hi > lo:
        scaled = (a - lo) * (255.0 / (hi - lo))
    else:
        scaled = np.zeros_like(a)
    return np.clip(np.floor(scaled + 0.5), 0.0, 255.0).astype(np.uint8), lo, hi
