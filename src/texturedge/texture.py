"""Per-pixel gray-level co-occurrence texture maps.

The contrast descriptor is the workhorse: every pixel is replaced by a
statistic of the co-occurrence matrix (GLCM) of its surrounding window,
computed for a fixed pixel displacement. Four displacement directions
(0, 45, 90, 135 degrees) are combined by elementwise sum to close mass
outlines.

A window's GLCM is its ``(levels, levels)`` int64 count matrix, as
``glcm_window`` returns it; ``descriptor`` reads the pair count as the
matrix's sum. ``texture_map_naive`` recounts every window from scratch and
evaluates each row of windows through the same ``_evaluate``;
``texture_map_sliding`` gives the same bits faster (see its docstring).
``box_sums`` is the package's one window sum: the maps of all four
descriptors and ``segment``'s disk erosion read their window sums from
it. Entropy and ASM take one box count per pair code that occurs, so their
cost grows with the number of distinct codes in the image, not with
``levels^2``; entropy adds its terms as a running sum in code order.

All functions are pure; internal parallelism is not used, so results are
independent of the caller's threading.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import TexturedgeError
from .imgio import as_gray_image, round_to_uint8


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


@dataclass(frozen=True, eq=False)
class QuantizedImage:
    """Gray image reduced to ``levels`` intensity bins (values < levels)."""

    values: np.ndarray
    levels: int

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or v.size == 0:
            raise ValueError("quantized image must be non-empty 2-D")
        check_levels(self.levels)
        if int(v.max()) >= self.levels or int(v.min()) < 0:
            raise ValueError("quantized values must lie in [0, levels)")

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]


def check_levels(levels: int) -> None:
    if not 2 <= levels <= 256:
        raise ValueError(f"levels must be in [2, 256], got {levels}")


def check_window_side(window_side: int) -> None:
    if window_side < 3 or window_side % 2 == 0:
        raise ValueError(f"window_side must be odd and >= 3, got {window_side}")


def quantize(img, levels: int) -> QuantizedImage:
    """Bin 8-bit intensities: value v maps to floor(v * levels / 256)."""
    a = as_gray_image(img)
    check_levels(levels)  # before the product, which overflows int64 first
    q = (a.astype(np.int64) * levels) // 256
    return QuantizedImage(q.astype(np.uint8), levels)


def glcm_window(q: QuantizedImage, region: tuple[int, int, int, int],
                offset: Offset, symmetric: bool = False) -> np.ndarray:
    """GLCM of one rectangular region ``(x, y, width, height)``: the
    ``(levels, levels)`` int64 count matrix.

    Entry ``(i, j)`` tallies the ordered pairs ``(q[y, x], q[y+dy, x+dx])``
    equal to ``(i, j)`` over every position where both endpoints fall
    inside the region; ``symmetric=True`` also tallies each pair reversed.
    The matrix sums to the pair count, 0 when the offset fits no pair in
    the region.
    """
    x, y, w, h = region
    dx, dy = int(offset[0]), int(offset[1])
    if w <= 0 or h <= 0:
        raise ValueError(f"region {region} is empty")
    if x < 0 or y < 0 or x + w > q.width or y + h > q.height:
        raise ValueError(f"region {region} not inside {q.width}x{q.height} image")

    levels = q.levels
    codes = _codes(*_pairs(q.values[y:y + h, x:x + w], dx, dy), levels, symmetric)
    counts = np.bincount(codes.ravel(), minlength=levels * levels)
    return counts.reshape(levels, levels)


def _pairs(values: np.ndarray, dx: int, dy: int) -> tuple[np.ndarray, np.ndarray]:
    """Anchor and partner planes (int32) of every pair
    ``(v[y, x], v[y+dy, x+dx])`` whose two ends both lie inside ``values``;
    both are empty when ``|dx| >= width`` or ``|dy| >= height``. Their
    squared differences and codes ``a * levels + b`` are at most 65,535."""
    if (dx, dy) == (0, 0):
        raise ValueError("offset must not be (0, 0)")
    h, w = values.shape
    rows, cols = max(0, h - abs(dy)), max(0, w - abs(dx))
    y0, x0 = max(0, -dy), max(0, -dx)
    v = values.astype(np.int32)
    return (v[y0:y0 + rows, x0:x0 + cols],
            v[y0 + dy:y0 + dy + rows, x0 + dx:x0 + dx + cols])


def _codes(a: np.ndarray, b: np.ndarray, levels: int, symmetric: bool) -> np.ndarray:
    """Pair codes ``a * levels + b`` as plane 0 of a stack, plus the reversed
    codes ``b * levels + a`` as plane 1 when ``symmetric``."""
    planes = [a * levels + b]
    if symmetric:
        planes.append(b * levels + a)
    return np.stack(planes)


# ---------------------------------------------------------------------------
# Descriptor evaluation
# ---------------------------------------------------------------------------

def _idm(differences, count, pair_count: int, out: np.ndarray) -> np.ndarray:
    """Inverse difference moment from pair counts grouped by difference.

    ``count(d)`` is the integer array of the pairs with ``|a - b| = d``.
    Writes ``(sum over d of n_d / (1 + d^2)) / pair_count`` into ``out``,
    starting from zero and adding the ``d`` in ``differences`` largest
    first, so the small terms go in first and the sum stays within a few
    ulp of the exact value. A ``d`` whose counts are all zero adds nothing; leaving it out of
    ``differences`` keeps every bit.
    """
    out[...] = 0.0
    for d in sorted(differences, reverse=True):
        out += count(d) * (1.0 / (1.0 + float(d * d)))
    out /= pair_count
    return out


def _entropy_terms(counts, pair_count: int) -> np.ndarray:
    """``c * (log2 N - log2 max(c, 1))`` for each count ``c`` of ``counts``,
    ``N = pair_count``, in a new float64 array: the entropy term of a cell
    counted ``c`` times, >= 0, and 0.0 for ``c = 0``."""
    c = np.asarray(counts, dtype=np.float64)
    return c * (np.log2(float(pair_count)) - np.log2(np.maximum(c, 1.0)))


def _evaluate(kind: Descriptor, flat: np.ndarray, pair_count: int,
              out: np.ndarray) -> np.ndarray:
    """One descriptor of each row of ``flat``, an ``(n, levels^2)`` int64
    strip of flattened count matrices that each sum to ``pair_count``;
    writes the ``n`` float64 values into ``out``.

    ``descriptor`` and the naive kernel evaluate through it, so equal
    tallies always give bit-identical values: entropy sums each window's
    ``levels^2`` terms left to right in code order, so a cell counted 0
    times adds an exact 0.0 and leaving it out keeps every bit, as the
    sliding kernel's per-code sum does; each term is taken at its count, not
    from a table of ``pair_count + 1``. IDM folds the tallies into exact
    per-difference counts and hands them to ``_idm``, as the sliding kernel
    does with its box counts. The weights are made on every call, once per
    row of the naive kernel.
    """
    divisor = pair_count
    if divisor == 0:
        out[...] = 0.0
        return out
    idx = np.arange(math.isqrt(flat.shape[1]), dtype=np.int64)
    diff = np.abs(idx[:, None] - idx[None, :]).reshape(-1)
    if kind is Descriptor.CONTRAST:
        # integer matmul is exact, so the division is the only rounding step
        out[...] = flat @ np.square(diff)
    elif kind is Descriptor.IDM:
        # the cells sorted by |i - j|, so difference d's run starts at
        # starts[d]; integer sums are exact in any order
        order = np.argsort(diff, kind="stable")
        starts = np.searchsorted(diff[order], idx)
        by_d = np.add.reduceat(flat[:, order], starts, axis=1)
        return _idm(np.flatnonzero(by_d.any(axis=0)), lambda d: by_d[:, d], divisor, out)
    elif kind is Descriptor.ASM:
        # an integer sum of squares is exact in any order
        out[...] = np.einsum("ij,ij->i", flat, flat)
        divisor *= divisor
    else:
        terms = _entropy_terms(flat, pair_count)
        # a running sum in code order, so a zero term adds an exact 0.0
        out[...] = np.add.accumulate(terms, axis=-1, out=terms)[:, -1]
    out /= divisor
    return out


def descriptor(counts: np.ndarray, kind) -> float:
    """Scalar descriptor of one GLCM, given as its ``(levels, levels)``
    count matrix (see ``glcm_window``); the pair count N is the matrix's sum
    and an all-zero matrix gives 0.0. ``kind`` is a ``Descriptor`` or its
    value; any other array, a non-whole entry or N past ``isqrt(2**63 - 1)``
    = 3,037,000,499 raises ``ValueError``: up to it, every integer sum is
    exact in int64, ASM's squared counts (<= N^2) and contrast's
    ``c * (i - j)^2`` (<= (side - 1)^2 N) too."""
    m = np.asarray(counts)
    if m.dtype.kind not in "biu" and not (whole := np.isfinite(m) & (m == np.floor(m))).all():
        raise ValueError(f"count matrix must hold whole numbers, got {m[~whole][0].item()!r}")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or (m < 0).any():
        raise ValueError(f"count matrix must be square 2-D, >= 0, got shape {m.shape}")
    bound = math.isqrt(2**63 - 1)  # the largest pair count whose square fits int64
    n = m.max(initial=0).item()  # checked before the int64 cast, which could wrap it
    if n <= bound:
        flat = m.astype(np.int64).reshape(1, -1)
        n = int(flat.sum())
    if n > bound:
        raise ValueError(f"count matrix must hold <= {bound} pairs, got at least {n!r}")
    return float(_evaluate(Descriptor(kind), flat, n, np.empty(1))[0])


def contrast(counts: np.ndarray) -> float:
    """Sum over (i, j) of (i - j)^2 p(i, j), ``p`` the count matrix over its
    sum: the intensity-contrast measure."""
    return descriptor(counts, Descriptor.CONTRAST)


# ---------------------------------------------------------------------------
# Windowed texture maps
# ---------------------------------------------------------------------------

def _map_prep(q: QuantizedImage, window_side: int, offset: Offset, symmetric: bool):
    """Shared validation and pair planes for both map kernels.

    Returns ``(a, b, n_rows, n_cols, pair_count)``: ``a`` and ``b`` are the
    ``_pairs`` planes of the image reflect-padded by ``window_side // 2``,
    and the anchors of the window whose top-left padded corner is (r, c) are
    exactly ``a[r:r+n_rows, c:c+n_cols]``. ``pair_count`` is 0 when the
    offset does not fit in a window.
    """
    dx, dy = int(offset[0]), int(offset[1])
    check_window_side(window_side)
    h, w = q.values.shape
    if min(h, w) < 2:
        raise TexturedgeError(f"windowed maps need both image dimensions >= 2, got {w}x{h}")

    a, b = _pairs(np.pad(q.values, window_side // 2, mode="reflect"), dx, dy)
    n_rows, n_cols = window_side - abs(dy), window_side - abs(dx)
    if n_rows <= 0 or n_cols <= 0:
        return a, b, 0, 0, 0
    return a, b, n_rows, n_cols, n_rows * n_cols * (2 if symmetric else 1)


def texture_map_naive(q: QuantizedImage, kind, window_side: int = 7,
                      offset: Offset = Offset(1, 0), symmetric: bool = False) -> np.ndarray:
    """Reference kernel: recount every window's pairs from scratch.

    The source is reflect-padded by ``window_side // 2`` so the map has the
    source dimensions. Output value at (x, y) is the descriptor of the GLCM
    of the window centered there.
    """
    kind = Descriptor(kind)
    h, w = q.values.shape
    a, b, n_rows, n_cols, pair_count = _map_prep(q, window_side, offset, symmetric)
    out = np.zeros((h, w), dtype=np.float64)
    if pair_count == 0:
        return out
    codes = _codes(a, b, q.levels, symmetric)
    ll = q.levels * q.levels
    for r in range(h):
        strip = np.empty((w, ll), dtype=np.int64)
        for c in range(w):
            strip[c] = np.bincount(codes[:, r:r + n_rows, c:c + n_cols].ravel(), minlength=ll)
        _evaluate(kind, strip, pair_count, out[r])
    return out


def _runs(x: np.ndarray, n: int, step: int) -> np.ndarray:
    """Entry ``i`` of 1-D ``x`` plus the ``n - 1`` entries after it at
    intervals of ``step``: sums of 1, 2, 4, ... entries come by doubling,
    and the binary digits of ``n`` pick which of them tile the run."""
    size = len(x) - (n - 1) * step
    total, start, width = None, 0, 1
    while True:
        if n & width:
            run = x[start * step:start * step + size]
            total = run if total is None else total + run
            start += width
        if 2 * width > n:
            return total
        x = x[:-width * step] + x[width * step:]
        width *= 2


def box_sums(plane: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """The sum over every ``n_rows x n_cols`` box of the 2-D ``plane``:
    entry (r, c) sums ``plane[r:r + n_rows, c:c + n_cols]`` exactly, in the
    lane ``np.min_scalar_type`` gives the bound, box area x largest entry
    magnitude (uint8 up to uint64), or ``-bound - 1`` for a plane with a
    negative entry (int8 up to int64); a boolean plane's bound is the area,
    and it is read as a uint8 view. ``_runs`` sums the plane flat, one row
    and then one element apart, so each add is one contiguous pass and each
    partial sum adds at most a box's entries; a sum that wraps past the end
    of a row lands on an entry that the returned view leaves out."""
    x = plane.view(np.uint8) if plane.dtype == bool else plane
    lo, hi = (0, 1) if plane.dtype == bool else (int(x.min(initial=0)), int(x.max(initial=0)))
    bound = n_rows * n_cols * max(hi, -lo)
    x = x.astype(np.min_scalar_type(bound if lo == 0 else -bound - 1), order="C", copy=False)
    sums = _runs(_runs(x.ravel(), n_rows, x.shape[1]), n_cols, 1)
    shape = (x.shape[0] - n_rows + 1, x.shape[1] - n_cols + 1)
    return np.lib.stride_tricks.as_strided(sums, shape, x.strides, writeable=False)


def texture_map_sliding(q: QuantizedImage, kind, window_side: int = 7,
                        offset: Offset = Offset(1, 0), symmetric: bool = False) -> np.ndarray:
    """Fast kernel: bit-identical to ``texture_map_naive``.

    Every descriptor reads its windows through ``box_sums``; the int32
    planes meet Python ints, as a NumPy int64 would widen them. CONTRAST and
    IDM are linear in the pair counts and ignore ``symmetric``: a reversed
    pair has the same difference, so symmetry doubles every integer sum and
    the pair count N, and the quotient keeps its bits. CONTRAST divides its
    box sums of ``(a - b)^2`` once by the anchor count, as ``_evaluate``
    does; IDM weights the box counts of the anchors with each ``|a - b| = d``
    that occurs through ``_idm``, as ``_evaluate`` does.

    ENTROPY and ASM take one box count per pair code ``k`` that occurs: of
    the anchors whose code is ``k`` and, when ``symmetric``, of those whose
    reversed code is ``k``. ASM sums the counts squared in int64; ENTROPY
    sums their terms from the table ``_evaluate`` uses, left to right in
    code order as it does, so a code that a window lacks adds an exact 0.0.
    The cost is one box sum per code that occurs: tens to a few hundred on
    film crops, but all ``levels^2`` on uniform noise, where a running
    ``(width, levels^2)`` histogram is three (ENTROPY) to six (ASM) times
    faster at 330 x 330, 32 levels and window 7.
    """
    kind = Descriptor(kind)
    h, w = q.values.shape
    a, b, n_rows, n_cols, pair_count = _map_prep(q, window_side, offset, symmetric)
    if pair_count == 0:
        return np.zeros((h, w), dtype=np.float64)
    if kind is Descriptor.CONTRAST:
        sums = box_sums(np.square(a - b), n_rows, n_cols)
        return sums.astype(np.float64) / (n_rows * n_cols)
    if kind is Descriptor.IDM:
        diff = np.abs(a - b)
        return _idm(np.flatnonzero(np.bincount(diff.ravel())).tolist(),
                    lambda d: box_sums(diff == d, n_rows, n_cols),
                    n_rows * n_cols, np.empty((h, w), dtype=np.float64))
    levels = q.levels
    codes = a * levels + b
    occurring = np.flatnonzero(np.bincount(codes.ravel()))
    if symmetric:
        occurring = np.union1d(occurring, occurring % levels * levels + occurring // levels)
    entropy = kind is Descriptor.ENTROPY
    terms = _entropy_terms(np.arange(pair_count + 1), pair_count) if entropy else None
    total = np.zeros((h, w), dtype=np.float64 if entropy else np.int64)
    for k in occurring.tolist():
        # symmetric also counts k = i * levels + j at each anchor whose code
        # is j * levels + i, so one plane of codes serves both orders
        i, j = divmod(k, levels)
        hits = codes == k
        if symmetric and i != j:
            hits |= codes == j * levels + i
        count = box_sums(hits, n_rows, n_cols)
        if symmetric and i == j:
            count = 2 * count.astype(np.int64)  # its own reverse; 2x can pass the lane
        total += np.take(terms, count) if entropy else np.square(count, dtype=np.int64)
    return total / (pair_count if entropy else pair_count * pair_count)


def directional_sum(maps: Sequence[np.ndarray]) -> np.ndarray:
    """Elementwise sum of exactly four same-shaped direction maps."""
    if len(maps) != 4:
        raise ValueError(f"expected exactly 4 maps, got {len(maps)}")
    arrays = [np.asarray(m, dtype=np.float64) for m in maps]
    shape = arrays[0].shape
    for m in arrays[1:]:
        if m.shape != shape:
            raise TexturedgeError(f"map shapes differ: {shape} vs {m.shape}")
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
        raise TexturedgeError(f"not a texture map stream (starts with {data[:4]!r})")
    if len(data) < 12:
        raise TexturedgeError("texture map header incomplete")
    w, h = struct.unpack("<II", data[4:12])
    if w == 0 or h == 0:
        raise TexturedgeError(f"texture map is {w}x{h}; it holds no samples")
    need = 12 + 8 * w * h
    if len(data) != need:
        raise TexturedgeError(f"texture map raster has {len(data) - 12} of {8 * w * h} bytes")
    m = np.frombuffer(data[12:], dtype="<f8").reshape(h, w).astype(np.float64)
    if not np.isfinite(m).all():
        raise TexturedgeError("texture map holds a non-finite sample")
    return m


def texture_map_to_gray(m: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Min-max scale a map to 8 bits for visualization.

    Returns ``(image, min, max)``; the scaling constants belong in a sidecar
    file next to the PGM. A constant map scales to all zeros.
    """
    a = np.asarray(m, dtype=np.float64)
    lo, hi = float(a.min()), float(a.max())
    scaled = (a - lo) * (255.0 / (hi - lo)) if hi > lo else np.zeros_like(a)
    return round_to_uint8(scaled), lo, hi
