"""Pre-segmentation enhancement: speckle-reducing anisotropic diffusion
followed by contrast-limited adaptive histogram equalization.

Both operations run on the whole breast image before any ROI is cut out,
are deterministic, and preserve image dimensions.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import TexturedgeError
from .imgio import as_gray_image

_EPS = 1e-6
# rows per SRAD tile; its six float32 scratch planes hold the shared d_s (one
# halo row north) and c (one halo row south), 1.6 MB at 1024 columns
TILE_ROWS = 64


@dataclass(frozen=True)
class SradParams:
    """Diffusion controls, checked when built: ``iterations >= 0``,
    ``time_step`` in (0, 0.25] (the explicit scheme's stable range) and a
    finite ``q0_decay_rho``. ``homogeneous_region`` is an optional
    ``(x, y, width, height)`` rectangle used to estimate the initial speckle
    scale; without it the scale starts at 1. The scale decays as
    ``exp(-q0_decay_rho * t)`` with ``t`` the accumulated diffusion time.
    """

    iterations: int = 100
    time_step: float = 0.05
    q0_decay_rho: float = 0.05
    homogeneous_region: Optional[tuple[int, int, int, int]] = None

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if not 0.0 < self.time_step <= 0.25:
            raise ValueError(f"time_step must be in (0, 0.25], got {self.time_step}")
        if not np.isfinite(self.q0_decay_rho):
            raise ValueError(f"q0_decay_rho must be finite, got {self.q0_decay_rho}")


@dataclass(frozen=True)
class ClaheParams:
    """Tile grid and clip controls, checked when built: ``clip_limit > 0``
    and both tile counts >= 1. ``clip_limit`` is a multiple of the uniform
    bin height (tile_pixels / 256, one bin per gray value)."""

    clip_limit: float = 2.0
    tiles_x: int = 8
    tiles_y: int = 8

    def __post_init__(self):
        if not self.clip_limit > 0:
            raise ValueError(f"clip_limit must be > 0, got {self.clip_limit}")
        if self.tiles_x < 1 or self.tiles_y < 1:
            raise ValueError("tile counts must be >= 1")


def srad(img, params: SradParams = SradParams()) -> np.ndarray:
    """Speckle-reducing anisotropic diffusion on an 8-bit image.

    Explicit 4-neighborhood update ``I += (dt/4) * div(c(q) grad I)`` with
    mirrored borders. The diffusion coefficient

        c = 1 / (1 + (q^2 - q0^2) / (q0^2 (1 + q0^2)))

    is clamped to [0, 1]; ``q`` is the instantaneous coefficient of
    variation built from the one-sided gradients and the Laplacian.
    Intensities are processed as ``v/255 + 1e-6`` and re-quantized by
    round-half-up, which gives back every ``v`` from its float32 start value,
    so zero iterations or a constant image (zero flux) return the input.

    Step ``n`` evaluates, per pixel and left to right,

        grad_sq = (d_n^2 + d_s^2 + d_w^2 + d_e^2) / u^2
        lap     = (d_n + d_s + d_w + d_e) / u
        q_sq    = (0.5 grad_sq - 0.0625 lap lap) / (1 + 0.25 lap)^2
        u'      = u + (0.25 dt) (c_s d_s + c d_n + c_e d_e + c d_w)

    with ``q0`` decayed from its start value, ``c`` NaN-sanitized before
    the clamp, and ``c_s``/``c_e`` the coefficients one pixel south/east
    (Yu & Acton 2002). The mirrored border makes a difference 0 at the
    image edge and repeats the last row/column of ``c``.

    The field is float32; a float64 field makes every pass cost about twice
    as much, in divides and in memory traffic. ``q0`` and its decay are
    computed in float64, and each step rounds ``q0_sq``,
    ``q0_scale = q0_sq (1 + q0_sq)`` and ``0.25 dt`` to float32 once.
    Re-quantization is in float64. The output can therefore differ from a
    float64 evaluation of the same formulas by one gray level, on a few
    pixels per megapixel.

    The field lives in two image-sized float32 buffers: each step reads one
    and writes the other. The rows are split into contiguous bands, one per
    CPU this process may run on but never more than there are
    ``TILE_ROWS``-row tiles, and the bands run on a thread pool (NumPy's
    ufuncs release the GIL). A worker walks its band tile by tile and keeps
    every temporary in its own scratch planes, so no step allocates an
    image-sized array or a padded copy. A tile also computes ``c`` for the
    one row south of it, which ``c_s`` reads; every band is joined before
    the buffers swap, so that one barrier per step is the only
    synchronisation. Each pixel goes through the same IEEE operations in
    the same order for any tiling and worker count, so the float field is
    bit-identical to evaluating the formulas above in float32, with the
    same float32 scalars, one whole array at a time.

    A tile computes each term that neighbours share once. IEEE subtraction
    is sign-symmetric, so ``d_n(r) = -d_s(r-1)`` and ``d_w(j) = -d_e(j-1)``,
    and ``a + (-b)`` is ``a - b`` bit for bit: the sums above read ``d_s``,
    ``d_e``, their squares and the flux products ``P(r) = c(r+1) d_s(r)``
    and ``E(j) = c(j+1) d_e(j)``, each made once per pixel, and every ±1
    column shift runs along the tile's flattened rows, where the term that
    crosses a row end is an exact 0. A shared term can differ from its
    textbook twin only in the sign of an exact zero, which never reaches
    the field: ``lap`` enters ``q_sq`` only as ``lap^2`` and ``4 + lap``,
    and ``u + k acc`` with ``u > 0`` absorbs a signed zero. ``q_sq`` is
    evaluated as ``(8 grad_sq - lap^2) / (4 + lap)^2``: numerator and
    denominator are exactly 16 times the ones above, since scaling by a
    power of two commutes with rounding while nothing overflows or goes
    subnormal, so the quotient is the same float. Nothing does, in float32's
    normal range [1.2e-38, 3.4e38]: each step is a convex combination of a
    pixel and its neighbours (``k`` times the four ``c`` is at most
    ``dt <= 0.25``), so ``u`` stays in [1e-6, 1 + 1e-6]. Every value there
    is a multiple of 2^-43, so a nonzero difference is at least about 1e-13
    and its square about 1e-26; ``u^2 >= 1e-12``; and ``grad_sq <= 4 / u^2``
    gives ``8 grad_sq <= ~3e13`` and ``lap^2 <= ~2e13``. ``c`` is clamped
    by ``fmin(c, 1)`` alone, which sends +inf to 1; it would send NaN to 1,
    not 0, but no ``c`` is NaN or below 0. With ``u > 0``,
    ``lap^2 <= 4 grad_sq`` (Cauchy-Schwarz, with a factor-2 margin over
    float32 rounding) and ``4 + lap`` is the neighbours' sum over ``u``, at
    least 4e-6 against a rounding error in ``lap`` below 1e-6, so
    ``q_sq >= 0``. For ``0 < q0_sq < inf``, ``q0_scale >= q0_sq`` (both are
    rounded from float64 values in that order, and rounding is monotone)
    makes ``1 + (q_sq - q0_sq) / q0_scale >= +0``, so ``c`` is > 0 or +inf;
    a ``q0_scale`` that overflows the cast makes that quotient a zero and
    every ``c`` 1. A float32 ``q0_sq`` of 0 or +inf makes every ``c`` 0 and
    its step the identity, so that step is skipped.
    """
    a = as_gray_image(img)
    if params.homogeneous_region is not None:
        x, y, w, h = params.homogeneous_region
        if not (x >= 0 and y >= 0 and w >= 1 and h >= 1
                and x + w <= a.shape[1] and y + h <= a.shape[0]):
            raise ValueError(f"homogeneous_region {params.homogeneous_region} is not "
                             f"inside the {a.shape[1]}x{a.shape[0]} image")

    u = (a.astype(np.float64) / 255.0 + _EPS).astype(np.float32, order="C")
    field = _diffuse(u, params).astype(np.float64)
    return np.clip(np.floor(field * 255.0 + 0.5), 0.0, 255.0).astype(np.uint8)


def _worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _diffuse(u: np.ndarray, params: SradParams) -> np.ndarray:
    """The float field after ``params.iterations`` SRAD steps from ``u``.

    ``u`` must be C-ordered float32; it serves as one of the two field
    buffers and is overwritten. ``q0`` starts from the whole image's
    homogeneous region and decays in float64; each step rounds its scalars
    to float32 once.
    """
    if params.homogeneous_region is not None:
        x, y, w, h = params.homogeneous_region
        region = u[y:y + h, x:x + w].astype(np.float64)
        q0_init = float(region.std() / region.mean())
        q0_init = max(q0_init, 1e-8)
    else:
        q0_init = 1.0

    height, width = u.shape
    tiles = [(r, min(r + TILE_ROWS, height)) for r in range(0, height, TILE_ROWS)]
    workers = min(_worker_count(), len(tiles))
    bands = [tiles[i * len(tiles) // workers:(i + 1) * len(tiles) // workers]
             for i in range(workers)]
    scratch = [np.empty((6, min(TILE_ROWS, height) + 2, width), dtype=np.float32)
               for _ in bands]
    src, dst = u, np.empty_like(u)
    dt = params.time_step
    # float32 scalars: a float64 one would promote every tile pass to float64
    k = np.float32(0.25 * dt)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for n in range(params.iterations):
            # an extreme q0_decay_rho overflows these scalars to +inf, in
            # float64 or in the cast, which the skip below and the division
            # by q0_scale in _srad_band handle
            with np.errstate(over="ignore"):
                q0 = q0_init * np.exp(-params.q0_decay_rho * (n * dt))
                q0_sq = q0 * q0
                q0_scale = np.float32(q0_sq * (1.0 + q0_sq))
                q0_sq = np.float32(q0_sq)
            if not 0.0 < q0_sq < np.inf:
                continue  # every c is 0: the step leaves the field as it is
            step = partial(_srad_band, src, dst, q0_sq, q0_scale, k)
            # every band is joined before the buffers swap: the next step
            # reads rows that other workers wrote in this one
            list(pool.map(step, bands, scratch))
            src, dst = dst, src
    return src


def _srad_band(src, dst, q0_sq, q0_scale, k, band, scratch) -> None:
    """One SRAD step for the tiles ``(r0, r1)`` of ``band``: reads ``src``,
    writes rows ``r0:r1`` of ``dst``, and keeps every temporary in the six
    planes of ``scratch``. Each pixel goes through the IEEE operations of
    the expressions in ``srad``'s docstring, in their order."""
    height = src.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        for r0, r1 in band:
            end = min(r1 + 1, height)  # one halo row: c_s needs c one row south
            rows, t = end - r0, r1 - r0
            # ds/ds2 row i is image row r0 - 1 + i; the rest start at row r0
            ds, ds2 = (plane[:rows + 1] for plane in scratch[:2])
            de, de2, g, lap = (plane[:rows] for plane in scratch[2:])
            u = src[r0:end]

            # d_s = u(r+1) - u(r) over the tile and one row north of it, and
            # d_e = u(j+1) - u(j) along the flattened rows; the mirrored
            # border makes both 0 at the image edge, and so the one d_e that
            # crosses a row end is overwritten with 0
            top = 1 if r0 == 0 else 0
            bottom = 1 if end == height else 0
            ds[:top] = 0.0
            np.subtract(src[r0 + top:end + 1 - bottom], src[r0 - 1 + top:end - bottom],
                        out=ds[top:rows + 1 - bottom])
            ds[rows + 1 - bottom:] = 0.0
            np.subtract(u.ravel()[1:], u.ravel()[:-1], out=de.ravel()[:-1])
            de[:, -1] = 0.0
            np.multiply(ds, ds, out=ds2)
            np.multiply(de, de, out=de2)

            # d_n(r) = -d_s(r-1) and d_w(j) = -d_e(j-1), so
            # grad_sq = (((d_s^2(r-1) + d_s^2(r)) + d_e^2(j-1)) + d_e^2(j)) / u^2
            np.add(ds2[:-1], ds2[1:], out=g)
            np.add(g.ravel()[1:], de2.ravel()[:-1], out=g.ravel()[1:])
            np.add(g, de2, out=g)
            np.multiply(u, u, out=de2)
            np.divide(g, de2, out=g)
            # lap = (((d_s(r) - d_s(r-1)) - d_e(j-1)) + d_e(j)) / u
            np.subtract(ds[1:], ds[:-1], out=lap)
            np.subtract(lap.ravel()[1:], de.ravel()[:-1], out=lap.ravel()[1:])
            np.add(lap, de, out=lap)
            np.divide(lap, u, out=lap)
            # q_sq = (8 grad_sq - lap^2) / (4 + lap)^2, both parts 16 times the
            # textbook ones and so the same quotient: u in [1e-6, 1 + 1e-6]
            # keeps every term normal (see srad)
            np.multiply(g, 8.0, out=g)
            np.multiply(lap, lap, out=de2)
            np.subtract(g, de2, out=g)
            np.add(lap, 4.0, out=de2)
            np.multiply(de2, de2, out=de2)
            np.divide(g, de2, out=g)
            # c = 1 / (1 + (q_sq - q0_sq) / (q0_sq (1 + q0_sq))) is > 0 or
            # +inf (see srad), so fmin(c, 1) is the whole clamp
            np.subtract(g, q0_sq, out=g)
            np.divide(g, q0_scale, out=g)
            np.add(g, 1.0, out=g)
            c = np.divide(1.0, g, out=g)
            np.fmin(c, 1.0, out=c)

            # P(r) = c(r+1) d_s(r) is pixel r's c_s d_s and -(pixel r+1's
            # c d_n); E(j) = c(j+1) d_e(j) is pixel j's c_e d_e and -(pixel
            # j+1's c d_w). P is 0 below the image and E across a row end,
            # where d_s and d_e are, because c is finite.
            p, e, acc = ds2[:t + 1], de2[:t], lap[:t]
            np.multiply(c, ds[:rows], out=p[:rows])
            p[rows:] = 0.0
            np.multiply(c.ravel()[1:e.size], de[:t].ravel()[:-1], out=e.ravel()[:-1])
            e[-1, -1] = 0.0
            # u + k (((P(r) - P(r-1)) + E(j)) - E(j-1)): the textbook sum
            # c_s d_s + c d_n + c_e d_e + c d_w, term by term
            np.subtract(p[1:], p[:-1], out=acc)
            np.add(acc, e, out=acc)
            np.subtract(acc.ravel()[1:], e.ravel()[:-1], out=acc.ravel()[1:])
            np.multiply(acc, k, out=acc)
            np.add(u[:t], acc, out=dst[r0:r1])


def _tile_mapping(tile: np.ndarray, clip_limit: float) -> np.ndarray:
    """Per-value lookup table for one tile: 256 entries in [0, 255], as uint8."""
    hist = np.bincount(tile.ravel(), minlength=256)
    if np.count_nonzero(hist) <= 1:
        # single-spike histogram: map every value to itself
        return np.arange(256, dtype=np.uint8)
    area = tile.size
    # no bin holds more than the tile area, so a larger clip clips nothing
    clip = max(1, int(min(clip_limit * area / 256, area)))
    clipped = np.minimum(hist, clip)
    excess = int(hist.sum() - clipped.sum())
    clipped = clipped + excess // 256  # uniform one-pass redistribution; residual dropped
    cdf = np.cumsum(clipped)
    scale = 255.0 / float(cdf[-1])
    return np.floor(cdf * scale + 0.5).astype(np.uint8)


def _axis_interp(edges: np.ndarray):
    """Neighbor tile indices and blend weight along an axis split at ``edges``."""
    coords = np.arange(edges[-1], dtype=np.float64)
    centers = (edges[:-1] + edges[1:] - 1) / 2.0
    idx = np.searchsorted(centers, coords, side="right") - 1
    i0 = np.clip(idx, 0, len(centers) - 1)
    i1 = np.clip(idx + 1, 0, len(centers) - 1)
    span = centers[i1] - centers[i0]
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(span > 0, (coords - centers[i0]) / np.where(span > 0, span, 1.0), 0.0)
    return i0, i1, np.clip(w, 0.0, 1.0)


def clahe(img, params: ClaheParams = ClaheParams()) -> np.ndarray:
    """Contrast-limited adaptive histogram equalization.

    Each tile gets a clipped-equalized value mapping; pixels blend the four
    surrounding tile mappings bilinearly. A constant image maps to itself.

    The tables are 8-bit, one ``(tiles_y, tiles_x, 256)`` uint8 array that
    the image indexes directly; a uint8 entry widens to float64 exactly, so
    the float64 blend is the same as over float64 tables.
    """
    a = as_gray_image(img)
    h, w = a.shape
    if params.tiles_x > w or params.tiles_y > h:
        raise TexturedgeError(
            f"{params.tiles_x}x{params.tiles_y} tiles do not fit a {w}x{h} image")

    xs = np.append(np.arange(params.tiles_x) * (w // params.tiles_x), w)  # remainder: last tile
    ys = np.append(np.arange(params.tiles_y) * (h // params.tiles_y), h)
    maps = np.array([[_tile_mapping(a[y0:y1, x0:x1], params.clip_limit)
                      for x0, x1 in zip(xs[:-1], xs[1:])] for y0, y1 in zip(ys[:-1], ys[1:])])
    x0, x1, wx = _axis_interp(xs)
    y0, y1, wy = (v[:, None] for v in _axis_interp(ys))
    top = (1.0 - wx) * maps[y0, x0, a] + wx * maps[y0, x1, a]
    bottom = (1.0 - wx) * maps[y1, x0, a] + wx * maps[y1, x1, a]
    out = (1.0 - wy) * top + wy * bottom
    return np.clip(np.floor(out + 0.5), 0.0, 255.0).astype(np.uint8)
