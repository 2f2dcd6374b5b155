"""Pre-segmentation enhancement: speckle-reducing anisotropic diffusion
followed by contrast-limited adaptive histogram equalization.

Both operations run on the whole breast image before any ROI is cut out,
are deterministic, and preserve image dimensions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidTimeStepError, TilesTooManyError
from .imgio import as_gray_image

_EPS = 1e-6


@dataclass(frozen=True)
class SradParams:
    """Diffusion controls.

    ``time_step`` must stay in (0, 0.25] for the explicit scheme to be
    stable. ``homogeneous_region`` is an optional ``(x, y, width, height)``
    rectangle used to estimate the initial speckle scale; without it the
    scale starts at 1. The scale decays as ``exp(-q0_decay_rho * t)`` with
    ``t`` the accumulated diffusion time.
    """

    iterations: int = 100
    time_step: float = 0.05
    q0_decay_rho: float = 0.05
    homogeneous_region: Optional[tuple[int, int, int, int]] = None


@dataclass(frozen=True)
class ClaheParams:
    """Tile grid and clip controls. ``clip_limit`` is a multiple of the
    uniform bin height (tile_pixels / bins)."""

    clip_limit: float = 2.0
    tiles_x: int = 8
    tiles_y: int = 8
    bins: int = 256


def srad(img, params: SradParams = SradParams()) -> np.ndarray:
    """Speckle-reducing anisotropic diffusion on an 8-bit image.

    Explicit 4-neighborhood update ``I += (dt/4) * div(c(q) grad I)`` with
    mirrored borders. The diffusion coefficient

        c = 1 / (1 + (q^2 - q0^2) / (q0^2 (1 + q0^2)))

    is clamped to [0, 1]; ``q`` is the instantaneous coefficient of
    variation built from the one-sided gradients and the Laplacian.
    Intensities are processed as ``v/255 + 1e-6`` and re-quantized by
    round-half-up, so a constant image (zero flux) comes back unchanged.
    """
    a = as_gray_image(img)
    if params.iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {params.iterations}")
    if not (0.0 < params.time_step <= 0.25):
        raise InvalidTimeStepError(
            f"time_step must be in (0, 0.25], got {params.time_step}")
    if params.homogeneous_region is not None:
        x, y, w, h = params.homogeneous_region
        if not (x >= 0 and y >= 0 and w >= 1 and h >= 1
                and x + w <= a.shape[1] and y + h <= a.shape[0]):
            raise ValueError(f"homogeneous_region {params.homogeneous_region} is not "
                             f"inside the {a.shape[1]}x{a.shape[0]} image")
    if params.iterations == 0:
        return a.copy()

    u = a.astype(np.float64) / 255.0 + _EPS
    if params.homogeneous_region is not None:
        region = u[y:y + h, x:x + w]
        q0_init = float(region.std() / region.mean())
        q0_init = max(q0_init, 1e-8)
    else:
        q0_init = 1.0

    dt = params.time_step
    for n in range(params.iterations):
        q0 = q0_init * np.exp(-params.q0_decay_rho * (n * dt))
        q0_sq = q0 * q0

        p = np.pad(u, 1, mode="symmetric")
        d_n = p[:-2, 1:-1] - u
        d_s = p[2:, 1:-1] - u
        d_w = p[1:-1, :-2] - u
        d_e = p[1:-1, 2:] - u

        grad_sq = (d_n * d_n + d_s * d_s + d_w * d_w + d_e * d_e) / (u * u)
        lap = (d_n + d_s + d_w + d_e) / u
        with np.errstate(divide="ignore", invalid="ignore"):
            q_sq = (0.5 * grad_sq - 0.0625 * lap * lap) / np.square(1.0 + 0.25 * lap)
            c = 1.0 / (1.0 + (q_sq - q0_sq) / (q0_sq * (1.0 + q0_sq)))
        c = np.clip(np.nan_to_num(c, nan=0.0, posinf=1.0, neginf=0.0), 0.0, 1.0)

        # fluxes use the south/east neighbor's coefficient (Yu-Acton stencil)
        cp = np.pad(c, 1, mode="symmetric")
        c_s = cp[2:, 1:-1]
        c_e = cp[1:-1, 2:]
        u = u + 0.25 * dt * (c_s * d_s + c * d_n + c_e * d_e + c * d_w)

    return np.clip(np.floor(u * 255.0 + 0.5), 0.0, 255.0).astype(np.uint8)


def _tile_edges(extent: int, tiles: int) -> list[int]:
    # remainder goes to the last (edge) tile
    base = extent // tiles
    edges = [i * base for i in range(tiles)]
    edges.append(extent)
    return edges


def _tile_mapping(tile: np.ndarray, clip_limit: float, bins: int) -> np.ndarray:
    """Per-value lookup table (256 entries) for one tile."""
    bin_of = (np.arange(256, dtype=np.int64) * bins) // 256
    hist = np.bincount(bin_of[tile.ravel()], minlength=bins)
    if np.count_nonzero(hist) <= 1:
        # single-spike histogram: map every value to itself
        return np.arange(256, dtype=np.float64)
    area = tile.size
    clip = max(1, int(clip_limit * area / bins))
    clipped = np.minimum(hist, clip)
    excess = int(hist.sum() - clipped.sum())
    clipped = clipped + excess // bins  # uniform one-pass redistribution; residual dropped
    cdf = np.cumsum(clipped)
    scale = 255.0 / float(cdf[-1])
    per_bin = np.floor(cdf * scale + 0.5)
    return per_bin[bin_of].astype(np.float64)


def _axis_interp(coords: np.ndarray, centers: np.ndarray):
    """Neighbor tile indices and blend weight along one axis."""
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
    """
    a = as_gray_image(img)
    h, w = a.shape
    if params.clip_limit <= 0:
        raise ValueError(f"clip_limit must be > 0, got {params.clip_limit}")
    if params.tiles_x < 1 or params.tiles_y < 1:
        raise ValueError("tile counts must be >= 1")
    if not (2 <= params.bins <= 256):
        raise ValueError(f"bins must be in [2, 256], got {params.bins}")
    if params.tiles_x > w or params.tiles_y > h:
        raise TilesTooManyError(
            f"{params.tiles_x}x{params.tiles_y} tiles do not fit a {w}x{h} image")

    xs = _tile_edges(w, params.tiles_x)
    ys = _tile_edges(h, params.tiles_y)
    maps = np.empty((params.tiles_y, params.tiles_x, 256), dtype=np.float64)
    for ty in range(params.tiles_y):
        for tx in range(params.tiles_x):
            tile = a[ys[ty]:ys[ty + 1], xs[tx]:xs[tx + 1]]
            maps[ty, tx] = _tile_mapping(tile, params.clip_limit, params.bins)

    cx = np.array([(xs[i] + xs[i + 1] - 1) / 2.0 for i in range(params.tiles_x)])
    cy = np.array([(ys[i] + ys[i + 1] - 1) / 2.0 for i in range(params.tiles_y)])
    x0, x1, wx = _axis_interp(np.arange(w, dtype=np.float64), cx)
    y0, y1, wy = _axis_interp(np.arange(h, dtype=np.float64), cy)

    x0g, x1g = x0[None, :], x1[None, :]
    y0g, y1g = y0[:, None], y1[:, None]
    wxg, wyg = wx[None, :], wy[:, None]
    v = a.astype(np.intp)
    top = (1.0 - wxg) * maps[y0g, x0g, v] + wxg * maps[y0g, x1g, v]
    bottom = (1.0 - wxg) * maps[y1g, x0g, v] + wxg * maps[y1g, x1g, v]
    out = (1.0 - wyg) * top + wyg * bottom
    return np.clip(np.floor(out + 0.5), 0.0, 255.0).astype(np.uint8)
