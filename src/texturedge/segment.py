"""Turn a summed contrast map into a mass mask and contour.

Recipe: Otsu threshold on the map, morphological closing, optional hole
filling, then keep the connected component whose centroid sits closest
to the annotated mass center. Contours come from clockwise Moore
boundary tracing.
"""
from __future__ import annotations

import numpy as np
from scipy import ndimage

from .errors import InternalInvariantError, TexturedgeError
from .imgio import as_gray_image

_EIGHT = np.ones((3, 3), dtype=bool)

# clockwise Moore neighborhood, (dy, dx), starting north-west (y grows down)
_MOORE = ((-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1))


def otsu_threshold(texture_map) -> float:
    """Threshold maximizing between-class variance over a 256-bin histogram
    of the min-max-normalized map. Ties break toward the lower threshold.

    The variance numerator of every split comes from integer prefix sums of
    the histogram, exact in int64 while ``255 * N**2 < 2**63`` for an
    ``N``-pixel map, that is ``N < 1.9e8``. Returned in the map's original
    units; raises ``TexturedgeError`` on a constant map and on one whose
    range ``max - min`` is not a finite float.
    """
    a = np.asarray(texture_map, dtype=np.float64)
    lo, hi = float(a.min()), float(a.max())
    if not np.isfinite(hi - lo):  # Python floats: no overflow warning
        raise TexturedgeError(f"map range [{lo!r}, {hi!r}] has no finite width")
    if hi <= lo:
        raise TexturedgeError("map is constant; no threshold exists")
    norm = (a - lo) / (hi - lo)
    bins = np.minimum((norm * 256.0).astype(np.int64), 255)
    hist = np.bincount(bins.ravel(), minlength=256)
    weighted = hist * np.arange(256, dtype=np.int64)
    total, sum_total = int(hist.sum()), int(weighted.sum())
    w0 = np.cumsum(hist)[:-1]
    s0 = np.cumsum(weighted)[:-1]
    num = (s0 * total - sum_total * w0).astype(np.float64)
    den = w0.astype(np.float64) * (total - w0).astype(np.float64)
    # a split with an empty class scores -1; argmax keeps the first maximum
    var = np.divide(num * num, den, out=np.full(255, -1.0), where=den > 0)
    return lo + (int(np.argmax(var)) + 1) * (hi - lo) / 256.0


def check_threshold(threshold: float) -> None:
    if not np.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")


def binarize(texture_map, threshold: float) -> np.ndarray:
    """Boolean mask: bit set iff map value >= threshold."""
    check_threshold(threshold)
    return np.asarray(texture_map, dtype=np.float64) >= threshold


def disk_footprint(radius: int) -> np.ndarray:
    r = int(radius)
    yy, xx = np.mgrid[-r:r + 1, -r:r + 1]
    return (xx * xx + yy * yy) <= r * r


def check_close_radius(close_radius: int) -> None:
    if close_radius < 0:
        raise ValueError(f"close_radius must be >= 0, got {close_radius}")


def refine_mask(mask, roi_center: tuple[float, float], close_radius: int = 3,
                fill_holes: bool = True) -> np.ndarray:
    """Close small gaps, optionally fill holes, and keep only the connected
    component (8-connectivity) whose centroid is nearest ``roi_center``
    (an ``(x, y)`` point). An empty mask stays empty.
    """
    check_close_radius(close_radius)
    cx, cy = float(roi_center[0]), float(roi_center[1])
    if not (np.isfinite(cx) and np.isfinite(cy)):
        raise ValueError(f"roi_center must be finite, got {roi_center}")
    m = np.asarray(mask, dtype=bool)
    if not m.any():
        return m.copy()
    if close_radius > 0:
        padded = np.pad(m, close_radius, mode="constant", constant_values=False)
        closed = ndimage.binary_closing(padded, structure=disk_footprint(close_radius))
        m = closed[close_radius:-close_radius, close_radius:-close_radius]
    if fill_holes:
        m = ndimage.binary_fill_holes(m)
    labels, n = ndimage.label(m, structure=_EIGHT)
    if n <= 1:
        return m
    centroids = ndimage.center_of_mass(m, labels, range(1, n + 1))
    dists = [(py - cy) ** 2 + (px - cx) ** 2 for py, px in centroids]
    keep = 1 + int(np.argmin(dists))
    return labels == keep


def trace_contour(mask) -> list[list[tuple[int, int]]]:
    """Clockwise Moore boundary of each 8-connected component.

    Each contour starts at the component's topmost-leftmost pixel and lists
    ``(x, y)`` vertices; degenerate components are padded so every contour
    has at least 3 vertices (an isolated pixel yields its 4-vertex square
    collapsed onto that pixel).
    """
    m = np.asarray(mask, dtype=bool)
    labels, n = ndimage.label(m, structure=_EIGHT)
    contours = []
    for i in range(1, n + 1):
        comp = labels == i
        # the first set pixel in raster order is the topmost, then leftmost
        contours.append(_moore_trace(comp, divmod(int(np.argmax(comp)), comp.shape[1])))
    return contours


def _moore_trace(comp: np.ndarray, start: tuple[int, int]) -> list[tuple[int, int]]:
    h, w = comp.shape
    sy, sx = start
    backtrack = 7  # west of the start pixel
    vertices = [(sx, sy)]
    pos = start
    first_state = None
    limit = 4 * (int(comp.sum()) + 1) * 8
    for _ in range(limit):
        found = None
        for step in range(8):
            k = (backtrack + step) % 8
            dy, dx = _MOORE[k]
            ny, nx = pos[0] + dy, pos[1] + dx
            if 0 <= ny < h and 0 <= nx < w and comp[ny, nx]:
                found = (ny, nx, k)
                break
        if found is None:
            break  # isolated pixel
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
        vertices = vertices * 4  # isolated pixel: degenerate 4-vertex square
    while len(vertices) < 3:
        vertices = vertices + vertices[:1]
    return vertices


def contours_to_text(contours: list[list[tuple[int, int]]]) -> str:
    """One polygon per line: ``x0,y0 x1,y1 ...``."""
    lines = [" ".join(f"{x},{y}" for x, y in contour) for contour in contours]
    return "\n".join(lines) + ("\n" if lines else "")


def mask_to_gray(mask) -> np.ndarray:
    """Render a boolean mask as a 0/255 image."""
    return np.where(np.asarray(mask, dtype=bool), 255, 0).astype(np.uint8)


def boundary_pixels(mask) -> np.ndarray:
    """Mask pixels with an unset 4-neighbor (or on the image edge)."""
    m = np.asarray(mask, dtype=bool)
    cross = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    interior = ndimage.binary_erosion(m, structure=cross, border_value=0)
    return m & ~interior


def make_overlay(img, mask) -> np.ndarray:
    """Burn the mask boundary into the image at intensity 255."""
    a = as_gray_image(img).copy()
    a[boundary_pixels(mask)] = 255
    return a
