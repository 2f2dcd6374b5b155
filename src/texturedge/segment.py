"""Turn a summed contrast map into a mass mask and contour.

Recipe: Otsu threshold on the map, morphological closing by a disk,
optional hole filling, then keep the connected component whose centroid
sits closest to the annotated mass center. Contours come from clockwise
Moore boundary tracing. One erosion, its box counts from ``texture.box_sums``
in the narrowest lane that holds the box area (uint8 up to 255 pixels),
serves both passes of the closing and the overlay boundary; scipy only
labels connected components.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from .errors import InternalInvariantError, TexturedgeError
from .imgio import as_gray_image, read_pgm
from .texture import box_sums

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


def disk_rectangles(radius: int) -> list[tuple[int, int]]:
    """``(half_height, half_width)`` of the centred rectangles whose union is
    the radius-``radius`` disk of pixels ``x**2 + y**2 <= r**2``: row ``dy``
    spans ``|x| <= isqrt(r**2 - dy**2)``, a half-width that never grows with
    ``|dy|``, so each distinct half-width reaches down to its last row."""
    r = int(radius)
    last_row = {math.isqrt(r * r - dy * dy): dy for dy in range(r + 1)}
    return [(last_row[w], w) for w in sorted(last_row)]


def _erode(m: np.ndarray, radius: int) -> np.ndarray:
    """Erosion of ``m`` by the radius-``radius`` disk, kept only for the
    pixels ``radius`` in from every edge, so each side is ``2 * radius``
    shorter: a pixel stays when every box of ``disk_rectangles`` around it
    is full, read as a slice of ``box_sums`` of ``m``."""
    h, w = m.shape[0] - 2 * radius, m.shape[1] - 2 * radius
    eroded = np.ones((h, w), dtype=bool)
    for hh, hw in disk_rectangles(radius):
        n_rows, n_cols, y0, x0 = 2 * hh + 1, 2 * hw + 1, radius - hh, radius - hw
        eroded &= box_sums(m, n_rows, n_cols)[y0:y0 + h, x0:x0 + w] == n_rows * n_cols
    return eroded


def _close(m: np.ndarray, radius: int) -> np.ndarray:
    """Binary closing of ``m`` by the radius-``radius`` disk, with everything
    outside ``m`` unset. The dilation onto ``m`` grown by ``radius`` is the
    complement of the complement's erosion, since a box is full of unset
    pixels exactly when it holds no set one."""
    return _erode(~_erode(~np.pad(m, 2 * radius), radius), radius)


def _fill_holes(m: np.ndarray) -> np.ndarray:
    """``m`` with every hole set: a hole is a 4-connected background
    component that touches no edge of the array."""
    labels, n = ndimage.label(~m)
    filled = np.ones(n + 1, dtype=bool)
    filled[labels[[0, -1], :]] = False
    filled[labels[:, [0, -1]]] = False
    filled[0] = True  # the foreground
    return filled[labels]


def check_close_radius(close_radius: int) -> None:
    if close_radius < 0:
        raise ValueError(f"close_radius must be >= 0, got {close_radius}")


def refine_mask(mask, roi_center: tuple[float, float], close_radius: int = 3,
                fill_holes: bool = True) -> np.ndarray:
    """Close small gaps, optionally fill holes, and keep only the connected
    component (8-connectivity) whose centroid is nearest ``roi_center``
    (an ``(x, y)`` point). An empty mask stays empty.

    The closing uses the radius-``close_radius`` disk and treats everything
    outside the mask as unset. The disk is the union of the few rectangles
    of ``disk_rectangles``: the erosion keeps a pixel when all of its boxes
    are full, and the dilation is the complement's erosion. Each box count
    comes from ``texture.box_sums``, as the texture maps' window sums do.
    A hole is a 4-connected background component that touches no edge of
    the mask.
    """
    check_close_radius(close_radius)
    cx, cy = float(roi_center[0]), float(roi_center[1])
    if not (np.isfinite(cx) and np.isfinite(cy)):
        raise ValueError(f"roi_center must be finite, got {roi_center}")
    m = np.asarray(mask, dtype=bool)
    if not m.any():
        return m.copy()
    if close_radius > 0:
        m = _close(m, close_radius)
    if fill_holes:
        m = _fill_holes(m)
    labels, n = ndimage.label(m, structure=_EIGHT)
    if n <= 1:
        return m
    # each centroid sums its pixels' coordinates in raster order, as
    # ndimage.center_of_mass does
    flat = np.flatnonzero(labels)
    lab = labels.ravel()[flat]
    ys, xs = np.divmod(flat, m.shape[1])
    count = np.bincount(lab)[1:]
    centroids = zip((np.bincount(lab, weights=ys)[1:] / count).tolist(),
                    (np.bincount(lab, weights=xs)[1:] / count).tolist())
    dists = [(py - cy) ** 2 + (px - cx) ** 2 for py, px in centroids]
    keep = 1 + int(np.argmin(dists))
    return labels == keep


def trace_contour(mask) -> list[list[tuple[int, int]]]:
    """Clockwise Moore boundary of each 8-connected component.

    Each contour starts at the component's topmost-leftmost pixel and lists
    ``(x, y)`` vertices; degenerate components are padded so every contour
    has at least 3 vertices (an isolated pixel yields its 4-vertex square
    collapsed onto that pixel).

    Every set pixel next to a component belongs to it, so all components
    are walked on one zero-bordered copy of the mask, one byte per pixel.
    """
    m = np.asarray(mask, dtype=bool)
    labels, n = ndimage.label(m, structure=_EIGHT)
    if n == 0:
        return []
    width = m.shape[1] + 2
    grid = np.pad(m, 1).tobytes()
    offsets = [dy * width + dx for dy, dx in _MOORE]
    # from backtrack b, the neighbours in search order, each with the
    # backtrack that stepping onto it leaves
    searches = [[(offsets[k % 8], (k + 5) % 8) for k in range(b, b + 8)] for b in range(8)]
    sizes = np.bincount(labels.ravel()).tolist()
    contours = []
    for i, (rows, cols) in enumerate(ndimage.find_objects(labels), start=1):
        # the component's first pixel in raster order lies in its top row
        x = cols.start + int(np.argmax(labels[rows.start, cols] == i))
        start = (rows.start + 1) * width + x + 1
        contours.append(_moore_trace(grid, width, searches, start, sizes[i]))
    return contours


def _moore_trace(grid: bytes, width: int, searches: list, start: int,
                 size: int) -> list[tuple[int, int]]:
    """Walk the boundary of the ``size``-pixel component holding flat index
    ``start`` of ``grid``, a mask ``width`` bytes wide whose border is unset."""
    backtrack = 7  # west of the start pixel
    path = [start]
    pos = start
    first_pos = first_backtrack = None
    for _ in range(4 * (size + 1) * 8):
        for step, after in searches[backtrack]:
            if grid[pos + step]:
                break
        else:
            break  # isolated pixel
        pos += step
        backtrack = after
        if first_pos is None:
            first_pos, first_backtrack = pos, backtrack
        elif pos == first_pos and backtrack == first_backtrack:
            break
        path.append(pos)
    else:
        raise InternalInvariantError("boundary trace failed to close")
    vertices = [(p % width - 1, p // width - 1) for p in path]
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


def read_mask(path) -> np.ndarray:
    """The boolean mask of a 0/255 PGM, the inverse of ``mask_to_gray``;
    raises ``TexturedgeError`` naming the file and its first other value."""
    gray = read_pgm(path)
    other = gray[(gray != 0) & (gray != 255)]
    if other.size:
        raise TexturedgeError(f"{path}: a mask holds only 0 and 255, found {other[0]}")
    return gray == 255


def boundary_pixels(mask) -> np.ndarray:
    """Mask pixels with an unset 4-neighbor (or on the image edge)."""
    m = np.asarray(mask, dtype=bool)
    return m & ~_erode(np.pad(m, 1), 1)  # the radius-1 disk is the 4-neighbour cross


def make_overlay(img, mask) -> np.ndarray:
    """Burn the mask boundary into the image at intensity 255."""
    a = as_gray_image(img).copy()
    a[boundary_pixels(mask)] = 255
    return a
