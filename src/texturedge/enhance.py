"""Pre-segmentation enhancement: speckle-reducing anisotropic diffusion
followed by contrast-limited adaptive histogram equalization.

Both operations run on the whole breast image before any ROI is cut out,
are deterministic, and preserve image dimensions.
"""
from __future__ import annotations

import mmap
import os
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InternalInvariantError, TexturedgeError
from .imgio import as_gray_image, round_to_uint8

_EPS = 1e-6
# rows per SRAD tile; a band's six private float32 scratch planes of
# TILE_ROWS + 2 rows (d_s and kc one row past the tile) take 0.8 MB at 1024
# columns, each plane starting on its own cache line. On a 1024x1024 film
# with two bands, 32-row tiles beat 64-row ones in 12 of 14 alternating srad
# calls (medians 0.251 and 0.285 s wall, 2 vCPUs)
TILE_ROWS = 32


@dataclass(frozen=True)
class SradParams:
    """Diffusion controls, checked when built: ``iterations >= 0``,
    ``time_step`` in (0, 0.25] (the explicit scheme's stable range) and a
    finite ``q0_decay_rho >= 0``. ``homogeneous_region`` is an optional
    ``(x, y, width, height)`` rectangle used to estimate the initial speckle
    scale; without it the scale starts at 1. The scale only decays, as
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
        if not 0.0 <= self.q0_decay_rho < np.inf:
            raise ValueError(f"q0_decay_rho must be finite and >= 0, got {self.q0_decay_rho}")

    def check_fits(self, width: int, height: int) -> None:
        """Refuse a homogeneous region outside a ``width x height`` image."""
        if self.homogeneous_region is not None:
            x, y, w, h = self.homogeneous_region
            if min(x, y) < 0 or min(w, h) < 1 or x + w > width or y + h > height:
                raise ValueError(f"homogeneous_region {self.homogeneous_region} is not "
                                 f"inside the {width}x{height} image")


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

    def check_fits(self, width: int, height: int) -> None:
        """Refuse more tiles than pixels along an axis of a ``width x height`` image."""
        if self.tiles_x > width or self.tiles_y > height:
            raise TexturedgeError(
                f"{self.tiles_x}x{self.tiles_y} tiles do not fit a {width}x{height} image")


def srad(img, params: SradParams = SradParams()) -> np.ndarray:
    """Speckle-reducing anisotropic diffusion on an 8-bit image.

    Explicit 4-neighborhood update ``I += (dt/4) * div(c(q) grad I)`` with
    mirrored borders. The diffusion coefficient

        c = 1 / (1 + (q^2 - q0^2) / (q0^2 (1 + q0^2)))

    is clamped to [0, 1]; ``q`` is the instantaneous coefficient of
    variation, ``q^2 = (grad^2 / 2 - lap^2 / 16) / (1 + lap / 4)^2``, built
    from the one-sided gradients and the Laplacian (Yu & Acton 2002).
    Without a ``homogeneous_region`` ``q0`` starts at 1, and ``c = 1``
    wherever ``q <= q0``: the default run is the linear 5-point heat
    equation over time 5 (in float64, ``c < 1`` on 0.26 % of a benchmark
    film's pixels at the first step and on none at the last). Intensities
    are processed as ``v/255 + 1e-6`` and re-quantized by round-half-up,
    which gives back every ``v`` from its float32 start value, so zero
    iterations or a constant image (zero flux) return the input.

    Step ``n`` evaluates, per pixel and left to right, over the four
    differences ``d = u(neighbour) - u``,

        G  = ((d_n^2 + d_s^2) + d_w^2) + d_e^2
        L  = ((d_s + d_n) + d_w) + d_e
        S  = 4 u + L                      (the four neighbours' sum)
        q2 = (8 G - L^2) / S^2
        kc = min(ks / (q2 + q0_4), k)
        u' = u + (((kc_s d_s + kc d_n) + kc_e d_e) + kc d_w)

    with ``k = dt/4``, ``ks = k q0^2 (1 + q0^2)``, ``q0_4 = q0^4`` and
    ``kc_s``/``kc_e`` the ``kc`` one pixel south/east. In real arithmetic
    this is the step above exactly: ``grad^2 = G / u^2`` and
    ``lap = L / u`` make ``q^2 = (8 G - L^2) / S^2``, and
    ``c = q0^2 (1 + q0^2) / (q^2 + q0^4)``, so ``kc`` is ``k`` times the
    clamped ``c``. The mirrored border makes a difference 0 at the image
    edge and repeats the last row/column of ``kc``. A tile makes 26 ufunc
    passes per step, two of them divides.

    The field is float32; a float64 field makes every pass cost about twice
    as much, in divides and in memory traffic. ``q0`` and its decay are
    computed in float64, and each step rounds ``q0^4`` and ``q0^2 (1 + q0^2)``
    to float32 once; ``ks`` is the latter times the float32 ``k``.
    Re-quantization is in float64. The output can therefore differ from a
    float64 evaluation of the same formulas by one gray level, on a few
    pixels per megapixel. The conversions in and out each run in place on
    one float64 plane, and neither plane lives through the steps.

    The field lives in two image-sized float32 buffers in one shared
    anonymous mapping: each step reads one and writes the other. ``_planes``
    starts both, and each band's scratch planes below, on a 64-byte cache
    line. NumPy's widest loops (AVX-512 where the CPU has it) load and store
    64 bytes at a time, and an array that starts off a line, as a large
    ``np.empty`` one from the allocator's mmap path does, splits a line at
    every such access: at 1024 columns that cost about 30 % of a step's
    time. Where the data lives changes no pass and no bit.

    The rows are split into contiguous bands, one per CPU this process may
    run on but never more than there are ``TILE_ROWS``-row tiles. This
    process steps the first band and a child forked by ``_in_processes``
    each of the others; with one band no child is started and the same loop
    runs. Threads would not do: a step is ufunc calls only, and each call
    hands the GIL over, a cost that grows with the number of calls (two
    threads stepping separate half-films took 1.3 times one thread's time
    with 64-row tiles and 3.2 times with 16-row ones). Every band steps the
    same two buffers, tile by tile, and keeps every temporary in its own
    scratch planes, so no step allocates an image-sized array or a padded
    copy; every view a tile reads or writes is sliced once per call, for
    either buffer as the source. A tile reads its neighbours' rows (one
    above, two below) where they lie. After each step every band waits at
    that helper's barrier for all the others, the only synchronisation; no
    field byte crosses a pipe. Double buffering makes that enough: step
    ``n`` reads buffer ``s`` and writes only its band's rows of buffer
    ``1 - s``, nothing writes buffer ``s`` again until step ``n + 1``, and
    no band starts step ``n + 1`` before every band has passed the barrier
    after step ``n``. No process outlives the call. Each pixel goes through
    the same IEEE operations in the same order for any tiling and band
    count, so the float field is bit-identical to evaluating the formulas
    above in float32, with the same float32 scalars, one whole array at a
    time.

    A tile computes each term that neighbours share once. IEEE subtraction
    is sign-symmetric, so ``d_n(r) = -d_s(r-1)`` and ``d_w(j) = -d_e(j-1)``,
    and ``a + (-b)`` is ``a - b`` bit for bit: the sums above read ``d_s``,
    ``d_e``, their squares and the flux products ``P(r) = kc(r+1) d_s(r)``
    and ``E(j) = kc(j+1) d_e(j)``, each made once per pixel, and every ±1
    column shift runs along the tile's flattened rows, where the term that
    crosses a row end is an exact 0. A shared term can differ from its
    textbook twin only in the sign of an exact zero, which never reaches
    the field: ``L`` enters ``q2`` only as ``L^2`` and ``4 u + L``, and
    ``u + acc`` with ``u > 0`` absorbs a signed zero.

    The domain: each step is a convex combination of a pixel and its
    neighbours (its four ``kc`` sum to at most ``4 k = dt <= 0.25``), so ``u``
    stays in [1e-6, 1 + 1e-6], where every float32 is a multiple of 2^-43.
    A nonzero difference is then at least about 1e-13 and its square about
    1e-26, inside float32's normal range [1.2e-38, 3.4e38]; ``8 G <= ~32``.
    ``S`` is the neighbours' sum, at least 4e-6, against a rounding error in
    ``L`` below 1e-6, so ``S^2 >= 9e-12``. ``L^2 <= 4 G`` (Cauchy-Schwarz,
    with a factor-2 margin over float32 rounding) gives ``8 G - L^2 >= 0``,
    so ``0 <= q2 < 4e12``, and a pixel with a nonzero difference has
    ``q2 >= 3e-27``. ``q2 + q0_4 > 0`` there, and ``ks`` or ``q0_4`` below
    the normal range moves its ``kc`` by less than 1e-17. The scale only
    decays from its start, 1 without a homogeneous region and below
    ``sqrt(N)`` (1024 on a 1024x1024 film) from an N-pixel one, so no scalar
    overflows. A step with ``ks = 0`` is the identity and is skipped, so the
    one zero divisor is a flat pixel's (``q2 = 0``) once ``q0_4`` underflows:
    ``ks / 0 = +inf`` goes to ``k`` by ``fmin`` and only multiplies zeros.
    """
    a = as_gray_image(img)
    scaled = a.astype(np.float64)
    scaled /= 255.0
    scaled += _EPS
    fields = _planes(a.shape, 2)
    fields[0][...] = scaled
    del scaled  # no float64 plane lives through the diffusion
    scaled = _diffuse(fields, params).astype(np.float64)
    del fields  # unmaps both buffers
    scaled *= 255.0
    return round_to_uint8(scaled)


def _planes(shape, count: int) -> list[np.ndarray]:
    """``count`` C-ordered float32 arrays of ``shape``, zero-filled, in one
    anonymous mapping that forked children share. The mapping starts on a
    page and each array on a 64-byte cache line (see ``srad``)."""
    size = int(np.prod(shape))
    stride = -(-size * 4 // 64) * 64
    shared = mmap.mmap(-1, count * stride)
    return [np.frombuffer(shared, np.float32, size, p * stride).reshape(shape)
            for p in range(count)]


def _worker_count() -> int:
    """Processes SRAD may step bands in: the CPUs this process may run on,
    or 1 where the platform has no ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _diffuse(fields, params: SradParams) -> np.ndarray:
    """The float field after ``params.iterations`` SRAD steps from
    ``fields[0]``, returned as whichever of the two ``fields`` holds it.

    ``fields`` are two C-ordered float32 arrays of one shape in memory
    that forked children share, as ``_planes`` makes them; both are
    overwritten. Buffers that do not start on a 64-byte cache line give the
    same field in slower steps. ``q0`` starts from the homogeneous region
    (inside ``fields[0]``) and decays in float64; each step rounds its
    scalars once, before any band starts.

    ``_in_processes`` steps band 0 in this process and each other band in a
    forked child (see ``srad``). A child that dies, even after its last
    step, or a tile step that raises in band 0, raises
    ``InternalInvariantError`` naming the band, after every child has been
    reaped.
    """
    height, width = fields[0].shape
    params.check_fits(width, height)
    if params.homogeneous_region is not None:
        x, y, w, h = params.homogeneous_region
        region = fields[0][y:y + h, x:x + w].astype(np.float64)
        q0_init = max(float(region.std() / region.mean()), 1e-8)
    else:
        q0_init = 1.0
    dt = params.time_step
    # float32 scalars: a float64 one would promote every tile pass to float64
    k = np.float32(0.25 * dt)
    steps = []  # (ks, q0_4) of every step; one with ks = 0 is the identity
    for n in range(params.iterations):
        q0 = q0_init * np.exp(-params.q0_decay_rho * (n * dt))
        q0_sq = q0 * q0
        ks = k * np.float32(q0_sq * (1.0 + q0_sq))
        if ks > 0.0:
            steps.append((ks, np.float32(q0_sq * q0_sq)))

    tiles = [(r, min(r + TILE_ROWS, height)) for r in range(0, height, TILE_ROWS)]
    workers = min(_worker_count(), len(tiles))
    bands = [tiles[i * len(tiles) // workers:(i + 1) * len(tiles) // workers]
             for i in range(workers)]
    return fields[_in_processes(
        workers, lambda b, sync: _run_band(fields, bands[b], b, steps, k, sync))]


def _in_processes(count: int, run):
    """``run(0, sync)`` in this process and ``run(p, sync)`` in one forked
    child for each other ``p < count``, none for ``count == 1``; returns
    this process's result.

    ``sync()`` is a barrier: no process returns from its ``n``-th call
    before every process has made its ``n``-th. Each child writes one byte
    up one pipe and waits for one byte down another; this process reads a
    byte from every child, then writes one to each. No other byte crosses a
    pipe. A child keeps only its own two pipe ends and leaves by
    ``os._exit``: status 0 once ``run`` returns, 1 if it raises.

    A child that dies, even after its last ``sync``, raises
    ``InternalInvariantError`` naming it; an exception from this process's
    ``run`` propagates as it is. Either comes after every child has been
    reaped: closing this process's pipe ends makes a waiting child's
    ``sync`` raise, and the child exit.
    """
    fds, links, pids = [], [], {}  # links[p - 1]: this end of child p's two pipes

    def ended(p, status):
        return f"SRAD band {p} ended with exit status {os.waitstatus_to_exitcode(status)}"

    def sync():
        for p, (up, _) in enumerate(links, 1):
            if not os.read(up, 1):
                raise InternalInvariantError(ended(p, os.waitpid(pids.pop(p), 0)[1]))
        for _, down in links:
            os.write(down, b"\0")

    try:
        for p in range(1, count):
            up, down = os.pipe(), os.pipe()
            fds += (*up, *down)
            with warnings.catch_warnings():
                # Python 3.12+ warns that a fork in a process with other
                # threads (OpenBLAS's idle pool) may deadlock the child. A
                # SRAD child runs only ufunc passes over its planes and the
                # shared fields, and pipe I/O: it takes no BLAS, logging or
                # other lock a thread of the parent could have held at the
                # fork.
                warnings.filterwarnings("ignore", r"This process .*is multi-threaded, "
                                        r"use of fork\(\)", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for fd in set(fds) - {up[1], down[0]}:
                        os.close(fd)

                    def child_sync():
                        os.write(up[1], b"\0")
                        if not os.read(down[0], 1):
                            raise InternalInvariantError(f"SRAD band {p} lost band 0")

                    run(p, child_sync)
                    code = 0
                finally:
                    os._exit(code)
            pids[p] = pid
            for fd in (up[1], down[0]):
                fds.remove(fd)
                os.close(fd)
            links.append((up[0], down[1]))
        result = run(0, sync)
    finally:
        # a child still running sees its pipes close and exits
        for fd in fds:
            os.close(fd)
        statuses = [(p, os.waitpid(pid, 0)[1]) for p, pid in pids.items()]
    for p, status in statuses:
        if status:
            raise InternalInvariantError(ended(p, status))
    return result


def _run_band(fields, tiles, b, steps, k, sync) -> int:
    """Every step for ``tiles``, band ``b``'s, with ``sync()`` after each
    to wait for every band to finish it; returns the index of the buffer
    that holds the result."""
    height, width = fields[0].shape
    planes = _planes((min(TILE_ROWS, height) + 2, width), 6)
    tile_steps = [[_srad_tile(fields[i], fields[1 - i], r0, r1, planes) for r0, r1 in tiles]
                  for i in (0, 1)]
    src = 0
    with np.errstate(divide="ignore"):  # a flat pixel's ks / 0 (see srad)
        for ks, q0_4 in steps:
            try:
                for step in tile_steps[src]:
                    step(ks, q0_4, k)
            except Exception as exc:
                raise InternalInvariantError(f"SRAD band {b} raised {exc!r}") from exc
            src = 1 - src
            sync()
    return src


def _srad_tile(src, dst, r0, r1, planes):
    """The SRAD step for rows ``r0:r1``: a function of the step's float32
    ``(ks, q0_4, k)`` that reads ``src``, writes those rows of ``dst`` and
    keeps every temporary in the six ``planes``. Every view is sliced here,
    once; the step makes the 26 ufunc passes of the expressions in
    ``srad``'s docstring, in their order, plus the zero fills of ``d_s``
    above and below the image and of ``d_e`` at the row ends."""
    height, width = src.shape
    end = min(r1 + 1, height)  # one halo row: P(r) needs kc one row south
    rows, t = end - r0, r1 - r0
    top, bottom = int(r0 == 0), int(end == height)
    # ds and sq row i is image row r0 - 1 + i; the other planes start at row r0
    ds, sq = (plane[:rows + 1] for plane in planes[:2])
    de, e, g, lap = (plane[:rows] for plane in planes[2:])
    u = src[r0:end]
    # the mirrored border makes d_s 0 above and below the image
    zeros = [z for z in (ds[:top], ds[rows + 1 - bottom:]) if z.size]
    ds_out = ds[top:rows + 1 - bottom]
    u_s, u_n = src[r0 + top:end + 1 - bottom], src[r0 - 1 + top:end - bottom]
    # x_0/x_1: x's flattened rows less their last/first element (a ±1 shift)
    u_e, u_w, de_end = u.ravel()[1:], u.ravel()[:-1], de[:, -1]
    sq_n, sq_s, ds_n, ds_s = sq[:-1], sq[1:], ds[:-1], ds[1:]
    g_1, lap_1, de_0, e_0 = g.ravel()[1:], lap.ravel()[1:], de.ravel()[:-1], e.ravel()[:-1]
    kc_1, de_t0, et_0 = g.ravel()[1:t * width], de[:t].ravel()[:-1], e[:t].ravel()[:-1]
    p_s, p_n, acc, acc_1, et = sq[1:t + 1], sq[:t], lap[:t], lap[:t].ravel()[1:], e[:t]
    u_t, out = src[r0:r1], dst[r0:r1]

    def step(ks, q0_4, k):
        for z in zeros:
            z.fill(0.0)
        np.subtract(u_s, u_n, out=ds_out)  # d_s = u(r+1) - u(r)
        # d_e = u(j+1) - u(j) along the flattened rows; the mirrored border
        # makes it 0 at a row end
        np.subtract(u_e, u_w, out=de_0)
        de_end.fill(0.0)
        np.multiply(ds, ds, out=sq)
        np.multiply(de, de, out=e)
        # d_n(r) = -d_s(r-1) and d_w(j) = -d_e(j-1), so
        # G = ((d_s^2(r-1) + d_s^2(r)) + d_e^2(j-1)) + d_e^2(j)
        np.add(sq_n, sq_s, out=g)
        np.add(g_1, e_0, out=g_1)
        np.add(g, e, out=g)
        # L = ((d_s(r) - d_s(r-1)) - d_e(j-1)) + d_e(j)
        np.subtract(ds_s, ds_n, out=lap)
        np.subtract(lap_1, de_0, out=lap_1)
        np.add(lap, de, out=lap)
        # q2 = (8 G - L^2) / (4 u + L)^2
        np.multiply(lap, lap, out=sq_n)
        np.multiply(g, 8.0, out=g)
        np.subtract(g, sq_n, out=g)
        np.multiply(u, 4.0, out=sq_n)
        np.add(sq_n, lap, out=sq_n)
        np.multiply(sq_n, sq_n, out=sq_n)
        np.divide(g, sq_n, out=g)
        # kc = min(ks / (q2 + q0_4), k), finite (see srad)
        np.add(g, q0_4, out=g)
        np.divide(ks, g, out=g)
        np.fmin(g, k, out=g)
        # P(r) = kc(r+1) d_s(r) is pixel r's kc_s d_s and -(pixel r+1's kc d_n);
        # E(j) = kc(j+1) d_e(j) is pixel j's kc_e d_e and -(pixel j+1's kc d_w).
        # Both are 0 where d_s and d_e are, as kc is finite; the tile's last E
        # keeps its d_e^2 = 0, and P below the image is ds^2's zero row.
        np.multiply(g, ds_n, out=sq_n)
        np.multiply(kc_1, de_t0, out=et_0)
        # u + (((P(r) - P(r-1)) + E(j)) - E(j-1)): the textbook sum
        # kc_s d_s + kc d_n + kc_e d_e + kc d_w, term by term
        np.subtract(p_s, p_n, out=acc)
        np.add(acc, et, out=acc)
        np.subtract(acc_1, et_0, out=acc_1)
        np.add(u_t, acc, out=out)

    return step


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
    return round_to_uint8(cdf * scale)


def _axis_interp(edges: np.ndarray):
    """Neighbor tile indices and blend weight along an axis split at ``edges``."""
    coords = np.arange(edges[-1], dtype=np.float64)
    centers = (edges[:-1] + edges[1:] - 1) / 2.0
    idx = np.searchsorted(centers, coords, side="right") - 1
    i0 = np.clip(idx, 0, len(centers) - 1)
    i1 = np.clip(idx + 1, 0, len(centers) - 1)
    span = centers[i1] - centers[i0]
    w = np.where(span > 0, (coords - centers[i0]) / np.where(span > 0, span, 1.0), 0.0)
    return i0, i1, np.clip(w, 0.0, 1.0)


def clahe(img, params: ClaheParams = ClaheParams()) -> np.ndarray:
    """Contrast-limited adaptive histogram equalization.

    Each tile gets a clipped-equalized value mapping; pixels blend the four
    surrounding tile mappings bilinearly. A constant image maps to itself.

    The tables are 8-bit, one ``(tiles_y, tiles_x, 256)`` uint8 array that
    the image indexes directly; a uint8 entry widens to float64 exactly, so
    the float64 blend is the same as over float64 tables. The blend and its
    rounding run in place on two float64 planes, with one more for the
    product being added.
    """
    a = as_gray_image(img)
    h, w = a.shape
    params.check_fits(w, h)

    xs = np.append(np.arange(params.tiles_x) * (w // params.tiles_x), w)  # remainder: last tile
    ys = np.append(np.arange(params.tiles_y) * (h // params.tiles_y), h)
    maps = np.array([[_tile_mapping(a[y0:y1, x0:x1], params.clip_limit)
                      for x0, x1 in zip(xs[:-1], xs[1:])] for y0, y1 in zip(ys[:-1], ys[1:])])
    x0, x1, wx = _axis_interp(xs)
    y0, y1, wy = (v[:, None] for v in _axis_interp(ys))
    top = (1.0 - wx) * maps[y0, x0, a]
    top += wx * maps[y0, x1, a]
    bottom = (1.0 - wx) * maps[y1, x0, a]
    bottom += wx * maps[y1, x1, a]
    # (1 - wy) top + wy bottom
    top *= 1.0 - wy
    bottom *= wy
    top += bottom
    return round_to_uint8(top)
