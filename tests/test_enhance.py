import itertools
import mmap
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from texturedge import ClaheParams, SradParams, clahe, enhance, srad
from texturedge.errors import InternalInvariantError, TexturedgeError


SRC = Path(__file__).resolve().parents[1] / "src"

# five 32-row tiles: with two or more CPUs srad forks a child per band after
# the first
FORKED_SRAD = '''
import numpy as np
from texturedge import SradParams, srad
srad(np.random.default_rng(7).integers(0, 256, size=(130, 40), dtype=np.uint8),
     SradParams(iterations=3))
'''

# prints the dispatch targets NumPy enabled above its baseline, then the SRAD
# field's and output's bytes for one seeded image with a homogeneous region
DISPATCH_SRAD = '''
import numpy as np
from texturedge import SradParams, enhance, srad
print(" ".join(np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])))
img = np.random.default_rng(11).integers(0, 256, size=(130, 77), dtype=np.uint8)
params = SradParams(iterations=5, homogeneous_region=(3, 3, 20, 20))
fields = enhance._planes(img.shape, 2)
fields[0][...] = (img.astype(np.float64) / 255.0 + 1e-6).astype(np.float32)
print(enhance._diffuse(fields, params).tobytes().hex())
print(srad(img, params).tobytes().hex())
'''


def speckled_patch(rng, mean=128.0, sigma=0.25, size=64):
    noisy = mean * (1.0 + sigma * rng.standard_normal((size, size)))
    return np.clip(noisy, 0, 255).astype(np.uint8)


def _srad_reference_field(img, params, dtype=np.float32):
    """The straightforward SRAD loop over the expressions in ``srad``'s
    docstring: whole-image temporaries and symmetric-padded copies of ``u``
    and ``kc`` each iteration. Returns the float field before
    re-quantization.

    In float32, the field's dtype, the step scalars are rounded from float64
    as ``_diffuse`` rounds them, and the field must match ``_diffuse`` bit
    for bit. The float64 field is the oracle that ``srad``'s output is held
    to within one gray level."""
    u = (img.astype(np.float64) / 255.0 + 1e-6).astype(dtype)
    if params.homogeneous_region is not None:
        x, y, w, h = params.homogeneous_region
        region = u[y:y + h, x:x + w].astype(np.float64)
        q0_init = max(float(region.std() / region.mean()), 1e-8)
    else:
        q0_init = 1.0
    dt = params.time_step
    k = dtype(0.25 * dt)
    for n in range(params.iterations):
        q0 = q0_init * np.exp(-params.q0_decay_rho * (n * dt))
        q0_sq = q0 * q0
        q0_4 = dtype(q0_sq * q0_sq)
        ks = k * dtype(q0_sq * (1.0 + q0_sq))
        if not ks > 0.0:
            continue  # the kernel's skip: a step with ks = 0 is the identity
        p = np.pad(u, 1, mode="symmetric")
        d_n = p[:-2, 1:-1] - u
        d_s = p[2:, 1:-1] - u
        d_w = p[1:-1, :-2] - u
        d_e = p[1:-1, 2:] - u
        g = d_n * d_n + d_s * d_s + d_w * d_w + d_e * d_e
        lap = d_s + d_n + d_w + d_e
        s = 4 * u + lap
        q_sq = (8 * g - lap * lap) / (s * s)
        with np.errstate(divide="ignore"):
            kc = np.fmin(ks / (q_sq + q0_4), k)
        kp = np.pad(kc, 1, mode="symmetric")
        u = u + (kp[2:, 1:-1] * d_s + kc * d_n + kp[1:-1, 2:] * d_e + kc * d_w)
    return u


def _field(img):
    return (img.astype(np.float64) / 255.0 + 1e-6).astype(np.float32)


def _fields(img):
    """``_diffuse``'s two shared buffers with ``img``'s start field in the first."""
    fields = enhance._planes(img.shape, 2)
    fields[0][...] = _field(img)
    return fields


def _quantize(field):
    return np.clip(np.floor(field.astype(np.float64) * 255.0 + 0.5), 0, 255).astype(np.uint8)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def _region_params(shape, iterations, with_region):
    height, width = shape
    region = (0, 0, max(1, width // 2), max(1, height // 2)) if with_region else None
    return SradParams(iterations=iterations, homogeneous_region=region)


def assert_field_matches_reference(img, iterations, with_region):
    params = _region_params(img.shape, iterations, with_region)
    want = _srad_reference_field(img, params)
    assert_same_bits(enhance._diffuse(_fields(img), params), want)
    assert np.array_equal(srad(img, params), _quantize(want))


# one either side of the tile edges at rows 64 and 128, multiples of TILE_ROWS
HEIGHTS = [1, 2, 63, 64, 65, 129, 130]
WIDTHS_ITERATIONS = [(1, 20), (9, 1), (31, 7)]
PATTERNS = ["random", "checkerboard", "lone_peak"]


def pattern_image(pattern, height, width, rng):
    if pattern == "random":
        return rng.integers(0, 256, size=(height, width), dtype=np.uint8)
    if pattern == "checkerboard":
        return (np.indices((height, width)).sum(axis=0) % 2 * 255).astype(np.uint8)
    img = np.zeros((height, width), dtype=np.uint8)
    img[height // 2, width // 2] = 255
    return img


def oracle_grid(rng):
    """Every shape and pattern above, without and with a region."""
    for pattern in PATTERNS:
        for height in HEIGHTS:
            for width, iterations in WIDTHS_ITERATIONS:
                for with_region in [False, True]:
                    img = pattern_image(pattern, height, width, rng)
                    yield img, _region_params(img.shape, iterations, with_region)


def count_off_oracle(img, params, oracle=None):
    """Pixels where ``srad`` differs from the re-quantized float64 oracle
    (computed unless given); asserts that none differs by more than one
    gray level."""
    if oracle is None:
        oracle = _srad_reference_field(img, params, np.float64)
    diff = srad(img, params).astype(np.int64) - _quantize(oracle)
    assert np.abs(diff).max() <= 1
    return np.count_nonzero(diff)


def oracle_relative_error(img, params, oracle=None):
    """The largest relative error of the float32 field before
    re-quantization against the float64 oracle (computed unless given)."""
    if oracle is None:
        oracle = _srad_reference_field(img, params, np.float64)
    field = enhance._diffuse(_fields(img), params).astype(np.float64)
    return np.max(np.abs(field - oracle) / oracle)


@pytest.fixture(scope="module")
def film_oracles(benchmark_films):
    """The float64 oracle field of each benchmark film, computed once."""
    return [_srad_reference_field(film.image, SradParams(), np.float64)
            for film in benchmark_films]


def _clahe_float64_reference(img, params):
    """CLAHE with float64 tables, list-built tile edges and centres, and an
    ``intp`` copy of the image to gather them: the straightforward form
    that ``clahe`` must match byte for byte."""
    a = np.asarray(img).astype(np.uint8)
    h, w = a.shape

    def edges(extent, tiles):
        base = extent // tiles
        return [i * base for i in range(tiles)] + [extent]

    def mapping(tile):
        hist = np.bincount(tile.ravel(), minlength=256)
        if np.count_nonzero(hist) <= 1:
            return np.arange(256, dtype=np.float64)
        clip = max(1, int(min(params.clip_limit * tile.size / 256, tile.size)))
        clipped = np.minimum(hist, clip)
        clipped = clipped + int(hist.sum() - clipped.sum()) // 256
        cdf = np.cumsum(clipped)
        return np.floor(cdf * (255.0 / float(cdf[-1])) + 0.5).astype(np.float64)

    def interp(coords, centers):
        idx = np.searchsorted(centers, coords, side="right") - 1
        i0 = np.clip(idx, 0, len(centers) - 1)
        i1 = np.clip(idx + 1, 0, len(centers) - 1)
        span = centers[i1] - centers[i0]
        with np.errstate(divide="ignore", invalid="ignore"):
            wt = np.where(span > 0, (coords - centers[i0]) / np.where(span > 0, span, 1.0), 0.0)
        return i0, i1, np.clip(wt, 0.0, 1.0)

    xs, ys = edges(w, params.tiles_x), edges(h, params.tiles_y)
    maps = np.empty((params.tiles_y, params.tiles_x, 256), dtype=np.float64)
    for ty in range(params.tiles_y):
        for tx in range(params.tiles_x):
            maps[ty, tx] = mapping(a[ys[ty]:ys[ty + 1], xs[tx]:xs[tx + 1]])
    cx = np.array([(xs[i] + xs[i + 1] - 1) / 2.0 for i in range(params.tiles_x)])
    cy = np.array([(ys[i] + ys[i + 1] - 1) / 2.0 for i in range(params.tiles_y)])
    x0, x1, wx = interp(np.arange(w, dtype=np.float64), cx)
    y0, y1, wy = interp(np.arange(h, dtype=np.float64), cy)
    x0g, x1g, wxg = x0[None, :], x1[None, :], wx[None, :]
    y0g, y1g, wyg = y0[:, None], y1[:, None], wy[:, None]
    v = a.astype(np.intp)
    top = (1.0 - wxg) * maps[y0g, x0g, v] + wxg * maps[y0g, x1g, v]
    bottom = (1.0 - wxg) * maps[y1g, x0g, v] + wxg * maps[y1g, x1g, v]
    out = (1.0 - wyg) * top + wyg * bottom
    return np.clip(np.floor(out + 0.5), 0.0, 255.0).astype(np.uint8)


# 1x1, 1xN, Nx1, sides equal to a tile count and sides no tile count divides
CLAHE_SHAPES = [(1, 1), (1, 37), (37, 1), (3, 3), (8, 8), (29, 67)]
CLAHE_PATTERNS = ["constant", "random", "checkerboard"]


def clahe_pattern(pattern, shape, rng):
    if pattern == "constant":
        return np.full(shape, 93, dtype=np.uint8)
    return pattern_image(pattern, *shape, rng)


def clahe_grid(shape):
    """Tile counts 1, 3, 8 and the side itself where they fit, with every
    clip limit of the grid."""
    counts = [sorted({n for n in (1, 3, 8, side) if n <= side}) for side in shape]
    return [ClaheParams(clip_limit=clip, tiles_x=tx, tiles_y=ty)
            for ty, tx, clip in itertools.product(counts[0], counts[1], [1e-3, 2.0, 1e300])]


class TestSrad:
    @pytest.fixture(autouse=True)
    def no_child_left(self):
        # every srad call reaps the children it forked, whether it returns
        # or raises
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("height", HEIGHTS)
    @pytest.mark.parametrize("width,iterations", WIDTHS_ITERATIONS)
    @pytest.mark.parametrize("with_region", [False, True])
    def test_field_matches_reference_bits(self, height, width, iterations, with_region, rng):
        img = pattern_image("random", height, width, rng)
        assert_field_matches_reference(img, iterations, with_region)

    # On a 0/255 checkerboard S = 4u + L falls to about 4e-6 on the 255
    # cells, so q2 is about 1e12 and kc about 0. A lone 255 whose region is
    # all 0 floors q0 at 1e-8, so ks / q0_4 is about 1e14 on the flat
    # background and fmin clamps it to k. kc < 0 and NaN cannot occur while
    # u > 0: q2 >= 0 and S > 0.
    @pytest.mark.parametrize("pattern", PATTERNS[1:])
    @pytest.mark.parametrize("height", HEIGHTS)
    @pytest.mark.parametrize("width,iterations", WIDTHS_ITERATIONS)
    @pytest.mark.parametrize("with_region", [False, True])
    def test_clamped_field_matches_reference_bits(self, pattern, height, width, iterations,
                                                  with_region, rng):
        img = pattern_image(pattern, height, width, rng)
        assert_field_matches_reference(img, iterations, with_region)

    def test_output_within_one_level_of_float64_oracle_on_grid(self, rng):
        # the float32 field's named bit change, over every shape and pattern
        # above: measured 1 of 111,684 pixels, off by one level
        off = total = 0
        for img, params in oracle_grid(rng):
            off += count_off_oracle(img, params)
            total += img.size
        assert off <= 1e-4 * total

    @pytest.mark.parametrize("index", [0, 1, 2], ids=["F", "G", "D"])
    def test_film_output_within_one_level_of_float64_oracle(self, index, benchmark_films,
                                                            film_oracles):
        # measured 4, 7 and 4 of 1,048,576 pixels, each off by one level
        img = benchmark_films[index].image
        assert count_off_oracle(img, SradParams(), film_oracles[index]) <= 1e-4 * img.size

    def test_field_within_float64_oracle_error_on_grid(self, rng):
        # the float field itself, before re-quantization hides its error.
        # The bound is the largest relative error measured for the step's
        # five-divide form, c = 1 / (1 + (q^2 - q0^2) / (q0^2 (1 + q0^2)))
        # evaluated as written: 7.10e-6; the two-divide form measures 4.26e-6
        worst = max(oracle_relative_error(img, params) for img, params in oracle_grid(rng))
        assert worst <= 7.2e-6

    @pytest.mark.parametrize("index", [0, 1, 2], ids=["F", "G", "D"])
    def test_film_field_within_float64_oracle_error(self, index, benchmark_films,
                                                    film_oracles):
        # the bound is the five-divide form's largest relative error over
        # the three films (6.86e-7, 7.51e-7, 7.30e-7); the two-divide form
        # measures the same three maxima
        img = benchmark_films[index].image
        assert oracle_relative_error(img, SradParams(), film_oracles[index]) <= 7.6e-7

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_params_match_reference_bits(self, data):
        # heights on both sides of one and two tile edges
        height = data.draw(st.integers(1, 2 * enhance.TILE_ROWS + 2), label="height")
        width = data.draw(st.integers(1, 9), label="width")
        img = data.draw(arrays(np.uint8, (height, width)), label="img")
        region = data.draw(st.none() | st.tuples(
            st.integers(0, width - 1), st.integers(0, height - 1)).flatmap(
            lambda xy: st.tuples(st.just(xy[0]), st.just(xy[1]),
                                 st.integers(1, width - xy[0]),
                                 st.integers(1, height - xy[1]))), label="region")
        params = SradParams(
            iterations=data.draw(st.integers(1, 5), label="iterations"),
            time_step=data.draw(st.floats(0.0, 0.25, exclude_min=True), label="time_step"),
            q0_decay_rho=data.draw(st.floats(0.0, 5000.0), label="q0_decay_rho"),
            homogeneous_region=region)
        assert_same_bits(enhance._diffuse(_fields(img), params),
                         _srad_reference_field(img, params))

    # from step 1 on, rho 1e4 sends q0^2 to 0, where ks is 0: those steps
    # are skipped and leave the field as step 0 left it
    @pytest.mark.parametrize("rho", [1e4])
    def test_degenerate_q0_matches_reference_bits(self, rho, rng):
        img = rng.integers(0, 256, size=(70, 11), dtype=np.uint8)
        params = SradParams(iterations=4, q0_decay_rho=rho, homogeneous_region=(1, 1, 5, 5))
        got = enhance._diffuse(_fields(img), params)
        assert_same_bits(got, _srad_reference_field(img, params))
        assert_same_bits(got, enhance._diffuse(_fields(img), replace(params, iterations=1)))

    def test_q0_sq_rounding_to_zero_in_float32_skips_the_step(self, rng):
        # rho 1200 takes q0 to exp(-60) at step 1 and exp(-120) at step 2:
        # q0^2 is finite and nonzero in float64 but rounds to 0 in float32,
        # as do q0_4 and ks, so both steps leave the field after step 0 as
        # it is
        q0_sq = np.exp(-60.0) ** 2
        assert q0_sq > 0 and np.float32(q0_sq) == 0
        img = rng.integers(0, 256, size=(70, 11), dtype=np.uint8)
        params = SradParams(iterations=3, q0_decay_rho=1200.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = enhance._diffuse(_fields(img), params)
        assert_same_bits(got, _srad_reference_field(img, params))
        assert_same_bits(got, enhance._diffuse(_fields(img), replace(params, iterations=1)))

    def test_q0_4_underflow_sends_flat_pixels_kc_to_k(self, rng):
        # rho 690 takes q0 to exp(-34.5) at step 1: the float32 q0^4 is 0
        # but ks ~ 1.35e-32 is not, so the step runs and a flat pixel's
        # kc = ks / (0 + 0) is +inf, which fmin sends to k; the only
        # quotient by zero the kernel makes, with no warning and no NaN
        q0_sq = np.exp(-34.5) ** 2
        k = np.float32(0.25 * SradParams().time_step)
        assert np.float32(q0_sq * q0_sq) == 0 and k * np.float32(q0_sq * (1.0 + q0_sq)) > 0
        img = rng.integers(0, 256, size=(70, 11), dtype=np.uint8)
        img[:8] = 90
        params = SradParams(iterations=2, q0_decay_rho=690.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = enhance._diffuse(_fields(img), params)
            assert_same_bits(got, _srad_reference_field(img, params))
        assert np.isfinite(got).all()  # an inf or NaN kc times a zero is NaN

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_worker_split_matches_reference_bits(self, workers, monkeypatch, rng):
        # more processes than cores: a neighbour's row read before that band
        # finished the step, or a row written while a band still reads the
        # step before, breaks equality
        monkeypatch.setattr(enhance, "_worker_count", lambda: workers)
        img = speckled_patch(rng, size=5 * 64 + 3)[:, :13]
        params = SradParams(iterations=4, homogeneous_region=(2, 2, 8, 8))
        want = _srad_reference_field(img, params)
        assert_same_bits(enhance._diffuse(_fields(img), params), want)

    def test_forked_srad_is_clean_in_development_mode(self):
        # the README's development-mode check: a file or other resource left
        # open warns under -X dev, and so does os.fork on Python 3.12+ in a
        # process with other threads; every warning is an error
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-c", FORKED_SRAD],
            env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
            timeout=300)
        assert (result.returncode, result.stderr) == (0, "")

    def test_fork_warning_for_a_threaded_process_is_not_an_error(self, monkeypatch, rng):
        # Python 3.12+ gives this warning in the parent after forking a
        # process with other threads, as OpenBLAS's pool makes numpy's;
        # pytest makes every warning an error, which would leave the parent
        # without its child's pid
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                              "fork() may lead to deadlocks in the child.",
                              DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        monkeypatch.setattr(enhance, "_worker_count", lambda: 2)
        img = rng.integers(0, 256, size=(2 * enhance.TILE_ROWS + 3, 9), dtype=np.uint8)
        params = SradParams(iterations=2)
        assert_same_bits(enhance._diffuse(_fields(img), params),
                         _srad_reference_field(img, params))

    @pytest.mark.parametrize("band,fault", [
        pytest.param(0, "raises", id="0"), pytest.param(1, "dies", id="1"),
        pytest.param(1, "dies-after-its-last-step", id="1-after-its-last-step"),
        pytest.param(1, "raises", id="1-raises")])
    def test_failed_band_raises_invariant_error(self, band, fault, monkeypatch, rng):
        # band 0 or band 1's child raises in its second step, or band 1's
        # child dies in its second step or after its last one, past every
        # barrier, where only its exit status shows it; a child's exception
        # text reaches this process, and either way every child is reaped
        # (see no_child_left)
        parent, tile, run_band = os.getpid(), enhance._srad_tile, enhance._run_band

        def failing_tile(src, dst, r0, r1, planes):
            step, calls = tile(src, dst, r0, r1, planes), []
            if (os.getpid() == parent) != (band == 0):
                return step

            def fail(*scalars):
                calls.append(1)
                if len(calls) == 2:
                    if fault == "dies":
                        os._exit(7)
                    raise FloatingPointError("overflow")
                step(*scalars)

            return fail

        def exiting_band(fields, tiles, b, *rest):
            run_band(fields, tiles, b, *rest)
            if b == band:
                os._exit(7)

        if fault == "dies-after-its-last-step":
            monkeypatch.setattr(enhance, "_run_band", exiting_band)
        else:
            monkeypatch.setattr(enhance, "_srad_tile", failing_tile)
        monkeypatch.setattr(enhance, "_worker_count", lambda: 3)
        img = rng.integers(0, 256, size=(3 * enhance.TILE_ROWS, 9), dtype=np.uint8)
        what = ("ended with exit status 7" if fault.startswith("dies")
                else r"raised FloatingPointError\('overflow'\)")
        with pytest.raises(InternalInvariantError, match=f"^SRAD band {band} {what}$"):
            enhance._diffuse(_fields(img), SradParams(iterations=5))

    def test_input_layout_does_not_change_output(self, rng):
        # the tiles shift along flattened C rows, so srad must hand them one
        img = rng.integers(0, 256, size=(70, 22), dtype=np.uint8)
        params = SradParams(iterations=3, homogeneous_region=(1, 1, 5, 5))
        for arr in (np.asfortranarray(img), img[:, ::2], img.astype(np.int64)):
            assert np.array_equal(srad(arr, params),
                                  srad(np.ascontiguousarray(arr, dtype=np.uint8), params))

    @pytest.mark.parametrize("offset", [4, 16, 32, 48])
    def test_field_offset_does_not_change_bits(self, offset, monkeypatch, rng):
        # a caller's fields that start off a cache line split lines in the
        # vector loops: slower steps, the same bits. Both buffers lie back
        # to back in one shared mapping sliced at the offset; at 70x101 the
        # second starts 56 bytes further on, off a line as well
        img = rng.integers(0, 256, size=(70, 101), dtype=np.uint8)
        params = SradParams(iterations=3, homogeneous_region=(1, 1, 9, 9))
        shared = mmap.mmap(-1, offset + 2 * img.size * 4)
        fields = [np.frombuffer(shared, np.float32, img.size, offset + i * img.size * 4)
                  .reshape(img.shape) for i in (0, 1)]
        fields[0][...] = _field(img)
        assert [f.ctypes.data % 64 for f in fields] == [offset, (offset + 56) % 64]
        monkeypatch.setattr(enhance, "_worker_count", lambda: 2)
        assert_same_bits(enhance._diffuse(fields, params), _srad_reference_field(img, params))

    @pytest.mark.parametrize("width", [13, 1023, 1024])
    def test_buffers_start_on_cache_lines(self, width, monkeypatch, rng, tmp_path):
        # both field buffers from srad and every scratch plane of every band,
        # for widths whose rows are not a whole number of cache lines too;
        # each process, this one and the forked child, appends what its
        # tiles got to one log
        log = tmp_path / "starts"
        tile = enhance._srad_tile

        def recording_tile(src, dst, r0, r1, planes):
            with open(log, "a") as f:
                f.write(" ".join(map(str, (os.getpid(), r0, *(a.ctypes.data for a in
                                                              (src, dst, *planes))))) + "\n")
            return tile(src, dst, r0, r1, planes)

        monkeypatch.setattr(enhance, "_srad_tile", recording_tile)
        monkeypatch.setattr(enhance, "_worker_count", lambda: 2)
        srad(rng.integers(0, 256, size=(enhance.TILE_ROWS + 6, width), dtype=np.uint8),
             SradParams(iterations=1))
        by_pid = {}
        for line in log.read_text().splitlines():
            pid, r0, *starts = map(int, line.split())
            by_pid.setdefault(pid, set()).add(r0)
            assert len(set(starts)) == 2 + 6 and all(start % 64 == 0 for start in starts)
        assert sorted(by_pid.values(), key=min) == [{0}, {enhance.TILE_ROWS}]
        assert os.getpid() in by_pid

    def test_dispatch_targets_do_not_change_bits(self, rng):
        # the field and the output with every SIMD target above NumPy's
        # baseline disabled (narrower vectors, other loop tails) equal the
        # in-process run's, which uses every target this host has (on an
        # AVX-512 host X86_V3, X86_V4 and the AVX512_* ones)
        targets = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
        if not targets:
            pytest.skip("NumPy dispatches to no target above its baseline here")
        result = subprocess.run(
            [sys.executable, "-c", DISPATCH_SRAD],
            env={**os.environ, "PYTHONPATH": str(SRC),
                 "NPY_DISABLE_CPU_FEATURES": " ".join(targets)},
            capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        found, field_hex, out_hex = result.stdout.splitlines()
        assert found == ""  # the child ran on the baseline loops only
        img = np.random.default_rng(11).integers(0, 256, size=(130, 77), dtype=np.uint8)
        params = SradParams(iterations=5, homogeneous_region=(3, 3, 20, 20))
        assert field_hex == enhance._diffuse(_fields(img), params).tobytes().hex()
        assert out_hex == srad(img, params).tobytes().hex()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_srad_peak_holds_one_float64_plane(self, workers, monkeypatch, rng):
        # entry and exit each convert in place on one float64 plane: the
        # heap's peak is the exit's float64 plane and uint8 output, with a
        # quarter field of slack; one more float64 or field-sized temporary
        # at either end breaks the bound. tracemalloc sees this process's
        # heap only: not the two fields nor any band's scratch planes, which
        # all lie in anonymous mappings.
        monkeypatch.setattr(enhance, "_worker_count", lambda: workers)
        img = rng.integers(0, 256, size=(512, 256), dtype=np.uint8)
        field = img.size * 4
        tracemalloc.start()
        try:
            srad(img, SradParams(iterations=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * img.size + img.size + field // 4

    @pytest.mark.parametrize("workers", [1, 2])
    def test_steps_allocate_no_image_sized_array(self, workers, monkeypatch, rng):
        # a quarter image of slack and nothing more: one image-sized
        # temporary per step, or a copy of a half-image band, breaks the
        # bound. tracemalloc sees this process's heap only: not the two
        # fields nor any band's scratch planes, which all lie in anonymous
        # mappings. The slack holds the views of every tile step this
        # process makes, about 5.6 kB each (0.72 MB for one worker's 128),
        # and the image is wide enough for that.
        monkeypatch.setattr(enhance, "_worker_count", lambda: workers)
        fields = _fields(rng.integers(0, 256, size=(2048, 512), dtype=np.uint8))
        field = fields[0].nbytes
        tracemalloc.start()
        try:
            enhance._diffuse(fields, SradParams(iterations=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < field // 4

    def test_no_field_byte_crosses_a_pipe(self, monkeypatch, rng):
        # two bands step one shared pair of fields: each read or write on a
        # band pipe moves one barrier byte, never rows of the field. The
        # forked child inherits the wrapped calls, and a failed assertion
        # there ends it with status 1, which _in_processes raises with its text
        pipes, moved = set(), []
        pipe, read, write, readv = os.pipe, os.read, os.write, os.readv

        def counted(fd, n):
            if fd in pipes:
                assert n <= 1, f"{n} bytes crossed a band pipe"
                moved.append(n)
            return n

        def new_pipe():
            fds = pipe()
            pipes.update(fds)
            return fds

        def checked_read(fd, n):
            data = read(fd, n)
            counted(fd, len(data))
            return data

        monkeypatch.setattr(os, "pipe", new_pipe)
        monkeypatch.setattr(os, "read", checked_read)
        monkeypatch.setattr(os, "write", lambda fd, data: counted(fd, write(fd, data)))
        monkeypatch.setattr(os, "readv", lambda fd, views: counted(fd, readv(fd, views)))
        monkeypatch.setattr(enhance, "_worker_count", lambda: 2)
        img = rng.integers(0, 256, size=(2 * enhance.TILE_ROWS + 3, 9), dtype=np.uint8)
        params = SradParams(iterations=3)
        got = enhance._diffuse(_fields(img), params)
        assert_same_bits(got, _srad_reference_field(img, params))
        assert moved == [1] * 2 * params.iterations  # this process: one read, one write a step

    @pytest.mark.parametrize("iterations", [1, 10, 100])
    def test_constant_image_identity(self, iterations):
        img = np.full((32, 32), 100, dtype=np.uint8)
        assert np.array_equal(srad(img, SradParams(iterations=iterations)), img)

    def test_zero_iterations_identity(self):
        # every gray value: v/255 + 1e-6 in float32 re-quantizes to v
        img = np.arange(256, dtype=np.uint8).reshape(16, 16)
        for with_region in (False, True):
            assert np.array_equal(srad(img, _region_params(img.shape, 0, with_region)), img)

    @pytest.mark.parametrize("dt", [0.0, -0.1, 0.26, 1.0, 0.3, float("nan")])
    def test_time_step_validation(self, dt):
        # checked when the parameters are built, before any image is read
        message = f"time_step must be in (0, 0.25], got {dt}"
        with pytest.raises(ValueError, match=re.escape(message)):
            SradParams(time_step=dt)

    def test_negative_iterations(self):
        with pytest.raises(ValueError, match=re.escape("iterations must be >= 0, got -1")):
            SradParams(iterations=-1)

    @pytest.mark.parametrize("rho", [float("nan"), float("inf"), float("-inf"), -1e-3, -454.0])
    def test_q0_decay_rho_must_be_finite(self, rho):
        # the speckle scale only decays: a negative rate would grow q0 until
        # its float32 step scalars overflow, and a NaN rate would make every
        # step's q0 NaN
        message = f"q0_decay_rho must be finite and >= 0, got {rho}"
        with pytest.raises(ValueError, match=re.escape(message)):
            SradParams(iterations=10, q0_decay_rho=rho)

    def test_speckle_variance_drops(self, rng):
        img = speckled_patch(rng)
        out = srad(img, SradParams(iterations=40))
        assert out.astype(float).var() < img.astype(float).var()

    def test_step_edge_stays_put(self):
        img = np.zeros((24, 48), dtype=np.uint8)
        img[:, 24:] = 255
        out = srad(img, SradParams(iterations=50)).astype(float)
        for row in out:
            crossing = int(np.argmax(row >= (row.min() + row.max()) / 2.0))
            assert abs(crossing - 24) <= 1

    def test_homogeneous_region_seed(self, rng):
        img = speckled_patch(rng)
        out = srad(img, SradParams(iterations=20, homogeneous_region=(4, 4, 16, 16)))
        assert out.shape == img.shape

    def test_bad_homogeneous_region(self):
        # wholly outside, and partly outside (q0 would come from a 4x10 sliver)
        cases = [(8, (20, 20, 4, 4)), (64, (60, 0, 10, 10))]
        for (size, region), iterations in itertools.product(cases, [0, 1]):
            img = np.full((size, size), 10, dtype=np.uint8)
            with pytest.raises(ValueError):
                srad(img, SradParams(iterations=iterations, homogeneous_region=region))

    def test_deterministic(self, rng):
        img = speckled_patch(rng)
        assert np.array_equal(srad(img, SradParams(iterations=25)),
                              srad(img, SradParams(iterations=25)))

    def test_output_dimensions_and_range(self, rng):
        img = rng.integers(0, 256, size=(17, 31), dtype=np.uint8)
        out = srad(img, SradParams(iterations=15))
        assert out.shape == img.shape and out.dtype == np.uint8


def _open_fds():
    """This process's open file descriptors, or None where there is no
    /proc/self/fd to list them."""
    try:
        return set(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


def in_processes(count, run):
    """``enhance._in_processes(count, run)``, which must leave every fd as it
    found it and no child unreaped, whether it returns or raises."""
    before = _open_fds()
    try:
        enhance._in_processes(count, run)
    finally:
        assert _open_fds() == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestInProcesses:
    """The process helper on its own, with fake ``run``s and no SRAD. A
    child's failed assertion ends it with status 1, and the helper raises
    its text."""

    @pytest.mark.parametrize("count", [2, 3])
    def test_no_process_passes_a_sync_before_every_process_reaches_it(self, count):
        reached = np.frombuffer(mmap.mmap(-1, 8 * count), np.int64)

        def run(p, sync):
            for n in range(1, 6):
                if p == count - 1:
                    time.sleep(0.01)  # the last process is always the slowest
                reached[p] = n
                sync()
                assert reached.min() >= n

        in_processes(count, run)
        assert list(reached) == [5] * count

    def test_one_process_forks_nothing(self, monkeypatch):
        def refuse():
            raise AssertionError("one process needs no fork and no pipe")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(os, "pipe", refuse)
        calls = []

        def run(p, sync):
            sync()
            sync()
            calls.append(p)

        in_processes(1, run)
        assert calls == [0]

    @pytest.mark.parametrize("fault,status", [
        ("raises", 1), ("dies", 7), ("dies-after-its-last-sync", 7)])
    def test_failed_child_raises_invariant_error_naming_it(self, fault, status):
        # child 2 fails between its two syncs or after the last; child 1
        # then finds its pipe closed, or has already ended cleanly. A raised
        # exception's text reaches this process, an exit shows only its status
        def run(p, sync):
            sync()
            if p == 2 and fault == "raises":
                raise ValueError("a fault in child 2")
            if p == 2 and fault == "dies":
                os._exit(7)
            sync()
            if p == 2 and fault == "dies-after-its-last-sync":
                os._exit(7)

        what = (r"raised ValueError\('a fault in child 2'\)" if fault == "raises"
                else f"ended with exit status {status}")
        with pytest.raises(InternalInvariantError, match=f"^SRAD band 2 {what}$"):
            in_processes(3, run)

    def test_failure_here_propagates_after_every_child_is_reaped(self):
        def run(p, sync):
            sync()
            if p == 0:
                raise ValueError("a fault in this process")
            sync()

        with pytest.raises(ValueError, match="^a fault in this process$"):
            in_processes(3, run)


class TestClahe:
    def test_constant_image_identity(self):
        img = np.full((40, 40), 77, dtype=np.uint8)
        assert np.array_equal(clahe(img), img)

    def test_idempotent_on_constant(self):
        img = np.full((40, 40), 200, dtype=np.uint8)
        once = clahe(img)
        assert np.array_equal(clahe(once), once)

    def test_low_contrast_std_increases(self, rng):
        img = rng.integers(100, 131, size=(64, 64), dtype=np.uint8)
        out = clahe(img, ClaheParams(clip_limit=2.0, tiles_x=8, tiles_y=8))
        assert out.std() > img.std()

    def test_range_contract(self, rng):
        img = rng.integers(0, 256, size=(50, 70), dtype=np.uint8)
        out = clahe(img)
        assert out.min() >= 0 and out.max() <= 255 and out.shape == img.shape

    def test_tiles_too_many(self):
        with pytest.raises(TexturedgeError, match="8x8 tiles do not fit a 4x4 image"):
            clahe(np.zeros((4, 4), dtype=np.uint8), ClaheParams(tiles_x=8, tiles_y=8))

    def test_uneven_tile_remainder(self, rng):
        img = rng.integers(0, 256, size=(65, 67), dtype=np.uint8)
        out = clahe(img, ClaheParams(tiles_x=8, tiles_y=8))
        assert out.shape == img.shape

    @pytest.mark.parametrize("params", [
        {"clip_limit": 0.0},
        {"tiles_x": 0},
        {"clip_limit": -1.0},
        {"clip_limit": float("nan")},
        {"tiles_y": -2},
    ])
    def test_param_validation(self, params):
        # checked when the parameters are built, before any image is read
        clip = params.get("clip_limit")
        message = ("tile counts must be >= 1" if clip is None
                   else f"clip_limit must be > 0, got {clip}")
        with pytest.raises(ValueError, match=re.escape(message)):
            ClaheParams(**params)

    def test_deterministic(self, rng):
        img = rng.integers(0, 256, size=(33, 47), dtype=np.uint8)
        assert np.array_equal(clahe(img), clahe(img))

    def test_huge_clip_limit_clips_nothing(self, rng):
        # clip_limit * area / 256 overflows to inf; a clip at the tile area
        # already leaves every bin whole
        img = rng.integers(0, 256, size=(40, 40), dtype=np.uint8)
        assert np.array_equal(clahe(img, ClaheParams(clip_limit=1e308)),
                              clahe(img, ClaheParams(clip_limit=256.0)))

    @pytest.mark.parametrize("shape", CLAHE_SHAPES)
    @pytest.mark.parametrize("pattern", CLAHE_PATTERNS)
    def test_matches_float64_table_reference(self, shape, pattern, rng):
        img = clahe_pattern(pattern, shape, rng)
        for params in clahe_grid(shape):
            assert np.array_equal(clahe(img, params), _clahe_float64_reference(img, params))

    def test_input_layout_matches_float64_table_reference(self, rng):
        img = rng.integers(0, 256, size=(29, 67), dtype=np.uint8)
        params = ClaheParams(tiles_x=3, tiles_y=8)
        want = _clahe_float64_reference(img, params)
        for arr in (np.asfortranarray(img), img.astype(np.int64)):
            assert np.array_equal(clahe(arr, params), want)

    def test_blend_holds_three_float64_planes(self, rng):
        # the blend runs in place: at most two float64 planes, the product
        # being added and its uint8 gather live at once, plus slack; written
        # out of place the same blend peaks at about 40 bytes a pixel
        img = rng.integers(0, 256, size=(512, 256), dtype=np.uint8)
        tracemalloc.start()
        try:
            clahe(img)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (3 * 8 + 4) * img.size

    @pytest.mark.parametrize("index", range(3))
    def test_film_matches_float64_table_reference(self, index, benchmark_films):
        img = benchmark_films[index].image
        assert np.array_equal(clahe(img), _clahe_float64_reference(img, ClaheParams()))
