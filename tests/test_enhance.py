import importlib.util
import sys
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
from texturedge.errors import InvalidTimeStepError, TilesTooManyError


def speckled_patch(rng, mean=128.0, sigma=0.25, size=64):
    noisy = mean * (1.0 + sigma * rng.standard_normal((size, size)))
    return np.clip(noisy, 0, 255).astype(np.uint8)


def _srad_reference_field(img, params, dtype=np.float32):
    """The straightforward SRAD loop: whole-image temporaries and
    symmetric-padded copies of ``u`` and ``c`` each iteration. Returns the
    float field before re-quantization.

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
        q0_scale = dtype(q0_sq * (1.0 + q0_sq))
        q0_sq = dtype(q0_sq)
        p = np.pad(u, 1, mode="symmetric")
        d_n = p[:-2, 1:-1] - u
        d_s = p[2:, 1:-1] - u
        d_w = p[1:-1, :-2] - u
        d_e = p[1:-1, 2:] - u
        grad_sq = (d_n * d_n + d_s * d_s + d_w * d_w + d_e * d_e) / (u * u)
        lap = (d_n + d_s + d_w + d_e) / u
        with np.errstate(divide="ignore", invalid="ignore"):
            q_sq = (0.5 * grad_sq - 0.0625 * lap * lap) / np.square(1.0 + 0.25 * lap)
            c = 1.0 / (1.0 + (q_sq - q0_sq) / q0_scale)
        c = np.clip(np.nan_to_num(c, nan=0.0, posinf=1.0, neginf=0.0), 0.0, 1.0)
        cp = np.pad(c, 1, mode="symmetric")
        c_s = cp[2:, 1:-1]
        c_e = cp[1:-1, 2:]
        u = u + k * (c_s * d_s + c * d_n + c_e * d_e + c * d_w)
    return u


def _field(img):
    return (img.astype(np.float64) / 255.0 + 1e-6).astype(np.float32)


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
    assert_same_bits(enhance._diffuse(_field(img), params), want)
    assert np.array_equal(srad(img, params), _quantize(want))


# one either side of the 64-row tile edges
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


def count_off_oracle(img, params):
    """Pixels where ``srad`` differs from the re-quantized float64 oracle;
    asserts that none differs by more than one gray level."""
    diff = srad(img, params).astype(np.int64) - _quantize(
        _srad_reference_field(img, params, np.float64))
    assert np.abs(diff).max() <= 1
    return np.count_nonzero(diff)


@pytest.fixture(scope="module")
def benchmark_films():
    """The benchmark's seeded 1024x1024 films, one per tissue class."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "films.py"
    spec = importlib.util.spec_from_file_location("perfbench_films", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up while its classes are made
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.single_mass_films(5)


class TestSrad:
    @pytest.mark.parametrize("height", HEIGHTS)
    @pytest.mark.parametrize("width,iterations", WIDTHS_ITERATIONS)
    @pytest.mark.parametrize("with_region", [False, True])
    def test_field_matches_reference_bits(self, height, width, iterations, with_region, rng):
        img = pattern_image("random", height, width, rng)
        assert_field_matches_reference(img, iterations, with_region)

    # On a 0/255 checkerboard 1 + lap/4 falls to about 1e-6 on the 255 cells,
    # so q_sq is about 1e12 and c about 0; on its 0 cells, as on any flat
    # pixel, c is above 1. A lone 255 whose region is all 0 floors q0 at 1e-8,
    # so c = +inf on the flat background. c < 0, -inf and NaN cannot occur
    # while u > 0: q_sq >= grad_sq / 4 >= 0 and 1 + lap/4 > 0.
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
        # above: measured 3 of 111,684 pixels, each off by one level
        off = total = 0
        for pattern in PATTERNS:
            for height in HEIGHTS:
                for width, iterations in WIDTHS_ITERATIONS:
                    for with_region in [False, True]:
                        img = pattern_image(pattern, height, width, rng)
                        off += count_off_oracle(
                            img, _region_params(img.shape, iterations, with_region))
                        total += img.size
        assert off <= 1e-4 * total

    @pytest.mark.parametrize("index", [0, 1, 2], ids=["F", "G", "D"])
    def test_film_output_within_one_level_of_float64_oracle(self, index, benchmark_films):
        # measured 5, 6 and 4 of 1,048,576 pixels, each off by one level
        img = benchmark_films[index].image
        assert count_off_oracle(img, SradParams()) <= 1e-4 * img.size

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
            homogeneous_region=region)
        assert_same_bits(enhance._diffuse(_field(img), params),
                         _srad_reference_field(img, params))

    # from step 1 on, rho 1e4 sends q0^2 to 0 and rho -1e4 to +inf, where
    # every c is NaN before the clamp (fmin alone would make it 1): the
    # reference's c is 0 and those steps leave the field as it is
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("rho", [1e4, -1e4])
    def test_degenerate_q0_matches_reference_bits(self, rho, rng):
        img = rng.integers(0, 256, size=(70, 11), dtype=np.uint8)
        params = SradParams(iterations=4, q0_decay_rho=rho, homogeneous_region=(1, 1, 5, 5))
        assert_same_bits(enhance._diffuse(_field(img), params),
                         _srad_reference_field(img, params))

    def test_extreme_q0_decay_warns_nothing(self, rng):
        # rho -1e4 overflows q0^2 from step 1 on and exp itself from step 2;
        # rho -4600 keeps q0^2 finite at step 1 but overflows q0^2 (1 + q0^2)
        img = rng.integers(0, 256, size=(70, 11), dtype=np.uint8)
        for rho in (-10000.0, -4600.0):
            params = SradParams(iterations=5, q0_decay_rho=rho)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                want = _srad_reference_field(img, params)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = enhance._diffuse(_field(img), params)
                srad(img, params)
            assert_same_bits(got, want)

    def test_q0_sq_rounding_to_zero_in_float32_skips_the_step(self, rng):
        # rho 1200 takes q0 to exp(-60) at step 1 and exp(-120) at step 2:
        # q0^2 is finite and nonzero in float64 but rounds to 0 in float32,
        # so both steps leave the field after step 0 as it is
        q0_sq = np.exp(-60.0) ** 2
        assert q0_sq > 0 and np.float32(q0_sq) == 0
        img = rng.integers(0, 256, size=(70, 11), dtype=np.uint8)
        params = SradParams(iterations=3, q0_decay_rho=1200.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = enhance._diffuse(_field(img), params)
        assert_same_bits(got, _srad_reference_field(img, params))
        assert_same_bits(got, enhance._diffuse(_field(img), replace(params, iterations=1)))

    def test_q0_scale_overflowing_float32_gives_c_one(self, rng):
        # rho -576 takes q0 to exp(28.8) at step 1: q0^2 ~ 1e25 is finite in
        # float32 but q0^2 (1 + q0^2) ~ 1e50 overflows the cast, so
        # (q_sq - q0_sq) / q0_scale is a zero and c = 1 on every pixel, the
        # flat ones included
        q0_sq = np.exp(28.8) ** 2
        assert np.isfinite(np.float32(q0_sq)) and np.isfinite(q0_sq * (1.0 + q0_sq))
        with np.errstate(over="ignore"):
            assert np.float32(q0_sq * (1.0 + q0_sq)) == np.inf
        img = rng.integers(0, 256, size=(70, 11), dtype=np.uint8)
        img[:8] = 90
        params = SradParams(iterations=2, q0_decay_rho=-576.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = enhance._diffuse(_field(img), params)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the reference's cast
            assert_same_bits(got, _srad_reference_field(img, params))
        # step 1 with c = 1: u + k (((d_s + d_n) + d_e) + d_w)
        u = enhance._diffuse(_field(img), replace(params, iterations=1))
        p = np.pad(u, 1, mode="symmetric")
        flux = (((p[2:, 1:-1] - u) + (p[:-2, 1:-1] - u)) + (p[1:-1, 2:] - u)) + (p[1:-1, :-2] - u)
        assert_same_bits(got, u + np.float32(0.25 * params.time_step) * flux)

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    def test_worker_split_matches_reference_bits(self, workers, monkeypatch, rng):
        # more workers than cores, and a thread switch every microsecond: a
        # halo row read before its neighbour tile was joined breaks equality
        monkeypatch.setattr(enhance, "_worker_count", lambda: workers)
        img = speckled_patch(rng, size=5 * 64 + 3)[:, :13]
        params = SradParams(iterations=4, homogeneous_region=(2, 2, 8, 8))
        want = _srad_reference_field(img, params)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = enhance._diffuse(_field(img), params)
        finally:
            sys.setswitchinterval(interval)
        assert_same_bits(got, want)

    def test_input_layout_does_not_change_output(self, rng):
        # the tiles shift along flattened C rows, so srad must hand them one
        img = rng.integers(0, 256, size=(70, 22), dtype=np.uint8)
        params = SradParams(iterations=3, homogeneous_region=(1, 1, 5, 5))
        for arr in (np.asfortranarray(img), img[:, ::2], img.astype(np.int64)):
            assert np.array_equal(srad(arr, params),
                                  srad(np.ascontiguousarray(arr, dtype=np.uint8), params))

    def test_steps_allocate_no_image_sized_array(self, monkeypatch, rng):
        # the second field buffer, at most seven scratch planes per worker
        # and a quarter image of slack: one image-sized temporary per step
        # breaks the bound
        workers = 2
        monkeypatch.setattr(enhance, "_worker_count", lambda: workers)
        u = _field(rng.integers(0, 256, size=(512, 256), dtype=np.uint8))
        scratch = workers * 7 * (enhance.TILE_ROWS + 2) * u.shape[1] * u.itemsize
        tracemalloc.start()
        try:
            enhance._diffuse(u, SradParams(iterations=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < u.nbytes + scratch + u.nbytes // 4

    @pytest.mark.parametrize("iterations", [1, 10, 100])
    def test_constant_image_identity(self, iterations):
        img = np.full((32, 32), 100, dtype=np.uint8)
        assert np.array_equal(srad(img, SradParams(iterations=iterations)), img)

    def test_zero_iterations_identity(self, rng):
        img = rng.integers(0, 256, size=(20, 20), dtype=np.uint8)
        assert np.array_equal(srad(img, SradParams(iterations=0)), img)

    @pytest.mark.parametrize("dt", [0.0, -0.1, 0.26, 1.0])
    def test_time_step_validation(self, dt):
        with pytest.raises(InvalidTimeStepError):
            srad(np.zeros((4, 4), dtype=np.uint8), SradParams(time_step=dt))

    def test_negative_iterations(self):
        with pytest.raises(ValueError):
            srad(np.zeros((4, 4), dtype=np.uint8), SradParams(iterations=-1))

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
        for size, region in [(8, (20, 20, 4, 4)), (64, (60, 0, 10, 10))]:
            img = np.full((size, size), 10, dtype=np.uint8)
            with pytest.raises(ValueError):
                srad(img, SradParams(iterations=1, homogeneous_region=region))

    def test_deterministic(self, rng):
        img = speckled_patch(rng)
        assert np.array_equal(srad(img, SradParams(iterations=25)),
                              srad(img, SradParams(iterations=25)))

    def test_output_dimensions_and_range(self, rng):
        img = rng.integers(0, 256, size=(17, 31), dtype=np.uint8)
        out = srad(img, SradParams(iterations=15))
        assert out.shape == img.shape and out.dtype == np.uint8


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
        with pytest.raises(TilesTooManyError):
            clahe(np.zeros((4, 4), dtype=np.uint8), ClaheParams(tiles_x=8, tiles_y=8))

    def test_uneven_tile_remainder(self, rng):
        img = rng.integers(0, 256, size=(65, 67), dtype=np.uint8)
        out = clahe(img, ClaheParams(tiles_x=8, tiles_y=8))
        assert out.shape == img.shape

    @pytest.mark.parametrize("params", [
        ClaheParams(clip_limit=0.0),
        ClaheParams(tiles_x=0),
        ClaheParams(bins=1),
        ClaheParams(bins=512),
    ])
    def test_param_validation(self, params):
        with pytest.raises(ValueError):
            clahe(np.zeros((16, 16), dtype=np.uint8), params)

    def test_deterministic(self, rng):
        img = rng.integers(0, 256, size=(33, 47), dtype=np.uint8)
        assert np.array_equal(clahe(img), clahe(img))

    def test_huge_clip_limit_clips_nothing(self, rng):
        # clip_limit * area / bins overflows to inf; a clip at the tile area
        # already leaves every bin whole
        img = rng.integers(0, 256, size=(40, 40), dtype=np.uint8)
        assert np.array_equal(clahe(img, ClaheParams(clip_limit=1e308)),
                              clahe(img, ClaheParams(clip_limit=256.0)))

    def test_fewer_bins(self, rng):
        img = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
        out = clahe(img, ClaheParams(bins=64))
        assert out.shape == img.shape
