import sys
import tracemalloc

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


def _srad_reference_field(img, params):
    """The straightforward SRAD loop: whole-image temporaries and
    symmetric-padded copies of ``u`` and ``c`` each iteration. Returns the
    float field before re-quantization."""
    u = img.astype(np.float64) / 255.0 + 1e-6
    if params.homogeneous_region is not None:
        x, y, w, h = params.homogeneous_region
        region = u[y:y + h, x:x + w]
        q0_init = max(float(region.std() / region.mean()), 1e-8)
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
        cp = np.pad(c, 1, mode="symmetric")
        c_s = cp[2:, 1:-1]
        c_e = cp[1:-1, 2:]
        u = u + 0.25 * dt * (c_s * d_s + c * d_n + c_e * d_e + c * d_w)
    return u


def _field(img):
    return img.astype(np.float64) / 255.0 + 1e-6


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def assert_field_matches_reference(img, iterations, with_region):
    height, width = img.shape
    region = (0, 0, max(1, width // 2), max(1, height // 2)) if with_region else None
    params = SradParams(iterations=iterations, homogeneous_region=region)
    want = _srad_reference_field(img, params)
    assert_same_bits(enhance._diffuse(_field(img), params), want)
    assert np.array_equal(srad(img, params),
                          np.clip(np.floor(want * 255.0 + 0.5), 0, 255).astype(np.uint8))


class TestSrad:
    # one either side of the 64-row tile edges
    @pytest.mark.parametrize("height", [1, 2, 63, 64, 65, 129, 130])
    @pytest.mark.parametrize("width,iterations", [(1, 20), (9, 1), (31, 7)])
    @pytest.mark.parametrize("with_region", [False, True])
    def test_field_matches_reference_bits(self, height, width, iterations, with_region, rng):
        img = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
        assert_field_matches_reference(img, iterations, with_region)

    # On a 0/255 checkerboard 1 + lap/4 falls to about 1e-6 on the 255 cells,
    # so q_sq is about 1e12 and c about 0; on its 0 cells, as on any flat
    # pixel, c is above 1. A lone 255 whose region is all 0 floors q0 at 1e-8,
    # so c = +inf on the flat background. c < 0, -inf and NaN cannot occur
    # while u > 0: q_sq >= grad_sq / 4 >= 0 and 1 + lap/4 > 0.
    @pytest.mark.parametrize("pattern", ["checkerboard", "lone_peak"])
    @pytest.mark.parametrize("height", [1, 2, 63, 64, 65, 129, 130])
    @pytest.mark.parametrize("width,iterations", [(1, 20), (9, 1), (31, 7)])
    @pytest.mark.parametrize("with_region", [False, True])
    def test_clamped_field_matches_reference_bits(self, pattern, height, width, iterations,
                                                  with_region):
        if pattern == "checkerboard":
            img = (np.indices((height, width)).sum(axis=0) % 2 * 255).astype(np.uint8)
        else:
            img = np.zeros((height, width), dtype=np.uint8)
            img[height // 2, width // 2] = 255
        assert_field_matches_reference(img, iterations, with_region)

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
