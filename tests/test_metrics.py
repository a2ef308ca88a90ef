import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from saltpepper import (
    INFINITE,
    DegenerateInputError,
    DimensionMismatchError,
    GrayImage,
    MetricsReport,
    compare,
)
from saltpepper import metrics

from _reference import ref_mse, ref_psnr

image_arrays = hnp.arrays(
    np.uint8,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
)


def const(value, width=4, height=4):
    return GrayImage(np.full((height, width), value, dtype=np.uint8))


class TestMse:
    def test_identical_images(self):
        assert compare(const(100), const(100)).mse == 0.0

    def test_uniform_offset(self):
        assert compare(const(100), const(110)).mse == 100.0

    def test_worst_case_pair(self):
        a = GrayImage(np.array([[0, 255]]))
        b = GrayImage(np.array([[255, 0]]))
        assert compare(a, b).mse == 65025.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="4x4 .* 2x4"):
            compare(const(0), const(0, width=2))

    @given(a=image_arrays)
    def test_matches_exact_fraction_arithmetic(self, a):
        b = np.flip(255 - a).copy()
        got = compare(GrayImage(a), GrayImage(b)).mse
        assert got == float(ref_mse(a.tolist(), b.tolist()))

    @given(a=image_arrays)
    def test_symmetric_and_zero_iff_equal(self, a):
        b = np.roll(a, 1).reshape(a.shape)
        x, y = GrayImage(a), GrayImage(b)
        assert compare(x, y).mse == compare(y, x).mse
        assert (compare(x, y).mse == 0.0) == (x == y)


class TestPsnr:
    def test_identical_images_are_infinite(self):
        assert compare(const(5), const(5)).psnr_db == INFINITE
        assert math.isinf(INFINITE)

    def test_matches_direct_formula(self):
        value = compare(const(100), const(110)).psnr_db
        assert value == pytest.approx(10.0 * math.log10(65025 / 100.0), abs=1e-12)

    def test_decreases_as_error_grows(self):
        clean = const(100)
        assert compare(clean, const(110)).psnr_db > compare(clean, const(120)).psnr_db


class TestIef:
    def test_uniform_offset_example(self):
        assert compare(const(100), const(110), noisy=const(120)).ief == 4.0

    def test_unchanged_restoration_is_one(self):
        noisy = const(120)
        assert compare(const(100), noisy, noisy=noisy).ief == 1.0

    def test_perfect_restoration_is_infinite(self):
        assert compare(const(100), const(100), noisy=const(120)).ief == INFINITE

    def test_all_identical_is_degenerate(self):
        with pytest.raises(DegenerateInputError, match="undefined"):
            compare(const(100), const(100), noisy=const(100))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="noisy is 2x4"):
            compare(const(0), const(0), noisy=const(0, width=2))

    def test_above_one_iff_error_reduced(self):
        reference = const(100)
        improved = compare(reference, const(105), noisy=const(120)).ief
        worsened = compare(reference, const(120), noisy=const(105)).ief
        assert improved > 1.0
        assert worsened < 1.0


class TestCompare:
    def test_without_noisy_image(self):
        report = compare(const(100), const(110))
        assert report.mse == 100.0
        assert report.psnr_db == pytest.approx(10.0 * math.log10(65025 / 100.0))
        assert report.ief is None

    def test_with_noisy_image(self):
        report = compare(const(100), const(110), noisy=const(120))
        assert report.ief == 4.0

    @given(a=image_arrays, data=st.data())
    def test_matches_the_separate_measures(self, a, data):
        same_shape = hnp.arrays(np.uint8, a.shape)
        arrays = [a, data.draw(same_shape), data.draw(same_shape)]
        ref, test, noisy = (x.tolist() for x in arrays)
        images = [GrayImage(x) for x in arrays]
        report = compare(*images[:2])
        residual, noise = ref_mse(ref, test), ref_mse(ref, noisy)
        assert report.mse == float(residual)
        if residual == 0:
            assert report.psnr_db == INFINITE
        else:
            # ref_psnr divides by the exact MSE, compare by the rounded one
            assert report.psnr_db == pytest.approx(ref_psnr(residual), rel=1e-12)
        if residual == noise == 0:
            with pytest.raises(DegenerateInputError):
                compare(*images)
        else:
            want = INFINITE if residual == 0 else noise / residual
            assert compare(*images) == MetricsReport(report.mse, report.psnr_db, float(want))

    @pytest.mark.parametrize("band", [1, 5, 64])
    @given(a=image_arrays, data=st.data())
    def test_bands_sum_to_the_exact_error(self, band, a, data):
        b = data.draw(hnp.arrays(np.uint8, a.shape))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "BAND", band)
            report = compare(GrayImage(a), GrayImage(b))
        assert report.mse == float(ref_mse(a.tolist(), b.tolist()))

    @pytest.mark.parametrize("shape", [(300, 300), (1, metrics.BAND + 7)])
    @pytest.mark.parametrize("values", [(0, 255), (255, 0), None])
    def test_real_bands_with_a_partial_last_band_are_exact(self, shape, values):
        # 300 * 300 is one full band plus 24 464 elements; None draws random pairs
        if values is None:
            a, b = np.random.default_rng(7).integers(0, 256, (2, *shape), dtype=np.uint8)
        else:
            a, b = (np.full(shape, v, dtype=np.uint8) for v in values)
        want = int(((a.astype(np.int64) - b) ** 2).sum())
        assert metrics.squared_error_sum(GrayImage(a), GrayImage(b)) == want

    def test_a_full_band_of_the_largest_error_stays_exact(self):
        # the guard on compare's uint32 band sums: 16 full bands of 0 against 255,
        # so a BAND past 66 051 (BAND * 255**2 >= 2**32) wraps and fails here
        report = compare(const(0, 1024, 1024), const(255, 1024, 1024))
        assert report.mse == 255.0**2

    def test_perfect_match(self):
        report = compare(const(9), const(9), noisy=const(10))
        assert report.mse == 0.0
        assert report.psnr_db == INFINITE
        assert report.ief == INFINITE
