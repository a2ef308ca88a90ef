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
    ief,
    mse,
    psnr,
)

from _reference import ref_mse, ref_psnr

image_arrays = hnp.arrays(
    np.uint8,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
)


def const(value, width=4, height=4):
    return GrayImage(np.full((height, width), value, dtype=np.uint8))


class TestMse:
    def test_identical_images(self):
        assert mse(const(100), const(100)) == 0.0

    def test_uniform_offset(self):
        assert mse(const(100), const(110)) == 100.0

    def test_worst_case_pair(self):
        a = GrayImage(np.array([[0, 255]]))
        b = GrayImage(np.array([[255, 0]]))
        assert mse(a, b) == 65025.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="4x4 .* 2x4"):
            mse(const(0), const(0, width=2))

    @given(a=image_arrays)
    def test_matches_exact_fraction_arithmetic(self, a):
        b = np.flip(255 - a).copy()
        got = mse(GrayImage(a), GrayImage(b))
        assert got == float(ref_mse(a.tolist(), b.tolist()))

    @given(a=image_arrays)
    def test_symmetric_and_zero_iff_equal(self, a):
        b = np.roll(a, 1).reshape(a.shape)
        x, y = GrayImage(a), GrayImage(b)
        assert mse(x, y) == mse(y, x)
        assert (mse(x, y) == 0.0) == (x == y)


class TestPsnr:
    def test_identical_images_are_infinite(self):
        assert psnr(const(5), const(5)) == INFINITE
        assert math.isinf(INFINITE)

    def test_matches_direct_formula(self):
        value = psnr(const(100), const(110))
        assert value == pytest.approx(10.0 * math.log10(65025 / 100.0), abs=1e-12)

    def test_decreases_as_error_grows(self):
        clean = const(100)
        assert psnr(clean, const(110)) > psnr(clean, const(120))


class TestIef:
    def test_uniform_offset_example(self):
        assert ief(const(100), const(120), const(110)) == 4.0

    def test_unchanged_restoration_is_one(self):
        noisy = const(120)
        assert ief(const(100), noisy, noisy) == 1.0

    def test_perfect_restoration_is_infinite(self):
        assert ief(const(100), const(120), const(100)) == INFINITE

    def test_all_identical_is_degenerate(self):
        with pytest.raises(DegenerateInputError, match="undefined"):
            ief(const(100), const(100), const(100))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ief(const(0), const(0, width=2), const(0))

    def test_above_one_iff_error_reduced(self):
        reference = const(100)
        improved = ief(reference, const(120), const(105))
        worsened = ief(reference, const(105), const(120))
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

    def test_perfect_match(self):
        report = compare(const(9), const(9), noisy=const(10))
        assert report.mse == 0.0
        assert report.psnr_db == INFINITE
        assert report.ief == INFINITE
