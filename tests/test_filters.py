import contextlib
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from saltpepper import (
    FILTER_KINDS,
    FilterConfig,
    GrayImage,
    NoiseSpec,
    apply_filter,
    inject,
    read_pgm,
    write_pgm,
)
from saltpepper import filters

from _reference import ref_amf, ref_amf_counted, ref_mdbutmf, ref_rmf, ref_smf

small_arrays = hnp.arrays(
    np.uint8,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=10),
)
interior_arrays = hnp.arrays(
    np.uint8,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=10),
    elements=st.integers(1, 254),
)
# about a third each of 0, 255 and values between, so that windows of every
# kept count show up and amf's wide windows are reached
impulse_arrays = hnp.arrays(
    np.uint8,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=10),
    elements=st.integers(-255, 510).map(lambda v: min(max(v, 0), 255)),
)


def img_of(rows):
    return GrayImage(np.array(rows, dtype=np.uint8))


class TestFilterConfig:
    def test_defaults(self):
        config = FilterConfig(kind="rmf")
        assert config.window_size == 3
        assert config.max_window_size == 7

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown filter kind"):
            FilterConfig(kind="box")

    @pytest.mark.parametrize("window", [2, 1, -3])
    def test_rejects_bad_window(self, window):
        with pytest.raises(ValueError, match="window_size"):
            FilterConfig(kind="smf", window_size=window)

    def test_rejects_max_window_below_window(self):
        with pytest.raises(ValueError, match="max_window_size"):
            FilterConfig(kind="amf", window_size=5, max_window_size=3)
        with pytest.raises(ValueError, match="max_window_size"):
            FilterConfig(kind="amf", window_size=7, max_window_size=5)

    @pytest.mark.parametrize(
        "value", [3.0, 7.0, np.float64(7.0), 5.5, "7"], ids=["3.0", "7.0", "np7.0", "5.5", "str7"]
    )
    def test_rejects_non_integer_windows(self, value):
        # every filter would otherwise fail later with a TypeError from NumPy
        with pytest.raises(ValueError, match="^window_size must be an odd integer"):
            FilterConfig(kind="smf", window_size=value)
        with pytest.raises(ValueError, match="^max_window_size must be an odd integer"):
            FilterConfig(kind="amf", window_size=3, max_window_size=value)

    def test_numpy_integer_windows_work_like_ints(self):
        config = FilterConfig(kind="amf", window_size=np.uint8(3), max_window_size=np.int64(5))
        assert config == FilterConfig(kind="amf", window_size=3, max_window_size=5)
        assert type(config.window_size) is type(config.max_window_size) is int
        img = inject(GrayImage(np.full((6, 6), 90, dtype=np.uint8)), NoiseSpec(0.5, seed=1))
        for kind in FILTER_KINDS:
            config = FilterConfig(kind=kind, window_size=np.uint8(3))
            assert apply_filter(img, config) == apply_filter(img, FilterConfig(kind=kind))

    def test_max_window_defaults_to_the_larger_of_7_and_window(self):
        assert FilterConfig(kind="amf").max_window_size == 7
        assert FilterConfig(kind="amf", window_size=5).max_window_size == 7
        assert FilterConfig(kind="rmf", window_size=7) == FilterConfig("rmf", 7, 7)

    @pytest.mark.parametrize("window", [9, 11, 201, 10**20])
    def test_rejects_windows_above_7(self, window):
        # refused by value: nothing sized by the window is built
        with pytest.raises(ValueError, match="^window_size must be an odd integer from 3 to 7"):
            FilterConfig(kind="smf", window_size=window)
        with pytest.raises(ValueError, match="^max_window_size must be an odd integer from"):
            FilterConfig(kind="amf", window_size=3, max_window_size=window)


def gated_center(rows):
    """Pixel (1, 1) of a 3x3 image after rmf and after mdbutmf.

    Both whole outputs are checked against the oracle.  The window of a
    3x3 image's center is the whole image, so a noisy center shows the
    replacement rule on exactly the nine given values.
    """
    img = img_of(rows)
    rmf = apply_filter(img, FilterConfig(kind="rmf")).image.pixels
    mdbutmf = apply_filter(img, FilterConfig(kind="mdbutmf")).image.pixels
    assert rmf.tolist() == ref_rmf(rows)
    assert mdbutmf.tolist() == ref_mdbutmf(rows)
    return int(rmf[1, 1]), int(mdbutmf[1, 1])


class TestDetector:
    @pytest.mark.parametrize("value,expected", [(0, True), (255, True), (128, False), (1, False), (254, False)])
    def test_is_noisy(self, value, expected):
        # a pixel is replaced iff it is exactly 0 or 255
        img = img_of([[100, 100, 100], [100, value, 100], [100, 100, 100]])
        for kind in ("rmf", "mdbutmf"):
            out = apply_filter(img, FilterConfig(kind=kind))
            assert out.replaced_count == int(expected)
            assert out.image.pixels[1, 1] == (100 if expected else value)


class TestReplacementKernels:
    """The trim-and-replace rule on a noisy center whose window is the whole image."""

    def test_trimmed_mean_example(self):
        # kept {12, 34, 78, 90}: mean 53.5 rounds up
        rmf, _ = gated_center([[12, 0, 255], [34, 0, 0], [255, 78, 90]])
        assert rmf == 54

    def test_trimmed_median_example(self):
        _, mdbutmf = gated_center([[12, 0, 255], [34, 0, 0], [255, 78, 90]])
        assert mdbutmf == 34

    def test_all_extreme_fallback(self):
        # round(1020 / 9) = 113
        assert gated_center([[0, 255, 0], [255, 0, 255], [0, 255, 0]]) == (113, 113)

    def test_singleton_survivor_degenerates_to_it(self):
        assert gated_center([[0, 255, 0], [255, 0, 255], [0, 77, 0]]) == (77, 77)

    def test_mean_rounds_half_up(self):
        # kept {1, 2}: mean 1.5 rounds to 2, lower median 1
        assert gated_center([[0, 255, 0], [255, 0, 255], [0, 1, 2]]) == (2, 1)

    def test_median_takes_lower_of_two_middles(self):
        # kept {10, 20, 30, 40}: lower middle 20, mean 25
        assert gated_center([[10, 20, 0], [30, 0, 40], [255, 255, 0]]) == (25, 20)


class TestSmf:
    def test_center_of_one_to_nine(self):
        out = apply_filter(img_of([[1, 2, 3], [4, 5, 6], [7, 8, 9]]), FilterConfig(kind="smf"))
        assert out.image.pixels[1, 1] == 5

    def test_constant_image_is_fixed(self):
        img = GrayImage(np.full((4, 4), 77, dtype=np.uint8))
        out = apply_filter(img, FilterConfig(kind="smf"))
        assert out.image == img

    def test_all_salt_stays_saturated(self):
        img = GrayImage(np.full((4, 4), 255, dtype=np.uint8))
        out = apply_filter(img, FilterConfig(kind="smf"))
        assert out.image == img

    def test_replaces_every_pixel(self):
        out = apply_filter(img_of([[1, 2], [3, 4]]), FilterConfig(kind="smf"))
        assert out.replaced_count == 4

    @given(pixels=small_arrays)
    def test_matches_reference(self, pixels):
        out = apply_filter(GrayImage(pixels), FilterConfig(kind="smf"))
        assert out.image.pixels.tolist() == ref_smf(pixels.tolist())

    @pytest.mark.parametrize("size", [5, 7])
    @given(pixels=small_arrays)
    @settings(max_examples=50)
    def test_matches_reference_at_wider_windows(self, size, pixels):
        out = apply_filter(GrayImage(pixels), FilterConfig(kind="smf", window_size=size))
        assert out.image.pixels.tolist() == ref_smf(pixels.tolist(), size)


class TestAmf:
    def test_trusted_window_keeps_clean_center(self):
        img = img_of([[3, 100, 250], [100, 128, 100], [100, 100, 100]])
        out = apply_filter(img, FilterConfig(kind="amf"))
        assert out.image.pixels[1, 1] == 128

    def test_growth_recovers_center_from_impulse_cross(self):
        pixels = np.full((5, 5), 90, dtype=np.uint8)
        pixels[1:4, 1:4] = [[0, 255, 0], [255, 255, 255], [0, 255, 0]]
        out = apply_filter(GrayImage(pixels), FilterConfig(kind="amf"))
        assert out.image.pixels[2, 2] == 90

    def test_saturated_image_exhausts_growth(self):
        img = GrayImage(np.full((9, 9), 255, dtype=np.uint8))
        out = apply_filter(img, FilterConfig(kind="amf"))
        assert out.image == img

    @given(pixels=small_arrays)
    @settings(max_examples=60)
    def test_matches_reference(self, pixels):
        out = apply_filter(GrayImage(pixels), FilterConfig(kind="amf"))
        assert out.image.pixels.tolist() == ref_amf(pixels.tolist())

    @pytest.mark.parametrize("size,max_size", [(3, 5), (5, 7), (7, 7)])
    @given(pixels=small_arrays)
    @settings(max_examples=40)
    def test_matches_reference_at_other_windows(self, size, max_size, pixels):
        config = FilterConfig(kind="amf", window_size=size, max_window_size=max_size)
        out = apply_filter(GrayImage(pixels), config)
        assert out.image.pixels.tolist() == ref_amf(pixels.tolist(), size, max_size)


    @given(pixels=small_arrays)
    @settings(max_examples=40)
    def test_gathering_one_pixel_at_a_time_matches_reference(self, pixels):
        config = FilterConfig(kind="amf", window_size=3, max_window_size=7)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filters, "_AMF_GATHER_BYTES", 1)
            out = apply_filter(GrayImage(pixels), config)
        assert out.image.pixels.tolist() == ref_amf(pixels.tolist(), 3, 7)

    def test_wide_growth_on_a_saturated_image_gathers_in_bounded_chunks(self):
        """Growth 3 -> 7 on a 1024^2 image of 0s and 255s, where no window ever decides.

        Measured with NumPy 2.4 (tracemalloc): 20.1 MiB in 4 MiB chunks,
        under a 32 MiB bound (1.6x headroom), against 67 MiB for one gather
        of every undecided pixel's window.
        """
        pixels = np.random.default_rng(3).choice(np.array([0, 255], dtype=np.uint8), (1024, 1024))
        img = GrayImage(pixels)
        config = FilterConfig(kind="amf", window_size=3, max_window_size=7)
        tracemalloc.start()
        try:
            chunked = apply_filter(img, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filters, "_AMF_GATHER_BYTES", 2**40)
            whole = apply_filter(img, config)
        assert chunked == whole


class TestGatedFilters:
    def test_rmf_window_arithmetic(self):
        # noisy corner whose clamped window duplicates no clean values
        img = img_of([[0, 10], [20, 30]])
        out = apply_filter(img, FilterConfig(kind="rmf"))
        # window at (0,0): [0,0,10,0,0,10,20,20,30] -> mean of {10,10,20,20,30} = 18
        assert out.image.pixels[0, 0] == 18
        assert out.replaced_count == 1

    def test_mdbutmf_window_arithmetic(self):
        img = img_of([[0, 10], [20, 30]])
        out = apply_filter(img, FilterConfig(kind="mdbutmf"))
        # lower median of {10,10,20,20,30} is 20; the lone impulse is replaced
        assert out.image.pixels[0, 0] == 20
        assert out.replaced_count == 1

    def test_all_extreme_image_uses_mean_fallback(self):
        img = img_of([[0, 255, 0], [255, 0, 255], [0, 255, 0]])
        out = apply_filter(img, FilterConfig(kind="rmf"))
        # center window is the whole image: round(1020/9) = 113
        assert out.image.pixels[1, 1] == 113
        assert out.replaced_count == 9

    def test_clean_pixels_pass_through(self):
        img = img_of([[1, 254], [128, 200]])
        for kind in ("rmf", "mdbutmf"):
            out = apply_filter(img, FilterConfig(kind=kind))
            assert out.image == img
            assert out.replaced_count == 0

    def test_replaced_count_is_the_impulse_count(self):
        img = img_of([[0, 255, 1], [254, 0, 128], [255, 255, 7]])
        out = apply_filter(img, FilterConfig(kind="rmf"))
        assert out.replaced_count == 5

    @given(pixels=interior_arrays)
    def test_fixed_point_on_impulse_free_images(self, pixels):
        img = GrayImage(pixels)
        for kind in ("rmf", "mdbutmf"):
            out = apply_filter(img, FilterConfig(kind=kind))
            assert out.image == img
            assert out.replaced_count == 0

    @given(pixels=small_arrays)
    def test_rmf_matches_reference_both_scan_orders(self, pixels):
        out = apply_filter(GrayImage(pixels), FilterConfig(kind="rmf"))
        rows = pixels.tolist()
        assert out.image.pixels.tolist() == ref_rmf(rows, order="forward")
        assert out.image.pixels.tolist() == ref_rmf(rows, order="reverse")

    @given(pixels=small_arrays)
    def test_mdbutmf_matches_reference_both_scan_orders(self, pixels):
        out = apply_filter(GrayImage(pixels), FilterConfig(kind="mdbutmf"))
        rows = pixels.tolist()
        assert out.image.pixels.tolist() == ref_mdbutmf(rows, order="forward")
        assert out.image.pixels.tolist() == ref_mdbutmf(rows, order="reverse")

    @pytest.mark.parametrize("size", [5, 7])
    @given(pixels=small_arrays)
    @settings(max_examples=50)
    def test_match_reference_at_wider_windows(self, size, pixels):
        rows = pixels.tolist()
        img = GrayImage(pixels)
        rmf = apply_filter(img, FilterConfig(kind="rmf", window_size=size))
        mdbutmf = apply_filter(img, FilterConfig(kind="mdbutmf", window_size=size))
        assert rmf.image.pixels.tolist() == ref_rmf(rows, size=size)
        assert mdbutmf.image.pixels.tolist() == ref_mdbutmf(rows, size=size)
        assert rmf.replaced_count == mdbutmf.replaced_count == int(np.isin(pixels, (0, 255)).sum())


# every configuration that FilterConfig accepts, ignoring max_window_size where
# only amf reads it: 3 windows for each fixed-window kind, 6 growths for amf
ACCEPTED = [FilterConfig(kind, size) for kind in ("smf", "mdbutmf", "rmf") for size in (3, 5, 7)]
ACCEPTED += [FilterConfig("amf", base, top) for base in (3, 5, 7) for top in range(base, 8, 2)]


def config_id(config):
    if config.kind == "amf":
        return f"amf-{config.window_size}-{config.max_window_size}"
    return f"{config.kind}-{config.window_size}"


def reference(rows, config):
    """The oracle's output for ``config`` on ``rows``, and its ``replaced_count``."""
    size = config.window_size
    if config.kind == "smf":
        return ref_smf(rows, size), len(rows) * len(rows[0])
    if config.kind == "amf":
        return ref_amf_counted(rows, size, config.max_window_size)
    gated = ref_mdbutmf if config.kind == "mdbutmf" else ref_rmf
    return gated(rows, size=size), sum(v in (0, 255) for row in rows for v in row)


def restored(out):
    """A ``RestoredImage`` in the form of ``reference``'s result."""
    return out.image.pixels.tolist(), out.replaced_count


def saturated(name):
    """A 20x20 image whose windows hold few or no kept values."""
    if name == "checkerboard" or name == "one_kept":
        pixels = np.indices((20, 20)).sum(axis=0) % 2 * 255
        if name == "one_kept":
            pixels[7, 12] = 77
    else:
        pixels = np.full((20, 20), int(name.removeprefix("all_")))
    return GrayImage(pixels.astype(np.uint8))


SATURATED = ["all_0", "all_255", "all_254", "all_1", "checkerboard", "one_kept"]


def gated(image, size, kind):
    """``apply_filter`` for an accepted window, else the gated kernel that it runs."""
    if size <= filters._MAX_WINDOW:
        return apply_filter(image, FilterConfig(kind=kind, window_size=size))
    return filters._apply_gated(image, size, "median" if kind == "mdbutmf" else "mean")


class TestDenseImpulses:
    """Windows full of impulses, which uniform random pixels almost never give.

    Above about 90 % noise most small windows keep no value at all, so the
    all-impulse fallback decides most outputs.  Past 7 x 7, which
    ``FilterConfig`` refuses, the gated kernel runs directly: its packed
    8-bit kept count and uint16 sums hold up to 15 x 15 = 225 values, and
    these cases keep that headroom checked for a later, wider bound.
    """

    @pytest.mark.parametrize("density", [0.1, 0.5, 0.9, 0.99])
    @pytest.mark.parametrize("size", [3, 5, 7, 9, 13, 15])
    def test_gated_filters_match_reference(self, size, density):
        pixels = np.random.default_rng(size).integers(0, 256, (24, 24), dtype=np.uint8)
        noisy = inject(GrayImage(pixels), NoiseSpec(density=density, seed=size))
        rows = noisy.pixels.tolist()
        impulses = int(np.isin(noisy.pixels, (0, 255)).sum())
        for kind, ref in (("rmf", ref_rmf), ("mdbutmf", ref_mdbutmf)):
            out = gated(noisy, size, kind)
            assert out.image.pixels.tolist() == ref(rows, size=size), kind
            assert out.replaced_count == impulses

    @pytest.mark.parametrize("name", SATURATED)
    @pytest.mark.parametrize("size", [3, 5, 7, 9, 15])
    def test_saturated_images_match_reference(self, size, name):
        # every accepted configuration with base window size, amf at each top;
        # past 7 the gated kernels alone
        img = saturated(name)
        rows = img.pixels.tolist()
        for config in (c for c in ACCEPTED if c.window_size == size):
            out = apply_filter(img, config)
            assert restored(out) == reference(rows, config), config
        if size > filters._MAX_WINDOW:
            for kind, ref in (("rmf", ref_rmf), ("mdbutmf", ref_mdbutmf)):
                assert gated(img, size, kind).image.pixels.tolist() == ref(rows, size=size), kind


class TestEveryAcceptedConfiguration:
    """The oracle on every filter configuration that ``FilterConfig`` accepts.

    ``TestDenseImpulses`` runs the same configurations on the saturated
    images, and ``TestBandSeams`` runs those that select in narrow bands.
    """

    def test_the_list_holds_every_accepted_configuration(self):
        accepted = set()
        for kind, size, top in itertools.product(FILTER_KINDS, range(-1, 12), range(-1, 12)):
            with contextlib.suppress(ValueError):
                accepted.add(config_id(FilterConfig(kind, size, top)))
        assert accepted == {config_id(config) for config in ACCEPTED}
        assert len(ACCEPTED) == 15

    @pytest.mark.parametrize("config", ACCEPTED, ids=config_id)
    @given(pixels=impulse_arrays)
    @settings(max_examples=30)
    def test_matches_reference(self, config, pixels):
        out = apply_filter(GrayImage(pixels), config)
        assert restored(out) == reference(pixels.tolist(), config)


GOLDEN_DIGESTS = Path(__file__).parent / "golden" / "filter-digests.json"


def filter_digest(config) -> str:
    """sha256 of ``config``'s pixels and ``replaced_count`` on six noisy images.

    The images are 257x263 and 700x31 at 10, 50 and 90 % noise, with a
    select's work arrays and ``amf``'s gather cut to 64 KiB so that every
    configuration runs in several bands and chunks.
    """
    digest = hashlib.sha256()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filters, "_BAND_BYTES", 1 << 16)
        mp.setattr(filters, "_AMF_GATHER_BYTES", 1 << 16)
        for shape in ((257, 263), (700, 31)):
            clean = GrayImage(np.random.default_rng(shape).integers(0, 256, shape, dtype=np.uint8))
            for density in (0.1, 0.5, 0.9):
                out = apply_filter(inject(clean, NoiseSpec(density=density, seed=7)), config)
                digest.update(out.image.pixels.tobytes())
                digest.update(out.replaced_count.to_bytes(8, "little"))
    return digest.hexdigest()


class TestGoldenDigests:
    """Every accepted configuration reproduces the digests in ``golden/filter-digests.json``.

    The oracle runs on images of at most 10x10; these pin, bit for bit,
    outputs large enough to split bands and chunks.  Regenerate the file
    only for a deliberate change of output, with ``python tests/test_filters.py``.
    """

    def test_every_configuration_has_a_digest(self):
        assert set(json.loads(GOLDEN_DIGESTS.read_text())) == {config_id(c) for c in ACCEPTED}

    @pytest.mark.parametrize("config", ACCEPTED, ids=config_id)
    def test_outputs_match_the_golden_digest(self, config):
        assert filter_digest(config) == json.loads(GOLDEN_DIGESTS.read_text())[config_id(config)]


class TestWindowSum:
    """Window sums of a ``_padded`` layout, cropped, against int64 sums of the padded image."""

    @staticmethod
    def sums(x, size):
        h, w = x.shape
        flat, stride = filters._padded(x, size // 2)
        return filters._window_sum(flat, stride, size).reshape(h, stride)[:, :w]

    @staticmethod
    def wide(x, size):
        padded = np.pad(x.astype(np.int64), size // 2, mode="edge")
        return np.lib.stride_tricks.sliding_window_view(padded, (size, size)).sum(axis=(2, 3))

    @pytest.mark.parametrize("size", range(3, 17, 2))
    def test_all_255_sums_exactly_in_the_narrowest_dtype(self, size):
        x = np.full((7, 10), 255, dtype=np.uint8)
        sums = self.sums(x, size)
        # 255 * 15 * 15 fits 16 bits
        assert sums.dtype == np.uint16
        assert np.array_equal(sums.astype(np.int64), self.wide(x, size))

    @pytest.mark.parametrize("size", [3, 15])
    def test_random_sums_match_int64(self, size, rng):
        x = rng.integers(0, 256, (12, 5), dtype=np.uint8)
        assert np.array_equal(self.sums(x, size).astype(np.int64), self.wide(x, size))


NOISE_90 = NoiseSpec(density=0.9, seed=11)


@pytest.fixture(scope="module")
def clean_1024():
    return GrayImage(np.random.default_rng(11).integers(0, 256, (1024, 1024), dtype=np.uint8))


@pytest.fixture(scope="module")
def noisy(clean_1024):
    return inject(clean_1024, NOISE_90)


def traced_peak(call) -> int:
    """The tracemalloc peak of ``call()``, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGatedMemory:
    """The gated filters' peak is a small multiple of the image, not of the window."""

    @pytest.mark.parametrize("kind", ["rmf", "mdbutmf"])
    @pytest.mark.parametrize("size", [3, 7])
    def test_peak_stays_under_20_mib_at_1024(self, noisy, kind, size):
        config = FilterConfig(kind=kind, window_size=size)
        tracemalloc.start()
        try:
            apply_filter(noisy, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


class TestMemoryMultiples:
    """Peaks of ``smf``, ``amf``, ``inject`` and the P2 encoder on 1 MiB images.

    Measured with NumPy 2.4 (tracemalloc, 1024^2 pixels, 90 % noise for
    the filters): ``smf`` 3.0 MiB at window 3 and 3.1 MiB at window 7,
    under a 6 MiB bound (about 1.9x headroom); ``amf`` growing 3 -> 7,
    15.1 MiB under 24 MiB (1.6x); ``inject`` 2.6 MiB under 4 MiB (1.6x);
    ``write_pgm(..., "ascii")`` of the clean image 7.1 MiB under 11 MiB
    (1.5x); ``read_pgm`` of that image's P2 text 2.0 MiB under 4 MiB
    (2x).  A window stack per pixel, k*k bytes each, would break every
    filter bound; whole-image float64 draws (25 MiB) would break
    ``inject``'s, a Python bytes object per sample (11.8 MiB) the
    encoder's, and one parse of the whole text (12.7 MiB) the decoder's.
    """

    @pytest.mark.parametrize("size", [3, 7])
    def test_smf_peak_stays_under_6_mib(self, noisy, size):
        config = FilterConfig(kind="smf", window_size=size)
        assert traced_peak(lambda: apply_filter(noisy, config)) < 6 * 2**20

    def test_amf_peak_stays_under_24_mib(self, noisy):
        config = FilterConfig(kind="amf", window_size=3, max_window_size=7)
        assert traced_peak(lambda: apply_filter(noisy, config)) < 24 * 2**20

    def test_inject_peak_stays_under_4_mib(self, clean_1024):
        assert traced_peak(lambda: inject(clean_1024, NOISE_90)) < 4 * 2**20

    def test_ascii_pgm_peak_stays_under_11_mib(self, clean_1024):
        assert traced_peak(lambda: write_pgm(clean_1024, "ascii")) < 11 * 2**20

    def test_ascii_pgm_read_peak_stays_under_4_mib(self, clean_1024):
        text = write_pgm(clean_1024, "ascii")
        assert traced_peak(lambda: read_pgm(text)) < 4 * 2**20


class TestNetworksByTheZeroOnePrinciple:
    """Every pruned network for 3x3 and 5x5 windows, on every 0-1 input.

    A comparator network puts the r-th smallest value on wire r for every
    input iff it does so for every input of 0s and 1s (the 0-1 principle,
    Knuth, TAOCP vol. 3, 5.3.4).  The 2**n inputs run bit-packed, 8 to a
    byte, in chunks of 2**18: wire i of input x is bit i of x, and AND is
    min while OR is max.  7x7 networks are covered by the oracle tests.
    """

    @pytest.mark.parametrize("outputs", ["median", "min_median_max", "lower_half"])
    @pytest.mark.parametrize("n", [9, 25])
    def test_every_zero_one_input(self, n, outputs):
        wires = {
            "median": (n // 2,),
            "min_median_max": (0, n // 2, n - 1),
            "lower_half": tuple(range((n - 1) // 2 + 1)),
        }[outputs]
        steps, wire_slots, slots = filters._network(n, wires)
        bitwise = {np.minimum: np.bitwise_and, np.maximum: np.bitwise_or}
        tracemalloc.start()
        try:
            low = min(n, 18)  # input bits that vary inside a chunk
            x = np.arange(1 << low, dtype=np.uint32)
            bits = [(x >> i) & 1 == 1 for i in range(low)]
            ones = sum(b.view(np.uint8) for b in bits).astype(np.uint8)
            inputs = [np.packbits(b, bitorder="little") for b in bits]
            del x, bits
            for high in range(1 << (n - low)):
                slot = inputs + [
                    np.full_like(inputs[0], 255 if high >> i & 1 else 0) for i in range(n - low)
                ]
                slot += [np.empty_like(inputs[0]) for _ in range(slots - n)]
                for ufunc, a, b, out in steps:
                    bitwise[ufunc](slot[a], slot[b], out=slot[out])
                count = ones + bin(high).count("1")
                for wire, s in zip(wires, wire_slots):
                    # sorted ascending, wire w holds a 1 iff at least n - w inputs are 1
                    expected = np.packbits(count >= n - wire, bitorder="little")
                    assert np.array_equal(slot[s], expected), (wire, high)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("size,wires,comparators", [
        (3, "median", 24), (5, "median", 113), (7, "median", 319),
        (3, "min_median_max", 26), (5, "min_median_max", 118), (7, "min_median_max", 327),
    ])
    def test_pruned_comparator_counts(self, size, wires, comparators):
        n = size * size
        wires = (n // 2,) if wires == "median" else (0, n // 2, n - 1)
        steps, _, _ = filters._network(n, wires)
        # a comparator is one step, or a min and then a max of the same two slots
        both = sum(
            first[0] is np.minimum and second[0] is np.maximum and first[1:3] == second[1:3]
            for first, second in zip(steps, steps[1:])
        )
        assert len(steps) - both == comparators

    def test_importing_the_package_builds_no_network(self):
        code = "import saltpepper; print(saltpepper.filters._network.cache_info().currsize)"
        env = dict(os.environ, PYTHONPATH=str(Path(filters.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout.strip() == "0"


class TestBandSeams:
    """The oracle tests again, with a select's bands cut to 1 element and to 1, 2 and 3 rows.

    Each case runs every accepted configuration that selects with base
    window ``size``: ``smf``, ``mdbutmf`` and ``amf`` growing to each top.
    """

    @pytest.mark.parametrize("rows", [pytest.param(0, id="element"), 1, 2, 3])
    @pytest.mark.parametrize("size", [3, 5, 7])
    @given(pixels=impulse_arrays)
    @settings(max_examples=20)
    def test_filters_match_reference(self, rows, size, pixels):
        img, ref_rows = GrayImage(pixels), pixels.tolist()
        configs = [c for c in ACCEPTED if c.window_size == size and c.kind != "rmf"]  # no select
        # a network's band holds this many elements (one when rows is 0) in each of its
        # n + 2 arrays; the padded rows are wider than the image's, so bands end mid-row
        elements = rows * pixels.shape[1] or 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filters, "_BAND_BYTES", elements * (size * size + 2))
            outs = [apply_filter(img, config) for config in configs]
        for config, out in zip(configs, outs):
            assert restored(out) == reference(ref_rows, config), config


class TestApplyFilter:
    @given(
        pixels=small_arrays,
        kind=st.sampled_from(FILTER_KINDS),
        density=st.sampled_from([0.1, 0.5, 0.9]),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=60)
    def test_outputs_stay_in_range_on_noisy_inputs(self, pixels, kind, density, seed):
        noisy = inject(GrayImage(pixels), NoiseSpec(density=density, seed=seed))
        out = apply_filter(noisy, FilterConfig(kind=kind))
        assert out.image.pixels.dtype == np.uint8
        assert 0 <= out.replaced_count <= noisy.width * noisy.height


if __name__ == "__main__":
    digests = {config_id(config): filter_digest(config) for config in ACCEPTED}
    GOLDEN_DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
