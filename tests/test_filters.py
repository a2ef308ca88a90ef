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
    compare,
    inject,
    read_pgm,
    synthetic_test_image,
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
impulses = st.integers(-255, 510).map(lambda v: min(max(v, 0), 255))
impulse_arrays = hnp.arrays(
    np.uint8, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=10), elements=impulses
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

    @pytest.mark.parametrize(
        "whole,per_row",
        [
            pytest.param(1, 0, id="gather"),
            pytest.param(1, 2**62, id="partition"),
            pytest.param(2**62, 0, id="whole"),
        ],
    )
    @pytest.mark.parametrize("size,max_size", [(3, 5), (3, 7), (5, 7)])
    @given(pixels=impulse_arrays)
    @settings(max_examples=40)
    def test_each_wider_stage_path_matches_reference(
        self, whole, per_row, size, max_size, pixels
    ):
        # _AMF_WHOLE 1 gathers every stage, the base window's too, through the network with
        # _SORT_PER_ROW 0 and through the stack sort with 2**62 (the id "partition"
        # is older than the sort); _AMF_WHOLE 2**62 runs every stage with an
        # undecided pixel over the whole layout
        config = FilterConfig(kind="amf", window_size=size, max_window_size=max_size)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filters, "_AMF_WHOLE", whole)
            mp.setattr(filters, "_SORT_PER_ROW", per_row)
            out = apply_filter(GrayImage(pixels), config)
        assert restored(out) == ref_amf_counted(pixels.tolist(), size, max_size)

    @given(pixels=small_arrays)
    @settings(max_examples=40)
    def test_gathering_one_pixel_at_a_time_matches_reference(self, pixels):
        # chunks of one pixel, through the network and through the stack sort
        config = FilterConfig(kind="amf", window_size=3, max_window_size=7)
        for per_row in (0, 2**62):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(filters, "_BAND_BYTES", 1)
                mp.setattr(filters, "_AMF_WHOLE", 1)
                mp.setattr(filters, "_SORT_PER_ROW", per_row)
                out = apply_filter(GrayImage(pixels), config)
            assert restored(out) == ref_amf_counted(pixels.tolist(), 3, 7), per_row

    @pytest.mark.parametrize("density", [0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    def test_default_path_matches_both_forced_paths(self, density):
        # at about 70 % the 5 x 5 stage runs whole and the 7 x 7 stage gathers;
        # the gathers are forced through the network and through the stack sort
        clean = GrayImage(np.random.default_rng(7).integers(0, 256, (257, 263), dtype=np.uint8))
        img = inject(clean, NoiseSpec(density=density, seed=7))
        for config in [c for c in ACCEPTED if c.kind == "amf"]:
            forced = []
            for whole, per_row in ((1, 0), (1, 2**62), (2**62, 0)):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(filters, "_AMF_WHOLE", whole)
                    mp.setattr(filters, "_SORT_PER_ROW", per_row)
                    forced.append(apply_filter(img, config))
            assert all(apply_filter(img, config) == f for f in forced), config

    def test_wide_growth_on_a_saturated_image_runs_whole_stages_in_bounded_memory(
        self, saturated_1024
    ):
        """Growth 3 -> 7 on a 1024^2 image of 0s and 255s, where no window ever decides.

        Every stage then runs over the whole layout, each finishing a
        select band at a time.  Measured with NumPy 2.4 (tracemalloc):
        4.6 MiB, under the gated filters' 6.5 MiB bound (1.4x headroom);
        whole-layout Zmin, Zmed and Zmax arrays and masks took 9.1 MiB, and
        gathering every stage in chunks of one select band 13.1 MiB.  (The
        test keeps the name of its first, 11 MiB bound.)
        """
        config = FilterConfig(kind="amf", window_size=3, max_window_size=7)
        tracemalloc.start()
        try:
            banded = apply_filter(saturated_1024, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6.5 * 2**20
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filters, "_BAND_BYTES", 2**40)
            whole = apply_filter(saturated_1024, config)
        assert banded == whole

    def test_wide_growth_on_a_saturated_image_gathers_in_bounded_chunks(self, saturated_1024):
        """The same growth with every stage gathered, the base window's too (``_AMF_WHOLE`` 1).

        Measured with NumPy 2.4 (tracemalloc): 13.1 MiB in chunks of one
        select band, with the undecided positions taken once and compacted
        in place from one stage into the next, under a 16 MiB bound;
        against 67 MiB for one gather of every undecided pixel's window.
        Positions held twice give 20.0 MiB.
        """
        config = FilterConfig(kind="amf", window_size=3, max_window_size=7)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filters, "_AMF_WHOLE", 1)
            tracemalloc.start()
            try:
                chunked = apply_filter(saturated_1024, config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20
            mp.setattr(filters, "_BAND_BYTES", 2**40)
            whole = apply_filter(saturated_1024, config)
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
    return filters._apply_gated(image, size, kind)


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

    The images are 257x263 and 700x31 at 10, 50 and 90 % noise, with the
    band budget, which sizes a select's work arrays and ``amf``'s gather
    chunks, cut to 64 KiB so that every configuration runs in several
    bands and chunks.
    """
    digest = hashlib.sha256()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filters, "_BAND_BYTES", 1 << 16)
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
    only for a deliberate change of output, with ``python tests/test_filters.py digests``.
    """

    def test_every_configuration_has_a_digest(self):
        assert set(json.loads(GOLDEN_DIGESTS.read_text())) == {config_id(c) for c in ACCEPTED}

    @pytest.mark.parametrize("config", ACCEPTED, ids=config_id)
    def test_outputs_match_the_golden_digest(self, config):
        assert filter_digest(config) == json.loads(GOLDEN_DIGESTS.read_text())[config_id(config)]


class TestPaddedLayout:
    """``_padded`` fills its buffer by hand; its edges must replicate as ``np.pad``'s do."""

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize(
        "shape", [(1, 1), (1, 9), (9, 1), (6, 11), (13, 4)], ids=lambda s: f"{s[0]}x{s[1]}"
    )
    def test_matches_edge_padding(self, r, shape, rng):
        a = rng.integers(0, 256, shape, dtype=np.uint8)
        flat, stride = filters._padded(a, r)
        expected = np.pad(a, ((r, r + 1), (r, r)), mode="edge")
        assert stride == expected.shape[1]
        assert flat.dtype == np.uint8
        assert np.array_equal(flat, expected.ravel())


class TestWindowSum:
    """Window sums of a ``_padded`` layout, cropped, against int64 sums of the padded image."""

    @staticmethod
    def sums(x, size):
        h, w = x.shape
        flat, stride = filters._padded(x, size // 2)
        return filters._window_sum(flat, stride, size, np.uint16).reshape(h, stride)[:, :w]

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

    @pytest.mark.parametrize("size", [3, 15])
    @pytest.mark.parametrize("fill", [None, 1], ids=["random", "ones"])
    def test_indicator_sums_exactly_in_uint8(self, size, fill, rng):
        x = rng.integers(0, 2, (12, 5), dtype=np.uint8)
        if fill is not None:
            x[...] = fill  # every window sums to size * size, 225 at 15 x 15
        h, w = x.shape
        flat, stride = filters._padded(x, size // 2)
        sums = filters._window_sum(flat, stride, size, np.uint8).reshape(h, stride)[:, :w]
        assert sums.dtype == np.uint8
        assert np.array_equal(sums.astype(np.int64), self.wide(x, size))


class TestRoundedMean:
    """The gated kernels' rounded means against the integer formula, over their whole domains.

    ``rmf``'s mean (``_rounded_mean``), where rounding the float32 quotient
    instead of truncating it, or a float16 quotient, fails; and the
    all-impulse fallback, through the kernels.  The last two run the
    kernels with their bands cut small.
    """

    @staticmethod
    def mean(total, count):
        return filters._rounded_mean(total, count)

    def test_every_kept_total_of_every_count(self):
        # a kept count c of 1 to 15 * 15 values of 1 to 254 totals 0 to 254 * c
        for c in range(1, 226):
            total = np.arange(254 * c + 1, dtype=np.uint16)
            count = np.full(total.size, c, dtype=np.uint8)
            want = (total.astype(np.int64) + c // 2) // c
            assert np.array_equal(self.mean(total, count), want), c

    @pytest.mark.parametrize("size", range(3, 17, 2))
    def test_every_all_impulse_fallback(self, size):
        # block s, of s 255s and n - s 0s, is the whole window of its center pixel
        n, r = size * size, size // 2
        salt = np.arange(n + 1)
        blocks = [np.arange(n).reshape(size, size) < s for s in salt]
        image = GrayImage(np.hstack(blocks).astype(np.uint8) * np.uint8(255))
        want = (255 * salt + n // 2) // n
        for kind in ("rmf", "mdbutmf"):
            assert np.array_equal(gated(image, size, kind).image.pixels[r, r::size], want), kind

    @pytest.mark.parametrize("band", [1, 5, 64])
    @pytest.mark.parametrize("size", [3, 7])
    @given(pixels=impulse_arrays)
    @settings(max_examples=20)
    def test_bands_meet_in_rmf(self, band, size, pixels):
        # the gated kernel cut into bands of about 4 * band elements in whole rows: one
        # or two rows for 1, and at 5 and 64 several rows of the narrower images
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filters, "BAND", band)
            out = apply_filter(GrayImage(pixels), FilterConfig("rmf", size))
        assert out.image.pixels.tolist() == ref_rmf(pixels.tolist(), size=size)

    @pytest.mark.parametrize("band", [1, 5, 64])
    @pytest.mark.parametrize("size", [3, 7])
    @given(pixels=impulse_arrays)
    @settings(max_examples=20)
    def test_bands_meet_in_mdbutmf(self, band, size, pixels):
        # the rank select and the fallback meet at the same seams
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filters, "BAND", band)
            out = apply_filter(GrayImage(pixels), FilterConfig("mdbutmf", size))
        assert out.image.pixels.tolist() == ref_mdbutmf(pixels.tolist(), size=size)


NOISE_90 = NoiseSpec(density=0.9, seed=11)


@pytest.fixture(scope="module")
def clean_1024():
    return GrayImage(np.random.default_rng(11).integers(0, 256, (1024, 1024), dtype=np.uint8))


@pytest.fixture(scope="module")
def noisy(clean_1024):
    return inject(clean_1024, NOISE_90)


@pytest.fixture(scope="module")
def saturated_1024():
    """A 1024^2 image of 0s and 255s, on which no ``amf`` window ever decides."""
    pixels = np.random.default_rng(3).choice(np.array([0, 255], dtype=np.uint8), (1024, 1024))
    return GrayImage(pixels)


def traced_peak(call) -> int:
    """The tracemalloc peak of ``call()``, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGatedMemory:
    """The gated filters' peak is a small multiple of the image, not of the window.

    Measured with NumPy 2.4 (tracemalloc, 1024^2 pixels, 90 % noise):
    ``rmf`` 4.62 and 4.65 MiB at windows 3 and 7 and ``mdbutmf`` 4.34
    and 4.56 MiB (4.77 MiB at window 7 and 50 % noise), under a 6.5 MiB
    bound (1.36x headroom).  Running the kernel over the whole image
    instead of in bands of rows (7.0-7.6 MiB) would break it, and so
    would the uint16 packed-count sums that held ``rmf`` at 9.0 MiB.
    (The test keeps the name of its first, 20 MiB bound.)
    """

    @pytest.mark.parametrize("kind", ["rmf", "mdbutmf"])
    @pytest.mark.parametrize("size", [3, 7])
    def test_peak_stays_under_20_mib_at_1024(self, noisy, kind, size):
        config = FilterConfig(kind=kind, window_size=size)
        assert traced_peak(lambda: apply_filter(noisy, config)) < 6.5 * 2**20


class TestMemoryMultiples:
    """Peaks of the filters, ``inject``, the PGM codec, ``compare`` and the test scene at 1 MiB.

    Measured with NumPy 2.4 (tracemalloc, 1024^2 pixels, 90 % noise for
    the filters): ``smf`` 3.2 MiB at window 3 and 3.3 MiB at window 7,
    under a 6 MiB bound (about 1.8x headroom); ``amf`` growing 3 -> 7,
    4.6 MiB under the gated filters' 6.5 MiB (1.4x), and 6.46 MiB at its
    worst density, 50 %, where its gathered positions are int64;
    ``inject`` 1.6 MiB under 2 MiB (1.3x);
    ``write_pgm(..., "ascii")`` of the clean image 7.1 MiB under 11 MiB
    (1.5x); ``read_pgm`` of that image's P2 text 1.3 MiB under 4 MiB
    (3x), and of its P5 bytes 1.3 KiB under 64 KiB; ``compare`` with a
    noisy image 0.44 MiB under 1 MiB (2.3x); ``synthetic_test_image(1024)``
    3.5 MiB under ``smf``'s 6 MiB (1.7x).  A window stack per pixel,
    k*k bytes each, would break every filter bound, and so would
    ``amf``'s whole-image Zmin, Zmed and Zmax arrays and masks (9.1 MiB)
    or gathering its 5 x 5 and 7 x 7 stages at 90 % noise (11.6 MiB);
    whole-image float64 draws (25 MiB) or a copy of the output (2.6 MiB)
    would break ``inject``'s, a Python bytes object per sample (11.8 MiB)
    the encoder's, one parse of the whole text (12.7 MiB) the P2
    decoder's, a copy of the raster (1 MiB) the P5 decoder's, and a
    whole-image int16 difference and int32 square (6.1 MiB) ``compare``'s,
    and whole-image float64 planes (56 MiB) the scene's.
    (``inject``'s and ``amf``'s tests keep the names of their first
    bounds, 4 and 11 MiB.)
    """

    @pytest.mark.parametrize("size", [3, 7])
    def test_smf_peak_stays_under_6_mib(self, noisy, size):
        config = FilterConfig(kind="smf", window_size=size)
        assert traced_peak(lambda: apply_filter(noisy, config)) < 6 * 2**20

    def test_amf_peak_stays_under_11_mib(self, noisy):
        config = FilterConfig(kind="amf", window_size=3, max_window_size=7)
        assert traced_peak(lambda: apply_filter(noisy, config)) < 6.5 * 2**20

    def test_inject_peak_stays_under_4_mib(self, clean_1024):
        assert traced_peak(lambda: inject(clean_1024, NOISE_90)) < 2 * 2**20

    def test_ascii_pgm_peak_stays_under_11_mib(self, clean_1024):
        assert traced_peak(lambda: write_pgm(clean_1024, "ascii")) < 11 * 2**20

    def test_ascii_pgm_read_peak_stays_under_4_mib(self, clean_1024):
        text = write_pgm(clean_1024, "ascii")
        assert traced_peak(lambda: read_pgm(text)) < 4 * 2**20

    def test_binary_pgm_read_peak_stays_under_64_kib(self, clean_1024):
        data = write_pgm(clean_1024, "binary")
        assert traced_peak(lambda: read_pgm(data)) < 64 * 2**10

    def test_compare_peak_stays_under_1_mib(self, clean_1024, noisy):
        assert traced_peak(lambda: compare(clean_1024, noisy, noisy)) < 2**20

    def test_synthetic_test_image_peak_stays_under_6_mib(self):
        assert traced_peak(lambda: synthetic_test_image(1024)) < 6 * 2**20


BITWISE = {np.minimum: np.bitwise_and, np.maximum: np.bitwise_or}  # min and max of 0-1 bits


def network_outputs(network, inputs: list, ops=BITWISE) -> list[np.ndarray]:
    """A value-form network's output wires, run with a fresh array for every value.

    ``ops`` maps each step's ufunc to the one run in its place: by default
    AND for min and OR for max, on bit-packed 0-1 inputs, and with ``{}``
    the steps' own ufuncs.  A value is dropped after its last read, so
    that at most the network's live values are held at once.  An input
    that the network never reads may be ``None``.
    """
    steps, outputs = network
    last = {v: i for i, step in enumerate(steps) for v in step[1:]}
    last.update((v, len(steps)) for v in outputs)
    values = dict(enumerate(inputs))
    for i, (ufunc, a, b) in enumerate(steps):
        values[len(inputs) + i] = ops.get(ufunc, ufunc)(values[a], values[b])
        for v in {a, b}:
            if last[v] == i:
                del values[v]
    return [values[v] for v in outputs]


def selected(rows, width, wires) -> list[np.ndarray]:
    """``_select``'s values over its whole output: each yielded value's bands, joined.

    Each band's views are copied, since a view holds only until the next
    band runs.
    """
    bands = [[v.copy() for v in values] for _, values in filters._select(rows, width, wires)]
    return [np.concatenate(parts) for parts in zip(*bands)]


def select_wires(size: int) -> list[tuple[int, ...]]:
    """Every wire set that a select over size x size windows asks for.

    The median (``smf``), min, median and max (``amf``), and each prefix
    ``0..t`` of the lower half (``mdbutmf``, cut to a band's largest rank).
    """
    n = size * size
    return [(n // 2,), (0, n // 2, n - 1)] + [tuple(range(t + 1)) for t in range((n - 1) // 2 + 1)]


def select_plans(size: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """``(columns, width, wires)`` of every select at ``size`` x ``size``, and of ``amf``'s gather."""
    n = size * size
    return [(size, size, wires) for wires in select_wires(size)] + [(n, 1, (0, n // 2, n - 1))]


def plan_wires(plan, column, ops=BITWISE) -> dict[int, np.ndarray]:
    """A plan's output wires, its merge nodes run on given columns in place of node 1.

    ``column[j][i]`` is wire i of the sorted column at shift j, bit-packed
    0-1 values unless ``ops`` says otherwise (see :func:`network_outputs`).
    Each node runs once at each shift that the tree reads it at, with the
    networks that :func:`_select` runs once per band over the hull of
    those shifts, and a fresh array for every value.
    """
    nodes = {node[0]: node for node in plan[0]}
    shifts = {max(nodes): {0}}  # the shifts each node is read at, from the top down
    for n in sorted(nodes, reverse=True)[:-1]:
        for child, shift in ((n // 2, 0), (n - n // 2, n // 2)):
            shifts.setdefault(child, set()).update(s + shift for s in shifts[n])
    last = {child: n for n in sorted(nodes)[1:] for child in (n // 2, n - n // 2)}  # last reader
    done = {}
    for n in sorted(nodes):
        _, runs, wires, *_ = nodes[n]
        for s in shifts[n]:
            if n == 1:
                done[n, s] = {w: column[s][w] for w in wires}
                continue
            a, b = done[n // 2, s], done[n - n // 2, s + n // 2]
            inputs = [a.get(i) for i in range(runs[0])] + [b.get(i) for i in range(runs[1])]
            network = filters._network(runs, wires)
            done[n, s] = dict(zip(wires, network_outputs(network, inputs, ops)))
        for key in [key for key in done if last.get(key[0]) == n]:
            del done[key]  # dropped once its last reader has run, like the values of a network
    return done[max(nodes), 0]


class TestNetworksByTheZeroOnePrinciple:
    """Every network a select runs at 3x3, 5x5 and 7x7, on every 0-1 input it can meet.

    A comparator network puts the r-th smallest value on wire r for every
    input iff it does so for every input of 0s and 1s (the 0-1 principle,
    Knuth, TAOCP vol. 3, 5.3.4).  A threshold keeps a sorted list sorted,
    so a merge of two sorted lists of lengths a and b is right iff it is
    right on its (a + 1)(b + 1) 0-1 inputs whose lists are sorted, and a
    merge of k sorted columns iff it is right on the (k + 1)**k whose
    columns are sorted: 8**7, about 2.1 M, at 7x7.  So each merge node of
    every select plan is proven on its own inputs (``_plan``), the column
    sorts and the single-wire networks on all 2**n inputs, and the nodes
    composed, as the select runs them, on every input with sorted columns.
    The inputs run bit-packed, 8 to a byte, in chunks: AND is min and OR
    is max.  The 49-wire network of ``amf``'s gathered 7x7 stage, at 2**49
    inputs, is left to the pruned-and-unpruned test and the oracle, which
    reaches it only through the tests that force ``_SORT_PER_ROW`` to 0:
    its small images' gathers sort.
    """

    @pytest.mark.parametrize("n,outputs", [
        *[(n, outputs) for n in (9, 25) for outputs in ("median", "min_median_max", "lower_half")],
        *[(k, f"first_{t}") for k in (3, 5, 7) for t in range(1, k + 1)],  # the column sorts
    ], ids=str)
    def test_every_zero_one_input(self, n, outputs):
        wires = {
            "median": (n // 2,),
            "min_median_max": (0, n // 2, n - 1),
            "lower_half": tuple(range((n - 1) // 2 + 1)),
        }.get(outputs) or tuple(range(int(outputs.removeprefix("first_"))))
        network = filters._network((1,) * n, wires)
        tracemalloc.start()
        try:
            low = min(n, 18)  # input bits that vary inside a chunk
            x = np.arange(1 << low, dtype=np.uint32)
            bits = [(x >> i) & 1 == 1 for i in range(low)]
            ones = sum(b.view(np.uint8) for b in bits).astype(np.uint8)
            inputs = [np.packbits(b, bitorder="little") for b in bits]
            del x, bits
            for high in range(1 << (n - low)):
                fixed = [np.full_like(inputs[0], 255 if high >> i & 1 else 0) for i in range(n - low)]
                count = ones + bin(high).count("1")
                for wire, got in zip(wires, network_outputs(network, inputs + fixed)):
                    # sorted ascending, wire w holds a 1 iff at least n - w inputs are 1
                    expected = np.packbits(count >= n - wire, bitorder="little")
                    assert np.array_equal(got, expected), (wire, high)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("size", [3, 5, 7])
    def test_every_merge_node_on_its_sorted_inputs(self, size):
        # node n merges the cut lists of nodes n // 2 and n - n // 2, read a shift apart
        nodes = [node for select in select_plans(size)[:-1] for node in filters._plan(*select)[0]]
        merges = {node[1:3] for node in nodes if node[0] > 1}
        assert merges
        # and every column sort is one of the first_t networks of test_every_zero_one_input
        assert all(node[2] == tuple(range(len(node[2]))) for node in nodes if node[0] == 1)
        for runs, wires in merges:
            a, b = runs
            ones_a, ones_b = np.divmod(np.arange((a + 1) * (b + 1)), b + 1)  # each list's 1s
            inputs = [np.packbits(ones_a >= a - i, bitorder="little") for i in range(a)]
            inputs += [np.packbits(ones_b >= b - i, bitorder="little") for i in range(b)]
            network = filters._network(runs, wires)
            for wire, got in zip(wires, network_outputs(network, inputs)):
                expected = np.packbits(ones_a + ones_b >= a + b - wire, bitorder="little")
                assert np.array_equal(got, expected), (runs, wires, wire)

    @pytest.mark.parametrize("size", [3, 5, 7])
    def test_every_merge_on_every_input_with_sorted_columns(self, size):
        # the plans' merge nodes composed as the select runs them, node 1 given sorted
        n, base = size * size, size + 1
        plans = [(select[2], filters._plan(*select)) for select in select_plans(size)[:-1]]
        tracemalloc.start()
        try:
            low = min(size, 6)  # columns whose count of 1s varies inside a chunk
            x = np.arange(base**low, dtype=np.uint32)
            counts = [(x // base**j % base).astype(np.uint8) for j in range(low)]  # column j's 1s
            del x
            for high in itertools.product(range(base), repeat=size - low):
                ones = counts + [np.full_like(counts[0], c) for c in high]
                total = sum(ones)
                # sorted ascending, row i of a column with c 1s is 1 iff i >= size - c
                column = [[np.packbits(c >= size - i, bitorder="little") for i in range(size)]
                          for c in ones]
                for wires, plan in plans:
                    got = plan_wires(plan, column)
                    for wire in wires:
                        expected = np.packbits(total >= n - wire, bitorder="little")
                        assert np.array_equal(got[wire], expected), (wires, wire, high)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("size", [3, 5, 7])
    def test_pruned_and_unpruned_plans_agree(self, size):
        # the unpruned plan asks for every wire, so pruning drops none of its comparators
        rng = np.random.default_rng(size)
        for columns, width, wires in select_plans(size):
            n = columns * width
            # about a third each of 0, 255 and values between, so that wires tie
            values = rng.integers(-255, 511, (columns, 3000 + width - 1))
            rows = list(np.clip(values, 0, 255).astype(np.uint8))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(filters, "_SORT_PER_ROW", 0)  # the gathered stage runs its network
                pruned = selected(rows, width, wires)
                unpruned = selected(rows, width, range(n))
            for wire, got in zip(wires, pruned):
                assert np.array_equal(got, unpruned[wire]), (wires, wire)

    @pytest.mark.parametrize("size", [3, 5, 7])
    def test_work_arrays_fit_the_band(self, size):
        # a band of a plan's work arrays and its outputs fills at most _BAND_BYTES, and a
        # rank select's band, sized by the call's largest rank, holds every band's plan
        plans = select_plans(size)
        # the median, min-median-max, full lower half and amf's gather hold this many arrays
        peaks = {3: (9, 10, 9, 10), 5: (25, 26, 25, 26), 7: (48, 50, 48, 50)}[size]
        assert tuple(filters._plan(*plans[i])[3] for i in (0, 1, -2, -1)) == peaks
        for columns, width, wires in plans:
            nodes, _, _, peak = filters._plan(columns, width, wires)
            for outputs in {len(wires), 2}:
                band = filters._band(columns, width, wires, outputs)
                assert band * (peak + outputs) <= filters._BAND_BYTES, (wires, outputs)
                assert (band + 1) * (peak + outputs) > filters._BAND_BYTES, (wires, outputs)
            for n, runs, node_wires, *_ in nodes:  # each output wire is a work array of its node
                assert min(filters._network(runs, node_wires)[1]) >= sum(runs), (n, runs)
        prefixes = [filters._plan(size, size, wires)[3] for wires in select_wires(size)[2:]]
        assert prefixes == sorted(prefixes)

    @pytest.mark.parametrize("size,wires,comparators,calls", [
        (3, "median", 16, 24), (5, "median", 68, 112), (7, "median", 175, 302),
        (3, "min_median_max", 19, 32), (5, "min_median_max", 75, 128),
        (7, "min_median_max", 185, 324),
        (3, "lower_half", 17, 30), (5, "lower_half", 79, 146), (7, "lower_half", 208, 392),
        (3, "gathered", 24, 42), (5, "gathered", 116, 210), (7, "gathered", 317, 588),
    ])
    def test_pruned_comparator_counts(self, size, wires, comparators, calls):
        # a select's nodes, the column sort and each merge once, or amf's gathered stage
        n = size * size
        if wires == "gathered":
            plan = filters._plan(n, 1, (0, n // 2, n - 1))
        else:
            plan = filters._plan(size, size, {
                "median": (n // 2,),
                "min_median_max": (0, n // 2, n - 1),
                "lower_half": tuple(range(n // 2 + 1)),
            }[wires])
        total = steps_total = 0
        for *_, steps in plan[0]:
            # a comparator is one step, or a min and then a max of the same two views
            both = sum(
                first[0] is np.minimum and second[0] is np.maximum and first[1:3] == second[1:3]
                for first, second in zip(steps, steps[1:])
            )
            total += len(steps) - both
            steps_total += len(steps)
        assert (total, steps_total) == (comparators, calls)

    def test_importing_the_package_builds_no_network(self):
        code = (
            "import saltpepper; f = saltpepper.filters; "
            "print(f._network.cache_info().currsize, f._plan.cache_info().currsize)"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(filters.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert run.stdout.split() == ["0", "0"]


class TestPlanArrays:
    """``_plan`` alone puts a select's values in work arrays, and no step reads what it writes.

    A step writes offset 0 of one array: a dead input's, if that input is
    read at offset 0 and no operand reads its array at another offset,
    else the array freed most recently, else a new one.  Node 2n reads
    node n at shifts 0 and n, so an operand at another offset of the
    array written is a case to meet: NumPy would copy that operand first.
    """

    @pytest.mark.parametrize("size", [3, 5, 7])
    def test_no_step_writes_an_array_that_it_reads_at_another_offset(self, size):
        for columns, width, wires in select_plans(size):
            nodes, views, outputs, peak = filters._plan(columns, width, wires)
            # the rows come first, and every view fits an array of the band plus width - 1
            assert views[:columns] == tuple((r, 0, width - 1) for r in range(columns))
            assert all(a < columns + peak and o + extra < width for a, o, extra in views)
            assert all(views[v] >= (columns, 0, 0) and views[v][1:] == (0, 0) for v in outputs)
            for *_, steps in nodes:
                for _, *read, out in steps:
                    array, offset, extra = views[out]
                    assert array >= columns and offset == 0, (wires, views[out])
                    for a, o, e in (views[v] for v in read):
                        # one node's views span its hull; an array written is read only at 0
                        assert e == extra and (a != array or o == 0), (wires, (a, o, e), array)

    @pytest.mark.parametrize("size", [3, 5, 7])
    def test_plan_arrays_match_a_fresh_array_per_value(self, size):
        # the select in the plan's arrays against its value-form nodes with fresh arrays
        rng, m = np.random.default_rng(size), 500
        for columns, width, wires in select_plans(size):
            # about a third each of 0, 255 and values between, so that wires tie
            values = rng.integers(-255, 511, (columns, m + width - 1))
            rows = list(np.clip(values, 0, 255).astype(np.uint8))
            plan = filters._plan(columns, width, wires)
            _, runs, sort_wires, _ = plan[0][0]  # node 1 sorts the columns
            sort = filters._network(runs, sort_wires)
            column = [
                dict(zip(sort_wires, network_outputs(sort, [row[s : s + m] for row in rows], {})))
                for s in range(width)
            ]
            expected = plan_wires(plan, column, ops={})
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(filters, "_SORT_PER_ROW", 0)  # the gathered stage runs its network
                got = selected(rows, width, wires)
            for wire, out in zip(wires, got, strict=True):
                assert np.array_equal(out, expected[wire]), (wires, wire)


GOLDEN_LEDGER = Path(__file__).parent / "golden" / "cost-ledger.json"


def counted_plan(counts: dict[str, int]):
    """``filters._plan`` with every step's ufunc wrapped to count into ``counts``.

    ``counts["calls"]`` gains one per call, and ``counts["elements"]`` the
    elements that the call writes.
    """
    plan = filters._plan

    def counted(ufunc):
        def call(a, b, out):
            counts["calls"] += 1
            counts["elements"] += out.size
            return ufunc(a, b, out=out)

        return call

    def wrapped(columns, width, wires):
        nodes, *rest = plan(columns, width, wires)
        nodes = tuple(
            (*node[:3], tuple((counted(ufunc), *views) for ufunc, *views in node[3]))
            for node in nodes
        )
        return (nodes, *rest)

    return wrapped


def counted_select(counts: dict[str, int]):
    """``filters._select`` counting its calls, bands, gathers and stack sorts into ``counts``.

    ``counts["selects"]`` gains one per call and ``counts["bands"]`` one
    per band it yields.  A single-wire select (``amf``'s gathers) adds the
    elements it takes in as rows to ``counts["gathered"]``.  A call that
    runs no min/max call of :func:`counted_plan` took the stack-sort path,
    and ``counts["sorted"]`` gains the elements it ordered: its rows times
    its outputs.
    """
    select = filters._select

    def wrapped(rows, width, wires, rank=None):
        counts["selects"] += 1
        if width == 1:
            counts["gathered"] += len(rows) * rows[0].size
        calls = counts["calls"]
        for band in select(rows, width, wires, rank):
            counts["bands"] += 1
            yield band
        if counts["calls"] == calls:
            counts["sorted"] += len(rows) * (rows[0].size - width + 1)

    return wrapped


def counted_window_sum(counts: dict[str, int]):
    """``filters._window_sum`` counting its calls and the elements its adds write into ``counts``.

    A sum of n outputs at size k makes k - 1 adds of the n + k - 1
    elements that the column pass reads, then k - 1 adds of n.
    """
    window_sum = filters._window_sum

    def wrapped(x, stride, size, dtype):
        out = window_sum(x, stride, size, dtype)
        counts["sums"] += 1
        counts["summed"] += (size - 1) * (2 * out.size + size - 1)
        return out

    return wrapped


def cost_ledger() -> dict[str, dict[str, dict[str, int]]]:
    """Every configuration's counted work: selects, min/max calls, sorts and window sums.

    On ``synthetic_test_image`` at 50 and 90 % noise, seed 1, keyed like
    ``golden/filter-digests.json`` and then by density: ``50%`` at 1024^2
    and ``256px 50%`` at 256^2, where ``amf``'s gathers are small enough
    to sort.  ``calls`` and ``elements`` count the steps of every plan that
    ``_select`` and ``_band`` look up (:func:`counted_plan`); ``selects``,
    ``bands``, ``gathered`` and ``sorted`` count the calls of ``_select``,
    which every filter looks up at call time, the bands they yield and
    the elements that their gathers take in and their stack sorts order
    (:func:`counted_select`); ``sums`` and ``summed`` count the calls of
    ``_window_sum``, which ``_apply_gated`` looks up at call time, and the
    elements their adds write (:func:`counted_window_sum`).
    """
    ledger = {}
    fields = ("calls", "elements", "selects", "sorted", "bands", "gathered", "sums", "summed")
    for side, pct in itertools.product((1024, 256), (50, 90)):
        image = inject(synthetic_test_image(side), NoiseSpec(density=pct / 100, seed=1))
        key = f"{pct}%" if side == 1024 else f"{side}px {pct}%"
        for config in ACCEPTED:
            counts = dict.fromkeys(fields, 0)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(filters, "_plan", counted_plan(counts))
                mp.setattr(filters, "_select", counted_select(counts))
                mp.setattr(filters, "_window_sum", counted_window_sum(counts))
                apply_filter(image, config)
            ledger.setdefault(config_id(config), {})[key] = counts
    return ledger


def test_select_costs_match_the_ledger():
    """Every configuration's counted work, pinned in ``golden/cost-ledger.json``.

    A change of plan, band, rank rule, small-select cutover or window sum
    that moves a count shows here.  Regenerate the file only for a
    deliberate change of cost, with ``python tests/test_filters.py ledger``.
    """
    assert cost_ledger() == json.loads(GOLDEN_LEDGER.read_text())


class TestBandSeams:
    """The oracle tests again, with a select's bands cut to 1 element and to 1, 2 and 3 rows.

    Each case runs every accepted configuration that selects with base
    window ``size``: ``smf``, ``mdbutmf`` and ``amf`` growing to each top.
    A band's size comes from its select's plan, and ``mdbutmf``'s from
    the largest rank of the image, so the bands are forced by replacing
    ``_band``: every select and every ``amf`` gather then runs in bands
    of the same number of elements.
    """

    @pytest.mark.parametrize("rows", [pytest.param(0, id="element"), 1, 2, 3])
    @pytest.mark.parametrize("size", [3, 5, 7])
    @given(pixels=impulse_arrays)
    @settings(max_examples=20)
    def test_filters_match_reference(self, rows, size, pixels):
        img, ref_rows = GrayImage(pixels), pixels.tolist()
        configs = [c for c in ACCEPTED if c.window_size == size and c.kind != "rmf"]  # no select
        # a select's band holds this many elements (one when rows is 0); the padded rows
        # are wider than the image's, so bands end mid-row
        elements = rows * pixels.shape[1] or 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filters, "_band", lambda *select: elements)
            outs = [apply_filter(img, config) for config in configs]
        for config, out in zip(configs, outs):
            assert restored(out) == reference(ref_rows, config), config


class TestSelectMatchesSort:
    """``_select`` against ``np.sort`` of each window's stacked values, in bands cut small.

    Widths 3, 5 and 7, every wire set that a filter asks for and rank
    arrays, on rows rich in 0, 255 and ties.  The output is ``count`` rows
    of ``stride`` elements, and the band budget is set so that the rule of
    ``_band`` gives bands of 1 element or of 1, 2 or 3 rows: the plan's
    work arrays and outputs times the band, which for a rank select is the
    plan of its largest rank and a reserve of 2.  With ``rank`` a band
    yields the sorted wires up to its own largest rank, and picking wire
    ``rank`` from them per element gives each window's ranked value.
    """

    @given(data=st.data())
    @settings(max_examples=150)
    def test_select_matches_sort(self, data):
        width = data.draw(st.sampled_from([3, 5, 7]), label="width")
        n, stride = width * width, data.draw(st.integers(1, 12), label="stride")
        size = stride * data.draw(st.integers(1, 6), label="count")
        rows = list(data.draw(hnp.arrays(np.uint8, (width, size + width - 1), elements=impulses)))
        ordered = np.sort([row[j : j + size] for row in rows for j in range(width)], axis=0)
        wires = data.draw(st.sampled_from([*select_wires(width), "rank"]), label="wires")
        band = data.draw(st.sampled_from([1, stride, 2 * stride, 3 * stride]), label="band")
        rank = None
        if wires == "rank":
            rank = data.draw(hnp.arrays(np.uint8, size, elements=st.integers(0, n // 2)))
            wires = tuple(range(int(rank.max()) + 1))  # as _apply_gated asks
        outputs = len(wires) if rank is None else 2  # a ranked select reserves the pick's mask
        with pytest.MonkeyPatch.context() as mp:
            held = filters._plan(width, width, wires)[3] + outputs
            mp.setattr(filters, "_BAND_BYTES", band * held)
            assert filters._band(width, width, wires, outputs) == band
            bands = filters._select(rows, width, wires, rank)
            got = [(cut, [v.copy() for v in views]) for cut, views in bands]
        assert [i for cut, _ in got for i in range(size)[cut]] == [*range(size)]  # they tile it
        for cut, views in got:
            # with rank, the band's wires up to its own largest rank, of which each
            # element picks wire rank
            assert len(views) == (len(wires) if rank is None else int(rank[cut].max()) + 1), cut
            for wire, view in zip(wires, views):
                assert np.array_equal(view, ordered[wire, cut]), (cut, wire)
            if rank is not None:
                picked = np.stack(views)[rank[cut], np.arange(len(views[0]))]
                assert np.array_equal(picked, ordered[rank, np.arange(size)][cut]), cut


class TestSelectBands:
    """``_select`` yields ``(band, values)``, the bands tiling its output in order.

    Each band is the slice of the output that it covers, the last one
    ending at the output's size, and each value is a view of the band's
    length: one per wire, or with ``rank`` one per wire up to the band's
    largest rank.  The network path runs in bands of 1 element and of 1,
    2 and 3 rows, the budget set as in :class:`TestSelectMatchesSort`; the
    stack-sort path yields one band.
    """

    @pytest.mark.parametrize("ranked", [False, True], ids=["wires", "rank"])
    @pytest.mark.parametrize("rows", [pytest.param(0, id="element"), 1, 2, 3])
    @pytest.mark.parametrize("width", [3, 5, 7])
    def test_network_bands_tile_the_output(self, width, rows, ranked):
        n, stride, rng = width * width, 7, np.random.default_rng(width)
        size = 5 * stride
        values = rng.integers(-255, 511, (width, size + width - 1))
        inputs = list(np.clip(values, 0, 255).astype(np.uint8))
        if ranked:
            rank = rng.integers(0, n // 2 + 1, size).astype(np.uint8)
            wires, outputs = tuple(range(int(rank.max()) + 1)), 2
        else:
            rank, wires, outputs = None, (0, n // 2, n - 1), 3
        band = rows * stride or 1
        with pytest.MonkeyPatch.context() as mp:
            held = filters._plan(width, width, wires)[3] + outputs
            mp.setattr(filters, "_BAND_BYTES", band * held)
            got = [
                (cut, [v.shape for v in views])
                for cut, views in filters._select(inputs, width, wires, rank)
            ]
        cuts = [slice(first, min(first + band, size)) for first in range(0, size, band)]
        assert [cut for cut, _ in got] == cuts
        for cut, shapes in got:
            count = len(wires) if rank is None else int(rank[cut].max()) + 1
            assert shapes == [(cut.stop - cut.start,)] * count, cut

    @pytest.mark.parametrize("n", [9, 25, 49])
    def test_sort_path_yields_one_band(self, n):
        wires = (0, n // 2, n - 1)
        for size in (1, filters._SORT_PER_ROW * n - 1):
            inputs = [np.zeros(size, np.uint8)] * n
            bands = filters._select(inputs, 1, wires)
            got = [(cut, [v.shape for v in views]) for cut, views in bands]
            assert got == [(slice(0, size), [(size,)] * 3)], size


class TestSmallSelectSort:
    """A single-wire select below ``_SORT_PER_ROW`` elements per row sorts the stack of its rows."""

    @pytest.mark.parametrize("n", [9, 25, 49])
    def test_sort_matches_network(self, n):
        cut, rng = filters._SORT_PER_ROW * n, np.random.default_rng(n)
        wires = (0, n // 2, n - 1)
        for size in (1, cut - 1, cut, 3 * cut):
            # about a third each of 0, 255 and values between, so that wires tie
            rows = list(np.clip(rng.integers(-255, 511, (n, size)), 0, 255).astype(np.uint8))
            expected = np.sort(np.stack(rows), axis=0)[list(wires)]
            for per_row in (0, 2**62):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(filters, "_SORT_PER_ROW", per_row)
                    got = selected(rows, 1, wires)
                assert np.array_equal(np.stack(got), expected), (size, per_row)

    def test_cutover_picks_the_path(self):
        plan, sizes = filters._plan, []

        def recorded(columns, width, wires):
            sizes.append(columns)
            return plan(columns, width, wires)

        # the gathered stages of amf select 25 and 49 rows; each cuts over at its own size
        for n in (25, 49):
            cut, wires = filters._SORT_PER_ROW * n, (0, n // 2, n - 1)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(filters, "_plan", recorded)
                selected([np.zeros(cut - 1, np.uint8)] * n, 1, wires)
                assert sizes == [], n
                selected([np.zeros(cut, np.uint8)] * n, 1, wires)
            assert sizes and set(sizes) == {n}, n
            sizes.clear()


def asked_tops(image, size) -> list[int]:
    """The top wire of every plan that ``mdbutmf`` at window ``size`` asks for on ``image``."""
    plan, tops = filters._plan, []

    def recorded(columns, width, wires):
        tops.append(max(wires))
        return plan(columns, width, wires)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filters, "_plan", recorded)
        apply_filter(image, FilterConfig(kind="mdbutmf", window_size=size))
    return tops


class TestNetworkPerBand:
    """``mdbutmf`` runs each band's plan only up to that band's largest rank."""

    def test_heavy_noise_asks_for_no_wire_above_12(self, noisy):
        # a window that keeps nothing takes rank 0, so a band's top follows its kept counts;
        # they measured 6 to 9 here, where the wrapped rank 127 asked for all 25 wires
        tops = asked_tops(noisy, 7)
        assert tops and max(tops) <= 12

    def test_a_pixel_kept_as_it_is_asks_for_rank_0(self, clean_1024):
        # a noisy 3 x 3 center keeps at most 8 values, so rank 3 at most; a clean pixel's
        # window may keep 9, whose rank 4 its pick would read though the blend drops it
        half_noisy = inject(clean_1024, NoiseSpec(density=0.5, seed=11))
        tops = asked_tops(half_noisy, 3)
        assert tops and max(tops) <= 3

    @pytest.mark.parametrize("size", [3, 5, 7])
    def test_bands_of_light_and_heavy_noise_match_reference(self, size):
        # 90 % noise above 10 %, in bands of one padded row, so the bands' tops differ
        # and a band that spans the seam mixes both
        clean = GrayImage(np.random.default_rng(size).integers(0, 256, (16, 13), dtype=np.uint8))
        heavy = inject(clean, NoiseSpec(density=0.9, seed=size)).pixels
        light = inject(clean, NoiseSpec(density=0.1, seed=size)).pixels
        pixels = np.concatenate([heavy[:8], light[8:]])
        stride = pixels.shape[1] + size - 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(filters, "_band", lambda *select: stride)
            out = apply_filter(GrayImage(pixels), FilterConfig(kind="mdbutmf", window_size=size))
        assert out.image.pixels.tolist() == ref_mdbutmf(pixels.tolist(), size=size)


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
    # python tests/test_filters.py digests|ledger rewrites one golden file
    golden = {
        "digests": (GOLDEN_DIGESTS, lambda: {config_id(c): filter_digest(c) for c in ACCEPTED}),
        "ledger": (GOLDEN_LEDGER, cost_ledger),
    }
    path, build = golden[sys.argv[1]]
    path.write_text(json.dumps(build(), indent=2) + "\n")
