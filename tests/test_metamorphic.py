"""Metamorphic identities of every filter configuration, at sizes the oracle cannot reach.

- Dihedral equivariance: filtering a transposed, flipped or rotated
  image gives the same transform of the filtered image, with the same
  ``replaced_count``.  Every window is square and edge padding is
  symmetric, so this holds for all four kinds.  A transpose swaps rows
  and columns, so the two runs cut their bands at different pixels and
  each checks the other's band seams.
- Locality: filtering a crop reproduces the full image's output at every
  pixel whose widest window lies inside the crop.
- Value inversion: ``255 - v`` commutes with ``smf`` and ``amf``, whose
  rules use only order and strict comparisons.  The gated kernels round
  means half up and take the lower of two middles, so they do not.

Shapes are one row, one column, small, or sized so that the padded
layout just straddles the end of a gated band (``4 * BAND`` elements) or
of a select band (``_band``), plus one 1024^2 image per configuration at
the default band sizes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saltpepper import GrayImage, NoiseSpec, apply_filter, inject
from saltpepper import filters
from saltpepper.raster import BAND

from test_filters import ACCEPTED, config_id

# the kinds whose rules use only order and strict comparisons
ORDER_ONLY = [config for config in ACCEPTED if config.kind in ("smf", "amf")]

TRANSFORMS = {
    "transpose": np.transpose,
    "flipud": np.flipud,
    "fliplr": np.fliplr,
    "rot90": np.rot90,
}


def radius(config) -> int:
    """How far from a pixel its output reads: the widest window's radius."""
    return (config.max_window_size if config.kind == "amf" else config.window_size) // 2


def seams(config) -> list[int]:
    """Layout lengths, in elements, at which ``config``'s bands end.

    A select's band follows from its plan (``_band``): ``mdbutmf``'s from
    the largest rank of the call, any of those that a noisy center can
    take, and ``amf``'s from each stage's window.
    """
    size, n = config.window_size, config.window_size**2
    if config.kind == "smf":
        return [filters._band(size, size, (n // 2,), 1)]
    if config.kind == "amf":
        tops = range(size, config.max_window_size + 1, 2)
        return [filters._band(k, k, (0, k * k // 2, k * k - 1), 3) for k in tops]
    lengths = [4 * BAND]  # the gated kernel's band
    if config.kind == "mdbutmf":
        lengths += [filters._band(size, size, tuple(range(t + 1)), 2) for t in range(n // 2)]
    return lengths


def noisy_pixels(shape, seed: int, density: float) -> np.ndarray:
    """Random values with ``density`` of them turned to 0 or 255 by ``inject``."""
    clean = GrayImage(np.random.default_rng(seed).integers(0, 256, shape, dtype=np.uint8))
    return inject(clean, NoiseSpec(density, seed=seed)).pixels


@st.composite
def shapes(draw, config):
    """A 1 x n, n x 1 or small shape, or one whose padded layout straddles a band's end."""
    kind = draw(st.sampled_from(["row", "column", "small", "seam"]))
    if kind == "row":
        return 1, draw(st.integers(1, 300))
    if kind == "column":
        return draw(st.integers(1, 300)), 1
    if kind == "small":
        return draw(st.integers(1, 40)), draw(st.integers(1, 40))
    width = draw(st.integers(1, 600))
    stride = width + 2 * radius(config)
    # within a row of a band's length: the layout fills one band or just spills into a second
    height = draw(st.sampled_from(seams(config))) // stride + draw(st.integers(-1, 1))
    return max(height, 1), width


@st.composite
def images(draw, config):
    shape = draw(shapes(config))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.1, 0.5, 0.9, 1.0]))
    return noisy_pixels(shape, seed, density)


def check_dihedral(config, pixels):
    out = apply_filter(GrayImage(pixels), config)
    for name, transform in TRANSFORMS.items():
        moved = apply_filter(GrayImage(transform(pixels)), config)
        assert np.array_equal(moved.image.pixels, transform(out.image.pixels)), name
        assert moved.replaced_count == out.replaced_count, name


@pytest.fixture(scope="module")
def image_1024():
    """A 1024^2 image at 70 % noise, so every kind reaches its fallback or widest stage."""
    return noisy_pixels((1024, 1024), 5, 0.7)


class TestDihedral:
    @pytest.mark.parametrize("config", ACCEPTED, ids=config_id)
    @given(data=st.data())
    @settings(max_examples=8)
    def test_transforms_commute(self, config, data):
        check_dihedral(config, data.draw(images(config)))

    @pytest.mark.parametrize("config", ACCEPTED, ids=config_id)
    def test_transforms_commute_at_1024(self, config, image_1024):
        check_dihedral(config, image_1024)


class TestLocality:
    @pytest.mark.parametrize("config", ACCEPTED, ids=config_id)
    @given(data=st.data())
    @settings(max_examples=8)
    def test_crop_reproduces_the_interior(self, config, data):
        pixels = data.draw(images(config))
        h, w = pixels.shape
        r = radius(config)
        top, bottom = sorted(data.draw(st.integers(0, h), label="rows") for _ in range(2))
        left, right = sorted(data.draw(st.integers(0, w), label="columns") for _ in range(2))
        if bottom - top <= 2 * r or right - left <= 2 * r:
            return  # no pixel of the crop has its widest window inside it
        whole = apply_filter(GrayImage(pixels), config).image.pixels
        crop = apply_filter(GrayImage(pixels[top:bottom, left:right]), config).image.pixels
        inner = (slice(r, -r), slice(r, -r))
        assert np.array_equal(crop[inner], whole[top:bottom, left:right][inner])


class TestInversion:
    @pytest.mark.parametrize("config", ORDER_ONLY, ids=config_id)
    @given(data=st.data())
    @settings(max_examples=8)
    def test_inverting_values_commutes(self, config, data):
        pixels = data.draw(images(config))
        out = apply_filter(GrayImage(pixels), config)
        inverted = apply_filter(GrayImage(255 - pixels), config)
        assert np.array_equal(inverted.image.pixels, 255 - out.image.pixels)
        assert inverted.replaced_count == out.replaced_count

