import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from saltpepper import (
    GrayImage,
    PgmFormatError,
    Window,
    read_pgm,
    window_at,
    write_pgm,
)

image_arrays = hnp.arrays(
    np.uint8,
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=16),
)


class TestGrayImage:
    def test_stores_readonly_copy(self):
        src = np.zeros((2, 3), dtype=np.uint8)
        img = GrayImage(src)
        src[0, 0] = 9
        assert img.pixels[0, 0] == 0
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 1

    def test_dimensions(self):
        img = GrayImage(np.zeros((2, 5), dtype=np.uint8))
        assert (img.width, img.height) == (5, 2)

    def test_accepts_wider_integer_dtypes(self):
        img = GrayImage(np.array([[0, 255]], dtype=np.int64))
        assert img.pixels.dtype == np.uint8
        assert img.flat() == [0, 255]

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros(4, dtype=np.uint8),
            np.zeros((2, 2, 2), dtype=np.uint8),
            np.zeros((0, 3), dtype=np.uint8),
            np.zeros((2, 2), dtype=np.float64),
            np.array([[0, 256]]),
            np.array([[-1, 0]]),
        ],
    )
    def test_rejects_invalid_arrays(self, bad):
        with pytest.raises(ValueError):
            GrayImage(bad)

    def test_from_flat_round_trip(self):
        img = GrayImage.from_flat(3, 2, [1, 2, 3, 4, 5, 6])
        assert (img.width, img.height) == (3, 2)
        assert img.flat() == [1, 2, 3, 4, 5, 6]
        assert img.pixels[1, 0] == 4

    def test_from_flat_rejects_wrong_count(self):
        with pytest.raises(ValueError, match="expected 6 values"):
            GrayImage.from_flat(3, 2, [1, 2, 3])

    def test_equality_and_hash(self):
        a = GrayImage.from_flat(2, 1, [1, 2])
        b = GrayImage.from_flat(2, 1, [1, 2])
        c = GrayImage.from_flat(1, 2, [1, 2])
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != "not an image"


class TestWindowAt:
    def test_interior_window_is_the_slice(self):
        img = GrayImage.from_flat(3, 3, list(range(1, 10)))
        win = window_at(img, 1, 1, 3)
        assert win.values == (1, 2, 3, 4, 5, 6, 7, 8, 9)
        assert win.center_value == 5

    def test_corner_replicate_padding(self):
        img = GrayImage.from_flat(3, 3, list(range(1, 10)))
        win = window_at(img, 0, 0, 3)
        assert win.values == (1, 1, 2, 1, 1, 2, 4, 4, 5)
        assert win.center_value == 1

    def test_single_pixel_image(self):
        img = GrayImage.from_flat(1, 1, [9])
        win = window_at(img, 0, 0, 3)
        assert win.values == (9,) * 9

    def test_larger_window(self):
        img = GrayImage.from_flat(2, 2, [1, 2, 3, 4])
        win = window_at(img, 0, 0, 5)
        assert len(win.values) == 25
        assert set(win.values) == {1, 2, 3, 4}

    @pytest.mark.parametrize("size", [1, 2, 4, 0, -3])
    def test_rejects_bad_sizes(self, size):
        img = GrayImage.from_flat(2, 2, [1, 2, 3, 4])
        with pytest.raises(ValueError, match="odd integer"):
            window_at(img, 0, 0, size)

    @pytest.mark.parametrize("row,col", [(-1, 0), (0, -1), (2, 0), (0, 2)])
    def test_rejects_out_of_range_center(self, row, col):
        img = GrayImage.from_flat(2, 2, [1, 2, 3, 4])
        with pytest.raises(ValueError, match="outside"):
            window_at(img, row, col)

    def test_window_validation(self):
        with pytest.raises(ValueError, match="needs 9 values"):
            Window(size=3, values=(1, 2, 3), center_value=2)
        with pytest.raises(ValueError, match="does not match"):
            Window(size=3, values=(0,) * 9, center_value=5)


class TestReadPgm:
    def test_ascii_example(self):
        img = read_pgm(b"P2\n2 2\n255\n0 128\n255 7\n")
        assert img.flat() == [0, 128, 255, 7]
        assert (img.width, img.height) == (2, 2)

    def test_binary_example(self):
        img = read_pgm(b"P5\n1 1\n255\n\x2a")
        assert img.flat() == [42]

    def test_comments_between_header_tokens(self):
        data = b"P2 # plain\n# a comment line\n2 # width\n2\n255\n0 128 255 7\n"
        assert read_pgm(data).flat() == [0, 128, 255, 7]

    def test_rejects_unsupported_maxval(self):
        with pytest.raises(PgmFormatError, match="maxval 256"):
            read_pgm(b"P2\n2 2\n256\n0 0 0 0\n")

    def test_rejects_bad_magic(self):
        with pytest.raises(PgmFormatError, match="magic"):
            read_pgm(b"P6\n1 1\n255\n\x00")

    @pytest.mark.parametrize("field,data", [
        ("width", b"P2\n-2 2\n255\n0\n"),
        ("height", b"P2\n2 x\n255\n0\n"),
    ])
    def test_rejects_non_numeric_dimensions(self, field, data):
        with pytest.raises(PgmFormatError, match=field):
            read_pgm(data)

    def test_rejects_zero_dimension(self):
        with pytest.raises(PgmFormatError, match="zero width"):
            read_pgm(b"P2\n0 2\n255\n")

    def test_rejects_truncated_header(self):
        with pytest.raises(PgmFormatError, match="missing maxval"):
            read_pgm(b"P2\n2 2\n")

    def test_rejects_truncated_binary_raster(self):
        with pytest.raises(PgmFormatError, match="expected 4 bytes, got 3"):
            read_pgm(b"P5\n2 2\n255\n\x00\x01\x02")

    def test_rejects_trailing_binary_bytes(self):
        with pytest.raises(PgmFormatError, match="trailing data"):
            read_pgm(b"P5\n1 1\n255\n\x00\x01")

    def test_rejects_missing_raster_separator(self):
        with pytest.raises(PgmFormatError, match="whitespace after maxval"):
            read_pgm(b"P5\n1 1\n255")

    def test_rejects_truncated_ascii_samples(self):
        with pytest.raises(PgmFormatError, match="sample 3"):
            read_pgm(b"P2\n2 2\n255\n0 1 2\n")

    def test_rejects_out_of_range_ascii_sample(self):
        with pytest.raises(PgmFormatError, match="out of range: 300"):
            read_pgm(b"P2\n1 1\n255\n300\n")

    def test_rejects_non_numeric_ascii_sample(self):
        with pytest.raises(PgmFormatError, match="sample"):
            read_pgm(b"P2\n1 1\n255\nxx\n")

    def test_rejects_trailing_ascii_samples(self):
        with pytest.raises(PgmFormatError, match="trailing data"):
            read_pgm(b"P2\n1 1\n255\n0 1\n")

    def test_rejects_ascii_header_larger_than_its_data_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(PgmFormatError, match="truncated"):
                read_pgm(b"P2\n1000000000 1000000000\n255\n0\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_ascii_samples_fit_in_the_minimum_bytes(self):
        assert read_pgm(b"P2\n3 1\n255\n0 1 2").flat() == [0, 1, 2]

    def test_ascii_trailing_comment_is_fine(self):
        assert read_pgm(b"P2\n1 1\n255\n0\n# done\n").flat() == [0]

    def test_binary_raster_bytes_not_parsed_as_comments(self):
        # 0x23 is '#': as a raster byte it is a sample, not a comment
        img = read_pgm(b"P5\n1 1\n255\n\x23")
        assert img.flat() == [0x23]


class TestWritePgm:
    def test_binary_example(self):
        img = GrayImage.from_flat(1, 1, [42])
        assert write_pgm(img, "binary") == b"P5\n1 1\n255\n\x2a"

    def test_ascii_example(self):
        img = GrayImage.from_flat(2, 2, [0, 128, 255, 7])
        assert write_pgm(img, "ascii") == b"P2\n2 2\n255\n0 128\n255 7\n"

    def test_binary_is_default(self):
        img = GrayImage.from_flat(1, 1, [42])
        assert write_pgm(img) == write_pgm(img, "binary")

    def test_rejects_unknown_mode(self):
        img = GrayImage.from_flat(1, 1, [42])
        with pytest.raises(ValueError, match="unknown mode"):
            write_pgm(img, "text")

    @given(pixels=image_arrays)
    def test_round_trip_both_modes(self, pixels):
        img = GrayImage(pixels)
        assert read_pgm(write_pgm(img, "binary")) == img
        assert read_pgm(write_pgm(img, "ascii")) == img


@given(
    pixels=image_arrays,
    size=st.sampled_from([3, 5, 7]),
    data=st.data(),
)
def test_window_matches_clamped_indexing(pixels, size, data):
    img = GrayImage(pixels)
    row = data.draw(st.integers(0, img.height - 1))
    col = data.draw(st.integers(0, img.width - 1))
    win = window_at(img, row, col, size)
    assert len(win.values) == size * size
    r = size // 2
    expected = []
    for dr in range(-r, r + 1):
        for dc in range(-r, r + 1):
            rr = min(max(row + dr, 0), img.height - 1)
            cc = min(max(col + dc, 0), img.width - 1)
            expected.append(int(pixels[rr, cc]))
    assert list(win.values) == expected
