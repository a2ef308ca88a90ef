import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from saltpepper import (
    GrayImage,
    PgmFormatError,
    read_pgm,
    write_pgm,
)
from saltpepper import raster

from _reference import ref_read_pgm, ref_write_p2

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
        assert img.pixels.ravel().tolist() == [0, 255]

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

    def test_row_major_layout(self):
        img = GrayImage(np.array([[1, 2, 3], [4, 5, 6]]))
        assert (img.width, img.height) == (3, 2)
        assert img.pixels.ravel().tolist() == [1, 2, 3, 4, 5, 6]
        assert img.pixels[1, 0] == 4

    def test_equality_and_hash(self):
        a = GrayImage(np.array([[1, 2]]))
        b = GrayImage(np.array([[1, 2]]))
        c = GrayImage(np.array([[1], [2]]))
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert a != "not an image"


class TestReadPgm:
    def test_ascii_example(self):
        img = read_pgm(b"P2\n2 2\n255\n0 128\n255 7\n")
        assert img.pixels.ravel().tolist() == [0, 128, 255, 7]
        assert (img.width, img.height) == (2, 2)

    def test_binary_example(self):
        img = read_pgm(b"P5\n1 1\n255\n\x2a")
        assert img.pixels.ravel().tolist() == [42]

    def test_comments_between_header_tokens(self):
        data = b"P2 # plain\n# a comment line\n2 # width\n2\n255\n0 128 255 7\n"
        assert read_pgm(data).pixels.ravel().tolist() == [0, 128, 255, 7]

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

    def test_every_three_digit_sample_decodes_or_is_out_of_range(self):
        # a hundreds digit that wrapped modulo 256 would let 300 pass as 44
        for v in range(1000):
            data = b"P2\n1 1\n255\n%03d\n" % v
            if v <= 255:
                assert read_pgm(data).pixels.ravel().tolist() == [v]
            else:
                with pytest.raises(PgmFormatError, match=f"sample 0 out of range: {v} > 255$"):
                    read_pgm(data)

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
        assert read_pgm(b"P2\n3 1\n255\n0 1 2").pixels.ravel().tolist() == [0, 1, 2]

    def test_ascii_trailing_comment_is_fine(self):
        assert read_pgm(b"P2\n1 1\n255\n0\n# done\n").pixels.ravel().tolist() == [0]

    def test_binary_raster_bytes_not_parsed_as_comments(self):
        # 0x23 is '#': as a raster byte it is a sample, not a comment
        img = read_pgm(b"P5\n1 1\n255\n\x23")
        assert img.pixels.ravel().tolist() == [0x23]

    def test_binary_raster_is_copied_once(self, rng):
        pixels = rng.integers(0, 256, (1024, 1024), dtype=np.uint8)
        data = write_pgm(GrayImage(pixels), "binary")
        tracemalloc.start()
        try:
            img = read_pgm(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the image's own 1 MiB copy, and no second one
        assert peak < 1.5 * 2**20
        assert not img.pixels.flags.writeable
        assert np.array_equal(img.pixels, pixels)


class TestLongTokens:
    """Numbers that overflow a fixed-width integer or pass the 4300 digits ``int()`` takes."""

    def test_long_zero_padded_sample_decodes(self):
        assert read_pgm(b"P2\n1 1\n255\n" + b"0" * 5000 + b"1").pixels.ravel().tolist() == [1]

    def test_zero_padded_samples_and_maxval_decode(self):
        data = b"P2\n2 1\n" + b"0" * 5000 + b"255\n0000000255 " + b"0" * 5000 + b"\n"
        assert read_pgm(data).pixels.ravel().tolist() == [255, 0]

    def test_long_sample_is_out_of_range(self):
        with pytest.raises(PgmFormatError, match="sample 0 out of range: 1111"):
            read_pgm(b"P2\n1 1\n255\n" + b"1" * 5000)

    @pytest.mark.parametrize("token", [b"65791", b"4294967551", b"18446744073709551871"])
    def test_sample_that_wraps_to_255_is_out_of_range(self, token):
        # 2**16, 2**32 and 2**64, each plus 255: a parse that wraps reads 255
        message = f"sample 0 out of range: {token.decode()} > 255$"
        with pytest.raises(PgmFormatError, match=message):
            read_pgm(b"P2\n1 1\n255\n" + token + b"\n")

    @pytest.mark.parametrize("field,data", [
        ("width", b"P2\n" + b"1" * 5000 + b" 1\n255\n0\n"),
        ("height", b"P5\n1 " + b"9" * 19 + b"\n255\n\x00"),
    ])
    def test_long_dimension_is_a_format_error(self, field, data):
        with pytest.raises(PgmFormatError, match=f"{field} at byte offset .* digits: too large"):
            read_pgm(data)

    def test_zero_padded_dimension_decodes(self):
        assert read_pgm(b"P2\n" + b"0" * 5000 + b"2 1\n255\n3 4").pixels.ravel().tolist() == [3, 4]

    def test_long_maxval_is_unsupported(self):
        with pytest.raises(PgmFormatError, match="unsupported maxval 2555"):
            read_pgm(b"P2\n1 1\n" + b"2" + b"5" * 5000 + b"\n0\n")


# P2 bodies: tokens that are valid, padded, too large or not numbers, the
# six whitespace bytes, comments, and raw text over the same alphabet
P2_PIECES = [
    b"0", b"7", b"25", b"255", b"256", b"007", b"0000000255", b"999", b"1000",
    b"65791", b"4294967551", b"18446744073709551871",
    b" ", b"\t", b"\r", b"\n", b"\x0b", b"\x0c", b"#", b"#c\n", b"#1 2\n", b"a", b"Z",
]
P2_ALPHABET = "0123456789 \t\r\n\x0b\x0c#az"
p2_bodies = st.one_of(
    st.lists(st.sampled_from(P2_PIECES), max_size=40).map(b"".join),
    st.text(P2_ALPHABET, max_size=60).map(str.encode),
    st.lists(st.integers(0, 255), min_size=1, max_size=17).map(
        lambda vs: b"\n".join(str(v).encode() for v in vs)
    ),
)


def decoded(decode, data):
    """Pixels as nested lists, or the PgmFormatError message."""
    try:
        image = decode(data)
    except PgmFormatError as exc:
        return str(exc)
    return image if isinstance(image, list) else image.pixels.tolist()


class TestP2MatchesReference:
    @pytest.mark.parametrize("block", [None, 1, 3])
    @given(
        width=st.integers(1, 4),
        height=st.integers(1, 4),
        gap=st.sampled_from([b"\n", b" ", b"#", b"#x\n", b""]),
        body=p2_bodies,
    )
    def test_same_pixels_or_message(self, block, width, height, gap, body):
        data = b"P2\n%d %d\n255" % (width, height) + gap + body
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(raster, "_P2_BLOCK", block)
            assert decoded(read_pgm, data) == decoded(ref_read_pgm, data)

    def test_blocks_do_not_split_tokens_or_comments(self, rng):
        values = rng.integers(0, 256, 3000)
        text = [b"0" * int(z) + str(v).encode() for v, z in zip(values, rng.integers(0, 3, 3000))]
        seps = [b" ", b"\n", b"\t\t", b" # note 7 x\n", b"#\n"]
        body = b"".join(t + seps[int(k)] for t, k in zip(text, rng.integers(0, 5, 3000)))
        data = b"P2\n60 50\n255\n" + body
        want = decoded(ref_read_pgm, data)
        assert want == values.reshape(50, 60).tolist()
        for block in (1, 4, 7, 1000):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(raster, "_P2_BLOCK", block)
                assert decoded(read_pgm, data) == want


@given(data=st.binary(max_size=80))
def test_arbitrary_bytes_only_raise_format_errors(data):
    for stream in (data, b"P2 2 2 255 " + data, b"P5\n2 2\n255\n" + data):
        try:
            read_pgm(stream)
        except PgmFormatError:
            pass


class TestWritePgm:
    def test_binary_example(self):
        img = GrayImage(np.array([[42]]))
        assert write_pgm(img, "binary") == b"P5\n1 1\n255\n\x2a"

    def test_ascii_example(self):
        img = GrayImage(np.array([[0, 128], [255, 7]]))
        assert write_pgm(img, "ascii") == b"P2\n2 2\n255\n0 128\n255 7\n"

    def test_binary_is_default(self):
        img = GrayImage(np.array([[42]]))
        assert write_pgm(img) == write_pgm(img, "binary")

    def test_rejects_unknown_mode(self):
        img = GrayImage(np.array([[42]]))
        with pytest.raises(ValueError, match="unknown mode"):
            write_pgm(img, "text")

    def test_ascii_bytes_for_every_value(self):
        img = GrayImage(np.arange(256, dtype=np.uint8).reshape(16, 16))
        want = "\n".join(" ".join(str(v) for v in row) for row in img.pixels.tolist())
        assert write_pgm(img, "ascii") == b"P2\n16 16\n255\n" + want.encode() + b"\n"

    @pytest.mark.parametrize("band", [None, 1], ids=["default", "one-row"])
    @given(
        pixels=st.one_of(
            image_arrays,
            hnp.arrays(np.uint8, st.tuples(st.just(1), st.integers(1, 40))),
            hnp.arrays(np.uint8, st.tuples(st.integers(1, 40), st.just(1))),
        )
    )
    def test_ascii_matches_reference(self, band, pixels):
        # a band budget of 1 byte still encodes one whole row per step
        with pytest.MonkeyPatch.context() as mp:
            if band is not None:
                mp.setattr(raster, "_P2_BAND_BYTES", band)
            assert write_pgm(GrayImage(pixels), "ascii") == ref_write_p2(pixels.tolist())

    def test_ascii_bands_meet_at_row_ends(self, rng):
        # 300 rows of 700 pixels are 840 000 bytes of cells: four bands by default
        pixels = rng.integers(0, 256, (300, 700), dtype=np.uint8)
        assert write_pgm(GrayImage(pixels), "ascii") == ref_write_p2(pixels.tolist())

    @given(pixels=image_arrays)
    def test_round_trip_both_modes(self, pixels):
        img = GrayImage(pixels)
        assert read_pgm(write_pgm(img, "binary")) == img
        assert read_pgm(write_pgm(img, "ascii")) == img
