import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
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
        data = bytearray(write_pgm(GrayImage(pixels), "binary"))
        tracemalloc.start()
        try:
            img = read_pgm(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a bytearray's raster gets the image's own 1 MiB copy, and no second one
        assert peak < 1.5 * 2**20
        assert not img.pixels.flags.writeable
        assert np.array_equal(img.pixels, pixels)

    def test_ascii_raster_is_read_only(self):
        assert not read_pgm(b"P2\n2 1\n255\n7 8\n").pixels.flags.writeable

    def test_binary_raster_of_bytes_is_kept_read_only(self):
        img = read_pgm(b"P5\n2 1\n255\n\x07\x08")
        assert not img.pixels.flags.writeable
        with pytest.raises(ValueError):
            img.pixels.setflags(write=True)

    def test_mutating_a_bytearray_after_reading_leaves_the_image(self):
        data = bytearray(b"P5\n2 1\n255\n\x07\x08")
        img = read_pgm(data)
        data[-2:] = b"\x00\xff"
        assert img.pixels.ravel().tolist() == [7, 8]


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
] + [
    # 3 and 4 digits, where the whole-block decoder's digit places and its run guard meet
    token + bytes([space]) for token in (b"999", b"0255", b"1255") for space in raster._WHITESPACE
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
                mp.setattr(raster, "BAND", block)
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
                mp.setattr(raster, "BAND", block)
                assert decoded(read_pgm, data) == want

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_whole_block_decoder_matches_the_text_parser(self, block, rng):
        # 20 000 samples, some zero-padded; then one short, one over, and one bad sample
        tokens = [b"0", b"7", b"25", b"255", b"007", b"0255", b"0000000031", b"99", b"100"]
        spaces = [bytes([c]) for c in raster._WHITESPACE] + [b" \n", b"\r\n"]
        picks = rng.integers(0, len(tokens), 20000)
        text = [tokens[int(k)] + spaces[int(j)] for k, j in zip(picks, rng.integers(0, 8, 20000))]
        bad = int(rng.integers(0, 20000))
        bodies = [b"".join(text), b"".join(text[:-1]), b"".join(text) + b"1"]
        for token in (b"999", b"1255", b"256", b"2x"):
            bodies.append(b"".join(text[:bad] + [token + b" "] + text[bad + 1 :]))
        datas = [b"P2\n200 100\n255\n" + body for body in bodies]

        decode = raster._p2_block_samples
        fast_blocks = []

        def counted(data):
            got = decode(data)
            fast_blocks.append(got is not None)
            return got

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(raster, "BAND", block)
            mp.setattr(raster, "_p2_block_samples", counted)
            fast = [decoded(read_pgm, data) for data in datas]
            mp.setattr(raster, "_p2_block_samples", lambda data: None)
            assert [decoded(read_pgm, data) for data in datas] == fast
        assert any(fast_blocks)
        assert fast[0] == [[int(tokens[int(k)]) for k in row] for row in picks.reshape(100, 200)]


# header gaps: the six separators, comments with and without their newline,
# bytes that Unicode but not PGM calls whitespace (\x1c, \x85, \xa0), and junk
HEADER_SEPARATORS = [
    b" ", b"\t", b"\r", b"\n", b"\x0b", b"\x0c", b"#", b"#c", b"#c\n", b"# 1 #2\n",
]
header_gaps = st.lists(
    st.sampled_from(HEADER_SEPARATORS + [b"\x1c", b"\x85", b"\xa0", b"x", b"\x00"]), max_size=4
).map(b"".join)
separator_runs = st.lists(st.sampled_from(HEADER_SEPARATORS), min_size=1, max_size=4).map(b"".join)
dimensions = st.sampled_from([b"1", b"2", b"3", b"02", b"0", b"x", b"1x", b"9" * 19, b"1" * 5000])


class TestP2HeaderMatchesReference:
    @settings(max_examples=300)
    @given(
        after_magic=separator_runs,  # the reference refuses any magic but P2
        width=dimensions,
        after_width=header_gaps,
        height=dimensions,
        after_height=header_gaps,
        maxval=st.sampled_from([b"255", b"0255", b"256", b"25", b"2x5"]),
        after_maxval=header_gaps,
        body=p2_bodies,
        kept=st.integers(1, 9),
    )
    def test_same_pixels_or_message(
        self, after_magic, width, after_width, height, after_height, maxval, after_maxval,
        body, kept,
    ):
        parts = [b"P2", after_magic, width, after_width, height, after_height, maxval, after_maxval]
        data = b"".join((parts + [body])[:kept])  # cut after any header token or gap
        assert decoded(read_pgm, data) == decoded(ref_read_pgm, data)


def test_whitespace_is_the_same_six_bytes_everywhere():
    every_byte = [bytes([b]) for b in range(256)]
    pattern = {c for c in every_byte if not raster._TOKEN_TAIL.fullmatch(c)}
    assert pattern == {c for c in every_byte if c.isspace()}
    assert pattern == {bytes([b]) for b in raster._WHITESPACE}
    assert len(pattern) == 6


def traced_read(data):
    """The pixels ``read_pgm`` decodes from ``data``, and its tracemalloc peak."""
    tracemalloc.start()
    try:
        pixels = read_pgm(data).pixels.tolist()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return pixels, peak


class TestHostileInput:
    """Streams far longer than their image decode in bounded memory."""

    @pytest.mark.parametrize(
        "piece,count", [(b"#\n", 2**20), (b" ", 8 << 20)], ids=["comments", "spaces"]
    )
    def test_long_header_gap_needs_no_memory(self, piece, count):
        # a header pattern that backtracks keeps a frame per comment: 285 MiB here
        pixels, peak = traced_read(b"P2" + piece * count + b"1 1 255 7")
        assert pixels == [[7]]
        assert peak < 2**20

    def test_long_body_comment_is_blanked_in_one_copy(self):
        # the copy itself is 8 MiB; blanking through b" " * n temporaries took 24
        pixels, peak = traced_read(b"P2\n1 1\n255\n7\n#" + b"c" * (8 << 20))
        assert pixels == [[7]]
        assert peak < 10 * 2**20

    def test_long_token_is_read_by_the_text_parser(self):
        # the block copy and its translate take 16 MiB; the whole-block arithmetic would take 64
        pixels, peak = traced_read(b"P2 1 1 255 " + b"0" * (8 << 20) + b"7")
        assert pixels == [[7]]
        assert peak < 16.1 * 2**20

    def test_long_out_of_range_token_is_reported_in_bounded_memory(self):
        # the copy, its translate, the token and its digits in the message: 32 MiB
        data = b"P2 1 1 255 " + b"1" * (8 << 20)
        tracemalloc.start()
        try:
            with pytest.raises(PgmFormatError) as info:
                read_pgm(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == "sample 0 out of range: " + "1" * (8 << 20) + " > 255"
        assert peak < 32.1 * 2**20


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

    def test_binary_copies_the_raster_once(self, rng):
        img = GrayImage(rng.integers(0, 256, (1024, 1024), dtype=np.uint8))
        tracemalloc.start()
        try:
            data = write_pgm(img, "binary")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 1 MiB output, and no intermediate copy of the raster
        assert peak < 1.5 * 2**20
        assert data == b"P5\n1024 1024\n255\n" + img.pixels.tobytes()

    def test_binary_raster_is_row_major_whatever_the_array_layout(self):
        img = GrayImage(np.arange(12).reshape(3, 4).T)  # stored column-major
        want = b"P5\n3 4\n255\n" + bytes([0, 4, 8, 1, 5, 9, 2, 6, 10, 3, 7, 11])
        assert write_pgm(img, "binary") == want

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
        # a band of 1 cell still encodes one whole row per step
        with pytest.MonkeyPatch.context() as mp:
            if band is not None:
                mp.setattr(raster, "BAND", band)
            assert write_pgm(GrayImage(pixels), "ascii") == ref_write_p2(pixels.tolist())

    def test_ascii_bands_meet_at_row_ends(self, rng):
        # 300 rows of 700 pixels are 210 000 cells: four bands by default
        pixels = rng.integers(0, 256, (300, 700), dtype=np.uint8)
        assert write_pgm(GrayImage(pixels), "ascii") == ref_write_p2(pixels.tolist())

    @given(pixels=image_arrays)
    def test_round_trip_both_modes(self, pixels):
        img = GrayImage(pixels)
        assert read_pgm(write_pgm(img, "binary")) == img
        assert read_pgm(write_pgm(img, "ascii")) == img
