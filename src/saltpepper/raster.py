"""Grayscale image container and bit-exact PGM (P2/P5) I/O.

Images are 8-bit, row-major, addressed as (row, col) with (0, 0) at the
top-left.  The only on-disk format is PGM with maxval 255: binary "P5" or
plain ASCII "P2".  Comment lines starting with ``#`` are accepted between
header tokens on input and never produced on output.

Whitespace (``\\s`` in ``re`` bytes patterns, and ``bytes.isspace``) is
exactly PGM's six bytes, and a comment runs from ``#`` to the line end;
compiled ``re`` patterns scan megabytes of either in C, in linear time.

P2 sample text is decoded in blocks of about ``BAND`` bytes, each cut at
a separator, with no Python code per token on valid input.  A block of
digits and whitespace is decoded whole in uint8 and uint16 arithmetic:
each byte gets the value of the (at most three) digits that end at it,
and one ``compress`` keeps the bytes that end a token.  Any other block,
a faulty one or one that a long token stretched past twice ``BAND``, is
read token by token, so errors name the same sample and byte offset as
a scan of the whole text.  Memory is the output image plus per-block
temporaries, and one copy of the input, with its comments blanked, when
the sample text holds a ``#``.

P2 text is encoded from a 256 x 4 byte table that holds each value's
digits right-aligned, padded with NUL, and a space in the last column.
Rows are encoded in bands of about ``BAND`` cells (256 KiB): each band's
cells are gathered with ``np.take``, the last cell of each row ends in a
newline, and ``bytes.translate`` deletes the NUL padding.  No Python code
runs per pixel, and memory is the output twice (band pieces, then the
joined bytes) plus one band.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import PgmFormatError

__all__ = ["MAXVAL", "GrayImage", "read_pgm", "write_pgm"]

MAXVAL = 255

# elements per band of every element-wise pass: P2 text bytes per decode block,
# P2 cells per encode band, inject's draws, compare's squared errors and the gated
# filters' float32 means.  compare sums a band's squared errors exactly in uint32,
# which needs BAND * 255**2 < 2**32, so BAND may not grow past 66 051
BAND = 1 << 16

_WHITESPACE = b" \t\r\n\x0b\x0c"

# possessive: a plain repeat keeps one backtracking frame per whitespace run or comment
_HEADER_TOKEN = re.compile(rb"(?:\s+|#[^\n]*\n?)*+([^\s#]*)")
_TOKEN_TAIL = re.compile(rb"\S*")
_COMMENT = re.compile(rb"#[^\n]*")

# a width or height this long (after leading zeros) needs at least 10**18
# samples, more than any file holds
_MAX_DIMENSION_DIGITS = 18

# the P2 cell of every sample value: its digits right-aligned in 3 bytes, padded
# with NUL, which P2 text never holds, and a separator
_P2_CELLS = np.frombuffer(
    "".join(f"{v:\0>3} " for v in range(MAXVAL + 1)).encode("ascii"), dtype=np.uint8
).reshape(MAXVAL + 1, 4)


@dataclass(frozen=True, eq=False)
class GrayImage:
    """An immutable 8-bit grayscale raster.

    Pixels live in a read-only ``(height, width)`` uint8 array.  Integer
    arrays of other widths are accepted and converted after a [0, 255]
    range check; the stored array is always a private copy (or, through
    :func:`adopt`, an array that nothing else writes), so images can be
    shared freely between threads.
    """

    pixels: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.pixels)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-D pixel grid, got a {a.ndim}-D array")
        h, w = a.shape
        if h < 1 or w < 1:
            raise ValueError(f"image dimensions must be positive, got {w}x{h}")
        if a.dtype != np.uint8:
            if not np.issubdtype(a.dtype, np.integer):
                raise ValueError(f"pixel dtype must be integer, got {a.dtype}")
            if int(a.min()) < 0 or int(a.max()) > MAXVAL:
                raise ValueError("pixel values must lie in [0, 255]")
        a = a.astype(np.uint8, order="C")  # a row-major copy, whatever the input's layout
        a.setflags(write=False)
        object.__setattr__(self, "pixels", a)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other: object):
        if not isinstance(other, GrayImage):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )

    def __hash__(self):
        return hash((self.pixels.shape, self.pixels.tobytes()))

    def __repr__(self):
        return f"GrayImage({self.width}x{self.height})"


def adopt(pixels: np.ndarray) -> GrayImage:
    """A :class:`GrayImage` that takes ``pixels`` as its own, without a copy.

    ``pixels`` must be a 2-D row-major uint8 array of positive dimensions
    that nothing writes again: a fresh array the caller drops, or a view of
    immutable ``bytes``.  It is made read-only.
    """
    image = object.__new__(GrayImage)
    pixels.setflags(write=False)
    object.__setattr__(image, "pixels", pixels)
    return image


def blend(base: np.ndarray, other: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``other`` where the uint8 ``mask`` is 255 and ``base`` where it is 0, in ``other``.

    Three bitwise passes, with no branch per element: a masked copy of
    half-random masks costs about 20 times as much.
    """
    np.bitwise_xor(other, base, out=other)
    np.bitwise_and(other, mask, out=other)
    return np.bitwise_xor(other, base, out=other)


def _next_token(data: bytes, pos: int, field: str) -> tuple[bytes, int]:
    """Scan past whitespace and # comments, then read one header token."""
    match = _HEADER_TOKEN.match(data, pos)
    if not match.group(1):
        raise PgmFormatError(f"truncated stream: missing {field} at byte offset {match.end()}")
    return match.group(1), match.end()


def _digits(token: bytes, pos: int, field: str) -> bytes:
    """A header number's or sample's digits without leading zeros (``b""`` for zero)."""
    if not token.isdigit():
        raise PgmFormatError(f"invalid {field} token {token!r} at byte offset {pos}")
    return token.lstrip(b"0")


def _dimension(token: bytes, pos: int, field: str) -> int:
    digits = _digits(token, pos, field)
    if not digits:
        raise PgmFormatError(f"zero {field}: image dimensions must be positive")
    if len(digits) > _MAX_DIMENSION_DIGITS:
        raise PgmFormatError(f"{field} at byte offset {pos} has {len(digits)} digits: too large")
    return int(digits)


def _p2_scan(block: bytes, start: int, index: int, count: int, end: int) -> list[int]:
    """The samples of a block of P2 sample text, read token by token, or its first fault raised.

    The block starts at byte offset ``start``, after samples 0 to
    ``index`` - 1, the last of which ends at ``end``.  A fault is a token
    that is not a number, a value above 255 or a sample past ``count``.
    """
    samples = []
    for index, match in enumerate(re.finditer(rb"\S+", block), index):
        if index == count:
            raise PgmFormatError(f"trailing data after {count} samples at byte offset {end}")
        digits = _digits(match.group(), start + match.start(), "sample")
        # the length first: int() refuses more than 4300 digits
        if len(digits) > 3 or int(digits or b"0") > MAXVAL:
            raise PgmFormatError(f"sample {index} out of range: {digits.decode()} > 255")
        samples.append(int(digits or b"0"))
        end = start + match.end()
    return samples


def _p2_block_samples(block: bytes) -> np.ndarray | None:
    """The uint16 samples of a block of digits and whitespace, or None if one is 1000 or more.

    Each byte gets the value of the (at most three) digits that end at it,
    in whole-block uint8 and uint16 arithmetic, and one ``compress`` keeps
    the bytes that end a token.  A run of 4 or more digits is a sample of
    1000 or more unless all but its last three digits are 0.
    """
    digits = np.frombuffer(block, dtype=np.uint8) - np.uint8(ord("0"))  # whitespace wraps past 9
    isd = digits < 10
    pairs = isd[:-1] & isd[1:]
    runs = pairs[:-2] & pairs[2:]  # the first byte of 4 digits in a row
    if runs.any() and (digits[:-3] * runs).any():
        return None
    del pairs, runs  # two block-sized temporaries, freed before the uint16 arrays
    digits *= isd
    value = digits.astype(np.uint16)
    value[1:] += 10 * digits[:-1]
    # the hundreds digit counts only where the tens byte is a digit of the same token
    digits[:-2] *= isd[1:-1]
    value[2:] += np.multiply(digits[:-2], 100, dtype=np.uint16)
    ends = np.empty_like(isd)
    np.greater(isd[:-1], isd[1:], out=ends[:-1])  # a digit before whitespace
    ends[-1] = isd[-1]
    # compress is nonzero plus take, in C; a boolean index took 3.5 times as long
    return value.compress(ends)


def _read_p2_samples(data: bytes, pos: int, count: int) -> np.ndarray:
    """Decode the ``count`` decimal samples that follow ``pos``, a block at a time.

    Each block is about ``BAND`` bytes, stretched to the next separator so
    that no token is split.  ``_p2_block_samples`` decodes a block of at
    most twice ``BAND`` bytes of digits and whitespace, and ``_p2_scan``
    every other block and every one with a value above 255 or a sample
    past ``count``, so errors are those of a token-by-token scan.
    """
    # blank comments to spaces, in a copy: a comment runs from any "#" (even one
    # inside a token, which it ends) to the line end, and a "#" in it is part of it
    text = data
    if data.find(b"#", pos) >= 0:
        text = bytearray(data)
        blank = np.frombuffer(text, dtype=np.uint8)
        for match in _COMMENT.finditer(data, pos):
            blank[match.start() : match.end()] = ord(" ")
    values = np.empty(count, dtype=np.uint8)
    found = 0  # samples decoded so far
    end = start = pos  # end: byte offset just past the last sample
    while start < len(text):
        stop = _TOKEN_TAIL.match(text, start + BAND).end()
        block = bytes(text[start:stop])  # an error message shows a token as bytes
        if not block.isspace():  # a blank block holds no sample and moves no end
            got = None
            # a long token may stretch a block to megabytes, and the whole-block
            # arithmetic takes 8-10 bytes of temporaries per byte
            if stop - start <= 2 * BAND and not block.translate(None, b"0123456789" + _WHITESPACE):
                got = _p2_block_samples(block)
            if got is None or got.size > count - found or got.max() > MAXVAL:
                got = _p2_scan(block, start, found, count, end)
            values[found : found + len(got)] = got
            found += len(got)
            end = start + len(block.rstrip())
        start = stop
    if found < count:
        raise PgmFormatError(f"truncated stream: missing sample {found} at byte offset {len(text)}")
    return values


def read_pgm(data: bytes) -> GrayImage:
    """Decode a PGM byte stream (magic ``P2`` or ``P5``, maxval exactly 255).

    Raises:
        PgmFormatError: malformed magic, unsupported maxval, zero or
            too large dimension, truncated or trailing pixel data, or an
            out-of-range sample -- each with a message naming the
            offending header field or byte offset.
    """
    magic, pos = _next_token(data, 0, "magic")
    if magic not in (b"P2", b"P5"):
        raise PgmFormatError(f'malformed magic {magic!r}: expected "P2" or "P5"')
    wtok, pos = _next_token(data, pos, "width")
    width = _dimension(wtok, pos - len(wtok), "width")
    htok, pos = _next_token(data, pos, "height")
    height = _dimension(htok, pos - len(htok), "height")
    mtok, pos = _next_token(data, pos, "maxval")
    maxval = _digits(mtok, pos - len(mtok), "maxval") or b"0"
    if maxval != b"255":
        raise PgmFormatError(f"unsupported maxval {maxval.decode()}: only 255 is supported")

    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates the header from the raster
        if not data[pos : pos + 1].isspace():
            raise PgmFormatError(f"missing whitespace after maxval at byte offset {pos}")
        pos += 1
        available = len(data) - pos
        if available < count:
            raise PgmFormatError(
                f"truncated pixel data: expected {count} bytes, got {available}"
            )
        if available > count:
            raise PgmFormatError(
                f"trailing data after pixel bytes at byte offset {pos + count}"
            )
        samples = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos)
        samples = samples.reshape(height, width)
        # a view of immutable bytes is kept; a bytearray can still change, so it is copied
        return adopt(samples) if isinstance(data, bytes) else GrayImage(samples)

    # each sample needs at least one digit and the separator before it, so
    # the bytes left bound the sample count before anything is allocated
    available = len(data) - pos
    if available < 2 * count:
        raise PgmFormatError(
            f"truncated stream: {available} bytes after maxval hold at most "
            f"{available // 2} samples, so sample {available // 2} of {count} is missing"
        )
    return adopt(_read_p2_samples(data, pos, count).reshape(height, width))


def _p2_text(pixels: np.ndarray) -> list[bytes]:
    """The P2 sample text of ``pixels``, as one ``bytes`` per band of rows.

    Each band holds about ``BAND`` cells, but at least one row.
    """
    step = max(1, BAND // pixels.shape[1])
    parts = []
    for first in range(0, pixels.shape[0], step):
        band = pixels[first : first + step]
        cells = np.take(_P2_CELLS, band, axis=0)
        cells[:, -1, 3] = ord("\n")  # the separator column of each row's last sample
        parts.append(cells.tobytes().translate(None, b"\0"))
    return parts


def write_pgm(image: GrayImage, mode: str = "binary") -> bytes:
    """Encode an image as PGM bytes.

    Binary mode emits exactly ``P5\\n<width> <height>\\n255\\n`` followed by
    the raw row-major samples; ASCII mode emits the ``P2`` equivalent with
    samples separated by single spaces and rows by newlines.  Both modes
    round-trip bit-exactly through :func:`read_pgm`.
    """
    if mode == "binary":
        header = f"P5\n{image.width} {image.height}\n{MAXVAL}\n"
        # one copy of the raster, into the joined bytes
        return b"".join([header.encode("ascii"), image.pixels.data])
    if mode == "ascii":
        header = f"P2\n{image.width} {image.height}\n{MAXVAL}\n".encode("ascii")
        return b"".join([header, *_p2_text(image.pixels)])
    raise ValueError(f"unknown mode {mode!r}: expected 'ascii' or 'binary'")
