"""Grayscale image container and bit-exact PGM (P2/P5) I/O.

Images are 8-bit, row-major, addressed as (row, col) with (0, 0) at the
top-left.  The only on-disk format is PGM with maxval 255: binary "P5" or
plain ASCII "P2".  Comment lines starting with ``#`` are accepted between
header tokens on input and never produced on output.

P2 sample text is decoded with NumPy in blocks of about 64 KiB, each
stretched to the next separator so that no token is split: memory stays
at the output image plus a few per-block temporaries, and one copy of
the input when the sample text holds a ``#`` comment, which is blanked
to spaces in that copy before the first block.  Only comments and
tokens longer than three bytes are handled one at a time.  Errors name
the same sample and byte offset as a token-by-token scan.

P2 text is encoded from a 256 x 4 byte table that holds each value's
digits right-aligned and a space in the last column, with a matching
mask of the bytes that are text.  Rows are encoded in bands of about
256 KiB of cells: each band's cells are gathered with ``np.take``, the
last cell of each row ends in a newline, and one ``np.compress`` drops
the padding.  No Python code runs per pixel, and memory is the output
twice (band pieces, then the joined bytes) plus one band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PgmFormatError

__all__ = ["MAXVAL", "GrayImage", "read_pgm", "write_pgm"]

MAXVAL = 255

_WHITESPACE = b" \t\r\n\x0b\x0c"

# byte -> is it whitespace
_SPACE = np.zeros(256, dtype=bool)
_SPACE[list(_WHITESPACE)] = True

# bytes of P2 text decoded per step; bounds the decoder's temporaries
_P2_BLOCK = 1 << 16

# a width or height this long (after leading zeros) needs at least 10**18
# samples, more than any file holds
_MAX_DIMENSION_DIGITS = 18

# bytes of P2 cells encoded per step (4 per sample); bounds the encoder's temporaries
_P2_BAND_BYTES = 1 << 18

# the P2 cell of every sample value: its digits right-aligned in 3 bytes and a
# separator; and which of the 4 bytes are text rather than padding
_P2_CELLS = np.frombuffer(
    "".join(f"{v:>3} " for v in range(MAXVAL + 1)).encode("ascii"), dtype=np.uint8
).reshape(MAXVAL + 1, 4)
_P2_TEXT = _P2_CELLS != ord(" ")
_P2_TEXT[:, 3] = True


@dataclass(frozen=True, eq=False)
class GrayImage:
    """An immutable 8-bit grayscale raster.

    Pixels live in a read-only ``(height, width)`` uint8 array.  Integer
    arrays of other widths are accepted and converted after a [0, 255]
    range check; the stored array is always a private copy, so images can
    be shared freely between threads.
    """

    pixels: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.pixels)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-D pixel grid, got a {a.ndim}-D array")
        h, w = a.shape
        if h < 1 or w < 1:
            raise ValueError(f"image dimensions must be positive, got {w}x{h}")
        if a.dtype == np.uint8:
            a = a.copy()
        else:
            if not np.issubdtype(a.dtype, np.integer):
                raise ValueError(f"pixel dtype must be integer, got {a.dtype}")
            if int(a.min()) < 0 or int(a.max()) > MAXVAL:
                raise ValueError("pixel values must lie in [0, 255]")
            a = a.astype(np.uint8)
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


def _next_token(data: bytes, pos: int, field: str) -> tuple[bytes, int]:
    """Scan past whitespace and # comments, then read one header token."""
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == ord("#"):
            nl = data.find(b"\n", pos)
            pos = n if nl < 0 else nl + 1
        else:
            break
    if pos >= n:
        raise PgmFormatError(f"truncated stream: missing {field} at byte offset {pos}")
    start = pos
    while pos < n and data[pos] not in _WHITESPACE and data[pos] != ord("#"):
        pos += 1
    return data[start:pos], pos


def _digits(token: bytes, pos: int, field: str) -> bytes:
    """A header number's digits without leading zeros (``b""`` for zero)."""
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


def _block_stop(raw: np.ndarray, stop: int) -> int:
    """The first whitespace byte at or after ``stop``, or the end.

    Such a byte is a separator, so no token spans it.
    """
    step = 64
    while stop < raw.size:
        hits = np.flatnonzero(_SPACE[raw[stop : stop + step]])
        if hits.size:
            return stop + int(hits[0])
        stop += step
        step *= 2
    return raw.size


def _sample_error(token: bytes, offset: int, index: int) -> PgmFormatError:
    if not token.isdigit():
        return PgmFormatError(f"invalid sample token {token!r} at byte offset {offset}")
    return PgmFormatError(f"sample {index} out of range: {token.lstrip(b'0').decode()} > 255")


def _read_p2_samples(data: bytes, pos: int, count: int) -> np.ndarray:
    """Decode the ``count`` decimal samples that follow ``pos``, a block at a time.

    Each block is about ``_P2_BLOCK`` bytes, stretched to the next
    separator so that no token is split.  Token edges come from a
    separator mask, and each token's value and validity from its last
    three bytes; only tokens longer than that go through ``int()``.
    Errors name the same sample, offset and value as a token-by-token scan.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    # blank comments to spaces, in a copy: a comment runs from any "#" (even one
    # inside a token, which it ends) to the line end, and a "#" in it is part of it
    if (start := data.find(b"#", pos)) >= 0:
        raw = raw.copy()
        while start >= 0:
            end = data.find(b"\n", start)
            end = raw.size if end < 0 else end
            raw[start:end] = ord(" ")
            start = data.find(b"#", end)
    values = np.empty(count, dtype=np.uint8)
    found = 0  # samples decoded so far
    last_end = pos  # byte offset just past the last sample
    start = pos
    while start < raw.size:
        stop = _block_stop(raw, start + _P2_BLOCK)
        chunk = raw[start:stop]
        # separators, with one more on either side so every token has two edges
        sep = np.empty(chunk.size + 2, dtype=bool)
        sep[0] = sep[-1] = True
        np.take(_SPACE, chunk, out=sep[1:-1])
        edges = np.flatnonzero(sep[1:] != sep[:-1])
        first, last = edges[0::2], edges[1::2]  # token j is chunk[first[j]:last[j]]
        take = min(first.size, count - found)
        if take:
            first, last = first[:take], last[:take]
            length = last - first
            value = np.zeros(take, dtype=np.int16)
            ok = np.ones(take, dtype=bool)
            for place, scale in enumerate((1, 10, 100)):
                digit = chunk[np.maximum(last - 1 - place, first)] - np.uint8(ord("0"))
                ok &= digit <= 9
                digit[length <= place] = 0
                # explicit dtype: a uint8 * scalar product may stay uint8 and wrap
                value += np.multiply(digit, scale, dtype=np.int16)
            ok &= value <= MAXVAL
            for j in np.flatnonzero(length > 3).tolist():
                token = data[start + first[j] : start + last[j]]
                digits = token.lstrip(b"0") or b"0"
                ok[j] = token.isdigit() and len(digits) <= 3 and int(digits) <= MAXVAL
                if ok[j]:
                    value[j] = int(digits)
            bad = np.flatnonzero(~ok)
            if bad.size:
                j = int(bad[0])
                token = data[start + first[j] : start + last[j]]
                raise _sample_error(token, start + int(first[j]), found + j)
            values[found : found + take] = value
            found += take
            last_end = start + int(last[-1])
        if edges.size > 2 * take:
            raise PgmFormatError(
                f"trailing data after {count} samples at byte offset {last_end}"
            )
        start = stop
    if found < count:
        raise PgmFormatError(f"truncated stream: missing sample {found} at byte offset {raw.size}")
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
        if pos >= len(data) or data[pos] not in _WHITESPACE:
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
        return GrayImage(samples.reshape(height, width))

    # each sample needs at least one digit and the separator before it, so
    # the bytes left bound the sample count before anything is allocated
    available = len(data) - pos
    if available < 2 * count:
        raise PgmFormatError(
            f"truncated stream: {available} bytes after maxval hold at most "
            f"{available // 2} samples, so sample {available // 2} of {count} is missing"
        )
    return GrayImage(_read_p2_samples(data, pos, count).reshape(height, width))


def _p2_text(pixels: np.ndarray) -> list[np.ndarray]:
    """The P2 sample text of ``pixels``, as one byte array per band of rows.

    Each band holds about ``_P2_BAND_BYTES`` of cells, but at least one row.
    """
    step = max(1, _P2_BAND_BYTES // (4 * pixels.shape[1]))
    parts = []
    for first in range(0, pixels.shape[0], step):
        band = pixels[first : first + step]
        cells = np.take(_P2_CELLS, band, axis=0)
        cells[:, -1, 3] = ord("\n")  # the separator column of each row's last sample
        parts.append(np.compress(np.take(_P2_TEXT, band, axis=0).ravel(), cells.ravel()))
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
        return header.encode("ascii") + image.pixels.tobytes()
    if mode == "ascii":
        header = f"P2\n{image.width} {image.height}\n{MAXVAL}\n".encode("ascii")
        return b"".join([header, *_p2_text(image.pixels)])
    raise ValueError(f"unknown mode {mode!r}: expected 'ascii' or 'binary'")
