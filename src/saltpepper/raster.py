"""Grayscale image container, bit-exact PGM (P2/P5) I/O, and window extraction.

Images are 8-bit, row-major, addressed as (row, col) with (0, 0) at the
top-left.  The only on-disk format is PGM with maxval 255: binary "P5" or
plain ASCII "P2".  Comment lines starting with ``#`` are accepted between
header tokens on input and never produced on output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PgmFormatError

__all__ = ["MAXVAL", "GrayImage", "Window", "read_pgm", "write_pgm", "window_at"]

MAXVAL = 255

_WHITESPACE = b" \t\r\n\x0b\x0c"


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

    @classmethod
    def from_flat(cls, width: int, height: int, values: Sequence[int]) -> "GrayImage":
        """Build an image from a row-major flat sequence of intensities."""
        a = np.asarray(values, dtype=np.int64)
        if a.ndim != 1 or a.size != width * height:
            raise ValueError(
                f"expected {width * height} values for a {width}x{height} image, got {a.size}"
            )
        return cls(a.reshape(height, width))

    def flat(self) -> list[int]:
        """Pixels as a row-major flat list of Python ints."""
        return self.pixels.ravel().tolist()

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


@dataclass(frozen=True)
class Window:
    """A ``size x size`` neighborhood in row-major order.

    ``center_value`` duplicates the middle element of ``values`` for
    convenient access by noise detectors.
    """

    size: int
    values: tuple[int, ...]
    center_value: int

    def __post_init__(self):
        _check_window_size(self.size)
        if len(self.values) != self.size * self.size:
            raise ValueError(
                f"window of size {self.size} needs {self.size * self.size} values, "
                f"got {len(self.values)}"
            )
        mid = (self.size * self.size) // 2
        if self.values[mid] != self.center_value:
            raise ValueError(
                f"center_value {self.center_value} does not match middle element "
                f"{self.values[mid]}"
            )


def _check_window_size(size: int) -> None:
    if size < 3 or size % 2 == 0:
        raise ValueError(f"window size must be an odd integer >= 3, got {size}")


def window_at(image: GrayImage, row: int, col: int, size: int = 3) -> Window:
    """Extract the ``size x size`` neighborhood centered at (row, col).

    Coordinates that fall outside the image are filled by replicate
    padding: each out-of-range row/col index is clamped to the nearest
    valid one, so no value outside the pixel buffer is ever read and no
    new extreme values are invented at the borders.
    """
    _check_window_size(size)
    if not (0 <= row < image.height and 0 <= col < image.width):
        raise ValueError(
            f"center ({row}, {col}) lies outside a {image.width}x{image.height} image"
        )
    r = size // 2
    rows = np.clip(np.arange(row - r, row + r + 1), 0, image.height - 1)
    cols = np.clip(np.arange(col - r, col + r + 1), 0, image.width - 1)
    block = image.pixels[np.ix_(rows, cols)]
    return Window(
        size=size,
        values=tuple(int(v) for v in block.ravel()),
        center_value=int(image.pixels[row, col]),
    )


def _next_token(data: bytes, pos: int, field: str) -> tuple[bytes, int]:
    """Scan past whitespace and # comments, then read one header/sample token."""
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


def _only_padding_left(data: bytes, pos: int) -> bool:
    """True when nothing but whitespace and comments remains."""
    n = len(data)
    while pos < n:
        c = data[pos]
        if c in _WHITESPACE:
            pos += 1
        elif c == ord("#"):
            nl = data.find(b"\n", pos)
            pos = n if nl < 0 else nl + 1
        else:
            return False
    return True


def _dimension(token: bytes, pos: int, field: str) -> int:
    if not token.isdigit():
        raise PgmFormatError(f"invalid {field} token {token!r} at byte offset {pos}")
    value = int(token)
    if value == 0:
        raise PgmFormatError(f"zero {field}: image dimensions must be positive")
    return value


def read_pgm(data: bytes) -> GrayImage:
    """Decode a PGM byte stream (magic ``P2`` or ``P5``, maxval exactly 255).

    Raises:
        PgmFormatError: malformed magic, unsupported maxval, zero
            dimension, truncated or trailing pixel data, or an
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
    if not mtok.isdigit():
        raise PgmFormatError(f"invalid maxval token {mtok!r} at byte offset {pos - len(mtok)}")
    maxval = int(mtok)
    if maxval != MAXVAL:
        raise PgmFormatError(f"unsupported maxval {maxval}: only 255 is supported")

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
        return GrayImage(samples.reshape(height, width).copy())

    # each sample needs at least one digit and the separator before it, so
    # the bytes left bound the sample count before anything is allocated
    available = len(data) - pos
    if available < 2 * count:
        raise PgmFormatError(
            f"truncated stream: {available} bytes after maxval hold at most "
            f"{available // 2} samples, so sample {available // 2} of {count} is missing"
        )
    values = np.empty(count, dtype=np.uint8)
    for i in range(count):
        tok, pos = _next_token(data, pos, f"sample {i}")
        if not tok.isdigit():
            raise PgmFormatError(
                f"invalid sample token {tok!r} at byte offset {pos - len(tok)}"
            )
        v = int(tok)
        if v > MAXVAL:
            raise PgmFormatError(f"sample {i} out of range: {v} > 255")
        values[i] = v
    if not _only_padding_left(data, pos):
        raise PgmFormatError(f"trailing data after {count} samples at byte offset {pos}")
    return GrayImage(values.reshape(height, width))


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
        header = f"P2\n{image.width} {image.height}\n{MAXVAL}\n"
        body = "\n".join(" ".join(str(v) for v in row) for row in image.pixels.tolist())
        return (header + body + "\n").encode("ascii")
    raise ValueError(f"unknown mode {mode!r}: expected 'ascii' or 'binary'")
