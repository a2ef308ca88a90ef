"""Brute-force reference implementations used only by the tests.

Everything here is written with explicit per-pixel loops, plain Python
lists, and exact Fraction arithmetic.  It deliberately shares no code
with the package under test so the two can disagree: these functions are
the oracle the vectorized kernels are checked against bit-for-bit.

The one exception is ``ref_synthetic_test_image``: the scene is defined by
float64 NumPy ufuncs, so its oracle is the same formula over whole-image
planes, at 56 bytes a pixel, against which the banded scene must match.
"""

import math
from fractions import Fraction

import numpy as np

from saltpepper import PgmFormatError

__all__ = [
    "ref_window",
    "ref_smf",
    "ref_amf",
    "ref_amf_counted",
    "ref_rmf",
    "ref_mdbutmf",
    "ref_mse",
    "ref_psnr",
    "ref_read_pgm",
    "ref_write_p2",
    "ref_synthetic_test_image",
]


def _round_half_up(q: Fraction) -> int:
    return math.floor(q + Fraction(1, 2))


def _clamp(i: int, n: int) -> int:
    if i < 0:
        return 0
    if i >= n:
        return n - 1
    return i


def _is_extreme(v: int) -> bool:
    return v == 0 or v == 255


def ref_window(pixels: list[list[int]], row: int, col: int, size: int) -> list[int]:
    """Row-major size x size neighborhood with clamped (replicate) indexing."""
    h = len(pixels)
    w = len(pixels[0])
    r = size // 2
    vals = []
    for dr in range(-r, r + 1):
        for dc in range(-r, r + 1):
            vals.append(pixels[_clamp(row + dr, h)][_clamp(col + dc, w)])
    return vals


def _mean_replacement(vals: list[int]) -> int:
    return min(_round_half_up(Fraction(sum(vals), len(vals))), 255)


def _median_odd(vals: list[int]) -> int:
    ordered = sorted(vals)
    return ordered[len(ordered) // 2]


def _coords(h: int, w: int, order: str) -> list[tuple[int, int]]:
    coords = [(r, c) for r in range(h) for c in range(w)]
    if order == "reverse":
        coords.reverse()
    elif order != "forward":
        raise ValueError(f"unknown order {order!r}")
    return coords


def ref_smf(pixels: list[list[int]], size: int = 3) -> list[list[int]]:
    """Unconditional median filter: every pixel becomes its window median."""
    h, w = len(pixels), len(pixels[0])
    out = [row[:] for row in pixels]
    for r, c in _coords(h, w, "forward"):
        out[r][c] = _median_odd(ref_window(pixels, r, c, size))
    return out


def ref_amf_counted(
    pixels: list[list[int]], size: int = 3, max_size: int = 7
) -> tuple[list[list[int]], int]:
    """Adaptive median filter, plus how many pixels it replaced.

    A pixel counts as replaced unless a trusted window kept its center.
    """
    h, w = len(pixels), len(pixels[0])
    out = [row[:] for row in pixels]
    replaced = 0
    for r, c in _coords(h, w, "forward"):
        s = size
        while True:
            vals = sorted(ref_window(pixels, r, c, s))
            zmin, zmax = vals[0], vals[-1]
            zmed = vals[len(vals) // 2]
            if zmin < zmed < zmax:
                center = pixels[r][c]
                if not zmin < center < zmax:
                    out[r][c] = zmed
                    replaced += 1
                break
            s += 2
            if s > max_size:
                out[r][c] = zmed
                replaced += 1
                break
    return out, replaced


def ref_amf(pixels: list[list[int]], size: int = 3, max_size: int = 7) -> list[list[int]]:
    """Adaptive median filter with a window growing from size to max_size."""
    return ref_amf_counted(pixels, size, max_size)[0]


def _gated(pixels, order, replacement, size=3):
    h, w = len(pixels), len(pixels[0])
    out = [row[:] for row in pixels]
    for r, c in _coords(h, w, order):
        if not _is_extreme(pixels[r][c]):
            continue
        vals = ref_window(pixels, r, c, size)
        kept = [v for v in vals if not _is_extreme(v)]
        out[r][c] = replacement(kept) if kept else _mean_replacement(vals)
    return out


def ref_rmf(pixels: list[list[int]], order: str = "forward", size: int = 3) -> list[list[int]]:
    """Gated trimmed-mean filter, windows always read from the input."""
    return _gated(pixels, order, _mean_replacement, size)


def ref_mdbutmf(
    pixels: list[list[int]], order: str = "forward", size: int = 3
) -> list[list[int]]:
    """Gated trimmed-median filter (lower middle on even survivor counts)."""

    def lower_median(kept):
        ordered = sorted(kept)
        return ordered[(len(ordered) - 1) // 2]

    return _gated(pixels, order, lower_median, size)


def ref_mse(a: list[list[int]], b: list[list[int]]) -> Fraction:
    """Exact mean squared error as a Fraction."""
    h, w = len(a), len(a[0])
    total = 0
    for r in range(h):
        for c in range(w):
            d = a[r][c] - b[r][c]
            total += d * d
    return Fraction(total, h * w)


def ref_psnr(m: Fraction) -> float:
    """PSNR in dB for a nonzero MSE."""
    return 10.0 * math.log10(255 * 255 / m)


_PGM_SPACE = b" \t\r\n\x0b\x0c"


def _pgm_token(data: bytes, pos: int, field: str) -> tuple[bytes, int]:
    """Skip whitespace and # comments, then read one token, byte by byte."""
    n = len(data)
    while pos < n:
        if data[pos] in _PGM_SPACE:
            pos += 1
        elif data[pos] == ord("#"):
            while pos < n and data[pos] != ord("\n"):
                pos += 1
            pos += 1
        else:
            break
    if pos >= n:
        raise PgmFormatError(f"truncated stream: missing {field} at byte offset {n}")
    start = pos
    while pos < n and data[pos] not in _PGM_SPACE and data[pos] != ord("#"):
        pos += 1
    return data[start:pos], pos


def _pgm_digits(token: bytes, pos: int, field: str) -> bytes:
    if not token.isdigit():
        raise PgmFormatError(f"invalid {field} token {token!r} at byte offset {pos}")
    return token.lstrip(b"0")


def ref_read_pgm(data: bytes) -> list[list[int]]:
    """Decode a P2 stream one token at a time, with the package's error messages."""
    magic, pos = _pgm_token(data, 0, "magic")
    if magic != b"P2":
        raise ValueError(f"the reference decodes P2 only, got {magic!r}")
    dims = []
    for field in ("width", "height"):
        token, pos = _pgm_token(data, pos, field)
        digits = _pgm_digits(token, pos - len(token), field)
        if not digits:
            raise PgmFormatError(f"zero {field}: image dimensions must be positive")
        if len(digits) > 18:
            raise PgmFormatError(
                f"{field} at byte offset {pos - len(token)} has {len(digits)} digits: too large"
            )
        dims.append(int(digits))
    width, height = dims
    token, pos = _pgm_token(data, pos, "maxval")
    maxval = _pgm_digits(token, pos - len(token), "maxval")
    if maxval != b"255":
        raise PgmFormatError(
            f"unsupported maxval {(maxval or b'0').decode()}: only 255 is supported"
        )
    count = width * height
    available = len(data) - pos
    if available < 2 * count:
        raise PgmFormatError(
            f"truncated stream: {available} bytes after maxval hold at most "
            f"{available // 2} samples, so sample {available // 2} of {count} is missing"
        )
    values = []
    for i in range(count):
        token, pos = _pgm_token(data, pos, f"sample {i}")
        if not token.isdigit():
            raise PgmFormatError(
                f"invalid sample token {token!r} at byte offset {pos - len(token)}"
            )
        digits = token.lstrip(b"0")
        if len(digits) > 3 or int(digits or b"0") > 255:
            raise PgmFormatError(f"sample {i} out of range: {digits.decode()} > 255")
        values.append(int(digits or b"0"))
    try:
        _pgm_token(data, pos, "trailing data")
    except PgmFormatError:
        return [values[r * width : (r + 1) * width] for r in range(height)]
    raise PgmFormatError(f"trailing data after {count} samples at byte offset {pos}")


def ref_write_p2(pixels: list[list[int]]) -> bytes:
    """Encode a P2 stream by joining each row's sample texts with spaces."""
    text = [str(v).encode("ascii") for v in range(256)]
    header = f"P2\n{len(pixels[0])} {len(pixels)}\n255\n".encode("ascii")
    rows = [b" ".join([text[v] for v in row]) for row in pixels]
    return header + b"\n".join(rows) + b"\n"


def ref_synthetic_test_image(size: int) -> np.ndarray:
    """The test scene's pixels, evaluated over whole-image float64 planes."""
    n = size
    span = max(n - 1, 1)
    y, x = np.mgrid[0:n, 0:n].astype(np.float64) / span

    img = 127.5 + 16.0 * (x - 0.5) + 9.6 * (y - 0.5)
    img += 12.0 * np.exp(-((x - 0.30) ** 2 + (y - 0.62) ** 2) / 0.045)
    img -= 12.0 * np.exp(-((x - 0.74) ** 2 + (y - 0.22) ** 2) / 0.030)

    # fine stripes, roughly a 3 px period at the default size, with the
    # amplitude traded between two orientations by a slow envelope
    env = 0.6 + 0.4 * np.sin(2.0 * np.pi * (1.3 * x + 0.9 * y))
    img += 16.0 * env * np.sin(2.0 * np.pi * (85.0 * x + 1.0 * y))
    img += 12.8 * (1.2 - env) * np.sin(2.0 * np.pi * (2.0 * x + 85.0 * y))
    img += 5.6 * np.sin(2.0 * np.pi * (60.0 * x - 60.0 * y))

    # hard-edged shapes: a bright square, a dark disk, a thin bar
    img += 20.0 * ((x > 0.10) & (x < 0.28) & (y > 0.60) & (y < 0.82))
    img -= 20.0 * (((x - 0.55) ** 2 + (y - 0.42) ** 2) < 0.012)
    img += 18.0 * ((y > 0.07) & (y < 0.10) & (x > 0.35) & (x < 0.95))

    return np.clip(np.rint(img), 1, 254).astype(np.uint8)
