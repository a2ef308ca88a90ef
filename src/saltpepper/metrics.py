"""Restoration quality measures for (reference, test) image pairs.

MSE accumulates squared differences in exact integer arithmetic and
divides once at the end; PSNR is ``10*log10(255^2 / MSE)`` in decibels.
Both report ``INFINITE`` (IEEE infinity, rendered as ``inf``) for a
perfect match.  IEF is the ratio of pre- to post-restoration total
squared error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, DimensionMismatchError
from .raster import BAND, GrayImage

__all__ = ["INFINITE", "MetricsReport", "compare"]

INFINITE = math.inf

_PEAK_SQUARED = 255 * 255


def format_real(value: float) -> str:
    """A real with 4 decimals, as the CSV and the ``metrics`` line print it.

    ``INFINITE`` renders as ``inf``, the CSV's sentinel.
    """
    return f"{value:.4f}"


@dataclass(frozen=True)
class MetricsReport:
    """MSE and PSNR for one image pair, plus IEF when a noisy image was given."""

    mse: float
    psnr_db: float
    ief: float | None = None


def _require_same_shape(a: GrayImage, b: GrayImage, a_name: str, b_name: str) -> None:
    if (a.width, a.height) != (b.width, b.height):
        raise DimensionMismatchError(
            f"{a_name} is {a.width}x{a.height} but {b_name} is {b.width}x{b.height}"
        )


def squared_error_sum(a: GrayImage, b: GrayImage) -> int:
    """The exact sum of squared pixel differences of two images of one shape."""
    # no pass casts: |x - y| is max - min in uint8, widened once to uint32 and squared
    # there; a band's sum stays exact in uint32 because BAND * 255**2 < 2**32 (see
    # BAND), and the total is a Python int
    x, y = a.pixels.ravel(), b.pixels.ravel()
    step = min(BAND, x.size)
    diff, low = np.empty(step, dtype=np.uint8), np.empty(step, dtype=np.uint8)
    square = np.empty(step, dtype=np.uint32)
    total = 0
    for first in range(0, x.size, step):
        m = min(step, x.size - first)
        xs, ys = x[first : first + m], y[first : first + m]
        d, s = diff[:m], square[:m]
        np.maximum(xs, ys, out=d)
        np.subtract(d, np.minimum(xs, ys, out=low[:m]), out=d)
        np.copyto(s, d)
        np.square(s, out=s)
        total += int(s.sum(dtype=np.uint32))
    return total


def report(sse: int, pixels: int, noise: int | None = None) -> MetricsReport:
    """The report for a test image's squared error ``sse`` over ``pixels`` pixels.

    ``noise`` is the noisy image's squared error, when IEF is wanted; see
    :func:`compare`.
    """
    m = sse / pixels
    e = None
    if noise is not None:
        if noise == 0 and sse == 0:
            raise DegenerateInputError(
                "reference, noisy and restored images are all identical: enhancement is undefined"
            )
        e = INFINITE if sse == 0 else noise / sse
    p = INFINITE if m == 0.0 else 10.0 * math.log10(_PEAK_SQUARED / m)
    return MetricsReport(mse=m, psnr_db=p, ief=e)


def compare(reference: GrayImage, test: GrayImage, noisy: GrayImage | None = None) -> MetricsReport:
    """MSE and PSNR of ``test`` against ``reference``, plus IEF when ``noisy`` is given.

    The squared error of ``test`` is summed once and feeds all three.  IEF
    is INFINITE for a perfect restoration of a genuinely noisy image, and
    exactly 1.0 when the filter changed nothing.

    Raises:
        DegenerateInputError: all three images are identical, so IEF is
            0/0 and undefined.
    """
    _require_same_shape(reference, test, "reference", "test")
    sse = squared_error_sum(reference, test)
    noise = None
    if noisy is not None:
        _require_same_shape(reference, noisy, "reference", "noisy")
        noise = squared_error_sum(reference, noisy)
    return report(sse, reference.width * reference.height, noise)
