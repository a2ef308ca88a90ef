"""Impulse-noise removal filters.

Four kernels share one noise detector (a pixel is noisy iff its value is
exactly 0 or 255):

- ``smf``: standard median filter, replaces every pixel unconditionally.
- ``amf``: adaptive median filter, grows its window until the median is
  not an impulse, then decides whether to keep the center pixel.
- ``mdbutmf``: detector-gated trimmed MEDIAN replacement with an
  all-impulse mean fallback.
- ``rmf``: detector-gated trimmed MEAN replacement with the same
  fallback.

Every filter reads its windows from the input image only, so results are
independent of pixel visitation order and rows may be processed in
parallel without changing the output.

Cost model.  No filter builds a per-pixel window stack.  A k x k window is
read through the k*k shifted views of one edge-padded uint8 copy of the
image, and two reductions over those views do all the work:

- a bitwise rank-select: 8 passes of k*k compares, O(H*W) memory;
- separable box sums (running sums): O(H*W) time and memory at any k.

``smf`` is one rank-select, ``mdbutmf`` a rank-select plus two box sums,
``rmf`` three box sums; all three need O(H*W) memory whatever the window.
``amf`` runs its base window over the whole image the same way, then
gathers each wider window only for the pixels still undecided, so it
pays for a wide window only where a narrower one could not decide.  It
gathers them in chunks of at most 4 MiB of window values, so its memory
stays O(H*W) at any maximum window too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import GrayImage

__all__ = [
    "FILTER_KINDS",
    "FilterConfig",
    "RestoredImage",
    "apply_smf",
    "apply_amf",
    "apply_mdbutmf",
    "apply_rmf",
    "apply_filter",
]

FILTER_KINDS = ("smf", "amf", "mdbutmf", "rmf")


@dataclass(frozen=True)
class FilterConfig:
    """Filter identity plus window parameters.

    ``window_size`` is the base (and for non-adaptive kinds, the only)
    window.  ``max_window_size`` bounds adaptive growth and is read by the
    ``amf`` kind alone.
    """

    kind: str
    window_size: int = 3
    max_window_size: int = 7

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ValueError(
                f"unknown filter kind {self.kind!r}: expected one of {', '.join(FILTER_KINDS)}"
            )
        if self.window_size < 3 or self.window_size % 2 == 0:
            raise ValueError(f"window_size must be an odd integer >= 3, got {self.window_size}")
        if self.max_window_size < self.window_size or self.max_window_size % 2 == 0:
            raise ValueError(
                f"max_window_size must be odd and >= window_size, got {self.max_window_size}"
            )


@dataclass(frozen=True)
class RestoredImage:
    """A filter's output image plus the number of pixels it replaced.

    A pixel counts as replaced when the filter wrote a window statistic in
    its place, even if that statistic happens to equal the original value.
    """

    image: GrayImage
    replaced_count: int


def _views(padded: np.ndarray, size: int) -> list[np.ndarray]:
    """The size*size shifted views of an edge-padded array, one per window offset.

    View ``i * size + j`` holds, at every pixel, its neighbour ``i`` rows and
    ``j`` columns from the window's top-left corner, so the views list a
    window in row-major order.  They all share ``padded``'s memory: nothing
    is copied, whatever the window size.
    """
    h = padded.shape[0] - size + 1
    w = padded.shape[1] - size + 1
    return [padded[i : i + h, j : j + w] for i in range(size) for j in range(size)]


# elements per band of a rank-select, so that its work arrays stay in cache
_RANK_BAND = 1 << 18


def _rank(views: list[np.ndarray], rank) -> np.ndarray:
    """Per-element ``rank``-th smallest (0-based) value across the views.

    The order statistic is the largest value with at most ``rank`` values
    below it, so it is built one bit at a time from 128 down to 1: a
    candidate bit stays where at most ``rank`` values lie below the
    candidate.  Eight passes of one compare per view, in bands along the
    first axis, with memory of the size of one view.  ``rank`` is a
    scalar or an array of the views' shape.
    """
    shape = views[0].shape
    count_dtype = np.min_scalar_type(len(views))  # must hold k*k
    rank = np.broadcast_to(np.asarray(rank, dtype=count_dtype), shape)
    out = np.zeros(shape, dtype=np.uint8)
    step = max(1, _RANK_BAND * shape[0] // views[0].size)
    for first in range(0, shape[0], step):
        band = slice(first, first + step)
        value = out[band]
        count = np.empty(value.shape, dtype=count_dtype)
        below = np.empty(value.shape, dtype=bool)
        for bit in (128, 64, 32, 16, 8, 4, 2, 1):
            candidate = value | bit
            count.fill(0)
            for view in views:
                np.less(view[band], candidate, out=below)
                np.add(count, below.view(np.uint8), out=count)
            np.copyto(value, candidate, where=count <= rank[band])
    return out


def _box_sum(padded: np.ndarray, size: int) -> np.ndarray:
    """Per-pixel sum of each size x size window of an edge-padded array.

    Separable running sums (the summed-area table, Crow 1984): O(H*W) time
    and memory at any window size.  The running sums may wrap around in
    int32, but the differences that form a window's sum are exact modulo
    2**32, and int32 is used only while twice that sum plus size*size (the
    rounded means' numerator) fits.
    """
    dtype = np.int32 if size * size * 511 < 2**31 else np.int64
    run = np.zeros((padded.shape[0] + 1, padded.shape[1]), dtype=dtype)
    np.cumsum(padded, axis=0, dtype=dtype, out=run[1:])
    cols = run[size:] - run[:-size]
    run = np.zeros((cols.shape[0], cols.shape[1] + 1), dtype=dtype)
    np.cumsum(cols, axis=1, dtype=dtype, out=run[:, 1:])
    return run[:, size:] - run[:, :-size]


def _expect_kind(config: FilterConfig, kind: str) -> None:
    if config.kind != kind:
        raise ValueError(f"config.kind is {config.kind!r}, expected {kind!r}")


def apply_smf(image: GrayImage, config: FilterConfig) -> RestoredImage:
    """Standard median filter: every pixel becomes its window median.

    Filtering is unconditional, which is exactly what makes this baseline
    blur detail and collapse once impulses dominate the window.
    """
    _expect_kind(config, "smf")
    size = config.window_size
    padded = np.pad(image.pixels, size // 2, mode="edge")
    out = _rank(_views(padded, size), size * size // 2)
    return RestoredImage(GrayImage(out), image.width * image.height)


# bytes of wider windows that amf gathers at once (pixels x size*size)
_AMF_GATHER_BYTES = 4 << 20


def _amf_stage(center: np.ndarray, views: list[np.ndarray]):
    """One window size of ``amf``: the values it gives, where it decided, how many it kept."""
    zmin = views[0].copy()
    zmax = views[0].copy()
    for view in views[1:]:
        np.minimum(zmin, view, out=zmin)
        np.maximum(zmax, view, out=zmax)
    zmed = _rank(views, len(views) // 2)
    trusted = (zmin < zmed) & (zmed < zmax)
    keep = trusted & (zmin < center) & (center < zmax)
    return np.where(keep, center, zmed), trusted, int(keep.sum())


def apply_amf(image: GrayImage, config: FilterConfig) -> RestoredImage:
    """Adaptive median filter with a growing window.

    Per pixel: with Zmin/Zmed/Zmax over the current window, if
    Zmin < Zmed < Zmax the window is trusted and the pixel is kept when
    Zmin < Zxy < Zmax, else replaced by Zmed.  An untrusted window grows
    by 2 per side up to ``max_window_size``; if no size passes, the pixel
    becomes the largest window's median.

    The base window runs over the whole image; each wider window is then
    gathered only for the pixels still undecided, at most
    ``_AMF_GATHER_BYTES`` of window values at a time.
    """
    _expect_kind(config, "amf")
    a = image.pixels
    base, top = config.window_size, config.max_window_size
    padded = np.pad(a, top // 2, mode="edge")

    def views(size: int) -> list[np.ndarray]:
        d = (top - size) // 2
        return _views(padded[d : padded.shape[0] - d, d : padded.shape[1] - d], size)

    out, trusted, kept = _amf_stage(a, views(base))
    rows, cols = np.nonzero(~trusted)
    for size in range(base + 2, top + 1, 2):
        if rows.size == 0:
            break
        window = views(size)
        step = max(1, _AMF_GATHER_BYTES // (size * size))
        undecided = []
        for first in range(0, rows.size, step):
            r, c = rows[first : first + step], cols[first : first + step]
            value, trusted, n = _amf_stage(a[r, c], [view[r, c] for view in window])
            out[r, c] = value
            kept += n
            undecided.append(~trusted)
        undecided = np.concatenate(undecided)
        rows, cols = rows[undecided], cols[undecided]
    return RestoredImage(GrayImage(out), a.size - kept)


def _apply_gated(image: GrayImage, size: int, statistic: str) -> RestoredImage:
    """Shared detector-gated kernel: trim impulses, replace noisy pixels only.

    Per-window counts and totals are box sums, and the trimmed median is a
    rank-select; both are read only at the noisy pixels.
    """
    a = image.pixels
    r = size // 2
    padded = np.pad(a, r, mode="edge")
    impulse = (padded == 0) | (padded == 255)
    noisy = impulse[r : r + a.shape[0], r : r + a.shape[1]]
    kept = _box_sum(~impulse, size)
    kept_at = kept[noisy]
    n = size * size
    fallback = (2 * _box_sum(padded, size)[noisy] + n) // (2 * n)
    if statistic == "mean":
        kept_total = _box_sum(np.where(impulse, 0, padded), size)[noisy]
        primary = (2 * kept_total + kept_at) // np.maximum(2 * kept_at, 1)
    else:
        # impulses read as 255, so they sort after every kept value
        views = _views(np.where(impulse, 255, padded), size)
        primary = _rank(views, (np.maximum(kept, 1) - 1) // 2)[noisy]
    out = a.copy()
    out[noisy] = np.where(kept_at > 0, primary, fallback)
    return RestoredImage(GrayImage(out), int(noisy.sum()))


def apply_mdbutmf(image: GrayImage, config: FilterConfig) -> RestoredImage:
    """Decision-based unsymmetric trimmed MEDIAN filter.

    Noise-free pixels pass through untouched.  A noisy pixel becomes the
    median of its window's non-impulse values (lower middle on even
    counts); when the whole window is impulses it becomes the rounded
    mean of all window values.
    """
    _expect_kind(config, "mdbutmf")
    return _apply_gated(image, config.window_size, "median")


def apply_rmf(image: GrayImage, config: FilterConfig) -> RestoredImage:
    """Detector-gated trimmed MEAN filter, this package's namesake kernel.

    Identical gating and trimming to :func:`apply_mdbutmf`, but a noisy
    pixel is replaced by the rounded mean of the surviving values; the
    all-impulse fallback is the same rounded mean of the full window.
    ``replaced_count`` equals the number of 0/255 pixels in the input.
    """
    _expect_kind(config, "rmf")
    return _apply_gated(image, config.window_size, "mean")


_APPLIERS = {
    "smf": apply_smf,
    "amf": apply_amf,
    "mdbutmf": apply_mdbutmf,
    "rmf": apply_rmf,
}


def apply_filter(image: GrayImage, config: FilterConfig) -> RestoredImage:
    """Apply the filter named by ``config.kind``."""
    return _APPLIERS[config.kind](image, config)
