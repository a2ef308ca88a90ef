"""Impulse-noise removal filters.

``apply_filter`` is the one entry point: it runs the kernel that a
:class:`FilterConfig` names.  The four kernels share one noise detector
(a pixel is noisy iff its value is exactly 0 or 255):

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

- a selection network: Batcher's odd-even merge sort on k*k wires, pruned
  to the sorted wires a filter needs, run as uint8 minimum/maximum calls
  over the views.  The median takes 24, 113 and 319 comparators at k = 3,
  5 and 7; min, median and max together take 26, 118 and 327.  ``_select``
  runs it in row bands under one budget of 1 MiB of work arrays (k*k + 2
  arrays of band size), so a select's memory is its outputs plus 1 MiB;
- window sums in uint16, which holds any 7 x 7 sum of bytes or of the
  gated rule's packed counts: k - 1 adds of shifted views per axis, so
  their time grows with k.

Windows stop at 7 x 7 (``_MAX_WINDOW``), the widest at which a network
costs no more than the bitwise rank-select it replaced; at 9 x 9 networks
took 1.2-1.4x its time.  ``smf`` is one median select.  ``mdbutmf`` is a
select of the lower half of the sorted window plus one window sum of a
packed per-pixel count, and ``rmf`` is two window sums.  Both gated
filters finish with whole-image arithmetic in narrow unsigned dtypes and
bitwise blends, with no gather and no masked copy.  Their tracemalloc
peak is about 9 bytes per pixel for ``rmf`` and 8 for ``mdbutmf``
(measured at 1024^2 and 2048^2; at 256^2 ``mdbutmf`` adds the network's
1 MiB).  ``amf`` takes min, median and max from one select over the
whole image for its base window, then gathers each wider window only for
the pixels still undecided, so it pays for a wide window only where a
narrower one could not decide.  It gathers them in chunks of at most
4 MiB of window values, so its memory stays O(H*W) however many pixels
stay undecided.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .raster import GrayImage

__all__ = [
    "FILTER_KINDS",
    "FilterConfig",
    "RestoredImage",
    "apply_filter",
]

FILTER_KINDS = ("smf", "amf", "mdbutmf", "rmf")

# widest window accepted: the widest at which a network costs no more than
# the bitwise rank-select it replaced
_MAX_WINDOW = 7


def _odd_int(name: str, value, least: int, least_name: str) -> int:
    """``value`` as an ``int``, if it is an odd integer (NumPy's too) in [least, _MAX_WINDOW]."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or not least <= number <= _MAX_WINDOW or number % 2 == 0:
        raise ValueError(
            f"{name} must be an odd integer from {least_name} to {_MAX_WINDOW}, got {value!r}"
        )
    return number


@dataclass(frozen=True)
class FilterConfig:
    """Filter identity plus window parameters.

    ``window_size`` is the base (and for non-adaptive kinds, the only)
    window.  ``max_window_size`` bounds adaptive growth and is read by the
    ``amf`` kind alone.  Both are odd, at most 7, and stored as ``int``, so
    a NumPy integer works like a Python one.
    """

    kind: str
    window_size: int = 3
    max_window_size: int = _MAX_WINDOW

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ValueError(
                f"unknown filter kind {self.kind!r}: expected one of {', '.join(FILTER_KINDS)}"
            )
        window = _odd_int("window_size", self.window_size, 3, "3")
        top = _odd_int("max_window_size", self.max_window_size, window, "window_size")
        object.__setattr__(self, "window_size", window)
        object.__setattr__(self, "max_window_size", top)


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


@functools.lru_cache(maxsize=None)
def _network(n: int, wires: tuple[int, ...]):
    """Batcher's odd-even merge sort on ``n`` wires, pruned to ``wires``.

    The sort is built for the next power of two, with the extra wires
    read as +inf: every comparator that touches one of them is a no-op,
    so it is dropped.  Pruning then runs backwards from the requested
    output wires and keeps a comparator only where a later step reads one
    of its two outputs, and then only that side.

    Returns ``(steps, outputs, slots)``.  A step ``(ufunc, a, b, out)``
    writes ``ufunc(slot[a], slot[b])`` into ``slot[out]``; slots ``0..n-1``
    are the inputs, the rest are work arrays, each reused once its value
    is dead.  ``outputs`` names the slot that ends up holding each of
    ``wires``, and ``slots`` is the number of slots.
    """
    size = 1 << (n - 1).bit_length()
    pairs = []
    p = 1
    while p < size:
        k = p
        while k:
            for j in range(k % p, size - k, 2 * k):
                for i in range(j, j + min(k, size - j - k)):
                    if i // (2 * p) == (i + k) // (2 * p) and i + k < n:
                        pairs.append((i, i + k))
            k //= 2
        p *= 2
    need = set(wires)
    kept = []
    for lo, hi in reversed(pairs):
        if lo in need or hi in need:
            kept.append((lo, hi, lo in need, hi in need))
            need.update((lo, hi))
    slot = list(range(n))  # the slot holding each wire's current value
    free: list[int] = []
    slots = n

    def work(*candidates: int) -> int:
        # an owned work array among the candidates, else a dead or new one
        nonlocal slots
        for s in candidates:
            if s >= n:
                return s
        if free:
            return free.pop()
        slots += 1
        return slots - 1

    steps = []
    for lo, hi, want_lo, want_hi in reversed(kept):
        a, b = slot[lo], slot[hi]
        if want_lo and want_hi:
            slot[lo] = work()  # both inputs are read again by the max
            steps.append((np.minimum, a, b, slot[lo]))
            slot[hi] = work(b, a)
            steps.append((np.maximum, a, b, slot[hi]))
        else:
            wire, dead = (lo, hi) if want_lo else (hi, lo)
            slot[wire], slot[dead] = work(a, b), -1
            steps.append((np.minimum if want_lo else np.maximum, a, b, slot[wire]))
        free.extend(s for s in (a, b) if s >= n and s not in slot)
    return tuple(steps), tuple(slot[w] for w in wires), slots


# bytes of work arrays per row band of a select, so that they stay in cache
_BAND_BYTES = 1 << 20


def _select(views: list[np.ndarray], wires, rank=None) -> list[np.ndarray]:
    """Sorted wires ``wires`` of the views, element by element, from a pruned network.

    It runs in bands of whole rows (along the first axis) with at most
    ``_BAND_BYTES`` of work arrays, but at least one row: a band holds
    n + 2 arrays of band size for n views (at most n + 1 work arrays and
    the output).  Without ``rank`` it returns one array per wire.  With
    ``rank`` (an array of the views' shape), the wires must be
    ``0, 1, ...`` and it returns one array whose elements each take wire
    ``rank``.
    """
    n, shape = len(views), views[0].shape
    step = max(1, _BAND_BYTES * shape[0] // ((n + 2) * views[0].size))
    outs = [np.empty(shape, dtype=np.uint8) for _ in (wires if rank is None else wires[:1])]
    steps, outputs, slots = _network(n, tuple(wires))
    band_shape = (min(step, shape[0]),) + shape[1:]
    arrays = slots - n + (rank is not None)  # a pick needs one for its mask
    work = [np.empty(band_shape, dtype=np.uint8) for _ in range(arrays)]
    for first in range(0, shape[0], step):
        band = slice(first, first + step)
        slot = [view[band] for view in views]
        slot += [w[: len(slot[0])] for w in work]
        for ufunc, a, b, out in steps:
            ufunc(slot[a], slot[b], out=slot[out])
        if rank is None:
            for out, s in zip(outs, outputs):
                out[band] = slot[s]
            continue
        # the wires are sorted, so wire rank is the largest of the wires j <= rank
        out, at, mask = outs[0][band], rank[band], slot[-1]
        flag = mask.view(bool)
        out[...] = slot[outputs[0]]
        for j, s in enumerate(outputs[1:], 1):
            np.greater_equal(at, j, out=flag)
            np.negative(mask, out=mask)  # 1 -> 255: all bits set where j <= rank
            np.bitwise_and(slot[s], mask, out=mask)
            np.maximum(out, mask, out=out)
    return outs


def _window_sum(x: np.ndarray, size: int, top: int = 255) -> np.ndarray:
    """Per-pixel sum of each size x size window of an edge-padded array.

    ``top`` is the largest value an element of ``x`` may hold, and the sum
    takes the narrowest unsigned dtype (at least ``x``'s own) that holds
    ``top * size * size``: uint16 for any 7 x 7 window of bytes.  It is
    k - 1 adds of shifted views per axis, rows then columns, in O(H*W)
    memory.
    """
    dtype = np.promote_types(np.min_scalar_type(top * size * size), x.dtype)
    h, w = x.shape[0] - size + 1, x.shape[1] - size + 1
    rows = np.add(x[:h], x[1 : 1 + h], dtype=dtype)
    for i in range(2, size):
        np.add(rows, x[i : i + h], out=rows)
    out = np.add(rows[:, :w], rows[:, 1 : 1 + w])
    for j in range(2, size):
        np.add(out, rows[:, j : j + w], out=out)
    return out


def _smf(image: GrayImage, size: int) -> RestoredImage:
    """Standard median filter: every pixel becomes its window median.

    Filtering is unconditional, which is exactly what makes this baseline
    blur detail and collapse once impulses dominate the window.
    """
    padded = np.pad(image.pixels, size // 2, mode="edge")
    (out,) = _select(_views(padded, size), (size * size // 2,))
    return RestoredImage(GrayImage(out), image.width * image.height)


# bytes of wider windows that amf gathers at once (pixels x size*size)
_AMF_GATHER_BYTES = 4 << 20


def _amf_stage(views: list[np.ndarray]):
    """One window size of ``amf``: the values it gives, where it decided, how many it kept."""
    n = len(views)
    center = views[n // 2]
    zmin, zmed, zmax = _select(views, (0, n // 2, n - 1))
    trusted = (zmin < zmed) & (zmed < zmax)
    keep = trusted & (zmin < center) & (center < zmax)
    return np.where(keep, center, zmed), trusted, int(keep.sum())


def _amf(image: GrayImage, base: int, top: int) -> RestoredImage:
    """Adaptive median filter with a window growing from ``base`` to ``top``.

    Per pixel: with Zmin/Zmed/Zmax over the current window, if
    Zmin < Zmed < Zmax the window is trusted and the pixel is kept when
    Zmin < Zxy < Zmax, else replaced by Zmed.  An untrusted window grows
    by 2 per side up to ``top``; if no size passes, the pixel becomes the
    largest window's median.

    The base window runs over the whole image; each wider window is then
    gathered only for the pixels still undecided, at most
    ``_AMF_GATHER_BYTES`` of window values at a time.
    """
    a = image.pixels
    padded = np.pad(a, top // 2, mode="edge")
    d = (top - base) // 2
    inner = padded[d : padded.shape[0] - d, d : padded.shape[1] - d]
    out, trusted, kept = _amf_stage(_views(inner, base))
    # an undecided pixel (r, c) is kept as r * width + c, which is where the
    # flat padded image holds its widest window's top-left corner
    flat, width = padded.ravel(), padded.shape[1]
    at = np.flatnonzero(~trusted)
    at += at // a.shape[1] * (top - 1)
    for size in range(base + 2, top + 1, 2):
        if at.size == 0:
            break
        d = (top - size) // 2
        offsets = [(d + i) * width + d + j for i in range(size) for j in range(size)]
        step = max(1, _AMF_GATHER_BYTES // (size * size))
        undecided = []
        for first in range(0, at.size, step):
            chunk = at[first : first + step]
            value, trusted, n = _amf_stage([np.take(flat[o:], chunk) for o in offsets])
            np.put(out, chunk - chunk // width * (top - 1), value)
            kept += n
            undecided.append(~trusted)
        at = at[np.concatenate(undecided)]
    return RestoredImage(GrayImage(out), a.size - kept)


def _blend(base: np.ndarray, other: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``other`` where the uint8 ``mask`` is 255 and ``base`` where it is 0, in ``other``.

    Three bitwise passes, with no branch per element: a masked copy of
    half-random masks costs about 20 times as much.
    """
    np.bitwise_xor(other, base, out=other)
    np.bitwise_and(other, mask, out=other)
    return np.bitwise_xor(other, base, out=other)


def _apply_gated(image: GrayImage, size: int, statistic: str) -> RestoredImage:
    """Shared detector-gated kernel: trim impulses, replace noisy pixels only.

    Every step runs over the whole image in narrow unsigned dtypes.  One
    window sum of a packed uint16 code per pixel (1 if kept, 256 if salt, 0
    if pepper) gives each window's kept count in its low byte and its salt
    count in its high byte, since a window holds at most 49 values.  An
    all-impulse window's total is then 255 * salt, so the fallback needs no
    sum of its own.  Means round as ``(total + kept // 2) // kept``, which
    equals round-half-up for any kept >= 1, and the trimmed median is the
    sorted window's wire (kept - 1) // 2 with impulses read as 255.  Bitwise
    blends then put the fallback where nothing was kept and the result at
    noisy pixels.
    """
    a = image.pixels
    r = size // 2
    n = size * size
    padded = np.pad(a, r, mode="edge")
    # 1 where kept: p - 1 in uint8 wraps 0 and 255 to 255 and 254
    is_kept = np.subtract(padded, np.uint8(1))
    is_kept = np.less(is_kept, np.uint8(254), out=is_kept.view(bool)).view(np.uint8)
    code = np.left_shift(padded == np.uint8(255), np.uint16(8), dtype=np.uint16)
    np.add(code, is_kept, out=code)
    impulse = np.subtract(is_kept, np.uint8(1), out=is_kept)  # 255 at an impulse, 0 where kept
    counts = _window_sum(code, size, top=256)
    del code
    kept = counts.astype(np.uint8)  # the low byte
    # an all-impulse window's rounded mean, (255 * salt + n // 2) // n, fits where counts do
    fallback = np.right_shift(counts, np.uint16(8), out=counts)
    np.multiply(fallback, np.uint16(255), out=fallback)
    np.add(fallback, np.uint16(n // 2), out=fallback)
    fallback = np.floor_divide(fallback, np.uint16(n), out=fallback).astype(np.uint8)
    del counts
    if statistic == "mean":
        total = _window_sum(np.bitwise_and(padded, np.invert(impulse)), size)
        np.add(total, np.right_shift(kept, np.uint8(1)), out=total)
        np.floor_divide(total, np.maximum(kept, np.uint8(1)), out=total)
        primary = total.astype(np.uint8)
        del total
    else:
        # impulses read as 255, so they sort after every kept value
        views = _views(np.bitwise_or(padded, impulse), size)
        # where nothing is kept the rank wraps around, but the fallback replaces it
        rank = np.right_shift(np.subtract(kept, np.uint8(1)), np.uint8(1))
        (primary,) = _select(views, range((n - 1) // 2 + 1), rank)
        del views, rank
    empty = np.equal(kept, np.uint8(0)).view(np.uint8)
    primary = _blend(primary, fallback, np.negative(empty, out=empty))
    noisy = impulse[r : r + a.shape[0], r : r + a.shape[1]]
    return RestoredImage(GrayImage(_blend(a, primary, noisy)), int(np.count_nonzero(noisy)))


def apply_filter(image: GrayImage, config: FilterConfig) -> RestoredImage:
    """Apply the filter named by ``config.kind`` with its window sizes.

    - ``smf`` replaces every pixel by its window median, so
      ``replaced_count`` is the pixel count.
    - ``amf`` grows its window from ``window_size`` to ``max_window_size``
      (see :func:`_amf`).
    - ``mdbutmf`` and ``rmf`` pass noise-free pixels through untouched.  A
      noisy pixel becomes the median (``mdbutmf``, lower middle on even
      counts) or the rounded mean (``rmf``) of its window's non-impulse
      values; when the whole window is impulses it becomes the rounded
      mean of all window values.  ``replaced_count`` equals the number of
      0/255 pixels in the input.
    """
    size = config.window_size
    if config.kind == "smf":
        return _smf(image, size)
    if config.kind == "amf":
        return _amf(image, size, config.max_window_size)
    return _apply_gated(image, size, "median" if config.kind == "mdbutmf" else "mean")
