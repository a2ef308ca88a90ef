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

Cost model.  No filter builds a per-pixel window stack.  Every filter
reads its windows from one layout: the image edge-padded and flattened
(``_padded``), where output pixel (y, x) sits at ``p = y * stride + x``
and a k x k window is k*k contiguous slices of it, one per offset of
``_offsets``.  The k - 1 spare columns of each padded row are computed
too and cropped, which costs (k - 1) / W more.  Two reductions over the
slices do all the work:

- a selection network: Batcher's odd-even merge sort on k*k wires, pruned
  to the sorted wires a filter needs, run as uint8 minimum/maximum calls
  over the slices.  The median takes 24, 113 and 319 comparators at
  k = 3, 5 and 7; min, median and max together take 26, 118 and 327.
  ``_select`` runs it in bands of elements under one budget of 1 MiB of
  work arrays (k*k + 2 arrays of band size), so a select's memory is its
  outputs plus 1 MiB;
- window sums in uint16, which holds any 7 x 7 sum of bytes or of the
  gated rule's packed counts: k - 1 adds of slices per axis, rows a
  stride apart and then columns, so their time grows with k.

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
whole image for its base window, keeps the pixels still undecided in one
bool mask, and gathers each wider window only where it is set, in chunks
of one select band: it pays for a wide window only where a narrower one
could not decide, and peaks at 13.2 MiB at 1024^2 even where none does.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .raster import GrayImage, blend

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


def _padded(a: np.ndarray, r: int) -> tuple[np.ndarray, int]:
    """``a`` edge-padded by ``r`` and flattened, with its row stride.

    Output pixel (y, x) lives at ``p = y * stride + x``, and its window
    reads ``flat[p + o]`` for the offsets ``o`` of :func:`_offsets`.  The
    2r spare columns at the end of each output row are computed too and
    cropped; one more edge row below keeps their windows in bounds.
    """
    padded = np.pad(a, ((r, r + 1), (r, r)), mode="edge")
    return padded.ravel(), padded.shape[1]


def _offsets(stride: int, size: int, d: int = 0) -> list[int]:
    """Flat offsets of a size x size window, row-major, from ``d`` rows and columns into the padding."""
    return [(d + i) * stride + d + j for i in range(size) for j in range(size)]


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
    """Sorted wires ``wires`` of the 1-D views, element by element, from a pruned network.

    It runs in bands of elements with at most ``_BAND_BYTES`` of work
    arrays, but at least one element: a band holds n + 2 arrays of band
    size for n views (at most n + 1 work arrays and the output).  Without
    ``rank`` it returns one array per wire.  With ``rank`` (an array of
    the views' size), the wires must be ``0, 1, ...`` and it returns one
    array whose elements each take wire ``rank``.
    """
    n, size = len(views), views[0].size
    step = max(1, _BAND_BYTES // (n + 2))
    outs = [np.empty(size, dtype=np.uint8) for _ in (wires if rank is None else wires[:1])]
    steps, outputs, slots = _network(n, tuple(wires))
    arrays = slots - n + (rank is not None)  # a pick needs one for its mask
    work = [np.empty(min(step, size), dtype=np.uint8) for _ in range(arrays)]
    for first in range(0, size, step):
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


def _window_sum(x: np.ndarray, stride: int, size: int) -> np.ndarray:
    """Per-pixel sum of each size x size window of a ``_padded`` layout of radius size // 2.

    ``x`` holds h + size rows of ``stride`` elements; the sums cover its
    h * stride output positions in uint16, which holds the sum of any
    window of up to 15 x 15 bytes or of the gated rule's packed counts
    (256 * 15 * 15 < 2**16).  It is k - 1 adds of flat slices per axis,
    rows then columns, in O(H*W) memory.
    """
    n = x.size - size * stride
    m = n + size - 1  # the column pass reads size - 1 past the last output
    rows = np.add(x[:m], x[stride : stride + m], dtype=np.uint16)
    for i in range(2, size):
        np.add(rows, x[i * stride : i * stride + m], out=rows)
    out = np.add(rows[:n], rows[1 : 1 + n])
    for j in range(2, size):
        np.add(out, rows[j : j + n], out=out)
    return out


def _smf(image: GrayImage, size: int) -> RestoredImage:
    """Standard median filter: every pixel becomes its window median.

    Filtering is unconditional, which is exactly what makes this baseline
    blur detail and collapse once impulses dominate the window.
    """
    h, w = image.pixels.shape
    flat, stride = _padded(image.pixels, size // 2)
    views = [flat[o : o + h * stride] for o in _offsets(stride, size)]
    (out,) = _select(views, (size * size // 2,))
    return RestoredImage(GrayImage(out.reshape(h, stride)[:, :w]), w * h)


def _amf_stage(views: list[np.ndarray]):
    """One window size of ``amf``: the values it gives, where it decided, and where it kept."""
    n = len(views)
    center = views[n // 2]
    zmin, zmed, zmax = _select(views, (0, n // 2, n - 1))
    trusted = (zmin < zmed) & (zmed < zmax)
    keep = trusted & (zmin < center) & (center < zmax)
    # 255 where zmed replaces the center; blend writes into zmed, never the input's view
    return blend(center, zmed, keep.view(np.uint8) - np.uint8(1)), trusted, keep


def _amf(image: GrayImage, base: int, top: int) -> RestoredImage:
    """Adaptive median filter with a window growing from ``base`` to ``top``.

    Per pixel: with Zmin/Zmed/Zmax over the current window, if
    Zmin < Zmed < Zmax the window is trusted and the pixel is kept when
    Zmin < Zxy < Zmax, else replaced by Zmed.  An untrusted window grows
    by 2 per side up to ``top``; if no size passes, the pixel becomes the
    largest window's median.

    The base window runs over the whole layout, padded for ``top``; each
    wider one gathers only where the undecided mask is set, in chunks of
    one ``_select`` band, and clears the mask where it decides.
    """
    h, w = image.pixels.shape
    flat, stride = _padded(image.pixels, top // 2)
    views = [flat[o : o + h * stride] for o in _offsets(stride, base, (top - base) // 2)]
    out, trusted, keep = _amf_stage(views)
    kept = int(np.count_nonzero(keep.reshape(h, stride)[:, :w]))
    del keep
    undecided = np.logical_not(trusted, out=trusted)
    undecided.reshape(h, stride)[:, w:] = False  # the spare columns are cropped, never grown
    for size in range(base + 2, top + 1, 2):
        offsets = _offsets(stride, size, (top - size) // 2)
        step = max(1, _BAND_BYTES // (size * size + 2))
        at = np.flatnonzero(undecided)
        for first in range(0, at.size, step):
            chunk = at[first : first + step]
            value, trusted, keep = _amf_stage([np.take(flat[o:], chunk) for o in offsets])
            np.put(out, chunk, value)
            np.put(undecided, chunk, ~trusted)
            kept += int(np.count_nonzero(keep))
        at = chunk = None  # free this stage's positions (chunk is a view) before the next's
    return RestoredImage(GrayImage(out.reshape(h, stride)[:, :w]), w * h - kept)


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
    h, w = image.pixels.shape
    r = size // 2
    n = size * size
    flat, stride = _padded(image.pixels, r)
    # 1 where kept: p - 1 in uint8 wraps 0 and 255 to 255 and 254
    is_kept = np.subtract(flat, np.uint8(1))
    is_kept = np.less(is_kept, np.uint8(254), out=is_kept.view(bool)).view(np.uint8)
    code = np.left_shift(flat == np.uint8(255), np.uint16(8), dtype=np.uint16)
    np.add(code, is_kept, out=code)
    impulse = np.subtract(is_kept, np.uint8(1), out=is_kept)  # 255 at an impulse, 0 where kept
    counts = _window_sum(code, stride, size)
    del code
    kept = counts.astype(np.uint8)  # the low byte
    # an all-impulse window's rounded mean, (255 * salt + n // 2) // n, fits where counts do
    fallback = np.right_shift(counts, np.uint16(8), out=counts)
    np.multiply(fallback, np.uint16(255), out=fallback)
    np.add(fallback, np.uint16(n // 2), out=fallback)
    fallback = np.floor_divide(fallback, np.uint16(n), out=fallback).astype(np.uint8)
    del counts
    if statistic == "mean":
        total = _window_sum(np.bitwise_and(flat, np.invert(impulse)), stride, size)
        np.add(total, np.right_shift(kept, np.uint8(1)), out=total)
        np.floor_divide(total, np.maximum(kept, np.uint8(1)), out=total)
        primary = total.astype(np.uint8)
        del total
    else:
        # impulses read as 255, so they sort after every kept value
        trimmed = np.bitwise_or(flat, impulse)
        views = [trimmed[o : o + h * stride] for o in _offsets(stride, size)]
        # where nothing is kept the rank wraps around, but the fallback replaces it
        rank = np.right_shift(np.subtract(kept, np.uint8(1)), np.uint8(1))
        (primary,) = _select(views, range((n - 1) // 2 + 1), rank)
        del trimmed, views, rank
    empty = np.equal(kept, np.uint8(0)).view(np.uint8)
    primary = blend(primary, fallback, np.negative(empty, out=empty))
    center = r * stride + r
    noisy = impulse[center : center + h * stride]
    out = blend(flat[center : center + h * stride], primary, noisy).reshape(h, stride)[:, :w]
    return RestoredImage(GrayImage(out), int(np.count_nonzero(noisy.reshape(h, stride)[:, :w])))


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
