"""Impulse-noise removal filters.

``apply_filter`` is the one entry point: it runs the kernel that a
:class:`FilterConfig` names.  Only the two gated kernels detect noise
(a pixel is noisy iff its value is exactly 0 or 255):

- ``smf``: standard median filter, replaces every pixel unconditionally.
- ``amf``: adaptive median filter, grows its window until Zmin < Zmed <
  Zmax, then keeps the center Zxy where Zmin < Zxy < Zmax, else takes Zmed.
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
and a k x k window is k contiguous row slices of it (``_rows``), each
read at k shifts.  The k - 1 spare columns of each padded row are
computed too and cropped, which costs (k - 1) / W more.  Two reductions
over the slices do all the work:

- a separable selection network (``_select``).  In each band of
  elements it sorts every column of k once, with one k-wire network over
  the row slices, and then merges the sorted columns in a balanced tree
  over the k shifts (``_plan``): node n holds the sorted values of n
  adjacent columns, merged from nodes n // 2 and n - n // 2 read n // 2
  positions apart, and runs once per band for every window that reads
  it, so at k = 7 one merge of two columns serves shifts 1, 3 and 5
  (A. Adams, "Fast median filters using separable sorting networks",
  ACM TOG 40(4), 2021).  One generator (``_network``) builds the column
  sorts and the merges: Batcher's odd-even merge, cut to the wires a
  filter needs and pruned to those that a node's readers read.  They
  run as uint8 minimum/maximum calls: the median takes 24, 112 and 302
  calls at k = 3, 5 and 7, min, median and max together 32, 128 and
  324, and the lower half 30, 146 and 392, of which ``mdbutmf`` runs
  only the prefix up to each band's largest rank: the select yields that
  sorted prefix, and ``mdbutmf`` picks each pixel's own rank from it in
  four uint8 calls per wire, over a mask one band long.  The generator
  emits values, and ``_plan`` alone puts them in work arrays, across all
  the nodes, running a step in place over a dead input where it can: the
  median holds 9, 25 and 48 arrays at k = 3, 5 and 7, min, median and
  max 10, 26 and 50.  A band holds at most 1.25 MiB of work arrays and
  the caller's per-band arrays, sized by the arrays that its plan holds
  at once (``_band``), so a 7 x 7 median band is 26 749 elements.  The
  select yields each band's wires as views of its work arrays, and every
  filter finishes a band before the next one runs, so a select holds at
  most 1.25 MiB whatever the image;
- window sums (``_window_sum``): k - 1 adds of slices per axis, rows a
  stride apart and then columns, so their time grows with k.  A sum of
  bytes runs in uint16, and a count of 0/1 indicators in uint8, whose
  adds then need no cast (any window up to 15 x 15 counts at most 225).

Windows stop at 7 x 7 (``_MAX_WINDOW``), which keeps every accepted
configuration under the brute-force oracle; the separable networks make
a wider bound affordable, and it stays open.  ``smf`` is one median
select.  ``mdbutmf`` is a select of the lower half of the sorted window
plus two uint8 counts (kept and salt values), and ``rmf`` is the same
two counts plus a uint16 sum of the kept values.  Both gated filters run
in bands of whole rows of at most about ``4 * BAND`` (256 K) elements,
so a 256^2 image is one band, and finish each band in uint8 arithmetic
and bitwise blends, with no gather and no masked copy.  ``rmf``'s
rounded mean divides by a count per pixel in one float32 expression
(``_rounded_mean``), which is exact: with a numerator below 2**16 and a
count of at most 225, ``(2 * total + count) / (2 * count)`` has the
floor of the integer formula and is an integer or at least 1 / 450
below the next one, while the float32 quotient and add round by at most
2**-24 * 256 each.  The all-impulse fallback divides by the one window
size, in uint16 integer arithmetic.  Their tracemalloc peak is about 2
bytes per pixel (the padded input and the output) plus 3 MiB for a band:
4.2-4.8 MiB at 1024^2.

``amf`` keeps the pixels still undecided in one bool mask, at first
every pixel but the spare columns, and runs one stage per window size
from its base.  While more than a quarter of the pixels are undecided
(``_AMF_WHOLE``), a stage is one select of min, median and max over the
whole layout, and applies the rule to each band as the select yields
it, writing only where the mask is set, so no whole-image Zmin, Zmed or
Zmax array exists.  Below that it gathers the window only at the
undecided pixels, so it pays for a wide window only where a narrower
one could not decide.  The undecided set only shrinks,
so every stage after the first gathered one gathers too: ``amf`` takes
the undecided positions once and drops the mask, and each stage reads
the front of that one position array and moves the positions it leaves
undecided to its front, in place.  A gather runs in chunks of one select
band, whose k*k gathered values enter one single-wire select.  A select
of fewer than ``_SORT_PER_ROW`` (26) elements per row, 650 at 5 x 5 and
1 274 at 7 x 7, sorts the stack of its values instead of running the
network: the stable sort, a radix sort for uint8, costs in proportion to
the values, while a network this small costs the calls of its 116
(5 x 5) or 317 (7 x 7) comparators.  Gather, select and decide together,
the two cross near 650 pixels at 5 x 5 and 1 250 at 7 x 7.  At 1024^2,
3 -> 7, ``amf`` peaks at 4.6 MiB at 10, 30 and 90 % noise and on an
image of 0s and 255s: the padded input, the output, the mask and a
select's 1.25 MiB.  At 50 and 70 % it peaks at 6.2-6.4 MiB, where it
gathers a large undecided set and holds its positions as int64.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import require_int
from .raster import BAND, GrayImage, adopt, blend

__all__ = [
    "FILTER_KINDS",
    "FilterConfig",
    "RestoredImage",
    "apply_filter",
]

FILTER_KINDS = ("smf", "amf", "mdbutmf", "rmf")

# widest window accepted, and the default bound of amf's growth
_MAX_WINDOW = 7


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
        window = require_int(
            "window_size", self.window_size, range(3, _MAX_WINDOW + 1, 2),
            f"an odd integer from 3 to {_MAX_WINDOW}",
        )
        top = require_int(
            "max_window_size", self.max_window_size, range(window, _MAX_WINDOW + 1, 2),
            f"an odd integer from window_size to {_MAX_WINDOW}",
        )
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
    reads the rows of :func:`_rows`.  The 2r spare columns at the end of
    each output row are computed too and cropped; one more edge row below
    keeps their windows in bounds.  The buffer is filled here, edges by
    broadcasting: ``np.pad`` took 3-4 times as long at 256^2.
    """
    h, w = a.shape
    padded = np.empty((h + 2 * r + 1, w + 2 * r), dtype=a.dtype)
    body = padded[r : r + h]
    body[:, r : r + w] = a
    body[:, :r] = a[:, :1]
    body[:, r + w :] = a[:, -1:]
    padded[:r] = body[0]
    padded[r + h :] = body[-1]
    return padded.ravel(), padded.shape[1]


def _rows(flat: np.ndarray, stride: int, size: int, count: int, d: int = 0) -> list[np.ndarray]:
    """The rows of the size x size windows of a ``_padded`` layout, ``d`` rows and columns in.

    Row i is a view of ``count + size - 1`` elements, so the window of
    output position p holds ``rows[i][p + j]`` for i, j < size: the form
    :func:`_select` takes with ``width`` size.
    """
    return [flat[(d + i) * stride + d :][: count + size - 1] for i in range(size)]


@functools.lru_cache(maxsize=None)
def _network(runs: tuple[int, ...], wires: tuple[int, ...]):
    """A network that sorts inputs given in sorted runs of lengths ``runs``, pruned to ``wires``.

    The inputs hold the runs one after another, each in ascending order;
    runs of 1 are any inputs.  A balanced tree merges the runs pairwise
    with Batcher's odd-even merge, which merges sorted lists of any two
    lengths, and cuts every merge to its t = max(wires) + 1 smallest
    values, since no wire below t reads past them.  Pruning then runs
    backwards from the requested output wires and keeps a comparator only
    where a later step reads one of its two outputs, and then only that
    side.

    Returns ``(steps, outputs)`` over values: values ``0..n-1`` are the n
    inputs, and step i, ``(ufunc, a, b)``, makes value n + i as
    ``ufunc(value[a], value[b])``.  ``outputs`` names the value on each of
    ``wires``.  Where the values live is left to :func:`_plan`.
    """
    t = max(wires) + 1
    n = sum(runs)
    pairs = []  # comparators (lo, hi): the minimum goes to input lo, the maximum to hi

    def merge(a: list[int], b: list[int]) -> list[int]:
        # a and b list inputs in ascending order of value; so does the result
        if not a or not b:
            return a + b
        if len(a) == len(b) == 1:
            pairs.append((a[0], b[0]))
            return a + b
        even, odd = merge(a[::2], b[::2]), merge(a[1::2], b[1::2])
        out = even[:1]
        for i, lo in enumerate(odd):
            if i + 1 < len(even):
                pairs.append((lo, even[i + 1]))
                out += (lo, even[i + 1])
            else:
                out.append(lo)
        return out + even[len(odd) + 1 :]

    def tree(lists: list[list[int]]) -> list[int]:
        half = len(lists) // 2
        return lists[0] if half == 0 else merge(tree(lists[:half]), tree(lists[half:]))[:t]

    starts = itertools.accumulate(runs, initial=0)
    order = tree([list(range(start, start + run))[:t] for start, run in zip(starts, runs)])
    need = {order[w] for w in wires}
    kept = []
    for lo, hi in reversed(pairs):
        if lo in need or hi in need:
            kept.append((lo, hi, lo in need, hi in need))
            need.update((lo, hi))
    value = list(range(n))  # the value on each input's wire
    steps = []
    for lo, hi, want_lo, want_hi in reversed(kept):
        a, b = value[lo], value[hi]
        for wire, want, ufunc in ((lo, want_lo, np.minimum), (hi, want_hi, np.maximum)):
            if want:
                value[wire] = n + len(steps)
                steps.append((ufunc, a, b))
    return tuple(steps), tuple(value[order[w]] for w in wires)


@functools.lru_cache(maxsize=None)
def _plan(columns: int, width: int, wires: tuple[int, ...]):
    """The merge nodes that a :func:`_select` of ``wires`` runs, with their work arrays.

    Node 1 sorts the ``columns`` rows at each position (with ``width`` 1
    it is the whole select).  Node n > 1 holds the sorted values of the n
    columns from each position on: it merges node n // 2 with node
    n - n // 2 read n // 2 positions further on, which is the balanced
    tree of :func:`_network` over the ``width`` shifts.  A node runs once
    per band, over the hull of the positions that its readers read, and
    is pruned to the union of the wires they read; node ``width`` to
    ``wires``.  Every list is cut to the t = max(wires) + 1 smallest.

    The nodes' steps run end to end over values: the band's rows, then
    one value per step, which later steps read at an offset into the
    array that holds it (node n reads a child at
    ``lo + shift - hull[child][0]``).  This is the one place that puts
    values in arrays.  A value dies at its last read, except the rows and
    the plan's outputs, and each step's value goes to a dead input's
    array read at offset 0, so that the step runs in place, unless the
    other operand reads that array at another offset; else to the array
    freed most recently; else to a new one.

    Returns ``(nodes, views, outputs, peak)``, the nodes in the order
    they run.  A view ``(array, offset, extra)`` is ``m + extra`` elements
    of an array from ``offset`` on, in a band of m.  Views and arrays
    ``0..columns-1`` are the band's rows, and the other arrays are work
    arrays, each ``width - 1`` longer than a band.  A node is ``(n, runs,
    wires, steps)``: the steps ``(ufunc, a, b, out)`` of views run
    ``_network(runs, wires)`` over the hull of its positions.
    ``outputs`` names the view of each of ``wires``, and ``peak`` is the
    number of work arrays: 9, 25 and 48 for the median at k = 3, 5 and 7.
    """
    t = max(wires) + 1
    length = [min(n * columns, t) for n in range(width + 1)]  # node n's sorted values
    need, hull, built = {width: set(wires)}, {width: (0, 0)}, {}
    for n in range(width, 0, -1):  # each node after every node that reads it
        if n not in need:
            continue
        half, node_wires = n // 2, tuple(sorted(need[n]))
        runs = (length[half], length[n - half]) if half else (1,) * columns
        built[n] = runs, node_wires, *_network(runs, node_wires)
        read = {s for step in built[n][2] for s in step[1:3]}
        lo, hi = hull[n]
        for child, shift, first in ((half, 0, 0), (n - half, half, length[half])) if half else ():
            need.setdefault(child, set()).update(
                s - first for s in read if first <= s < first + length[child]
            )
            old = hull.get(child, (lo + shift, hi + shift))
            hull[child] = min(old[0], lo + shift), max(old[1], hi + shift)
    nodes, value, made = [], {}, columns  # value: (node, wire) -> its value; r < columns is row r
    for n, (runs, node_wires, steps, outputs) in reversed(built.items()):  # node 1 first
        lo, hi = hull[n]
        # each of the node's values as (value, offset); None for an input it never reads
        at = [(r, 0) for r in range(columns)] if n == 1 else [
            (value[child, w], lo + shift - hull[child][0]) if w in need[child] else None
            for child, shift in ((n // 2, 0), (n - n // 2, n // 2))
            for w in range(length[child])
        ]
        at += [(made + i, 0) for i in range(len(steps))]
        made += len(steps)
        value.update(((n, w), at[v][0]) for w, v in zip(node_wires, outputs))
        reads = [(ufunc, at[a], at[b]) for ufunc, a, b in steps]
        nodes.append((n, runs, node_wires, reads, hi - lo))
    tops = [value[width, w] for w in wires]
    # last[v] is the value that the last step to read v makes; the rows and outputs never die
    flat = (step for node in nodes for step in node[3])  # every step, in the order they run
    last = {v: i for i, (_, *read) in enumerate(flat, columns) for v, _ in read}
    last.update(dict.fromkeys([*range(columns), *tops]))
    array = list(range(columns))  # the array holding each value: the rows, then work arrays
    free, peak, views = [], 0, {(r, 0, width - 1): r for r in range(columns)}
    for i, (n, runs, node_wires, reads, extra) in enumerate(nodes):
        steps = []
        for ufunc, (v, p), (w, q) in reads:
            x, y, now = array[v], array[w], len(array)
            # in place over a dead input read at offset 0, unless the other operand reads
            # its array too, at another offset: NumPy would copy that operand first
            if x != y and last[v] == now and p == 0:
                out = x
            elif x != y and last[w] == now and q == 0:
                out = y
            elif free:
                out = free.pop()  # the array freed most recently
            else:
                out, peak = columns + peak, peak + 1
            if last[v] == now and x != out:
                free.append(x)
            if last[w] == now and y not in (x, out):
                free.append(y)
            array.append(out)
            keys = (x, p, extra), (y, q, extra), (out, 0, extra)
            steps.append((ufunc, *[views.setdefault(key, len(views)) for key in keys]))
        nodes[i] = (n, runs, node_wires, tuple(steps))
    return tuple(nodes), tuple(views), tuple(views[array[v], 0, 0] for v in tops), peak


# bytes of work arrays and outputs per band of a select, so that they stay in
# the 2 MiB L2 cache (see _band).  At 1 MiB a 256^2 image's 3 x 3 and 5 x 5
# selects keep their one and two bands, but its 7 x 7 ones take four, not three,
# and smf 7 x 7 at 90 % noise took 1.11 times as long (one CPU, the two budgets
# alternating, median of 41)
_BAND_BYTES = 5 << 18


def _band(columns: int, width: int, wires: tuple[int, ...], outputs: int) -> int:
    """Elements in one band of a :func:`_select` of ``wires``, at least 1.

    The band holds the work arrays of the select's :func:`_plan` and
    ``outputs`` more arrays of its length, and they fill ``_BAND_BYTES``.
    The select yields views of its work arrays, so ``outputs`` counts no
    array that it returns: it reserves room for what the caller holds per
    band, one per wire for a blend's temporaries, or 2 with ``rank``, which
    hold the caller's pick mask, one band long; the pick itself runs in
    place in wire 0's work array.  Each work array is allocated
    ``width - 1`` longer than the band, for the column sort.
    """
    return max(1, _BAND_BYTES // (_plan(columns, width, wires)[3] + outputs))


# a select of single-wire runs over fewer elements than this times its rows sorts
# the stack of its rows instead of running a network.  Gather, select and decide
# of an amf chunk (256^2 layout, one CPU, the two paths alternating, median of
# 41, five repetitions) took 0.88-1.06 times the network's time by the sort at
# 600 pixels and 5 x 5 and 1.11-1.36 times at 800; at 7 x 7, 0.86-1.04 times at
# 1 200 and 1.00-1.20 at 1 400.  So they cross near 650 and 1 250 pixels, about
# 26 per row
_SORT_PER_ROW = 26


def _select(rows: list[np.ndarray], width: int, wires: tuple[int, ...], rank=None):
    """Sorted wires ``wires`` of every window of ``width`` adjacent elements of all the rows.

    The window of output element p holds ``row[p + j]`` for every row and
    every j < ``width``, so each row has ``width - 1`` elements more than
    the output.  It runs the nodes of :func:`_plan` in bands of
    :func:`_band` elements: the rows are sorted as columns once, and each
    merge of sorted columns is computed once for every window that reads
    it.  It yields ``(band, values)`` per band, in order: the slice of the
    output that the band covers, and one view of the band's length per
    wire, valid only until the next band runs.  A single-wire select
    without ``rank`` of fewer than ``_SORT_PER_ROW`` elements per row
    instead stacks its rows and sorts the stack's columns, so that wire w
    is row w, and yields one band.  With ``rank`` (an array of the
    output's size), the wires must be ``0, 1, ...`` up to at least the
    largest rank, and each band runs and yields only their prefix up to
    the band's own largest rank, so that its caller picks from it.  The
    plan of all of ``wires`` sizes the bands and the work arrays, which
    are allocated once per call: a lower-half plan's peak never falls as
    its top rank rises, so they hold every band's prefix.
    """
    columns, size = len(rows), rows[0].size - width + 1
    if width == 1 and rank is None and size < _SORT_PER_ROW * columns:
        stack = np.concatenate(rows).reshape(columns, size)  # a third of np.stack's cost
        stack.sort(axis=0, kind="stable")  # NumPy's radix sort for uint8
        yield slice(0, size), [stack[w] for w in wires]
        return
    step = min(_band(columns, width, wires, len(wires) if rank is None else 2), size)
    pool = [np.empty(step + width - 1, np.uint8) for _ in range(_plan(columns, width, wires)[3])]
    built = {}  # (wires, band length) -> the plan's views; the rows' are set per band
    for first in range(0, size, step):
        m = min(step, size - first)
        band = slice(first, first + m)
        cut = wires if rank is None else wires[: int(rank[band].max()) + 1]  # the band's prefix
        nodes, views, outputs, _ = _plan(columns, width, cut)
        slots = built.get((cut, m))
        if slots is None:
            slots = built[cut, m] = [None] * columns + [
                pool[a - columns][o : o + m + extra] for a, o, extra in views[columns:]
            ]
        slots[:columns] = [row[first : first + m + width - 1] for row in rows]
        for *_, steps in nodes:
            for ufunc, a, b, out in steps:
                ufunc(slots[a], slots[b], out=slots[out])
        yield band, [slots[v] for v in outputs]


def _window_sum(x: np.ndarray, stride: int, size: int, dtype) -> np.ndarray:
    """Per-pixel sum of each size x size window of a ``_padded`` layout of radius size // 2.

    ``x`` holds h + size rows of ``stride`` elements; the sums cover its
    h * stride output positions in ``dtype``.  uint16 holds the sum of any
    window of up to 15 x 15 bytes (255 * 15 * 15 < 2**16), and uint8 that
    of 0/1 indicators (15 * 15 < 2**8), whose adds then run on one dtype.
    It is k - 1 adds of flat slices per axis, rows then columns, in O(H*W)
    memory.
    """
    n = x.size - size * stride
    m = n + size - 1  # the column pass reads size - 1 past the last output
    rows = np.add(x[:m], x[stride : stride + m], dtype=dtype)
    for i in range(2, size):
        np.add(rows, x[i * stride : i * stride + m], out=rows)
    out = np.add(rows[:n], rows[1 : 1 + n])
    for j in range(2, size):
        np.add(out, rows[j : j + n], out=out)
    return out


def _rounded_mean(total: np.ndarray, count: np.ndarray) -> np.ndarray:
    """``(total + count // 2) // count`` for each element, as uint8.

    ``count`` is an array like ``total``, from 1 to 225, ``total`` stays
    below 2**16, and the quotients must fit a byte.  It runs in float32 as
    ``trunc(total / count + 1/2)``, which the module docstring shows exact.
    """
    return (np.divide(total, count, dtype=np.float32) + np.float32(0.5)).astype(np.uint8)


def _smf(image: GrayImage, size: int) -> RestoredImage:
    """Standard median filter: every pixel becomes its window median.

    Filtering is unconditional, which is exactly what makes this baseline
    blur detail and collapse once impulses dominate the window.
    """
    h, w = image.pixels.shape
    flat, stride = _padded(image.pixels, size // 2)
    out = np.empty(h * stride, dtype=np.uint8)
    for band, (zmed,) in _select(_rows(flat, stride, size, h * stride), size, (size * size // 2,)):
        out[band] = zmed
    del zmed  # a view of the select's work arrays, freed before the crop copies the output
    return RestoredImage(GrayImage(out.reshape(h, stride)[:, :w]), w * h)


def _amf_rule(center: np.ndarray, zmin: np.ndarray, zmed: np.ndarray, zmax: np.ndarray):
    """``amf``'s rule at pixels with values ``center`` and windows' Zmin, Zmed and Zmax.

    The window is trusted where Zmin < Zmed < Zmax, and a trusted window
    keeps its center where Zmin < Zxy < Zmax; every other pixel takes Zmed.
    Returns the values it gives, where it decided, and where it kept.
    """
    trusted = (zmin < zmed) & (zmed < zmax)
    keep = trusted & (zmin < center) & (center < zmax)
    # 255 where zmed replaces the center; blend writes into zmed, never the input's view
    return blend(center, zmed, keep.view(np.uint8) - np.uint8(1)), trusted, keep


# an amf stage runs over the whole layout while more than 1 / _AMF_WHOLE of
# it is undecided, and gathers below that: one whole-layout stage cost as much as
# gathering 18-28 % of the layout at k = 5 and 7, at 256^2 and 1024^2
_AMF_WHOLE = 4


def _amf(image: GrayImage, base: int, top: int) -> RestoredImage:
    """Adaptive median filter with a window growing from ``base`` to ``top``.

    Per pixel: with Zmin/Zmed/Zmax over the current window, if
    Zmin < Zmed < Zmax the window is trusted and the pixel is kept when
    Zmin < Zxy < Zmax, else replaced by Zmed.  An untrusted window grows
    by 2 per side up to ``top``; if no size passes, the pixel becomes the
    largest window's median.  Every stage, from the base window up,
    applies the rule band by band as its select yields them.
    """
    h, w = image.pixels.shape
    flat, stride = _padded(image.pixels, top // 2)
    out = np.empty(h * stride, dtype=np.uint8)
    undecided = np.tile(np.arange(stride) < w, h)  # the spare columns are cropped, never grown
    kept, at = 0, None  # at, once a stage gathers: the undecided positions, at[:left]
    for size in range(base, top + 1, 2):
        rows = _rows(flat, stride, size, h * stride, (top - size) // 2)
        wires = (0, size * size // 2, size * size - 1)
        if at is None and int(np.count_nonzero(undecided)) * _AMF_WHOLE > undecided.size:
            center = rows[size // 2][size // 2 :]
            for band, z in _select(rows, size, wires):
                value, trusted, keep = _amf_rule(center[band], *z)
                now = undecided[band]
                kept += int(np.count_nonzero(np.logical_and(keep, now, out=keep)))
                # 0 where still undecided, which takes the value; out keeps the rest
                fill = np.subtract(now.view(np.uint8), np.uint8(1), out=keep.view(np.uint8))
                blend(value, out[band], fill)
                np.greater(now, trusted, out=now)
            continue
        if at is None:
            # the undecided set only shrinks, so every later stage gathers too
            at, undecided = np.flatnonzero(undecided), None
            left = at.size
        if not left:
            break
        # the window's values as single-wire rows; the take method skips np.take's
        # Python wrapper, which cost more than the gather itself in small chunks
        shifted = [row[j:] for row in rows for j in range(size)]
        step = _band(size * size, 1, wires, 3)
        write = 0  # each chunk moves its still undecided positions to at[:write]
        for first in range(0, left, step):
            chunk = at[first : min(first + step, left)]
            gathered = [s.take(chunk) for s in shifted]
            ((_, z),) = _select(gathered, 1, wires)  # one band: the chunk is one band long
            value, trusted, keep = _amf_rule(gathered[len(gathered) // 2], *z)
            out.put(chunk, value)
            kept += int(np.count_nonzero(keep))
            still = chunk[np.logical_not(trusted, out=trusted)]
            at[write : write + still.size] = still
            write += still.size
        left = write
    return RestoredImage(GrayImage(out.reshape(h, stride)[:, :w]), w * h - kept)


def _apply_gated(image: GrayImage, size: int, kind: str) -> RestoredImage:
    """The gated filters' whole rule: trim impulses, replace noisy pixels only, in row bands.

    ``kind`` is ``rmf`` or ``mdbutmf``: a noisy pixel takes the rounded
    mean or the lower median of its window's kept values, and the rounded
    mean of the whole window where nothing is kept.  An all-impulse
    window's total is 255 * salt, so the fallback needs no sum of its own.
    Means round as ``(total + count // 2) // count``, which equals
    round-half-up for any count >= 1.  The lower median is wire
    (kept - 1) // 2 of the sorted window with impulses read as 255: each
    row band computes that rank per pixel, asks :func:`_select` for the
    wires up to its largest, and picks each pixel's wire from the sorted
    wires of each select band.
    """
    h, w = image.pixels.shape
    r = size // 2
    n = size * size
    flat, stride = _padded(image.pixels, r)
    # as even as whole rows allow: a short last band would cost mdbutmf a network pass
    bands = -(-h * stride // (4 * BAND))
    step = -(-h // bands)  # rows per band
    center = r * stride + r
    out = np.empty((h, w), dtype=np.uint8)
    replaced = 0
    for y in range(0, h, step):
        b = min(step, h - y)
        m = b * stride
        x = flat[y * stride : (y + b + size) * stride]  # its windows' rows and the spare row
        # 1 where kept: p - 1 in uint8 wraps 0 and 255 to 255 and 254
        is_kept = np.subtract(x, np.uint8(1))
        is_kept = np.less(is_kept, np.uint8(254), out=is_kept.view(bool)).view(np.uint8)
        divisor = _window_sum(is_kept, stride, size, np.uint8)  # the kept count
        impulse = np.subtract(is_kept, np.uint8(1), out=is_kept)  # 255 at an impulse, 0 where kept
        empty = np.equal(divisor, np.uint8(0)).view(np.uint8)  # 1 where nothing is kept
        np.bitwise_or(divisor, empty, out=divisor)  # and 1 there
        fill = np.negative(empty, out=empty)  # 255 there, where the fallback stays
        # the fallback from the salt count, which takes primary's name so that it is freed
        # before the select; the statistic then goes wherever a value is kept.  One
        # divisor, n: uint16 integer division ran 3x as fast as _rounded_mean's float32
        primary = _window_sum(np.equal(x, np.uint8(255)).view(np.uint8), stride, size, np.uint8)
        primary = ((np.multiply(primary, 255, dtype=np.uint16) + n // 2) // n).astype(np.uint8)
        if kind == "rmf":
            kept = np.bitwise_and(x, np.invert(impulse))  # the kept values, 0 at an impulse
            blend(_rounded_mean(_window_sum(kept, stride, size, np.uint16), divisor), primary, fill)
        else:
            # rank 0 where nothing is kept, which the fallback replaces, and at every
            # pixel kept as it is, so that a band's largest rank reads only the windows
            # whose pick it keeps
            rank = np.subtract(divisor, np.uint8(1), out=divisor)
            np.right_shift(rank, np.uint8(1), out=rank)
            np.bitwise_and(rank, impulse[center : center + m], out=rank)
            # impulses read as 255, so they sort after every kept value
            rows = _rows(np.bitwise_or(x, impulse), stride, size, m)
            for band, wires in _select(rows, size, tuple(range(int(rank.max()) + 1)), rank):
                # the wires are sorted, so wire rank is the largest of the wires j <= rank:
                # the pick runs in place in wire 0's view, with a mask one select band long
                value, at, mask = wires[0], rank[band], np.empty_like(wires[0])
                flag = mask.view(bool)
                for j in range(1, len(wires)):
                    np.greater_equal(at, j, out=flag)
                    np.negative(mask, out=mask)  # 1 -> 255: all bits set where j <= rank
                    np.bitwise_and(wires[j], mask, out=mask)
                    np.maximum(value, mask, out=value)
                blend(value, primary[band], fill[band])
            # views of the select's work arrays, and the mask, freed before the next row band
            del wires, value, mask, flag
        noisy = impulse[center : center + m]
        out[y : y + b] = blend(x[center : center + m], primary, noisy).reshape(b, stride)[:, :w]
        replaced += int(np.count_nonzero(noisy.reshape(b, stride)[:, :w]))
    return RestoredImage(adopt(out), replaced)


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
    return _apply_gated(image, size, config.kind)
