"""Host-speed calibration: fixed kernels timed beside every timed op.

On a shared host the speed of one vCPU can change by 2x within a minute,
for minutes at a time, and its thread CPU time changes with it.  No
statistic of a 30 s run of raw op times survives that.  So the harness
times a fixed kernel of the same kind of work just before and just after
each op, on the same CPU, and divides the op time by the mean of the two.
The ratio is the op's cost in kernel runs; the host's speed cancels out.
Multiplied by the kernel's nominal time it reads as seconds again, at
roughly the speed of the host in its fast state.

The kernels are the benchmark's own code and never call saltpepper, so a
change to the program moves the op time and not the kernel time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


@dataclass(frozen=True)
class Kernel:
    name: str
    run: Callable[[], int]
    # about the kernel's time on a 2-vCPU Xeon VM in its fast state; it only
    # sets the scale, so that normalised times read close to raw ones there
    nominal_s: float

    def seconds(self) -> float:
        """Time one run after an untimed one, so the step before it leaves no cold caches."""
        self.run()
        start = time.perf_counter()
        self.run()
        return time.perf_counter() - start


_WHITESPACE = b" \t\n\r"
_SIDE = 96
_TEXT = "\n".join(
    " ".join(str(v) for v in row)
    for row in np.random.default_rng(12345).integers(0, 256, (_SIDE, _SIDE)).tolist()
).encode()


def _token(data: bytes, pos: int) -> tuple[bytes, int]:
    n = len(data)
    while pos < n and data[pos] in _WHITESPACE:
        pos += 1
    start = pos
    while pos < n and data[pos] not in _WHITESPACE:
        pos += 1
    return data[start:pos], pos


def _interp() -> int:
    """A small P2 text decoded byte by byte and encoded again, in plain Python."""
    values = np.empty(_SIDE * _SIDE, dtype=np.uint8)
    pos = 0
    for i in range(values.size):
        token, pos = _token(_TEXT, pos)
        values[i] = int(token)
    rows = values.reshape(_SIDE, _SIDE).tolist()
    return len("\n".join(" ".join(str(v) for v in row) for row in rows))


def _image(size: int) -> np.ndarray:
    return np.random.default_rng(12345).integers(0, 256, (size, size), dtype=np.uint8)


def _windows(image: np.ndarray, size: int) -> np.ndarray:
    h, w = image.shape
    padded = np.pad(image, size // 2, mode="edge")
    return sliding_window_view(padded, (size, size)).reshape(h, w, size * size)


def _stack(size: int) -> Callable[[], int]:
    """3x3 window stacks of a fixed image: a partial sort and an int64 masked sum."""
    image = _image(size)

    def run() -> int:
        win = _windows(image, 3)
        median = np.partition(win, 4, axis=2)[:, :, 4]
        wide = win.astype(np.int64)
        return int(np.where((wide == 0) | (wide == 255), 0, wide).sum()) + int(median.sum())

    return run


def _grow(size: int) -> Callable[[], int]:
    """3x3, 5x5 and 7x7 window stacks of a fixed image: min, max and a partial sort."""
    image = _image(size)

    def run() -> int:
        total = 0
        for window in (3, 5, 7):
            win = _windows(image, window)
            mid = window * window // 2
            low = win.min(axis=2).astype(np.int16)
            high = win.max(axis=2).astype(np.int16)
            median = np.partition(win, mid, axis=2)[:, :, mid].astype(np.int16)
            total += int(np.where((low < median) & (median < high), median, low).sum())
        return total

    return run


INTERP = Kernel("interp", _interp, 0.007)
# the int64 stacks exceed L2, as in the gated filters on denoise-1mp
STACK = Kernel("stack-384", _stack(384), 0.032)
# growing windows on a small image, as amf does, which dominates sweep-256
GROW = Kernel("grow-160", _grow(160), 0.045)
