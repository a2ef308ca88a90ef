"""Density-sweep benchmarking: per-cell metrics, CSV tables, and SVG plots.

A sweep corrupts one source image once per density, runs every configured
filter on that same corrupted image, and records PSNR/MSE/IEF plus the
wall-clock time of the filter call alone.  Metric columns are fully
reproducible from the grid seed; only ``elapsed_ms`` varies run to run.
"""

from __future__ import annotations

import hashlib
import html
import re
import struct
import sys
import time
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, require_int, require_real
from .filters import FilterConfig, apply_filter
from .metrics import INFINITE, format_real, report, squared_error_sum
from .noise import NoiseSpec, inject, require_seed
from .raster import BAND, GrayImage, adopt

__all__ = [
    "CSV_HEADER",
    "BenchRow",
    "BenchGrid",
    "density_subseed",
    "run_grid",
    "to_csv",
    "to_svg",
    "synthetic_test_image",
]

CSV_HEADER = "image,filter,density_pct,psnr_db,mse,ief,elapsed_ms"

# what XML 1.0 refuses, and so an SVG legend: the C0 controls but tab, LF and CR, lone
# surrogates (which UTF-8, and so the CSV, cannot encode either), U+FFFE and U+FFFF
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _is_name(value) -> bool:
    """Whether ``value`` is a str that both the CSV and the SVG can hold."""
    return isinstance(value, str) and _NOT_XML.search(value) is None


def _percents(values, name: str) -> tuple[int, ...]:
    """``values`` as a tuple of ``int``, if they are integer percents (NumPy's too) in [1, 100]."""
    what = "integer percents in [1, 100]"
    if not np.iterable(values):
        raise ValueError(f"{name} must be {what}, got {values!r}")
    return tuple(require_int(name, p, range(1, 101), what) for p in values)


@dataclass(frozen=True)
class BenchRow:
    """One (image, filter, density) cell of a sweep; its metrics may be INFINITE, never NaN.

    Both names hold only characters that XML 1.0 allows, so that the CSV
    and the SVG can hold them.
    """

    image_name: str
    filter: str
    density_pct: int
    psnr_db: float
    mse: float
    ief: float
    elapsed_ms: float

    def __post_init__(self):
        if not (_is_name(self.image_name) and _is_name(self.filter)):
            raise ValueError("names must be str of characters that XML 1.0 allows, "
                             f"got {self.image_name!r} and {self.filter!r}")
        _percents([self.density_pct], "density_pct")
        for name in ("psnr_db", "mse", "ief"):
            value = getattr(self, name)
            require_real(name, value, -sys.float_info.max, INFINITE, "a real number or INFINITE")
        require_real("elapsed_ms", self.elapsed_ms, 0, INFINITE, "a real number >= 0")


def sweep_axes(densities, filters) -> tuple[tuple[int, ...], tuple[FilterConfig, ...]]:
    """``densities`` and ``filters`` as tuples, if they are the axes of a :class:`BenchGrid`.

    Raises ``ValueError`` unless the densities are integer percents in
    [1, 100], strictly increasing, the filters are :class:`FilterConfig`
    objects of distinct kinds, and neither axis is empty.
    """
    densities = _percents(densities, "densities")
    if not densities:
        raise ValueError("densities must be nonempty")
    if any(b <= a for a, b in zip(densities, densities[1:])):
        raise ValueError(f"densities must be strictly increasing, got {list(densities)}")
    configs = tuple(filters) if np.iterable(filters) else None
    if configs == ():
        raise ValueError("filters must be nonempty")
    if configs is None or not all(isinstance(f, FilterConfig) for f in configs):
        raise ValueError(f"filters must be a sequence of FilterConfig objects, got {filters!r}")
    kinds = [f.kind for f in configs]  # a row names its filter by kind alone
    if len(set(kinds)) < len(kinds):
        raise ValueError(f"filters must be of distinct kinds, got {', '.join(kinds)}")
    return densities, configs


@dataclass(frozen=True)
class BenchGrid:
    """A (densities x filters) sweep over one source image.

    Densities are integer percents, strictly increasing, filters are of
    distinct kinds, and ``seed`` is an unsigned 64-bit integer.
    ``image_name`` labels the rows, in characters that XML 1.0 allows; it
    has no effect on the computation.
    """

    source: GrayImage
    densities: tuple[int, ...]
    filters: tuple[FilterConfig, ...]
    seed: int = 0
    image_name: str = "image"

    def __post_init__(self):
        densities, filters = sweep_axes(self.densities, self.filters)
        require_seed(self.seed)
        if not isinstance(self.source, GrayImage):
            raise ValueError(f"source must be a GrayImage, got {self.source!r}")
        if not _is_name(self.image_name):
            raise ValueError("image_name must be a str of characters that XML 1.0 allows, "
                             f"got {self.image_name!r}")
        object.__setattr__(self, "densities", densities)
        object.__setattr__(self, "filters", filters)


def density_subseed(seed: int, density_pct: int) -> int:
    """Stable 64-bit sub-seed for one density of a sweep.

    The blake2b digest of the packed (seed, density) pair, truncated to
    64 bits.  Fixed for the life of the repository so sweep outputs stay
    reproducible across runs and platforms.  Raises ``ValueError`` unless
    ``seed`` is an unsigned and ``density_pct`` a signed 64-bit integer.
    """
    seed = require_seed(seed)
    density_pct = require_int(
        "density_pct", density_pct, range(-(2**63), 2**63), "a 64-bit integer"
    )
    digest = hashlib.blake2b(struct.pack("<Qq", seed, density_pct), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def run_grid(grid: BenchGrid) -> list[BenchRow]:
    """Run the sweep and return rows ordered by (density, filter list order).

    For each density the source is corrupted exactly once, with a seed
    derived from ``(grid.seed, density)``, and every filter consumes that
    same corrupted image.  Metrics compare the restored image against the
    clean source; ``elapsed_ms`` times the filter application only.  Each
    row's metrics are those of ``compare(grid.source, restored, noisy)``;
    the noisy image's squared error is summed once per density.
    """
    rows: list[BenchRow] = []
    pixels = grid.source.width * grid.source.height
    for pct in grid.densities:
        spec = NoiseSpec(density=pct / 100.0, seed=density_subseed(grid.seed, pct))
        noisy = inject(grid.source, spec)
        noise = squared_error_sum(grid.source, noisy)
        for config in grid.filters:
            start = time.perf_counter()
            restored = apply_filter(noisy, config)
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            cell = report(squared_error_sum(grid.source, restored.image), pixels, noise)
            rows.append(
                BenchRow(
                    image_name=grid.image_name,
                    filter=config.kind,
                    density_pct=pct,
                    psnr_db=cell.psnr_db,
                    mse=cell.mse,
                    ief=cell.ief,
                    elapsed_ms=elapsed_ms,
                )
            )
    return rows


def _csv_field(text: str) -> str:
    # RFC 4180: quote a field holding a comma, quote or line break, doubling its quotes
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def to_csv(rows: list[BenchRow]) -> bytes:
    """Render rows as CSV: 4-decimal reals, INFINITE as ``inf``, LF endings.

    An image or filter name holding a comma, double quote or line break
    is quoted as RFC 4180 prescribes; every other field is written bare.
    """
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{_csv_field(r.image_name)},{_csv_field(r.filter)},{r.density_pct},"
            f"{format_real(r.psnr_db)},{format_real(r.mse)},{format_real(r.ief)},"
            f"{format_real(r.elapsed_ms)}"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


_SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_SVG_WIDTH = 640
_SVG_HEIGHT = 440
_MARGIN_LEFT = 62
_MARGIN_RIGHT = 150
_MARGIN_TOP = 28
_MARGIN_BOTTOM = 52


def _line(x1, y1, x2, y2, stroke: str = "black", width: float = 1) -> str:
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
        f'stroke="{stroke}" stroke-width="{width}"/>'
    )


def _text(x, y, size: int, body, attributes: str = "") -> str:
    return f'<text x="{x}" y="{y}" font-size="{size}"{attributes}>{body}</text>'


def to_svg(rows: list[BenchRow]) -> bytes:
    """Plot PSNR (dB) against noise density (%) as one polyline per filter.

    Rows whose PSNR is INFINITE are skipped.  The output is a standalone
    well-formed SVG document with axis lines, a tick label at every
    density, and a legend naming each filter.

    Raises:
        DegenerateInputError: no rows, every row has INFINITE PSNR, or the
            finite PSNRs are too large for a float to scale onto the plot.
    """
    series: dict[str, list[tuple[int, float]]] = {}
    for r in rows:
        if r.psnr_db != float("inf"):
            series.setdefault(r.filter, []).append((r.density_pct, r.psnr_db))
    if not series:
        raise DegenerateInputError("nothing to plot: no rows with finite PSNR values")

    densities = sorted({d for pts in series.values() for d, _ in pts})
    psnrs = [p for pts in series.values() for _, p in pts]
    x_lo, x_hi = min(densities), max(densities)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 1, x_hi + 1
    y_lo = float(np.floor(min(psnrs))) - 1.0
    y_hi = float(np.ceil(max(psnrs))) + 1.0
    # from 2**53 on the 1 dB margins can round away, and near 1e308 the range overflows
    if not 0.0 < y_hi - y_lo < INFINITE:
        raise DegenerateInputError(
            f"cannot scale PSNR values from {min(psnrs)!r} to {max(psnrs)!r} dB onto the plot"
        )

    plot_w = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(d: float) -> float:
        return _MARGIN_LEFT + (d - x_lo) / (x_hi - x_lo) * plot_w

    def sy(p: float) -> float:
        return _MARGIN_TOP + (y_hi - p) / (y_hi - y_lo) * plot_h

    x_axis_y = _MARGIN_TOP + plot_h
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        _line(_MARGIN_LEFT, x_axis_y, _MARGIN_LEFT + plot_w, x_axis_y),
        _line(_MARGIN_LEFT, _MARGIN_TOP, _MARGIN_LEFT, x_axis_y),
    ]
    middle = ' text-anchor="middle"'
    for d in densities:
        x = f"{sx(d):.1f}"
        parts.append(_line(x, x_axis_y, x, x_axis_y + 5))
        parts.append(_text(x, x_axis_y + 18, 11, d, middle))
    for p in np.linspace(y_lo, y_hi, 6):
        y = sy(float(p))
        parts.append(_line(_MARGIN_LEFT - 5, f"{y:.1f}", _MARGIN_LEFT, f"{y:.1f}"))
        parts.append(_text(_MARGIN_LEFT - 8, f"{y + 4:.1f}", 11, f"{p:.1f}", ' text-anchor="end"'))
    mid_x, mid_y = f"{_MARGIN_LEFT + plot_w / 2:.1f}", f"{_MARGIN_TOP + plot_h / 2:.1f}"
    parts.append(_text(mid_x, _SVG_HEIGHT - 14, 12, "noise density (%)", middle))
    parts.append(_text(16, mid_y, 12, "PSNR (dB)", f'{middle} transform="rotate(-90 16 {mid_y})"'))

    legend_x = _MARGIN_LEFT + plot_w + 18
    for i, (name, points) in enumerate(series.items()):
        color = _SERIES_COLORS[i % len(_SERIES_COLORS)]
        points = sorted(points)
        coords = " ".join(f"{sx(d):.1f},{sy(p):.1f}" for d, p in points)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
        for d, p in points:
            parts.append(
                f'<circle cx="{sx(d):.1f}" cy="{sy(p):.1f}" r="2.5" fill="{color}"/>'
            )
        ly = _MARGIN_TOP + 10 + 18 * i
        parts.append(_line(legend_x, ly, legend_x + 22, ly, color, 1.5))
        parts.append(_text(legend_x + 28, ly + 4, 12, html.escape(name, quote=False)))
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def synthetic_test_image(size: int = 256) -> GrayImage:
    """Deterministic grayscale test scene with natural statistics.

    Mixes smooth gradients, fine oriented texture near the resolution
    limit of a 3x3 window, and hard-edged shapes, the ingredients that
    make median/mean restoration err by realistic amounts.  Intensities
    stay strictly inside (0, 255) so none of the scene's own pixels read
    as impulses.  Pure arithmetic, no RNG: the same size always yields
    the bit-identical image.

    The scene is evaluated in bands of about ``BAND`` pixels, whole rows
    each, with ``x`` a row and ``y`` the band's column, so every term of
    one axis runs once per band in 1-D.  Each pixel still gets the same
    float64 operations on the same operands as over whole-image planes,
    so the bytes are those of the whole-image formula.  The peak is the
    uint8 output plus about 2.5 MiB of band planes: 3.5 MiB at 1024^2,
    against 56 MiB for whole-image planes, in about 70 ms against 220
    (a 2-vCPU Xeon VM, one CPU), most of it in four ``np.sin`` a pixel.
    ``size`` stays bounded at 4096, a 16 MiB output: a larger size raises
    ``ValueError`` before anything is allocated.
    """
    n = require_int("size", size, range(1, 4097), "a positive integer at most 4096")
    span = max(n - 1, 1)
    t = np.arange(n, dtype=np.float64) / span
    x = t[None, :]
    step = max(1, BAND // n)
    pixels = np.empty((n, n), dtype=np.uint8)
    for first in range(0, n, step):
        y = t[first : first + step, None]

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

        pixels[first : first + step] = np.clip(np.rint(img), 1, 254)
    return adopt(pixels)
