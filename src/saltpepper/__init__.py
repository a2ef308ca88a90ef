"""Grayscale salt-and-pepper denoising toolkit.

Immutable 8-bit rasters with bit-exact PGM I/O, deterministic impulse
noise injection, four restoration filters (standard median, adaptive
median, trimmed median, trimmed mean), PSNR/MSE/IEF quality metrics, and
a density-sweep benchmark harness with CSV and SVG output.
"""

from .bench import (
    CSV_HEADER,
    BenchGrid,
    BenchRow,
    density_subseed,
    run_grid,
    synthetic_test_image,
    to_csv,
    to_svg,
)
from .errors import DegenerateInputError, DimensionMismatchError, PgmFormatError
from .filters import FILTER_KINDS, FilterConfig, RestoredImage, apply_filter
from .metrics import INFINITE, MetricsReport, compare
from .noise import NoiseSpec, inject
from .raster import MAXVAL, GrayImage, read_pgm, write_pgm

__version__ = "0.1.0"

__all__ = [
    "MAXVAL",
    "GrayImage",
    "read_pgm",
    "write_pgm",
    "NoiseSpec",
    "inject",
    "FILTER_KINDS",
    "FilterConfig",
    "RestoredImage",
    "apply_filter",
    "INFINITE",
    "MetricsReport",
    "compare",
    "CSV_HEADER",
    "BenchRow",
    "BenchGrid",
    "density_subseed",
    "run_grid",
    "to_csv",
    "to_svg",
    "synthetic_test_image",
    "PgmFormatError",
    "DimensionMismatchError",
    "DegenerateInputError",
]
