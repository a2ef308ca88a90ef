"""Grayscale salt-and-pepper denoising toolkit.

Immutable 8-bit rasters with bit-exact PGM I/O, deterministic impulse
noise injection, four restoration filters (standard median, adaptive
median, trimmed median, trimmed mean), PSNR/MSE/IEF quality metrics, and
a density-sweep benchmark harness with CSV and SVG output.

Each module's ``__all__`` names its public names; the package exports
exactly those.
"""

from . import bench, errors, filters, metrics, noise, raster
from .bench import *  # noqa: F403
from .errors import *  # noqa: F403
from .filters import *  # noqa: F403
from .metrics import *  # noqa: F403
from .noise import *  # noqa: F403
from .raster import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *raster.__all__, *noise.__all__, *filters.__all__,
    *metrics.__all__, *bench.__all__, *errors.__all__,
]
