"""Fixed-valued impulse (salt-and-pepper) noise injection.

A corrupted pixel takes exactly the maximum (255, "salt") or minimum
(0, "pepper") intensity.  Injection is a pure function of the image and a
:class:`NoiseSpec`, so corrupted test inputs are reproducible forever.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .raster import GrayImage, _blend

__all__ = ["NoiseSpec", "inject"]

# pixels drawn per step; bounds inject's temporaries
_BAND_PIXELS = 1 << 16


def _require_seed(seed: int) -> None:
    """Raise ``ValueError`` unless ``seed`` is an integer (NumPy's too) in [0, 2**64)."""
    try:
        ok = 0 <= operator.index(seed) < 2**64
    except TypeError:
        ok = False
    if not ok:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")


@dataclass(frozen=True)
class NoiseSpec:
    """Parameters that fully determine one corruption pass.

    density: fraction of pixels corrupted, in [0, 1].
    salt_fraction: fraction of corrupted pixels set to 255, the rest
        become 0.  Defaults to the conventional even split.
    seed: unsigned 64-bit RNG seed.
    """

    density: float
    salt_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("density", "salt_fraction"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a real number in [0, 1], got {value!r}")
        _require_seed(self.seed)


def inject(image: GrayImage, spec: NoiseSpec) -> GrayImage:
    """Corrupt an image with salt-and-pepper noise.

    Each pixel is independently selected with probability ``spec.density``;
    a selected pixel becomes 255 with probability ``spec.salt_fraction``
    and 0 otherwise.  Unselected pixels are copied bit-exactly.  A pixel
    that is already 0 or 255 may be "corrupted" to the same value; the
    Bernoulli model is applied uniformly.

    RNG discipline, fixed for the life of the repository: a NumPy PCG64
    generator (``np.random.default_rng``) is seeded with ``spec.seed`` and
    asked for two row-major float64 arrays of the image's shape -- the
    first drives per-pixel selection, the second the salt/pepper choice.
    Each pixel's draws are tied to its position, never to evaluation
    order, so the output depends only on ``(image, spec)``.

    The two streams are drawn in bands of ``_BAND_PIXELS`` pixels: the
    selection draws from ``PCG64(seed)`` and the salt/pepper draws from a
    second ``PCG64(seed)`` advanced by H*W, so every draw is the one the
    two whole arrays would hold.  Both masks are uint8 (0 or 255), and
    three bitwise passes blend the impulses into the pixels, so memory is
    the output image plus one band.
    """
    n = image.pixels.size
    select = np.random.Generator(np.random.PCG64(spec.seed))
    flip = np.random.Generator(np.random.PCG64(spec.seed).advance(n))
    pixels = image.pixels.reshape(-1)
    out = np.empty(n, dtype=np.uint8)
    draws = np.empty(min(_BAND_PIXELS, n))
    chosen = np.empty(min(_BAND_PIXELS, n), dtype=np.uint8)
    for first in range(0, n, _BAND_PIXELS):
        band = slice(first, first + _BAND_PIXELS)
        impulse = out[band]
        u, mask = draws[: impulse.size], chosen[: impulse.size]
        select.random(out=u)
        np.less(u, spec.density, out=mask.view(bool))
        np.negative(mask, out=mask)  # 1 -> 255
        flip.random(out=u)
        np.less(u, spec.salt_fraction, out=impulse.view(bool))
        np.negative(impulse, out=impulse)  # 255 (salt) or 0 (pepper)
        _blend(pixels[band], impulse, mask)
    return GrayImage(out.reshape(image.pixels.shape))
