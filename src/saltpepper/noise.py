"""Fixed-valued impulse (salt-and-pepper) noise injection.

A corrupted pixel takes exactly the maximum (255, "salt") or minimum
(0, "pepper") intensity.  Injection is a pure function of the image and a
:class:`NoiseSpec`, so corrupted test inputs are reproducible forever.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require_int, require_real
from .raster import BAND, GrayImage, adopt, blend

__all__ = ["NoiseSpec", "inject"]


def require_seed(seed: int) -> int:
    """``seed`` as an ``int``, if it is an integer (NumPy's too) in [0, 2**64)."""
    return require_int("seed", seed, range(2**64), "an unsigned 64-bit integer")


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
            require_real(name, getattr(self, name), 0.0, 1.0, "a real number in [0, 1]")
        require_seed(self.seed)


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

    The two streams are drawn in bands of ``BAND`` pixels: the
    selection draws from ``PCG64(seed)`` and the salt/pepper draws from a
    second ``PCG64(seed)`` advanced by H*W, so every draw is the one the
    two whole arrays would hold.  Both masks are uint8 (0 or 255), and
    three bitwise passes blend the impulses into the pixels, so memory is
    the output image, which the result takes without a copy, plus one band.
    """
    n = image.pixels.size
    select = np.random.Generator(np.random.PCG64(spec.seed))
    flip = np.random.Generator(np.random.PCG64(spec.seed).advance(n))
    pixels = image.pixels.reshape(-1)
    out = np.empty(n, dtype=np.uint8)
    draws = np.empty(min(BAND, n))
    chosen = np.empty(min(BAND, n), dtype=np.uint8)
    for first in range(0, n, BAND):
        band = slice(first, first + BAND)
        impulse = out[band]
        u, mask = draws[: impulse.size], chosen[: impulse.size]
        select.random(out=u)
        np.less(u, spec.density, out=mask.view(bool))
        np.negative(mask, out=mask)  # 1 -> 255
        flip.random(out=u)
        np.less(u, spec.salt_fraction, out=impulse.view(bool))
        np.negative(impulse, out=impulse)  # 255 (salt) or 0 (pepper)
        blend(pixels[band], impulse, mask)
    return adopt(out.reshape(image.pixels.shape))
