"""
Corrupting an image and measuring the damage
============================================

Inject salt-and-pepper noise into a clean test scene, then quantify the
corruption with MSE, PSNR, and the enhancement factor of a restoration.
"""

# the toolkit ships a deterministic 256x256 test scene: smooth gradients,
# fine stripes, and a few hard-edged shapes, with no pixel at 0 or 255
from saltpepper import synthetic_test_image

clean = synthetic_test_image()
print(f"clean scene: {clean.width}x{clean.height}, "
      f"intensities {clean.pixels.min()}..{clean.pixels.max()}")

# corruption is a pure function of (image, spec): same seed, same output,
# forever -- rerun this script and the numbers below will not move
from saltpepper import NoiseSpec, inject

spec = NoiseSpec(density=0.25, seed=42)
noisy = inject(clean, spec)

corrupted = int((noisy.pixels != clean.pixels).sum())
print(f"density 0.25 corrupted {corrupted} of {clean.width * clean.height} pixels "
      f"({corrupted / clean.width / clean.height:.1%})")

# every corrupted pixel is an impulse: exactly 0 (pepper) or 255 (salt)
import numpy as np

changed = noisy.pixels[noisy.pixels != clean.pixels]
print(f"impulse values seen: {sorted(np.unique(changed).tolist())}")

# compare gives MSE and PSNR of the noisy image against the clean reference
from saltpepper import compare

damage = compare(clean, noisy)
print(f"noisy vs clean: mse={damage.mse:.1f} psnr={damage.psnr_db:.2f} dB")

# restore with the trimmed-mean filter and measure the improvement; given
# the noisy image too, compare adds IEF, the ratio of pre- to
# post-restoration squared error, so bigger is better
from saltpepper import FilterConfig, apply_filter

restored = apply_filter(noisy, FilterConfig(kind="rmf"))
report = compare(clean, restored.image, noisy=noisy)
print(f"restored:       mse={report.mse:.1f} psnr={report.psnr_db:.2f} dB "
      f"ief={report.ief:.1f}")
print(f"the filter replaced {restored.replaced_count} pixels "
      "(exactly the impulse count, clean pixels pass through untouched)")
