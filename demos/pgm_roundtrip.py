"""
PGM files
=========

Write images to disk as PGM (the only on-disk format) and read them back
bit-exactly.
"""

from pathlib import Path

import numpy as np

from saltpepper import GrayImage, read_pgm, write_pgm

# build a tiny image from a row-major (height, width) array
img = GrayImage(np.array([[10, 20, 30], [40, 50, 60], [70, 80, 90]]))
print(f"image: {img!r}, pixels:\n{img.pixels}")

# binary P5 is compact; ASCII P2 is human-readable -- both round-trip
# bit-exactly through read_pgm
out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

binary_path = out_dir / "tiny.pgm"
binary_path.write_bytes(write_pgm(img, "binary"))

ascii_path = out_dir / "tiny_ascii.pgm"
ascii_path.write_bytes(write_pgm(img, "ascii"))
print(f"\nASCII form of {ascii_path.name}:")
print(ascii_path.read_text(), end="")

back = read_pgm(binary_path.read_bytes())
print(f"binary round-trip identical: {back == img}")

# comments are legal in the header; maxval must be exactly 255
commented = b"P2\n# a 1x2 strip\n2 1\n255\n128 7\n"
print(f"parsed commented PGM: {read_pgm(commented).pixels.ravel().tolist()}")

