"""Acceptance suite: the eight release criteria for this toolkit.

Each test prints one PASS/FAIL line (visible under ``pytest -s`` or in
captured output on failure) so the suite doubles as a release checklist.
"""

import math
import time
import xml.etree.ElementTree as ET

import numpy as np

import saltpepper
from saltpepper import (
    BenchGrid,
    FilterConfig,
    GrayImage,
    NoiseSpec,
    apply_filter,
    inject,
    read_pgm,
    run_grid,
    synthetic_test_image,
    to_csv,
    to_svg,
    write_pgm,
)

from _reference import ref_rmf

# frozen (density %, PSNR dB, MSE) reference points for the trimmed-mean
# filter; the PSNR and MSE columns must agree through 10*log10(255^2/MSE)
REFERENCE_CURVE = [
    (10, 34.2762, 24.2920),
    (20, 31.1540, 49.8513),
    (30, 29.2863, 76.6391),
    (40, 27.7298, 109.6742),
    (50, 26.5649, 143.4142),
    (60, 25.5204, 182.4069),
    (70, 24.3077, 241.1607),
    (80, 23.0167, 324.6479),
    (90, 21.4067, 470.3241),
]

DENSITIES = tuple(range(10, 100, 10))


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} [{status}] {label}: {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def _sweep(filters, densities=DENSITIES):
    grid = BenchGrid(
        source=synthetic_test_image(),
        densities=densities,
        filters=filters,
        seed=0,
        image_name="synthetic",
    )
    return run_grid(grid)


def test_criterion_1_reference_curve_is_self_consistent():
    worst = 0.0
    for _, psnr_db, mse_value in REFERENCE_CURVE:
        derived = 10.0 * math.log10(255 * 255 / mse_value)
        worst = max(worst, abs(derived - psnr_db))
    _report(
        1,
        "PSNR/MSE reference pairs consistent",
        worst <= 0.001,
        f"max |10*log10(255^2/mse) - psnr| = {worst:.6f} dB over {len(REFERENCE_CURVE)} rows",
    )


def test_criterion_2_sweep_shape_and_bands():
    start = time.perf_counter()
    rows = _sweep((FilterConfig(kind="rmf"),))
    elapsed = time.perf_counter() - start
    curve = [r.psnr_db for r in rows]
    decreasing = all(a > b for a, b in zip(curve, curve[1:]))
    ok = (
        decreasing
        and 30.0 <= curve[0] <= 38.0
        and 18.0 <= curve[-1] <= 25.0
        and elapsed < 10.0
    )
    detail = (
        "psnr@10..90% = " + " ".join(f"{v:.2f}" for v in curve)
        + f", decreasing={decreasing}, sweep took {elapsed:.2f}s"
    )
    _report(2, "trimmed-mean sweep bands on 256x256 scene", ok, detail)


def test_criterion_3_beats_unconditional_median_at_mid_density():
    rows = _sweep(
        (FilterConfig(kind="rmf"), FilterConfig(kind="smf")),
        densities=(40, 50),
    )
    by_cell = {(r.density_pct, r.filter): r.psnr_db for r in rows}
    gap40 = by_cell[(40, "rmf")] - by_cell[(40, "smf")]
    gap50 = by_cell[(50, "rmf")] - by_cell[(50, "smf")]
    _report(
        3,
        "rmf over smf by >= 5 dB at 40%/50%",
        gap40 >= 5.0 and gap50 >= 5.0,
        f"gap@40% = {gap40:.2f} dB, gap@50% = {gap50:.2f} dB",
    )


def test_criterion_4_matches_bruteforce_oracle():
    rng = np.random.default_rng(404)
    config = FilterConfig(kind="rmf")
    mismatches = 0
    for i in range(100):
        clean = GrayImage(rng.integers(0, 256, size=(16, 16), dtype=np.uint8))
        for density in (0.1, 0.5, 0.9):
            noisy = inject(clean, NoiseSpec(density=density, seed=1000 + i))
            got = apply_filter(noisy, config).image.pixels.tolist()
            rows = noisy.pixels.tolist()
            if got != ref_rmf(rows, "forward") or got != ref_rmf(rows, "reverse"):
                mismatches += 1
    _report(
        4,
        "rmf bit-exact against brute-force reference",
        mismatches == 0,
        f"{mismatches} mismatches over 100 images x densities (0.1, 0.5, 0.9)",
    )


def test_criterion_5_impulse_free_images_are_fixed_points():
    rng = np.random.default_rng(505)
    failures = 0
    for _ in range(100):
        h, w = rng.integers(1, 25, size=2)
        img = GrayImage(rng.integers(1, 255, size=(h, w), dtype=np.uint8))
        for kind in ("rmf", "mdbutmf"):
            out = apply_filter(img, FilterConfig(kind=kind))
            if out.image != img or out.replaced_count != 0:
                failures += 1
    _report(
        5,
        "impulse-free fixed point with replaced_count 0",
        failures == 0,
        f"{failures} failures over 100 random images with pixels in [1, 254]",
    )


def test_criterion_6_injector_statistics():
    img = GrayImage(np.full((256, 256), 128, dtype=np.uint8))
    count_lo, count_hi = 19191, 20131
    bad_counts, bad_ratios = 0, 0
    counts = []
    for seed in range(20):
        out = inject(img, NoiseSpec(density=0.3, seed=seed))
        corrupted = out.pixels != 128
        m = int(corrupted.sum())
        counts.append(m)
        if not count_lo <= m <= count_hi:
            bad_counts += 1
        salt = int((out.pixels == 255).sum())
        # salt | corrupted ~ Binomial(m, 1/2); 4 sigma = 2*sqrt(m)
        if abs(salt - m / 2) > 2.0 * math.sqrt(m):
            bad_ratios += 1
    _report(
        6,
        "corruption counts and salt:pepper balance over 20 seeds",
        bad_counts == 0 and bad_ratios == 0,
        f"counts in [{min(counts)}, {max(counts)}] vs bound [{count_lo}, {count_hi}], "
        f"{bad_ratios} ratio violations",
    )


def test_criterion_7_round_trip_and_output_formats():
    rng = np.random.default_rng(707)
    round_trip_failures = 0
    for _ in range(100):
        h, w = rng.integers(1, 17, size=2)
        img = GrayImage(rng.integers(0, 256, size=(h, w), dtype=np.uint8))
        for mode in ("binary", "ascii"):
            if read_pgm(write_pgm(img, mode)) != img:
                round_trip_failures += 1
    header = to_csv([]).split(b"\n")[0]
    header_ok = header == b"image,filter,density_pct,psnr_db,mse,ief,elapsed_ms"
    rows = run_grid(
        BenchGrid(
            source=synthetic_test_image(32),
            densities=(10, 50),
            filters=(FilterConfig(kind="smf"), FilterConfig(kind="rmf")),
        )
    )
    try:
        ET.fromstring(to_svg(rows).decode())
        svg_ok = True
    except ET.ParseError:
        svg_ok = False
    ok = round_trip_failures == 0 and header_ok and svg_ok
    _report(
        7,
        "PGM round-trip, CSV header bytes, well-formed SVG",
        ok,
        f"{round_trip_failures} round-trip failures, header_ok={header_ok}, svg_ok={svg_ok}",
    )


def test_criterion_8_timing_recorded_not_asserted_and_no_extra_filters():
    rows = _sweep((FilterConfig(kind="rmf"),), densities=(10,))
    timing_recorded = all(
        isinstance(r.elapsed_ms, float) and r.elapsed_ms >= 0.0 and math.isfinite(r.elapsed_ms)
        for r in rows
    )
    kinds_ok = set(saltpepper.FILTER_KINDS) == {"smf", "amf", "mdbutmf", "rmf"}
    absent = ("psmf", "dba", "mdba")
    names = [n.lower() for n in dir(saltpepper)]
    extras = [n for n in names if any(n == f"apply_{a}" or n == a for a in absent)]
    ok = timing_recorded and kinds_ok and not extras
    _report(
        8,
        "elapsed time recorded only; exactly four filter kinds",
        ok,
        f"timing_recorded={timing_recorded}, kinds={sorted(saltpepper.FILTER_KINDS)}, "
        f"stray_names={extras}",
    )
