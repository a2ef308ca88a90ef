"""The paper's experiment at full size, pinned as a committed file.

``golden/sweep-256-seed0.csv`` holds the metric columns of ``run_grid``
over ``synthetic_test_image(256)``: all four filters at window 3 (``amf``
growing to 7), densities 10-90 %, seed 0.  ``elapsed_ms`` is dropped, so
every byte is reproducible.  The hypothesis oracles run on images of at
most 39x39; this file is what catches an error that shows only on a
full-size image or at a seam between bands.
"""

import csv
import io
from pathlib import Path

import pytest

from saltpepper import FILTER_KINDS, BenchGrid, FilterConfig, run_grid, synthetic_test_image, to_csv

GOLDEN = Path(__file__).parent / "golden" / "sweep-256-seed0.csv"
DENSITIES = tuple(range(10, 100, 10))


def sweep_csv() -> bytes:
    """The sweep's CSV without its last column, ``elapsed_ms``."""
    grid = BenchGrid(
        source=synthetic_test_image(256),
        densities=DENSITIES,
        filters=tuple(FilterConfig(kind=kind) for kind in FILTER_KINDS),
        seed=0,
        image_name="synthetic",
    )
    lines = to_csv(run_grid(grid)).decode().splitlines()
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in lines).encode()


@pytest.fixture(scope="module")
def psnr():
    """PSNR in dB from the golden file, keyed by (filter, density)."""
    rows = csv.DictReader(io.StringIO(GOLDEN.read_text()))
    return {(r["filter"], int(r["density_pct"])): float(r["psnr_db"]) for r in rows}


def test_sweep_reproduces_the_golden_file():
    assert sweep_csv() == GOLDEN.read_bytes()


def test_golden_file_covers_every_filter_and_density(psnr):
    assert set(psnr) == {(kind, pct) for kind in FILTER_KINDS for pct in DENSITIES}


@pytest.mark.parametrize("rival", ["mdbutmf", "amf"])
def test_rmf_leads_decision_based_median_filters_at_every_density(psnr, rival):
    for pct in DENSITIES:
        assert psnr["rmf", pct] > psnr[rival, pct], pct


def test_rmf_leads_smf_by_at_least_7_8_db_at_every_density(psnr):
    for pct in DENSITIES:
        assert psnr["rmf", pct] - psnr["smf", pct] >= 7.8, pct


def test_readme_table_is_the_golden_file(psnr):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    for kind in FILTER_KINDS:
        row = " | ".join(f"{psnr[kind, pct]:.2f}" for pct in DENSITIES)
        assert f"| `{kind}` | {row} |" in readme, kind
