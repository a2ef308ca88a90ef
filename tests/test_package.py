"""The package's public surface: one entry point per job."""

import os
import subprocess
import sys
from pathlib import Path

import saltpepper

PUBLIC_NAMES = {
    "MAXVAL", "GrayImage", "read_pgm", "write_pgm",
    "NoiseSpec", "inject",
    "FILTER_KINDS", "FilterConfig", "RestoredImage", "apply_filter",
    "INFINITE", "MetricsReport", "compare",
    "CSV_HEADER", "BenchRow", "BenchGrid", "density_subseed", "run_grid",
    "to_csv", "to_svg", "synthetic_test_image",
    "PgmFormatError", "DimensionMismatchError", "DegenerateInputError",
}


def test_public_names_are_pinned():
    assert len(saltpepper.__all__) == len(PUBLIC_NAMES) == 24
    assert set(saltpepper.__all__) == PUBLIC_NAMES
    assert all(hasattr(saltpepper, name) for name in PUBLIC_NAMES)
    # apply_filter runs every filter and compare computes every metric
    assert [n for n in dir(saltpepper) if n.startswith("apply_")] == ["apply_filter"]
    assert not any(hasattr(saltpepper, n) for n in ("mse", "psnr", "ief"))


def test_import_loads_no_xml_sax():
    # xml.sax.saxutils loads urllib.request, http.client, email and ssl on import
    code = "import sys, saltpepper; print('xml.sax.saxutils' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(saltpepper.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "False"
