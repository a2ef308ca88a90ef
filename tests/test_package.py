"""The package's public surface: one entry point per job."""

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
