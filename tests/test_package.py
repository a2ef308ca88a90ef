"""The package's public surface: one entry point per job."""

import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import saltpepper
from saltpepper import (
    BenchGrid, BenchRow, FilterConfig, GrayImage, NoiseSpec, density_subseed, run_grid,
    synthetic_test_image, to_csv,
)

from _ledger import ROOT, code_lines

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


# one of each kind of line that the code-line count must tell apart; lines 3, 8, 10-13 and
# 15 are code
_SNIPPET = '''\
"""A module docstring,
over two lines."""
import os  # a comment after code

# a comment on a line of its own


def f(x):
    """A function docstring."""
    text = """a string over two lines
that is not a docstring"""
    "a bare string after the first statement"
    return (x +

            1)
'''


def test_code_lines_count_tokens_other_than_docstrings_comments_and_blanks():
    assert code_lines(_SNIPPET) == [3, 8, 10, 11, 12, 13, 15]


def test_ledger_prints_the_code_lines_of_every_module():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "_ledger.py"), "lines"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    *lines, total = run.stdout.splitlines()
    names = [line.partition(": ")[0] for line in lines]
    counts = [int(line.partition(": ")[2]) for line in lines]
    modules = (ROOT / "src" / "saltpepper").glob("*.py")
    assert names == sorted(f"src/saltpepper/{path.name}" for path in modules)
    assert total == f"src/saltpepper: {sum(counts)} code lines"


_GRID = dict(
    source=GrayImage(np.full((4, 4), 128, dtype=np.uint8)), densities=(10, 50),
    filters=(FilterConfig("rmf"),), seed=0, image_name="a",
)
_ROW = dict(
    image_name="a", filter="rmf", density_pct=10, psnr_db=30.0, mse=1.0, ief=2.0, elapsed_ms=1.0,
)
# one valid call of each public type or function that checks its arguments
_VALID_CALLS = [
    (FilterConfig, dict(kind="amf", window_size=3, max_window_size=7)),
    (NoiseSpec, dict(density=0.5, salt_fraction=0.5, seed=0)),
    (BenchGrid, _GRID),
    (BenchRow, _ROW),
    (density_subseed, dict(seed=0, density_pct=10)),
    (synthetic_test_image, dict(size=8)),
]
_SCALARS = st.one_of(
    st.floats(),  # NaN and both infinities among them
    st.sampled_from([math.nan, math.inf, -math.inf, "str", "3", "", None, -1, 0, 1, 3, 2**64]),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(0, 255).map(np.uint8),
)


class TestArgumentChecks:
    """A public call given a hostile scalar succeeds or raises ValueError, nothing else."""

    @given(
        call=st.sampled_from(_VALID_CALLS),
        data=st.data(),
        value=st.one_of(_SCALARS, _SCALARS.map(lambda v: (v,))),
    )
    @settings(max_examples=400)
    def test_hostile_scalar_succeeds_or_raises_value_error(self, call, data, value):
        function, kwargs = call
        name = data.draw(st.sampled_from(sorted(kwargs)), label="argument")
        if function is synthetic_test_image:
            try:
                assume(operator.index(value) <= 64)  # a valid size allocates its image
            except TypeError:
                pass
        try:  # a TypeError, AttributeError or struct.error fails the test
            made = function(**dict(kwargs, **{name: value}))
            # and so does one from using a bench record that constructed
            if function is BenchGrid:
                run_grid(made)  # DegenerateInputError, a ValueError, where no pixel was hit
            elif function is BenchRow:
                to_csv([made])
        except ValueError:
            pass

    @pytest.mark.parametrize("name", ["psnr_db", "mse", "ief"])
    @pytest.mark.parametrize(
        "value",
        [None, math.nan, -math.inf, "30", (30.0,), np.float32(-math.inf), -(10**400), 10**400],
        ids=["None", "nan", "-inf", "str", "tuple", "float32-inf", "-1e400", "1e400"],
    )
    def test_bench_row_refuses_a_metric_that_is_not_a_real_number(self, name, value):
        # None made to_csv and to_svg raise TypeError, a NaN PSNR wrote y1="nan" into the SVG,
        # and an integer past every float made to_csv raise OverflowError
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            BenchRow(**dict(_ROW, **{name: value}))

    @pytest.mark.parametrize(
        "source", [5, None, np.full((4, 4), 128, dtype=np.uint8)], ids=["int", "None", "ndarray"]
    )
    def test_bench_grid_refuses_a_source_that_is_not_an_image(self, source):
        # run_grid raised AttributeError on it
        with pytest.raises(ValueError, match="^source must be a GrayImage"):
            BenchGrid(**dict(_GRID, source=source))
