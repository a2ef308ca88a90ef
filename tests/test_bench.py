import csv
import hashlib
import io
import math
import struct
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from saltpepper import (
    CSV_HEADER,
    FILTER_KINDS,
    BenchGrid,
    BenchRow,
    DegenerateInputError,
    FilterConfig,
    GrayImage,
    NoiseSpec,
    apply_filter,
    compare,
    density_subseed,
    inject,
    run_grid,
    synthetic_test_image,
    to_csv,
    to_svg,
)
from saltpepper import bench

from _reference import ref_synthetic_test_image

SVG_NS = "{http://www.w3.org/2000/svg}"


def small_source(size=24):
    return synthetic_test_image(size)


def tiny_grid(**overrides):
    kwargs = dict(
        source=small_source(),
        densities=(10, 50),
        filters=(FilterConfig(kind="smf"), FilterConfig(kind="rmf")),
        seed=3,
        image_name="scene",
    )
    kwargs.update(overrides)
    return BenchGrid(**kwargs)


class TestBenchRow:
    def test_rejects_out_of_range_density(self):
        with pytest.raises(ValueError, match="density_pct"):
            BenchRow("a", "rmf", 0, 1.0, 1.0, 1.0, 1.0)

    def test_rejects_negative_elapsed(self):
        with pytest.raises(ValueError, match="elapsed_ms"):
            BenchRow("a", "rmf", 10, 1.0, 1.0, 1.0, -0.1)

    @pytest.mark.parametrize("elapsed", [math.nan, "1.0", None])
    def test_rejects_elapsed_that_is_not_a_number(self, elapsed):
        with pytest.raises(ValueError, match="elapsed_ms must be a real number >= 0"):
            BenchRow("a", "rmf", 10, 1.0, 1.0, 1.0, elapsed)

    @pytest.mark.parametrize("density", [10.5, 10.0, "10"])
    def test_rejects_non_integer_density(self, density):
        # the rule BenchGrid's densities follow
        with pytest.raises(ValueError, match="density_pct must be integer percents"):
            BenchRow("a", "rmf", density, 1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("names", [(None, "rmf"), ("a", 7)], ids=["image", "filter"])
    def test_rejects_names_that_are_not_str(self, names):
        # a filter of 7 made to_svg raise AttributeError
        with pytest.raises(ValueError, match="names must be str"):
            BenchRow(*names, 10, 1.0, 1.0, 1.0, 1.0)


# characters that XML 1.0 refuses: C0 controls but tab, LF and CR, lone surrogates, U+FFFE, U+FFFF
REFUSED = ["\x00", "\x01", "\x0b", "\x0c", "\x1f", "\ud800", "\udcff", "\udfff", "\ufffe",
           "\uffff"]
ALLOWED = ["\t", "\n", "\r", "\x7f", "\x85", "\ud7ff", "\ue000", "\ufffd", "\U0001f600"]


def codepoint(char: str) -> str:
    return f"U+{ord(char):04X}"


class TestNames:
    """A sweep's names hold only characters that both its CSV and its SVG can hold."""

    @pytest.mark.parametrize("char", REFUSED, ids=codepoint)
    def test_refuses_a_name_that_xml_cannot_hold(self, char):
        # a filter named "x\x01y" made to_svg write XML that no parser reads, and a lone
        # surrogate in an image name made to_csv raise UnicodeEncodeError
        name = f"x{char}y"
        for names in ((name, "rmf"), ("a", name)):
            with pytest.raises(ValueError, match="^names must be str of characters that XML 1.0"):
                BenchRow(*names, 10, 30.0, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError, match="^image_name must be a str of characters that XML"):
            tiny_grid(image_name=name)

    @pytest.mark.parametrize("char", ALLOWED, ids=codepoint)
    def test_a_name_that_xml_allows_reaches_both_files(self, char):
        name = f"x{char}y"
        row = BenchRow(name, name, 10, 30.0, 1.0, 2.0, 1.0)
        header, record = list(csv.reader(io.StringIO(to_csv([row]).decode(), newline="")))
        assert record[:2] == [name, name]
        texts = [t.text for t in ET.fromstring(to_svg([row])).findall(f"{SVG_NS}text")]
        assert name.replace("\r", "\n") in texts  # an XML parser reads a lone CR as LF
        assert tiny_grid(image_name=name).image_name == name


class TestBenchGrid:
    def test_rejects_empty_densities(self):
        with pytest.raises(ValueError, match="nonempty"):
            tiny_grid(densities=())

    def test_rejects_unsorted_densities(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            tiny_grid(densities=(50, 10))

    def test_rejects_out_of_range_densities(self):
        with pytest.raises(ValueError, match=r"\[1, 100\]"):
            tiny_grid(densities=(0, 10))

    @pytest.mark.parametrize(
        "densities", [(10.9, 50.5), (10.0, 50), ("10",), (np.float64(50),)],
        ids=["10.9,50.5", "10.0", "str10", "np50.0"],
    )
    def test_rejects_non_integer_densities(self, densities):
        # int() would truncate 10.9 to 10 and label the rows with it
        with pytest.raises(ValueError, match="densities must be integer percents"):
            tiny_grid(densities=densities)

    def test_accepts_numpy_integer_densities(self):
        assert tiny_grid(densities=(np.int64(10), np.uint8(50))).densities == (10, 50)

    def test_rejects_empty_filters(self):
        with pytest.raises(ValueError, match="filters"):
            tiny_grid(filters=())

    @pytest.mark.parametrize("filters", [None, ("rmf",), FilterConfig("rmf")])
    def test_rejects_filters_that_are_not_configs(self, filters):
        with pytest.raises(ValueError, match="sequence of FilterConfig objects"):
            tiny_grid(filters=filters)

    def test_rejects_two_filters_of_one_kind(self):
        # rows are labelled by kind, so two rmf configurations would write rows that collide
        with pytest.raises(ValueError, match="filters must be of distinct kinds, got rmf, rmf"):
            tiny_grid(filters=(FilterConfig("rmf"), FilterConfig("rmf", 7)))

    def test_rejects_image_name_that_is_not_str(self):
        # to_csv raised TypeError on the rows of such a grid
        with pytest.raises(ValueError, match="image_name must be a str"):
            tiny_grid(image_name=5)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_outside_64_bits(self, seed):
        # run_grid packs the seed into 8 bytes, so it must fail here instead
        with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
            tiny_grid(seed=seed)

    @pytest.mark.parametrize("seed", [1.5, 1.0, "0"], ids=["1.5", "1.0", "str0"])
    def test_rejects_non_integer_seed(self, seed):
        # run_grid would otherwise fail later with a struct.error
        with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
            tiny_grid(seed=seed)


class TestDensitySubseed:
    def test_frozen_values(self):
        # regression pins: these exact subseeds keep every stored sweep
        # output reproducible, so they must never change
        assert density_subseed(0, 10) == 9405156685005986070
        assert density_subseed(0, 50) == 11974676217445224856
        assert density_subseed(0, 90) == 17828738323984755706
        assert density_subseed(7, 10) == 14109708843629240338
        assert density_subseed(123456789, 35) == 16355043746942808835

    def test_distinct_across_densities_and_seeds(self):
        seen = {density_subseed(s, d) for s in range(4) for d in range(1, 101)}
        assert len(seen) == 400

    def test_in_u64_range(self):
        for d in (1, 37, 100):
            assert 0 <= density_subseed(2**64 - 1, d) < 2**64

    @pytest.mark.parametrize(
        "seed,pct", [(np.uint64(2**64 - 1), np.int8(-1)), (True, 2**63 - 1), (0, -(2**63))]
    )
    def test_every_argument_that_packs_keeps_its_value(self, seed, pct):
        digest = hashlib.blake2b(struct.pack("<Qq", seed, pct), digest_size=8).digest()
        assert density_subseed(seed, pct) == int.from_bytes(digest, "little")

    @pytest.mark.parametrize(
        "seed,pct,message",
        [
            (-1, 10, "seed"), (2**64, 10, "seed"), (1.5, 10, "seed"),
            (0, 10.5, "density_pct"), (0, "10", "density_pct"), (0, 2**63, "density_pct"),
        ],
    )
    def test_rejects_arguments_that_do_not_pack(self, seed, pct, message):
        # struct.error, which is not a ValueError, escaped before
        with pytest.raises(ValueError, match=f"^{message} must be"):
            density_subseed(seed, pct)


class TestRunGrid:
    def test_row_order_and_labels(self):
        rows = run_grid(tiny_grid())
        assert [(r.density_pct, r.filter) for r in rows] == [
            (10, "smf"), (10, "rmf"), (50, "smf"), (50, "rmf"),
        ]
        assert all(r.image_name == "scene" for r in rows)

    def test_metric_columns_are_reproducible(self):
        a = run_grid(tiny_grid())
        b = run_grid(tiny_grid())
        for x, y in zip(a, b):
            assert (x.psnr_db, x.mse, x.ief) == (y.psnr_db, y.mse, y.ief)
            assert x.elapsed_ms >= 0.0 and y.elapsed_ms >= 0.0

    def test_filters_share_the_corrupted_image(self):
        # every cell's metrics are compare's on the documented noisy image, to the bit
        grid = tiny_grid(
            densities=(10, 50, 90), filters=tuple(FilterConfig(kind) for kind in FILTER_KINDS)
        )
        rows = run_grid(grid)
        for pct in grid.densities:
            spec = NoiseSpec(density=pct / 100.0, seed=density_subseed(grid.seed, pct))
            noisy = inject(grid.source, spec)
            for config in grid.filters:
                restored = apply_filter(noisy, config)
                expected = compare(grid.source, restored.image, noisy=noisy)
                row = next(r for r in rows if r.density_pct == pct and r.filter == config.kind)
                assert row.psnr_db == expected.psnr_db
                assert row.mse == expected.mse
                assert row.ief == expected.ief

    def test_a_degenerate_cell_raises_where_compare_does(self, monkeypatch):
        # smf changes the clean scene, rmf passes it through: at a density that flips
        # no pixel, the (1, rmf) cell is the first whose three images are identical
        source = small_source(4)
        seed = next(
            s for s in range(100)
            if inject(source, NoiseSpec(density=0.01, seed=density_subseed(s, 1))) == source
        )
        grid = tiny_grid(source=source, densities=(1, 50), seed=seed)
        assert compare(source, apply_filter(source, FilterConfig("smf")).image, source).ief == 0.0
        with pytest.raises(DegenerateInputError):
            compare(source, apply_filter(source, FilterConfig("rmf")).image, source)
        calls = []
        real = bench.apply_filter
        monkeypatch.setattr(bench, "apply_filter", lambda *a: calls.append(a) or real(*a))
        with pytest.raises(DegenerateInputError, match="all identical"):
            run_grid(grid)
        assert [config.kind for _, config in calls] == ["smf", "rmf"]


class TestToCsv:
    def test_header_is_byte_exact(self):
        assert to_csv([]).split(b"\n")[0] == b"image,filter,density_pct,psnr_db,mse,ief,elapsed_ms"
        assert CSV_HEADER == "image,filter,density_pct,psnr_db,mse,ief,elapsed_ms"

    def test_empty_rows_give_header_only(self):
        assert to_csv([]) == CSV_HEADER.encode() + b"\n"

    def test_known_row_rendering(self):
        row = BenchRow("lena", "rmf", 10, 34.2762, 24.2920, 12.5, 3.0)
        assert to_csv([row]).decode().splitlines()[1] == (
            "lena,rmf,10,34.2762,24.2920,12.5000,3.0000"
        )

    def test_infinite_renders_as_inf(self):
        row = BenchRow("a", "rmf", 10, math.inf, 0.0, math.inf, 1.0)
        line = to_csv([row]).decode().splitlines()[1]
        assert line == "a,rmf,10,inf,0.0000,inf,1.0000"

    def test_parses_back_with_csv_module(self):
        rows = run_grid(tiny_grid())
        parsed = list(csv.DictReader(io.StringIO(to_csv(rows).decode())))
        assert len(parsed) == len(rows)
        for record, row in zip(parsed, rows):
            assert record["image"] == row.image_name
            assert record["filter"] == row.filter
            assert int(record["density_pct"]) == row.density_pct
            assert float(record["psnr_db"]) == pytest.approx(row.psnr_db, abs=5e-5)
            assert float(record["elapsed_ms"]) >= 0.0

    @pytest.mark.parametrize("name", ["a,b.pgm", 'say "hi".pgm', "two\nlines.pgm", "cr\rname"])
    def test_names_with_separators_are_quoted(self, name):
        row = BenchRow(name, "rmf", 10, 30.0, 65.0, 2.0, 1.0)
        header, record = list(csv.reader(io.StringIO(to_csv([row]).decode(), newline="")))
        assert len(record) == len(header) == 7
        assert record[0] == name
        assert record[1:3] == ["rmf", "10"]

    @pytest.mark.parametrize("name", ["a,b", '"say" hi', "two\nlines", "cr\rname"])
    def test_filter_names_with_separators_are_quoted(self, name):
        row = BenchRow("img", name, 10, 30.0, 1.0, 2.0, 0.5)
        header, record = list(csv.reader(io.StringIO(to_csv([row]).decode(), newline="")))
        assert len(record) == len(header) == 7
        assert record[:3] == ["img", name, "10"]

    def test_plain_names_stay_bare(self):
        row = BenchRow("my image-1.pgm", "rmf", 10, 30.0, 65.0, 2.0, 1.0)
        assert to_csv([row]).decode().splitlines()[1].startswith("my image-1.pgm,rmf,10,")


class TestToSvg:
    def test_well_formed_with_one_polyline_per_filter(self):
        rows = run_grid(tiny_grid())
        root = ET.fromstring(to_svg(rows).decode())
        assert root.tag == f"{SVG_NS}svg"
        polylines = root.findall(f"{SVG_NS}polyline")
        assert len(polylines) == 2
        texts = [t.text for t in root.findall(f"{SVG_NS}text")]
        assert "smf" in texts and "rmf" in texts

    def test_single_series_point_count(self):
        grid = tiny_grid(densities=(10, 30, 50), filters=(FilterConfig(kind="rmf"),))
        rows = run_grid(grid)
        root = ET.fromstring(to_svg(rows).decode())
        polylines = root.findall(f"{SVG_NS}polyline")
        assert len(polylines) == 1
        assert len(polylines[0].get("points").split()) == 3
        assert len(root.findall(f"{SVG_NS}circle")) == 3

    def test_infinite_rows_are_skipped(self):
        finite = BenchRow("a", "rmf", 10, 30.0, 65.0, 2.0, 1.0)
        infinite = BenchRow("a", "rmf", 20, math.inf, 0.0, math.inf, 1.0)
        root = ET.fromstring(to_svg([finite, infinite]).decode())
        polylines = root.findall(f"{SVG_NS}polyline")
        assert len(polylines[0].get("points").split()) == 1

    def test_all_infinite_is_degenerate(self):
        row = BenchRow("a", "rmf", 10, math.inf, 0.0, math.inf, 1.0)
        with pytest.raises(DegenerateInputError, match="nothing to plot"):
            to_svg([row])

    def test_no_rows_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            to_svg([])

    @pytest.mark.parametrize(
        "psnrs", [(1e16,), (1e17,), (2.0**64,), (1e308,), (-1e308,), (-1e308, 1e308)]
    )
    def test_psnrs_too_large_to_scale_are_degenerate(self, psnrs):
        # the margins around one value round away (ZeroDivisionError), or the range
        # of two overflows to infinity (nan and inf coordinates)
        rows = [BenchRow("a", "rmf", 10 + i, p, 1.0, 1.0, 1.0) for i, p in enumerate(psnrs)]
        with pytest.raises(DegenerateInputError, match="cannot scale"):
            to_svg(rows)

    @pytest.mark.parametrize("psnrs", [(1e15,), (-1e307, 1e307), (-1e308, 0.0)])
    def test_large_psnrs_that_scale_plot_at_finite_coordinates(self, psnrs):
        rows = [BenchRow("a", "rmf", 10 + i, p, 1.0, 1.0, 1.0) for i, p in enumerate(psnrs)]
        root = ET.fromstring(to_svg(rows).decode())
        for circle in root.findall(f"{SVG_NS}circle"):
            assert math.isfinite(float(circle.get("cx"))) and math.isfinite(float(circle.get("cy")))


class TestSyntheticTestImage:
    def test_default_shape_and_determinism(self):
        a = synthetic_test_image()
        b = synthetic_test_image()
        assert (a.width, a.height) == (256, 256)
        assert a == b

    def test_contains_no_impulse_values(self):
        img = synthetic_test_image()
        assert img.pixels.min() >= 1
        assert img.pixels.max() <= 254

    def test_has_texture(self):
        assert synthetic_test_image().pixels.std() > 5.0

    def test_small_sizes(self):
        assert synthetic_test_image(1).pixels.shape == (1, 1)
        assert synthetic_test_image(5).pixels.shape == (5, 5)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError, match="size"):
            synthetic_test_image(0)

    @pytest.mark.parametrize("size", [2.5, "3", None])
    def test_rejects_non_integer_size(self, size):
        # 2.5 gave a 3x3 image, and "3" a TypeError
        with pytest.raises(ValueError, match="size must be a positive integer"):
            synthetic_test_image(size)

    def test_accepts_numpy_integer_size(self):
        assert synthetic_test_image(np.int64(5)) == synthetic_test_image(5)

    @pytest.mark.parametrize(
        "size", [*range(1, 201), 255, 256, 257, 511, 512, 513, 1023, 1024, 1025]
    )
    def test_bands_match_the_whole_image_formula(self, size):
        # one band up to 256 rows, then 2 to 17 bands of BAND // size rows;
        # 257, 513 and 1025 end in a short band
        assert synthetic_test_image(size).pixels.tobytes() == ref_synthetic_test_image(size).tobytes()

    @pytest.mark.parametrize("size", [4097, 2**20])
    def test_rejects_sizes_above_4096_before_allocating(self, size):
        # 4096 is the documented limit, a 16 MiB output: a larger size is refused
        # before anything sized by it is allocated
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="size must be a positive integer at most 4096"):
                synthetic_test_image(size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10
