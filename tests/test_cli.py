import contextlib
import io
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saltpepper import (
    FilterConfig,
    GrayImage,
    NoiseSpec,
    apply_filter,
    inject,
    read_pgm,
    synthetic_test_image,
    write_pgm,
)
from saltpepper.cli import dispatch


@pytest.fixture
def scene(tmp_path):
    img = synthetic_test_image(24)
    path = tmp_path / "scene.pgm"
    path.write_bytes(write_pgm(img, "binary"))
    return img, path


def run(*argv):
    return dispatch([str(a) for a in argv])


class TestInjectCommand:
    def test_matches_library_call(self, scene, tmp_path):
        img, src = scene
        out = tmp_path / "noisy.pgm"
        assert run("inject", "--density", "0.3", "--seed", "5", src, out) == 0
        expected = inject(img, NoiseSpec(density=0.3, seed=5))
        assert read_pgm(out.read_bytes()) == expected

    def test_percent_and_fraction_are_equivalent(self, scene, tmp_path):
        _, src = scene
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        assert run("inject", "--density", "30", src, a) == 0
        assert run("inject", "--density", "0.3", src, b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_defaults_to_zero(self, scene, tmp_path):
        img, src = scene
        out = tmp_path / "noisy.pgm"
        assert run("inject", "--density", "0.5", src, out) == 0
        assert read_pgm(out.read_bytes()) == inject(img, NoiseSpec(density=0.5, seed=0))

    def test_salt_fraction_is_forwarded(self, scene, tmp_path):
        _, src = scene
        out = tmp_path / "noisy.pgm"
        assert run("inject", "--density", "1", "--salt-fraction", "1.0", src, out) == 0
        assert set(read_pgm(out.read_bytes()).pixels.ravel().tolist()) == {255}

    def test_rejects_out_of_range_density(self, scene, tmp_path, capsys):
        _, src = scene
        assert run("inject", "--density", "150", src, tmp_path / "x.pgm") == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_rejects_negative_seed(self, scene, tmp_path):
        _, src = scene
        assert run("inject", "--density", "0.5", "--seed", "-1", src, tmp_path / "x.pgm") == 1


class TestDenoiseCommand:
    def test_matches_library_call(self, scene, tmp_path):
        img, src = scene
        noisy_path = tmp_path / "noisy.pgm"
        out = tmp_path / "restored.pgm"
        noisy = inject(img, NoiseSpec(density=0.4, seed=1))
        noisy_path.write_bytes(write_pgm(noisy, "binary"))
        assert run("denoise", "--filter", "rmf", noisy_path, out) == 0
        expected = apply_filter(noisy, FilterConfig(kind="rmf")).image
        assert read_pgm(out.read_bytes()) == expected

    def test_amf_window_options(self, scene, tmp_path):
        img, src = scene
        out = tmp_path / "restored.pgm"
        assert run("denoise", "--filter", "amf", "--window", "3", "--max-window", "7", src, out) == 0
        expected = apply_filter(img, FilterConfig(kind="amf", window_size=3, max_window_size=7))
        assert read_pgm(out.read_bytes()) == expected.image

    @pytest.mark.parametrize(
        "option",
        [["--window", "9"], ["--max-window", "9"], ["--window", "100000000000000000001"]],
        ids=["window-9", "max-window-9", "window-1e20"],
    )
    def test_rejects_windows_above_7_naming_the_range(self, scene, tmp_path, option, capsys):
        _, src = scene
        start = time.perf_counter()
        code = run("denoise", "--filter", "amf", *option, src, tmp_path / "x.pgm")
        assert time.perf_counter() - start < 0.5
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "odd integer from" in err and "to 7" in err
        assert not (tmp_path / "x.pgm").exists()

    def test_rejects_even_window(self, scene, tmp_path):
        _, src = scene
        assert run("denoise", "--filter", "smf", "--window", "4", src, tmp_path / "x.pgm") == 1

    @pytest.mark.parametrize("densities", ["nan", "inf,50", "1:2:inf"])
    def test_rejects_non_finite_density_naming_it(self, scene, tmp_path, densities, capsys):
        _, src = scene
        code = run("bench", "--image", src, "--densities", densities,
                   "--filters", "rmf", "--csv", tmp_path / "x.csv")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "is not a finite number" in err and ("nan" in err or "inf" in err)

    def test_rejects_unknown_filter(self, scene, tmp_path):
        _, src = scene
        assert run("denoise", "--filter", "box", src, tmp_path / "x.pgm") == 1

    def test_unknown_filter_is_refused_by_filter_config(self, tmp_path, capsys):
        # the one refusal bench gives too, found before the missing image is read
        code = run("denoise", "--filter", "box", tmp_path / "missing.pgm", tmp_path / "out.pgm")
        assert code == 1
        expected = "unknown filter kind 'box': expected one of smf, amf, mdbutmf, rmf"
        assert capsys.readouterr().err == f"error: {expected}\n"


class TestMetricsCommand:
    def test_prints_mse_and_psnr(self, tmp_path, capsys):
        ref, test = tmp_path / "ref.pgm", tmp_path / "test.pgm"
        ref.write_bytes(write_pgm(GrayImage(np.full((4, 4), 100, dtype=np.uint8))))
        test.write_bytes(write_pgm(GrayImage(np.full((4, 4), 110, dtype=np.uint8))))
        assert run("metrics", "--ref", ref, "--test", test) == 0
        line = capsys.readouterr().out.strip()
        assert line == "mse=100.0000 psnr_db=28.1308"

    def test_ief_requires_noisy(self, tmp_path, capsys):
        ref, noisy, test = (tmp_path / n for n in ("r.pgm", "n.pgm", "t.pgm"))
        ref.write_bytes(write_pgm(GrayImage(np.full((4, 4), 100, dtype=np.uint8))))
        noisy.write_bytes(write_pgm(GrayImage(np.full((4, 4), 120, dtype=np.uint8))))
        test.write_bytes(write_pgm(GrayImage(np.full((4, 4), 110, dtype=np.uint8))))
        assert run("metrics", "--ref", ref, "--test", test, "--noisy", noisy) == 0
        line = capsys.readouterr().out.strip()
        assert line == "mse=100.0000 psnr_db=28.1308 ief=4.0000"
        for token in line.split(" "):
            assert "=" in token

    def test_identical_pair_prints_inf(self, tmp_path, capsys):
        ref = tmp_path / "ref.pgm"
        ref.write_bytes(write_pgm(GrayImage(np.full((2, 2), 9, dtype=np.uint8))))
        assert run("metrics", "--ref", ref, "--test", ref) == 0
        assert capsys.readouterr().out.strip() == "mse=0.0000 psnr_db=inf"

    def test_dimension_mismatch_is_degenerate_exit(self, tmp_path, capsys):
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        a.write_bytes(write_pgm(GrayImage(np.zeros((2, 2), dtype=np.uint8))))
        b.write_bytes(write_pgm(GrayImage(np.zeros((2, 3), dtype=np.uint8))))
        assert run("metrics", "--ref", a, "--test", b) == 4
        assert "error:" in capsys.readouterr().err

    def test_degenerate_ief_exit(self, tmp_path):
        ref = tmp_path / "ref.pgm"
        ref.write_bytes(write_pgm(GrayImage(np.full((2, 2), 9, dtype=np.uint8))))
        assert run("metrics", "--ref", ref, "--test", ref, "--noisy", ref) == 4


class TestBenchCommand:
    def test_writes_csv_and_svg(self, scene, tmp_path):
        _, src = scene
        out_csv, out_svg = tmp_path / "out.csv", tmp_path / "out.svg"
        code = run(
            "bench", "--image", src, "--densities", "10,50",
            "--filters", "smf,rmf", "--csv", out_csv, "--svg", out_svg,
        )
        assert code == 0
        lines = out_csv.read_bytes().split(b"\n")
        assert lines[0] == b"image,filter,density_pct,psnr_db,mse,ief,elapsed_ms"
        assert len([l for l in lines if l]) == 1 + 4
        assert lines[1].startswith(b"scene,smf,10,")
        root = ET.fromstring(out_svg.read_bytes().decode())
        assert root.tag.endswith("svg")

    def test_density_range_grammar(self, scene, tmp_path):
        _, src = scene
        out_csv = tmp_path / "out.csv"
        code = run(
            "bench", "--image", src, "--densities", "10:90:10",
            "--filters", "rmf", "--csv", out_csv,
        )
        assert code == 0
        body = [l for l in out_csv.read_text().splitlines()[1:] if l]
        assert [int(line.split(",")[2]) for line in body] == list(range(10, 100, 10))

    def test_fractional_density_list(self, scene, tmp_path):
        _, src = scene
        out_csv = tmp_path / "out.csv"
        assert run("bench", "--image", src, "--densities", "0.1,0.5",
                   "--filters", "rmf", "--csv", out_csv) == 0
        body = [l for l in out_csv.read_text().splitlines()[1:] if l]
        assert [int(line.split(",")[2]) for line in body] == [10, 50]

    @pytest.mark.parametrize("densities", ["0.155", "10:90", "10:90:0", "", "105", "50:49.5:10"])
    def test_rejects_bad_density_grammar(self, scene, tmp_path, densities, capsys):
        _, src = scene
        code = run("bench", "--image", src, "--densities", densities,
                   "--filters", "rmf", "--csv", tmp_path / "x.csv")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("densities", ["1:100:1e-12", "1:inf:1"])
    def test_rejects_overlong_range_before_building_it(self, scene, tmp_path, densities, capsys):
        _, src = scene
        tracemalloc.start()
        try:
            code = run("bench", "--image", src, "--densities", densities,
                       "--filters", "rmf", "--csv", tmp_path / "x.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "at most 100 values" in err
        assert peak < 2**20

    def test_rejects_unknown_filter(self, scene, tmp_path):
        _, src = scene
        assert run("bench", "--image", src, "--densities", "10",
                   "--filters", "rmf,box", "--csv", tmp_path / "x.csv") == 1

    def test_checks_the_seed_before_reading_the_image(self, tmp_path, capsys):
        # a missing image alone exits 2; the bad seed is found first
        code = run("bench", "--seed", "-1", "--image", tmp_path / "absent.pgm",
                   "--densities", "10", "--filters", "rmf", "--csv", tmp_path / "x.csv")
        assert code == 1
        assert "seed must be an unsigned 64-bit integer, got -1" in capsys.readouterr().err

    def test_checks_the_densities_before_reading_the_image(self, tmp_path, capsys):
        # a missing image alone exits 2; the bad densities are found first
        code = run("bench", "--densities", "abc", "--image", tmp_path / "absent.pgm",
                   "--filters", "rmf", "--csv", tmp_path / "x.csv")
        assert code == 1
        assert "could not parse densities 'abc'" in capsys.readouterr().err

    def test_refuses_an_image_name_that_the_csv_cannot_hold(self, scene, tmp_path, capsys):
        # a file name that is not UTF-8 reads as a lone surrogate, with which the whole
        # sweep ran and then the CSV failed to encode
        img, _ = scene
        src = tmp_path / os.fsdecode(b"img\xff.pgm")
        src.write_bytes(write_pgm(img, "binary"))
        out_csv = tmp_path / "out.csv"
        code = run("bench", "--image", src, "--densities", "10", "--filters", "rmf",
                   "--csv", out_csv)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: image_name must be") and err.count("\n") == 1
        assert not out_csv.exists()

    @pytest.mark.parametrize("densities,filters,message", [
        ("20,10", "rmf", "densities must be strictly increasing, got [20, 10]"),
        ("10,10", "rmf", "densities must be strictly increasing, got [10, 10]"),
        ("10", ",", "filters must be nonempty"),
        ("10", "rmf,rmf", "filters must be of distinct kinds, got rmf, rmf"),
    ], ids=["order", "duplicate", "no_filter", "repeated_kind"])
    def test_checks_the_sweep_before_reading_the_image(
        self, tmp_path, capsys, densities, filters, message
    ):
        # a missing image alone exits 2; the sweep's usage error is found first
        code = run("bench", "--densities", densities, "--image", tmp_path / "absent.pgm",
                   "--filters", filters, "--csv", tmp_path / "x.csv")
        assert code == 1
        assert message in capsys.readouterr().err


class TestExitCodes:
    def test_missing_input_file(self, tmp_path, capsys):
        assert run("inject", "--density", "0.5", tmp_path / "absent.pgm", tmp_path / "o.pgm") == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_output(self, scene, tmp_path):
        _, src = scene
        assert run("inject", "--density", "0.5", src, tmp_path / "no" / "dir" / "o.pgm") == 2

    def test_malformed_image(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P2\n2 2\n256\n0 0 0 0\n")
        assert run("denoise", "--filter", "rmf", bad, tmp_path / "o.pgm") == 3
        assert "maxval" in capsys.readouterr().err

    def test_oversized_ascii_header_is_a_format_error(self, tmp_path, capsys):
        bad = tmp_path / "huge.pgm"
        bad.write_bytes(b"P2\n1000000000 1000000000\n255\n0\n")
        assert run("denoise", "--filter", "rmf", bad, tmp_path / "o.pgm") == 3
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("data,message", [
        (b"P2\n1 1\n255\n" + b"1" * 5000, "out of range"),
        (b"P2\n" + b"1" * 5000 + b" 1\n255\n0\n", "too large"),
        (b"P2\n1 " + b"1" * 5000 + b"\n255\n0\n", "too large"),
        (b"P2\n1 1\n" + b"1" * 5000 + b"\n0\n", "unsupported maxval"),
    ])
    def test_tokens_beyond_int_digit_limit_are_format_errors(self, tmp_path, capsys, data, message):
        ref, bad = tmp_path / "ref.pgm", tmp_path / "bad.pgm"
        ref.write_bytes(b"P2\n1 1\n255\n1\n")
        bad.write_bytes(data)
        assert run("metrics", "--ref", ref, "--test", bad) == 3
        assert message in capsys.readouterr().err

    def test_zero_padded_long_sample_is_valid(self, tmp_path, capsys):
        ref, test = tmp_path / "ref.pgm", tmp_path / "test.pgm"
        ref.write_bytes(b"P2\n1 1\n255\n1\n")
        test.write_bytes(b"P2\n1 1\n255\n" + b"0" * 5000 + b"1")
        assert run("metrics", "--ref", ref, "--test", test) == 0
        assert capsys.readouterr().out.strip() == "mse=0.0000 psnr_db=inf"

    def test_no_arguments_is_usage_error(self, capsys):
        assert run() == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("word", ["two\nlines", "car\rriage", "line\u2028separator"])
    def test_line_break_in_an_echoed_word_keeps_one_line(self, scene, tmp_path, word, capsys):
        _, src = scene
        assert run("inject", "--density", "0.5", src, tmp_path / "o.pgm", word) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unrecognized arguments: ")
        assert len(err.splitlines()) == 1

    def test_unknown_subcommand(self, capsys):
        assert run("upscale") == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "inject" in capsys.readouterr().out


# argv words the fuzz test draws: every option and command, values on each
# side of each check, and the names of the files in its working directory
_WORDS = [
    "inject", "denoise", "metrics", "bench", "upscale",
    "--density", "--salt-fraction", "--seed", "--filter", "--window", "--max-window",
    "--ref", "--test", "--noisy", "--image", "--densities", "--filters", "--csv", "--svg",
    "--help", "-h", "--", "-", "--d", "two\nlines", "car\rriage",
    "smf", "amf", "mdbutmf", "rmf", "rmf,amf", "smf,,", "box",
    "-1", "0", "1", "2", "3", "5", "7", "9", "0.5", "1.5", "30", "100", "150",
    "nan", "inf", "-inf", "1e400", "18446744073709551616",
    "10,50,90", "10:90:40", "1:100:1", "1:2:inf", "1:100:1e-12", "50:10:10", "0:0:0", ",",
    "clean.pgm", "noisy.pgm", "ascii.pgm", "small.pgm", "bad.pgm", "empty.pgm",
    "missing.pgm", "sub", "out.pgm", "out.csv", "out.svg",
]
# free text holds no digit, so it never names a window, and no '/', so it never leaves the directory
_FREE_TEXT = st.text(st.characters(exclude_characters="/0123456789"), max_size=6)
_TOKEN = st.one_of(st.sampled_from(_WORDS), _FREE_TEXT)
# one valid call per command, for the fuzz test to edit
_COMMANDS = [
    ["inject", "--density", "30", "clean.pgm", "out.pgm"],
    ["denoise", "--filter", "amf", "--window", "3", "noisy.pgm", "out.pgm"],
    ["metrics", "--ref", "clean.pgm", "--test", "out.pgm", "--noisy", "noisy.pgm"],
    ["bench", "--image", "clean.pgm", "--densities", "10,90", "--filters", "rmf,amf", "--csv", "out.csv"],
]


@st.composite
def _edited_commands(draw):
    """A valid call with a few words replaced, inserted or deleted."""
    argv = list(draw(st.sampled_from(_COMMANDS)))
    for at, edit, word in draw(st.lists(
        st.tuples(st.integers(0, 15), st.sampled_from(["replace", "insert", "delete"]), _TOKEN),
        max_size=4,
    )):
        at %= len(argv) + 1
        if edit == "insert":
            argv.insert(at, word)
        elif at < len(argv):
            argv[at : at + 1] = [word] if edit == "replace" else []
    return argv


@pytest.fixture(scope="class")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    clean = synthetic_test_image(8)
    (root / "clean.pgm").write_bytes(write_pgm(clean, "binary"))
    (root / "noisy.pgm").write_bytes(write_pgm(inject(clean, NoiseSpec(density=0.5)), "binary"))
    (root / "ascii.pgm").write_bytes(write_pgm(clean, "ascii"))
    (root / "small.pgm").write_bytes(write_pgm(synthetic_test_image(4), "binary"))
    (root / "bad.pgm").write_bytes(b"P5\n8 8\n255\n" + bytes(10))
    (root / "empty.pgm").write_bytes(b"")
    (root / "sub").mkdir()
    return root


class TestDispatchFuzz:
    """Arbitrary argv gives a documented exit code and at most one error line."""

    @given(argv=st.one_of(_edited_commands(), st.lists(_TOKEN, max_size=12)))
    @settings(max_examples=300)
    def test_arbitrary_argv(self, fuzz_dir, argv):
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(fuzz_dir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = dispatch(argv)
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2, 3, 4)
        message = err.getvalue()
        if code == 0:
            assert message == ""
        else:
            assert message.startswith("error: ") and message.endswith("\n")
            assert len(message.splitlines()) == 1, message


class TestPipeline:
    def test_inject_denoise_metrics_round(self, scene, tmp_path, capsys):
        _, src = scene
        noisy, restored = tmp_path / "noisy.pgm", tmp_path / "restored.pgm"
        assert run("inject", "--density", "30", "--seed", "42", src, noisy) == 0
        assert run("denoise", "--filter", "rmf", noisy, restored) == 0
        assert run("metrics", "--ref", src, "--test", restored, "--noisy", noisy) == 0
        line = capsys.readouterr().out.strip()
        fields = dict(token.split("=") for token in line.split(" "))
        assert float(fields["mse"]) > 0.0
        assert float(fields["psnr_db"]) > 0.0
        assert float(fields["ief"]) > 1.0

    def test_repeated_runs_write_identical_images(self, scene, tmp_path):
        _, src = scene
        a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
        assert run("inject", "--density", "0.3", "--seed", "9", src, a) == 0
        assert run("inject", "--density", "0.3", "--seed", "9", src, b) == 0
        assert a.read_bytes() == b.read_bytes()


class TestConsoleScript:
    def test_entry_point_help(self):
        exe = shutil.which("saltpepper")
        assert exe, "console script 'saltpepper' not on PATH"
        result = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert result.returncode == 0
        assert "inject" in result.stdout

    def test_python_m_help_matches_dispatch(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
        assert dispatch(["--help"]) == 0
        expected = capsys.readouterr().out
        result = subprocess.run(
            [sys.executable, "-m", "saltpepper", "--help"], capture_output=True, text=True
        )
        assert result.returncode == 0
        assert result.stdout == expected

    def test_module_process_exit_code(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-c", "from saltpepper.cli import main; main()",
             "inject", "--density", "0.5", str(tmp_path / "absent.pgm"), str(tmp_path / "o.pgm")],
            capture_output=True, text=True,
        )
        assert result.returncode == 2
        assert result.stderr.startswith("error:")