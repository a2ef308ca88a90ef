"""Command-line interface: ``inject``, ``denoise``, ``metrics``, ``bench``.

All image arguments are PGM files (P2 or P5, maxval 255); outputs are
written as binary P5.  Density values greater than 1 are read as
percentages, so ``--density 30`` and ``--density 0.3`` mean the same
corruption level.  When ``--seed`` is omitted it defaults to 0, so every
command is reproducible by default.

Exit codes: 0 success, 1 usage error, 2 file I/O error, 3 image format
error, 4 degenerate-input error (which includes mismatched image
dimensions).  Every failure prints a one-line diagnostic to stderr.
Window sizes, filter kinds and seeds are checked by the library types a
command builds (``FilterConfig``, ``NoiseSpec``, ``BenchGrid``), whose
``ValueError`` is a usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .bench import BenchGrid, run_grid, sweep_axes, to_csv, to_svg
from .errors import DegenerateInputError, DimensionMismatchError, PgmFormatError
from .filters import FILTER_KINDS, FilterConfig, apply_filter
from .metrics import compare, format_real
from .noise import NoiseSpec, inject, require_seed
from .raster import GrayImage, read_pgm, write_pgm

__all__ = ["dispatch", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_FORMAT = 3
EXIT_DEGENERATE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # route every argparse failure through exit code 1 instead of its default 2
    def error(self, message: str):
        raise _UsageError(message)


def _read_image(path: str) -> GrayImage:
    return read_pgm(Path(path).read_bytes())


def _write_image(path: str, image: GrayImage) -> None:
    Path(path).write_bytes(write_pgm(image, "binary"))


def _parse_density(value: float) -> float:
    """Map a CLI density to a fraction: values above 1 are percentages."""
    if value < 0 or value > 100:
        raise _UsageError(
            f"density {value} out of range: expected a fraction in [0, 1] "
            "or a percentage in (1, 100]"
        )
    return value / 100.0 if value > 1 else value


def _parse_densities(text: str) -> list[int]:
    """Parse ``a:b:step`` or a comma list into integer percents."""
    try:
        if ":" in text:
            fields = text.split(":")
            if len(fields) != 3:
                raise _UsageError(f"density range {text!r} must be start:stop:step")
            start, stop, step = (float(f) for f in fields)
            if step <= 0:
                raise _UsageError(f"density range step must be positive, got {step}")
            last = (stop - start) / step + 1e-9  # index of the range's last value
            # a sweep holds at most 100 distinct whole percents: never build a longer range
            if not math.isfinite(last) or last >= 100:
                raise _UsageError(f"density range {text!r} must hold at most 100 values")
            values = [start + i * step for i in range(math.floor(last) + 1)]
        else:
            values = [float(f) for f in text.split(",") if f.strip()]
    except ValueError:
        raise _UsageError(f"could not parse densities {text!r}") from None
    if not values:
        raise _UsageError("densities list is empty")
    percents = []
    for v in values:
        if not math.isfinite(v):
            raise _UsageError(f"density {v} is not a finite number")
        pct = v * 100.0 if v <= 1 else v
        rounded = round(pct)
        if abs(pct - rounded) > 1e-6 or not 1 <= rounded <= 100:
            raise _UsageError(
                f"density {v} does not map to a whole percent in [1, 100]"
            )
        percents.append(int(rounded))
    return percents


def _cmd_inject(args: argparse.Namespace) -> int:
    spec = NoiseSpec(
        density=_parse_density(args.density),
        salt_fraction=args.salt_fraction,
        seed=args.seed,
    )
    _write_image(args.output, inject(_read_image(args.input), spec))
    return EXIT_OK


def _cmd_denoise(args: argparse.Namespace) -> int:
    config = FilterConfig(args.filter, args.window, args.max_window)
    restored = apply_filter(_read_image(args.input), config)
    _write_image(args.output, restored.image)
    return EXIT_OK


def _cmd_metrics(args: argparse.Namespace) -> int:
    reference = _read_image(args.ref)
    test = _read_image(args.test)
    noisy = _read_image(args.noisy) if args.noisy else None
    report = compare(reference, test, noisy=noisy)
    line = f"mse={format_real(report.mse)} psnr_db={format_real(report.psnr_db)}"
    if report.ief is not None:
        line += f" ief={format_real(report.ief)}"
    print(line)
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    # the seed, the filter kinds and the densities are checked before the image is read
    require_seed(args.seed)
    filters = (FilterConfig(name.strip()) for name in args.filters.split(",") if name.strip())
    densities, filters = sweep_axes(_parse_densities(args.densities), filters)
    grid = BenchGrid(
        source=_read_image(args.image),
        densities=densities,
        filters=filters,
        seed=args.seed,
        image_name=Path(args.image).stem,
    )
    rows = run_grid(grid)
    Path(args.csv).write_bytes(to_csv(rows))
    if args.svg:
        Path(args.svg).write_bytes(to_svg(rows))
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="saltpepper", description="Salt-and-pepper denoising toolkit.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("inject", help="corrupt a PGM image with salt-and-pepper noise")
    p.add_argument("--density", type=float, required=True,
                   help="fraction in [0, 1], or a percentage if > 1")
    p.add_argument("--salt-fraction", type=float, default=0.5, dest="salt_fraction",
                   help="fraction of corrupted pixels set to 255 (default 0.5)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("input", metavar="in.pgm")
    p.add_argument("output", metavar="out.pgm")
    p.set_defaults(handler=_cmd_inject)

    p = sub.add_parser("denoise", help="restore a noisy PGM image")
    p.add_argument("--filter", required=True, help=f"filter kind: {', '.join(FILTER_KINDS)}")
    least, most = FilterConfig.window_size, FilterConfig.max_window_size
    p.add_argument("--window", type=int, default=least,
                   help=f"window size (odd, {least} to {most}, default {least})")
    p.add_argument("--max-window", type=int, default=most, dest="max_window",
                   help=f"adaptive growth bound for amf (odd, window to {most}, default {most})")
    p.add_argument("input", metavar="in.pgm")
    p.add_argument("output", metavar="out.pgm")
    p.set_defaults(handler=_cmd_denoise)

    p = sub.add_parser("metrics", help="print mse/psnr (and ief) for an image pair")
    p.add_argument("--ref", required=True, metavar="clean.pgm")
    p.add_argument("--test", required=True, metavar="img.pgm")
    p.add_argument("--noisy", metavar="img.pgm",
                   help="pre-restoration image; enables the ief column")
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("bench", help="sweep filters over noise densities")
    p.add_argument("--image", required=True, metavar="in.pgm")
    p.add_argument("--densities", required=True,
                   help="a:b:step range or comma list; values > 1 are percents")
    p.add_argument("--filters", required=True, help="comma list of filter kinds")
    p.add_argument("--seed", type=int, default=0, help="sweep seed (default 0)")
    p.add_argument("--csv", required=True, metavar="out.csv")
    p.add_argument("--svg", metavar="out.svg")
    p.set_defaults(handler=_cmd_bench)

    return parser


def _fail(exc: Exception, code: int) -> int:
    # argparse echoes argv words as given, and a word may hold a line break
    print("error: " + "\\n".join(str(exc).splitlines()), file=sys.stderr)
    return code


def dispatch(argv: list[str]) -> int:
    """Parse ``argv``, run the selected subcommand, and map failures to exit codes.

    Never raises on malformed input: every failure prints a one-line
    diagnostic to stderr and becomes a nonzero exit code.
    """
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        return _fail(exc, EXIT_USAGE)
    except (DegenerateInputError, DimensionMismatchError) as exc:
        return _fail(exc, EXIT_DEGENERATE)
    except PgmFormatError as exc:
        return _fail(exc, EXIT_FORMAT)
    except ValueError as exc:  # a library type refused an argument
        return _fail(exc, EXIT_USAGE)
    except OSError as exc:
        return _fail(exc, EXIT_IO)
    except SystemExit as exc:  # argparse --help
        return 0 if exc.code is None else int(exc.code)
    except Exception as exc:  # no malformed input may abort the process
        return _fail(exc, EXIT_USAGE)


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
