"""The benchmark's workloads: inputs made from a seed, one op, and its output check.

Each workload drives saltpepper through its public functions only.
``setup`` makes the inputs and writes the input files, ``op`` runs one
operation of the closed loop and returns its output, and ``check``
returns the problems found in it (none when it is correct).  A round is
``ops_per_round`` ops, one of each label; ``calibration`` is the fixed
kernel of the same kind of work that is timed beside every op.
Spans around every public call are recorded when the tracer is enabled.
"""

from __future__ import annotations

import hashlib
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import saltpepper as sp
from _reference import ref_amf, ref_mdbutmf, ref_rmf, ref_smf
from calibrate import GROW, INTERP, STACK

DEFAULT_SEED = 0

# side of the interior crop checked against the brute-force oracle
CROP = 16

# window-3 oracle and the crop padding it needs (amf grows to window 7)
_ORACLES = {
    "smf": (ref_smf, 1),
    "amf": (ref_amf, 3),
    "mdbutmf": (ref_mdbutmf, 1),
    "rmf": (ref_rmf, 1),
}


def subseed(seed: int, label: str) -> int:
    """A 64-bit seed for one input of a workload, derived from the run seed."""
    return int.from_bytes(hashlib.sha256(f"{seed}/{label}".encode()).digest()[:8], "little")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def impulses(pixels: np.ndarray) -> np.ndarray:
    return (pixels == 0) | (pixels == 255)


def expected_noise(pixels: np.ndarray, density: float, seed: int) -> np.ndarray:
    """Salt-and-pepper injection as saltpepper documents its RNG discipline."""
    rng = np.random.default_rng(seed)
    select = rng.random(pixels.shape) < density
    salt = rng.random(pixels.shape) < 0.5
    return np.where(select, np.where(salt, 255, 0), pixels).astype(np.uint8)


def pgm_bytes(pixels: np.ndarray, mode: str) -> bytes:
    """The PGM layout saltpepper documents for ``write_pgm``."""
    h, w = pixels.shape
    if mode == "binary":
        return f"P5\n{w} {h}\n255\n".encode() + pixels.tobytes()
    body = "\n".join(" ".join(map(str, row)) for row in pixels.tolist())
    return f"P2\n{w} {h}\n255\n{body}\n".encode()


def digest_errors(digests: dict | None, label: str, data: bytes) -> list[str]:
    if digests is not None and sha256(data) != digests[label]:
        return [f"{label}: output digest differs from the recorded one"]
    return []


def oracle_errors(label: str, kind: str, noisy: np.ndarray, restored: np.ndarray,
                  rng: np.random.Generator) -> list[str]:
    """Compare an interior crop with the oracle run on the crop padded by its window radius."""
    ref, pad = _ORACLES[kind]
    h, w = noisy.shape
    c = min(CROP, h - 2 * pad, w - 2 * pad)
    y = int(rng.integers(pad, h - pad - c + 1))
    x = int(rng.integers(pad, w - pad - c + 1))
    want = np.array(ref(noisy[y - pad:y + c + pad, x - pad:x + c + pad].tolist()))
    if np.array_equal(want[pad:pad + c, pad:pad + c], restored[y:y + c, x:x + c]):
        return []
    return [f"{label}: {c}x{c} crop at ({y}, {x}) differs from the oracle"]


def gated_errors(label: str, noisy: np.ndarray, restored: sp.RestoredImage) -> list[str]:
    flagged = impulses(noisy)
    errors = []
    if not np.array_equal(restored.image.pixels[~flagged], noisy[~flagged]):
        errors.append(f"{label}: a non-impulse pixel changed")
    if restored.replaced_count != int(flagged.sum()):
        errors.append(f"{label}: replaced_count {restored.replaced_count} != "
                      f"{int(flagged.sum())} impulses in the input")
    return errors


def compare_errors(label: str, clean: np.ndarray, noisy: np.ndarray, restored: np.ndarray,
                   report) -> list[str]:
    """Check mse, psnr_db and ief of ``report`` (a MetricsReport or BenchRow)."""
    residual = int(((clean.astype(np.int64) - restored) ** 2).sum())
    before = int(((clean.astype(np.int64) - noisy) ** 2).sum())
    mse = residual / clean.size
    psnr = math.inf if mse == 0 else 10.0 * math.log10(255 * 255 / mse)
    ief = math.inf if residual == 0 else before / residual
    got = (report.mse, report.psnr_db, report.ief)
    if all(math.isclose(g, w, rel_tol=1e-9) for g, w in zip(got, (mse, psnr, ief))):
        return []
    return [f"{label}: metrics {got} != expected {(mse, psnr, ief)}"]


def filter_counts(noisy: np.ndarray, restored: sp.RestoredImage) -> dict:
    """Flagged input pixels, replaced pixels, and impulses the filter changed."""
    flagged = impulses(noisy)
    changed = flagged & (restored.image.pixels != noisy)
    return {"flagged": int(flagged.sum()), "replaced": restored.replaced_count,
            "useful": int(changed.sum())}


@dataclass
class Output:
    label: str  # the config on denoise-1mp, the workload name elsewhere
    value: tuple


class Denoise:
    """``saltpepper denoise`` then ``saltpepper metrics`` on a 1024x1024 image.

    Each op restores with one config; ops cycle through the six.
    """

    name = "denoise-1mp"
    latency = "restore_ms"
    calibration = STACK
    # config -> (filter, noise density in %); heavy noise is met with window 7
    CONFIGS = {
        "smf": (sp.FilterConfig("smf"), 50),
        "amf": (sp.FilterConfig("amf", window_size=3, max_window_size=7), 50),
        "mdbutmf": (sp.FilterConfig("mdbutmf"), 50),
        "rmf": (sp.FilterConfig("rmf"), 50),
        "mdbutmf_w7": (sp.FilterConfig("mdbutmf", window_size=7), 90),
        "rmf_w7": (sp.FilterConfig("rmf", window_size=7), 90),
    }

    def __init__(self, seed: int, workdir: Path, size: int = 1024, digests: dict | None = None):
        self.seed, self.workdir, self.size, self.digests = seed, workdir, size, digests
        self.image_bytes = size * size
        self.ops_per_round = len(self.CONFIGS)
        self.px_per_round = len(self.CONFIGS) * size * size

    def setup(self) -> None:
        self.clean = sp.synthetic_test_image(self.size)
        self.inputs = {}
        for pct in (50, 90):
            spec = sp.NoiseSpec(pct / 100, seed=subseed(self.seed, f"noisy{pct}"))
            noisy = sp.inject(self.clean, spec)
            path = self.workdir / f"noisy{pct}.pgm"
            path.write_bytes(sp.write_pgm(noisy, "binary"))
            self.inputs[pct] = path

    def op(self, tr, index: int) -> Output:
        label = list(self.CONFIGS)[index % len(self.CONFIGS)]
        config, pct = self.CONFIGS[label]
        data = self.inputs[pct].read_bytes()
        with tr.span("raster.read_pgm", fmt="p5", bytes=len(data)):
            noisy = sp.read_pgm(data)
        with tr.span("filters.apply_filter", memory=True, config=label,
                     px=noisy.width * noisy.height) as f:
            restored = sp.apply_filter(noisy, config)
        with tr.span("raster.write_pgm", mode="binary") as w:
            out = sp.write_pgm(restored.image, "binary")
        w["bytes"] = len(out)
        (self.workdir / f"restored_{label}.pgm").write_bytes(out)
        with tr.span("metrics.compare"):
            report = sp.compare(self.clean, restored.image, noisy)
        if tr.enabled:
            f.update(filter_counts(noisy.pixels, restored))
        return Output(label, (noisy.pixels, restored, out, report))

    def payload(self, output: Output) -> bytes:
        """The bytes whose digest is recorded: the restored P5 file."""
        return output.value[2]

    def check(self, output: Output, op_index: int) -> list[str]:
        noisy, restored, data, report = output.value
        label = output.label
        config = self.CONFIGS[label][0]
        got = restored.image.pixels
        errors = digest_errors(self.digests, label, self.payload(output))
        if data != pgm_bytes(got, "binary"):
            errors.append(f"{label}: P5 bytes do not encode the restored image")
        if config.kind in ("mdbutmf", "rmf"):
            errors += gated_errors(label, noisy, restored)
        if config.window_size == 3:
            rng = np.random.default_rng(subseed(self.seed, f"crop/{op_index}/{label}"))
            errors += oracle_errors(label, config.kind, noisy, got, rng)
        return errors + compare_errors(label, self.clean.pixels, noisy, got, report)


class Sweep:
    """One ``run_grid`` over 10..90 % noise with all four filters, then CSV and SVG."""

    name = "sweep-256"
    latency = "sweep_ms"
    calibration = GROW
    ops_per_round = 1
    DENSITIES = tuple(range(10, 100, 10))

    def __init__(self, seed: int, workdir: Path, size: int = 256, digests: dict | None = None):
        self.seed, self.workdir, self.size, self.digests = seed, workdir, size, digests
        self.image_bytes = size * size
        self.px_per_round = len(self.DENSITIES) * len(sp.FILTER_KINDS) * size * size
        self.cells = [(pct, kind) for pct in self.DENSITIES for kind in sp.FILTER_KINDS]

    def setup(self) -> None:
        self.source = sp.synthetic_test_image(self.size)
        self.grid = sp.BenchGrid(
            source=self.source,
            densities=self.DENSITIES,
            filters=tuple(sp.FilterConfig(kind) for kind in sp.FILTER_KINDS),
            seed=self.seed,
            image_name="synthetic",
        )

    def op(self, tr, index: int) -> Output:
        with tr.span("bench.run_grid") as g:
            rows = sp.run_grid(self.grid)
        with tr.span("bench.to_csv"):
            csv = sp.to_csv(rows)
        with tr.span("bench.to_svg"):
            svg = sp.to_svg(rows)
        (self.workdir / "sweep.csv").write_bytes(csv)
        (self.workdir / "sweep.svg").write_bytes(svg)
        if tr.enabled:
            g["filter_ms"] = {k: sum(r.elapsed_ms for r in rows if r.filter == k)
                              for k in sp.FILTER_KINDS}
            g["filter_px"] = len(self.DENSITIES) * self.size * self.size
        return Output(self.name, (rows, csv, svg))

    def payload(self, output: Output) -> bytes:
        """The bytes whose digest is recorded: the CSV without its elapsed_ms column."""
        return b"\n".join(line.rsplit(b",", 1)[0] for line in output.value[1].splitlines())

    def check(self, output: Output, op_index: int) -> list[str]:
        rows, csv, svg = output.value
        if [(r.density_pct, r.filter) for r in rows] != self.cells:
            return [f"{self.name}: rows are not the densities x filters grid in order"]
        lines = csv.splitlines()
        errors = digest_errors(self.digests, self.name, self.payload(output))
        if lines[0] != sp.CSV_HEADER.encode() or len(lines) != len(rows) + 1:
            errors.append(f"{self.name}: CSV header or row count is wrong")
        try:
            ET.fromstring(svg)
        except ET.ParseError as exc:
            errors.append(f"{self.name}: SVG is not well-formed: {exc}")
        # one cell per op, rebuilt from the documented noise and checked against the oracle
        index = (subseed(self.seed, "cell") + op_index) % len(self.cells)
        pct, kind = self.cells[index]
        noisy = expected_noise(self.source.pixels, pct / 100, sp.density_subseed(self.seed, pct))
        restored = sp.apply_filter(sp.GrayImage(noisy), sp.FilterConfig(kind)).image.pixels
        label = f"{self.name} {kind}@{pct}%"
        rng = np.random.default_rng(subseed(self.seed, f"crop/{op_index}"))
        errors += oracle_errors(label, kind, noisy, restored, rng)
        return errors + compare_errors(label, self.source.pixels, noisy, restored, rows[index])


class PgmAscii:
    """Dataset preparation: read a P2 file, inject 30 % noise, write it back as P2."""

    name = "pgm-ascii"
    latency = "codec_ms"
    calibration = INTERP
    ops_per_round = 1
    DENSITY = 0.3

    def __init__(self, seed: int, workdir: Path, size: int = 512, digests: dict | None = None):
        self.seed, self.workdir, self.size, self.digests = seed, workdir, size, digests
        self.image_bytes = size * size
        self.px_per_round = size * size

    def setup(self) -> None:
        self.source = sp.synthetic_test_image(self.size)
        self.input = self.workdir / "source_ascii.pgm"
        self.input.write_bytes(sp.write_pgm(self.source, "ascii"))
        self.spec = sp.NoiseSpec(self.DENSITY, seed=subseed(self.seed, "inject"))

    def op(self, tr, index: int) -> Output:
        data = self.input.read_bytes()
        with tr.span("raster.read_pgm", fmt="p2", bytes=len(data)):
            image = sp.read_pgm(data)
        with tr.span("noise.inject") as n:
            noisy = sp.inject(image, self.spec)
        with tr.span("raster.write_pgm", mode="ascii") as w:
            out = sp.write_pgm(noisy, "ascii")
        w["bytes"] = len(out)
        (self.workdir / "noisy_ascii.pgm").write_bytes(out)
        if tr.enabled:
            n["impulse_px"] = int(impulses(noisy.pixels).sum())
        return Output(self.name, (out,))

    def payload(self, output: Output) -> bytes:
        """The bytes whose digest is recorded: the noisy P2 file."""
        return output.value[0]

    def check(self, output: Output, op_index: int) -> list[str]:
        (data,) = output.value
        errors = digest_errors(self.digests, self.name, self.payload(output))
        want = expected_noise(self.source.pixels, self.DENSITY, self.spec.seed)
        if data != pgm_bytes(want, "ascii"):
            errors.append(f"{self.name}: P2 output differs from the expected bytes")
        return errors


WORKLOADS = {w.name: w for w in (Denoise, Sweep, PgmAscii)}
