"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload denoise-1mp --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  One process, one client, closed
loop: the next op starts only after the previous one returned and its
output was checked.  Every output is checked; ``failed / attempted``
is the fail ratio.  Every timed op runs between two runs of a fixed
calibration kernel (see ``calibrate.py``), and the gated throughput is
normalised by it.  Human-readable lines start with ``#``; the last line
of standard output is the JSON result.  With ``--trace 0`` it holds the
end-to-end metrics of ``BENCHMARK.json``.  With ``--trace 1`` every
other round is traced, the result holds the per-layer metrics, and the
spans are written to ``.perfbench/trace-<workload>-seed<seed>.json``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from tracing import NullTracer, Tracer, self_times_ms

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

# the import and the setup are each repeated and their medians reported,
# so one slow start does not decide setup_s
SETUP_REPEATS = 9
# a run times at least this many rounds, so a traced run has a traced and an untraced one
MIN_ROUNDS = 2
PERCENTILES = (50, 90, 95, 99, 99.9)


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest listed percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    ordered = sorted(values)
    best = None
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            best = (p, ordered[min(n - 1, int(p / 100 * n))])
    return best


def summary(values: list[float]) -> str:
    tail = tail_percentile(values)
    tail_text = f"p{tail[0]:g} {tail[1]:.3f}" if tail else "no percentile has 10 samples beyond it"
    return f"p50 {statistics.median(values):.3f}  {tail_text}  n={len(values)}"


def machine_header(workload) -> dict:
    """CPU, caches, versions and code identity, read without changing anything."""
    import numpy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            names = (line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
            model = next(names, model)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "saltpepper").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "workload": workload.name,
        "image_bytes": workload.image_bytes,
    }


def import_seconds() -> float:
    """Median time a fresh interpreter takes to ``import saltpepper`` from this checkout."""
    code = "import time; t = time.perf_counter(); import saltpepper; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = [
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout)
        for _ in range(SETUP_REPEATS)
    ]
    return statistics.median(samples)


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclass
class Sample:
    traced: bool
    label: str
    seconds: float  # raw wall time
    norm_s: float  # at the calibration kernel's nominal speed


class Run:
    """The closed loop over one workload, with its counts and samples."""

    def __init__(self, workload, tracer):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.ops: list[Sample] = []

    def one(self, index: int, traced: bool, timed: bool) -> None:
        """Run, time and check one op; a timed op runs between two calibration runs."""
        tr = self.tracer if traced else NullTracer()
        kernel = self.workload.calibration
        self.attempted += 1
        try:
            before = kernel.seconds() if timed else 0.0
            start = time.perf_counter()
            with tr.span("op"):
                output = self.workload.op(tr, index)
            seconds = time.perf_counter() - start
            if timed:
                norm_s = seconds / ((before + kernel.seconds()) / 2) * kernel.nominal_s
                self.ops.append(Sample(traced, output.label, seconds, norm_s))
            errors = self.workload.check(output, index)
        except Exception as exc:
            traceback.print_exc()
            errors = [f"op {index} raised {exc!r}"]
        for error in errors:
            print(f"# FAIL op {index}: {error}", file=sys.stderr)
        self.failed += bool(errors)

    def loop(self, seconds: float, trace: bool) -> None:
        """Warm up for one round, then run whole rounds for ``seconds``.

        A traced run traces every other round.  Ops move between the CPUs
        this process may use, two ops at a time, so a busy neighbour on one
        CPU slows part of every run rather than all of some runs.
        """
        per_round = self.workload.ops_per_round
        cpus = sorted(os.sched_getaffinity(0))
        try:
            for index in range(per_round):  # checked, not timed
                self.one(index, traced=False, timed=False)
            start = time.perf_counter()
            index = per_round
            while (index < per_round * (1 + MIN_ROUNDS) or index % per_round
                   or time.perf_counter() - start < seconds):
                os.sched_setaffinity(0, {cpus[index // 2 % len(cpus)]})
                self.one(index, traced=trace and index // per_round % 2 == 0, timed=True)
                index += 1
        finally:
            os.sched_setaffinity(0, cpus)


def round_seconds(samples: list[Sample]) -> float:
    """The median normalised time of each op label, summed over one round."""
    by_label = defaultdict(list)
    for s in samples:
        by_label[s.label].append(s.norm_s)
    return sum(statistics.median(v) for v in by_label.values())


def end_to_end(workload, run: Run, setup_s: float) -> dict:
    plain = [s for s in run.ops if not s.traced]
    return {
        "mpix_per_s_norm": workload.px_per_round / round_seconds(plain) / 1e6,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def per_layer(spans: list, run: Run, names: list[str]) -> dict:
    """Per-layer metrics from the spans: medians per call, or per op for byte and self-time sums."""
    samples = defaultdict(list)
    per_op = defaultdict(lambda: defaultdict(float))
    for span, self_ms in zip(spans, self_times_ms(spans)):
        a, name = span.attrs, span.name
        if name == "raster.read_pgm":
            samples[f"raster.read_pgm.{a['fmt']}_ms"].append(span.ms)
            per_op[span.op_id]["raster.bytes_in"] += a["bytes"]
            if a["fmt"] == "p2":
                samples["raster.p2_ns_per_byte"].append(span.ms * 1e6 / a["bytes"])
        elif name == "raster.write_pgm":
            samples[f"raster.write_pgm.{a['mode']}_ms"].append(span.ms)
            per_op[span.op_id]["raster.bytes_out"] += a["bytes"]
        elif name == "filters.apply_filter":
            c = f"filters.{a['config']}"
            samples[f"{c}.ms"].append(span.ms)
            samples[f"{c}.ns_per_px"].append(span.ms * 1e6 / a["px"])
            samples[f"{c}.peak_mib"].append(a["peak_bytes"] / 2**20)
            samples[f"{c}.replaced"].append(a["replaced"])
            samples[f"{c}.flagged"].append(a["flagged"])
            samples[f"{c}.useful_ratio"].append(a["useful"] / max(a["replaced"], 1))
        elif name == "bench.run_grid":
            # the program's own per-call timings, from each row's elapsed_ms
            filter_ms = sum(a["filter_ms"].values())
            samples["bench.run_grid_ms"].append(span.ms)
            samples["bench.filter_ms"].append(filter_ms)
            samples["bench.other_ms"].append(span.ms - filter_ms)
            for kind, ms in a["filter_ms"].items():
                samples[f"filters.{kind}.ms"].append(ms)
                samples[f"filters.{kind}.ns_per_px"].append(ms * 1e6 / a["filter_px"])
        elif "." in name:
            samples[f"{name}_ms"].append(span.ms)
            if "impulse_px" in a:
                samples["noise.impulse_px"].append(a["impulse_px"])
        else:  # the benchmark's own op span, whose self time is file I/O
            per_op[span.op_id]["op.self_ms"] += self_ms
    for sums in per_op.values():
        for key, value in sums.items():
            samples[key].append(value)
    traced = round_seconds([s for s in run.ops if s.traced])
    untraced = round_seconds([s for s in run.ops if not s.traced])
    samples["trace.overhead_pct"].append((traced / untraced - 1.0) * 100.0)
    unknown = set(samples) - set(names)
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = dict.fromkeys(names, 0.0)  # 0 where the layer does not run on this workload
    metrics.update({key: float(statistics.median(v)) for key, v in samples.items()})
    return metrics


def measure(workload, seconds: float, trace: bool, spec: dict, import_s: float = 0.0):
    """Set up, warm up, loop; return the result object and the human-readable lines."""
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)

    run = Run(workload, Tracer() if trace else None)
    run.loop(seconds, trace)
    plain = [s for s in run.ops if not s.traced]
    raw_mpix = (workload.px_per_round / workload.ops_per_round * len(plain)
                / sum(s.seconds for s in plain) / 1e6)
    lines = [f"# attempted {run.attempted}  failed {run.failed}  "
             f"fail_ratio {run.failed / max(run.attempted, 1):.4f}",
             f"# mpix_per_s  {raw_mpix:.6g} Mpx/s  (raw wall time)"]
    for label in dict.fromkeys(s.label for s in plain):
        name = workload.latency if label == workload.name else f"{workload.latency}.{label}"
        lines.append(f"# {name}  {summary([s.seconds * 1000 for s in plain if s.label == label])}")
    kernel = workload.calibration
    kernel_ms = [s.seconds / s.norm_s * kernel.nominal_s * 1000 for s in run.ops]
    lines.append(f"# calibration kernel {kernel.name} ms  {summary(kernel_ms)}  "
                 f"nominal {kernel.nominal_s * 1000:g}")

    if trace:
        entries = spec["per_layer"]
        values = per_layer(run.tracer.spans, run, [e["name"] for e in entries])
    else:
        entries = spec["end_to_end"]
        values = end_to_end(workload, run, setup_s)
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in entries}
    lines += [f"# {name}  {m['value']:.6g} {m['unit']}" for name, m in metrics.items()
              if not trace or m["value"]]
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    return result, lines, run


def write_trace(path: Path, header: dict, run: Run, result: dict) -> None:
    spans = run.tracer.spans
    path.write_text(json.dumps({
        "header": header,
        "result": result,
        "spans": [{"name": s.name, "op_id": s.op_id, "parent": s.parent, "start": s.start,
                   "end": s.end, "self_ms": self_ms, "attrs": s.attrs}
                  for s, self_ms in zip(spans, self_times_ms(spans))],
    }, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "saltpepper" / "__init__.py",
              ROOT / "tests" / "_reference.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a saltpepper source checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}: expected one of {', '.join(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    digests = json.loads((HERE / "digests.json").read_text())[args.workload]
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](
            args.seed, workdir, digests=digests if args.seed == DEFAULT_SEED else None)
        header = machine_header(workload)
        print("# machine " + json.dumps(header))
        result, lines, run = measure(workload, args.seconds, bool(args.trace), spec,
                                     import_seconds())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("\n".join(lines))
    if args.trace:
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        write_trace(trace_path, header, run, result)
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
