"""polarchan benchmark: three closed-loop workloads and a traced per-module run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid_sim --seed 1 --seconds 25 --trace 0

``--trace 0`` times the workload and prints the end-to-end metrics;
``--trace 1`` instead alternates untraced and traced passes over a fixed,
seeded item set and prints the per-module metrics.  Earlier stdout lines
carry the environment record and details; the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See perfbench/README.md for why each workload exists and which module
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("grid_sim", "tomo_mc", "cli_modes")
SETUP_PROBES = 5

#: item time between two reference loops in the timed runs
REFERENCE_EVERY_NS = 50_000_000

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p99_ms": "ms",
    "peak_rss_mib": "MiB",
}

_CALLS_SELF = [
    "polar_core.waveplate_jones", "polar_core.rotation2",
    "bench_sim.propagate", "bench_sim.apply_channel",
    "depolarizer.radii_closed_form", "depolarizer.in_reachable_region",
    "channel_analysis.chi_eigenvalues", "channel_analysis.pauli_feasible",
    "tomography.minimize",
]
_SELF_ONLY = [
    "bench_sim.normalize_delays", "bench_sim.affine_map", "depolarizer.build_bench",
    "channel_analysis.chi_from_kraus", "channel_analysis.polar_decompose",
    "tomography.probability_table", "tomography.simulate_counts", "tomography.qpt_linear",
    "tomography.qpt_mle", "tomography.trace_preservation_deviation",
    "cli.parse_config", "cli.run_sweep", "cli.run_feasibility", "cli.run_region", "cli.main",
]
_COUNTERS = {
    "bench_sim.kraus_ops": "count",
    "tomography.mle_iterations": "count",
    "tomography.mle_nonconverged": "count",
    "cli.rows_out": "count",
    "cli.bytes_out": "B",
}

PER_LAYER = {}
for _name in _CALLS_SELF:
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.self_ms"] = "ms"
for _name in _SELF_ONLY:
    PER_LAYER[f"{_name}.self_ms"] = "ms"
PER_LAYER.update(_COUNTERS)
PER_LAYER["cli.import_polarchan_ms"] = "ms"
PER_LAYER["cli.import_scipy_optimize_ms"] = "ms"
PER_LAYER["trace_overhead"] = "ratio"


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def _import_program():
    """Import polarchan from this checkout's sources, never from elsewhere."""
    if not (SRC / "polarchan" / "__init__.py").is_file():
        _fail(f"no polarchan sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import polarchan

    if Path(polarchan.__file__).resolve().parent != (SRC / "polarchan").resolve():
        _fail(f"imported polarchan from {polarchan.__file__}, not from {SRC}")


def _git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(load_1min: float) -> dict:
    """What the result depends on outside the code; reads settings, sets none."""
    import numpy
    import scipy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = dict(config["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        pass
    threads = {k: os.environ[k] for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
               if k in os.environ}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "openblas_config": blas.get("openblas configuration"),
                 "thread_env": threads or "unset (library default)"},
        "git_commit": _git_commit(),
        "loadavg_1min_at_start": load_1min,
        "reference_loop_ms_at_start": hostspeed.median_loop_ns(15) / 1e6,
    }


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------

def _make_workload(name: str, seed: int, small: bool, workdir: Path):
    import workloads

    if name == "grid_sim":
        return workloads.GridSim(seed, small)
    if name == "tomo_mc":
        return workloads.TomoMC(seed, small)
    return workloads.CliModes(seed, workdir, small)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def _run_checked(workload, item, tally: Tally):
    """Time one item and check it; returns the latency in ns."""
    start = time.perf_counter_ns()
    try:
        result = workload.run(item)
    except Exception as exc:  # an item that raises is a failed item, not a crash
        elapsed = time.perf_counter_ns() - start
        sys.stderr.write(f"perfbench: item {item!r} raised {exc!r}\n")
        tally.record(False)
        return elapsed
    elapsed = time.perf_counter_ns() - start
    ok = workload.check(item, result)
    if not ok:
        sys.stderr.write(f"perfbench: item {item!r} failed its check\n")
    tally.record(ok)
    return elapsed


def _setup(name: str, seed: int, small: bool, workdir: Path, tally: Tally):
    workload = _make_workload(name, seed, small, workdir)
    for item in workload.items[:workload.warmup_items]:
        _run_checked(workload, item, tally)
    return workload


def _percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


def _setup_probe_times(name: str, seed: int, small: bool) -> list:
    """Set-up of fresh processes, interpreter start to the end of warm-up:
    (raw ns, local reference ns) per probe."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    if small:
        argv.append("--small")
    walls, pool = [], []
    for _ in range(SETUP_PROBES):
        _, wall = hostspeed.bracketed(lambda: subprocess.run(
            argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=150), pool)
        walls.append(wall)
    return [(wall, statistics.median(pool)) for wall in walls]


def _latency_metrics(samples, setup_samples, rss_kib: float) -> tuple:
    """End-to-end metrics from (raw ns, local reference ns) pairs, normalised,
    plus the same figures unnormalised for the detail line."""
    def figures(values_ms, setup_ms):
        values_ms = sorted(values_ms)
        return {
            "setup_s": statistics.median(setup_ms) / 1e3,
            "items_per_s": len(values_ms) / (sum(values_ms) / 1e3),
            "item_p50_ms": statistics.median(values_ms),
            "item_p99_ms": _percentile(values_ms, 0.99),
            "peak_rss_mib": rss_kib / 1024.0,
        }

    normalised = figures([hostspeed.to_ms(ns, ref) for ns, ref in samples],
                         [hostspeed.to_ms(ns, ref) for ns, ref in setup_samples])
    raw = figures([ns / 1e6 for ns, _ in samples], [ns / 1e6 for ns, _ in setup_samples])
    refs = [ref for _, ref in samples] + [ref for _, ref in setup_samples]
    return normalised, {"raw": raw, "reference_loop_ms_median": statistics.median(refs) / 1e6}


def timed_items(name: str, seed: int, seconds: float, small: bool, workdir: Path):
    import workloads

    tally = Tally()
    if name == "cli_modes":
        setup_samples = workloads.fresh_import_times(SRC, SETUP_PROBES)
    else:
        setup_samples = _setup_probe_times(name, seed, small)
    workload = _setup(name, seed, small, workdir, tally)
    items = workload.items
    cycle = getattr(workload, "cycle", 1)
    latencies, blocks, refs = [], [], []
    measured = block = 0
    while measured < seconds * 1e9 or len(latencies) % cycle:
        ns = _run_checked(workload, items[len(latencies) % len(items)], tally)
        latencies.append(ns)
        blocks.append(len(refs))
        measured += ns
        block += ns
        if block >= REFERENCE_EVERY_NS:
            refs.append(hostspeed.reference_loop_ns())
            block = 0
    refs.append(hostspeed.reference_loop_ns())
    local = hostspeed.local_references(refs)
    ok = workload.finish()
    samples = [(ns, local[b]) for ns, b in zip(latencies, blocks)]
    metrics, detail = _latency_metrics(
        samples, setup_samples, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    detail.update({"items_timed": len(latencies), "run_level_gate": ok})
    if name == "cli_modes":
        # ~40 invocations cannot resolve a p99: report the slowest mode's median
        modes = {case.name: [] for case in workload.cases}
        for k, (ns, ref) in enumerate(samples):
            modes[items[k % len(items)].name].append((ns, ref))
        mode_s = {f"{mode}_s": statistics.median(hostspeed.to_ms(*s) for s in walls) / 1e3
                  for mode, walls in modes.items()}
        metrics["item_p99_ms"] = max(mode_s.values()) * 1e3
        detail["raw"]["item_p99_ms"] = max(
            statistics.median(ns for ns, _ in walls) for walls in modes.values()) / 1e6
        detail.update(mode_s)
    if hasattr(workload, "detail"):
        detail.update(workload.detail())
    return ok, tally, metrics, detail


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def _item_pass(workload, tracer, tally: Tally):
    for k, item in enumerate(workload.items[:workload.trace_items]):
        if tracer is None:
            _run_checked(workload, item, tally)
            continue
        tracer.current_item = k
        with tracer.span("perfbench.item"):
            _run_checked(workload, item, tally)


def traced(name: str, seed: int, seconds: float, small: bool, workdir: Path, spans_path: Path):
    import spans
    import workloads

    tally = Tally()
    import_total_ms, import_scipy_ms = workloads.import_split_ms(SRC, 3)
    workload = _setup(name, seed, small, workdir, tally)
    sizes = {"rows": 0, "bytes": 0}
    tracer = spans.Tracer()
    plain, traced_walls, refs = [], [], []
    spent = 0.0
    while spent < seconds or not traced_walls:
        refs.append(hostspeed.median_loop_ns(5))
        for tracing in (False, True):
            if tracing:
                tracer.install()
            rows, size = getattr(workload, "rows_out", 0), getattr(workload, "bytes_out", 0)
            start = time.perf_counter()
            try:
                _item_pass(workload, tracer if tracing else None, tally)
            finally:
                if tracing:
                    tracer.uninstall()
            wall = time.perf_counter() - start
            if tracing:
                sizes["rows"] += getattr(workload, "rows_out", 0) - rows
                sizes["bytes"] += getattr(workload, "bytes_out", 0) - size
            (traced_walls if tracing else plain).append(wall)
            spent += wall
    ok = workload.finish()

    refs.append(hostspeed.median_loop_ns(5))
    reference_ns = statistics.median(refs)
    passes = len(traced_walls)
    calls, self_ns, excess_ns = tracer.summary()
    counters = tracer.counters()
    metrics = {}
    for metric in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            metrics[metric] = calls.get(base, 0) / passes
        elif kind == "self_ms":
            metrics[metric] = hostspeed.to_ms(self_ns.get(base, 0), reference_ns) / passes
    for metric in spans.COUNTERS:
        metrics[metric] = counters.get(metric, 0) / passes
    metrics["cli.rows_out"] = sizes["rows"] / passes
    metrics["cli.bytes_out"] = sizes["bytes"] / passes
    metrics["cli.import_polarchan_ms"] = import_total_ms
    metrics["cli.import_scipy_optimize_ms"] = import_scipy_ms
    metrics["trace_overhead"] = statistics.median(traced_walls) / statistics.median(plain)

    wall_ns = sum(traced_walls) * 1e9
    self_sum = sum(self_ns.values())
    detail = {
        "passes": passes,
        "traced_pass_s": traced_walls,
        "plain_pass_s": plain,
        "spans": sum(calls.values()),
        "reference_loop_ms_median": reference_ns / 1e6,
        "harness_self_ms": hostspeed.to_ms(
            sum(v for k, v in self_ns.items() if k.startswith("perfbench.")), reference_ns) / passes,
        "parallel_overlap_ms": hostspeed.to_ms(excess_ns, reference_ns) / passes,
        # self times minus the overlap of threads cover the traced wall exactly,
        # apart from the loop between root spans
        "self_sum_error": abs(self_sum - excess_ns - wall_ns) / wall_ns,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "run_level_gate": ok,
    }
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    return ok, tally, metrics, detail


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs, for the smoke check only")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_1min = os.getloadavg()[0]
    _import_program()
    hostspeed.warm_up()
    work_parent = ROOT / ".perfbench"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_parent))
    try:
        if args.setup_probe:
            _setup(args.workload, args.seed, args.small, workdir, Tally())
            return 0
        print(json.dumps({"env": environment(load_1min)}), flush=True)
        if args.trace:
            spans_path = work_parent / f"spans-{args.workload}-seed{args.seed}.jsonl"
            ok, tally, values, detail = traced(args.workload, args.seed, args.seconds,
                                               args.small, workdir, spans_path)
            units = PER_LAYER
        else:
            ok, tally, values, detail = timed_items(args.workload, args.seed, args.seconds,
                                                    args.small, workdir)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail["fail_ratio"] = tally.failed / tally.attempted
    detail["attempted"] = tally.attempted
    print(json.dumps({"detail": detail}), flush=True)
    result = {
        "correct": bool(ok and tally.failed == 0),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": float(values[m]), "unit": u} for m, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
