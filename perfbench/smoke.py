"""Smoke check of the benchmark itself, on tiny inputs.

    python3 perfbench/smoke.py

For every workload, with tracing off and on, it asserts that the run
succeeds, that the result line carries exactly the metrics BENCHMARK.json
names with their units, and that the traced self times cover the traced wall
time with nothing counted twice.  It also checks that ``--jobs 2`` sweep
workers hang under ``cli.run_sweep`` in the span tree, and that the benchmark
refuses to run, printing no result, where the package sources are missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SELF_SUM_TOL = 0.02

#: per-layer metrics that must be non-zero on each workload's traced run
TOUCHED = {
    "grid_sim": ("bench_sim.propagate.calls", "bench_sim.kraus_ops",
                 "channel_analysis.polar_decompose.self_ms", "polar_core.waveplate_jones.calls"),
    "tomo_mc": ("tomography.minimize.calls", "tomography.mle_iterations",
                "tomography.simulate_counts.self_ms", "tomography.qpt_linear.self_ms"),
    "cli_modes": ("cli.run_feasibility.self_ms", "cli.run_region.self_ms", "cli.main.self_ms",
                  "depolarizer.in_reachable_region.calls", "channel_analysis.pauli_feasible.calls",
                  "cli.rows_out", "cli.bytes_out", "cli.import_scipy_optimize_ms"),
}


def run(workload: str, trace: int, cwd: Path = ROOT, script: Path = RUN):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--small"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result

    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    assert got == wanted, f"metric names or units differ: {set(got) ^ set(wanted)}"
    values = {name: value["value"] for name, value in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values()), values
    if not trace:
        assert all(v > 0 for v in values.values()), values
        return

    assert detail["self_sum_error"] <= SELF_SUM_TOL, detail
    for name in TOUCHED[workload] + ("trace_overhead",):
        assert values[name] > 0, (workload, name)
    if workload == "cli_modes":
        check_worker_parents(ROOT / detail["spans_file"])


def check_worker_parents(path: Path) -> None:
    names, worker_parents = {}, []
    with open(path) as fh:
        for line in fh:
            key, name, _start, _end, parent, _item = json.loads(line)
            names[tuple(key)] = name
            if key[0] != 0 and parent is not None and parent[0] == 0:
                worker_parents.append(tuple(parent))
    assert worker_parents, "no --jobs 2 worker spans recorded"
    assert {names[p] for p in worker_parents} == {"cli.run_sweep"}, \
        {names[p] for p in worker_parents}


def check_bare_directory() -> None:
    """Without the package sources the benchmark must fail and print no result."""
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("grid_sim", 0, cwd=bare, script=bare / "perfbench" / "run.py")
        assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
            print(f"ok  {workload} --trace {trace}", flush=True)
    check_bare_directory()
    print("ok  refuses to run without the package sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
