"""The three workloads: setup, one timed item, its correctness check.

Each workload is a closed loop with one client in one process: the next item
starts only after the previous one has returned and been checked.  The
timed part of an item calls the package through module attributes
(``bench_sim.propagate``), so the traced run sees the wrappers that
``spans.Tracer`` installs; the checks call the original functions, bound at
import time, so they never show up as package spans.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from polarchan import bench_sim, channel_analysis, cli, depolarizer, tomography
from polarchan.channel_analysis import chi_eigenvalues as _chi_eigenvalues
from polarchan.channel_analysis import chi_from_kraus as _chi_from_kraus
from polarchan.channel_analysis import pauli_feasible as _pauli_feasible
from polarchan.depolarizer import REFLECTION_COMPENSATION
from polarchan.depolarizer import build_bench as _build_bench
from polarchan.depolarizer import radii_closed_form as _radii_closed_form
from polarchan.bench_sim import propagate as _propagate

import hostspeed
import inputs

#: correctness tolerances of the item checks
CLOSED_FORM_TOL = 1e-10
COMPLETENESS_TOL = 1e-12
SIGMA_SLACK = 1e-9
EIG_FLOOR = -1e-10
TRACE_TOL = 1e-9
MLE_EIG_TOL = 0.1
RECOVERY_TOL = 0.03          # criterion 4
RECOVERY_SHARE = 0.95        # criterion 4: >= 95 of 100 fits
CHILD_TIMEOUT_S = 150


class GridSim:
    """Per-bench analysis path over the fig1 grid plus heterogeneous benches."""

    name = "grid_sim"
    warmup_items = 40
    #: the traced pass: 252 items, one heterogeneous bench of each class
    trace_items = (inputs.HETERO_EVERY + 1) * len(inputs.HETERO_CRYSTALS) * len(inputs.HETERO_STYLES)

    def __init__(self, seed: int, small: bool = False):
        self.items = inputs.grid_items(seed, (0.0, 45.0, 9.0) if small else (0.0, 45.0, 1.0))
        if small:
            self.trace_items = len(self.items)

    def run(self, item):
        bench = depolarizer.build_bench(item.fig1) if item.fig1 is not None else item.bench
        kraus = bench_sim.propagate(bench)
        amap = bench_sim.affine_map(kraus)
        m = REFLECTION_COMPENSATION @ amap.matrix if item.fig1 is not None else amap.matrix
        report = channel_analysis.polar_decompose(m)
        lams = channel_analysis.chi_eigenvalues(channel_analysis.chi_from_kraus(kraus))
        return kraus, amap, m, report, lams

    def check(self, item, result) -> bool:
        kraus, amap, m, report, lams = result
        if not np.all(np.isfinite(lams)) or abs(lams.sum() - 1.0) > TRACE_TOL:
            return False
        if item.fig1 is not None:
            closed = np.diag(_radii_closed_form(item.fig1.theta1_deg, item.fig1.theta2_deg))
            return bool(np.abs(m - closed).max() <= CLOSED_FORM_TOL)
        sigma = np.linalg.svd(amap.matrix, compute_uv=False)[0]
        return bool(
            kraus.completeness_defect() <= COMPLETENESS_TOL
            and np.abs(amap.translation).max() <= COMPLETENESS_TOL
            and sigma <= 1.0 + SIGMA_SLACK
            and _pauli_feasible(*report.radii)[0]
        )

    def finish(self) -> bool:
        return True


class TomoMC:
    """Criterion-4-style Monte Carlo: counts, MLE fit and spectrum per item."""

    name = "tomo_mc"
    warmup_items = len(inputs.TOMO_THETA2) * 2
    trace_items = 2 * len(inputs.TOMO_THETA2) * 2

    def __init__(self, seed: int, small: bool = False):
        self.benches = []
        self.truth = []
        for theta1, theta2 in inputs.tomo_settings():
            bench = _build_bench(depolarizer.DepolarizerSettings(theta1, theta2))
            self.benches.append(bench)
            self.truth.append(_chi_eigenvalues(_chi_from_kraus(_propagate(bench))))
        self.items = inputs.tomo_items(seed, rounds=4 if small else 200)
        self.fits = 0
        self.recovered = 0

    def run(self, item):
        setting, tomo_seed = item
        kraus = bench_sim.propagate(self.benches[setting])
        record = tomography.simulate_counts(
            kraus, tomography.TomoSettings(shots=inputs.TOMO_SHOTS, seed=tomo_seed))
        fit = tomography.qpt_mle(record)
        return fit, channel_analysis.chi_eigenvalues(fit.chi)

    def check(self, item, result) -> bool:
        fit, lams = result
        deviation = float(np.abs(lams - self.truth[item[0]]).max())
        self.fits += 1
        self.recovered += deviation <= RECOVERY_TOL
        chi = np.asarray(fit.chi)
        return bool(
            np.linalg.eigvalsh(chi).min() >= EIG_FLOOR
            and abs(np.trace(chi).real - 1.0) <= TRACE_TOL
            and fit.converged
            and np.isfinite(fit.nll)
            and deviation <= MLE_EIG_TOL
        )

    def finish(self) -> bool:
        """Run-level criterion-4 gate: recovery within 0.03 for >= 95% of fits."""
        return self.fits > 0 and self.recovered >= RECOVERY_SHARE * self.fits

    def detail(self) -> dict:
        return {"fits": self.fits, "recovered_within_0.03": self.recovered}


# ---------------------------------------------------------------------------
# cli_modes
# ---------------------------------------------------------------------------

def child_env(src: Path) -> dict:
    """Environment of the import probes: the checkout's sources, no inherited seed."""
    env = {k: v for k, v in os.environ.items() if k != cli.ENV_SEED}
    env["PYTHONPATH"] = str(src)
    return env


class CliModes:
    """``cli.main(argv)`` in process, one invocation at a time, whole cycles
    over the cases.

    A fresh ``python -m polarchan`` per invocation would add the interpreter
    start and ``import polarchan`` to every item; on the shared host those
    subprocess walls spread by ~15% per invocation and by more between runs,
    which no reference loop in the parent tracks.  The import is measured on
    its own instead, in fresh interpreters, as this workload's ``setup_s``.
    """

    name = "cli_modes"

    def __init__(self, seed: int, workdir: Path, small: bool = False):
        self.cases = inputs.cli_cases(seed, small)
        self.items = self.cases
        self.warmup_items = self.trace_items = self.cycle = len(self.cases)
        self.workdir = workdir
        self.configs = {}
        for case in self.cases:
            path = workdir / f"{case.name}.cfg"
            path.write_text(case.config)
            self.configs[case.name] = path
        self.first_output = {}
        self.rows_out = self.bytes_out = 0

    def output(self, case) -> Path:
        return self.workdir / f"{case.name}.csv"

    def run(self, case) -> int:
        return cli.main([case.mode, "--config", str(self.configs[case.name]),
                         "--out", str(self.output(case)), "--jobs", str(case.jobs)])

    def check(self, case, returncode: int) -> bool:
        """Exit code, header, row count, sweep radii, and byte identity.

        Outputs are compared with the first output of the same config in
        this run (``sweep_tomo`` at --jobs 1 and 2 share a config), never
        with stored golden bytes.  The output file is removed afterwards.
        """
        out = self.output(case)
        if returncode != 0 or not out.exists():
            return False
        data = out.read_bytes()
        out.unlink()
        self.rows_out += data.count(b"\n") - 1
        self.bytes_out += len(data)
        key = case.config
        if key in self.first_output and self.first_output[key] != data:
            return False
        self.first_output.setdefault(key, data)
        lines = data.decode().splitlines()
        if tuple(lines[0].split(",")) != case.header or len(lines) - 1 != case.rows:
            return False
        if case.mode == "sweep":
            return _sweep_radii_ok(lines)
        return True

    def finish(self) -> bool:
        return True


def _sweep_radii_ok(lines) -> bool:
    header = lines[0].split(",")
    pairs = [(header.index(f"r{i}_sim"), header.index(f"r{i}_closed")) for i in (1, 2, 3)]
    for line in lines[1:]:
        cells = line.split(",")
        for s, c in pairs:
            if abs(float(cells[s]) - float(cells[c])) > CLOSED_FORM_TOL:
                return False
    return True


def fresh_import_times(src: Path, repeats: int) -> list:
    """``import polarchan`` in fresh interpreters, spawn to exit:
    (raw ns, local reference ns) per interpreter."""
    env = child_env(src)
    walls, pool = [], []
    for _ in range(repeats):
        _, wall = hostspeed.bracketed(lambda: subprocess.run(
            [sys.executable, "-c", "import polarchan"], env=env, check=True,
            timeout=CHILD_TIMEOUT_S), pool)
        walls.append(wall)
    return [(wall, statistics.median(pool)) for wall in walls]


def import_split_ms(src: Path, repeats: int) -> tuple:
    """Median cumulative ``-X importtime`` of polarchan and of scipy.optimize,
    in host-normalised ms."""
    env = child_env(src)
    total, scipy_opt, pool = [], [], []
    for _ in range(repeats):
        proc, _ = hostspeed.bracketed(lambda: subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import polarchan"],
            env=env, capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S), pool)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                us = int(parts[1])
            except ValueError:
                continue
            cumulative.setdefault(parts[2].strip(), us)
        total.append(cumulative["polarchan"] * 1e3)
        scipy_opt.append(cumulative.get("scipy.optimize", 0) * 1e3)
    reference = statistics.median(pool)
    return (hostspeed.to_ms(statistics.median(total), reference),
            hostspeed.to_ms(statistics.median(scipy_opt), reference))
