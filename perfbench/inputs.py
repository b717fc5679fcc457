"""Seeded inputs of the three workloads.

Everything a workload feeds the program is derived here from the workload
seed alone: the order of the fig1 grid, the heterogeneous benches, the
tomography seeds and the CLI configs.  The same seed gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from polarchan.bench_sim import BenchConfig, Crystal, Waveplate
from polarchan.depolarizer import DepolarizerSettings, isotropic_theta1_angles

#: fig1 length pairs (L1, L2); both ratios keep the closed form exact
FIG1_LENGTHS = ((1, 2), (2, 3))

#: one heterogeneous bench follows every HETERO_EVERY fig1 items
HETERO_EVERY = 17

#: heterogeneous classes: crystal count x delay style; one of each per round
HETERO_CRYSTALS = tuple(range(2, 9))
HETERO_STYLES = ("dense", "sparse")

#: tomo_mc settings: theta2 on the isotropic line and on an off-line theta1
TOMO_THETA2 = (0.0, 2.0, 5.0, 10.0, 15.0, 22.0, 30.0, 37.0, 45.0)
TOMO_OFFLINE_THETA1 = 10.0
TOMO_SHOTS = 10_000


@dataclass(frozen=True)
class GridItem:
    """One grid_sim item: a fig1 setting (checked against the closed form)
    or a heterogeneous bench (checked for physicality)."""

    fig1: DepolarizerSettings = None
    bench: BenchConfig = None
    label: str = ""


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def hetero_bench(rng: np.random.Generator, n_crystals: int, style: str) -> BenchConfig:
    """Random bench: n crystals with a half- or quarter-wave plate between each pair.

    ``dense`` lengths are integers 1-3, so delays coincide and few bins
    survive; ``sparse`` lengths are exact fractions p/q with p, q <= 1000,
    which normalise to delays near 1e12 and beyond with 2**n distinct bins.
    """
    elements = []
    for i in range(n_crystals):
        if style == "dense":
            length = Fraction(int(rng.integers(1, 4)))
        else:
            length = Fraction(int(rng.integers(1, 1001)), int(rng.integers(1, 1001)))
        elements.append(Crystal(length, float(rng.uniform(0.0, 180.0))))
        if i < n_crystals - 1:
            kind = "half" if rng.uniform() < 0.5 else "quarter"
            elements.append(Waveplate(kind, float(rng.uniform(0.0, 180.0))))
    return BenchConfig(tuple(elements))


def grid_items(seed: int, grid_deg=(0.0, 45.0, 1.0)) -> list:
    """The fig1 grid in a seeded order, with heterogeneous benches interleaved."""
    start, stop, step = grid_deg
    angles = np.arange(start, stop + step / 2, step)
    fig1 = [
        DepolarizerSettings(float(t1), float(t2), l1, l2)
        for l1, l2 in FIG1_LENGTHS for t1 in angles for t2 in angles
    ]
    rng = _rng(seed, 0)
    order = rng.permutation(len(fig1))
    classes = [(n, s) for n in HETERO_CRYSTALS for s in HETERO_STYLES]
    items = []
    round_classes = []
    for pos, k in enumerate(order):
        items.append(GridItem(fig1=fig1[k], label="fig1"))
        if (pos + 1) % HETERO_EVERY == 0:
            if not round_classes:
                round_classes = [classes[i] for i in rng.permutation(len(classes))]
            n, style = round_classes.pop()
            items.append(GridItem(bench=hetero_bench(rng, n, style), label=f"{style}{n}"))
    return items


def tomo_settings() -> list:
    """(theta1, theta2) of every tomo_mc setting."""
    on_line = isotropic_theta1_angles()[1]
    return [(t1, t2) for t1 in (on_line, TOMO_OFFLINE_THETA1) for t2 in TOMO_THETA2]


def tomo_items(seed: int, rounds: int) -> list:
    """(setting index, tomography seed) pairs; every round visits each setting once."""
    rng = _rng(seed, 1)
    n = len(tomo_settings())
    items = []
    for _ in range(rounds):
        for k in rng.permutation(n):
            items.append((int(k), int(rng.integers(0, 2**31 - 1))))
    return items


@dataclass(frozen=True)
class CliCase:
    """One CLI invocation: mode, config text, --jobs, and expected shape."""

    name: str
    mode: str
    config: str
    jobs: int
    rows: int
    header: tuple


SWEEP_HEADER = (
    ("theta2", "r1_closed", "r2_closed", "r3_closed", "dop_closed", "r1_sim", "r2_sim", "r3_sim")
    + tuple(f"lambda{i}" for i in (1, 2, 3, 4))
    + tuple(f"lambda{i}_mle" for i in (1, 2, 3, 4))
    + ("seed",)
)
FEASIBILITY_HEADER = ("r1", "r2", "lambda0", "lambda1", "lambda2", "lambda3", "feasible", "reachable")
REGION_HEADER = ("theta1", "theta2", "r1", "r2")


def cli_cases(seed: int, small: bool = False) -> list:
    """The cli_modes invocations; ``small`` shrinks every grid for the smoke check."""
    rng = _rng(seed, 2)
    tomo_seed = int(rng.integers(0, 2**31 - 1))
    tomo_step, fine_step = (15.0, 5.0) if small else (1.0, 0.05)
    tomo_n = 1000 if small else 10_000
    r_step = 0.25 if small else None
    grid_n = 21 if small else None

    def sweep(step, tomo, n=None):
        lines = ["mode = sweep", "preset = fig1", "theta2_start = 0", "theta2_stop = 45",
                 f"theta2_step = {step!r}", f"tomo = {'true' if tomo else 'false'}",
                 f"seed = {tomo_seed}"]
        if n is not None:
            lines.append(f"n = {n}")
        return "\n".join(lines) + "\n", int(round(45.0 / step)) + 1

    tomo_cfg, tomo_rows = sweep(tomo_step, True, tomo_n)
    fine_cfg, fine_rows = sweep(fine_step, False)
    feas_cfg = f"mode = feasibility\nseed = {tomo_seed}\n"
    feas_points = 201
    if r_step is not None:
        feas_cfg += f"r_step = {r_step!r}\n"
        feas_points = int(np.floor(2.0 / r_step)) + 1
    region_cfg = f"mode = region\nseed = {tomo_seed}\n"
    region_points = 451
    if grid_n is not None:
        region_cfg += f"grid_n = {grid_n}\n"
        region_points = grid_n
    return [
        CliCase("sweep_tomo", "sweep", tomo_cfg, 1, tomo_rows, SWEEP_HEADER),
        CliCase("sweep_tomo_jobs2", "sweep", tomo_cfg, 2, tomo_rows, SWEEP_HEADER),
        CliCase("sweep_fine", "sweep", fine_cfg, 1, fine_rows, SWEEP_HEADER),
        CliCase("feasibility", "feasibility", feas_cfg, 1, feas_points**2, FEASIBILITY_HEADER),
        CliCase("region", "region", region_cfg, 1, region_points**2, REGION_HEADER),
    ]
