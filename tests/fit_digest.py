"""Print sha256 digests of count tables and their fits, of radii, of spectra, of Kraus operators and of CLI output.

    PYTHONPATH=src python tests/fit_digest.py

The records are the ``tomo_mc`` benchmark's: every ``perfbench.inputs.tomo_items``
item of seeds 11-14 over 10 rounds, drawn with ``simulate_counts`` and fitted with
``qpt_mle``, plus 200 seeded single states drawn with ``simulate_state_counts`` and
fitted with ``qst_mle``.  One digest covers the count tables; the other covers
each fit's matrix, nll, iterations, converged flag, optimality gap and (process
fits only) trace-preservation deviation.  The third covers radii: the
closed-form (one scalar call per row) and simulated radii of 25 sweep blocks,
theta1 in {31.316..., 13.684..., 10, 0, 22.5} x (L1, L2) in {(1, 1), (2, 1),
(1, 2), (2, 3), (3, 7)} with theta2 = 0...45 by 0.25, each block's chi from the
sweep's kernel (``_control_plate_forms`` and ``_plate_chi``), and every field of the
``polar_decompose`` report of each ``grid_sim`` matrix of
``perfbench.inputs.grid_items`` at seeds 11-14.  The fourth covers spectra: the
``chi_eigenvalues`` of each of those 25 sweep blocks' chi stacks and of the chi of
each of those ``grid_sim`` benches.  The fifth covers propagation: the delays and
the operator pair of each of those 25 sweep blocks, the fig1 bench propagated with
its control plate set to sigma_z and to sigma_x, and the delays and ``propagate``
operators of each of those ``grid_sim`` benches.  The sixth covers
the CLI: the CSV bytes ``cli.main`` writes for every ``tests/data`` config and for
the default ``region`` (451 points a side) and ``feasibility`` (r_step 0.01)
grids.  A change that must leave every count, fit, radius, spectrum, Kraus
operator and CSV byte as it was prints the same six lines before and after.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import sys
import tempfile
import warnings

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402  (perfbench/inputs.py)
from regen_goldens import DATA, GOLDEN_CASES  # noqa: E402

from polarchan import cli  # noqa: E402
from polarchan.bench_sim import _plate_chi, _transfer, affine_map, propagate  # noqa: E402
from polarchan.channel_analysis import chi_eigenvalues, chi_from_kraus, polar_decompose  # noqa: E402
from polarchan.depolarizer import (  # noqa: E402
    REFLECTION_COMPENSATION,
    _CONTROL_PLATE,
    DepolarizerSettings,
    _compensated_radii,
    _control_plate_forms,
    build_bench,
    isotropic_theta1_angles,
    radii_closed_form,
)
from polarchan.polar_core import PAULI_STACK, density_from_stokes  # noqa: E402
from polarchan.tomography import (  # noqa: E402
    TomoSettings,
    qpt_mle,
    qst_mle,
    simulate_counts,
    simulate_state_counts,
)

SEEDS = (11, 12, 13, 14)
ROUNDS = 10
STATES = 200
SWEEP_THETA1 = (*isotropic_theta1_angles()[::-1], 10.0, 0.0, 22.5)
SWEEP_LENGTHS = ((1, 1), (2, 1), (1, 2), (2, 3), (3, 7))
SWEEP_THETA2 = [0.25 * k for k in range(181)]


def _fit_bytes(fit) -> bytes:
    fields = [np.ascontiguousarray(fit.matrix).tobytes(),
              np.array([fit.nll, fit.optimality_gap, getattr(fit, "tp_deviation", 0.0)]).tobytes(),
              np.array([fit.iterations, fit.converged], dtype=np.int64).tobytes()]
    return b"".join(fields)


def _delay_bytes(delays) -> bytes:
    # as text: the delays of sparse heterogeneous benches pass 2**63
    return ",".join(map(str, delays)).encode() + b";"


def _bench_bytes() -> tuple:
    fields, spectra, kraus_ops = [], [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the degenerate length ratios warn
        for theta1 in SWEEP_THETA1:
            for l1, l2 in SWEEP_LENGTHS:
                bench = build_bench(DepolarizerSettings(theta1, SWEEP_THETA2[0], l1, l2))
                closed = [radii_closed_form(theta1, t2) for t2 in SWEEP_THETA2]
                delays, ops = _transfer(bench, _CONTROL_PLATE, PAULI_STACK[1:3])
                kraus_ops += [_delay_bytes(delays), ops.tobytes()]
                chis = _plate_chi(_control_plate_forms(bench), SWEEP_THETA2)
                fields.append(np.array(closed).tobytes())
                fields.append(_compensated_radii(chis)[0].tobytes())
                spectra.append(chi_eigenvalues(chis).tobytes())
    for seed in SEEDS:
        for item in inputs.grid_items(seed):
            bench = build_bench(item.fig1) if item.fig1 is not None else item.bench
            kraus = propagate(bench)
            kraus_ops += [_delay_bytes(kraus.delays), kraus.operators.tobytes()]
            m = affine_map(kraus).matrix
            report = polar_decompose(REFLECTION_COMPENSATION @ m if item.fig1 is not None else m)
            fields += [np.array(report.radii).tobytes(), report.rotation.tobytes(),
                       np.array([report.det_sign, report.axis_aligned], dtype=float).tobytes()]
            spectra.append(chi_eigenvalues(chi_from_kraus(kraus)).tobytes())
    return b"".join(fields), b"".join(spectra), b"".join(kraus_ops)


def _csv_digest() -> str:
    os.environ.pop(cli.ENV_SEED, None)
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(mode, DATA / cfg_name) for mode, cfg_name, _ in GOLDEN_CASES]
        for mode in ("region", "feasibility"):
            cfg = pathlib.Path(tmp) / f"{mode}.cfg"
            cfg.write_text(f"mode = {mode}\n")
            runs.append((mode, cfg))
        out = pathlib.Path(tmp) / "out.csv"
        for mode, cfg in runs:
            if cli.main([mode, "--config", str(cfg), "--out", str(out)]):
                raise SystemExit(f"polarchan {mode} --config {cfg} failed")
            digest.update(out.read_bytes())
    return digest.hexdigest()


def main() -> int:
    counts, fits = hashlib.sha256(), hashlib.sha256()
    krauses = [propagate(build_bench(DepolarizerSettings(t1, t2))) for t1, t2 in inputs.tomo_settings()]
    for seed in SEEDS:
        for setting, tomo_seed in inputs.tomo_items(seed, ROUNDS):
            record = simulate_counts(krauses[setting],
                                     TomoSettings(shots=inputs.TOMO_SHOTS, seed=tomo_seed))
            counts.update(record.counts.tobytes())
            fits.update(_fit_bytes(qpt_mle(record)))
    for seed in range(STATES):
        rng = np.random.default_rng(seed)
        stokes = rng.normal(size=3)
        stokes *= rng.uniform() ** (1 / 3) / np.linalg.norm(stokes)  # uniform in the ball
        record = simulate_state_counts(density_from_stokes(stokes),
                                       TomoSettings(shots=int(rng.integers(0, 10_001)), seed=seed))
        counts.update(record.counts.tobytes())
        fits.update(_fit_bytes(qst_mle(record)))
    print(f"counts {counts.hexdigest()}")
    print(f"fits   {fits.hexdigest()}")
    radii, spectra, kraus_ops = _bench_bytes()
    print(f"radii  {hashlib.sha256(radii).hexdigest()}")
    print(f"spectra {hashlib.sha256(spectra).hexdigest()}")
    print(f"kraus  {hashlib.sha256(kraus_ops).hexdigest()}")
    print(f"csv    {_csv_digest()}")
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (``fit_digest.py | head -2``): point stdout at
        # devnull, so that the interpreter's own flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
