"""Print sha256 digests of simulated count tables and of the fits made from them.

    PYTHONPATH=src python tests/fit_digest.py

The records are the ``tomo_mc`` benchmark's: every ``perfbench.inputs.tomo_items``
item of seeds 11-14 over 10 rounds, drawn with ``simulate_counts`` and fitted with
``qpt_mle``, plus 200 seeded single states drawn with ``simulate_state_counts`` and
fitted with ``qst_mle``.  One digest covers the count tables; the other covers
each fit's matrix, nll, iterations, converged flag, optimality gap and (process
fits only) trace-preservation deviation.  A change that must leave every count
and every fit bit for bit as it was prints the same two lines before and after.
"""

from __future__ import annotations

import hashlib
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import inputs  # noqa: E402  (perfbench/inputs.py)

from polarchan.bench_sim import propagate  # noqa: E402
from polarchan.depolarizer import DepolarizerSettings, build_bench  # noqa: E402
from polarchan.polar_core import density_from_stokes  # noqa: E402
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


def _fit_bytes(fit) -> bytes:
    fields = [np.ascontiguousarray(fit.matrix).tobytes(),
              np.array([fit.nll, fit.optimality_gap, getattr(fit, "tp_deviation", 0.0)]).tobytes(),
              np.array([fit.iterations, fit.converged], dtype=np.int64).tobytes()]
    return b"".join(fields)


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
