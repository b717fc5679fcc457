"""Host-speed normalisation of measured times.

The benchmark host is shared: other tenants' load slows every instruction
stream on it by up to ~1.7x, in phases lasting seconds to minutes, and this
shows in neither the load average nor CPU time.  Raw run figures therefore
spread by more than any useful bound.  A fixed reference loop of small
numpy operations, which never calls polarchan, slows down with the host in
step with the workloads (its ratio to a grid_sim or tomo_mc item stays
within a few percent while both vary by ~1.7x).

So every time the benchmark reports is divided by the reference loop's
duration measured around it, and expressed in ms on a host where the
reference loop takes ``REFERENCE_MS``.  A change to polarchan moves the
numerator only; the reference loop is part of the benchmark's definition
and must not change between the runs being compared.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: reference-loop duration that the normalised figures are expressed against
REFERENCE_MS = 1.0

#: reference loops run on each side of a subprocess timing
BRACKET_LOOPS = 10

_MATRIX = np.array([[0.6, 0.8j], [0.8j, 0.6]])


def reference_loop_ns() -> int:
    """Duration of one fixed loop of 150 small complex matmuls and traces."""
    start = time.perf_counter_ns()
    acc, total = np.eye(2, dtype=complex), 0.0
    for _ in range(150):
        acc = _MATRIX @ acc
        total += float(np.trace(acc).real)
    return time.perf_counter_ns() - start


def warm_up(loops: int = 30) -> None:
    for _ in range(loops):
        reference_loop_ns()


def median_loop_ns(loops: int) -> float:
    return statistics.median(reference_loop_ns() for _ in range(loops))


def to_ms(raw_ns: float, reference_ns: float) -> float:
    """A raw duration in ns as ms on the reference host."""
    return raw_ns / reference_ns * REFERENCE_MS


def local_references(refs: list, window: int = 2) -> list:
    """Median of each reference sample and its ``window`` neighbours on both sides."""
    return [statistics.median(refs[max(0, b - window):b + window + 1]) for b in range(len(refs))]


def bracketed(func, pool: list):
    """Run ``func()`` and return its result and wall time in ns.

    The reference loops run just before and just after it are appended to
    ``pool``; a subprocess time is normalised by the median of the whole
    run's pool, which tracks the host's phase better than the few loops
    around one invocation do.
    """
    pool.extend(reference_loop_ns() for _ in range(BRACKET_LOOPS))
    start = time.perf_counter_ns()
    result = func()
    wall = time.perf_counter_ns() - start
    pool.extend(reference_loop_ns() for _ in range(BRACKET_LOOPS))
    return result, wall
