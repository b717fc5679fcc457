import numpy as np
import pytest

from polarchan.bench_sim import BenchConfig, Crystal, Waveplate


def random_physical_stokes(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish point inside the Poincare ball."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return direction * rng.uniform(0.0, 1.0)


def random_bench(rng: np.random.Generator, max_elements: int = 6) -> BenchConfig:
    """Random mix of crystals (integer lengths 1-5) and wave plates."""
    n = int(rng.integers(1, max_elements + 1))
    elements = []
    for _ in range(n):
        if rng.uniform() < 0.6:
            elements.append(Crystal(int(rng.integers(1, 6)), float(rng.uniform(0, 180))))
        else:
            kind = "half" if rng.uniform() < 0.7 else "quarter"
            elements.append(Waveplate(kind, float(rng.uniform(0, 180))))
    if not any(isinstance(el, Crystal) for el in elements):
        elements.append(Crystal(int(rng.integers(1, 6)), float(rng.uniform(0, 180))))
    return BenchConfig(tuple(elements))


def restyled_bench(rng: np.random.Generator, bench: BenchConfig) -> BenchConfig:
    """The same elements, lengths and plate kinds as ``bench``, with fresh random angles."""
    return BenchConfig(tuple(
        Crystal(el.length, float(rng.uniform(0, 180))) if isinstance(el, Crystal)
        else Waveplate(el.kind, float(rng.uniform(0, 180)))
        for el in bench.elements
    ))


def reference_channel(operators, rho) -> np.ndarray:
    """The per-state loop of apply_channel before it was stacked: zeros, then bins in order."""
    rho = np.asarray(rho, dtype=complex)
    out = np.zeros((2, 2), dtype=complex)
    for k in operators:
        out += k @ rho @ k.conj().T
    return out


def same_bits(a, b) -> bool:
    # byte equality, so 0.0 and -0.0 differ
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240901)
