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


def reference_tri(params, dim) -> np.ndarray:
    """Cholesky parameters to T as first written: a dense T filled by 2-D index pairs."""
    t = np.zeros((dim, dim), dtype=complex)
    t[np.diag_indices(dim)] = params[:dim]
    t[np.tril_indices(dim, -1)] = params[dim::2] + 1j * params[dim + 1::2]
    return t


def reference_nll_and_grad(params, a_tensor, counts, shots, dim):
    """The Poisson NLL and gradient as first written: dense T, np.clip, a log at every setting."""
    t = reference_tri(params, dim)
    gram = t.conj().T @ t
    tau = float(np.trace(gram).real)
    x = gram / tau
    p = np.einsum("smn,mn->s", a_tensor, x).real
    p_safe = np.clip(p, 1e-12, None)
    lam = shots * p
    with np.errstate(divide="ignore", invalid="ignore"):
        nll = float(np.sum(lam - np.where(counts > 0, counts * np.log(shots * p_safe), 0.0)))
    w = np.where(p > 1e-12, shots - counts / p_safe, shots)
    b = np.einsum("s,smn->mn", w, a_tensor)
    pbar = float(np.sum(b * x).real)
    g_t = t @ (b.conj() - pbar * np.eye(dim)) / tau
    grad = np.empty_like(params)
    grad[:dim] = 2.0 * np.diag(g_t).real
    below = g_t[np.tril_indices(dim, -1)]
    grad[dim::2] = 2.0 * below.real
    grad[dim + 1::2] = 2.0 * below.imag
    return nll, grad


def reference_stokes(row) -> np.ndarray:
    """qst_linear's per-axis loop as first written: indeterminate axes stay 0."""
    stokes = np.zeros(3)
    for axis in range(3):
        plus, minus = row[2 * axis], row[2 * axis + 1]
        total = plus + minus
        if total != 0:
            stokes[axis] = (plus - minus) / total
    return stokes


def reference_qpt_linear(table, design, basis) -> np.ndarray:
    """qpt_linear as first written: one Stokes loop per input, then chi one basis term at a time."""
    targets = [[1.0, *reference_stokes(row)] for row in np.asarray(table, dtype=float)]
    coeffs, *_ = np.linalg.lstsq(design, np.asarray(targets, dtype=float).ravel(), rcond=None)
    chi = np.zeros((4, 4), dtype=complex)
    for c, h in zip(coeffs, basis):
        chi += c * h
    return chi


def same_bits(a, b) -> bool:
    # byte equality, so 0.0 and -0.0 differ
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240901)
