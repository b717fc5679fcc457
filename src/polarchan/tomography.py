"""Simulated projective tomography: Poisson counts, linear inversion, MLE.

The measurement model mirrors a coincidence-counting bench: each of the six
analysis settings {H, V, P, M, R, L} is integrated for the same effective
photon number N, so every entry of a count table is an independent
Poisson(N p) draw.  Counts are generated with a counter-based generator
(Philox keyed by seed and table position), which makes records bit-for-bit
reproducible and independent of evaluation order.

State reconstruction comes in two flavors: plain linear inversion of the
Stokes components (fast, but finite counts can push the estimate outside
the physical set) and a maximum-likelihood fit over Cholesky-parameterized
matrices rho = T^dag T / Tr(T^dag T), which is physical by construction.
Process reconstruction applies the same parameterization to the 4x4 process
matrix, fitting all 4 x 6 preparation/analysis settings at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .bench_sim import KrausSet, _channel_stack, apply_channel
from .polar_core import (
    KET_H,
    KET_L,
    KET_M,
    KET_P,
    KET_R,
    KET_V,
    PAULI_BASIS,
    ket_projector,
)

__all__ = [
    "PROJECTOR_LABELS",
    "INPUT_LABELS",
    "analysis_projectors",
    "preparation_states",
    "TomoSettings",
    "CountRecord",
    "expected_probability",
    "probability_table",
    "simulate_counts",
    "simulate_state_counts",
    "QstLinearResult",
    "qst_linear",
    "MleResult",
    "qst_mle",
    "qpt_linear",
    "QptMleResult",
    "qpt_mle",
    "trace_preservation_deviation",
]

#: analysis settings, grouped in antipodal pairs per Stokes axis
PROJECTOR_LABELS = ("H", "V", "P", "M", "R", "L")

#: preparation states spanning the qubit operator space
INPUT_LABELS = ("H", "V", "P", "R")

_PROJECTOR_KETS = {
    "H": KET_H, "V": KET_V, "P": KET_P, "M": KET_M, "R": KET_R, "L": KET_L,
}

#: probabilities below this are clipped inside logs to keep the NLL finite
_P_FLOOR = 1e-12


def analysis_projectors() -> tuple:
    """The six projectors, in PROJECTOR_LABELS order."""
    return tuple(ket_projector(_PROJECTOR_KETS[lbl]) for lbl in PROJECTOR_LABELS)


def preparation_states() -> tuple:
    """The four preparation density matrices, in INPUT_LABELS order."""
    return tuple(ket_projector(_PROJECTOR_KETS[lbl]) for lbl in INPUT_LABELS)


@dataclass(frozen=True)
class TomoSettings:
    """Shots per analysis setting, RNG seed, and MLE stopping criteria."""

    shots: int = 10_000
    seed: int = 0
    nll_rel_tol: float = 1e-9
    max_iterations: int = 100_000

    def __post_init__(self):
        if self.shots < 0:
            raise ValueError("shots must be nonnegative")
        if self.nll_rel_tol <= 0:
            raise ValueError("nll_rel_tol must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class CountRecord:
    """Complete count table: one row per input state, six projector columns."""

    counts: np.ndarray
    input_labels: tuple
    shots: int
    seed: int

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        labels = tuple(self.input_labels)
        if counts.ndim != 2 or counts.shape[1] != len(PROJECTOR_LABELS):
            raise ValueError(f"count table must be (n, 6), got {counts.shape}")
        if counts.shape[0] != len(labels):
            raise ValueError("one input label per table row required")
        if counts.min() < 0:
            raise ValueError("counts must be nonnegative")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "input_labels", labels)

    def row(self, label: str) -> np.ndarray:
        return self.counts[self.input_labels.index(label)]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv_text())

    def to_csv_text(self) -> str:
        lines = [f"# N={self.shots}", f"# seed={self.seed}", "input,projector,counts"]
        for i, in_label in enumerate(self.input_labels):
            for j, pr_label in enumerate(PROJECTOR_LABELS):
                lines.append(f"{in_label},{pr_label},{self.counts[i, j]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, path) -> "CountRecord":
        with open(path, "r") as fh:
            return cls.from_csv_text(fh.read())

    @classmethod
    def from_csv_text(cls, text: str) -> "CountRecord":
        shots = seed = None
        rows: dict = {}
        header_seen = False
        for raw in text.splitlines():
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                meta = line[1:].strip()
                if meta.startswith("N="):
                    shots = int(meta[2:])
                elif meta.startswith("seed="):
                    seed = int(meta[5:])
                continue
            if not header_seen:
                if line != "input,projector,counts":
                    raise ValueError(f"unexpected header line {line!r}")
                header_seen = True
                continue
            in_label, pr_label, value = line.split(",")
            rows.setdefault(in_label, {})[pr_label] = int(value)
        if shots is None or seed is None:
            raise ValueError("missing '# N=' or '# seed=' metadata")
        labels = tuple(rows)
        table = np.zeros((len(labels), len(PROJECTOR_LABELS)), dtype=np.int64)
        for i, in_label in enumerate(labels):
            for j, pr_label in enumerate(PROJECTOR_LABELS):
                if pr_label not in rows[in_label]:
                    raise ValueError(f"incomplete table: missing ({in_label}, {pr_label})")
                table[i, j] = rows[in_label][pr_label]
        return cls(table, labels, shots, seed)


def expected_probability(kraus: KrausSet, rho_in: np.ndarray, projector: np.ndarray) -> float:
    """Born probability Tr(projector E(rho_in)) for the channel's output."""
    out = apply_channel(kraus, rho_in)
    p = float(np.trace(np.asarray(projector, dtype=complex) @ out).real)
    return min(max(p, 0.0), 1.0)


def probability_table(
    kraus: KrausSet,
    inputs: Optional[Sequence[np.ndarray]] = None,
    projectors: Optional[Sequence[np.ndarray]] = None,
) -> np.ndarray:
    """Exact probabilities for every (input, projector) pair, shape (n, 6)."""
    kraus.require_complete()
    states = _prep_tensor() if inputs is None else inputs
    outs = _channel_stack(kraus.as_stack(), states)[0]
    return _born_table(outs, projectors)


def _born_table(states: np.ndarray, projectors=None) -> np.ndarray:
    """Tr(P_j rho_i) for a ``(m, 2, 2)`` state stack, clipped to [0, 1], shape ``(m, p)``."""
    projs = _qst_a_tensor() if projectors is None else np.asarray(projectors, dtype=complex)
    products = projs.reshape(-1, 2, 2)[None] @ states[:, None]
    return np.clip(np.trace(products, axis1=-2, axis2=-1).real, 0.0, 1.0)


def _poisson_draw(seed: int, position: tuple, lam: float) -> int:
    # counter-based: each table entry owns an independent Philox stream,
    # so parallel and serial generation agree bit for bit
    seq = np.random.SeedSequence(seed, spawn_key=position)
    return int(np.random.Generator(np.random.Philox(seq)).poisson(lam))


def simulate_counts(
    kraus: KrausSet,
    settings: TomoSettings,
    inputs: Optional[Sequence[np.ndarray]] = None,
    projectors: Optional[Sequence[np.ndarray]] = None,
    input_labels: Optional[Sequence[str]] = None,
) -> CountRecord:
    """Draw a full Poisson count table for the channel.

    Each entry is Poisson(N p) keyed by (seed, input index, projector
    index); identical settings reproduce identical records.
    """
    if inputs is None and input_labels is None:
        input_labels = INPUT_LABELS
    probs = probability_table(kraus, inputs, projectors)
    counts = np.empty(probs.shape, dtype=np.int64)
    for i in range(probs.shape[0]):
        for j in range(probs.shape[1]):
            counts[i, j] = _poisson_draw(settings.seed, (i, j), settings.shots * probs[i, j])
    if input_labels is None:
        input_labels = tuple(f"in{i}" for i in range(probs.shape[0]))
    return CountRecord(counts, tuple(input_labels), settings.shots, settings.seed)


def simulate_state_counts(rho: np.ndarray, settings: TomoSettings) -> CountRecord:
    """Single-state analog: measure one state against the six projectors."""
    probs = _born_table(np.asarray(rho, dtype=complex).reshape(1, 2, 2))[0].tolist()
    counts = [_poisson_draw(settings.seed, (0, j), settings.shots * p)
              for j, p in enumerate(probs)]
    return CountRecord([counts], ("state",), settings.shots, settings.seed)


# ---------------------------------------------------------------------------
# linear inversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QstLinearResult:
    """Linear-inversion state estimate; may carry a negative eigenvalue."""

    rho: np.ndarray
    stokes: np.ndarray
    indeterminate_axes: tuple

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        stokes = np.asarray(self.stokes, dtype=float)
        rho.setflags(write=False)
        stokes.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "stokes", stokes)

    @property
    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.rho).min())


def _counts_row(counts) -> np.ndarray:
    if isinstance(counts, CountRecord):
        if counts.counts.shape[0] != 1:
            raise ValueError("expected a single-state record")
        return counts.counts[0].astype(float)
    row = np.asarray(counts, dtype=float).reshape(-1)
    if row.shape != (6,):
        raise ValueError(f"expected six projector counts, got {row.shape}")
    return row


def qst_linear(counts) -> QstLinearResult:
    """Stokes estimates s_i = (n+ - n-)/(n+ + n-), assembled into a matrix.

    The result is Hermitian with unit trace but is returned as-is: finite
    counts can produce |s| > 1 and a negative eigenvalue, which is exactly
    the pathology the MLE fit exists to repair.  Axes with zero total
    counts are flagged indeterminate and set to 0.
    """
    row = _counts_row(counts)
    stokes = np.zeros(3)
    indet = []
    for axis in range(3):
        plus, minus = row[2 * axis], row[2 * axis + 1]
        total = plus + minus
        if total == 0:
            indet.append(True)
            continue
        indet.append(False)
        stokes[axis] = (plus - minus) / total
    rho = 0.5 * (
        PAULI_BASIS[0]
        + stokes[0] * PAULI_BASIS[1]
        + stokes[1] * PAULI_BASIS[2]
        + stokes[2] * PAULI_BASIS[3]
    )
    return QstLinearResult(rho, stokes, tuple(indet))


# ---------------------------------------------------------------------------
# maximum likelihood
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MleResult:
    """Physical (PSD, unit-trace) matrix minimizing the Poisson NLL."""

    matrix: np.ndarray
    nll: float
    converged: bool
    iterations: int

    @property
    def rho(self) -> np.ndarray:
        return self.matrix


@dataclass(frozen=True)
class QptMleResult(MleResult):
    """Process-matrix fit; trace preservation is diagnosed, not enforced."""

    tp_deviation: float = float("nan")

    @property
    def chi(self) -> np.ndarray:
        return self.matrix


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _num_params(dim: int) -> int:
    return dim * dim


@cache
def _strict_lower(dim: int) -> tuple:
    """Row and column indices below the diagonal, row-major (np.tril_indices order)."""
    return tuple(_frozen(idx) for idx in np.tril_indices(dim, -1))


def _params_to_tri(params: np.ndarray, dim: int) -> np.ndarray:
    """Lower-triangular T: first the real diagonal, then (re, im) pairs row-major."""
    t = np.zeros((dim, dim), dtype=complex)
    t[np.diag_indices(dim)] = params[:dim]
    t[_strict_lower(dim)] = params[dim::2] + 1j * params[dim + 1::2]
    return t


def _tri_to_params(t: np.ndarray, dim: int) -> np.ndarray:
    params = np.empty(_num_params(dim))
    params[:dim] = np.diag(t).real
    below = t[_strict_lower(dim)]
    params[dim::2] = below.real
    params[dim + 1::2] = below.imag
    return params


def _nll_and_grad(params, a_tensor, counts, shots, dim):
    """Poisson NLL sum_s [N p_s - n_s log(N p_s)] and its parameter gradient.

    p_s = Re sum_mn A[s] X, X = T^dag T / Tr(T^dag T); the gradient follows
    from d/dT* of Tr(C T^dag T)/Tr(T^dag T) with C the conjugated NLL
    gradient with respect to X.
    """
    t = _params_to_tri(params, dim)
    gram = t.conj().T @ t
    tau = float(np.trace(gram).real)
    x = gram / tau
    p = np.einsum("smn,mn->s", a_tensor, x).real
    p_safe = np.clip(p, _P_FLOOR, None)
    lam = shots * p
    nll = float(np.sum(lam - np.where(counts > 0, counts * np.log(shots * p_safe), 0.0)))
    w = np.where(p > _P_FLOOR, shots - counts / p_safe, shots)
    b = np.einsum("s,smn->mn", w, a_tensor)
    pbar = float(np.sum(b * x).real)
    g_t = t @ (b.conj() - pbar * np.eye(dim)) / tau
    grad = np.empty_like(params)
    grad[:dim] = 2.0 * np.diag(g_t).real
    below = g_t[_strict_lower(dim)]
    grad[dim::2] = 2.0 * below.real
    grad[dim + 1::2] = 2.0 * below.imag
    return nll, grad


def _clip_to_physical(matrix: np.ndarray, floor: float = 1e-8) -> np.ndarray:
    """Nearest-ish physical matrix: eigenvalues floored, trace renormalized."""
    matrix = 0.5 * (matrix + matrix.conj().T)
    vals, vecs = np.linalg.eigh(matrix)
    vals = np.clip(vals, floor, None)
    out = (vecs * vals) @ vecs.conj().T
    return out / np.trace(out).real


def _lower_factor(matrix: np.ndarray) -> np.ndarray:
    """Lower-triangular T with T^dag T = matrix (matrix must be PD).

    numpy's Cholesky gives L with matrix = L L^dag; conjugating by the
    exchange matrix turns that into the T^dag T convention used here.
    """
    dim = matrix.shape[0]
    flip = np.eye(dim)[::-1]
    l_flipped = np.linalg.cholesky(flip @ matrix @ flip)
    return (flip @ l_flipped @ flip).conj().T


def _mle_minimize(a_tensor, counts, shots, x0_matrix, settings) -> tuple:
    dim = x0_matrix.shape[0]
    x0 = _tri_to_params(_lower_factor(x0_matrix), dim)
    res = minimize(
        _nll_and_grad,
        x0,
        args=(a_tensor, np.asarray(counts, dtype=float), float(shots), dim),
        jac=True,
        method="L-BFGS-B",
        options={
            "maxiter": settings.max_iterations,
            "maxfun": 10 * settings.max_iterations,
            "ftol": settings.nll_rel_tol,
            "gtol": 1e-10,
        },
    )
    t = _params_to_tri(res.x, dim)
    gram = t.conj().T @ t
    matrix = gram / np.trace(gram).real
    return matrix, float(res.fun), bool(res.success), int(res.nit)


def qst_mle(counts, shots: Optional[int] = None, settings: Optional[TomoSettings] = None) -> MleResult:
    """Maximum-likelihood state fit over rho = T^dag T / Tr(T^dag T).

    ``counts`` is a six-entry projector row (or single-row CountRecord, in
    which case its shot number is used).  Initialization is the clipped
    linear-inversion estimate, so the fitted NLL never exceeds the clipped
    estimate's.
    """
    if isinstance(counts, CountRecord):
        shots = counts.shots if shots is None else shots
    row = _counts_row(counts)
    if shots is None:
        raise ValueError("shots must be given when counts is a bare array")
    if settings is None:
        settings = TomoSettings(shots=max(int(shots), 1))
    x0 = _clip_to_physical(qst_linear(row).rho)
    matrix, nll, ok, nit = _mle_minimize(_qst_a_tensor(), row, shots, x0, settings)
    return MleResult(matrix, nll, ok, nit)


# Setting-independent tensors are built on first use, once per process, and
# shared read-only between fits.

@cache
def _qst_a_tensor() -> np.ndarray:
    """The six analysis projectors stacked, A[j] = P_j."""
    return _frozen(np.stack(analysis_projectors()))


@cache
def _prep_tensor() -> np.ndarray:
    """The four preparation states stacked, in INPUT_LABELS order."""
    return _frozen(np.stack(preparation_states()))


@cache
def _qpt_a_tensor() -> np.ndarray:
    """A[(k,j), m, n] = Tr(P_j E_m rho_k E_n^dag) for the standard settings."""
    projectors = analysis_projectors()
    rows = []
    for rho in preparation_states():
        for proj in projectors:
            a = np.empty((4, 4), dtype=complex)
            for m in range(4):
                for n in range(4):
                    a[m, n] = np.trace(proj @ PAULI_BASIS[m] @ rho @ PAULI_BASIS[n].conj().T)
            rows.append(a)
    return _frozen(np.stack(rows))


@cache
def _hermitian_basis() -> np.ndarray:
    """The 16 Hermitian 4x4 basis matrices: diagonal units, then symmetric/antisymmetric pairs."""
    basis = []
    for i in range(4):
        h = np.zeros((4, 4), dtype=complex)
        h[i, i] = 1.0
        basis.append(h)
    for i in range(4):
        for j in range(i + 1, 4):
            h = np.zeros((4, 4), dtype=complex)
            h[i, j] = h[j, i] = 1.0
            basis.append(h)
            h = np.zeros((4, 4), dtype=complex)
            h[i, j] = -1.0j
            h[j, i] = 1.0j
            basis.append(h)
    return _frozen(np.stack(basis))


@cache
def _qpt_design() -> np.ndarray:
    """Linear map from Hermitian-basis coefficients to the stacked (1, Stokes) outputs."""
    design = np.empty((16, 16))
    for col, h in enumerate(_hermitian_basis()):
        row_idx = 0
        for rho in preparation_states():
            image = np.zeros((2, 2), dtype=complex)
            for m in range(4):
                for n in range(4):
                    if h[m, n] != 0.0:
                        image += h[m, n] * (PAULI_BASIS[m] @ rho @ PAULI_BASIS[n].conj().T)
            for i in range(4):
                design[row_idx, col] = np.trace(PAULI_BASIS[i] @ image).real
                row_idx += 1
    return _frozen(design)


def qpt_linear(counts) -> np.ndarray:
    """Linear-inversion process matrix (Hermitian, possibly unphysical).

    Runs per-input linear state tomography, then solves the linear system
    relating the process matrix to the four reconstructed outputs.
    """
    table = counts.counts if isinstance(counts, CountRecord) else np.asarray(counts, dtype=float)
    if table.shape != (4, 6):
        raise ValueError(f"process tomography needs a (4, 6) table, got {table.shape}")
    targets = []
    for k in range(4):
        est = qst_linear(table[k])
        targets.append([1.0, *est.stokes])  # Tr(E_i rho') components
    y = np.asarray(targets, dtype=float).ravel()
    coeffs, *_ = np.linalg.lstsq(_qpt_design(), y, rcond=None)
    chi = np.zeros((4, 4), dtype=complex)
    for c, h in zip(coeffs, _hermitian_basis()):
        chi += c * h
    return chi


_EN_EM = _frozen(np.stack(
    [np.stack([PAULI_BASIS[n].conj().T @ PAULI_BASIS[m] for n in range(4)]) for m in range(4)]
))  # indexed [m, n] = E_n^dag E_m


def trace_preservation_deviation(chi: np.ndarray) -> float:
    """Max-norm of sum_mn chi_mn E_n^dag E_m - I (zero for TP channels)."""
    chi = np.asarray(chi, dtype=complex)
    acc = np.einsum("mn,mnab->ab", chi, _EN_EM)
    return float(np.abs(acc - np.eye(2)).max())


def qpt_mle(counts, shots: Optional[int] = None, settings: Optional[TomoSettings] = None) -> QptMleResult:
    """Maximum-likelihood process fit over chi = T^dag T / Tr(T^dag T).

    Fits all 24 preparation/analysis settings jointly (rows must follow the
    standard INPUT_LABELS order); positivity and unit trace hold by
    construction, while the trace-preservation defect of the fit is reported
    as a noise diagnostic.
    """
    if isinstance(counts, CountRecord):
        shots = counts.shots if shots is None else shots
        table = counts.counts.astype(float)
    else:
        table = np.asarray(counts, dtype=float)
    if table.shape != (4, 6):
        raise ValueError(f"process tomography needs a (4, 6) table, got {table.shape}")
    if shots is None:
        raise ValueError("shots must be given when counts is a bare table")
    if settings is None:
        settings = TomoSettings(shots=max(int(shots), 1))
    a_tensor = _qpt_a_tensor()
    x0 = _clip_to_physical(qpt_linear(table))
    matrix, nll, ok, nit = _mle_minimize(a_tensor, table.ravel(), shots, x0, settings)
    return QptMleResult(matrix, nll, ok, nit, trace_preservation_deviation(matrix))
