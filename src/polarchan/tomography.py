"""Simulated projective tomography: Poisson counts, linear inversion, MLE.

The measurement model mirrors a coincidence-counting bench: each of the six
analysis settings {H, V, P, M, R, L} is integrated for the same effective
photon number N, so every entry of a count table is an independent
Poisson(N p) draw.  Each count record owns one counter-based stream, a
Philox generator keyed by (seed, stream), and draws its whole table from it
in one call, entries in row-major order.  Records are bit-for-bit
reproducible and independent of evaluation order.  A tomography sweep draws
row i from stream i of the run's seed, and a single tomo run uses stream 0.

State reconstruction comes in two flavors: plain linear inversion of the
Stokes components (fast, but finite counts can push the estimate outside
the physical set) and a maximum-likelihood fit over rho = T^2 / Tr(T^2), for
a Hermitian T in the fixed Pauli-string basis, which is physical by
construction.  Process reconstruction applies the same parameterization to
the 4x4 process matrix, fitting all 4 x 6 preparation/analysis settings at once.

Process quantities read the Pauli transfer matrix R = G chi: for inputs
rho_k = sum_j x_kj E_j / 2 and projectors P_s = sum_i y_si E_i / 2, the
probabilities are y_s R x_k / 2, and the standard settings' x and y are exact.
A single state with coordinates x is measured the same way, as y_s x / 2.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import OptimizeResult, minimize
from scipy.linalg.lapack import dpotrf, dpotrs

from .bench_sim import _CHI_TO_PTM, KrausSet, _ptm_stack, _tp_defects
from .polar_core import PAULI_STACK, _PAULI_COEFFS, _pauli_coords, _pauli_operators

__all__ = [
    "PROJECTOR_LABELS",
    "INPUT_LABELS",
    "MAX_SHOTS",
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


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


#: the exact coordinates Tr(E_i P) = (1, s) of each analysis projector, in
#: PROJECTOR_LABELS order (s = +-1 on one Stokes axis), and of each preparation
_PROJECTOR_COORDS = _frozen(np.c_[np.ones(6), np.kron(np.eye(3), [[1.0], [-1.0]])])
_INPUT_COORDS = _frozen(_PROJECTOR_COORDS[[PROJECTOR_LABELS.index(lbl) for lbl in INPUT_LABELS]])

#: probabilities below this are clipped inside logs to keep the NLL finite
_P_FLOOR = 1e-12

#: damped Newton (_damped_newton).  A trust radius bounds each step's length,
#: in units of |params| = 1, within a slack factor: it starts at
#: _RADIUS_START, shrinks to _RADIUS_SHRINK times the length of a poor step
#: (ratio of actual to predicted decrease below 1/4) and grows by
#: _RADIUS_GROW after a good step (ratio above 3/4) that reached it.
#: _RADIUS_SHRINK * _RADIUS_SLACK < 1, so rejected steps get shorter.  A step
#: is accepted at a ratio above _ACCEPT_RATIO.  The shift never falls below
#: _MU_FLOOR times the projected Hessian's spectral radius, and a predicted decrease
#: below _NLL_RESOLUTION relative to the NLL is one that no step can show.
_RADIUS_START, _RADIUS_SHRINK, _RADIUS_GROW, _RADIUS_SLACK = 0.1, 0.25, 2.0, 1.5
_ACCEPT_RATIO = 1e-4
_MU_FLOOR = 1e-12
_NLL_RESOLUTION = 4 * np.finfo(float).eps
_TINY = np.finfo(float).tiny

#: largest shot number per setting; numpy's Poisson sampler refuses means
#: above about 9.2e18
MAX_SHOTS = 10**18


def analysis_projectors() -> tuple:
    """The six projectors, in PROJECTOR_LABELS order."""
    return tuple(_pauli_operators(_PROJECTOR_COORDS))


def preparation_states() -> tuple:
    """The four preparation density matrices, in INPUT_LABELS order."""
    return tuple(_pauli_operators(_INPUT_COORDS))


@dataclass(frozen=True)
class TomoSettings:
    """Shots per analysis setting, RNG seed, and MLE stopping criteria."""

    shots: int = 10_000
    seed: int = 0
    nll_rel_tol: float = 1e-9
    max_iterations: int = 100_000

    def __post_init__(self):
        _check_shots_and_seed(self.shots, self.seed)
        tol, limit = self.nll_rel_tol, self.max_iterations
        # written so that NaN fails too
        if not (isinstance(tol, numbers.Real) and 0 < tol < math.inf):
            raise ValueError(f"nll_rel_tol must be positive and finite, got {tol!r}")
        if isinstance(limit, bool) or not isinstance(limit, numbers.Integral):
            raise ValueError(f"max_iterations must be an integer, got {limit!r}")
        if limit < 1:
            raise ValueError(f"max_iterations must be at least 1, got {limit}")


def _check_shots_and_seed(shots, seed=0) -> None:
    """Raise ValueError unless ``shots`` is an integer in 0..MAX_SHOTS and
    ``seed`` a non-negative integer; a bool is not an integer here."""
    for name, value in (("shots", shots), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if not 0 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be between 0 and {MAX_SHOTS}, got {shots}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


_DEFAULT_SETTINGS = TomoSettings()


@dataclass(frozen=True)
class CountRecord:
    """Complete count table: one row per input state, six projector columns."""

    counts: np.ndarray
    input_labels: tuple
    shots: int
    seed: int

    def __post_init__(self):
        counts = _int64_counts(self.counts)
        labels = tuple(self.input_labels)
        if counts.ndim != 2 or counts.shape[1] != len(PROJECTOR_LABELS):
            raise ValueError(f"count table must be (n, 6), got {counts.shape}")
        if counts.shape[0] != len(labels):
            raise ValueError("one input label per table row required")
        if len(set(labels)) != len(labels):
            raise ValueError(f"input labels must be distinct, got {labels}")
        for label in labels:
            if not _csv_safe_label(label):
                raise ValueError(
                    f"input label {label!r} cannot be written to a count CSV: labels must be "
                    "non-empty strings without ',', line breaks, a leading '#' or "
                    "surrounding whitespace")
        if counts.min() < 0:
            raise ValueError("counts must be nonnegative")
        _check_shots_and_seed(self.shots, self.seed)
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
        meta: dict = {}
        rows: dict = {}
        header_seen = False
        for number, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, sep, value = line[1:].strip().partition("=")
                if sep and key in ("N", "seed"):
                    if key in meta:
                        raise ValueError(f"line {number}: duplicate '# {key}=' in {line!r}")
                    try:
                        meta[key] = int(value)
                    except ValueError:
                        raise ValueError(f"line {number}: '# {key}=' must be an integer, got {line!r}") from None
                continue
            if not header_seen:
                if line != "input,projector,counts":
                    raise ValueError(f"unexpected header line {line!r}")
                header_seen = True
                continue
            fields = line.split(",")
            if len(fields) != 3:
                raise ValueError(f"line {number}: expected input,projector,counts, got {line!r}")
            in_label, pr_label, value = fields
            if not _csv_safe_label(in_label):
                raise ValueError(f"line {number}: bad input label {in_label!r} in {line!r}")
            if pr_label not in PROJECTOR_LABELS:
                raise ValueError(f"line {number}: unknown projector {pr_label!r} in {line!r}")
            row = rows.setdefault(in_label, {})
            if pr_label in row:
                raise ValueError(f"line {number}: duplicate entry ({in_label}, {pr_label}) in {line!r}")
            try:
                row[pr_label] = int(value)
            except ValueError:
                raise ValueError(f"line {number}: counts must be an integer, got {line!r}") from None
            if row[pr_label] < 0:
                raise ValueError(f"line {number}: counts must be nonnegative, got {line!r}")
            if row[pr_label] >= 2 ** 63:
                raise ValueError(f"line {number}: counts must fit in 64 bits, got {line!r}")
        if len(meta) != 2:
            raise ValueError("missing '# N=' or '# seed=' metadata")
        labels = tuple(rows)
        table = np.zeros((len(labels), len(PROJECTOR_LABELS)), dtype=np.int64)
        for i, in_label in enumerate(labels):
            for j, pr_label in enumerate(PROJECTOR_LABELS):
                if pr_label not in rows[in_label]:
                    raise ValueError(f"incomplete table: missing ({in_label}, {pr_label})")
                table[i, j] = rows[in_label][pr_label]
        return cls(table, labels, meta["N"], meta["seed"])


def _int64_counts(counts) -> np.ndarray:
    """``counts`` as an int64 table of the record's own; other tables must be bool,
    integer or float and hold whole numbers within 64 bits, so that the cast
    truncates and wraps nothing.

    An int64 table is copied too, so that freezing the record's table leaves the
    caller's writable and nothing the caller holds can change the record.
    """
    table = np.asarray(counts)
    if table.dtype == np.int64:
        return table.copy()
    if table.dtype.kind in "biuf":
        with np.errstate(invalid="ignore"):  # the cast of nan, inf or a float past 2**63
            exact = table.astype(np.int64)
        if (exact == table).all():
            return exact
    raise ValueError(f"counts must be integers that fit in 64 bits, got a {table.dtype} table")


def _csv_safe_label(label) -> bool:
    """Whether ``label`` reads back unchanged from a count CSV line.

    The reader splits on line breaks (every one ``str.splitlines`` knows),
    strips each line, skips ``#`` lines and splits fields on ``,``.
    """
    return (isinstance(label, str) and label.splitlines() == [label]
            and label == label.strip() and not label.startswith("#") and "," not in label)


def expected_probability(kraus: KrausSet, rho_in: np.ndarray, projector: np.ndarray) -> float:
    """Born probability Tr(projector E(rho_in)) for the channel's output."""
    return float(probability_table(kraus, [rho_in], [projector])[0, 0])


def probability_table(
    kraus: KrausSet,
    inputs: Optional[Sequence[np.ndarray]] = None,
    projectors: Optional[Sequence[np.ndarray]] = None,
) -> np.ndarray:
    """Exact probabilities for every (input, projector) pair, shape (n, 6).

    Each is y R x / 2, clipped to [0, 1], for the Pauli transfer matrix R and
    the coordinates x = Tr(E_i rho) of the input and y = Tr(E_i P) of the projector.
    """
    x = _INPUT_COORDS if inputs is None else _pauli_coords(inputs)
    y = _PROJECTOR_COORDS if projectors is None else _pauli_coords(projectors)
    r = _ptm_stack(kraus._complete_chi())[0]
    return _born_table(x @ r.T, y)


def _born_table(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Probabilities y . x / 2, clipped to [0, 1], of states with coordinates
    x = Tr(E_i rho) (rows of ``x``) and projectors with y = Tr(E_i P)."""
    return np.clip((x @ y.T).real / 2, 0.0, 1.0)


def _poisson_table(seed: int, stream: int, lam: np.ndarray) -> np.ndarray:
    """Poisson(lam) counts of one record, all drawn from the Philox stream
    keyed by ``(seed, stream)``.  Means below 1e-12 count 0: numpy draws a
    variate for any positive mean, so a roundoff residue in place of an exact
    zero would shift every later draw of the record."""
    if stream < 0:
        raise ValueError(f"stream must be non-negative, got {stream}")
    seq = np.random.SeedSequence(seed, spawn_key=(stream,))
    lam = np.where(lam < 1e-12, 0.0, lam)
    return np.random.Generator(np.random.Philox(seq)).poisson(lam)


def simulate_counts(kraus: KrausSet, settings: TomoSettings, *, stream: int = 0) -> CountRecord:
    """Draw a full Poisson count table for the channel, rows in INPUT_LABELS order.

    Entry (i, j) is Poisson(N p_ij); the table is drawn from the one stream
    keyed by (settings.seed, stream), so identical arguments reproduce
    identical records.
    """
    counts = _poisson_table(settings.seed, stream, settings.shots * probability_table(kraus))
    return CountRecord(counts, INPUT_LABELS, settings.shots, settings.seed)


def simulate_state_counts(rho: np.ndarray, settings: TomoSettings, *, stream: int = 0) -> CountRecord:
    """Single-state analog: measure one state against the six projectors."""
    probs = _born_table(_pauli_coords(np.reshape(rho, (2, 2))), _PROJECTOR_COORDS)
    counts = _poisson_table(settings.seed, stream, settings.shots * probs)
    return CountRecord(counts, ("state",), settings.shots, settings.seed)


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
    return _valid_counts(row)


def _valid_counts(table: np.ndarray) -> np.ndarray:
    """``table``, checked finite and non-negative; fractional entries (exact probabilities) pass."""
    # written so that NaN fails too
    if not np.all((table >= 0) & (table < np.inf)):
        raise ValueError("counts must be finite and non-negative")
    return table


def qst_linear(counts) -> QstLinearResult:
    """Stokes estimates s_i = (n+ - n-)/(n+ + n-), assembled into a matrix.

    The result is Hermitian with unit trace but is returned as-is: finite
    counts can produce |s| > 1 and a negative eigenvalue, which is exactly
    the pathology the MLE fit exists to repair.  Axes with zero total
    counts are flagged indeterminate and set to 0.
    """
    stokes, indet = _stokes_rows(_counts_row(counts)[None])
    rho = _pauli_operators(np.c_[np.ones(1), stokes])[0]
    return QstLinearResult(rho, stokes[0], tuple(indet[0].tolist()))


def _stokes_rows(table: np.ndarray) -> tuple:
    """Stokes estimates (n+ - n-)/(n+ + n-) of every row of an ``(n, 6)`` table.

    Returns the ``(n, 3)`` estimates and an ``(n, 3)`` mask of the axes with
    zero total counts, whose estimate is 0.
    """
    plus, minus = table[:, 0::2], table[:, 1::2]
    total = plus + minus
    counted = total != 0
    stokes = np.divide(plus - minus, total, out=np.zeros(total.shape), where=counted)
    return stokes, ~counted


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
    optimality_gap: float

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


def _nll_terms(params, forms, counts, shots) -> tuple:
    """The pieces every NLL derivative is built from.

    T = sum_k params_k S_k over Pauli strings with Tr(S_k S_l) = dim delta_kl,
    so Tr(T^2) = dim params.params = dim tau and
    p_s = Re Tr(A_s^T X) = params^T Q_s params / tau, for X = T^2 / Tr(T^2),
    with the fixed symmetric forms Q_s stacked in ``forms`` (see
    _quadratic_forms).  Returns v_s = Q_s params, tau, p,
    w_s = dNLL/dp_s = N - n_s/p_s and p floored at _P_FLOOR; a setting at the
    floor has a constant log term there, so its w_s is N.
    """
    v = (forms @ params).reshape(-1, params.size)
    tau = params @ params
    p = v @ params / tau
    floored = np.maximum(p, _P_FLOOR)
    w = np.where(p > _P_FLOOR, shots - counts / floored, shots)
    return v, tau, p, w, floored


def _nll_and_grad(params, forms, counts, shots):
    """Poisson NLL sum_s [N p_s - n_s log(N p_s)], its parameter gradient
    (2/tau)(sum_s w_s v_s - (w.p) params) and the terms of _nll_terms it was
    built from, which _nll_hessian and the optimality gap read.

    Settings with no counts contribute no log term, so a zero-shot record
    gives a finite NLL without a log(0).
    """
    terms = _nll_terms(params, forms, counts, shots)
    v, tau, p, w, floored = terms
    logs = np.log(shots * floored, where=counts > 0, out=np.zeros(p.shape))
    nll = float((shots * p - counts * logs).sum())
    return nll, (2.0 / tau) * (w @ v - (w @ p) * params), terms


def _nll_hessian(terms, forms, counts, shots):
    """The part of the NLL's parameter Hessian that the tangent space of
    |params| = const keeps, from the terms of _nll_and_grad.

    With g_s = grad p_s = (2/tau)(v_s - p_s params), the Hessian of p_s is
    (2/tau)(Q_s - p_s I - params g_s^T - g_s params^T), so with c_s = n_s/p_s^2
    (0 at the floor, whose log term is constant) the NLL's is
    H = sum_s w_s hess p_s + sum_s c_s g_s g_s^T.  Every term with a factor
    params or params^T vanishes under P = I - params params^T / tau, so
    P H P = P B P for the B returned here,
    B = (2/tau)(sum_s w_s Q_s - (w.p) I) + (4/tau^2) sum_s c_s v_s v_s^T.
    """
    v, tau, p, w, floored = terms
    n = v.shape[1]
    u = v * (np.sqrt(np.where(p > _P_FLOOR, counts, 0.0)) / floored)[:, None]
    hess = (2.0 / tau) * (w @ forms.reshape(-1, n * n)).reshape(n, n)
    hess += (4.0 / (tau * tau)) * (u.T @ u)  # u^T u is symmetric in every bit
    hess.flat[::n + 1] -= (2.0 / tau) * (w @ p)
    return hess


@cache
def _quadratic_forms(a_tensor_fn) -> np.ndarray:
    """The NLL's forms Q_s of the A tensor ``A = a_tensor_fn()``, stacked as one
    read-only ``(S*n, n)`` array, built once per A tensor.

    With T = sum_k params_k S_k over the Pauli strings S_k of _pauli_strings,
    Q_s[k, l] = sym Re sum_mn A[s,m,n] (S_k S_l)[m,n] / dim, so that
    params^T Q_s params = Re Tr(A_s^T T^2) / dim and params.params = Tr(T^2) / dim:
    the contraction is elementwise, so a setting measured as Tr(P X) needs
    A_s = P^T.  The products of the unscaled strings have entries 0, +-1 and
    +-i, so exact settings give exact forms.
    """
    a_tensor = a_tensor_fn()
    dim = a_tensor.shape[-1]
    strings = _pauli_strings(dim)
    products = strings[:, None] @ strings[None]  # [k, l] = S_k S_l
    q = np.einsum("smn,klmn->skl", a_tensor, products).real / dim
    return _frozen((0.5 * (q + q.transpose(0, 2, 1))).reshape(-1, dim * dim))


@cache
def _pauli_strings(dim: int) -> np.ndarray:
    """The read-only ``(dim*dim, dim, dim)`` Pauli strings of a state (dim 2: E_a)
    or a process (dim 4: E_a (x) E_b), Hermitian with Tr(S_k S_l) = dim delta_kl."""
    if dim == 2:
        return PAULI_STACK
    return _frozen(np.einsum("aij,bkl->abikjl", PAULI_STACK, PAULI_STACK).reshape(16, 4, 4))


def _root_seed(estimate: np.ndarray) -> np.ndarray:
    """The fit's first T: the Hermitian square root V sqrt(max(L, 1e-8)) V^dag of a
    linear ``estimate`` V L V^dag (eigh reads its lower triangle), so that T^2 is
    the estimate with its eigenvalues floored."""
    vals, vecs = np.linalg.eigh(estimate)
    return (vecs * np.sqrt(np.maximum(vals, 1e-8))) @ vecs.conj().T


def _floor_step(tangent, grad, mu, radius):
    """The step -(tangent + mu I)^-1 grad, with its length and predicted NLL
    decrease, from one Cholesky factorization of tangent + mu I and its solve.

    For a positive semidefinite ``tangent`` that is the eigen path's step at
    its floor shift (_eigen_stepper).  This returns None when tangent + mu I
    is not positive definite, or when the step is longer than the trust
    radius ``radius`` allows.  Between the two lies only lambda_min in
    (-mu, 0), where the eigen path would shift by mu - lambda_min instead.
    """
    factor, info = dpotrf(tangent + mu * np.eye(grad.size))
    if info:
        return None
    step = dpotrs(factor, grad)[0]
    sq = step @ step
    length = math.sqrt(sq)
    if not length <= _RADIUS_SLACK * radius:
        return None
    # sum_i coef_i^2 (lambda_i / 2 + mu) of the eigen path, with grad = (tangent + mu I) step
    return step, length, float(0.5 * (grad @ step + mu * sq))


def _eigen_stepper(tangent, grad, mu):
    """The eigen path from one ``eigh`` of ``tangent``: a function of the trust
    radius that returns the step -(tangent + shift I)^-1 grad, its length and
    its predicted NLL decrease.

    shift starts at max(mu, mu - lambda_min), so that the shifted matrix is
    positive definite and no step heads uphill, and rises to the least shift
    whose step stays within the radius, by Newton's method on the step length
    along the same eigenvectors.
    """
    lam, vecs = np.linalg.eigh(tangent)
    grad_eig = grad @ vecs
    half_lam = 0.5 * lam
    least_shift = mu - lam[0] if lam[0] < 0.0 else mu

    def step(radius):
        shift = least_shift
        while True:
            denom = lam + shift
            coef = grad_eig / denom
            sq = coef * coef
            length = math.sqrt(sq.sum())
            if length <= _RADIUS_SLACK * radius:
                return vecs @ coef, length, float(sq @ (half_lam + shift))
            # Newton's method for 1/length(shift) = 1/radius, which rises to it from below
            shift += (length / radius - 1.0) * length * length / (sq @ (1.0 / denom))

    return step


def _damped_newton(fun, x0, args=(), hess=None, *, max_iterations, nll_rel_tol, **_):
    """Damped Newton minimisation of a scale-invariant ``fun`` returning (f, grad,
    terms), as a ``scipy.optimize.minimize`` method; ``hess(terms, *args)`` must
    agree with f's Hessian H on the tangent space of |x| = 1, where f varies.

    Each iteration projects the Hessian on that tangent space and steps along
    -(P H P + shift I)^-1 grad, with a floor shift mu no less than _MU_FLOOR
    times the matrix's spectral radius.  Where P H P + mu I is positive
    definite, the step at shift mu comes from one Cholesky factorization and
    its solve (_floor_step).  Otherwise, or for a step longer than the trust
    radius or a rejected trial, one ``eigh`` gives the least shift above
    max(mu, mu - lambda_min) whose step fits the radius (_eigen_stepper).  A
    trial step is accepted when its NLL decrease is a fair share of the
    decrease the quadratic model predicts; the radius follows that ratio.  x
    is renormalised after every step.  The fit stops, converged, when the
    predicted decrease is at most nll_rel_tol * max(|f|, 1) or when no step
    lowers f, and stops unconverged after max_iterations accepted steps.  The
    result carries the terms of the last point.
    """
    x = x0 / math.sqrt(x0 @ x0)
    nll, grad, terms = fun(x, *args)
    nit, radius, converged = 0, _RADIUS_START, False
    while nit < max_iterations:
        # f is constant along x, so steps live in the tangent space of |x| = 1: the
        # solves take P h P for P = I - x x^T, with x given curvature m = max|h|; the
        # largest absolute row sum of h bounds the spectral radius of both
        h = hess(terms, *args)
        abs_h = np.abs(h)
        hx = h @ x
        a = np.outer(x, hx - 0.5 * (x @ hx + abs_h.max()) * x)
        tangent = h - (a + a.T)
        mu = _MU_FLOOR * abs_h.sum(axis=1).max() + _TINY
        scale = max(abs(nll), 1.0)
        step = _floor_step(tangent, grad, mu, radius)
        eigen_step = None
        while True:
            if step is None:
                eigen_step = eigen_step or _eigen_stepper(tangent, grad, mu)
                step = eigen_step(radius)
            direction, length, predicted = step
            if predicted <= nll_rel_tol * scale:
                converged = True
                break
            trial = x - direction
            trial /= math.sqrt(trial @ trial)
            trial_nll, trial_grad, trial_terms = fun(trial, *args)
            ratio = (nll - trial_nll) / predicted
            if not ratio >= 0.25:  # NaN counts as poor
                radius = _RADIUS_SHRINK * length
            elif ratio > 0.75 and length > radius / _RADIUS_SLACK:
                radius *= _RADIUS_GROW
            if ratio > _ACCEPT_RATIO:
                break
            if predicted <= _NLL_RESOLUTION * scale:
                converged = True  # no step lowers the NLL
                break
            step = None
        if converged:
            break
        x, nll, grad, terms = trial, trial_nll, trial_grad, trial_terms
        nit += 1
    return OptimizeResult(x=x, fun=nll, nit=nit, success=converged, terms=terms)


def _mle_minimize(a_tensor_fn, counts, shots, estimate, settings) -> dict:
    """Fit X = T^2 / Tr(T^2) to ``counts`` from the linear ``estimate``.

    T = sum_k params_k S_k is Hermitian over the Pauli strings S_k.  Every
    PSD X has a Hermitian square root, so the fit covers the unit-trace PSD
    set, and it starts from the estimate's root (_root_seed).  The strings are
    orthogonal, so the map is covariant under a change of basis and prefers
    no basis order.  Returns the MleResult fields.  The
    optimality gap is the Frank-Wolfe gap over the unit-trace PSD set: with
    H_s = (A_s^T + conj(A_s)) / 2, so that p_s = Tr(H_s X), it is
    sum_s w_s p_s - lambda_min(sum_s w_s H_s), an upper bound on the fit's NLL
    excess over the optimum.
    """
    if settings is None:
        settings = _DEFAULT_SETTINGS
    a_tensor = a_tensor_fn()
    dim = a_tensor.shape[-1]
    strings = _pauli_strings(dim).reshape(dim * dim, -1)
    args = (_quadratic_forms(a_tensor_fn), np.asarray(counts, dtype=float), float(shots))
    # Tr(S_k T) = dim params_k, a scale the fit ignores
    x0 = (strings.conj() @ _root_seed(estimate).ravel()).real
    res = minimize(_nll_and_grad, x0, args=args, hess=_nll_hessian, method=_damped_newton,
                   options={"max_iterations": settings.max_iterations,
                            "nll_rel_tol": settings.nll_rel_tol})
    t = (res.x @ strings).reshape(dim, dim)
    gram = t @ t
    _, _, p, w, _ = res.terms
    m = (w @ a_tensor.reshape(w.size, -1)).reshape(dim, dim)
    gap = w @ p - np.linalg.eigvalsh(0.5 * (m.T + m.conj()))[0]
    return dict(matrix=gram / np.trace(gram).real, nll=float(res.fun),
                converged=bool(res.success), iterations=int(res.nit), optimality_gap=float(gap))


def qst_mle(counts, shots: Optional[int] = None, settings: Optional[TomoSettings] = None) -> MleResult:
    """Maximum-likelihood state fit over rho = T^2 / Tr(T^2), T Hermitian.

    ``counts`` is a six-entry projector row (or single-row CountRecord, in
    which case its shot number is used); ``shots`` must be an integer in
    0..MAX_SHOTS.  The fit starts from the square root of the linear-inversion
    estimate with its eigenvalues floored, so the fitted NLL never exceeds
    that clipped estimate's.
    """
    if isinstance(counts, CountRecord):
        shots = counts.shots if shots is None else shots
    row = _counts_row(counts)
    if shots is None:
        raise ValueError("shots must be given when counts is a bare array")
    _check_shots_and_seed(shots)
    return MleResult(**_mle_minimize(_qst_a_tensor, row, shots, qst_linear(row).rho, settings))


# Setting-independent tensors are built on first use, once per process, and
# shared read-only between fits.

@cache
def _qst_a_tensor() -> np.ndarray:
    """The six analysis projectors transposed, A[j] = P_j^T, so that
    sum_mn A[j,m,n] rho[m,n] = Tr(P_j rho); vec(P_j^T) = sum_i y_ji vec(E_i^T) / 2
    is exact."""
    return _frozen((_PROJECTOR_COORDS @ _PAULI_COEFFS.T).reshape(-1, 2, 2))


@cache
def _qpt_a_tensor() -> np.ndarray:
    """A[(k,j), m, n] = Tr(P_j E_m rho_k E_n^dag) for the standard settings.

    With P_j = sum_i y_ji E_i / 2 and rho_k = sum_l x_kl E_l / 2 this is
    sum_il y_ji x_kl G[(i,l),(m,n)] / 2, exact in floating point.
    """
    g = _CHI_TO_PTM.reshape(4, 4, 4, 4)
    a = np.einsum("ji,kl,ilmn->kjmn", _PROJECTOR_COORDS, _INPUT_COORDS, g) / 2
    return _frozen(a.reshape(-1, 4, 4))


@cache
def _qpt_linear_map() -> np.ndarray:
    """The ``(16, 16)`` complex map from the stacked (1, Stokes) outputs Y to the
    flattened process matrix: R = Y^T X^-T for the input coordinates X, then
    chi = G^-1 R."""
    # R[i, j] = sum_k Y[k, i] X^-1[j, k]
    to_ptm = np.einsum("ia,jk->ijka", np.eye(4), np.linalg.inv(_INPUT_COORDS)).reshape(16, 16)
    return _frozen(np.linalg.inv(_CHI_TO_PTM) @ to_ptm)


def _process_table(counts) -> np.ndarray:
    """The ``(4, 6)`` float count table of a process record, rows in INPUT_LABELS order.

    A CountRecord's rows are reordered by their labels, which must be a
    permutation of INPUT_LABELS; a bare table must already be in that order.
    """
    if isinstance(counts, CountRecord):
        labels = counts.input_labels
        if sorted(labels) != sorted(INPUT_LABELS):
            raise ValueError(
                f"process tomography needs one row per input {INPUT_LABELS}, got labels {labels}")
        table = counts.counts[[labels.index(label) for label in INPUT_LABELS]].astype(float)
    else:
        table = np.asarray(counts, dtype=float)
    if table.shape != (4, 6):
        raise ValueError(f"process tomography needs a (4, 6) table, got {table.shape}")
    return _valid_counts(table)


def qpt_linear(counts) -> np.ndarray:
    """Linear-inversion process matrix (Hermitian, possibly unphysical).

    Runs per-input linear state tomography, then applies the fixed linear
    map from the four reconstructed outputs to the process matrix (through
    the Pauli transfer matrix).  A CountRecord's rows are matched to the
    inputs by label (see qpt_mle).
    """
    y = np.ones((4, 4))  # Tr(E_i rho') components of each output
    y[:, 1:] = _stokes_rows(_process_table(counts))[0]
    return (_qpt_linear_map() @ y.ravel()).reshape(4, 4)


def trace_preservation_deviation(chi: np.ndarray) -> float:
    """Max-norm of sum_mn chi_mn E_n^dag E_m - I (zero for TP channels), the
    defect that the Kraus-set checks read from chi."""
    return float(_tp_defects(np.asarray(chi, dtype=complex).reshape(1, 4, 4))[0])


def qpt_mle(counts, shots: Optional[int] = None, settings: Optional[TomoSettings] = None) -> QptMleResult:
    """Maximum-likelihood process fit over chi = T^2 / Tr(T^2), T Hermitian.

    Fits all 24 preparation/analysis settings jointly, from the square root of
    the clipped ``qpt_linear`` estimate; ``shots`` must be an integer in
    0..MAX_SHOTS.  A CountRecord's rows are matched to the preparations by
    their input labels, in any order; a record whose labels are not a
    permutation of INPUT_LABELS raises ValueError.  A bare (4, 6) table must
    follow the INPUT_LABELS row order.
    Positivity and unit trace hold by construction, while the
    trace-preservation defect of the fit is reported as a noise diagnostic.
    """
    if isinstance(counts, CountRecord):
        shots = counts.shots if shots is None else shots
    table = _process_table(counts)
    if shots is None:
        raise ValueError("shots must be given when counts is a bare table")
    _check_shots_and_seed(shots)
    fit = _mle_minimize(_qpt_a_tensor, table.ravel(), shots, qpt_linear(table), settings)
    return QptMleResult(**fit, tp_deviation=trace_preservation_deviation(fit["matrix"]))
