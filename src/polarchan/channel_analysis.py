"""Channel representations and diagnostics: process matrix, ellipsoid, feasibility.

The process matrix chi expresses a channel as
``E(rho) = sum_mn chi_mn E_m rho E_n^dag`` over the Stokes-aligned operator
basis of :mod:`polarchan.polar_core`.  For trace-preserving channels chi is
Hermitian, positive semidefinite and has unit trace.  The Pauli transfer
matrix R_ij = Tr(E_i E(E_j))/2 is a fixed linear image of it (see
:mod:`polarchan.bench_sim`).  A unital qubit channel acts on Stokes space as
the 3x3 block R[1:, 1:], whose polar decomposition separates the depolarizing
ellipsoid (symmetric factor) from rotations/reflections (orthogonal factor).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bench_sim import _CHI_TO_PTM, KrausSet, _apply_ptm
from .polar_core import _check_physical, _hermitian_spectrum, _square

__all__ = [
    "chi_from_kraus",
    "apply_process_matrix",
    "check_process_matrix",
    "chi_eigenvalues",
    "EllipsoidReport",
    "polar_decompose",
    "pauli_feasible",
    "isotropy_deviation",
]

#: flat positions of a 3x3 matrix's off-diagonal entries
_OFF_DIAGONAL = np.array([1, 2, 3, 5, 6, 7])
_OFF_DIAGONAL.setflags(write=False)

#: a Stokes matrix with no off-diagonal entry above this is axis-aligned: its diagonal is its radii
_AXIS_ALIGNED_ATOL = 1e-10

#: slack of pauli_feasible's [0, 1] eigenvalue bounds; in_reachable_region's may not exceed it
FEASIBILITY_SLACK = 1e-12


def chi_from_kraus(kraus: KrausSet) -> np.ndarray:
    """Process matrix from a Kraus set.

    Each operator is expanded as K_d = sum_m c_dm E_m with
    c_dm = Tr(E_m K_d)/2; then chi_mn = sum_d c_dm c_dn^*.  The Kraus set
    computes chi once and keeps it; this returns a writable copy.
    """
    return kraus._complete_chi()[0].copy()


def apply_process_matrix(chi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Evaluate E(rho) = sum_mn chi_mn E_m rho E_n^dag for one finite 4x4 ``chi``
    and one 2x2 ``rho``, as sum_i (R x)_i E_i / 2 for the Pauli transfer matrix
    R = G chi (complex unless chi is Hermitian) and x_j = Tr(E_j rho).
    """
    chi = _square(chi, 4, "process matrix")
    return _apply_ptm((_CHI_TO_PTM @ chi.reshape(16)).reshape(4, 4), rho)


def check_process_matrix(chi: np.ndarray) -> np.ndarray:
    """Validate a 4x4 chi matrix as check_density does a state; returns it as a complex ndarray."""
    return _check_physical(chi, 4, "process matrix")


def chi_eigenvalues(chi: np.ndarray) -> np.ndarray:
    """Real eigenvalues of chi, sorted descending, those down to ``-EIG_ATOL`` clipped to 0.

    Takes one 4x4 matrix or a ``(..., 4, 4)`` stack, each checked as check_process_matrix does but for trace.
    """
    return _clipped_spectrum(_square(chi, 4, "process matrix", stack=True))


def _clipped_spectrum(chi: np.ndarray) -> np.ndarray:
    """chi_eigenvalues of a finite complex ``(..., 4, 4)`` stack."""
    return np.maximum(_hermitian_spectrum(chi, "process matrix")[..., ::-1], 0.0)


@dataclass(frozen=True)
class EllipsoidReport:
    """Poincare-sphere image of a unital channel: M = rotation @ stretch.

    ``radii`` are signed: when the Stokes matrix is diagonal (axis-aligned
    channel) they are its diagonal entries, negative values meaning a
    reflection along that axis; otherwise they are the singular values in
    descending order with the sign of det(rotation) carried by the smallest.
    ``rotation`` is the orthogonal polar factor, reported verbatim.
    """

    radii: tuple
    rotation: np.ndarray
    det_sign: float
    axis_aligned: bool

    def __post_init__(self):
        o = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        o.setflags(write=False)
        object.__setattr__(self, "rotation", o)
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))

    @property
    def reflections(self) -> tuple:
        return tuple(r < 0 for r in self.radii)


def _diagonal_reports(m: np.ndarray) -> tuple:
    """Radii, rotations and det signs of a ``(B, 3, 3)`` stack of axis-aligned maps, read off the diagonal."""
    radii = m.reshape(-1, 9)[:, ::4].copy()
    signs = np.copysign(1.0, radii + 0.0)  # -0.0 + 0.0 is 0.0, so every r >= 0 gives +1
    rotation = np.zeros((len(m), 3, 3))
    rotation.reshape(-1, 9)[:, ::4] = signs
    # the product of the signs is the determinant of their diagonal, bit for bit
    return radii, rotation, signs.prod(axis=-1)


def _svd_reports(m: np.ndarray) -> tuple:
    """Radii, rotations and det signs of a ``(B, 3, 3)`` stack, from one batched SVD and determinant pass."""
    u, sing, vt = np.linalg.svd(m)
    o = u @ vt
    det_o = np.linalg.det(o)
    # rank deficient with det(rotation) = -1: flip the weakest left-singular
    # direction, which leaves S as it is and turns det(rotation) to +1
    flip = (sing[:, -1] <= _AXIS_ALIGNED_ATOL) & (det_o < 0)
    if np.count_nonzero(flip):
        flip = np.where(flip, -1.0, 1.0)
        u[:, :, -1] *= flip[:, None]
        o, det_o = u @ vt, det_o * flip
    sign_o = np.copysign(1.0, det_o)  # det(rotation) is +-1, never 0
    sing[:, -1] *= sign_o
    return sing, o, sign_o


def _polar_stack(m: np.ndarray) -> tuple:
    """polar_decompose for each matrix of a finite ``(B, 3, 3)`` stack: radii, rotations,
    det signs, axis-aligned flags and largest off-diagonal magnitudes.  Axis-aligned
    matrices are read off their diagonal, the others take one batched SVD pass; rows
    are selected only in a stack that holds both."""
    off = np.abs(m.reshape(-1, 9).take(_OFF_DIAGONAL, axis=1)).max(axis=-1)
    aligned = off <= _AXIS_ALIGNED_ATOL
    count = np.count_nonzero(aligned)
    if count == len(m):
        return (*_diagonal_reports(m), aligned, off)
    if count == 0:
        return (*_svd_reports(m), aligned, off)
    radii, rotation, det_sign = np.empty((len(m), 3)), np.empty((len(m), 3, 3)), np.empty(len(m))
    for rows, reports in ((aligned, _diagonal_reports), (~aligned, _svd_reports)):
        radii[rows], rotation[rows], det_sign[rows] = reports(m[rows])
    return radii, rotation, det_sign, aligned, off


def polar_decompose(m: np.ndarray) -> EllipsoidReport:
    """Split a 3x3 Stokes matrix into orthogonal and stretch factors.

    A map with no off-diagonal entry above _AXIS_ALIGNED_ATOL (1e-10) is
    axis-aligned: it is reported from its diagonal alone, with no SVD.  Any
    other map is split by an SVD.  When its smallest singular value is at most
    that tolerance (rank deficient) the weakest left-singular direction is flipped as needed to
    make det(rotation) = +1, whatever the sign of det M, so its radii are
    all non-negative; this keeps the report deterministic for maps that
    collapse an axis.  A map of any shape but 3x3 raises ``ValueError``, a
    non-finite one ``LinAlgError``.  One matrix of _polar_stack.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError(f"Stokes matrix must be 3x3, got shape {m.shape}")
    if not np.isfinite(m).all():
        # LAPACK's SVD never returns for an infinite diagonal entry
        raise np.linalg.LinAlgError("Stokes matrix must be finite")
    radii, rotation, det_sign, aligned, _ = _polar_stack(m[None])
    return EllipsoidReport(tuple(radii[0].tolist()), rotation[0], det_sign.item(), aligned.item())


def pauli_feasible(r1, r2, r3):
    """Physicality of an axis-aligned channel with signed radii (r1, r2, r3).

    Returns (feasible, lambdas) where the four lambdas are the process-matrix
    eigenvalues implied by the radii; the channel is completely positive iff
    all of them lie in [0, 1], here within FEASIBILITY_SLACK.  Scalars give a
    bool and lambdas of shape (4,).  Arrays broadcast elementwise and give a
    boolean array of the broadcast shape and lambdas of that shape plus a
    trailing axis of 4, each point's values bit-identical to a scalar call.
    """
    r1, r2, r3 = (np.asarray(r, dtype=float) for r in (r1, r2, r3))
    lam = np.stack(
        [
            (1.0 + r1 + r2 + r3) / 4.0,
            (1.0 + r1 - r2 - r3) / 4.0,
            (1.0 - r1 + r2 - r3) / 4.0,
            (1.0 - r1 - r2 + r3) / 4.0,
        ],
        axis=-1,
    )
    feasible = np.all((lam >= -FEASIBILITY_SLACK) & (lam <= 1.0 + FEASIBILITY_SLACK), axis=-1)
    return (bool(feasible) if feasible.ndim == 0 else feasible), lam


def isotropy_deviation(chi: np.ndarray) -> float:
    """Distance of a channel from isotropic depolarization.

    A channel that shrinks the sphere uniformly has three equal
    process-matrix eigenvalues (the fourth, attached to the identity
    component, can sit above or below them, and reaches zero at the
    strongest reflective settings).  The deviation is therefore the
    smallest spread among the four triples of eigenvalues: for values
    sorted descending, min(l2 - l4, l1 - l3).  Exactly zero for isotropic
    channels of any strength, including the identity.  Takes one 4x4 chi.
    """
    lam = _clipped_spectrum(_square(chi, 4, "process matrix"))
    return float(min(lam[1] - lam[3], lam[0] - lam[2]))
