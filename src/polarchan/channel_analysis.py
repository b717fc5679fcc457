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
from .polar_core import ATOL, EIG_ATOL, _check_physical

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

#: the off-diagonal entries of a 3x3 matrix
_OFF_DIAGONAL = ~np.eye(3, dtype=bool)
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
    """Evaluate E(rho) = sum_mn chi_mn E_m rho E_n^dag on one 2x2 ``rho``, as
    sum_i (R x)_i E_i / 2 for the Pauli transfer matrix R = G chi (complex
    unless chi is Hermitian) and x_j = Tr(E_j rho).
    """
    return _apply_ptm((_CHI_TO_PTM @ np.asarray(chi, dtype=complex).reshape(16)).reshape(4, 4), rho)


def check_process_matrix(chi: np.ndarray) -> np.ndarray:
    """Validate a 4x4 chi matrix as check_density does a state; returns it as a complex ndarray."""
    return _check_physical(chi, 4, "process matrix")


def chi_eigenvalues(chi: np.ndarray) -> np.ndarray:
    """Real eigenvalues of chi, sorted descending, those down to ``-EIG_ATOL`` clipped to 0.

    Takes one 4x4 matrix or a stack of shape ``(..., 4, 4)``; the finiteness,
    Hermitian (ATOL) and clipping-window checks then cover every matrix of the stack.
    """
    chi = np.asarray(chi, dtype=complex)
    if not np.isfinite(chi).all():
        raise ValueError("process matrix must be finite")
    # each test written so that NaN fails it too
    if not np.abs(chi - chi.conj().swapaxes(-1, -2)).max() <= ATOL:
        raise ValueError("process matrix is not Hermitian")
    vals = np.linalg.eigvalsh(chi)[..., ::-1].astype(float)
    if not vals.min() >= -EIG_ATOL:
        raise ValueError(f"eigenvalue {vals.min():.3g} below clipping window")
    return np.maximum(vals, 0.0)


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


def polar_decompose(m: np.ndarray) -> EllipsoidReport:
    """Split a 3x3 Stokes matrix into orthogonal and stretch factors.

    A map with no off-diagonal entry above _AXIS_ALIGNED_ATOL (1e-10) is
    axis-aligned: it is reported from its diagonal alone, with no SVD.  Any
    other map is split by an SVD.  When its smallest singular value is at most
    that tolerance (rank deficient) the weakest left-singular direction is flipped as needed to
    make det(rotation) = +1, whatever the sign of det M, so its radii are
    all non-negative; this keeps the report deterministic for maps that
    collapse an axis.  Non-finite maps raise ``LinAlgError``.
    """
    m = np.asarray(m, dtype=float).reshape(3, 3)
    if not np.isfinite(m).all():
        # LAPACK's SVD never returns for an infinite diagonal entry
        raise np.linalg.LinAlgError("Stokes matrix must be finite")
    if np.abs(m[_OFF_DIAGONAL]).max() <= _AXIS_ALIGNED_ATOL:
        radii = np.diagonal(m)
        signs = np.where(radii >= 0, 1.0, -1.0)
        # the product of the signs is the determinant of their diagonal, bit for bit
        return EllipsoidReport(radii, np.diag(signs), float(signs.prod()), True)

    u, sing, vt = np.linalg.svd(m)
    o = u @ vt
    if sing.min() <= _AXIS_ALIGNED_ATOL and np.linalg.det(o) < 0:
        # flip the weakest left-singular direction; S is unchanged at rank
        u = u.copy()
        u[:, -1] *= -1.0
        o = u @ vt
    det_sign = 1.0 if np.linalg.det(o) > 0 else -1.0
    radii = sing.copy()
    radii[-1] *= det_sign
    return EllipsoidReport(tuple(radii), o, det_sign, False)


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
    channels of any strength, including the identity.
    """
    lam = chi_eigenvalues(chi)
    return float(min(lam[1] - lam[3], lam[0] - lam[2]))
