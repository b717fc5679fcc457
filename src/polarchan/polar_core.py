"""Polarization-qubit conventions: Stokes vectors, density matrices, Jones matrices.

Conventions used throughout the package:

* qubit basis {|H>, |V>} with |H> = (1, 0);
* Stokes axes:  S1 <-> horizontal/vertical (H maps to +1),
                S2 <-> diagonal (P = (H+V)/sqrt2 maps to +1),
                S3 <-> circular (R = (H+iV)/sqrt2 maps to +1);
* the operator basis ``PAULI_BASIS`` = (E0, E1, E2, E3) is ordered to match
  the Stokes axes, so E1 = sigma_z, E2 = sigma_x, E3 = sigma_y in textbook
  naming.  With this ordering, s_i = Tr(rho E_i) and channel radii line up
  index-for-index with the Stokes components;
* an operator A = sum_i x_i E_i / 2 has coordinates x_i = Tr(E_i A); the two
  maps between them (``_pauli_coords``, ``_pauli_operators``) are shared by
  every module, and the Stokes conversions are their one-state cases.

All public interfaces take angles in degrees (fast-axis orientation measured
from horizontal); radians are an internal detail.  Jones matrices are defined
only up to a global phase and every observable computed here is
phase-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ATOL",
    "KET_H",
    "KET_V",
    "KET_P",
    "KET_M",
    "KET_R",
    "KET_L",
    "PAULI_BASIS",
    "PAULI_STACK",
    "StokesVector",
    "ket_projector",
    "check_density",
    "density_from_stokes",
    "stokes_from_density",
    "degree_of_polarization",
    "rotation2",
    "waveplate_jones",
    "fidelity",
]

#: Hermiticity and unit-trace tolerance of density and process matrices
ATOL = 1e-12

#: negative-eigenvalue window: an eigenvalue of at least -EIG_ATOL counts as zero
EIG_ATOL = 1e-10

#: length slack of a Stokes vector: one up to 1 + STOKES_SLACK long is physical
STOKES_SLACK = 1e-9

KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)
KET_P = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET_M = np.array([-1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET_R = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)
# L differs from the common (H - iV)/sqrt2 by a global phase i; the projector
# is identical, so the choice is unobservable.
KET_L = np.array([1.0j, 1.0], dtype=complex) / np.sqrt(2.0)

#: the basis E0..E3 as one read-only ``(4, 2, 2)`` array; E3's -1j has a real part of -0.0
PAULI_STACK = np.array([
    [[1.0, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, -1.0]],    # S1 axis (H/V)
    [[0.0, 1.0], [1.0, 0.0]],     # S2 axis (P/M)
    [[0.0, -1.0j], [1.0j, 0.0]],  # S3 axis (R/L)
], dtype=complex)
PAULI_STACK.setflags(write=False)

#: Stokes-aligned operator basis (identity first), read-only views of
#: PAULI_STACK.  Tr(Ei Ej) = 2 delta_ij.
PAULI_BASIS: tuple[np.ndarray, ...] = tuple(PAULI_STACK)

#: ``K.reshape(4) @ _PAULI_COEFFS`` are the coefficients c_m = Tr(E_m K)/2 of
#: K = sum_m c_m E_m: column m is vec(E_m^T)/2, entries 0, +-1/2 and +-i/2
_PAULI_COEFFS = PAULI_STACK.swapaxes(-1, -2).reshape(4, 4).T / 2
_PAULI_COEFFS.setflags(write=False)


def _pauli_coords(ops) -> np.ndarray:
    """Coordinates x_i = Tr(E_i A), shape ``(k, 4)``, of k 2x2 operators A = sum_i x_i E_i / 2."""
    return 2 * (np.asarray(ops, dtype=complex).reshape(-1, 4) @ _PAULI_COEFFS)


def _pauli_operators(coords) -> np.ndarray:
    """The operators A = sum_i x_i E_i / 2, shape ``(k, 2, 2)``, of k coordinate rows x."""
    return (np.asarray(coords) @ PAULI_STACK.reshape(4, 4)).reshape(-1, 2, 2) / 2


@dataclass(frozen=True)
class StokesVector:
    """Point in (or on) the Poincare sphere; S0 == 1 is implied."""

    s1: float
    s2: float
    s3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.s1, self.s2, self.s3], dtype=float)

    @classmethod
    def from_array(cls, values) -> "StokesVector":
        v = np.asarray(values, dtype=float).reshape(3)
        return cls(float(v[0]), float(v[1]), float(v[2]))

    def norm(self) -> float:
        return float(np.sqrt(self.s1**2 + self.s2**2 + self.s3**2))


def _stokes_array(s) -> np.ndarray:
    if isinstance(s, StokesVector):
        return s.as_array()
    return np.asarray(s, dtype=float).reshape(3)


def ket_projector(ket: np.ndarray) -> np.ndarray:
    """Density matrix |k><k| of a (normalized) 2-component ket."""
    k = np.asarray(ket, dtype=complex).reshape(2)
    return np.outer(k, k.conj())


def check_density(rho: np.ndarray) -> np.ndarray:
    """Validate a 2x2 density matrix; returns it as a complex ndarray.

    Raises ValueError if the matrix is not finite, is not Hermitian/unit-trace
    within ``ATOL`` or has an eigenvalue below ``-EIG_ATOL``.
    """
    return _check_physical(rho, 2, "density matrix")


def _square(m, dim: int, what: str) -> np.ndarray:
    """``m`` as one complex ``(dim, dim)`` array; any other shape raises a ValueError naming ``what``."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"{what} must be {dim}x{dim}, got shape {m.shape}")
    return m


def _check_physical(m, dim: int, what: str) -> np.ndarray:
    """``m`` as a complex ``(dim, dim)`` array, checked as check_density says; the
    ValueError of a failed check names ``what``."""
    m = _square(m, dim, what)
    if not np.isfinite(m).all():
        raise ValueError(f"{what} must be finite")
    # each test written so that NaN fails it too
    if not np.abs(m - m.conj().T).max() <= ATOL:
        raise ValueError(f"{what} is not Hermitian")
    if not abs(np.trace(m) - 1.0) <= ATOL:
        raise ValueError(f"{what} trace differs from 1")
    if not np.linalg.eigvalsh(m).min() >= -EIG_ATOL:
        raise ValueError(f"{what} has a negative eigenvalue")
    return m


def density_from_stokes(s) -> np.ndarray:
    """Density matrix rho = (I + s1 E1 + s2 E2 + s3 E3) / 2.

    Rejects non-finite Stokes vectors and those longer than 1 + STOKES_SLACK
    as unphysical.
    """
    v = _stokes_array(s)
    if not np.isfinite(v).all():
        raise ValueError(f"Stokes vector must be finite, got {v.tolist()}")
    norm = float(np.linalg.norm(v))
    if norm > 1.0 + STOKES_SLACK:
        raise ValueError(f"Stokes vector length {norm:.6g} exceeds 1 (unphysical)")
    return _pauli_operators(np.r_[1.0, v])[0]


def stokes_from_density(rho: np.ndarray) -> StokesVector:
    """Stokes components s_i = Tr(rho E_i) of a valid density matrix."""
    return StokesVector.from_array(_pauli_coords(check_density(rho))[0, 1:].real)


def degree_of_polarization(s) -> float:
    """Length of the Stokes vector: 0 = fully mixed, 1 = pure."""
    return float(np.linalg.norm(_stokes_array(s)))


def rotation2(angle_deg: float) -> np.ndarray:
    """2x2 rotation of the (H, V) amplitude plane by ``angle_deg``."""
    a = np.deg2rad(angle_deg)
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s], [s, c]])


def waveplate_jones(kind: str, angle_deg: float) -> np.ndarray:
    """Jones matrix of a half- or quarter-wave plate.

    ``angle_deg`` is the fast-axis orientation from horizontal.  The
    half-wave plate is R(t) diag(1, -1) R(-t) = [[cos2t, sin2t],
    [sin2t, -cos2t]]; the quarter-wave plate is R(t) diag(1, i) R(-t).
    Global phase is not normalized.
    """
    if kind == "half":
        a = np.deg2rad(angle_deg)
        c2, s2 = np.cos(2 * a), np.sin(2 * a)
        return np.array([[c2, s2], [s2, -c2]], dtype=complex)
    if kind == "quarter":
        r = rotation2(angle_deg).astype(complex)
        return r @ np.diag([1.0, 1.0j]) @ r.T
    raise ValueError(f"unknown wave-plate kind {kind!r} (expected 'half' or 'quarter')")


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity of two qubit states (squared-overlap convention).

    Uses the closed form F = Tr(rho sigma) + 2 sqrt(det rho det sigma),
    valid for 2x2 density matrices.
    """
    rho = check_density(rho)
    sigma = check_density(sigma)
    overlap = float(np.trace(rho @ sigma).real)
    dets = np.linalg.det(rho).real * np.linalg.det(sigma).real
    f = overlap + 2.0 * np.sqrt(max(dets, 0.0))
    return float(min(max(f, 0.0), 1.0))
