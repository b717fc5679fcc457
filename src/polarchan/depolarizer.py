"""Closed forms and bench builders for the crystal depolarizer configurations.

The main configuration is a four-crystal, three-half-wave-plate bench whose
middle plate angle controls the amount of depolarization:

    C1(L1, fast@0) HWP(t1) C2(L2, fast@90) HWP(t2) C3(L2, fast@0)
    HWP(-t1) C4(L1, fast@90)

Its Stokes-space action is a pure axis-aligned shrink combined with fixed
reflections along S2 and S3; compensating those with one extra half-wave
plate at zero leaves diag(R1, R2, R3) with

    R1 = cos^2(2 t2) - sin^2(2 t2) cos^2(4 t1)
    R2 = R3 = cos^2(2 t2) - 1/2 sin^2(2 t2) sin^2(4 t1)

The shrink is isotropic (R1 = R2 = R3) when cos^2(4 t1) = 1/3, i.e. at
t1 = atan(sqrt 2)/4 or 45 deg minus that, and then the common degree of
polarization is D = 1/3 + (2/3) cos(4 t2).

Also provided: the two-crystal channel family, the classic two-crystal
full depolarizer (second crystal twice as long, axes at 45 deg), and a
wave-plate-free variant where depolarization is controlled by rotating the
second crystal pair.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bench_sim import BenchConfig, Crystal, Waveplate, affine_map, propagate
from .channel_analysis import _AXIS_ALIGNED_ATOL, _OFF_DIAGONAL

__all__ = [
    "DegenerateLengthRatioWarning",
    "DepolarizerSettings",
    "REFLECTION_COMPENSATION",
    "isotropic_theta1_angles",
    "radii_closed_form",
    "dop_isotropic",
    "build_bench",
    "build_bench_rotated_crystals",
    "build_lyot",
    "build_two_crystal",
    "simulated_radii",
    "reachable_region_scan",
    "in_reachable_region",
]

#: Stokes action of a half-wave plate at zero, which undoes the bench's
#: built-in reflections along S2 and S3 when applied after (or before) it.
REFLECTION_COMPENSATION = np.diag([1.0, -1.0, -1.0])
REFLECTION_COMPENSATION.setflags(write=False)


class DegenerateLengthRatioWarning(UserWarning):
    """Raised when L2/L1 is exactly 1 or 1/2.

    The bench simulator stays exact for those benches; only the closed-form
    radii stop applying, because extra delay-bin coincidences open up.
    """


def isotropic_theta1_angles() -> tuple:
    """Both first-plate angles (degrees) that make the shrink isotropic.

    Defined by cos^2(4 t1) = 1/3: atan(sqrt 2)/4 = 13.6839 deg and its
    complement to 45 deg, 31.3161 deg.
    """
    low = np.degrees(np.arctan(np.sqrt(2.0))) / 4.0
    return (low, 45.0 - low)


def radii_closed_form(theta1_deg, theta2_deg):
    """Signed ellipsoid radii (R1, R2, R3) of the compensated bench map.

    Accepts scalars or numpy arrays (broadcast together).
    """
    t1 = np.deg2rad(theta1_deg)
    t2 = np.deg2rad(theta2_deg)
    c2 = np.cos(2 * t2) ** 2
    s2 = np.sin(2 * t2) ** 2
    r1 = c2 - s2 * np.cos(4 * t1) ** 2
    r2 = c2 - 0.5 * s2 * np.sin(4 * t1) ** 2
    return r1, r2, r2


def _radii_grid(angles_deg) -> tuple:
    """Closed-form (R1, R2) on the ``angles x angles`` grid, rows theta1 and columns theta2.

    Each squared cosine and sine is taken once per angle with ``math``, so the
    bytes do not depend on which SIMD loop numpy dispatches for a long array.
    The grid arithmetic is radii_closed_form's, in the same order, written in
    place so that the grid holds no temporaries.
    """
    rad = [math.radians(a) for a in angles_deg]

    def squares(fn, k):
        return np.array([fn(k * t) ** 2 for t in rad])

    c2, s2 = squares(math.cos, 2), squares(math.sin, 2)
    r1 = s2 * squares(math.cos, 4)[:, None]
    np.subtract(c2, r1, out=r1)
    r2 = 0.5 * s2 * squares(math.sin, 4)[:, None]
    np.subtract(c2, r2, out=r2)
    return r1, r2


def dop_isotropic(theta2_deg):
    """Degree of polarization on the isotropic line: 1/3 + (2/3) cos(4 t2)."""
    return 1.0 / 3.0 + (2.0 / 3.0) * np.cos(4 * np.deg2rad(theta2_deg))


@dataclass(frozen=True)
class DepolarizerSettings:
    """Angles and crystal lengths of the four-crystal bench.

    The third plate is fixed at ``-theta1_deg`` and the crystal lengths are
    mirrored: (L1, L2, L2, L1).
    """

    theta1_deg: float
    theta2_deg: float
    length1: Fraction = Fraction(1)
    length2: Fraction = Fraction(2)

    def __post_init__(self):
        c1 = Crystal(self.length1, 0.0)   # reuse the exact length coercion
        c2 = Crystal(self.length2, 0.0)
        object.__setattr__(self, "length1", c1.length)
        object.__setattr__(self, "length2", c2.length)
        object.__setattr__(self, "theta1_deg", float(self.theta1_deg))
        object.__setattr__(self, "theta2_deg", float(self.theta2_deg))

    @property
    def is_degenerate_ratio(self) -> bool:
        ratio = self.length2 / self.length1
        return ratio == 1 or ratio == Fraction(1, 2)


def build_bench(settings: DepolarizerSettings) -> BenchConfig:
    """Element sequence of the four-crystal depolarizer.

    Warns (does not fail) on the degenerate length ratios 1 and 1/2.
    """
    if settings.is_degenerate_ratio:
        warnings.warn(
            f"length ratio L2/L1 = {settings.length2 / settings.length1} is degenerate: "
            "the closed-form radii do not apply (simulation stays exact)",
            DegenerateLengthRatioWarning,
            stacklevel=2,
        )
    l1, l2 = settings.length1, settings.length2
    t1, t2 = settings.theta1_deg, settings.theta2_deg
    return BenchConfig(
        (
            Crystal(l1, 0.0),
            Waveplate("half", t1),
            Crystal(l2, 90.0),
            Waveplate("half", t2),
            Crystal(l2, 0.0),
            Waveplate("half", -t1),
            Crystal(l1, 90.0),
        )
    )


def build_bench_rotated_crystals(relative_rotation_deg: float) -> BenchConfig:
    """Wave-plate-free variant: four crystals only, lengths (1, 2, 2, 1).

    Replacing each half-wave plate by a rotation of everything downstream
    turns the isotropic bench into crystals at [0, 90 - 2a, -2a + d, 90 + d]
    where a = 31.3161 deg is the isotropic first-plate angle and d the
    relative rotation between the left and right crystal pairs.  d plays the
    role of twice the control-plate angle: d = 60 deg depolarizes
    completely.  Extra overall polarization rotations remain (reported in
    the orthogonal factor), but the radii magnitudes match the closed form.
    """
    delta = float(relative_rotation_deg)
    two_t1 = 2.0 * isotropic_theta1_angles()[1]
    return BenchConfig(
        (
            Crystal(1, 0.0),
            Crystal(2, 90.0 - two_t1),
            Crystal(2, -two_t1 + delta),
            Crystal(1, 90.0 + delta),
        )
    )


def build_lyot(length=1) -> BenchConfig:
    """Classic two-crystal full depolarizer: lengths (L, 2L), axes 45 deg apart."""
    base = Crystal(length, 0.0)
    return BenchConfig((base, Crystal(base.length * 2, 45.0)))


def build_two_crystal(angle_deg: float) -> BenchConfig:
    """Two identical unit crystals with ``angle_deg`` between them.

    The angle is measured from the crossed position (second fast axis along
    the first crystal's slow axis), which is the convention under which
    angle 0 leaves every state untouched: the second crystal then undoes the
    first one's delay.  The channel family sweeps radii magnitudes
    (|cos 2a|, cos^2 a, cos^2 a) and is isotropic only at
    a = atan(sqrt 2) = 54.7356 deg, where the sphere shrinks to 1/3.
    """
    return BenchConfig((Crystal(1, 0.0), Crystal(1, 90.0 - float(angle_deg))))


def _compensate(matrices: np.ndarray) -> tuple:
    """Compensated Stokes matrices ``(..., 3, 3)``, their diagonals and their
    largest off-diagonal magnitudes, to compare with ``_AXIS_ALIGNED_ATOL``."""
    compensated = REFLECTION_COMPENSATION @ matrices
    off = np.abs(compensated[..., _OFF_DIAGONAL]).max(axis=-1)
    return compensated, np.diagonal(compensated, axis1=-2, axis2=-1), off


def simulated_radii(bench: BenchConfig) -> np.ndarray:
    """Signed radii of a bench via brute-force simulation plus compensation.

    Applies the fixed S2/S3 reflection compensation to the simulated Stokes
    matrix and returns its diagonal.  The residual off-diagonal magnitude
    must stay within 1e-10, guaranteeing the diagonal is the whole story.
    """
    _, radii, off = _compensate(affine_map(propagate(bench)).matrix)
    if off > _AXIS_ALIGNED_ATOL:
        raise ValueError(
            f"compensated map is not axis-aligned (off-diagonal {off:.3g}); "
            "signed radii are not defined for this bench"
        )
    return radii.copy()


def reachable_region_scan(grid_n: int = 451) -> np.ndarray:
    """(R1, R2) points swept by the closed form over a grid_n x grid_n grid.

    The grid covers theta1, theta2 in [0, 45] degrees; 451 points per axis
    (0.1 degree steps) resolve the region boundary at plot scale.  Returns
    an array of shape (grid_n**2, 2), the values the ``region`` mode writes.
    """
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    r1, r2 = _radii_grid(np.linspace(0.0, 45.0, grid_n).tolist())
    return np.column_stack([r1.ravel(), r2.ravel()])


def in_reachable_region(r1, r2):
    """Whether the pair (R1, R2 = R3) is produced by some plate setting.

    For a fixed control angle the closed form traces the straight segment
    R2 = 2A - 1/2 - R1/2 with R1 in [2A - 1, A], where A = cos^2(2 t2).
    Eliminating the parameters gives the exact region: A = (1 + R1 + 2 R2)/4
    must lie in [0, 1] with 2A - 1 <= R1 <= A.  Scalars or arrays.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    a = (1.0 + r1 + 2.0 * r2) / 4.0
    eps = 1e-12
    ok = (a >= -eps) & (a <= 1.0 + eps) & (r1 <= a + eps) & (r1 >= 2.0 * a - 1.0 - eps)
    if ok.ndim == 0:
        return bool(ok)
    return ok
