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

from .bench_sim import (BenchConfig, Crystal, Waveplate, _as_length, _plate_forms, _ptm_stack, _transfer,
                        propagate)
from .channel_analysis import FEASIBILITY_SLACK, _polar_stack
from .polar_core import PAULI_STACK, _check_integer

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

#: most points of a region scan, and of the CLI's feasibility grids and sweeps
_MAX_GRID_POINTS = 4_000_000


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


def _per_angle(angles_deg, name: str, fn) -> tuple:
    """``fn(t)``, a tuple of floats, once per distinct angle of ``angles_deg`` (t in
    radians), as one array per value in the angles' shape (floats for a scalar; empty
    arrays for an empty input).  fn
    uses ``math`` and Python's pow, so no bit depends on numpy's SIMD loops (at
    4.775598086124401 deg, numpy's array square of cos 2t differs in the last bit)."""
    angles = np.asarray(angles_deg, dtype=float)
    keys, inverse = ([angles.item()], None) if angles.ndim == 0 else np.unique(angles, return_inverse=True)
    if not all(map(math.isfinite, keys)):
        raise ValueError(f"{name} must be finite")
    values = [fn(math.radians(t)) for t in keys]
    if inverse is None:
        return values[0]
    # an empty input takes the table's width from one row at angle 0, and no row of it
    return tuple(np.array(values or [fn(0.0)]).T[:, inverse.reshape(angles.shape)])


def radii_closed_form(theta1_deg, theta2_deg):
    """Signed ellipsoid radii (R1, R2, R3) of the compensated bench map.

    Scalars or arrays, broadcast together, every point bit-identical to a scalar
    call (see _per_angle).  R2 and R3 are the same object; arrays are returned
    read-only, so that a write into one cannot move the other.  A non-finite
    angle raises ValueError naming its argument.
    """
    r1, r2 = _radii_pair(theta1_deg, theta2_deg)
    if isinstance(r1, np.ndarray):
        r1.setflags(write=False)
        r2.setflags(write=False)
    return r1, r2, r2


def _radii_pair(theta1_deg, theta2_deg, out=(None, None)) -> tuple:
    """The closed form's (R1, R2), as radii_closed_form; for arrays, written into the
    arrays ``out`` where given, so that a grid holds no temporary of its size."""
    # squares: c4 = cos^2(4 t1), s4 = sin^2(4 t1), c2 = cos^2(2 t2), s2 = sin^2(2 t2)
    c4, s4 = _per_angle(theta1_deg, "theta1_deg", lambda t: (math.cos(4 * t) ** 2, math.sin(4 * t) ** 2))
    c2, s2 = _per_angle(theta2_deg, "theta2_deg", lambda t: (math.cos(2 * t) ** 2, math.sin(2 * t) ** 2))
    if isinstance(c4, float) and isinstance(c2, float):
        return np.float64(c2 - s2 * c4), np.float64(c2 - 0.5 * s2 * s4)
    r1 = np.multiply(s2, c4, out=out[0])
    r2 = np.multiply(0.5 * s2, s4, out=out[1])
    return np.subtract(c2, r1, out=r1), np.subtract(c2, r2, out=r2)


def dop_isotropic(theta2_deg):
    """Degree of polarization on the isotropic line, 1/3 + (2/3) cos(4 t2); as radii_closed_form."""
    (cos4,) = _per_angle(theta2_deg, "theta2_deg", lambda t: (math.cos(4 * t),))
    return np.add(1.0 / 3.0, (2.0 / 3.0) * cos4)


@dataclass(frozen=True)
class DepolarizerSettings:
    """Angles and crystal lengths of the four-crystal bench.

    The third plate is fixed at ``-theta1_deg`` and the crystal lengths are
    mirrored: (L1, L2, L2, L1).  Both angles must be finite.
    """

    theta1_deg: float
    theta2_deg: float
    length1: Fraction = Fraction(1)
    length2: Fraction = Fraction(2)

    def __post_init__(self):
        object.__setattr__(self, "length1", _as_length(self.length1))
        object.__setattr__(self, "length2", _as_length(self.length2))
        for name in ("theta1_deg", "theta2_deg"):
            angle = float(getattr(self, name))
            if not math.isfinite(angle):
                raise ValueError(f"{name} must be finite, got {angle}")
            object.__setattr__(self, name, angle)

    @property
    def is_degenerate_ratio(self) -> bool:
        """Whether L2/L1 is exactly 1 or 1/2, tested on the lengths' integer pairs."""
        n1, d1 = self.length1.as_integer_ratio()
        n2, d2 = self.length2.as_integer_ratio()
        # L2/L1 = n2 d1 / (n1 d2)
        return n1 * d2 in (n2 * d1, 2 * n2 * d1)


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
            Waveplate("half", t2),  # the control plate, at _CONTROL_PLATE
            Crystal(l2, 0.0),
            Waveplate("half", -t1),
            Crystal(l1, 90.0),
        )
    )


#: position of the control plate in a build_bench bench
_CONTROL_PLATE = 3


def _control_plate_forms(bench: BenchConfig) -> np.ndarray:
    """The ``_plate_forms`` of a build_bench ``bench``'s control plate, from the bench
    propagated once with that plate's Jones matrix set to E1 (sigma_z) and to E2
    (sigma_x); ``_plate_chi`` then gives its chi at any control angle."""
    return _plate_forms(_transfer(bench, _CONTROL_PLATE, PAULI_STACK[1:3])[1])


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


def _compensated_radii(chi: np.ndarray) -> tuple:
    """_polar_stack's report on the compensated Stokes matrices of a ``(B, 4, 4)`` chi stack."""
    return _polar_stack(REFLECTION_COMPENSATION @ _ptm_stack(chi)[:, 1:, 1:])


def simulated_radii(bench: BenchConfig) -> np.ndarray:
    """Signed radii of a bench via brute-force simulation plus compensation.

    They are _compensated_radii's for the bench's chi: the diagonal of the
    simulated Stokes matrix after the fixed S2/S3 reflection compensation.  A
    compensated map that is not axis-aligned raises ValueError.
    """
    radii, _, _, aligned, off = _compensated_radii(propagate(bench)._complete_chi())
    if not aligned[0]:
        raise ValueError(f"compensated map is not axis-aligned (off-diagonal {off[0]:.3g}); "
                         "signed radii are not defined for this bench")
    return radii[0]


def _check_region_grid(grid_n) -> None:
    _check_integer("grid_n", grid_n)
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    if grid_n ** 2 > _MAX_GRID_POINTS:
        raise ValueError(f"region grid of {grid_n ** 2} points exceeds the {_MAX_GRID_POINTS} limit; "
                         "decrease grid_n")


def reachable_region_scan(grid_n: int = 451) -> np.ndarray:
    """(R1, R2) points swept by the closed form over a grid_n x grid_n grid.

    The grid covers theta1, theta2 in [0, 45] degrees; 451 points per axis
    (0.1 degree steps) resolve the region boundary at plot scale.  Returns
    an array of shape (grid_n**2, 2), the values the ``region`` mode writes.
    Any grid_n but an integer in 2..2000 raises ValueError before allocating.
    """
    _check_region_grid(grid_n)
    angles = np.linspace(0.0, 45.0, grid_n)
    points = np.empty((grid_n ** 2, 2))
    # R1 and R2 go straight into the two columns, viewed as grid_n x grid_n grids
    grid = points.reshape(grid_n, grid_n, 2)
    _radii_pair(angles[:, None], angles[None, :], (grid[..., 0], grid[..., 1]))
    return points


def in_reachable_region(r1, r2):
    """Whether the pair (R1, R2 = R3) is produced by some plate setting.

    For a fixed control angle the closed form traces the straight segment
    R2 = 2A - 1/2 - R1/2 with R1 in [2A - 1, A], where A = cos^2(2 t2).
    Eliminating the parameters gives the exact region: A = (1 + R1 + 2 R2)/4
    must lie in [0, 1] with 2A - 1 <= R1 <= A, each within FEASIBILITY_SLACK.
    Scalars or arrays.
    """
    r1, r2 = (np.asarray(r, dtype=float) for r in (r1, r2))
    # pauli_feasible's first lambda at r3 = r2, summed alike, so both agree at the slack edge
    a = (1.0 + r1 + r2 + r2) / 4.0
    eps = FEASIBILITY_SLACK
    ok = (a >= -eps) & (a <= 1.0 + eps) & (r1 <= a + eps) & (r1 >= 2.0 * a - 1.0 - eps)
    return bool(ok) if ok.ndim == 0 else ok
