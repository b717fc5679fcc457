"""Exact temporal-mode model of an optical bench of crystals and wave plates.

A birefringent crystal couples polarization to arrival time: the component
along its fast axis keeps its delay, the slow component is retarded by the
crystal length (an integer number of base walk-off units after
normalization).  Propagation therefore carries one 2x2 transfer matrix per
delay bin; wave plates act on every delay bin, crystals split each bin into
a fast part (same delay) and a slow part (delay + length).  Contributions
landing in the same bin are summed coherently: with all crystals cut from
one material, a path's accumulated optical phase is a function of its total
delay alone, so amplitudes meeting at equal delay carry no relative phase.
Which bins meet depends only on the crystal lengths, so the bins of every
step are worked out once per bench structure, as index arrays (a gather
plan), and each crystal is then one product with its fast- and slow-axis
projectors and one gathered sum.  A crystal's step in the plan is one merge
of the sorted delays with the same delays plus its shift, the integer its
length rescales to; one integer rule on the lengths' (numerator, denominator)
pairs gives the shifts to the plan, to ``normalize_delays`` and to
``delay_bin_bound``.  A product is real unless one of its factors is complex:
the identity, the crystal projectors and the half-wave plates are real, so a
bench's transfer matrices stay real up to its first quarter-wave plate, where
numpy's type promotion takes them to complex.  From there a real factor still
multiplies them as one real product on their float64 view, real and imaginary
parts side by side; only a quarter-wave plate takes a complex product.  The
transfer matrices are cast to complex once, at the end.  Tracing out the
(unresolved) arrival time turns the surviving transfer matrices into the Kraus
operators of the polarization channel.

Channels are analysed through one representation, the process matrix chi,
a fixed linear image of the Kraus operators; the Pauli transfer matrix
R_ij = Tr(E_i E(E_j))/2 is a fixed linear image of chi, and everything else
(channel outputs of ``apply_channel``, Stokes map, Born probabilities,
tomography constants) is read off R.

Delays are exact integers end to end; there is no floating-point
coincidence test anywhere.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

import numpy as np

from .polar_core import (PAULI_STACK, _PAULI_COEFFS, _finite_angle, _pauli_coords, _pauli_operators, _square,
                         rotation2, waveplate_jones)

__all__ = [
    "Crystal",
    "Waveplate",
    "OpticalElement",
    "BenchConfig",
    "KrausSet",
    "AffineMap",
    "MAX_DELAY_BINS",
    "normalize_delays",
    "delay_bin_bound",
    "propagate",
    "apply_channel",
    "affine_map",
]

#: transfer matrices with Frobenius norm at or below this are dropped as
#: numerically-zero path amplitudes (perturbs completeness at the 1e-28 level)
_ZERO_NORM = 1e-14

#: trace-preservation tolerance: the largest defect max |sum_d K_d^dag K_d - I| a check accepts
TP_ATOL = 1e-12

#: propagation refuses benches that may produce more delay bins than this
MAX_DELAY_BINS = 65_536

#: cap on a length text's digits in all and on its decimal exponent's
#: magnitude, checked before the text is parsed
_MAX_LENGTH_DIGITS = 30


def _parse_length(text: str) -> Fraction:
    """An exact length written as ``3/2``, ``1.5`` or ``15e-1``.

    Text past ``_MAX_LENGTH_DIGITS`` (in digits, or in exponent magnitude) is
    refused before ``Fraction`` reads it: the work of an exact parse grows with both.
    """
    if sum(ch.isdigit() for ch in text) > _MAX_LENGTH_DIGITS:
        raise ValueError(f"more than {_MAX_LENGTH_DIGITS} digits")
    try:
        exponent = int(text.lower().partition("e")[2] or 0)
    except ValueError:
        exponent = 0  # not an exponent Fraction reads either
    if abs(exponent) > _MAX_LENGTH_DIGITS:
        raise ValueError(f"decimal exponent beyond {_MAX_LENGTH_DIGITS} in magnitude")
    try:
        return Fraction(text)
    except ValueError:
        raise ValueError("not a decimal or a fraction") from None


def _as_length(value) -> Fraction:
    """Coerce a crystal length to an exact positive Fraction.

    Integers, numpy's included, are taken exactly; a bool is not a length.
    Other real numbers are interpreted via their float's shortest decimal
    representation (1.5 -> 3/2, 0.1 -> 1/10), and NaN and infinities are
    refused; strings accept both '3/2' and '1.5', within the bounds of
    _parse_length.
    """
    if isinstance(value, Fraction):
        frac = value
    elif isinstance(value, str):
        frac = _parse_length(value)
    elif isinstance(value, numbers.Integral) and not isinstance(value, bool):
        frac = Fraction(int(value))
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        number = float(value)
        if not math.isfinite(number):
            raise ValueError(f"crystal length must be finite, got {number}")
        frac = Fraction(repr(number))
    else:
        raise TypeError(f"cannot interpret {value!r} as a crystal length")
    if frac.numerator <= 0:  # a Fraction's denominator is positive
        raise ValueError(f"crystal length must be positive, got {frac}")
    return frac


@dataclass(frozen=True)
class Crystal:
    """Birefringent crystal: ``length`` in base walk-off units, fast axis in degrees."""

    length: Fraction
    fast_axis_deg: float

    def __post_init__(self):
        object.__setattr__(self, "length", _as_length(self.length))
        angle = _finite_angle(self.fast_axis_deg, "crystal fast axis")
        object.__setattr__(self, "fast_axis_deg", angle)


@dataclass(frozen=True)
class Waveplate:
    """Half- or quarter-wave plate at ``angle_deg`` (fast axis from horizontal)."""

    kind: str
    angle_deg: float

    def __post_init__(self):
        if self.kind not in ("half", "quarter"):
            raise ValueError(f"wave-plate kind must be 'half' or 'quarter', got {self.kind!r}")
        angle = _finite_angle(self.angle_deg, f"{self.kind}-wave plate")
        object.__setattr__(self, "angle_deg", angle)

    def jones(self) -> np.ndarray:
        return waveplate_jones(self.kind, self.angle_deg)


OpticalElement = Union[Crystal, Waveplate]


@dataclass(frozen=True)
class BenchConfig:
    """Ordered sequence of optical elements, first element hit first."""

    elements: tuple

    def __post_init__(self):
        elements = tuple(self.elements)
        if not elements:
            raise ValueError("bench must contain at least one element")
        for el in elements:
            if not isinstance(el, (Crystal, Waveplate)):
                raise TypeError(f"unsupported bench element {el!r}")
        object.__setattr__(self, "elements", elements)

    def crystal_lengths(self) -> tuple:
        return tuple(el.length for el in self.elements if isinstance(el, Crystal))


def _structure(bench: BenchConfig) -> tuple:
    """What fixes a bench's delay bins, as its gather-plan key: per element, in
    order, the wave-plate kind or the crystal length as an exact integer pair
    ``(numerator, denominator)``, so the key hashes without a ``Fraction``."""
    return tuple(el.kind if isinstance(el, Waveplate) else el.length.as_integer_ratio()
                 for el in bench.elements)


def _shifts(structure: tuple) -> list:
    """The delay each crystal of a bench structure (see :func:`_structure`) adds: its
    length, rescaled with the others by the smallest common factor that makes them all
    integers, which also makes them coprime.  Integer arithmetic on the lengths'
    ``(numerator, denominator)`` pairs throughout."""
    pairs = [kind for kind in structure if not isinstance(kind, str)]
    if not pairs:
        return []
    den = math.lcm(*(d for _, d in pairs))
    ints = [n * (den // d) for n, d in pairs]
    g = math.gcd(*ints)
    return [i // g for i in ints]


def normalize_delays(bench: BenchConfig) -> BenchConfig:
    """Rescale crystal lengths by the smallest common factor making them integers.

    Length ratios are preserved exactly; the traced-out channel is invariant
    under this rescaling because delay-bin coincidences are.
    """
    shifts = iter(_shifts(_structure(bench)))
    return BenchConfig(tuple(
        Crystal(next(shifts), el.fast_axis_deg) if isinstance(el, Crystal) else el
        for el in bench.elements
    ))


def _bin_bound(shifts) -> int:
    # each crystal at most doubles the bins, and no delay exceeds the total length
    return min(2 ** len(shifts), 1 + sum(shifts))


def delay_bin_bound(bench: BenchConfig) -> int:
    """Upper bound on the delay bins of a bench, known before propagating it.

    ``min(2**n_crystals, 1 + sum of normalized lengths)``.
    """
    return _bin_bound(_shifts(_structure(bench)))


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators of a channel, one per resolved temporal delay.

    The operators, finite 2x2 matrices, are kept as the read-only
    ``(n, 2, 2)`` view ``as_stack()[0]``, built once at construction.  The
    set's process matrix chi and its trace-preservation defect are computed
    at construction too, and kept read-only: every consumer of the set
    (``completeness_defect``, ``require_complete``, ``affine_map``,
    ``chi_from_kraus``, ``probability_table``, ``apply_channel``) reads them.

    The delays are strictly increasing integers, read with ``operator.index``:
    a float or a bool raises TypeError.  The sets that :func:`propagate` builds
    skip these checks (:meth:`_built`).
    """

    delays: tuple
    operators: np.ndarray

    @classmethod
    def _built(cls, delays: tuple, stack: np.ndarray) -> "KrausSet":
        """The set of ``delays``, strictly increasing Python ints, and a fresh, finite
        complex ``(1, n, 2, 2)`` stack, which it freezes: the library's own sets,
        without the checks of the public constructor."""
        kraus = object.__new__(cls)
        kraus._freeze(delays, stack)
        return kraus

    def __post_init__(self):
        delays = tuple(self.delays)
        # operator.index refuses floats; a bool passes it and numpy's does not, so both are refused first
        if any(isinstance(d, (bool, np.bool_)) for d in delays):
            raise TypeError("delays must be integers, got a bool")
        try:
            delays = tuple(map(operator.index, delays))
        except TypeError as exc:
            raise TypeError(f"delays must be integers ({exc})") from None
        stack = np.array(self.operators, dtype=complex)
        if stack.size == 0:
            stack = stack.reshape(0, 2, 2)
        if stack.ndim != 3 or stack.shape[1:] != (2, 2):
            raise ValueError(f"operators must be 2x2 matrices, got shape {stack.shape}")
        if len(delays) != len(stack):
            raise ValueError("delays and operators must have equal length")
        if not np.isfinite(stack).all():
            raise ValueError("Kraus operators must be finite")
        if not all(map(operator.lt, delays, delays[1:])):
            raise ValueError("delays must be strictly increasing")
        self._freeze(delays, stack[None])

    def _freeze(self, delays: tuple, stack: np.ndarray) -> None:
        stack.setflags(write=False)
        object.__setattr__(self, "delays", delays)
        object.__setattr__(self, "operators", stack[0])
        object.__setattr__(self, "_stack", stack)
        chi = _chi_stack(stack)
        chi.setflags(write=False)
        object.__setattr__(self, "_chi", chi)
        object.__setattr__(self, "_defect", float(_tp_defects(chi)[0]))

    def __len__(self) -> int:
        return len(self.delays)

    def __iter__(self) -> Iterator:
        return iter(zip(self.delays, self.operators))

    def as_stack(self) -> np.ndarray:
        """The operators as a read-only one-bench ``(1, n, 2, 2)`` stack."""
        return self._stack

    def completeness_defect(self) -> float:
        """Max-norm deviation of sum_d K_d^dag K_d from the identity, read from chi."""
        return self._defect

    def require_complete(self) -> None:
        _require_trace_preserving(self.completeness_defect())

    def _complete_chi(self) -> np.ndarray:
        """The read-only one-bench ``(1, 4, 4)`` chi stack, after :meth:`require_complete`."""
        self.require_complete()
        return self._chi


@functools.lru_cache(maxsize=64)
def _projector_pair(angle_deg: float, sign: float) -> np.ndarray:
    """Read-only ``(2, 2, 2)`` fast- and slow-axis projectors of a crystal at ``angle_deg``.

    ``sign`` is the angle's sign bit, so 0.0 and -0.0 keep entries of their own.
    """
    # pair[k] is the outer product of column k, (c, s) or (-s, c), of the rotation
    # with itself: real products of rotation2's cos and sin, kept real, so that a
    # bench's products stay real up to its first complex Jones matrix
    (c, ns), (s, _) = rotation2(angle_deg).tolist()
    cs, cns = c * s, ns * c
    pair = np.array([[[c * c, cs], [cs, s * s]], [[ns * ns, cns], [cns, c * c]]])
    pair.setflags(write=False)
    return pair


@functools.lru_cache(maxsize=32)
def _gather_plan(structure: tuple) -> tuple:
    """The delay bookkeeping of one bench structure: ``(delays, steps)``.

    ``delays`` are the sorted final delays; ``steps`` has one entry per
    element, ``None`` for a wave plate.  For a crystal that meets ``n`` bins
    it is one read-only ``(2, m)`` index array into the ``2n + 1`` slots
    ``[fast @ t; slow @ t; -0.0]``: new bin ``e`` is
    ``slot[index[0, e]] + slot[index[1, e]]``, the fast part of the bin at ``e``
    and the slow part of the bin at ``e - shift``.  A missing part points at
    the ``-0.0`` slot, and ``x + -0.0`` is ``x`` bit for bit, signed zeros
    included.  Each crystal's step is one merge (:func:`_merge_step`).  Raises
    before building anything for a bench that may produce more than
    ``MAX_DELAY_BINS`` bins.
    """
    shifts = _shifts(structure)
    if _bin_bound(shifts) > MAX_DELAY_BINS:
        raise ValueError(f"bench may produce more than {MAX_DELAY_BINS} delay bins")
    shifts = iter(shifts)
    delays = [0]
    steps = []
    for kind in structure:
        if isinstance(kind, str):
            steps.append(None)
        else:
            delays, index = _merge_step(delays, next(shifts))
            steps.append(index)
    return tuple(delays), tuple(steps)


def _merge_step(delays: list, shift: int) -> tuple:
    """One crystal's gather step: the sorted delays after a crystal adding ``shift``
    meets the bins at the sorted ``delays``, and its read-only ``(2, m)`` index
    (see :func:`_gather_plan`).

    One pass merges the fast parts, slot i at ``delays[i]``, with the slow parts,
    slot n + j at ``delays[j] + shift``, emitting each new delay with both its
    index entries; a fast and a slow part at one delay meet in one bin.
    """
    n = len(delays)
    empty = 2 * n
    # one past the last slow part's delay closes the fast parts, so the loop needs no bounds test
    fast = delays + [delays[-1] + shift + 1]
    merged, first, second = [], [], []
    emit, put_first, put_second = merged.append, first.append, second.append
    i, d = 0, fast[0]
    for j, e in enumerate(delays, n):
        e += shift
        while d < e:
            emit(d)
            put_first(i)
            put_second(empty)
            i += 1
            d = fast[i]
        emit(e)
        if d == e:
            put_first(i)
            put_second(j)
            i += 1
            d = fast[i]
        else:
            put_first(j)
            put_second(empty)
    index = np.array([first, second], dtype=np.intp)
    index.setflags(write=False)
    return merged, index


#: the transfer matrix before the first element, real, one row of one bin; every
#: product with it broadcasts to the result's size
_IDENTITY = np.eye(2).reshape(1, 1, 2, 2)
_IDENTITY.setflags(write=False)


def _transfer(bench: BenchConfig, plate: Optional[int] = None, jones: Optional[np.ndarray] = None) -> tuple:
    """Propagate one bench: ``(delays, ops)``, the sorted integer delays and a
    ``(P, n_bins, 2, 2)`` array of the transfer matrix per delay, numerically-zero
    bins included.

    P is 1, unless ``jones``, a ``(P, 2, 2)`` stack, stands in for the Jones
    matrix of the wave plate at element ``plate``: row p is then the bench with
    that plate's matrix ``jones[p]``, and the elements before the plate are
    multiplied once for every row.  A wave plate is one product over all bins; a
    crystal is one product with its fast and slow projectors and one gathered
    sum, through the structure's cached :func:`_gather_plan`.  Each matrix is
    built by the scalar constructors, so every row gets the bits a one-bench
    call gives it.

    A product is real unless one of its factors is complex.  The identity, the
    projectors and the half-wave plates are real, as is a ``jones`` stack whose
    imaginary part is all zero, so the products stay real until the first complex
    Jones matrix, where numpy's type promotion takes them to complex.  The loop
    holds its stack as float64 throughout: a real stack as itself, ``(..., 2, 2)``,
    and a complex one as its float view, ``(..., 2, 4)``, each row's real and
    imaginary parts side by side (:func:`_complex_of`).  So a real factor
    multiplies either kind as one real product, a (2, 2) @ (2, 4) one per bin on a
    complex stack, and only a complex factor takes numpy's complex product, which
    has no real rewrite with the same bits.  The result is cast to complex once,
    at the end.
    """
    delays, steps = _gather_plan(_structure(bench))
    if jones is not None and not jones.imag.any():
        jones = jones.real
    t = _IDENTITY
    for k, (el, step) in enumerate(zip(bench.elements, steps)):
        if step is None:
            u = jones if k == plate else waveplate_jones(el.kind, el.angle_deg)[None]
            if u.dtype == complex:
                t = (u[:, None] @ _complex_of(t)).view(float)
            else:
                t = u[:, None] @ t
            continue
        # keyed with the angle's sign bit, so 0.0 and -0.0 keep their own signed zeros
        pair = _projector_pair(el.fast_axis_deg, math.copysign(1.0, el.fast_axis_deg))
        count, n, _, width = t.shape
        slots = np.empty((count, 2 * n + 1, 2, width))
        slots[:, -1].fill(-0.0)  # every real and imaginary part
        np.matmul(pair[None, :, None], t[:, None], out=slots[:, :-1].reshape(count, 2, n, 2, width))
        parts = slots.take(step, axis=1)
        t = parts[:, 0] + parts[:, 1]
    return delays, _complex_of(t).astype(complex, copy=False)


def _complex_of(t: np.ndarray) -> np.ndarray:
    """The stack a float64 ``_transfer`` stack holds: itself if real, ``(..., 2, 2)``;
    the complex stack it is the float view of, if ``(..., 2, 4)``."""
    return t.view(complex) if t.shape[-1] == 4 else t


def _nonzero_bins(ops: np.ndarray) -> np.ndarray:
    """Mask of the bins whose transfer matrix is not numerically zero, shape ``ops.shape[:-2]``.

    These are the bins :func:`propagate` keeps as Kraus operators.
    """
    return np.sqrt((np.abs(ops) ** 2).sum(axis=(-2, -1))) > _ZERO_NORM


def propagate(bench: BenchConfig) -> KrausSet:
    """Propagate through the bench and return the delay-resolved Kraus set.

    The bench is normalized to integer crystal lengths first (exact), so any
    positive-rational lengths are accepted.  Raises ValueError for a bench
    that may produce more than ``MAX_DELAY_BINS`` delay bins.
    """
    delays, ops = _transfer(bench)
    keep = _nonzero_bins(ops[0])
    return KrausSet._built(tuple(itertools.compress(delays, keep.tolist())), ops[0, keep][None])


def apply_channel(kraus: KrausSet, rho: np.ndarray) -> np.ndarray:
    """Channel action rho -> sum_d K_d rho K_d^dag on one 2x2 ``rho``, read off
    the set's Pauli transfer matrix (see _apply_ptm)."""
    return _apply_ptm(_ptm_stack(kraus._complete_chi())[0], rho)


def _apply_ptm(r: np.ndarray, rho) -> np.ndarray:
    """sum_i (R x)_i E_i / 2 for a 4x4 Pauli transfer matrix R and the
    coordinates x_j = Tr(E_j rho) of one 2x2 ``rho``; a stack raises ValueError."""
    return _pauli_operators(_pauli_coords(_square(rho, 2, "rho")) @ r.T)[0]


@dataclass(frozen=True)
class AffineMap:
    """Stokes-space action of a channel: s -> matrix @ s + translation."""

    matrix: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float).reshape(3, 3)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        m.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "translation", t)

    def apply(self, stokes) -> np.ndarray:
        s = np.asarray(stokes, dtype=float).reshape(3)
        return self.matrix @ s + self.translation


#: G[(i,j),(m,n)] = Tr(E_i E_m E_j E_n^dag)/2, entries 0, +-1 and +-i: the
#: Pauli transfer matrix of chi is R = G @ chi.ravel(), and G^-1 = G^dag/4
_CHI_TO_PTM = np.einsum("imab,jnba->ijmn", PAULI_STACK[:, None] @ PAULI_STACK,
                        PAULI_STACK[:, None] @ PAULI_STACK.conj().swapaxes(-1, -2))
_CHI_TO_PTM = _CHI_TO_PTM.reshape(16, 16) / 2
_CHI_TO_PTM.setflags(write=False)


def _chi_stack(ops: np.ndarray) -> np.ndarray:
    """Process matrices ``(B, 4, 4)`` of a ``(B, n, 2, 2)`` Kraus stack, unchecked."""
    # chi_mn = sum_d c_dm c_dn^*, with c_dm = Tr(E_m K_d) / 2
    coeffs = ops.reshape(*ops.shape[:-2], 4) @ _PAULI_COEFFS
    return coeffs.swapaxes(-1, -2) @ coeffs.conj()


#: G[:4]^T, the columns that give the PTM's first row from vec(chi)
_PTM_ROW0 = _CHI_TO_PTM[:4].T

#: the 2x2 identity and the basis E0..E3, flattened
_FLAT_IDENTITY = np.array([1.0, 0.0, 0.0, 1.0])
_FLAT_IDENTITY.setflags(write=False)
_FLAT_PAULI = PAULI_STACK.reshape(4, 4)


def _tp_defects(chi: np.ndarray) -> np.ndarray:
    """Max-norm deviations ``(B,)`` of sum_mn chi_mn E_n^dag E_m from the identity,
    for a ``(B, 4, 4)`` chi stack: sum_d K_d^dag K_d for a Kraus set, read as
    sum_j R_0j E_j from the first row R_0 = G[:4] vec(chi) of the PTM."""
    r0 = chi.reshape(-1, 16) @ _PTM_ROW0
    return np.abs(r0 @ _FLAT_PAULI - _FLAT_IDENTITY).max(axis=-1)


def _plate_forms(ops: np.ndarray) -> np.ndarray:
    """The forms ``(zz, xx, cross)``, ``(3, 4, 4)``, of a bench's chi in one half-wave plate.

    A half-wave plate at angle t is c E1 + s E2, with c = cos 2t and s = sin 2t,
    so each delay bin's operator is K_d = c U_d + s V_d, where ``ops`` is the
    ``(2, n, 2, 2)`` pair (U, V) of the bench's transfer matrices with the plate
    set to E1 and to E2 (``_transfer``), numerically-zero bins included.  With
    a_d and b_d the Pauli coefficients of U_d and V_d, chi(t) = c^2 zz + s^2 xx
    + cs cross, where zz = sum_d a_d a_d^H, xx = sum_d b_d b_d^H and cross =
    sum_d (a_d b_d^H + b_d a_d^H).  Unchecked; :func:`_plate_chi` checks.
    """
    a, b = ops.reshape(2, -1, 4) @ _PAULI_COEFFS
    ab = a.T @ b.conj()
    return np.stack([a.T @ a.conj(), b.T @ b.conj(), ab + ab.conj().T])


def _plate_chi(forms: np.ndarray, angles_deg) -> np.ndarray:
    """Checked process matrices ``(B, 4, 4)`` of a bench with its half-wave plate at
    each of the B angles ``angles_deg``, from its :func:`_plate_forms`.

    Each angle's c and s come from ``math``, and each entry's real and imaginary
    parts are summed elementwise, so a matrix's bits do not depend on the other
    angles.  Raises unless every matrix is trace preserving (a NaN defect fails).
    """
    double = [2.0 * math.radians(a) for a in angles_deg]
    c = np.array([math.cos(t) for t in double])[:, None, None]
    s = np.array([math.sin(t) for t in double])[:, None, None]
    zz, xx, cross = forms.view(float)
    chi = (c * c * zz + s * s * xx + c * s * cross).view(complex)
    _require_trace_preserving(_tp_defects(chi).max())
    return chi


def _require_trace_preserving(defect: float) -> None:
    # written so that a NaN defect fails too
    if not defect <= TP_ATOL:
        raise ValueError(f"Kraus set is not trace preserving (defect {defect:.3g})")


def _ptm_stack(chi: np.ndarray) -> np.ndarray:
    """Pauli transfer matrices R_ij = Tr(E_i E(E_j))/2, ``(B, 4, 4)`` and real,
    of a ``(B, 4, 4)`` stack of process matrices, unchecked."""
    # one (1, 16) @ (16, 16) product per bench, so each bench gets the bits it gets alone
    return (chi.reshape(-1, 1, 16) @ _CHI_TO_PTM.T).real.reshape(-1, 4, 4)


def affine_map(kraus: KrausSet) -> AffineMap:
    """Stokes-space affine map of the channel.

    Column i of the matrix is the image of the +1 state on Stokes axis i
    minus the translation; the translation is the image of the fully mixed
    state (zero for every bench built here, since each path acts
    unitarily).  They are the blocks R[1:, 1:] and R[1:, 0] of the channel's
    Pauli transfer matrix R.
    """
    r = _ptm_stack(kraus._complete_chi())[0]
    return AffineMap(r[1:, 1:], r[1:, 0])
