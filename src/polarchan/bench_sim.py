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
plan), and each crystal is then one product and one gathered sum.  Tracing
out the (unresolved) arrival time turns the surviving transfer matrices
into the Kraus operators of the polarization channel.

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
from typing import Iterator, Union

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
    "propagate_stack",
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


def _integer_lengths(lengths) -> list:
    """Crystal lengths rescaled by the smallest common factor making them coprime integers."""
    if not lengths:
        return []
    common_den = math.lcm(*(ln.denominator for ln in lengths))
    ints = [int(ln * common_den) for ln in lengths]
    g = math.gcd(*ints)
    return [i // g for i in ints]


def normalize_delays(bench: BenchConfig) -> BenchConfig:
    """Rescale crystal lengths by the smallest common factor making them integers.

    Length ratios are preserved exactly; the traced-out channel is invariant
    under this rescaling because delay-bin coincidences are.
    """
    shifts = iter(_integer_lengths(bench.crystal_lengths()))
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
    return _bin_bound(_integer_lengths(bench.crystal_lengths()))


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
    a float or a bool raises TypeError.
    """

    delays: tuple
    operators: np.ndarray

    def __post_init__(self):
        delays = tuple(self.delays)
        # operator.index refuses floats; a bool passes it, so it is refused first
        if bool in map(type, delays):
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
        stack = stack[None]
        if not all(map(operator.lt, delays, delays[1:])):
            raise ValueError("delays must be strictly increasing")
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
    # pair[k] is the outer product of column k with itself, cast after the
    # real product: a complex product would flip signed zeros
    r = rotation2(angle_deg).T
    pair = (r[:, :, None] * r[:, None, :]).astype(complex)
    pair.setflags(write=False)
    return pair


def _structure(bench: BenchConfig) -> tuple:
    """What fixes a bench's delay bins, as its gather-plan key: per element, in
    order, the wave-plate kind or the crystal length as an exact integer pair
    ``(numerator, denominator)``, so the key hashes without a ``Fraction``."""
    return tuple(el.kind if isinstance(el, Waveplate) else el.length.as_integer_ratio()
                 for el in bench.elements)


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
    included.  Raises before building anything for a bench that may produce
    more than ``MAX_DELAY_BINS`` bins.
    """
    shifts = _integer_lengths([Fraction(*kind) for kind in structure if not isinstance(kind, str)])
    if _bin_bound(shifts) > MAX_DELAY_BINS:
        raise ValueError(f"bench may produce more than {MAX_DELAY_BINS} delay bins")
    shifts = iter(shifts)
    delays = [0]
    steps = []
    for kind in structure:
        if isinstance(kind, str):
            steps.append(None)
            continue
        shift = next(shifts)
        n = len(delays)
        at = {d: i for i, d in enumerate(delays)}
        delays = sorted(at.keys() | {d + shift for d in delays})
        first, second = [], []
        for d in delays:
            stay, move = at.get(d), at.get(d - shift)
            first.append(n + move if stay is None else stay)
            second.append(2 * n if stay is None or move is None else n + move)
        index = np.array([first, second], dtype=np.intp)
        index.setflags(write=False)
        steps.append(index)
    return tuple(delays), tuple(steps)


def _per_position(angles: list, build) -> np.ndarray:
    """``build(angle, sign)`` for one position of every bench, one build per
    distinct angle: a ``(1, ...)`` stack when every bench has that angle, else
    one row per bench.

    Keyed with the sign bit, so 0.0 and -0.0 keep their own signed zeros.
    """
    first = angles[0]
    sign = math.copysign(1.0, first)
    # equal angles share a sign unless they are zeros
    if angles.count(first) == len(angles) and (first or all(math.copysign(1.0, a) == sign
                                                            for a in angles[1:])):
        return build(first, sign)[None]
    built: dict = {}
    rows = []
    for a in angles:
        key = (a, math.copysign(1.0, a))
        if key not in built:
            built[key] = build(*key)
        rows.append(built[key])
    return np.array(rows)


#: the transfer matrix before the first element, one bench of one bin; every
#: product with it broadcasts to the stack's size
_IDENTITY = np.eye(2, dtype=complex).reshape(1, 1, 2, 2)
_IDENTITY.setflags(write=False)

#: the gather's empty part, every entry -0.0 - 0.0j
_NEGATIVE_ZERO = np.full((2, 2), complex(-0.0, -0.0))
_NEGATIVE_ZERO.setflags(write=False)


def propagate_stack(benches) -> tuple:
    """Propagate benches that share one delay structure, all at once.

    Every bench must have the same elements in the same order, with the same
    wave-plate kinds and crystal lengths; only the angles may differ.  Returns
    ``(delays, ops)``: the sorted integer delays and a ``(B, n_bins, 2, 2)``
    array of each bench's transfer matrix per delay, numerically-zero bins
    included.  A wave plate is one product over all bins; a crystal is one
    product with its fast and slow projectors and one gathered sum, through
    the structure's cached :func:`_gather_plan`.  Each wave-plate and
    projector matrix is built by the scalar constructors, once per distinct
    angle of its position; a position whose angle every bench shares is one
    ``(1, ...)`` matrix that broadcasts, so a shared prefix is multiplied
    once, and every bench gets the same bits as on its own.
    """
    benches = list(benches)
    if not benches:
        raise ValueError("propagate_stack needs at least one bench")
    structure = _structure(benches[0])
    if any(_structure(b) != structure for b in benches[1:]):
        raise ValueError("stacked benches must share element kinds and crystal lengths")
    delays, steps = _gather_plan(structure)

    t = _IDENTITY
    columns = zip(*(b.elements for b in benches))  # one tuple of elements per position
    for el, column, step in zip(benches[0].elements, columns, steps):
        if step is None:
            u = _per_position([e.angle_deg for e in column], lambda a, _: waveplate_jones(el.kind, a))
            t = u[:, None] @ t
            continue
        pairs = _per_position([e.fast_axis_deg for e in column], _projector_pair)
        count, n = max(len(pairs), len(t)), t.shape[1]
        slots = np.empty((count, 2 * n + 1, 2, 2), dtype=complex)
        slots[:, -1] = _NEGATIVE_ZERO
        np.matmul(pairs[:, :, None], t[:, None], out=slots[:, :-1].reshape(count, 2, n, 2, 2))
        parts = slots.take(step, axis=1)
        t = parts[:, 0] + parts[:, 1]
    # a stack whose every position is shared was propagated once; one copy per bench
    return delays, t if len(t) == len(benches) else t.repeat(len(benches), axis=0)


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
    delays, ops = propagate_stack([bench])
    keep = _nonzero_bins(ops[0])
    return KrausSet(tuple(itertools.compress(delays, keep.tolist())), ops[0, keep])


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


def _kept_chi(ops: np.ndarray) -> np.ndarray:
    """Checked process matrices ``(B, 4, 4)`` of a ``(B, n, 2, 2)`` stack from
    :func:`propagate_stack`, numerically-zero bins included.

    Benches are grouped by which bins survive the zero filter, and each group's
    kept operators go through :func:`_chi_stack` once, so each bench's chi is
    the one its Kraus set from :func:`propagate` computes, bit for bit.  Raises
    unless every bench is trace preserving, checked once for the whole block.
    """
    keep = _nonzero_bins(ops)
    groups: dict = {}
    for b, row in enumerate(keep):
        groups.setdefault(row.tobytes(), []).append(b)
    chi = np.empty((len(ops), 4, 4), dtype=complex)
    for rows in groups.values():
        chi[rows] = _chi_stack(ops[np.ix_(rows, np.flatnonzero(keep[rows[0]]))])
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
