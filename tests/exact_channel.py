"""Exact delay-resolved propagation over Gaussian rationals: an oracle that uses no float and no BLAS.

An element's angle enters its matrix only through a cosine and a sine.  At an angle
whose cosine and sine are both rational -- a Pythagorean angle, (a/c, b/c) with
a^2 + b^2 = c^2 -- every entry of a crystal's projectors and of a wave plate's Jones
matrix is a Gaussian rational p + iq, p and q Fractions, and so is every product and
sum that propagation forms.  Crystals and quarter-wave plates are given by the unit
(cos t, sin t) of their angle t, half-wave plates by (cos 2t, sin 2t), the only pair
their matrix [[cos 2t, sin 2t], [sin 2t, -cos 2t]] reads.

Elements are tuples: ``("crystal", length, unit)``, ``("half", unit2)`` and
``("quarter", unit)``; a length is a positive integer or Fraction.  Delays are
rescaled as ``bench_sim.normalize_delays`` documents, by an independent integer rule,
so that :func:`exact_transfer` and ``bench_sim._transfer`` name the same bins.
"""

from __future__ import annotations

import math
from fractions import Fraction

from polarchan.bench_sim import BenchConfig, Crystal, Waveplate


class Gaussian:
    """A Gaussian rational re + i im, with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return Gaussian(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        return Gaussian(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    def conj(self):
        return Gaussian(self.re, -self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"Gaussian({self.re}, {self.im})"


ZERO, ONE, I = Gaussian(0), Gaussian(1), Gaussian(0, 1)

#: the Pauli basis E0..E3 in the package's order (E1 = sigma_z, E2 = sigma_x, E3 = sigma_y)
PAULI = (
    ((ONE, ZERO), (ZERO, ONE)),
    ((ONE, ZERO), (ZERO, Gaussian(-1))),
    ((ZERO, ONE), (ONE, ZERO)),
    ((ZERO, Gaussian(0, -1)), (I, ZERO)),
)


def matmul(a, b):
    """The product of two 2x2 matrices, each a pair of rows."""
    return tuple(tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)) for i in range(2))


def matadd(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def dagger(a):
    return tuple(tuple(a[j][i].conj() for j in range(2)) for i in range(2))


def trace(a):
    return a[0][0] + a[1][1]


def is_zero(a) -> bool:
    return not any(x for row in a for x in row)


def _real(*rows):
    return tuple(tuple(Gaussian(x) for x in row) for row in rows)


def unit(a: int, b: int) -> tuple:
    """The rational unit (a, b) / sqrt(a^2 + b^2), which must be a Pythagorean pair."""
    c = math.isqrt(a * a + b * b)
    if c * c != a * a + b * b or c == 0:
        raise ValueError(f"({a}, {b}) is not a Pythagorean pair")
    return Fraction(a, c), Fraction(b, c)


def double(u: tuple) -> tuple:
    """(cos 2t, sin 2t) of a unit (cos t, sin t)."""
    c, s = u
    return c * c - s * s, 2 * c * s


def projectors(u: tuple) -> tuple:
    """The fast- and slow-axis projectors of a crystal whose fast axis is the unit u."""
    c, s = u
    return _real((c * c, c * s), (c * s, s * s)), _real((s * s, -c * s), (-c * s, c * c))


def jones(element: tuple):
    """The Jones matrix of a ``("half", unit2)`` or ``("quarter", unit)`` element."""
    kind, u = element
    if kind == "half":
        c2, s2 = u
        return _real((c2, s2), (s2, -c2))
    # R(t) diag(1, i) R(-t)
    c, s = u
    rotation = _real((c, -s), (s, c))
    return matmul(matmul(rotation, ((ONE, ZERO), (ZERO, I))), dagger(rotation))


def _shifts(lengths) -> list:
    """The lengths scaled by the smallest factor that makes them coprime integers."""
    lengths = [Fraction(length) for length in lengths]
    den = math.lcm(*(f.denominator for f in lengths))
    ints = [f.numerator * (den // f.denominator) for f in lengths]
    g = math.gcd(*ints)
    return [i // g for i in ints]


def exact_transfer(elements) -> list:
    """Sorted ``(delay, transfer matrix)`` pairs of every bin a path reaches, exact zeros included."""
    shifts = iter(_shifts([el[1] for el in elements if el[0] == "crystal"]))
    identity = ((ONE, ZERO), (ZERO, ONE))
    transfer = {0: identity}
    for el in elements:
        if el[0] != "crystal":
            u = jones(el)
            transfer = {d: matmul(u, t) for d, t in transfer.items()}
            continue
        shift = next(shifts)
        fast, slow = projectors(el[2])
        merged = {}
        for d, t in transfer.items():
            for delay, part in ((d, matmul(fast, t)), (d + shift, matmul(slow, t))):
                merged[delay] = matadd(merged[delay], part) if delay in merged else part
        transfer = merged
    return sorted(transfer.items())


def exact_kraus(elements) -> list:
    """:func:`exact_transfer` without its exactly-zero bins: the Kraus operators."""
    return [(d, t) for d, t in exact_transfer(elements) if not is_zero(t)]


def stokes_block(kraus) -> list:
    """The channel's Stokes matrix M_ij = Tr(E_i sum_d K_d E_j K_d^dag) / 2, i, j = 1..3, as Fractions."""
    block = [[None] * 3 for _ in range(3)]
    for j in (1, 2, 3):
        image = ((ZERO, ZERO), (ZERO, ZERO))
        for _, k in kraus:
            image = matadd(image, matmul(matmul(k, PAULI[j]), dagger(k)))
        for i in (1, 2, 3):
            entry = trace(matmul(PAULI[i], image))
            if entry.im:
                raise ArithmeticError("a Stokes matrix entry has an imaginary part")
            block[i - 1][j - 1] = entry.re / 2
    return block


def degrees(u: tuple) -> float:
    """The angle of a unit (cos t, sin t) in degrees, as a float."""
    return math.degrees(math.atan2(u[1], u[0]))


def float_bench(elements) -> BenchConfig:
    """The package's bench of the elements, at the float angles nearest theirs."""
    built = []
    for el in elements:
        if el[0] == "crystal":
            built.append(Crystal(Fraction(el[1]), degrees(el[2])))
        elif el[0] == "half":
            built.append(Waveplate("half", degrees(el[1]) / 2))
        else:
            built.append(Waveplate("quarter", degrees(el[1])))
    return BenchConfig(tuple(built))


def fig1_elements(l1, l2, plate1: tuple, plate2: tuple) -> list:
    """The four-crystal bench of ``depolarizer.build_bench``: crystals (L1, L2, L2, L1) at
    0, 90, 0 and 90 degrees, half-wave plates at t1, t2 and -t1, given as (cos 2t, sin 2t)."""
    h, v = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    c, s = plate1
    return [("crystal", l1, h), ("half", plate1), ("crystal", l2, v), ("half", plate2),
            ("crystal", l2, h), ("half", (c, -s)), ("crystal", l1, v)]


def closed_form_block(plate1: tuple, plate2: tuple) -> list:
    """The fig1 bench's Stokes matrix by the closed form, diag(R1, -R2, -R2) before the
    reflection compensation, in Fractions, from (cos 2t1, sin 2t1) and (cos 2t2, sin 2t2)."""
    cos4, sin4 = double(plate1)
    c2, s2 = plate2[0] ** 2, plate2[1] ** 2
    r1 = c2 - s2 * cos4 ** 2
    r2 = c2 - s2 * sin4 ** 2 / 2
    zero = Fraction(0)
    return [[r1, zero, zero], [zero, -r2, zero], [zero, zero, -r2]]
