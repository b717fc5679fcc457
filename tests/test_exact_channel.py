"""The closed form and the float propagation against an exact channel over Gaussian
rationals (``exact_channel``), at angles whose cosine and sine are rational."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from polarchan.bench_sim import _transfer, affine_map, propagate

from exact_channel import (closed_form_block, exact_kraus, exact_transfer, fig1_elements, float_bench,
                           stokes_block, unit)

#: an ulp of 1, the scale of every transfer-matrix entry and Stokes matrix entry
ULP = 2.0 ** -52

#: the float pipeline's distance from the exact channel, per entry, in ulps of 1 per
#: element: the float angle's cosine and sine are each off by an ulp or so, and every
#: element's product rounds once more (at most 1.25 ulps per element on 300 random
#: benches of 1-6 crystals)
ULPS_PER_ELEMENT = 2


def _euclid(m, n, flip_a, flip_b, swap):
    """The Pythagorean unit (m^2 - n^2, 2mn) / (m^2 + n^2), with its signs and order chosen."""
    a, b = (m * m - n * n) * (-1 if flip_a else 1), 2 * m * n * (-1 if flip_b else 1)
    return unit(*((b, a) if swap else (a, b)))


#: units (cos t, sin t) in every quadrant; n = 0 gives the axes, at 0, 90, 180 and 270 degrees
UNITS = st.integers(1, 9).flatmap(lambda m: st.builds(
    _euclid, st.just(m), st.integers(0, m - 1), st.booleans(), st.booleans(), st.booleans()))

#: the fig1 plates' (cos 2t, sin 2t): 3-4-5, 5-12-13, 8-15-17, 7-24-25 and 20-21-29, in
#: every quadrant and both orders, none on an axis
FIG1_PLATES = st.sampled_from([(2, 1), (3, 2), (4, 1), (4, 3), (5, 2)]).flatmap(lambda mn: st.builds(
    _euclid, st.just(mn[0]), st.just(mn[1]), st.booleans(), st.booleans(), st.booleans()))


@settings(max_examples=30, deadline=None)
@given(FIG1_PLATES, FIG1_PLATES)
def test_exact_fig1_channel_is_the_closed_form(plate1, plate2):
    # the closed form is exact at the ratios L2/L1 it covers, with exact zeros off the diagonal
    closed = closed_form_block(plate1, plate2)
    for lengths in ((1, 2), (2, 3), (1, 3)):
        assert stokes_block(exact_kraus(fig1_elements(*lengths, plate1, plate2))) == closed
    # at the degenerate ratios 1 and 1/2 more paths meet, and the channel is another one
    for lengths in ((1, 1), (2, 1)):
        assert stokes_block(exact_kraus(fig1_elements(*lengths, plate1, plate2))) != closed


@st.composite
def exact_benches(draw):
    """1-6 crystals of lengths 1-4, each after up to two half- or quarter-wave plates,
    and up to two plates after the last."""
    elements = []
    for _ in range(draw(st.integers(1, 6))):
        for kind in draw(st.lists(st.sampled_from(["half", "quarter"]), max_size=2)):
            elements.append((kind, draw(UNITS)))
        elements.append(("crystal", draw(st.integers(1, 4)), draw(UNITS)))
    for kind in draw(st.lists(st.sampled_from(["half", "quarter"]), max_size=2)):
        elements.append((kind, draw(UNITS)))
    return elements


def _complex(matrices) -> np.ndarray:
    rows = [[[complex(x) for x in row] for row in m] for m in matrices]
    return np.array(rows, dtype=complex).reshape(-1, 2, 2)


@settings(max_examples=80, deadline=None)
@given(exact_benches())
def test_propagation_agrees_with_the_exact_channel(elements):
    # no bit-mirroring reference: the float kernel, real and complex products alike,
    # is within a few ulps of the exact transfer matrices, bin by bin
    bench = float_bench(elements)
    bound = ULPS_PER_ELEMENT * len(elements) * ULP
    exact = exact_transfer(elements)
    delays, ops = _transfer(bench)
    assert list(delays) == [d for d, _ in exact]
    assert np.abs(ops[0] - _complex([m for _, m in exact])).max() <= bound
    # the exactly-zero bins are the ones propagate drops
    kraus = propagate(bench)
    exact_ops = exact_kraus(elements)
    assert list(kraus.delays) == [d for d, _ in exact_ops]
    assert np.abs(kraus.operators - _complex([m for _, m in exact_ops])).max() <= bound
    block = np.array(stokes_block(exact_ops), dtype=float)
    assert np.abs(affine_map(kraus).matrix - block).max() <= 2 * bound
