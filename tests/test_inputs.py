"""Library calls at the edges of their inputs: each either returns what its
docstring documents or raises an exception that names the argument."""

import re
from fractions import Fraction

import numpy as np
import pytest

from polarchan.bench_sim import MAX_DELAY_BINS, BenchConfig, Crystal, Waveplate, delay_bin_bound, normalize_delays
from polarchan.channel_analysis import chi_eigenvalues
from polarchan.depolarizer import DepolarizerSettings, dop_isotropic, radii_closed_form
from polarchan.tomography import CountRecord

#: per probed input, the call and either the exception it raises, whose text
#: names the argument, or what it returns
CASES = {
    "crystal_numpy_float_length": (lambda: Crystal(np.float64(1.5), 0.0).length, Fraction(3, 2)),
    "crystal_numpy_int_length": (lambda: Crystal(np.int64(2), 0.0).length, Fraction(2)),
    "settings_numpy_int_length": (lambda: DepolarizerSettings(0, 0, np.int64(1)).length1, Fraction(1)),
    "chi_eigenvalues_empty_stack": (lambda: chi_eigenvalues(np.zeros((0, 4, 4))).shape, (0, 4)),
    "radii_closed_form_empty": (lambda: tuple(r.shape for r in radii_closed_form([], [])), ((0,),) * 3),
    # R2 and R3 are one object, so the arrays are read-only: a write into R2 would move R3
    "radii_closed_form_in_place_write": (lambda: radii_closed_form([10.0, 20.0], [5.0, 7.0])[1].__iadd__(1.0),
                                         ValueError("output array is read-only")),
    "dop_isotropic_empty": (lambda: dop_isotropic([]).shape, (0,)),
    "count_record_no_rows": (lambda: CountRecord(np.zeros((0, 6)), (), 1, 0),
                             ValueError("count table has no rows")),
    "count_csv_no_rows": (lambda: CountRecord.from_csv_text("# N=1\n# seed=0\ninput,projector,counts\n"),
                          ValueError("count table has no rows")),
    "crystal_nan_length": (lambda: Crystal(float("nan"), 0.0),
                           ValueError("crystal length must be finite, got nan")),
    "crystal_numpy_inf_length": (lambda: Crystal(np.float64("inf"), 0.0),
                                 ValueError("crystal length must be finite, got inf")),
    "settings_negative_inf_length": (lambda: DepolarizerSettings(0, 0, 1, float("-inf")),
                                     ValueError("crystal length must be finite, got -inf")),
    "settings_nan_theta1": (lambda: DepolarizerSettings(np.nan, 0),
                            ValueError("theta1_deg must be finite, got nan")),
    "settings_inf_theta2": (lambda: DepolarizerSettings(0, float("inf")),
                            ValueError("theta2_deg must be finite, got inf")),
    "settings_negative_inf_theta1": (lambda: DepolarizerSettings(np.float64("-inf"), 0),
                                     ValueError("theta1_deg must be finite, got -inf")),
}


def _crystals(*lengths):
    return BenchConfig(tuple(Crystal(length, 0.0) for length in lengths))


def _lengths(bench):
    return [el.length for el in bench.elements if isinstance(el, Crystal)]


PLATE_ONLY = BenchConfig((Waveplate("half", 10.0), Waveplate("quarter", 20.0)))

#: normalize_delays and delay_bin_bound read one integer rescaling of the lengths
CASES.update({
    "bin_bound_no_crystal": (lambda: delay_bin_bound(PLATE_ONLY), 1),
    "normalize_no_crystal": (lambda: normalize_delays(PLATE_ONLY), PLATE_ONLY),
    "normalize_fraction_texts": (lambda: _lengths(normalize_delays(_crystals("2/3", "1/6", 1))), [4, 1, 6]),
    "bin_bound_fraction_texts": (lambda: delay_bin_bound(_crystals("2/3", "1/6", 1)), 8),
    "normalize_numpy_int_lengths": (lambda: _lengths(normalize_delays(_crystals(np.int64(4), np.int32(6)))),
                                    [2, 3]),
    "bin_bound_numpy_int_lengths": (lambda: delay_bin_bound(_crystals(np.uint8(4), np.int64(6))), 4),
    "bin_bound_coprime_at_cap": (lambda: delay_bin_bound(_crystals(*(2 ** i for i in range(16)))),
                                 MAX_DELAY_BINS),
    "bin_bound_coprime_past_cap": (lambda: delay_bin_bound(_crystals(*(2 ** i for i in range(16)), 1)),
                                   MAX_DELAY_BINS + 1),
})


@pytest.mark.parametrize("call, expected", CASES.values(), ids=CASES.keys())
def test_edge_inputs_get_documented_results(call, expected):
    # each of the first rows raised a numpy internal error, a TypeError on a numpy
    # scalar, an error that named no argument, or nothing at all
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
            call()
    else:
        assert call() == expected
