import dataclasses
import itertools
import math
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarchan.bench_sim import BenchConfig, Waveplate, apply_channel, propagate
from polarchan.channel_analysis import apply_process_matrix, chi_eigenvalues, chi_from_kraus
from polarchan.depolarizer import (
    DepolarizerSettings,
    build_bench,
    build_lyot,
    dop_isotropic,
    isotropic_theta1_angles,
)
from polarchan.polar_core import (
    KET_H,
    KET_L,
    KET_M,
    KET_P,
    KET_R,
    KET_V,
    PAULI_BASIS,
    check_density,
    fidelity,
    ket_projector,
)
from polarchan.tomography import (
    INPUT_LABELS,
    MAX_SHOTS,
    PROJECTOR_LABELS,
    CountRecord,
    TomoSettings,
    _STATE_DESIGN,
    _csv_safe_label,
    _poisson_table,
    _probabilities,
    analysis_projectors,
    expected_probability,
    preparation_states,
    probability_table,
    qpt_linear,
    qpt_mle,
    qst_linear,
    qst_mle,
    simulate_counts,
    simulate_state_counts,
    trace_preservation_deviation,
)

from conftest import (
    clipped_trace,
    random_bench,
    random_physical_stokes,
    reference_counts,
    reference_nll_and_grad,
    reference_nll_hessian,
    reference_pauli_strings,
    reference_probability_table,
    reference_hermitian_basis,
    reference_qpt_design,
    reference_qpt_linear,
    reference_root_nll_and_grad,
    reference_stokes,
    reference_tri,
    same_bits,
)

DATA = pathlib.Path(__file__).parent / "data"
THETA_ISO = isotropic_theta1_angles()[1]
I2 = np.eye(2)


def identity_kraus():
    return propagate(BenchConfig((Waveplate("half", 0.0), Waveplate("half", 0.0))))


def fig1_kraus(theta2):
    return propagate(build_bench(DepolarizerSettings(THETA_ISO, theta2)))


def trace_distance(a, b):
    return 0.5 * np.abs(np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))).sum()


def theory_eigs(theta2):
    d = dop_isotropic(theta2)
    return np.sort([(1 + 3 * d) / 4, (1 - d) / 4, (1 - d) / 4, (1 - d) / 4])[::-1]


# ---------------------------------------------------------------------------
# measurement model
# ---------------------------------------------------------------------------

def test_projector_structure():
    projs = analysis_projectors()
    for axis in range(3):
        plus, minus = projs[2 * axis], projs[2 * axis + 1]
        assert np.abs(plus + minus - I2).max() < 1e-12
    # three mutually unbiased bases
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            overlap = np.trace(projs[2 * a] @ projs[2 * b]).real
            assert overlap == pytest.approx(0.5, abs=1e-12)


def test_inputs_span_operator_space():
    stacked = np.stack([rho.ravel() for rho in preparation_states()])
    assert np.linalg.matrix_rank(stacked, tol=1e-12) == 4


def test_expected_probability_examples():
    ident = identity_kraus()
    h = ket_projector(KET_H)
    assert expected_probability(ident, h, h) == pytest.approx(1.0, abs=1e-12)

    lyot = propagate(build_lyot(1))
    for rho in preparation_states():
        for proj in analysis_projectors():
            assert expected_probability(lyot, rho, proj) == pytest.approx(0.5, abs=1e-12)

    iso = fig1_kraus(15.0)
    assert expected_probability(iso, h, h) == pytest.approx(5 / 6, abs=1e-12)


_NAN = np.full((2, 2), np.nan)


@pytest.mark.parametrize("call, message", [
    (lambda k, v, hv: apply_process_matrix(np.diag([1.0, 0, 0, 0]), hv),
     "rho must be 2x2, got shape (2, 2, 2)"),
    (lambda k, v, hv: apply_channel(k, hv), "rho must be 2x2, got shape (2, 2, 2)"),
    (lambda k, v, hv: expected_probability(k, v, hv), "projector must be 2x2, got shape (2, 2, 2)"),
    (lambda k, v, hv: expected_probability(k, hv, v), "rho_in must be 2x2, got shape (2, 2, 2)"),
    # these returned nan
    (lambda k, v, hv: apply_channel(k, _NAN), "rho must be finite"),
    (lambda k, v, hv: expected_probability(k, v, _NAN), "projector must be finite"),
    # a flat 16-vector was read as a 4x4 chi, and a NaN chi gave a NaN state
    (lambda k, v, hv: apply_process_matrix(np.eye(4).ravel() / 4, v),
     "process matrix must be 4x4, got shape (16,)"),
    (lambda k, v, hv: apply_process_matrix(np.full((4, 4), np.nan), v), "process matrix must be finite"),
], ids=["apply_process_matrix", "apply_channel", "projector", "rho_in", "apply_channel_nan",
        "projector_nan", "chi_flat", "chi_nan"])
def test_one_state_arguments_refuse_a_stack(call, message):
    # each used to read the first matrix of the stack and drop the rest; a
    # stack or a non-finite matrix now raises, naming the argument
    v = ket_projector(KET_V)
    stack = np.stack([ket_projector(KET_H), v])
    with pytest.raises(ValueError, match=re.escape(message)):
        call(identity_kraus(), v, stack)


@pytest.mark.parametrize("rho, message", [
    (np.array([1.0, 0, 0, 0]), "rho must be 2x2, got shape (4,)"),
    (np.eye(2)[None] / 2, "rho must be 2x2, got shape (1, 2, 2)"),
    (_NAN, "rho must be finite"),  # numpy's Poisson draw raised "lam value too large"
], ids=["flat", "stack", "nan"])
def test_state_counts_read_one_matrix(rho, message):
    # a flat 4-vector used to be drawn as |H><H|
    with pytest.raises(ValueError, match=re.escape(message)):
        simulate_state_counts(rho, TomoSettings(shots=100))


def test_simulate_counts_zero_shots():
    rec = simulate_counts(identity_kraus(), TomoSettings(shots=0, seed=3))
    assert rec.counts.sum() == 0


def test_simulate_counts_statistics():
    rec = simulate_counts(identity_kraus(), TomoSettings(shots=10**6, seed=11))
    n_hh = rec.counts[INPUT_LABELS.index("H"), PROJECTOR_LABELS.index("H")]
    assert abs(n_hh - 10**6) <= 5 * 10**3  # five sigma


def test_simulate_counts_deterministic_and_labelled():
    settings = TomoSettings(shots=5000, seed=42)
    kraus = fig1_kraus(15.0)
    rec1 = simulate_counts(kraus, settings)
    rec2 = simulate_counts(kraus, settings)
    assert np.array_equal(rec1.counts, rec2.counts)
    assert rec1.input_labels == INPUT_LABELS
    rec3 = simulate_counts(kraus, TomoSettings(shots=5000, seed=43))
    assert not np.array_equal(rec1.counts, rec3.counts)


def test_count_record_row_names_a_missing_label():
    rec = simulate_counts(identity_kraus(), TomoSettings(shots=10))
    assert same_bits(rec.row("P"), rec.counts[2])
    with pytest.raises(ValueError, match=re.escape(
            "no row labelled 'M'; the record's labels are ('H', 'V', 'P', 'R')")):
        rec.row("M")


def test_golden_count_record():
    # frozen reference: fig1 bench at the isotropic angle, theta2 = 15 deg
    rec = simulate_counts(fig1_kraus(15.0), TomoSettings(shots=10_000, seed=42))
    golden = (DATA / "golden_counts_seed42.csv").read_text()
    assert rec.to_csv_text() == golden


def test_count_record_csv_round_trip(tmp_path):
    rec = simulate_counts(fig1_kraus(22.0), TomoSettings(shots=2000, seed=9))
    path = tmp_path / "counts.csv"
    rec.to_csv(path)
    back = CountRecord.from_csv(path)
    assert np.array_equal(back.counts, rec.counts)
    assert back.input_labels == rec.input_labels
    assert back.shots == rec.shots and back.seed == rec.seed


def test_count_record_csv_rejects_incomplete():
    text = "# N=10\n# seed=1\ninput,projector,counts\nH,H,3\n"
    with pytest.raises(ValueError, match="incomplete"):
        CountRecord.from_csv_text(text)


@pytest.mark.parametrize("labels", [("H", "H"), ("H", "H", "P", "R")])
def test_count_record_rejects_repeated_labels(labels):
    # such a record would write a CSV that from_csv_text refuses to read back
    with pytest.raises(ValueError, match=re.escape(f"input labels must be distinct, got {labels!r}")):
        CountRecord(np.ones((len(labels), 6), int), labels, 10, 1)


@pytest.mark.parametrize("table", [
    [[1.5, 0, 0, 0, 0, 0]],
    [[np.nan, 0, 0, 0, 0, 0]],
    [[2.0 ** 63, 0, 0, 0, 0, 0]],
    np.array([[2 ** 63, 0, 0, 0, 0, 0]], dtype=np.uint64),
    [[2 ** 64, 0, 0, 0, 0, 0]],
    [["3", 0, 0, 0, 0, 0]],
], ids=["fraction", "nan", "float_past_int64", "uint_past_int64", "int_past_uint64", "text"])
def test_count_record_rejects_counts_a_cast_would_change(table):
    # an int64 cast would truncate, wrap or parse these
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="counts must be integers that fit in 64 bits"):
            CountRecord(table, ("a",), 10, 1)
    # whole numbers in another dtype are still counts
    assert same_bits(CountRecord([[3.0, 0, 0, 0, 0, True]], ("a",), 10, 1).counts,
                     np.array([[3, 0, 0, 0, 0, 1]], dtype=np.int64))


@pytest.mark.parametrize("label", [
    "", "#H", "H,x", "H\nV", "H\r", "H\r\nV", " H", "H ", "\tH", "H\x1c", "H\u2028V", 7,
], ids=["empty", "comment", "comma", "newline", "carriage_return", "crlf", "leading_space",
        "trailing_space", "leading_tab", "file_separator", "line_separator", "not_a_string"])
def test_count_record_rejects_labels_its_csv_cannot_carry(label):
    with pytest.raises(ValueError, match="cannot be written to a count CSV"):
        CountRecord(np.ones((2, 6), int), ("H", label), 10, 1)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.text(min_size=1, max_size=6).filter(_csv_safe_label), min_size=1, max_size=4, unique=True),
    st.integers(0, 2 ** 32 - 1),
)
def test_count_record_csv_round_trips_valid_labels(labels, seed):
    counts = np.random.default_rng(seed).integers(0, 10**6, size=(len(labels), 6))
    back = CountRecord.from_csv_text(CountRecord(counts, labels, 10**6, seed).to_csv_text())
    assert back.input_labels == tuple(labels)
    assert np.array_equal(back.counts, counts)


def test_settings_and_streams_reject_out_of_range_values():
    with pytest.raises(ValueError, match="seed must be non-negative, got -5"):
        TomoSettings(seed=-5)
    assert TomoSettings(shots=MAX_SHOTS).shots == MAX_SHOTS
    with pytest.raises(ValueError, match="shots must be between 0 and"):
        TomoSettings(shots=MAX_SHOTS + 1)
    with pytest.raises(ValueError, match="stream must be non-negative, got -1"):
        simulate_counts(identity_kraus(), TomoSettings(shots=10), stream=-1)
    with pytest.raises(ValueError, match="stream must be non-negative"):
        simulate_state_counts(ket_projector(KET_H), TomoSettings(shots=10), stream=-2)


@pytest.mark.parametrize("shots, seed, stream, message", [
    (0.5, 0, 0, "shots must be an integer, got 0.5"),
    (True, 0, 0, "shots must be an integer, got True"),
    (np.nan, 0, 0, "shots must be an integer, got nan"),
    (10.0, 0, 0, "shots must be an integer, got 10.0"),
    (-5, 0, 0, f"shots must be between 0 and {MAX_SHOTS}, got -5"),
    (MAX_SHOTS + 1, 0, 0, f"shots must be between 0 and {MAX_SHOTS}, got {MAX_SHOTS + 1}"),
    (10, 1.5, 0, "seed must be an integer, got 1.5"),
    (10, False, 0, "seed must be an integer, got False"),
    (10, -1, 0, "seed must be non-negative, got -1"),
    # a bool stream used to draw stream 1, and 1.5 raised numpy's TypeError
    (10, 0, True, "stream must be an integer, got True"),
    (10, 0, 1.5, "stream must be an integer, got 1.5"),
], ids=["fraction", "bool", "nan", "float", "negative", "above_cap", "seed_fraction", "seed_bool",
        "seed_negative", "stream_bool", "stream_fraction"])
def test_shots_and_seed_are_integers_in_range(shots, seed, stream, message):
    # settings, records (and so count CSVs), the fits' shot numbers and the
    # streams of simulated counts share one integer rule
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate_counts(identity_kraus(), TomoSettings(shots=shots, seed=seed), stream=stream)
        if type(stream) is not int:
            return  # records and fits take no stream
        with pytest.raises(ValueError, match=re.escape(message)):
            CountRecord(np.ones((4, 6), int), INPUT_LABELS, shots, seed)
        if type(shots) is int and type(seed) is int:
            text = f"# N={shots}\n# seed={seed}\ninput,projector,counts\n" + "".join(
                f"H,{label},1\n" for label in PROJECTOR_LABELS)
            with pytest.raises(ValueError, match=re.escape(message)):
                CountRecord.from_csv_text(text)
        if type(seed) is int and seed == 0:  # the fits take no seed
            with pytest.raises(ValueError, match=re.escape(message)):
                qst_mle(np.ones(6), shots=shots)
            with pytest.raises(ValueError, match=re.escape(message)):
                qpt_mle(np.ones((4, 6)), shots=shots)


@pytest.mark.parametrize("fit, table", [(qst_mle, np.ones(6)), (qpt_mle, np.ones((4, 6)))],
                         ids=["state", "process"])
def test_bare_tables_need_shots(fit, table):
    # both fits read one rule: a record's own shot number unless shots is given
    with pytest.raises(ValueError, match="shots must be given when counts is a bare table"):
        fit(table)
    assert fit(table, shots=10).converged


def test_count_record_keeps_the_callers_table_writable(tmp_path):
    table = np.ones((1, 6), np.int64)
    rec = CountRecord(table, ("a",), 10, 1)
    assert table.flags.writeable and not rec.counts.flags.writeable
    table[0, 0] = 5
    assert rec.counts[0, 0] == 1
    # a read-only view is copied as well: its base can still change
    view = table.view()
    view.setflags(write=False)
    rec = CountRecord(view, ("a",), 10, 1)
    table[0, 0] = 7
    assert rec.counts[0, 0] == 5
    # so is a read-only table that owns its data: its owner can make it writable again
    owned = np.ones((1, 6), np.int64)
    owned.setflags(write=False)
    rec = CountRecord(owned, ("a",), 10, 1)
    owned.setflags(write=True)
    owned[0, 0] = 3
    assert rec.counts[0, 0] == 1
    # and ndarray subclasses, which np.asarray turns into views of the caller's memory
    mapped = np.memmap(tmp_path / "counts", dtype=np.int64, mode="w+", shape=(1, 6))
    masked = np.ma.masked_array(np.ones((1, 6), np.int64))
    for sub in (mapped, masked):
        rec = CountRecord(sub, ("a",), 10, 1)
        sub[0, 0] = 9
        assert rec.counts[0, 0] != 9 and type(rec.counts) is np.ndarray


def test_numpy_integers_are_shots_and_seeds():
    settings_ = TomoSettings(shots=np.int64(100), seed=np.uint32(7))
    rec = simulate_counts(identity_kraus(), settings_)
    assert CountRecord.from_csv_text(rec.to_csv_text()).shots == 100
    assert qpt_mle(rec.counts, shots=np.int32(100)).converged


def test_counts_at_the_shot_cap_are_drawn():
    rec = simulate_counts(identity_kraus(), TomoSettings(shots=MAX_SHOTS, seed=1))
    n_h, n_v = rec.row("H")[:2]
    assert abs(n_h - MAX_SHOTS) <= 5 * 10**9 and n_v == 0  # five sigma


def test_counts_do_not_depend_on_roundoff_residues(monkeypatch):
    # numpy draws no variate for a mean of 0 but one for any positive mean, so
    # a residue in place of an exact zero must not shift the later draws
    from polarchan import tomography

    probs = probability_table(identity_kraus())
    zeros = np.argwhere(probs == 0.0)
    assert len(zeros) >= 4
    settings_ = TomoSettings(shots=10_000, seed=7)
    exact = simulate_counts(identity_kraus(), settings_, stream=3).counts
    for i, j in zeros:
        moved = probs.copy()
        moved[i, j] = 1e-30
        assert same_bits(_poisson_table(7, 3, 10_000 * moved), exact)
        monkeypatch.setattr(tomography, "_probabilities", lambda *args: moved.ravel())
        assert same_bits(simulate_counts(identity_kraus(), settings_, stream=3).counts, exact)
    # the floor is on the mean, not on p: p = 1e-15 at 10**18 shots is a mean of 1,000
    assert 800 < _poisson_table(7, 3, np.array([[1e-15 * MAX_SHOTS]]))[0, 0] < 1200


@pytest.mark.parametrize("bad_line, message", [
    ("H,H,999", r"line 5: duplicate entry \(H, H\) in 'H,H,999'"),
    ("H,X,7", r"line 5: unknown projector 'X' in 'H,X,7'"),
    ("H,7", r"line 5: expected input,projector,counts, got 'H,7'"),
    ("H,V,1,2", r"line 5: expected input,projector,counts, got 'H,V,1,2'"),
    ("H,V,seven", r"line 5: counts must be an integer, got 'H,V,seven'"),
    ("H,V,99999999999999999999999", r"line 5: counts must fit in 64 bits, got 'H,V,9{23}'"),
    ("H,V,-1", r"line 5: counts must be nonnegative, got 'H,V,-1'"),
    ("H,V,-99999999999999999999999", r"line 5: counts must be nonnegative, got 'H,V,-9{23}'"),
    (",V,1", r"line 5: bad input label '' in ',V,1'"),
    ("H ,V,1", r"line 5: bad input label 'H ' in 'H ,V,1'"),
], ids=["duplicate", "unknown_projector", "two_fields", "four_fields", "not_an_integer",
        "past_int64", "negative", "negative_past_int64", "empty_label", "label_with_trailing_space"])
def test_count_record_csv_rejects_malformed_lines(bad_line, message):
    lines = simulate_counts(identity_kraus(), TomoSettings(shots=10, seed=1)).to_csv_text().splitlines()
    if bad_line != "H,H,999":
        del lines[4]  # the H,V entry, so that only the bad line can supply it
    lines.insert(4, bad_line)
    with pytest.raises(ValueError, match=message):
        CountRecord.from_csv_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("meta, message", [
    (["# N=0.5", "# seed=1"], r"line 1: '# N=' must be an integer, got '# N=0.5'"),
    (["# N=10", "# seed=x"], r"line 2: '# seed=' must be an integer, got '# seed=x'"),
    (["# N=10", "# seed=1", "# N=7"], r"line 3: duplicate '# N=' in '# N=7'"),
    (["# N=10"], r"missing '# N=' or '# seed=' metadata"),
], ids=["fractional_shots", "text_seed", "repeated_shots", "no_seed"])
def test_count_record_csv_rejects_malformed_metadata(meta, message):
    lines = simulate_counts(identity_kraus(), TomoSettings(shots=10, seed=1)).to_csv_text().splitlines()
    with pytest.raises(ValueError, match=message):
        CountRecord.from_csv_text("\n".join(meta + lines[2:]) + "\n")


# ---------------------------------------------------------------------------
# linear inversion
# ---------------------------------------------------------------------------

def test_qst_linear_exact_inputs():
    shots = 10_000
    probs = np.array([np.trace(p @ ket_projector(KET_H)).real for p in analysis_projectors()])
    est = qst_linear(probs * shots)
    assert np.abs(est.rho - ket_projector(KET_H)).max() < 1e-12

    est = qst_linear(np.full(6, 0.5) * shots)
    assert np.abs(est.rho - I2 / 2).max() < 1e-12
    assert est.indeterminate_axes == (False, False, False)


def test_qst_linear_indeterminate_axis():
    est = qst_linear([10, 5, 0, 0, 3, 2])
    assert est.indeterminate_axes == (False, True, False)
    assert est.stokes[1] == 0.0


def test_qst_linear_can_leave_physical_set():
    # pure-state record at modest N: s1-hat is pinned to 1 while the other
    # axes fluctuate, so the estimated length exceeds 1
    rec = simulate_state_counts(ket_projector(KET_H), TomoSettings(shots=100, seed=1))
    est = qst_linear(rec)
    assert np.linalg.norm(est.stokes) > 1.0
    assert est.min_eigenvalue < 0.0


# ---------------------------------------------------------------------------
# maximum likelihood: states
# ---------------------------------------------------------------------------

def test_qst_mle_exact_inputs():
    shots = 10_000
    probs = np.array([np.trace(p @ ket_projector(KET_H)).real for p in analysis_projectors()])
    fit = qst_mle(probs * shots, shots=shots)
    assert fidelity(fit.rho, ket_projector(KET_H)) >= 1 - 1e-6

    fit = qst_mle(np.full(6, 0.5) * shots, shots=shots)
    assert fidelity(fit.rho, I2 / 2) >= 1 - 1e-6


@pytest.mark.parametrize("ket", [
    KET_R,
    KET_L,
    np.array([np.cos(0.3), np.exp(0.7j) * np.sin(0.3)]),
], ids=["R", "L", "elliptical"])
def test_qst_mle_fits_states_with_a_circular_component(ket):
    # the fit must not return the mirror image (the complex conjugate) of the state
    shots = 10_000
    rho = ket_projector(ket)
    probs = np.array([np.trace(p @ rho).real for p in analysis_projectors()])
    assert fidelity(qst_linear(probs * shots).rho, rho) >= 1 - 1e-6
    assert fidelity(qst_mle(probs * shots, shots=shots).rho, rho) >= 1 - 1e-6


def test_qst_mle_is_physical_and_beats_clipped_linear():
    from polarchan.tomography import _nll_and_grad, _root_seed

    rec = simulate_state_counts(ket_projector(KET_H), TomoSettings(shots=200, seed=5))
    fit = qst_mle(rec)
    check_density(fit.rho)

    # the seed's square is the linear estimate with its eigenvalues floored
    linear = qst_linear(rec)
    assert linear.min_eigenvalue < 0.0  # the floor acts
    root = _root_seed(linear.rho)
    vals, vecs = np.linalg.eigh(linear.rho)
    assert np.abs(root @ root - (vecs * np.maximum(vals, 1e-8)) @ vecs.conj().T).max() <= 1e-15
    nll_clipped = _nll_and_grad(params_of(root), nll_forms(2)[1], rec.counts[0].astype(float), 200.0)[0]
    assert fit.nll <= nll_clipped + 1e-9


def test_qst_mle_statistical_accuracy():
    # channel output of |P> through the D = 2/3 isotropic setting
    kraus = fig1_kraus(15.0)
    true_out = apply_channel(kraus, ket_projector(KET_P))
    for seed in range(100):
        rec = simulate_state_counts(true_out, TomoSettings(shots=10_000, seed=seed))
        fit = qst_mle(rec)
        assert trace_distance(fit.rho, true_out) <= 0.03


# ---------------------------------------------------------------------------
# maximum likelihood: processes
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_qpt_linear_recovers_exact_chi(seed):
    kraus = fig1_kraus(15.0)
    chi = qpt_linear(probability_table(kraus) * 10_000)
    assert np.abs(chi - chi_from_kraus(kraus)).max() < 1e-10
    # the fixed map inverts the design: exact probabilities give chi back at roundoff
    kraus = propagate(random_bench(np.random.default_rng(seed)))
    assert np.abs(qpt_linear(probability_table(kraus)) - chi_from_kraus(kraus)).max() <= 1e-12


def test_process_fits_match_rows_by_input_label():
    rec = simulate_counts(fig1_kraus(15.0), TomoSettings(shots=10_000, seed=4))
    order = [1, 0, 3, 2]  # V, H, R, P
    shuffled = CountRecord(rec.counts[order], [INPUT_LABELS[i] for i in order], rec.shots, rec.seed)
    fit, fit_shuffled = qpt_mle(rec), qpt_mle(shuffled)
    assert same_bits(fit_shuffled.chi, fit.chi)
    assert fit_shuffled.nll == fit.nll and fit_shuffled.tp_deviation == fit.tp_deviation
    assert same_bits(qpt_linear(shuffled), qpt_linear(rec))
    # a bare table carries no labels and is read in INPUT_LABELS order
    assert not np.allclose(qpt_linear(shuffled.counts), qpt_linear(rec))

    for labels in (("H", "V", "P", "L"), ("in0", "in1", "in2", "in3")):
        bad = CountRecord(rec.counts, labels, rec.shots, rec.seed)
        for fit_fn in (qpt_mle, qpt_linear):
            with pytest.raises(ValueError, match=re.escape(repr(labels))):
                fit_fn(bad)
    three_rows = CountRecord(rec.counts[:3], INPUT_LABELS[:3], rec.shots, rec.seed)
    with pytest.raises(ValueError, match="labels"):
        qpt_mle(three_rows)


def test_zero_shot_fits_raise_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = qpt_mle(simulate_counts(fig1_kraus(15.0), TomoSettings(shots=0)))
        state_fit = qst_mle(np.zeros(6), shots=0)
    assert fit.nll == 0.0 and fit.converged
    assert state_fit.nll == 0.0 and state_fit.converged


def test_qpt_mle_exact_identity():
    table = probability_table(identity_kraus()) * 10**6
    fit = qpt_mle(table, shots=10**6)
    assert np.abs(chi_eigenvalues(fit.chi) - [1, 0, 0, 0]).max() < 1e-6


def test_qpt_mle_exact_complete_depolarizer():
    table = probability_table(fig1_kraus(30.0)) * 10**6
    fit = qpt_mle(table, shots=10**6)
    assert np.abs(chi_eigenvalues(fit.chi) - 0.25).max() < 1e-6


def test_qpt_mle_noisy_isotropic_point():
    for seed in (0, 1, 2, 3, 4):
        rec = simulate_counts(fig1_kraus(15.0), TomoSettings(shots=10_000, seed=seed))
        fit = qpt_mle(rec)
        lam = chi_eigenvalues(fit.chi)
        assert abs(lam[0] - 3 / 4) <= 0.02
        assert np.abs(lam[1:] - 1 / 12).max() <= 0.02
        assert fit.converged


def test_qpt_mle_consistency_large_n():
    for theta2 in (4.0, 15.0, 22.0, 30.0):
        kraus = fig1_kraus(theta2)
        rec = simulate_counts(kraus, TomoSettings(shots=10**7, seed=123))
        fit = qpt_mle(rec)
        assert np.abs(chi_eigenvalues(fit.chi) - theory_eigs(theta2)).max() <= 3e-3


def test_qpt_mle_bias_near_zero_depolarization():
    # positivity correction pulls the dominant eigenvalue down when the true
    # channel sits near the boundary of the physical set
    theory_max = theory_eigs(4.0)[0]
    deviations = []
    for seed in range(100):
        rec = simulate_counts(fig1_kraus(4.0), TomoSettings(shots=10_000, seed=seed))
        lam = chi_eigenvalues(qpt_mle(rec).chi)
        deviations.append(lam[0] - theory_max)
    assert np.mean(deviations) < 0.0


def test_mle_outputs_physical_under_fuzzed_counts(rng):
    for _ in range(25):
        shots = int(rng.integers(1, 2000))
        table = rng.integers(0, shots + 1, size=(4, 6))
        fit = qpt_mle(table.astype(float), shots=shots)
        vals = np.linalg.eigvalsh(fit.chi)
        assert vals.min() >= -1e-10
        assert abs(np.trace(fit.chi).real - 1) < 1e-9
        assert np.abs(fit.chi - fit.chi.conj().T).max() < 1e-12

        row = rng.integers(0, shots + 1, size=6)
        fit_state = qst_mle(row.astype(float), shots=shots)
        check_density(fit_state.rho)


def test_mle_flags_non_convergence(monkeypatch):
    from polarchan import tomography

    rec = simulate_counts(fig1_kraus(15.0), TomoSettings(shots=10_000, seed=3))
    monkeypatch.setattr(tomography, "_NLL_REL_TOL", 1e-30)
    monkeypatch.setattr(tomography, "_MAX_ITERATIONS", 1)
    fit = qpt_mle(rec)
    assert not fit.converged
    # best iterate is still returned and physical
    assert np.linalg.eigvalsh(fit.chi).min() >= -1e-10
    assert abs(np.trace(fit.chi).real - 1) < 1e-9


def test_reconstruction_deterministic():
    rec = simulate_counts(fig1_kraus(22.0), TomoSettings(shots=10_000, seed=77))
    fit1 = qpt_mle(rec)
    fit2 = qpt_mle(rec)  # second fit reuses the cached constant tensors
    assert fit1.chi.tobytes() == fit2.chi.tobytes()
    assert fit1.nll == fit2.nll


def test_tp_deviation_diagnostic():
    # exact data from a TP channel: deviation vanishes at the optimum
    table = probability_table(fig1_kraus(15.0)) * 10**6
    fit = qpt_mle(table, shots=10**6)
    assert fit.tp_deviation < 1e-4
    assert trace_preservation_deviation(chi_from_kraus(fig1_kraus(15.0))) < 1e-12


@pytest.mark.parametrize("chi", [np.eye(4).ravel() / 4, np.eye(2) / 2], ids=["flat", "2x2"])
def test_tp_deviation_reads_one_process_matrix(chi):
    # a flat 16-vector used to pass, and a 2x2 raised numpy's reshape error
    with pytest.raises(ValueError, match=re.escape(f"process matrix must be 4x4, got shape {chi.shape}")):
        trace_preservation_deviation(chi)


# ---------------------------------------------------------------------------
# parameter packing, objective gradient and cached constants
# ---------------------------------------------------------------------------

def params_of(t):
    """The parameters params_k = Tr(S_k T) / dim of a Hermitian T over the Pauli strings."""
    dim = t.shape[0]
    return np.einsum("kmn,nm->k", reference_pauli_strings(dim), t).real / dim


def full_rank_params(rng, dim, scale=1.0):
    """Random parameters whose T is at least scale/2 times the identity, so every p_s is interior."""
    params = rng.normal(size=dim * dim)
    # the other strings' part has spectral norm at most its Frobenius norm
    params[0] = np.sqrt(dim * (params[1:] @ params[1:])) + 0.5
    return params * scale


@pytest.mark.parametrize("dim", [2, 4])
def test_pauli_strings_round_trip(dim, rng):
    strings = fit_constants(dim)[1]
    # E_a (x) E_b in row-major (a, b) order; entries 0, +-1, +-i, so equal in value
    assert np.array_equal(strings, reference_pauli_strings(dim))
    assert np.array_equal(strings, strings.conj().transpose(0, 2, 1))
    gram = np.einsum("kmn,lnm->kl", strings, strings)
    assert np.array_equal(gram, dim * np.eye(dim * dim))
    params = rng.normal(size=dim * dim)
    t = np.einsum("k,kmn->mn", params, strings)
    assert np.abs(t - t.conj().T).max() == 0.0
    assert np.abs(params_of(t) - params).max() <= 1e-15 * np.abs(params).sum()
    # Tr(T^2) = dim params.params
    assert np.trace(t @ t).real == pytest.approx(dim * (params @ params), rel=1e-14)


def fit_constants(dim):
    """The (design, Pauli strings, NLL forms) of the state (dim 2) or process (dim 4) fit."""
    from polarchan.tomography import _PROCESS_FIT, _STATE_FIT

    return _STATE_FIT if dim == 2 else _PROCESS_FIT


def nll_forms(dim):
    """The A tensor (each design row as a dim x dim matrix) and NLL forms of a fit."""
    design, _, forms = fit_constants(dim)
    return design.reshape(-1, dim, dim), forms


@pytest.mark.parametrize("dim", [2, 4])
def test_nll_gradient_matches_central_differences(dim, rng):
    from polarchan.tomography import _nll_and_grad

    a_tensor, forms = nll_forms(dim)
    shots = 1000.0
    counts = rng.integers(0, int(shots) + 1, size=a_tensor.shape[0]).astype(float)
    params = full_rank_params(rng, dim)
    grad = _nll_and_grad(params, forms, counts, shots)[1]
    h = 1e-6
    numeric = np.empty_like(params)
    for k in range(params.size):
        step = np.zeros_like(params)
        step[k] = h
        plus = _nll_and_grad(params + step, forms, counts, shots)[0]
        minus = _nll_and_grad(params - step, forms, counts, shots)[0]
        numeric[k] = (plus - minus) / (2 * h)
    assert np.abs(grad - numeric).max() <= 1e-5 * np.abs(grad).max()


def test_cached_constants_are_read_only():
    from polarchan.bench_sim import _CHI_TO_PTM, _PAULI_COEFFS
    from polarchan.tomography import (
        _INPUT_COORDS,
        _PROCESS_DESIGN,
        _PROJECTOR_COORDS,
        _QPT_LINEAR_MAP,
    )

    constants = [_PAULI_COEFFS, _CHI_TO_PTM, _INPUT_COORDS, _PROJECTOR_COORDS, _PROCESS_DESIGN,
                 _STATE_DESIGN, _QPT_LINEAR_MAP]
    constants += list(fit_constants(2)) + list(fit_constants(4))
    for const in constants:
        with pytest.raises(ValueError):
            const.flat[0] = 0


@pytest.mark.parametrize("dim", [2, 4])
def test_quadratic_forms_are_symmetric_and_give_the_probabilities(dim, rng):
    a_tensor, forms = nll_forms(dim)
    n = dim * dim
    assert forms.shape == (a_tensor.shape[0] * n, n) and forms.dtype == np.float64
    blocks = forms.reshape(-1, n, n)
    assert np.array_equal(blocks, blocks.transpose(0, 2, 1))
    # params^T Q_s params / params.params is the Born probability of the
    # settings on X: Tr(P_s X) for a state, Tr(P_j E_X(rho_k)) for a process
    params = rng.normal(size=n)
    t = np.einsum("k,kmn->mn", params, reference_pauli_strings(dim))
    x = t @ t / np.trace(t @ t).real
    if dim == 2:
        expected = np.array([np.trace(p @ x).real for p in analysis_projectors()])
    else:
        expected = np.array([np.trace(p @ apply_process_matrix(x, rho)).real
                             for rho in preparation_states() for p in analysis_projectors()])
    assert np.abs(blocks @ params @ params / (params @ params) - expected).max() <= 1e-14


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_fits_model_what_the_simulator_draws(seed):
    # the p of the NLL at T = X^(1/2) are the probabilities the counts are drawn from
    from polarchan.tomography import _nll_terms

    rng = np.random.default_rng(seed)
    kraus = propagate(random_bench(rng))
    rho = loose_state(rng, 1.0)
    for dim, x, drawn in ((4, chi_from_kraus(kraus), probability_table(kraus).ravel()),
                          (2, rho, _probabilities(_STATE_DESIGN, rho))):
        params = params_of(hermitian_root(x)).astype(float)
        p = _nll_terms(params, fit_constants(dim)[2], np.zeros(drawn.size), 0.0)[2]
        assert np.abs(p - drawn).max() <= 1e-15


def hermitian_root(x):
    """The Hermitian square root of a PSD ``x``, in extended precision: the root
    V sqrt(L) V^dag of ``eigh`` misses x by a few units of roundoff, so one Newton
    step T + E, with T E + E T = x - T^2 solved in the eigenbasis, refines it
    (pairs of eigenvalues near 0 are left as they are)."""
    vals, vecs = np.linalg.eigh(x)
    s = np.sqrt(np.maximum(vals, 0.0))
    v = vecs.astype(np.clongdouble)
    t = (v * s) @ v.conj().T
    residual = v.conj().T @ (x - t @ t) @ v
    sums = s[:, None] + s[None]
    return t + v @ np.divide(residual, sums, out=np.zeros_like(residual), where=sums > 1e-6) @ v.conj().T


def test_linear_map_inverts_the_design():
    from polarchan.tomography import _QPT_LINEAR_MAP

    # design column k holds the outputs of basis matrix k; the map sends it back to that matrix
    mapped = _QPT_LINEAR_MAP @ reference_qpt_design()
    assert np.abs(mapped - reference_hermitian_basis().reshape(16, 16).T).max() <= 1e-12


# ---------------------------------------------------------------------------
# stacked Born probabilities against the per-entry loops they replaced
# ---------------------------------------------------------------------------

def reference_state_probabilities(rho):
    return np.array([[clipped_trace(proj, np.asarray(rho, dtype=complex))
                      for proj in analysis_projectors()]])


def loose_state(rng, scale):
    """Hermitian, unit trace, Stokes length up to ``scale``: above 1 the clip acts."""
    s = random_physical_stokes(rng) * scale
    return 0.5 * (PAULI_BASIS[0] + sum(s[i] * PAULI_BASIS[i + 1] for i in range(3)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(0, 2 ** 16))
def test_probability_table_matches_per_entry_loop(seed, m, stream):
    rng = np.random.default_rng(seed)
    kraus = propagate(random_bench(rng))
    # read off the Pauli transfer matrix: equal at roundoff, not in every bit
    default = probability_table(kraus)
    assert np.abs(default - reference_probability_table(
        kraus, preparation_states(), analysis_projectors())).max() <= 2e-15
    inputs = [loose_state(rng, 1.0) for _ in range(m)]
    projectors = [loose_state(rng, 3.0) for _ in range(3)]
    reference = reference_probability_table(kraus, inputs, projectors)
    for (i, rho), (j, proj) in itertools.product(enumerate(inputs), enumerate(projectors)):
        assert abs(expected_probability(kraus, rho, proj) - reference[i, j]) <= 2e-15
    record = simulate_counts(kraus, TomoSettings(shots=5000, seed=seed), stream=stream)
    assert same_bits(record.counts, reference_counts(seed, stream, 5000 * default))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.6), st.integers(0, 2 ** 16))
def test_state_counts_match_per_projector_loop(seed, scale, stream):
    rng = np.random.default_rng(seed)
    rho = loose_state(rng, scale)
    settings_ = TomoSettings(shots=2000, seed=seed)
    record = simulate_state_counts(rho, settings_, stream=stream)
    # read off the state design: equal at roundoff, not in every bit
    probs = _probabilities(_STATE_DESIGN, rho)[None]
    assert np.abs(probs - reference_state_probabilities(rho)).max() <= 2e-15
    assert same_bits(record.counts, reference_counts(seed, stream, 2000 * probs))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.permutations(range(6)))
def test_records_independent_of_draw_order(seed, order):
    # each record owns its stream, so drawing them in any order gives the same tables
    rng = np.random.default_rng(seed)
    krauses = [propagate(random_bench(rng)) for _ in range(3)]
    tasks = [(kraus, stream) for kraus in krauses for stream in (0, 1)]
    settings_ = TomoSettings(shots=3000, seed=seed)
    in_order = [simulate_counts(kraus, settings_, stream=stream).counts for kraus, stream in tasks]
    shuffled = {i: simulate_counts(tasks[i][0], settings_, stream=tasks[i][1]).counts for i in order}
    for i, counts in enumerate(in_order):
        assert same_bits(shuffled[i], counts)


# ---------------------------------------------------------------------------
# the lean objective and linear seed against the versions they replaced
# ---------------------------------------------------------------------------

def reference_probabilities(params, a_tensor, dim) -> np.ndarray:
    t = np.einsum("k,kmn->mn", params, reference_pauli_strings(dim))
    gram = t @ t
    return np.einsum("smn,mn->s", a_tensor, gram / np.trace(gram).real).real


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2 ** 32 - 1),
    st.sampled_from([2, 4]),
    st.floats(-7.0, 4.0),
    st.sampled_from([0.0, 1.0, 37.0, 1000.0, 10_000.0, 1e6]),
    st.sampled_from(["full", "rank_one", "diagonal", "signed_zeros"]),
)
def test_nll_and_grad_match_reference_at_roundoff(seed, dim, log_scale, shots, shape):
    from polarchan.tomography import _nll_and_grad

    rng = np.random.default_rng(seed)
    a_tensor, forms = nll_forms(dim)
    params = rng.normal(size=dim * dim) * 10.0 ** log_scale
    if shape == "rank_one":  # X is a basis projector, so some p_s fall below _P_FLOOR
        ket = np.zeros(dim)
        ket[rng.integers(dim)] = 1.0
        params = params_of(np.outer(ket, ket)) * 10.0 ** log_scale
    elif shape == "diagonal":  # only the strings of identities and E1 = diag(1, -1)
        diagonal = np.array([np.count_nonzero(s - np.diag(np.diag(s))) == 0
                             for s in reference_pauli_strings(dim)])
        params[~diagonal] = 0.0
    elif shape == "signed_zeros":
        params[rng.uniform(size=params.size) < 0.5] = -0.0
        params[0] = 10.0 ** log_scale
    counts = rng.integers(0, int(shots) + 1, size=a_tensor.shape[0]).astype(float)
    counts[rng.uniform(size=counts.size) < 0.3] = 0.0
    nll, grad, _ = _nll_and_grad(params, forms, counts, shots)
    # the reference runs in extended precision: its own float64 roundoff in a
    # component that cancels to 0 can exceed a bound sized for the forms
    ref_nll, ref_grad = reference_root_nll_and_grad(
        params.astype(np.longdouble), a_tensor.astype(np.clongdouble), counts, shots, dim)
    # Each bound is relative to the size of the terms summed or subtracted, not to the
    # result: a rank-one T has a reference gradient of exactly 0, reached by cancellation.
    # A roundoff dp in p_s moves n_s log(N p_s) by n_s dp/p_s and w_s by n_s dp/p_s^2,
    # so those factors join the sizes wherever p_s is above the floor.
    p = reference_probabilities(params, a_tensor, dim)
    p_safe = np.clip(p, 1e-12, None)
    above = p > 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        log_terms = np.where(counts > 0, counts * np.abs(np.log(shots * p_safe)), 0.0)
    log_slopes = np.where(above, counts / p_safe, 0.0)
    assert abs(nll - ref_nll) <= 1e-14 * (shots * p.size + log_terms.sum() + log_slopes.sum())
    w = np.abs(np.where(above, shots - counts / p_safe, shots)) + log_slopes / p_safe
    v = np.abs(forms @ params).reshape(-1, params.size)
    scale = (2.0 / (params @ params)) * (w @ v + (w @ np.abs(p)) * np.abs(params))
    assert np.all(np.abs(grad - ref_grad) <= 1e-14 * scale)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 10_000))
def test_linear_estimates_match_reference(seed, shots):
    rng = np.random.default_rng(seed)
    table = rng.integers(0, shots + 1, size=(4, 6)).astype(float)
    table[rng.uniform(size=(4, 6)) < 0.2] = 0.0  # some axes lose all their counts
    # one fixed map in place of a least-squares solve: equal at roundoff, not in every bit
    reference = reference_qpt_linear(table)
    assert np.abs(qpt_linear(table) - reference).max() <= 1e-13
    for row in table:
        est = qst_linear(row)
        assert same_bits(est.stokes, reference_stokes(row))
        assert est.indeterminate_axes == tuple(bool(row[2 * a] + row[2 * a + 1] == 0) for a in range(3))


def reference_objective(params, forms, counts, shots):
    """The quadratic-form objective's signature around the dense reference NLL; the
    Hessian and the optimality gap read their terms from _nll_terms."""
    from polarchan.tomography import _nll_terms

    dim = math.isqrt(forms.shape[1])
    return (*reference_root_nll_and_grad(params, nll_forms(dim)[0], counts, shots, dim),
            _nll_terms(params, forms, counts, shots))


def test_fits_match_reference_objective(monkeypatch):
    from polarchan import tomography

    records = [simulate_counts(fig1_kraus(theta2), TomoSettings(shots=shots, seed=seed))
               for theta2, shots, seed in ((4.0, 10_000, 0), (15.0, 10_000, 1), (22.0, 500, 2),
                                           (30.0, 10_000, 3), (15.0, 0, 4))]
    rows = [simulate_state_counts(loose_state(np.random.default_rng(seed), 1.0),
                                  TomoSettings(shots=shots, seed=seed))
            for seed, shots in ((5, 100), (6, 10_000), (7, 1))]
    fits = [qpt_mle(rec) for rec in records] + [qst_mle(row) for row in rows]
    monkeypatch.setattr(tomography, "_nll_and_grad", reference_objective)
    reference = [qpt_mle(rec) for rec in records] + [qst_mle(row) for row in rows]
    # the objectives agree at roundoff, so the optimiser takes the same path
    for fit, ref in zip(fits, reference):
        assert (fit.converged, fit.iterations) == (ref.converged, ref.iterations)
        assert abs(fit.nll - ref.nll) <= 1e-12 * abs(ref.nll) + 1e-9
        assert np.abs(fit.matrix - ref.matrix).max() <= 1e-10
    for fit, ref in zip(fits[:5], reference[:5]):
        assert abs(fit.tp_deviation - ref.tp_deviation) <= 1e-9


# ---------------------------------------------------------------------------
# the damped Newton solver, its Hessian and its optimality gap
# ---------------------------------------------------------------------------

def solver_case(seed, dim, counts_kind, shots, log_scale=0.0):
    """Full-rank parameters, so that every p_s is interior, and counts of one kind."""
    rng = np.random.default_rng(seed)
    a_tensor, forms = nll_forms(dim)
    params = full_rank_params(rng, dim, 10.0 ** log_scale)
    size = a_tensor.shape[0]
    counts = {
        "zero": np.zeros(size),
        "tiny": rng.uniform(0.0, 1e-6, size),
        "counts": rng.integers(0, int(shots) + 1, size).astype(float),
    }[counts_kind]
    return params, forms, counts


def tangent_projector(params) -> np.ndarray:
    """P = I - params params^T / tau, onto the tangent space of |params| = const."""
    return np.eye(params.size) - np.outer(params, params) / (params @ params)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 4]), st.sampled_from(["zero", "tiny", "counts"]),
       st.sampled_from([1.0, 1000.0, 1e6]))
def test_nll_hessian_matches_central_differences(seed, dim, counts_kind, shots):
    from polarchan.tomography import _nll_and_grad, _nll_hessian

    params, forms, counts = solver_case(seed, dim, counts_kind, shots)
    hess = _nll_hessian(_nll_and_grad(params, forms, counts, shots)[2], forms, counts, shots)
    assert np.array_equal(hess, hess.T)
    h = 1e-6
    numeric = np.empty_like(hess)
    for k in range(params.size):
        step = np.zeros_like(params)
        step[k] = h
        numeric[:, k] = (_nll_and_grad(params + step, forms, counts, shots)[1]
                         - _nll_and_grad(params - step, forms, counts, shots)[1]) / (2 * h)
    # the solver reads the Hessian on the tangent space of |params| = const alone: P H P
    proj = tangent_projector(params)
    # zero counts make the state NLL the constant 3N (its Hessian is roundoff), so the
    # bound carries the size N * S / tau of the terms next to that of the Hessian itself
    scale = np.abs(hess).max() + shots * counts.size / (params @ params)
    assert np.abs(proj @ (hess - numeric) @ proj).max() <= 1e-6 * scale


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 4]), st.sampled_from(["zero", "tiny", "counts"]),
       st.sampled_from([1.0, 1000.0, 1e6]), st.floats(-3.0, 3.0))
def test_nll_hessian_maps_params_to_minus_the_gradient(seed, dim, counts_kind, shots, log_scale):
    from polarchan.tomography import _nll_and_grad, _nll_hessian

    # the NLL does not change along params (it reads T^2 / Tr(T^2)), so its gradient is
    # homogeneous of degree -1, H params = -grad wherever every p_s is interior, and
    # H = P H P - (params grad^T + grad params^T) / tau: the tangent Hessian and the
    # gradient give the whole of it
    params, forms, counts = solver_case(seed, dim, counts_kind, shots, log_scale)
    _, grad, terms = _nll_and_grad(params, forms, counts, shots)
    full = reference_nll_hessian(params, forms, counts, shots)
    proj = tangent_projector(params)
    hess = (proj @ _nll_hessian(terms, forms, counts, shots) @ proj
            - (np.outer(params, grad) + np.outer(grad, params)) / (params @ params))
    for matrix in (full, hess):
        scale = (np.abs(matrix) @ np.abs(params)).max() + shots * counts.size / np.sqrt(params @ params)
        assert np.abs(matrix @ params + grad).max() <= 1e-12 * scale
    scale = np.abs(full).max() + shots * counts.size / (params @ params)
    assert np.abs(hess - full).max() <= 1e-12 * scale


def test_cholesky_step_is_the_eigen_step_at_the_floor_shift(monkeypatch):
    from polarchan import tomography

    calls = []
    floor_step = tomography._floor_step

    def spy(tangent, grad, mu, radius):
        step = floor_step(tangent, grad, mu, radius)
        calls.append((tangent, grad, mu, radius, step))
        return step

    monkeypatch.setattr(tomography, "_floor_step", spy)
    for table, shots in fig1_fit_cases():
        assert qpt_mle(np.asarray(table, dtype=float), shots=shots).converged
    taken = [call for call in calls if call[-1] is not None]
    assert len(taken) >= 0.8 * len(calls) and len(calls) >= 90
    for tangent, grad, mu, radius, (step, length, predicted) in taken:
        eigen_step, eigen_length, eigen_predicted = tomography._eigen_stepper(tangent, grad, mu)(radius)
        assert np.abs(step - eigen_step).max() <= 1e-10 * np.abs(eigen_step).max()
        assert abs(length - eigen_length) <= 1e-10 * eigen_length
        assert abs(predicted - eigen_predicted) <= 1e-10 * eigen_predicted


def rayleigh_quotient(x, a):
    """f = x^T a x / x.x, scale-invariant like the NLL, with its gradient; f is its terms."""
    tau = x @ x
    f = x @ a @ x / tau
    return f, 2.0 * (a @ x - f * x) / tau, f


def rayleigh_hessian(f, a):
    """2 (a - f I), the Rayleigh quotient's Hessian on the tangent space of |x| = 1."""
    return 2.0 * (a - f * np.eye(len(a)))


def test_indefinite_tangent_matrix_takes_the_eigen_path(monkeypatch):
    from polarchan import tomography

    # next to the saddle x = (0, 1, 0, 0), where f = 0.5, the tangent Hessian has the
    # eigenvalue 2 (-1 - 0.5) < 0
    a = np.diag([-1.0, 0.5, 2.0, 3.0])
    floor_steps, eigen_steps = [], []
    floor_step, eigen_stepper = tomography._floor_step, tomography._eigen_stepper

    def floor_spy(*args):
        floor_steps.append(floor_step(*args))
        return floor_steps[-1]

    def eigen_spy(tangent, grad, mu):
        step = eigen_stepper(tangent, grad, mu)

        def recorded(radius):
            eigen_steps.append((np.linalg.eigvalsh(tangent)[0], step(radius)))
            return eigen_steps[-1][1]

        return recorded

    monkeypatch.setattr(tomography, "_floor_step", floor_spy)
    monkeypatch.setattr(tomography, "_eigen_stepper", eigen_spy)
    monkeypatch.setattr(tomography, "_MAX_ITERATIONS", 100)
    monkeypatch.setattr(tomography, "_NLL_REL_TOL", 1e-12)
    res = tomography._damped_newton(rayleigh_quotient, np.array([1e-3, 1.0, 1e-3, 0.0]), args=(a,),
                                    hess=rayleigh_hessian)
    assert floor_steps[0] is None
    lam_min, (_, _, predicted) = eigen_steps[0]
    assert lam_min < 0.0 and predicted > 0.0
    assert all(step[2] > 0.0 for _, step in eigen_steps)
    assert res.success and abs(res.fun + 1.0) <= 1e-12 and abs(abs(res.x[0]) - 1.0) <= 1e-6


def lbfgsb_nll(counts, shots, dim, ftol):
    """NLL of an L-BFGS-B fit of the dense reference objective over a Cholesky factor,
    X = T^dag T / Tr(T^dag T) with T lower-triangular, from the clipped linear estimate:
    the fits' parameterisation, seed and options before the Hermitian square root (at ``ftol``)."""
    from scipy.optimize import minimize

    counts = np.asarray(counts, dtype=float)
    linear = qst_linear(counts).rho if dim == 2 else qpt_linear(counts.reshape(4, 6))
    vals, vecs = np.linalg.eigh(0.5 * (linear + linear.conj().T))
    clipped = (vecs * np.maximum(vals, 1e-8)) @ vecs.conj().T
    clipped /= clipped.trace().real
    t = np.linalg.cholesky(clipped[::-1, ::-1])[::-1, ::-1].conj().T  # clipped = T^dag T
    below = t[np.tril_indices(dim, -1)]
    params = np.concatenate([t.diagonal().real, np.c_[below.real, below.imag].ravel()])
    assert np.array_equal(reference_tri(params, dim), t)
    res = minimize(reference_nll_and_grad, params, args=(nll_forms(dim)[0], counts.ravel(), float(shots), dim),
                   jac=True, method="L-BFGS-B",
                   options={"maxiter": 100_000, "maxfun": 1_000_000, "ftol": ftol, "gtol": 1e-10})
    return float(res.fun)


def fig1_fit_cases():
    """(count table, shots) of 45 fig1 records at 10k shots, from near-pure to fully depolarizing."""
    return [(simulate_counts(fig1_kraus(theta2), TomoSettings(shots=10_000, seed=seed)).counts, 10_000)
            for theta2 in (0.0, 2.0, 5.0, 10.0, 15.0, 22.0, 30.0, 37.0, 45.0) for seed in range(5)]


def edge_fit_cases():
    """Zero and single shots, and exact 1e6-shot tables, of near-pure and depolarizing channels."""
    cases = []
    for theta2 in (0.0, 2.0, 15.0, 45.0):
        kraus = fig1_kraus(theta2)
        cases += [(simulate_counts(kraus, TomoSettings(shots=0)).counts, 0),
                  (simulate_counts(kraus, TomoSettings(shots=1, seed=7)).counts, 1),
                  (probability_table(kraus) * 10 ** 6, 10 ** 6)]
    return cases


def test_fits_reach_the_lbfgsb_optimum():
    for table, shots in fig1_fit_cases() + edge_fit_cases():
        fit = qpt_mle(np.asarray(table, dtype=float), shots=shots)
        assert fit.converged
        assert fit.nll <= lbfgsb_nll(table, shots, 4, 1e-9) + 1e-9 * abs(fit.nll)
    rng = np.random.default_rng(11)
    for shots in (0, 1, 100, 10_000):
        row = simulate_state_counts(loose_state(rng, 1.0), TomoSettings(shots=shots, seed=3)).counts[0]
        fit = qst_mle(row.astype(float), shots=shots)
        assert fit.converged
        assert fit.nll <= lbfgsb_nll(row, shots, 2, 1e-9) + 1e-9 * abs(fit.nll)


def test_optimality_gap_bounds_the_excess_over_a_tight_fit():
    for table, shots in fig1_fit_cases():
        fit = qpt_mle(np.asarray(table, dtype=float), shots=shots)
        tight = lbfgsb_nll(table, shots, 4, 1e-15)
        assert fit.optimality_gap >= fit.nll - tight - 1e-9 * abs(fit.nll)
        assert fit.optimality_gap >= 0.0
    zero_shots = qpt_mle(np.zeros((4, 6)), shots=0)
    assert (zero_shots.nll, zero_shots.optimality_gap) == (0.0, 0.0)
    rec = simulate_state_counts(ket_projector(KET_P), TomoSettings(shots=500, seed=2))
    fit = qst_mle(rec)
    assert fit.optimality_gap >= fit.nll - lbfgsb_nll(rec.counts[0], 500, 2, 1e-15) - 1e-9 * abs(fit.nll)


def test_near_pure_fit_ends_near_its_tight_optimum(monkeypatch):
    from polarchan import tomography

    # fig1 at theta2 = 2 deg, a near-pure channel: the pivoted Cholesky factor stopped
    # 0.0598 above its own tight fit on this record, with a gap of 175
    rec = simulate_counts(fig1_kraus(2.0), TomoSettings(shots=10_000, seed=847497087))
    fit = qpt_mle(rec)
    monkeypatch.setattr(tomography, "_NLL_REL_TOL", 1e-15)
    tight = qpt_mle(rec)
    assert fit.converged and tight.converged
    excess = fit.nll - tight.nll
    assert excess <= 1e-3
    assert fit.optimality_gap >= excess


def test_process_result_fields_are_named():
    fit = qpt_mle(probability_table(fig1_kraus(15.0)) * 10_000, shots=10_000)
    assert [f.name for f in dataclasses.fields(fit)] == [
        "matrix", "nll", "converged", "iterations", "optimality_gap", "tp_deviation"]
    assert fit.tp_deviation == trace_preservation_deviation(fit.chi)


# ---------------------------------------------------------------------------
# everything from one Pauli transfer matrix
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_linear_qpt_on_exact_probabilities_returns_the_ptm(seed):
    from polarchan.bench_sim import _chi_stack, _ptm_stack

    kraus = propagate(random_bench(np.random.default_rng(seed)))
    chi = qpt_linear(probability_table(kraus))
    r = _ptm_stack(_chi_stack(kraus.as_stack()))
    assert np.abs(_ptm_stack(chi[None]) - r).max() <= 1e-12


def test_process_forms_are_exact():
    # the process design comes from exact coordinates and G, and the Pauli strings' products
    # have entries 0, +-1 and +-i, so the forms are exact dyadics
    a_tensor, forms = nll_forms(4)
    assert set(np.unique(np.abs(a_tensor)).tolist()) <= {0.0, 0.5, 1.0}
    assert set(np.unique(np.abs(forms)).tolist()) <= {0.0, 0.25, 0.5}


def test_state_settings_are_exact():
    # projectors and preparations come from exact coordinates: entries 0, +-1/2, +-i/2 and 1
    for op in analysis_projectors() + preparation_states():
        assert set(np.unique(np.abs(op)).tolist()) <= {0.0, 0.5, 1.0}
        assert np.abs(op - op.conj().T).max() == 0.0 and np.trace(op) == 1.0
    kets = dict(H=KET_H, V=KET_V, P=KET_P, M=KET_M, R=KET_R, L=KET_L)
    for op, label in zip(analysis_projectors(), PROJECTOR_LABELS):
        assert np.abs(op - ket_projector(kets[label])).max() <= 1e-15
    for op, label in zip(preparation_states(), INPUT_LABELS):
        assert np.abs(op - ket_projector(kets[label])).max() <= 1e-15
    assert set(np.unique(np.abs(_STATE_DESIGN)).tolist()) <= {0.0, 0.5, 1.0}
    assert set(np.unique(np.abs(nll_forms(2)[1])).tolist()) <= {0.0, 0.25, 0.5}


@pytest.mark.parametrize("fit", [qst_linear, qst_mle])
@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (6, 1), (2, 6), (1, 1, 6), (12,), ()])
def test_state_fits_read_one_projector_row(fit, shape):
    # a (2, 3) table was read as one row (qst_linear gave the Stokes vector (-1, -0.2, -0.111))
    kwargs = {} if fit is qst_linear else {"shots": 100}
    with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
        fit(np.arange(1.0, 1.0 + math.prod(shape)).reshape(shape), **kwargs)
    row = fit(np.arange(1.0, 7.0).reshape(1, 6), **kwargs)
    assert same_bits(row.rho, fit(np.arange(1.0, 7.0), **kwargs).rho)
    with pytest.raises(ValueError, match=re.escape("got (4, 6)")):
        fit(simulate_counts(identity_kraus(), TomoSettings(shots=10)))  # a record, but not of one state


@pytest.mark.parametrize("fit", [qst_linear, qst_mle, qpt_linear, qpt_mle])
@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
def test_bare_count_tables_are_validated(fit, bad):
    shape = (6,) if fit in (qst_linear, qst_mle) else (4, 6)
    table = np.full(shape, 10.0)
    table.flat[3] = bad
    kwargs = {} if fit in (qst_linear, qpt_linear) else {"shots": 100}
    with pytest.raises(ValueError, match="counts must be finite and non-negative"):
        fit(table, **kwargs)
    # fractional entries stay allowed: exact probabilities fit too
    table.flat[3] = 0.25
    fit(table, **kwargs)
