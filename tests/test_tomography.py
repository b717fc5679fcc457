import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarchan.bench_sim import BenchConfig, Waveplate, apply_channel, propagate
from polarchan.channel_analysis import chi_eigenvalues, chi_from_kraus
from polarchan.depolarizer import (
    DepolarizerSettings,
    build_bench,
    build_lyot,
    dop_isotropic,
    isotropic_theta1_angles,
)
from polarchan.polar_core import (
    KET_H,
    KET_P,
    PAULI_BASIS,
    check_density,
    fidelity,
    ket_projector,
)
from polarchan.tomography import (
    INPUT_LABELS,
    PROJECTOR_LABELS,
    CountRecord,
    TomoSettings,
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
    _poisson_draw,
)

from conftest import (
    random_bench,
    random_physical_stokes,
    reference_channel,
    reference_nll_and_grad,
    reference_qpt_linear,
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


@pytest.mark.parametrize("bad_line, message", [
    ("H,H,999", r"line 5: duplicate entry \(H, H\) in 'H,H,999'"),
    ("H,X,7", r"line 5: unknown projector 'X' in 'H,X,7'"),
    ("H,7", r"line 5: expected input,projector,counts, got 'H,7'"),
    ("H,V,1,2", r"line 5: expected input,projector,counts, got 'H,V,1,2'"),
    ("H,V,seven", r"line 5: counts must be an integer, got 'H,V,seven'"),
], ids=["duplicate", "unknown_projector", "two_fields", "four_fields", "not_an_integer"])
def test_count_record_csv_rejects_malformed_lines(bad_line, message):
    lines = simulate_counts(identity_kraus(), TomoSettings(shots=10, seed=1)).to_csv_text().splitlines()
    if bad_line != "H,H,999":
        del lines[4]  # the H,V entry, so that only the bad line can supply it
    lines.insert(4, bad_line)
    with pytest.raises(ValueError, match=message):
        CountRecord.from_csv_text("\n".join(lines) + "\n")


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


def test_qst_mle_is_physical_and_beats_clipped_linear():
    from polarchan.tomography import _clip_to_physical, _nll_and_grad, _tri_to_params, _lower_factor

    rec = simulate_state_counts(ket_projector(KET_H), TomoSettings(shots=200, seed=5))
    fit = qst_mle(rec)
    check_density(fit.rho)

    clipped = _clip_to_physical(qst_linear(rec).rho)
    a_tensor = np.stack(analysis_projectors())
    params = _tri_to_params(_lower_factor(clipped), 2)
    nll_clipped, _ = _nll_and_grad(params, a_tensor, rec.counts[0].astype(float), 200.0, 2)
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

def test_qpt_linear_recovers_exact_chi():
    kraus = fig1_kraus(15.0)
    chi = qpt_linear(probability_table(kraus) * 10_000)
    assert np.abs(chi - chi_from_kraus(kraus)).max() < 1e-10


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

    for labels in (("H", "V", "P", "L"), ("H", "H", "P", "R"), ("in0", "in1", "in2", "in3")):
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


def test_mle_flags_non_convergence():
    rec = simulate_counts(fig1_kraus(15.0), TomoSettings(shots=10_000, seed=3))
    strict = TomoSettings(shots=10_000, seed=3, nll_rel_tol=1e-30, max_iterations=1)
    fit = qpt_mle(rec, settings=strict)
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


# ---------------------------------------------------------------------------
# parameter packing, objective gradient and cached constants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 4])
def test_params_tri_round_trip(dim, rng):
    from polarchan.tomography import _params_to_tri, _tri_to_params

    params = rng.normal(size=dim * dim)
    t = _params_to_tri(params, dim)
    # diagonal first, then (re, im) pairs in row-major order below it
    expected = np.diag(params[:dim]).astype(complex)
    k = dim
    for i in range(1, dim):
        for j in range(i):
            expected[i, j] = complex(params[k], params[k + 1])
            k += 2
    assert np.array_equal(t, expected)
    assert np.array_equal(_tri_to_params(t, dim), params)


@pytest.mark.parametrize("dim", [2, 4])
def test_nll_gradient_matches_central_differences(dim, rng):
    from polarchan.tomography import _nll_and_grad, _qpt_a_tensor, _qst_a_tensor

    a_tensor = _qst_a_tensor() if dim == 2 else _qpt_a_tensor()
    shots = 1000.0
    counts = rng.integers(0, int(shots) + 1, size=a_tensor.shape[0]).astype(float)
    params = rng.normal(size=dim * dim)
    params[:dim] = np.abs(params[:dim]) + 0.5  # full-rank T keeps every p_s interior
    _, grad = _nll_and_grad(params, a_tensor, counts, shots, dim)
    h = 1e-6
    numeric = np.empty_like(params)
    for k in range(params.size):
        step = np.zeros_like(params)
        step[k] = h
        plus, _ = _nll_and_grad(params + step, a_tensor, counts, shots, dim)
        minus, _ = _nll_and_grad(params - step, a_tensor, counts, shots, dim)
        numeric[k] = (plus - minus) / (2 * h)
    assert np.abs(grad - numeric).max() <= 1e-5 * np.abs(grad).max()


def test_cached_constants_are_read_only():
    from polarchan.tomography import (
        _EN_EM,
        _hermitian_basis,
        _qpt_a_tensor,
        _qpt_design,
        _qst_a_tensor,
        _tri_layout,
    )

    constants = [_EN_EM, _hermitian_basis(), _qpt_a_tensor(), _qpt_design(), _qst_a_tensor()]
    constants += list(_tri_layout(4)) + list(_tri_layout(2))
    for const in constants:
        with pytest.raises(ValueError):
            const.flat[0] = 0
    assert _qpt_a_tensor() is _qpt_a_tensor()


# ---------------------------------------------------------------------------
# stacked Born probabilities against the per-entry loops they replaced
# ---------------------------------------------------------------------------

def clipped_trace(proj, rho):
    return min(max(float(np.trace(proj @ rho).real), 0.0), 1.0)


def reference_probability_table(kraus, inputs, projectors):
    """One channel output per input, then one scalar trace per projector."""
    table = np.empty((len(inputs), len(projectors)))
    for i, rho in enumerate(inputs):
        out = reference_channel(kraus.operators, rho)
        for j, proj in enumerate(projectors):
            table[i, j] = clipped_trace(proj, out)
    return table


def reference_state_counts(rho, settings):
    counts = np.empty((1, 6), dtype=np.int64)
    for j, proj in enumerate(analysis_projectors()):
        p = clipped_trace(proj, np.asarray(rho, dtype=complex))
        counts[0, j] = _poisson_draw(settings.seed, (0, j), settings.shots * p)
    return counts


def loose_state(rng, scale):
    """Hermitian, unit trace, Stokes length up to ``scale``: above 1 the clip acts."""
    s = random_physical_stokes(rng) * scale
    return 0.5 * (PAULI_BASIS[0] + sum(s[i] * PAULI_BASIS[i + 1] for i in range(3)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
def test_probability_table_matches_per_entry_loop(seed, m):
    rng = np.random.default_rng(seed)
    kraus = propagate(random_bench(rng))
    default = probability_table(kraus)
    assert same_bits(default, reference_probability_table(
        kraus, preparation_states(), analysis_projectors()))
    inputs = [loose_state(rng, 1.0) for _ in range(m)]
    projectors = [loose_state(rng, 3.0) for _ in range(3)]
    assert same_bits(probability_table(kraus, inputs, projectors),
                     reference_probability_table(kraus, inputs, projectors))
    record = simulate_counts(kraus, TomoSettings(shots=5000, seed=seed))
    assert record.counts.tolist() == [
        [_poisson_draw(seed, (i, j), 5000 * p) for j, p in enumerate(row)]
        for i, row in enumerate(default.tolist())
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.6))
def test_state_counts_match_per_projector_loop(seed, scale):
    rng = np.random.default_rng(seed)
    rho = loose_state(rng, scale)
    settings_ = TomoSettings(shots=2000, seed=seed)
    record = simulate_state_counts(rho, settings_)
    assert same_bits(record.counts, reference_state_counts(rho, settings_))


# ---------------------------------------------------------------------------
# the lean objective and linear seed against the versions they replaced
# ---------------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2 ** 32 - 1),
    st.sampled_from([2, 4]),
    st.floats(-7.0, 4.0),
    st.sampled_from([0.0, 1.0, 37.0, 1000.0, 10_000.0, 1e6]),
    st.sampled_from(["full", "rank_one", "zero_lower", "signed_zeros"]),
)
def test_nll_and_grad_matches_reference_bits(seed, dim, log_scale, shots, shape):
    from polarchan.tomography import _nll_and_grad, _params_to_tri, _qpt_a_tensor, _qst_a_tensor

    rng = np.random.default_rng(seed)
    a_tensor = _qst_a_tensor() if dim == 2 else _qpt_a_tensor()
    params = rng.normal(size=dim * dim) * 10.0 ** log_scale
    if shape == "rank_one":  # X is a projector, so some p_s fall below _P_FLOOR
        params[:] = 0.0
        params[rng.integers(dim)] = 10.0 ** log_scale
    elif shape == "zero_lower":
        params[dim:] = 0.0
    elif shape == "signed_zeros":
        params[rng.uniform(size=params.size) < 0.5] = -0.0
        params[0] = 10.0 ** log_scale
    counts = rng.integers(0, int(shots) + 1, size=a_tensor.shape[0]).astype(float)
    counts[rng.uniform(size=counts.size) < 0.3] = 0.0
    assert same_bits(_params_to_tri(params, dim), reference_tri(params, dim))
    nll, grad = _nll_and_grad(params, a_tensor, counts, shots, dim)
    ref_nll, ref_grad = reference_nll_and_grad(params, a_tensor, counts, shots, dim)
    assert same_bits(np.float64(nll), np.float64(ref_nll))
    assert same_bits(grad, ref_grad)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 10_000))
def test_linear_estimates_match_reference_bits(seed, shots):
    from polarchan.tomography import _hermitian_basis, _qpt_design

    rng = np.random.default_rng(seed)
    table = rng.integers(0, shots + 1, size=(4, 6)).astype(float)
    table[rng.uniform(size=(4, 6)) < 0.2] = 0.0  # some axes lose all their counts
    assert same_bits(qpt_linear(table), reference_qpt_linear(table, _qpt_design(), _hermitian_basis()))
    for row in table:
        est = qst_linear(row)
        assert same_bits(est.stokes, reference_stokes(row))
        assert est.indeterminate_axes == tuple(bool(row[2 * a] + row[2 * a + 1] == 0) for a in range(3))


def fit_fingerprint(fit):
    return fit.matrix.tobytes(), fit.nll, fit.iterations, fit.converged


def test_fits_match_reference_objective(monkeypatch):
    from polarchan import tomography

    records = [simulate_counts(fig1_kraus(theta2), TomoSettings(shots=shots, seed=seed))
               for theta2, shots, seed in ((4.0, 10_000, 0), (15.0, 10_000, 1), (22.0, 500, 2),
                                           (30.0, 10_000, 3), (15.0, 0, 4))]
    rows = [simulate_state_counts(loose_state(np.random.default_rng(seed), 1.0),
                                  TomoSettings(shots=shots, seed=seed))
            for seed, shots in ((5, 100), (6, 10_000), (7, 1))]
    fits = [qpt_mle(rec) for rec in records] + [qst_mle(row) for row in rows]
    monkeypatch.setattr(tomography, "_nll_and_grad", reference_nll_and_grad)
    reference = [qpt_mle(rec) for rec in records] + [qst_mle(row) for row in rows]
    for fit, ref in zip(fits, reference):
        assert fit_fingerprint(fit) == fit_fingerprint(ref)
    assert [f.tp_deviation for f in fits[:5]] == [r.tp_deviation for r in reference[:5]]
