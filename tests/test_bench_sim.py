import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarchan import bench_sim, cli
from polarchan.bench_sim import (
    _CHI_TO_PTM,
    _IDENTITY,
    MAX_DELAY_BINS,
    AffineMap,
    BenchConfig,
    Crystal,
    KrausSet,
    Waveplate,
    _checked_chi,
    _chi_stack,
    _gather_plan,
    _nonzero_bins,
    _projector_pair,
    _ptm_stack,
    _structure,
    affine_map,
    apply_channel,
    delay_bin_bound,
    normalize_delays,
    propagate,
    propagate_stack,
)
from polarchan.channel_analysis import chi_from_kraus
from polarchan.depolarizer import (
    REFLECTION_COMPENSATION,
    DepolarizerSettings,
    build_bench,
    build_lyot,
)
from polarchan.polar_core import PAULI_BASIS, KET_H, density_from_stokes, ket_projector, rotation2
from polarchan.tomography import (
    TomoSettings,
    analysis_projectors,
    preparation_states,
    probability_table,
    simulate_counts,
)

from conftest import (
    random_bench,
    random_physical_stokes,
    reference_channel,
    reference_completeness_defect,
    reference_probability_table,
    reference_propagate,
    reference_transfer,
    same_bits,
)

I2 = np.eye(2)


def bench_of_lengths(*lengths):
    return BenchConfig(tuple(Crystal(ln, 0.0) for ln in lengths))


def test_normalize_examples():
    assert bench_lengths(normalize_delays(bench_of_lengths(1, 2, 2, 1))) == [1, 2, 2, 1]
    assert bench_lengths(normalize_delays(bench_of_lengths(Fraction(1, 2), Fraction(3, 4)))) == [2, 3]
    assert bench_lengths(normalize_delays(bench_of_lengths(1.5, 3))) == [1, 2]
    assert bench_lengths(normalize_delays(bench_of_lengths("2/3", "1/6", 1))) == [4, 1, 6]


def bench_lengths(bench):
    return [int(el.length) for el in bench.elements if isinstance(el, Crystal)]


@pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("make, element", [
    (lambda a: Crystal(1, a), "crystal fast axis"),
    (lambda a: Waveplate("half", a), "half-wave plate"),
    (lambda a: Waveplate("quarter", a), "quarter-wave plate"),
])
def test_elements_reject_non_finite_angles(make, element, angle):
    # a NaN plate would otherwise zero every bin and surface as "defect 1"
    with pytest.raises(ValueError, match=f"{element} angle must be finite, got {angle}"):
        make(angle)


def test_invalid_lengths_rejected():
    with pytest.raises(ValueError, match="positive"):
        Crystal(0, 0.0)
    with pytest.raises(ValueError, match="positive"):
        Crystal(Fraction(-1, 2), 0.0)
    with pytest.raises(ValueError, match="positive"):
        Crystal("-3/2", 0.0)
    with pytest.raises(ValueError, match="not a decimal or a fraction"):
        Crystal("1.5 mm", 0.0)
    with pytest.raises(ValueError):
        BenchConfig(())


@pytest.mark.parametrize("text, reason", [
    ("1e1000000", "decimal exponent"),
    ("1e-1000000", "decimal exponent"),
    ("2E+1_000_000", "decimal exponent"),
    ("7" * 5000, "more than 30 digits"),
    ("1." + "0" * 40 + "1", "more than 30 digits"),
])
def test_length_text_bounded_before_parsing(text, reason):
    # an exact parse of such text takes time that grows with its digits and exponent
    start = time.perf_counter()
    with pytest.raises(ValueError, match=reason):
        Crystal(text, 0.0)
    assert time.perf_counter() - start < 0.05


def test_length_text_at_the_caps_parses():
    digits = ("1234567890" * 3)[:28]
    assert Crystal("1.5e30", 0.0).length == Fraction(15 * 10 ** 29)
    assert Crystal(f"{digits}e-30", 0.0).length == Fraction(int(digits), 10 ** 30)
    assert Crystal("3/2", 0.0).length == Fraction(3, 2)


def test_propagate_single_waveplate():
    kraus = propagate(BenchConfig((Waveplate("half", 0.0),)))
    assert kraus.delays == (0,)
    assert np.allclose(kraus.operators[0], np.diag([1.0, -1.0]), atol=1e-15)


def test_propagate_lyot_structure():
    kraus = propagate(build_lyot(1))
    assert kraus.delays == (0, 1, 2, 3)
    for op in kraus.operators:
        assert np.linalg.matrix_rank(op, tol=1e-12) == 1
    assert kraus.completeness_defect() < 1e-12


def test_fig1_theta2_zero_is_identity_after_compensation():
    bench = build_bench(DepolarizerSettings(31.316097, 0.0))
    m = affine_map(propagate(bench)).matrix
    assert np.abs(REFLECTION_COMPENSATION @ m - np.eye(3)).max() < 1e-12


def test_apply_channel_examples(rng):
    identity = propagate(BenchConfig((Waveplate("half", 0.0), Waveplate("half", 0.0))))
    for _ in range(10):
        rho = density_from_stokes(random_physical_stokes(rng))
        assert np.abs(apply_channel(identity, rho) - rho).max() < 1e-12

    lyot = propagate(build_lyot(1))
    assert np.abs(apply_channel(lyot, ket_projector(KET_H)) - I2 / 2).max() < 1e-12
    # any pure state on a grid is fully depolarized
    for theta in np.linspace(0, np.pi, 10):
        for phi in np.linspace(0, 2 * np.pi, 10):
            s = [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
            out = apply_channel(lyot, density_from_stokes(s))
            assert np.abs(out - I2 / 2).max() < 1e-12


def test_apply_channel_rejects_incomplete_set():
    bad = KrausSet((0,), (np.diag([1.0, 0.0]),))
    with pytest.raises(ValueError, match="trace preserving"):
        apply_channel(bad, I2 / 2)


def test_kraus_delays_strictly_increasing():
    with pytest.raises(ValueError, match="increasing"):
        KrausSet((0, 0), (I2 / np.sqrt(2), I2 / np.sqrt(2)))


def test_affine_map_examples():
    identity = propagate(BenchConfig((Waveplate("half", 0.0), Waveplate("half", 0.0))))
    amap = affine_map(identity)
    assert np.abs(amap.matrix - np.eye(3)).max() < 1e-12
    assert np.abs(amap.translation).max() < 1e-12

    lyot = affine_map(propagate(build_lyot(1)))
    assert np.abs(lyot.matrix).max() < 1e-12
    assert np.abs(lyot.translation).max() < 1e-12

    complete = affine_map(propagate(build_bench(DepolarizerSettings(31.316097420688664, 30.0))))
    assert np.abs(complete.matrix).max() < 1e-10
    assert np.abs(complete.translation).max() < 1e-12


def test_affine_map_agrees_with_channel(rng):
    for _ in range(30):
        kraus = propagate(random_bench(rng))
        amap = affine_map(kraus)
        for _ in range(5):
            s = random_physical_stokes(rng)
            out = apply_channel(kraus, density_from_stokes(s))
            expected = amap.apply(s)
            got = [np.trace(out @ p).real for p in PAULI_BASIS[1:]]
            assert np.abs(np.asarray(got) - expected).max() < 1e-12


def test_random_bench_physicality(rng):
    for _ in range(300):
        kraus = propagate(random_bench(rng))
        assert kraus.completeness_defect() < 1e-12
        amap = affine_map(kraus)
        assert np.abs(amap.translation).max() < 1e-12  # unital
        sigma_max = np.linalg.svd(amap.matrix, compute_uv=False)[0]
        assert sigma_max <= 1 + 1e-9  # contractive


def test_element_order_matters():
    a = BenchConfig((Crystal(1, 0.0), Waveplate("half", 20.0), Crystal(2, 55.0)))
    b = BenchConfig((Crystal(2, 55.0), Waveplate("half", 20.0), Crystal(1, 0.0)))
    ma = affine_map(propagate(a)).matrix
    mb = affine_map(propagate(b)).matrix
    assert np.abs(ma - mb).max() > 0.05


def test_scale_invariance_of_channel():
    m1 = affine_map(propagate(build_lyot(1))).matrix
    m3 = affine_map(propagate(build_lyot(3))).matrix
    assert np.abs(m1 - m3).max() < 1e-12
    # and a non-trivial channel, via rational lengths with equal ratios
    b1 = BenchConfig((Crystal(1, 0.0), Crystal(2, 30.0)))
    b2 = BenchConfig((Crystal(Fraction(1, 3), 0.0), Crystal(Fraction(2, 3), 30.0)))
    assert np.abs(
        affine_map(propagate(b1)).matrix - affine_map(propagate(b2)).matrix
    ).max() < 1e-12


def test_affine_map_immutability():
    amap = AffineMap(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        amap.matrix[0, 0] = 2.0


# ---------------------------------------------------------------------------
# stacked propagation against the one-bench delay-dictionary loop
# ---------------------------------------------------------------------------

def reference_affine_matrix(kraus):
    """Stokes matrix column by column, one probe state at a time."""
    eye = np.eye(2, dtype=complex)

    def stokes(rho):
        return np.array([np.trace(rho @ PAULI_BASIS[i]).real for i in (1, 2, 3)])

    t = stokes(reference_channel(kraus.operators, eye / 2))
    m = np.empty((3, 3))
    for i in (1, 2, 3):
        m[:, i - 1] = stokes(reference_channel(kraus.operators, (eye + PAULI_BASIS[i]) / 2)) - t
    return m


# structure: per element, a crystal length (int) or a wave-plate kind; angles drawn apart
_ANGLES = st.one_of(st.sampled_from([0.0, -0.0, 45.0, 90.0, 22.5, -45.0]),
                    st.floats(-180.0, 180.0, allow_nan=False))
_STRUCTURES = st.lists(st.one_of(st.integers(1, 4), st.sampled_from(["half", "quarter"])),
                       min_size=1, max_size=6)


def bench_from(structure, angles):
    return BenchConfig(tuple(
        Waveplate(kind, a) if isinstance(kind, str) else Crystal(kind, a)
        for kind, a in zip(structure, angles)
    ))


@st.composite
def bench_stacks(draw):
    structure = draw(_STRUCTURES)
    n = draw(st.integers(1, 5))
    return [bench_from(structure, draw(st.lists(_ANGLES, min_size=len(structure),
                                                max_size=len(structure))))
            for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(bench_stacks())
def test_stack_matches_one_bench_reference(benches):
    delays, ops = propagate_stack(benches)
    assert ops.shape == (len(benches), len(delays), 2, 2)
    for b, bench in enumerate(benches):
        one_delays, one_ops = propagate_stack([bench])
        assert one_delays == delays
        assert same_bits(one_ops[0], ops[b])
        keep = _nonzero_bins(ops[b])
        kraus = propagate(bench)
        assert kraus.delays == tuple(d for d, k in zip(delays, keep) if k)
        assert same_bits(kraus.operators, ops[b][keep])
        ref_delays, ref_ops = reference_propagate(bench)
        assert list(kraus.delays) == ref_delays
        assert same_bits(kraus.operators, ref_ops)
        # read off the Pauli transfer matrix: equal at roundoff, not in every bit
        assert np.abs(affine_map(kraus).matrix - reference_affine_matrix(kraus)).max() <= 2e-15


def test_stack_keeps_signed_zero_angles_apart():
    plus, minus = (BenchConfig((Waveplate("half", a), Crystal(1, a))) for a in (0.0, -0.0))
    _, ops = propagate_stack([plus, minus])
    assert same_bits(ops[1], propagate_stack([minus])[1][0])
    assert not same_bits(ops[0], ops[1])


@pytest.mark.parametrize("other", [
    BenchConfig((Crystal(1, 0.0), Waveplate("half", 10.0), Crystal(3, 5.0))),     # length
    BenchConfig((Crystal(1, 0.0), Waveplate("quarter", 10.0), Crystal(2, 5.0))),  # plate kind
    BenchConfig((Waveplate("half", 10.0), Crystal(1, 0.0), Crystal(2, 5.0))),     # order
    BenchConfig((Crystal(1, 0.0), Waveplate("half", 10.0))),                      # count
])
def test_stack_rejects_mismatched_structure(other):
    base = BenchConfig((Crystal(1, 0.0), Waveplate("half", 30.0), Crystal(2, 45.0)))
    with pytest.raises(ValueError, match="share element kinds and crystal lengths"):
        propagate_stack([base, other])


def test_stack_rejects_empty_list():
    with pytest.raises(ValueError, match="at least one bench"):
        propagate_stack([])


def test_delay_bins_capped_before_propagation():
    # 17 incommensurate crystals would give 2**17 bins; refused before any allocation
    huge = bench_of_lengths(*(2 ** i for i in range(17)))
    assert delay_bin_bound(huge) == 2 ** 17 > MAX_DELAY_BINS
    with pytest.raises(ValueError, match=f"more than {MAX_DELAY_BINS} delay bins"):
        propagate(huge)
    with pytest.raises(ValueError, match="delay bins"):
        propagate_stack([huge, huge])
    assert delay_bin_bound(bench_of_lengths(*(2 ** i for i in range(16)))) == MAX_DELAY_BINS
    # commensurate lengths collapse: 40 unit crystals reach at most 41 delays
    assert delay_bin_bound(bench_of_lengths(*([1] * 40))) == 41
    assert delay_bin_bound(BenchConfig((Waveplate("half", 0.0),))) == 1


# ---------------------------------------------------------------------------
# channel outputs, read off chi
# ---------------------------------------------------------------------------

def random_states(rng, m):
    states = [density_from_stokes(random_physical_stokes(rng)) for _ in range(m)]
    # signed zeros in the input
    states.append(np.array([[1.0, -0.0], [0.0, -0.0]], dtype=complex))
    return np.stack(states)


def channel_bound(kraus) -> float:
    """How far apply_channel may sit from the per-state K rho K^dag loop: the
    two round differently, by 1e-15 plus one unit of roundoff per delay bin."""
    return 1e-15 + len(kraus) * 2.0 ** -52


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5))
def test_apply_channel_matches_per_state_loop(seed, m):
    rng = np.random.default_rng(seed)
    kraus = propagate(random_bench(rng, max_elements=10))
    states = random_states(rng, m)
    for rho in states:
        out = apply_channel(kraus, rho)
        assert out.shape == (2, 2)
        assert np.abs(out - reference_channel(kraus.operators, rho)).max() <= channel_bound(kraus)
    # a stack of states has more than one output
    with pytest.raises(ValueError):
        apply_channel(kraus, states)


def test_apply_channel_at_the_bin_cap_allocates_no_bin_sized_temporary():
    rng = np.random.default_rng(5)
    bench = BenchConfig(tuple(Crystal(2 ** i, float(rng.uniform(0, 180))) for i in range(16)))
    kraus = propagate(bench)
    assert len(kraus) == MAX_DELAY_BINS
    rho = density_from_stokes(random_physical_stokes(rng))
    first = apply_channel(kraus, rho)  # computes and keeps the set's chi
    tracemalloc.start()
    try:
        second = apply_channel(kraus, rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one product over the bins would take 65,536 * 64 B = 4 MiB
    assert peak < 64 * 1024
    assert same_bits(first, second)
    assert np.abs(second - reference_channel(kraus.operators, rho)).max() <= channel_bound(kraus)


def test_kraus_stack_built_once_and_read_only():
    kraus = propagate(build_lyot(1))
    stack = kraus.as_stack()
    assert stack is kraus.as_stack()
    assert stack.shape == (1, len(kraus), 2, 2) and not stack.flags.writeable
    assert kraus.operators.shape == (len(kraus), 2, 2) and same_bits(kraus.operators, stack[0])
    assert not kraus.operators.flags.writeable and np.shares_memory(kraus.operators, stack)
    with pytest.raises(ValueError, match="equal length"):
        KrausSet((0, 1), (I2,))
    # operators keep their own shape: neither a flat 4-vector nor a bundled
    # pair of matrices is reinterpreted as 2x2 operators
    for operators in ((np.ones(4),), (np.stack([I2, I2]),), (I2, np.eye(3))):
        with pytest.raises(ValueError, match="2x2 matrices|inhomogeneous"):
            KrausSet((0,) if len(operators) == 1 else (0, 1), operators)


def sweep_block_of(monkeypatch, ops):
    """A one-bench sweep block whose propagated stack is ``ops``."""
    monkeypatch.setattr(cli, "propagate_stack", lambda benches: (tuple(range(ops.shape[1])), ops))
    return lambda: cli._sweep_block([build_lyot(1)], keep_kraus=False)


def checked_consumers(kraus, monkeypatch):
    """Every public entry point that checks completeness, each a call on ``kraus``."""
    return (
        kraus.require_complete,
        lambda: _checked_chi(kraus.as_stack()),
        lambda: affine_map(kraus),
        lambda: apply_channel(kraus, I2 / 2),
        lambda: chi_from_kraus(kraus),
        lambda: probability_table(kraus),
        lambda: simulate_counts(kraus, TomoSettings(shots=100, seed=1)),
        sweep_block_of(monkeypatch, kraus.as_stack()),
    )


def test_incomplete_set_rejected_by_every_consumer(monkeypatch):
    # the stacked helpers are unchecked, so each public entry point checks;
    # the message carries the same defect as the K^dag K sum, to three digits
    stacks = (
        (np.diag([1.0, 0.0]),),
        (I2 * np.sqrt(1.0 + 1e-10),),
        (I2 * 1.5,),
        tuple(1.1 * propagate(build_lyot(1)).operators),
        tuple(0.9 * propagate(build_bench(DepolarizerSettings(20.0, 13.0, 2, 3))).operators),
    )
    for operators in stacks:
        bad = KrausSet(tuple(range(len(operators))), operators)
        defect = reference_completeness_defect(bad.as_stack())[0]
        assert defect > 1e-12
        for call in checked_consumers(bad, monkeypatch):
            # twice: the second call reads the chi and defect the first one stored
            for _ in range(2):
                with pytest.raises(ValueError, match=rf"not trace preserving \(defect {defect:.3g}\)"):
                    call()
        bad.require_complete(atol=2 * defect)


def test_one_chi_per_kraus_set(monkeypatch):
    calls = []
    chi_stack = bench_sim._chi_stack
    monkeypatch.setattr(bench_sim, "_chi_stack", lambda ops: calls.append(ops.shape) or chi_stack(ops))
    kraus = propagate(build_bench(DepolarizerSettings(20.0, 13.0, 2, 3)))
    matrix = affine_map(kraus).matrix
    chi = chi_from_kraus(kraus)
    probability_table(kraus)
    simulate_counts(kraus, TomoSettings(shots=100, seed=1))
    apply_channel(kraus, I2 / 2)
    kraus.completeness_defect()
    kraus.require_complete()
    assert calls == [(1, len(kraus), 2, 2)]
    # the caller owns the returned chi: writing to it changes nothing the set keeps
    expected = chi.copy()
    assert chi.flags.writeable
    chi[...] = np.nan
    assert same_bits(chi_from_kraus(kraus), expected)
    assert same_bits(affine_map(kraus).matrix, matrix)
    assert len(calls) == 1


def test_completeness_tolerance():
    bad = KrausSet((0,), (np.diag([1.0, 0.0]),))
    assert bad.completeness_defect() == 1.0
    bad.require_complete(atol=1.0)
    with pytest.raises(ValueError, match="trace preserving"):
        bad.require_complete(atol=0.5)
    # a defect below the default atol passes
    KrausSet((0,), (I2 * np.sqrt(1.0 + 1e-13),)).require_complete()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["random", "fig1", "sparse"]),
       st.floats(0.5, 1.5))
def test_completeness_defect_matches_kdagk_sum(seed, kind, scale):
    rng = np.random.default_rng(seed)
    if kind == "random":
        bench = random_bench(rng)
    elif kind == "fig1":
        lengths = [(1, 2), (2, 3), (3, 5)][int(rng.integers(3))]
        bench = build_bench(DepolarizerSettings(rng.uniform(0, 90), rng.uniform(-90, 90), *lengths))
    else:
        structure = sparse_structure(rng, int(rng.integers(6, 9)))
        bench = bench_from(structure, scale_angles(rng, len(structure)))
    kraus = propagate(bench)
    # chi and the K^dag K sum round differently; a sum over n bins may pick up
    # about n units of roundoff, which sets the bound past 1e-15
    bound = 1e-15 + len(kraus) * 2.0 ** -53
    assert abs(kraus.completeness_defect() - reference_completeness_defect(kraus.as_stack())[0]) <= bound
    scaled = KrausSet(kraus.delays, kraus.operators * scale)
    assert abs(scaled.completeness_defect()
               - reference_completeness_defect(scaled.as_stack())[0]) <= 4 * bound


@pytest.mark.parametrize("op", [
    np.full((2, 2), np.nan),
    np.array([[1.0, np.inf], [0.0, 1.0]]),
    np.array([[1.0, 0.0], [-np.inf, 1.0]]),
    np.array([[1.0, complex(0.0, np.nan)], [0.0, 1.0]]),
])
def test_kraus_set_rejects_non_finite_operators(op):
    with pytest.raises(ValueError, match="Kraus operators must be finite"):
        KrausSet((0,), (op,))


def test_nan_defect_rejected_by_every_consumer(monkeypatch):
    # finite operators whose chi (and K^dag K) overflow, to +inf and -inf off
    # the diagonal: their sum is nan, so is the defect, and nan > atol is False
    big = 1e200
    kraus = KrausSet((0, 1), (np.array([[big, big], [0.0, 0.0]]), np.array([[big, -big], [0.0, 0.0]])))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(kraus.completeness_defect())
        assert np.isnan(reference_completeness_defect(kraus.as_stack())[0])
        for call in checked_consumers(kraus, monkeypatch):
            for _ in range(2):
                with pytest.raises(ValueError, match=r"not trace preserving \(defect nan\)"):
                    call()
        with pytest.raises(ValueError, match="trace preserving"):
            _checked_chi(np.full((2, 3, 2, 2), np.nan))


# ---------------------------------------------------------------------------
# byte identity at scale: 64-256 bins, past numpy's 8- and 128-element
# summation blocks, with signed zeros in single-contribution bins
# ---------------------------------------------------------------------------

#: incommensurate lengths: all subset sums differ, so n crystals give 2**n bins
_SPARSE_LENGTHS = tuple(Fraction(p, q) for p, q in (
    (997, 1000), (991, 613), (433, 877), (719, 211), (89, 997), (653, 409), (311, 743), (947, 23)))
#: crystal angles on and between the axes, which put exact and signed zeros in the projectors
_SPECIAL_ANGLES = (0.0, 90.0, -0.0, 45.0, -90.0, 180.0)


def sparse_structure(rng, n_crystals):
    """Per element, a crystal length or a wave-plate kind: a plate after crystals 2, 5 and 8."""
    structure = []
    for i in range(n_crystals):
        structure.append(_SPARSE_LENGTHS[i])
        if i % 3 == 1:
            structure.append("half" if rng.uniform() < 0.5 else "quarter")
    return structure


def scale_angles(rng, size):
    return [_SPECIAL_ANGLES[int(rng.integers(len(_SPECIAL_ANGLES)))] if rng.uniform() < 0.6
            else float(rng.uniform(-180.0, 180.0)) for _ in range(size)]


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("n_crystals", [6, 7, 8])
def test_byte_identity_at_scale(n_crystals, count):
    rng = np.random.default_rng(1000 * n_crystals + count)
    structure = sparse_structure(rng, n_crystals)
    benches = [bench_from(structure, scale_angles(rng, len(structure))) for _ in range(count)]
    delays, ops = propagate_stack(benches)
    assert len(delays) == 2 ** n_crystals and ops.shape == (count, 2 ** n_crystals, 2, 2)
    states = random_states(rng, 3)
    for b, bench in enumerate(benches):
        ref_delays, ref_ops = reference_transfer(bench)
        assert list(delays) == ref_delays
        assert same_bits(ops[b], np.array(ref_ops))
        kraus = propagate(bench)
        kept_delays, kept_ops = reference_propagate(bench)
        assert list(kraus.delays) == kept_delays
        assert same_bits(kraus.as_stack()[0], np.array(kept_ops).reshape(-1, 2, 2))
        for rho in states:
            assert (np.abs(apply_channel(kraus, rho) - reference_channel(ops[b], rho)).max()
                    <= channel_bound(kraus))
        assert np.abs(probability_table(kraus) - reference_probability_table(
            kraus, preparation_states(), analysis_projectors())).max() <= 2e-15


# ---------------------------------------------------------------------------
# chi and the Pauli transfer matrix
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(bench_stacks())
def test_ptm_is_the_channel_on_the_pauli_basis(benches):
    _, ops = propagate_stack(benches)
    chi = _chi_stack(ops)
    r = _ptm_stack(chi)
    # R_ij = Tr(E_i E(E_j)) / 2, straight from the channel outputs
    images = np.array([[reference_channel(bench_ops, e) for e in PAULI_BASIS] for bench_ops in ops])
    direct = np.einsum("ixy,bjyx->bij", np.stack(PAULI_BASIS), images).real / 2
    assert np.abs(r - direct).max() <= 1e-14
    # each bench gets the bits it gets alone
    for b in range(len(benches)):
        assert same_bits(_chi_stack(ops[b:b + 1]), chi[b:b + 1])
        assert same_bits(_ptm_stack(chi[b:b + 1]), r[b:b + 1])
    # every complete Kraus set is trace preserving: R's first row is (1, 0, 0, 0)
    assert np.abs(r[:, 0] - [1.0, 0.0, 0.0, 0.0]).max() <= 1e-12
    # G^-1 G round-trips chi
    back = (np.linalg.inv(_CHI_TO_PTM) @ r.reshape(-1, 16, 1)).reshape(-1, 4, 4)
    assert np.abs(back - chi).max() <= 1e-15


# ---------------------------------------------------------------------------
# the gather-plan and projector caches
# ---------------------------------------------------------------------------

def test_gather_plan_read_only_and_caches_small():
    bench = build_bench(DepolarizerSettings(20.0, 13.0, 2, 3))
    propagate(bench)
    delays, steps = _gather_plan(_structure(bench))
    assert delays == propagate_stack([bench])[0]
    crystal_steps = [step for step in steps if step is not None]
    assert len(crystal_steps) == 4 and len(steps) == len(bench.elements)
    for index in (i for step in crystal_steps for i in step):
        assert not index.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 0
    # one-off benches must not keep much alive: a few dozen entries at most
    assert _gather_plan.cache_info().maxsize <= 64
    assert _projector_pair.cache_info().maxsize <= 64
    pair = _projector_pair(90.0, 1.0)
    assert pair.shape == (2, 2, 2) and not pair.flags.writeable


@pytest.mark.parametrize("benches", [
    [BenchConfig((Waveplate("quarter", 30.0),))],
    [BenchConfig((Crystal(1, 0.0),))],
    [BenchConfig((Crystal(1, a), Waveplate("half", 2 * a), Crystal(2, -a))) for a in (0.0, 10.0, -0.0)],
])
def test_identity_constant_is_read_only_and_never_returned(benches):
    assert not _IDENTITY.flags.writeable
    _, ops = propagate_stack(benches)
    assert ops.shape[0] == len(benches)
    assert not np.shares_memory(ops, _IDENTITY)
    kraus = propagate(benches[0])
    assert not np.shares_memory(kraus.operators, _IDENTITY)
    assert same_bits(_IDENTITY, np.eye(2, dtype=complex).reshape(1, 1, 2, 2))


def test_projector_pair_matches_stacked_outer_products():
    angles = [0.0, -0.0, 90.0, -90.0, 180.0, -180.0, 1e-300, -1e-300]
    angles += np.random.default_rng(5).uniform(-360.0, 360.0, 5000).tolist()
    for angle in angles:
        r = rotation2(angle)
        expected = np.stack([np.outer(r[:, 0], r[:, 0]), np.outer(r[:, 1], r[:, 1])]).astype(complex)
        assert same_bits(_projector_pair.__wrapped__(angle, np.copysign(1.0, angle)), expected)


def test_projector_cache_keeps_signed_zero_angles_apart():
    _projector_pair.cache_clear()
    for angle in (0.0, -0.0, 0.0, -0.0):
        propagate(BenchConfig((Crystal(1, angle),)))
    assert _projector_pair.cache_info().currsize == 2
    assert not same_bits(_projector_pair(0.0, 1.0), _projector_pair(-0.0, -1.0))


def test_bin_cap_raises_before_caching_or_allocating():
    huge = bench_of_lengths(*(2 ** i for i in range(17)))
    _gather_plan.cache_clear()
    _projector_pair.cache_clear()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="delay bins"):
            propagate(huge)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the transfer stack alone would take 2**17 * 64 B = 8 MiB
    assert peak < 64 * 1024
    assert _gather_plan.cache_info().currsize == 0
    assert _projector_pair.cache_info().currsize == 0
