import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polarchan.bench_sim import (
    BenchConfig,
    Waveplate,
    _chi_stack,
    _transfer,
    affine_map,
    apply_channel,
    propagate,
)
from polarchan.channel_analysis import (
    FEASIBILITY_SLACK,
    EllipsoidReport,
    _polar_stack,
    apply_process_matrix,
    chi_eigenvalues,
    chi_from_kraus,
    check_process_matrix,
    isotropy_deviation,
    pauli_feasible,
    polar_decompose,
)
from polarchan.depolarizer import (
    DepolarizerSettings,
    build_bench,
    build_lyot,
    build_two_crystal,
    isotropic_theta1_angles,
)
from polarchan.polar_core import ATOL, EIG_ATOL, PAULI_BASIS, check_density, density_from_stokes

from conftest import (
    random_bench,
    random_physical_stokes,
    reference_polar_decompose,
    restyled_bench,
    same_bits,
)

MAGIC_TWO_CRYSTAL = np.degrees(np.arctan(np.sqrt(2.0)))  # 54.7356 deg


def identity_kraus():
    return propagate(BenchConfig((Waveplate("half", 0.0), Waveplate("half", 0.0))))


def test_chi_identity():
    chi = chi_from_kraus(identity_kraus())
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.abs(chi - expected).max() < 1e-12


def test_chi_complete_depolarizer():
    chi = chi_from_kraus(propagate(build_lyot(1)))
    assert np.abs(chi - np.eye(4) / 4).max() < 1e-12


def test_chi_isotropic_two_thirds():
    bench = build_bench(DepolarizerSettings(isotropic_theta1_angles()[1], 15.0))
    lam = chi_eigenvalues(chi_from_kraus(propagate(bench)))
    assert np.abs(lam - [3 / 4, 1 / 12, 1 / 12, 1 / 12]).max() < 1e-12


def test_chi_reconstruction_matches_channel(rng):
    for _ in range(200):
        kraus = propagate(random_bench(rng))
        chi = check_process_matrix(chi_from_kraus(kraus))
        for _ in range(3):
            rho = density_from_stokes(random_physical_stokes(rng))
            direct = apply_channel(kraus, rho)
            via_chi = apply_process_matrix(chi, rho)
            assert np.abs(direct - via_chi).max() < 1e-12


def test_chi_eigenvalue_contract():
    assert np.allclose(chi_eigenvalues(np.diag([1.0, 0, 0, 0])), [1, 0, 0, 0])
    assert np.allclose(chi_eigenvalues(np.eye(4) / 4), [0.25] * 4)
    lam = chi_eigenvalues(np.diag([0.5, 0.5, -5e-11, 0.0]))
    assert lam.min() == 0.0  # clipped
    assert abs(lam.sum() - 1.0) < 1e-9
    with pytest.raises(ValueError, match="Hermitian"):
        chi_eigenvalues(np.diag([1.0, 0, 0, 0]) + 1e-3 * np.eye(4, k=1))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        chi_eigenvalues(np.diag([1.1, 0, 0, -0.1]))


@pytest.mark.parametrize("chi", [
    np.diag([1.0, 0.0, -0.0, 0.0]),
    np.diag([0.5, 0.5, -5e-11, -1e-300]),
    np.diag([0.25, 0.25, 0.25, 0.25]),
    np.ones((4, 4)) / 4,
])
def test_chi_eigenvalues_clip_bits(chi):
    # the floor at zero is np.clip(vals, 0.0, None), bit for bit, signed zeros included
    vals = np.linalg.eigvalsh(chi.astype(complex))[::-1].astype(float)
    assert same_bits(chi_eigenvalues(chi), np.clip(vals, 0.0, None))


def test_eigenvalue_radii_duality(rng):
    # for axis-aligned channels the spectrum equals the radii lambda formula
    thetas = rng.uniform(0, 45, size=(25, 2))
    for t1, t2 in thetas:
        kraus = propagate(build_bench(DepolarizerSettings(t1, t2)))
        lam_chi = chi_eigenvalues(chi_from_kraus(kraus))
        report = polar_decompose(affine_map(kraus).matrix)
        assert report.axis_aligned
        _, lam_radii = pauli_feasible(*report.radii)
        assert np.abs(np.sort(lam_chi) - np.sort(lam_radii)).max() < 1e-10


def test_polar_decompose_identity():
    report = polar_decompose(np.eye(3))
    assert report.radii == pytest.approx((1.0, 1.0, 1.0))
    assert np.allclose(report.rotation, np.eye(3))
    assert report.det_sign == 1.0
    assert report.reflections == (False, False, False)


def test_polar_decompose_fig1_reflections():
    bench = build_bench(DepolarizerSettings(isotropic_theta1_angles()[1], 15.0))
    report = polar_decompose(affine_map(propagate(bench)).matrix)
    assert report.axis_aligned
    assert np.allclose(report.rotation, np.diag([1.0, -1.0, -1.0]), atol=1e-12)
    assert np.abs(np.abs(report.radii) - 2 / 3).max() < 1e-12
    assert report.reflections == (False, True, True)


def test_polar_decompose_two_crystal_sphere():
    report = polar_decompose(affine_map(propagate(build_two_crystal(MAGIC_TWO_CRYSTAL))).matrix)
    assert not report.axis_aligned
    assert np.abs(np.abs(report.radii) - 1 / 3).max() < 1e-6
    assert np.abs(report.rotation @ report.rotation.T - np.eye(3)).max() < 1e-10


def test_polar_decompose_rank_deficient():
    report = polar_decompose(np.zeros((3, 3)))
    assert report.radii == (0.0, 0.0, 0.0)
    assert report.det_sign == 1.0
    # dephasing-like map
    report = polar_decompose(np.diag([1.0, 0.0, 0.0]))
    assert report.axis_aligned
    assert report.radii == (1.0, 0.0, 0.0)


def random_rotation(seed: int) -> np.ndarray:
    q = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))[0]
    return q * np.sign(np.linalg.det(q))


def test_polar_decompose_rank_deficient_reports_a_proper_rotation():
    # det M < 0, but the smallest singular value is within atol: the weakest
    # direction is flipped to give det(rotation) = +1, so no radius is negative
    m = random_rotation(7) @ np.diag([0.9, 0.5, -1e-11])
    assert np.linalg.det(m) < 0
    report = polar_decompose(m)
    assert not report.axis_aligned
    assert report.det_sign == 1.0 and np.linalg.det(report.rotation) > 0
    assert report.radii == pytest.approx((0.9, 0.5, 1e-11), rel=0.0, abs=1e-15)
    assert report.radii[-1] > 0
    # the zero map is axis-aligned and reported from its diagonal
    report = polar_decompose(np.zeros((3, 3)))
    assert report.axis_aligned and report.det_sign == 1.0
    assert report.radii == (0.0, 0.0, 0.0)
    assert same_bits(report.rotation, np.eye(3))


def report_bytes(report) -> tuple:
    """Every field of an EllipsoidReport, as bytes (so 0.0 and -0.0 differ)."""
    return (np.array(report.radii).tobytes(), report.rotation.dtype, report.rotation.shape,
            report.rotation.tobytes(), np.float64(report.det_sign).tobytes(),
            type(report.det_sign), report.axis_aligned)


_ATOL = 1e-10
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.25, _ATOL, -_ATOL, 1e-300, -1e-300]),
    st.floats(-1.0, 1.0),
)


@st.composite
def diagonal_maps(draw):
    return np.diag([draw(_ENTRIES) for _ in range(3)])


@st.composite
def maps_at_the_threshold(draw):
    # one off-diagonal entry of exactly atol (aligned) or the next float above (not)
    m = np.diag([draw(_ENTRIES) for _ in range(3)])
    i, j = draw(st.sampled_from([(i, j) for i in range(3) for j in range(3) if i != j]))
    value = draw(st.sampled_from([_ATOL, np.nextafter(_ATOL, 1.0)]))
    m[i, j] = value if draw(st.booleans()) else -value
    return m


@st.composite
def rotated_maps(draw):
    # full-rank and rank-deficient stretches, reflections included, between two rotations
    singular = st.one_of(st.sampled_from([0.0, -0.0, 1e-11, -1e-11, _ATOL, -_ATOL]),
                         st.floats(-1.0, 1.0))
    stretch = np.diag([draw(singular) for _ in range(3)])
    left, right = (random_rotation(draw(st.integers(0, 2 ** 32 - 1))) for _ in range(2))
    return left @ stretch @ right if draw(st.booleans()) else left @ stretch


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(diagonal_maps(), maps_at_the_threshold(), rotated_maps(),
                          st.just(np.zeros((3, 3)))), min_size=1, max_size=6))
# one-matrix calls of each kind: aligned with signed zeros, off-axis, rank deficient
# with det(rotation) = -1 (flipped) and with +1 (not flipped)
@example([np.diag([0.5, -0.0, -0.25])])
@example([random_rotation(3) @ np.diag([0.9, -0.5, 0.2])])
@example([random_rotation(7) @ np.diag([0.9, 0.5, -1e-11])])
@example([random_rotation(8) @ np.diag([0.9, 0.0, 0.0])])
def test_polar_decompose_matches_svd_first_reference(maps):
    # the stacked kernel reports each matrix of a mixed stack as polar_decompose
    # reports it alone, and both as the SVD-first reference
    radii, rotation, det_sign, aligned, _ = _polar_stack(np.array(maps))
    for b, m in enumerate(maps):
        # the reference's unused det(M) divides by zero for entries near 1e-300
        with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
            expected = report_bytes(reference_polar_decompose(m))
        assert report_bytes(polar_decompose(m)) == expected
        row = EllipsoidReport(radii[b], rotation[b], float(det_sign[b]), bool(aligned[b]))
        assert report_bytes(row) == expected


@pytest.mark.parametrize("entry", [(0, 0), (1, 2)])
def test_polar_decompose_nan_raises_as_reference(entry):
    m = np.eye(3)
    m[entry] = np.nan
    with pytest.raises(np.linalg.LinAlgError) as expected:
        reference_polar_decompose(m)
    with pytest.raises(type(expected.value)):
        polar_decompose(m)


@pytest.mark.parametrize("entry", [(0, 0), (2, 2), (1, 2)])
@pytest.mark.parametrize("value", [np.inf, -np.inf])
def test_polar_decompose_infinite_map_raises(entry, value):
    # the reference is not called: LAPACK's SVD never returns for an infinite
    # diagonal entry, and gives NaN factors for an infinite off-diagonal one
    m = np.eye(3)
    m[entry] = value
    with pytest.raises(np.linalg.LinAlgError, match="finite"):
        polar_decompose(m)


def test_pauli_feasible_examples():
    ok, lam = pauli_feasible(1, 1, 1)
    assert ok and np.allclose(lam, [1, 0, 0, 0])
    ok, lam = pauli_feasible(1, 1, -1)
    assert not ok
    assert lam[3] == pytest.approx(-0.5)
    ok, lam = pauli_feasible(-1 / 3, -1 / 3, -1 / 3)
    assert ok
    assert np.allclose(lam, [0, 1 / 3, 1 / 3, 1 / 3])


def test_pauli_feasible_at_the_slack_edge():
    # lambda0 = (1 - 1 + 0 - 4s) / 4 is exactly -s: feasible at the slack, not one float past it
    for slack, feasible in ((FEASIBILITY_SLACK, True), (np.nextafter(FEASIBILITY_SLACK, 1.0), False)):
        ok, lam = pauli_feasible(-1.0, 0.0, -4 * slack)
        assert lam[0] == -slack and ok is feasible


def _hermitian_defect(dim, e):
    m = np.diag([1.0] + [0.0] * (dim - 1)).astype(complex)
    m[0, 1] = e
    return m


def _negative_eigenvalue(dim, e):
    return np.diag([1.0 + e, -e] + [0.0] * (dim - 2))


def _chi_eigenvalues_in_stack(chi):
    # the matrix under test between two valid ones, in a (3, 4, 4) stack
    return chi_eigenvalues(np.stack([np.eye(4) / 4, chi, np.diag([1.0, 0.0, 0.0, 0.0])]))[1]


@pytest.mark.parametrize("edge, matrix, message", [
    (ATOL, _hermitian_defect, "is not Hermitian"),
    (EIG_ATOL, _negative_eigenvalue, "has a negative eigenvalue"),
], ids=["hermitian", "eigenvalue"])
@pytest.mark.parametrize("check, dim, what", [
    (check_density, 2, "density matrix"),
    (check_process_matrix, 4, "process matrix"),
    (chi_eigenvalues, 4, "process matrix"),
    (_chi_eigenvalues_in_stack, 4, "process matrix"),
], ids=["check_density", "check_process_matrix", "chi_eigenvalues", "chi_eigenvalues_stack"])
def test_physicality_checks_at_each_threshold_edge(check, dim, what, edge, matrix, message):
    # a Hermiticity defect of exactly ATOL and an eigenvalue of exactly
    # -EIG_ATOL pass; the next float past either fails, with one message per rule
    passed = check(matrix(dim, edge))
    if check in (chi_eigenvalues, _chi_eigenvalues_in_stack):
        assert passed.min() == 0.0  # an eigenvalue of -EIG_ATOL is clipped to 0
    with pytest.raises(ValueError, match=f"^{what} {message}$"):
        check(matrix(dim, np.nextafter(edge, 1.0)))


_RADII = st.one_of(st.sampled_from([-1.0, -1 / 3, 0.0, -0.0, 1 / 3, 0.5, 1.0, 1.0 + 1e-12, -1.0 - 4e-12]),
                   st.floats(-1.5, 1.5, allow_nan=False))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_RADII, _RADII, _RADII), min_size=1, max_size=40))
def test_pauli_feasible_arrays_match_scalar_calls(points):
    r1, r2, r3 = (np.array(column) for column in zip(*points))
    feasible, lam = pauli_feasible(r1, r2, r3)
    assert feasible.shape == (len(points),) and lam.shape == (len(points), 4)
    for i, point in enumerate(points):
        ok, expected = pauli_feasible(*point)
        assert isinstance(ok, bool)
        assert feasible[i] == ok
        assert np.array_equal(lam[i], expected)
    grid_ok, grid_lam = pauli_feasible(r1[:, None], r2[None, :], r2[None, :])
    assert grid_ok.shape == (len(points), len(points))
    assert np.array_equal(grid_lam[:, 0], pauli_feasible(r1, r2[0], r2[0])[1])


def test_feasibility_closure_random_benches(rng):
    for _ in range(300):
        kraus = propagate(random_bench(rng))
        report = polar_decompose(affine_map(kraus).matrix)
        ok, _ = pauli_feasible(*report.radii)
        assert ok


def test_isotropy_deviation_examples():
    assert isotropy_deviation(np.eye(4) / 4) == 0.0
    chi_id = np.zeros((4, 4))
    chi_id[0, 0] = 1.0
    assert isotropy_deviation(chi_id) == 0.0


def test_isotropy_line_both_roots():
    for root in isotropic_theta1_angles():
        for theta2 in np.arange(0.0, 45.1, 3.0):
            chi = chi_from_kraus(propagate(build_bench(DepolarizerSettings(root, theta2))))
            assert isotropy_deviation(chi) <= 1e-10


def test_isotropy_deviation_detects_anisotropy():
    chi = chi_from_kraus(propagate(build_two_crystal(20.0)))
    assert isotropy_deviation(chi) > 0.01
    # the magic angle is the exception
    chi = chi_from_kraus(propagate(build_two_crystal(MAGIC_TWO_CRYSTAL)))
    assert isotropy_deviation(chi) <= 1e-10


def reference_chi_stack(ops):
    """Four separate trace products, one per basis operator, then stacked."""
    coeffs = np.stack(
        [np.trace(em @ ops, axis1=-2, axis2=-1) / 2.0 for em in PAULI_BASIS], axis=-1
    )
    return coeffs.swapaxes(-1, -2) @ coeffs.conj()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
def test_chi_stack_matches_four_trace_expansion(seed, n_benches):
    rng = np.random.default_rng(seed)
    first = random_bench(rng)
    benches = [first] + [restyled_bench(rng, first) for _ in range(n_benches - 1)]
    ops = np.concatenate([_transfer(bench)[1] for bench in benches])
    assert same_bits(_chi_stack(ops), reference_chi_stack(ops))
    kraus = propagate(first)
    assert same_bits(chi_from_kraus(kraus), reference_chi_stack(kraus.as_stack())[0])


@pytest.mark.parametrize("chi", [
    np.full((4, 4), np.nan),
    np.diag([np.nan, 0.0, 0.0, 1.0]),
    np.diag([np.inf, 0.0, 0.0, 1.0]),
])
def test_check_process_matrix_rejects_non_finite_input(chi):
    with pytest.raises(ValueError, match="process matrix must be finite"):
        check_process_matrix(chi)


@pytest.mark.parametrize("chi", [
    np.diag([np.nan, 0.0, 0.0, 1.0]),  # passed the Hermitian test as the spectrum [1, 0, 0, 0]
    np.full((4, 4), np.nan),  # reached eigvalsh and raised LinAlgError
    np.eye(3),  # gave the spectrum [1, 1, 1]
    np.eye(2),  # isotropy_deviation raised IndexError
])
def test_chi_eigenvalues_rejects_non_finite_input(chi):
    message = ("process matrix must be finite" if chi.shape == (4, 4)
               else f"process matrix must be 4x4, got shape {chi.shape}")
    with pytest.raises(ValueError, match=re.escape(message)):
        chi_eigenvalues(chi)
    with pytest.raises(ValueError, match=re.escape(message)):
        isotropy_deviation(chi)


def test_isotropy_deviation_reads_one_process_matrix():
    # chi_eigenvalues takes a stack, but the deviation reads one spectrum
    with pytest.raises(ValueError, match=re.escape("process matrix must be 4x4, got shape (2, 4, 4)")):
        isotropy_deviation(np.stack([np.eye(4) / 4] * 2))


@pytest.mark.parametrize("m", [np.eye(2), np.eye(3).ravel(), np.eye(3)[None]],
                         ids=["2x2", "flat", "stack"])
def test_polar_decompose_reads_one_stokes_matrix(m):
    # a 2x2 raised numpy's reshape error, and a flat 9-vector or a one-matrix stack was reshaped
    with pytest.raises(ValueError, match=re.escape(f"Stokes matrix must be 3x3, got shape {m.shape}")):
        polar_decompose(m)
