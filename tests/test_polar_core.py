import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarchan.polar_core import (
    ATOL,
    EIG_ATOL,
    KET_H,
    KET_L,
    KET_M,
    KET_P,
    KET_R,
    KET_V,
    PAULI_BASIS,
    PAULI_STACK,
    STOKES_SLACK,
    StokesVector,
    check_density,
    degree_of_polarization,
    density_from_stokes,
    fidelity,
    ket_projector,
    stokes_from_density,
    waveplate_jones,
)

from conftest import random_physical_stokes

I2 = np.eye(2)


def test_density_from_stokes_examples():
    assert np.allclose(density_from_stokes((0, 0, 0)), I2 / 2, atol=1e-15)
    assert np.allclose(density_from_stokes((1, 0, 0)), ket_projector(KET_H), atol=1e-15)
    assert np.allclose(density_from_stokes((0, 0, 1)), ket_projector(KET_R), atol=1e-15)


def test_check_density_at_each_threshold_edge():
    # a Hermiticity defect of exactly ATOL and an eigenvalue of exactly
    # -EIG_ATOL pass; the next float past either fails
    cases = ((ATOL, lambda e: np.array([[0.5, e], [0.0, 0.5]]), "not Hermitian"),
             (EIG_ATOL, lambda e: np.diag([1.0 + e, -e]), "negative eigenvalue"))
    for edge, matrix, message in cases:
        check_density(matrix(edge))
        with pytest.raises(ValueError, match=message):
            check_density(matrix(np.nextafter(edge, 1.0)))


def test_density_rejects_unphysical_length():
    with pytest.raises(ValueError, match="unphysical"):
        density_from_stokes((1.0, 1e-4, 0.0))
    # within numerical slack is accepted: a length of exactly 1 + STOKES_SLACK
    # passes, and the next float past it fails
    density_from_stokes((1.0 + 1e-10, 0.0, 0.0))
    edge = 1.0 + STOKES_SLACK
    density_from_stokes((edge, 0.0, 0.0))
    with pytest.raises(ValueError, match="unphysical"):
        density_from_stokes((np.nextafter(edge, 2.0), 0.0, 0.0))


def test_stokes_from_density_examples():
    assert stokes_from_density(I2 / 2).as_array() == pytest.approx([0, 0, 0], abs=1e-15)
    assert stokes_from_density(ket_projector(KET_P)).as_array() == pytest.approx(
        [0, 1, 0], abs=1e-15
    )
    assert stokes_from_density(ket_projector(KET_V)).as_array() == pytest.approx(
        [-1, 0, 0], abs=1e-15
    )


def test_degree_of_polarization_examples():
    assert degree_of_polarization((0, 0, 0)) == 0.0
    assert degree_of_polarization((1, 0, 0)) == 1.0
    assert degree_of_polarization((1 / 3, 0, 0)) == pytest.approx(1 / 3, abs=1e-15)
    assert degree_of_polarization(StokesVector(0.6, 0.0, 0.8)) == pytest.approx(1.0)


def test_pauli_convention():
    # eigenstate assignments pin the basis to the Stokes axes
    for ket, (idx, sign) in [
        (KET_H, (1, +1)), (KET_V, (1, -1)),
        (KET_P, (2, +1)), (KET_M, (2, -1)),
        (KET_R, (3, +1)), (KET_L, (3, -1)),
    ]:
        val = ket.conj() @ PAULI_BASIS[idx] @ ket
        assert val.real == pytest.approx(sign, abs=1e-15)
    # orthonormality and anticommutation
    for i in range(4):
        for j in range(4):
            tr = np.trace(PAULI_BASIS[i] @ PAULI_BASIS[j])
            assert tr == pytest.approx(2.0 if i == j else 0.0, abs=1e-15)
            if i >= 1 and j >= 1:
                anti = PAULI_BASIS[i] @ PAULI_BASIS[j] + PAULI_BASIS[j] @ PAULI_BASIS[i]
                assert np.allclose(anti, (2.0 if i == j else 0.0) * I2, atol=1e-15)
    # one read-only array: the tuple holds its views, and E3's -1j has a real part of -0.0
    for view, row in zip(PAULI_BASIS, PAULI_STACK):
        assert view.base is PAULI_STACK and not view.flags.writeable and view.tobytes() == row.tobytes()
    assert not PAULI_STACK.flags.writeable
    assert np.signbit(PAULI_STACK.real).tolist() == [[[False] * 2] * 2, [[False, False], [False, True]],
                                                      [[False] * 2] * 2, [[False, True], [False, False]]]


def test_round_trip_random_states(rng):
    for _ in range(1000):
        s = random_physical_stokes(rng)
        back = stokes_from_density(density_from_stokes(s)).as_array()
        assert np.abs(back - s).max() < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[st.floats(-1, 1) for _ in range(3)]).filter(lambda v: np.linalg.norm(v) <= 1))
def test_round_trip_property(s):
    back = stokes_from_density(density_from_stokes(s)).as_array()
    assert np.abs(back - np.asarray(s)).max() < 1e-12


def test_purity_matches_dop(rng):
    for _ in range(1000):
        s = random_physical_stokes(rng)
        rho = density_from_stokes(s)
        purity = np.trace(rho @ rho).real
        d = degree_of_polarization(s)
        assert purity == pytest.approx((1 + d**2) / 2, abs=1e-12)


def test_half_wave_plate_examples():
    hwp0 = waveplate_jones("half", 0.0)
    assert np.allclose(hwp0, np.diag([1.0, -1.0]), atol=1e-15)
    assert np.allclose(hwp0 @ KET_V, -KET_V, atol=1e-15)
    out = waveplate_jones("half", 22.5) @ KET_H
    assert abs(abs(out.conj() @ KET_P) - 1.0) < 1e-12


def test_quarter_wave_plate_circular():
    out = waveplate_jones("quarter", 45.0) @ KET_H
    rho = ket_projector(out)
    s = stokes_from_density(rho).as_array()
    assert abs(abs(s[2]) - 1.0) < 1e-12
    assert np.abs(s[:2]).max() < 1e-12


def test_waveplates_unitary_and_involutive():
    for angle in np.arange(0.0, 180.0, 1.0):
        for kind in ("half", "quarter"):
            u = waveplate_jones(kind, angle)
            assert np.abs(u.conj().T @ u - I2).max() < 1e-12
        h = waveplate_jones("half", angle)
        assert np.abs(h @ h - I2).max() < 1e-12  # exact involution, no phase


def test_waveplate_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        waveplate_jones("third", 0.0)


def test_global_phase_invisible(rng):
    # observables never see a global Jones phase
    u = waveplate_jones("quarter", 33.0)
    for _ in range(20):
        s = random_physical_stokes(rng)
        rho = density_from_stokes(s)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        out1 = u @ rho @ u.conj().T
        up = phase * u
        out2 = up @ rho @ up.conj().T
        assert np.abs(out1 - out2).max() < 1e-12


def test_fidelity_examples(rng):
    rho_h = ket_projector(KET_H)
    assert fidelity(rho_h, rho_h) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(rho_h, ket_projector(KET_V)) == pytest.approx(0.0, abs=1e-12)
    assert fidelity(rho_h, I2 / 2) == pytest.approx(0.5, abs=1e-12)
    for _ in range(50):
        a = density_from_stokes(random_physical_stokes(rng))
        b = density_from_stokes(random_physical_stokes(rng))
        f = fidelity(a, b)
        assert 0.0 <= f <= 1.0
        assert f == pytest.approx(fidelity(b, a), abs=1e-12)
        assert fidelity(a, a) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("rho", [
    np.full((2, 2), np.nan),
    [[np.nan, 0.0], [0.0, 1.0]],
    [[0.5, complex(0.0, np.nan)], [0.0, 0.5]],
    [[np.inf, 0.0], [0.0, -np.inf]],
])
def test_physicality_checks_reject_non_finite_states(rho):
    for call in (check_density, stokes_from_density, lambda r: fidelity(r, I2 / 2)):
        with pytest.raises(ValueError, match="density matrix must be finite"):
            call(rho)
    with pytest.raises(ValueError, match="Stokes vector must be finite"):
        density_from_stokes([np.nan, 0.0, 0.0])
