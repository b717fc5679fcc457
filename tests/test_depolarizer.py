from fractions import Fraction

import numpy as np
import pytest

from polarchan.bench_sim import BenchConfig, Crystal, Waveplate, affine_map, apply_channel, propagate
from polarchan.channel_analysis import pauli_feasible, polar_decompose
from polarchan.depolarizer import (
    REFLECTION_COMPENSATION,
    _radii_grid,
    DegenerateLengthRatioWarning,
    DepolarizerSettings,
    build_bench,
    build_bench_rotated_crystals,
    build_lyot,
    build_two_crystal,
    dop_isotropic,
    in_reachable_region,
    isotropic_theta1_angles,
    radii_closed_form,
    reachable_region_scan,
    simulated_radii,
)
from polarchan.polar_core import KET_H, density_from_stokes, ket_projector, stokes_from_density

from conftest import random_physical_stokes, same_bits

THETA_ISO_LOW, THETA_ISO_HIGH = isotropic_theta1_angles()
MAGIC_TWO_CRYSTAL = np.degrees(np.arctan(np.sqrt(2.0)))


@pytest.mark.parametrize("grid_n", [1, 2, 46, 101])
def test_radii_grid_matches_scalar_closed_form(grid_n):
    # the region grid is, cell by cell, one scalar closed-form call, whatever its size
    angles = np.linspace(0.0, 45.0, grid_n).tolist()
    r1, r2 = _radii_grid(angles)
    scalar = np.array([[radii_closed_form(t1, t2)[:2] for t2 in angles] for t1 in angles])
    assert same_bits(r1, scalar[..., 0]) and same_bits(r2, scalar[..., 1])


def test_radii_closed_form_examples():
    for theta1 in (0.0, 10.0, 31.32, 45.0):
        assert np.allclose(radii_closed_form(theta1, 0.0), (1.0, 1.0, 1.0), atol=1e-15)
    r1, r2, r3 = radii_closed_form(0.0, MAGIC_TWO_CRYSTAL / 2)
    assert r1 == pytest.approx(-1 / 3, abs=1e-12)
    assert r2 == pytest.approx(1 / 3, abs=1e-12)
    assert r3 == r2
    # near-complete depolarization at the rounded angle (the 0.004 deg
    # rounding leaves a ~2e-4 residual), exact at the root
    assert np.abs(radii_closed_form(31.32, 30.0)).max() < 5e-4
    assert np.abs(radii_closed_form(THETA_ISO_HIGH, 30.0)).max() < 1e-12


def test_dop_isotropic_examples():
    assert dop_isotropic(0.0) == pytest.approx(1.0)
    assert dop_isotropic(15.0) == pytest.approx(2 / 3, abs=1e-12)
    assert round(float(dop_isotropic(4.0)), 2) == 0.97
    assert dop_isotropic(45.0) == pytest.approx(-1 / 3, abs=1e-12)


def test_isotropic_angles():
    low, high = isotropic_theta1_angles()
    assert 4 * np.deg2rad(low) == pytest.approx(np.arctan(np.sqrt(2.0)), abs=1e-14)
    assert low + high == pytest.approx(45.0, abs=1e-12)
    assert np.cos(4 * np.deg2rad(low)) ** 2 == pytest.approx(1 / 3, abs=1e-14)
    # quoted at two decimals these are the familiar 13.68 / 31.32
    assert round(low, 2) == 13.68
    assert round(high, 2) == 31.32
    for root in (low, high):
        for theta2 in np.arange(0.0, 45.5, 0.5):
            r1, r2, r3 = radii_closed_form(root, theta2)
            assert abs(r1 - r2) < 1e-12 and abs(r2 - r3) < 1e-12
            assert r1 == pytest.approx(dop_isotropic(theta2), abs=1e-12)


def test_build_bench_structure():
    settings = DepolarizerSettings(THETA_ISO_HIGH, 15.0, 1, 2)
    bench = build_bench(settings)
    assert len(bench.elements) == 7
    kinds = [type(el).__name__ for el in bench.elements]
    assert kinds == ["Crystal", "Waveplate", "Crystal", "Waveplate", "Crystal", "Waveplate", "Crystal"]
    crystals = [el for el in bench.elements if isinstance(el, Crystal)]
    assert [int(c.length) for c in crystals] == [1, 2, 2, 1]
    assert [c.fast_axis_deg for c in crystals] == [0.0, 90.0, 0.0, 90.0]
    plates = [el for el in bench.elements if isinstance(el, Waveplate)]
    assert [p.angle_deg for p in plates] == [settings.theta1_deg, 15.0, -settings.theta1_deg]


def test_build_bench_isotropic_point(rng):
    bench = build_bench(DepolarizerSettings(THETA_ISO_HIGH, 15.0, 1, 2))
    kraus = propagate(bench)
    for _ in range(20):
        s = random_physical_stokes(rng)
        s /= max(np.linalg.norm(s), 1e-9)  # pure input
        out = apply_channel(kraus, density_from_stokes(s))
        d = np.linalg.norm(stokes_from_density(out).as_array())
        assert d == pytest.approx(2 / 3, abs=1e-12)


def test_build_bench_identity_and_two_crystal_line():
    assert np.abs(simulated_radii(build_bench(DepolarizerSettings(17.0, 0.0))) - 1.0).max() < 1e-12
    for theta2 in (5.0, 12.0, 27.0, 40.0):
        radii = simulated_radii(build_bench(DepolarizerSettings(0.0, theta2)))
        t2 = np.deg2rad(theta2)
        assert radii[0] == pytest.approx(np.cos(4 * t2), abs=1e-12)
        assert radii[1] == pytest.approx(np.cos(2 * t2) ** 2, abs=1e-12)
        assert radii[2] == pytest.approx(radii[1], abs=1e-12)


def test_degenerate_ratio_warning():
    with pytest.warns(DegenerateLengthRatioWarning):
        build_bench(DepolarizerSettings(10.0, 10.0, 1, 1))
    with pytest.warns(DegenerateLengthRatioWarning):
        build_bench(DepolarizerSettings(10.0, 10.0, 2, 1))
    assert DepolarizerSettings(0, 0, 2, 3).is_degenerate_ratio is False
    assert DepolarizerSettings(0, 0, Fraction(3), Fraction(3, 2)).is_degenerate_ratio is True


def test_oracle_equivalence_coarse_grid():
    # full 1-degree grid runs in the acceptance suite
    for theta1 in np.arange(0.0, 46.0, 5.0):
        for theta2 in np.arange(0.0, 46.0, 5.0):
            sim = simulated_radii(build_bench(DepolarizerSettings(theta1, theta2)))
            assert np.abs(sim - radii_closed_form(theta1, theta2)).max() < 1e-10


def test_length_ratio_robustness_coarse():
    import warnings

    grid = [(t1, t2) for t1 in np.arange(0.0, 46.0, 9.0) for t2 in np.arange(0.0, 46.0, 9.0)]

    def worst_dev(l1, l2):
        worst = 0.0
        for t1, t2 in grid:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegenerateLengthRatioWarning)
                bench = build_bench(DepolarizerSettings(t1, t2, l1, l2))
            m = REFLECTION_COMPENSATION @ affine_map(propagate(bench)).matrix
            worst = max(worst, np.abs(m - np.diag(radii_closed_form(t1, t2))).max())
        return worst

    assert worst_dev(1, 3) < 1e-10
    assert worst_dev(2, 3) < 1e-10
    assert worst_dev(1, 1) > 0.01
    assert worst_dev(2, 1) > 0.01


def test_mirrored_lengths_required_for_identity():
    # lengths (1, 2, 2, 2) break the L1 = L4 symmetry: no first-plate angle
    # recovers the do-nothing setting at theta2 = 0
    for theta1 in np.arange(0.0, 45.5, 1.0):
        bench = BenchConfig(
            (
                Crystal(1, 0.0),
                Waveplate("half", theta1),
                Crystal(2, 90.0),
                Waveplate("half", 0.0),
                Crystal(2, 0.0),
                Waveplate("half", -theta1),
                Crystal(2, 90.0),
            )
        )
        singular = np.linalg.svd(affine_map(propagate(bench)).matrix, compute_uv=False)
        assert singular.min() < 0.99


def test_rotated_crystals_examples(rng):
    report = polar_decompose(affine_map(propagate(build_bench_rotated_crystals(0.0))).matrix)
    assert np.abs(np.abs(report.radii) - 1.0).max() < 1e-10

    report = polar_decompose(affine_map(propagate(build_bench_rotated_crystals(60.0))).matrix)
    assert np.abs(report.radii).max() < 1e-10

    kraus = propagate(build_bench_rotated_crystals(30.0))
    for _ in range(10):
        s = random_physical_stokes(rng)
        s /= max(np.linalg.norm(s), 1e-9)
        out = apply_channel(kraus, density_from_stokes(s))
        assert np.linalg.norm(stokes_from_density(out).as_array()) == pytest.approx(2 / 3, abs=1e-10)


def test_lyot_examples():
    assert np.abs(affine_map(propagate(build_lyot(1))).matrix).max() < 1e-12
    out = apply_channel(propagate(build_lyot(1)), ket_projector(KET_H))
    assert np.linalg.norm(stokes_from_density(out).as_array()) < 1e-12
    m1 = affine_map(propagate(build_lyot(1))).matrix
    m3 = affine_map(propagate(build_lyot(3))).matrix
    assert np.abs(m1 - m3).max() < 1e-12


def test_two_crystal_examples():
    magic = polar_decompose(affine_map(propagate(build_two_crystal(MAGIC_TWO_CRYSTAL))).matrix)
    assert np.abs(np.abs(magic.radii) - 1 / 3).max() < 1e-6

    ident = affine_map(propagate(build_two_crystal(0.0)))
    assert np.abs(ident.matrix - np.eye(3)).max() < 1e-12

    twenty = polar_decompose(affine_map(propagate(build_two_crystal(20.0))).matrix)
    assert np.abs(np.abs(twenty.radii) - np.abs(twenty.radii)[0]).max() > 0.01  # not a sphere


@pytest.mark.parametrize("grid_n", [2, 46, 76, 109, 451])
def test_region_scan_is_the_region_grid(grid_n):
    # the scan and `polarchan region` read one grid, so their values agree bit for bit
    r1, r2 = _radii_grid(np.linspace(0.0, 45.0, grid_n).tolist())
    points = reachable_region_scan(grid_n)
    assert same_bits(points, np.column_stack([r1.ravel(), r2.ravel()]))


def test_region_scan_properties():
    points = reachable_region_scan(61)
    assert points.shape == (61 * 61, 2)
    # identity corner and isotropic endpoint present
    assert np.min(np.linalg.norm(points - [1.0, 1.0], axis=1)) < 1e-12
    assert np.min(np.linalg.norm(points - [-1 / 3, -1 / 3], axis=1)) < 0.02
    for r1, r2 in points[::17]:
        ok, _ = pauli_feasible(r1, r2, r2)
        assert ok
        assert in_reachable_region(r1, r2)
    with pytest.raises(ValueError):
        reachable_region_scan(1)


def test_reachable_region_rule():
    assert in_reachable_region(1.0, 1.0)
    assert in_reachable_region(-1 / 3, -1 / 3)
    assert in_reachable_region(0.0, 0.0)
    # the dephasing line R1 = 1 touches the region only at R2 = 1
    for r2 in np.arange(-1.0, 1.0, 0.05):
        assert not in_reachable_region(1.0, r2)
    assert in_reachable_region(1.0, 1.0)
    # scan points all satisfy the closed-form rule
    points = reachable_region_scan(101)
    assert np.all(in_reachable_region(points[:, 0], points[:, 1]))
