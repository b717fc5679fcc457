"""Polarization-qubit depolarizing channels from birefringent crystals.

Simulates optical benches of crystals and wave plates as exact
temporal-mode channels, analyzes them (process matrix, Poincare ellipsoid,
physicality), provides the closed-form depolarizer models, and reproduces
the full photon-counting tomography pipeline with Poisson statistics.
"""

from .polar_core import (
    PAULI_BASIS,
    StokesVector,
    degree_of_polarization,
    density_from_stokes,
    fidelity,
    stokes_from_density,
    waveplate_jones,
)
from .bench_sim import (
    AffineMap,
    BenchConfig,
    Crystal,
    KrausSet,
    Waveplate,
    affine_map,
    apply_channel,
    delay_bin_bound,
    normalize_delays,
    propagate,
)
from .channel_analysis import (
    EllipsoidReport,
    chi_eigenvalues,
    chi_from_kraus,
    isotropy_deviation,
    pauli_feasible,
    polar_decompose,
)
from .depolarizer import (
    DepolarizerSettings,
    build_bench,
    build_bench_rotated_crystals,
    build_lyot,
    build_two_crystal,
    dop_isotropic,
    isotropic_theta1_angles,
    radii_closed_form,
    reachable_region_scan,
)
from .tomography import (
    CountRecord,
    TomoSettings,
    expected_probability,
    qpt_mle,
    qst_linear,
    qst_mle,
    simulate_counts,
)

__version__ = "0.1.0"
