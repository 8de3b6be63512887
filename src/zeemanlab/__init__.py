"""Finite-N laboratory for Zeeman eigenvalue clusters of the hydrogen atom.

Computes shell-projected cluster spectra, coherent-state moments,
regularized Kepler geometry, and the three equivalent limit measures of
the scaled eigenvalue shifts, with quantified finite-N convergence.
"""

from .classical_kepler import (
    CoherentIndex,
    OrbitElements,
    PhasePoint,
    SpherePoint,
    integrate_kepler,
    kepler_constants,
    moser_forward,
    moser_inverse,
    orbit_point_from_elements,
    sample_coherent_index,
    sphere_point_of_index,
    symplectic_check,
)
from .coherent_states import (
    QuadratureSpec,
    expectation_L3_power,
    moment_convergence_table,
    momentum_norm_check,
    normalization_sq,
    resolution_of_identity_check,
    s3_quadrature,
)
from .hydrogenic_shell import (
    ScalingSchedule,
    ShellMatrix,
    ShellState,
    enumerate_shell,
    multishell_band_matrix,
    radial_integral_r2,
    shell_matrix_L3,
    shell_matrix_rho2,
    shell_matrix_W,
)
from .spectral_cluster import (
    ClusterSpectrum,
    EmpiricalMeasure,
    cluster_eigenvalues,
    ks_distance,
    scaled_shift_measure,
    subcluster_assignment,
    trace_average,
    triangular_shift_cdf,
)
from .szego_measures import (
    TestFunction,
    haar_density_normalization,
    limit_angle_density,
    limit_quadric_mc,
    limit_triangular,
    liouville_pushforward_check,
)

__version__ = "0.1.0"
