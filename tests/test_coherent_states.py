"""Sphere quadrature, state normalization, moments, and completeness."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from zeemanlab.classical_kepler import (
    CoherentIndex,
    _wedge,
    sample_coherent_index,
    sample_index_batch,
)
from zeemanlab.coherent_states import (
    QuadratureSpec,
    SPHERE_AREA,
    _binomial_pmf,
    _identity_estimate,
    _l3_law,
    _product_states,
    expectation_L3_power,
    moment_convergence_table,
    normalization_sq,
    resolution_of_identity_check,
    s3_quadrature,
    sphere_grid,
)

from reference import (
    BasisConstructionError,
    QuadratureAccuracyError,
    coherent_state_values,
    exactness_degree,
    grid_identity_estimate,
    harmonic_basis,
    index_kepler_vectors,
)

AXIS_INDEX = CoherentIndex(a_vec=[1.0, 0, 0, 0], b_vec=[0, 1.0, 0, 0])
# eigenstate of the axial angular momentum with eigenvalue -N
EIGEN_INDEX = CoherentIndex(a_vec=[1.0, 0, 0, 0], b_vec=[0, -1.0, 0, 0])
# fixed pair with ell3 exactly 1/2
HALF_INDEX = CoherentIndex(
    a_vec=[1.0, 0, 0, 0], b_vec=[0, 0.5, np.sqrt(3.0) / 2.0, 0]
)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_quadrature_volume():
    spec = QuadratureSpec(10, 10, 20)
    value = s3_quadrature(lambda om: np.ones(om.shape[0]), spec)
    assert value.real == pytest.approx(SPHERE_AREA, abs=1e-12)
    assert sphere_grid(spec).weights.sum() == pytest.approx(SPHERE_AREA, abs=1e-10)


def test_function_sample_weights_invariant():
    spec = QuadratureSpec(6, 6, 12)
    assert sphere_grid(spec).weights.sum() == pytest.approx(SPHERE_AREA, abs=1e-10)
    assert s3_quadrature(lambda om: om[:, 0] ** 2, spec).real == pytest.approx(
        SPHERE_AREA / 4.0, abs=1e-12
    )


def test_quadrature_odd_component_vanishes():
    spec = QuadratureSpec(10, 10, 20)
    assert abs(s3_quadrature(lambda om: om[:, 3], spec)) <= 1e-12
    assert abs(s3_quadrature(lambda om: om[:, 0], spec)) <= 1e-12


def test_quadrature_power_closed_form():
    N = 10
    spec = QuadratureSpec.for_state(N)
    alpha = AXIS_INDEX.alpha
    value = s3_quadrature(lambda om: np.abs(om @ alpha) ** (2 * N), spec)
    assert value.real == pytest.approx(SPHERE_AREA / (N + 1), rel=1e-10)


def test_quadrature_exactness_reported():
    spec = QuadratureSpec(6, 6, 14)
    assert exactness_degree(spec) == min(11, 11, 13)


def test_quadrature_exact_up_to_reported_degree():
    spec = QuadratureSpec(5, 5, 10)
    fine = QuadratureSpec(12, 12, 26)
    rng = np.random.default_rng(77)
    for _ in range(5):
        exps = rng.integers(0, 3, size=4)
        while exps.sum() > exactness_degree(spec):
            exps = rng.integers(0, 3, size=4)

        def mono(om, e=exps):
            return om[:, 0] ** e[0] * om[:, 1] ** e[1] * om[:, 2] ** e[2] * om[:, 3] ** e[3]

        coarse_val = s3_quadrature(mono, spec)
        fine_val = s3_quadrature(mono, fine)
        assert coarse_val.real == pytest.approx(fine_val.real, abs=1e-13)


# ---------------------------------------------------------------------------
# normalization constant
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N", [0, 1, 2, 5, 16, 33, 64])
def test_normalization_closed_form_vs_quadrature(N):
    spec = QuadratureSpec.for_state(N)
    alpha = AXIS_INDEX.alpha
    integral = s3_quadrature(lambda om: np.abs(om @ alpha) ** (2 * N), spec).real
    assert normalization_sq(N) == pytest.approx(1.0 / integral, rel=1e-10)


def test_normalization_smallest_shells():
    assert normalization_sq(0) == pytest.approx(1.0 / (2.0 * np.pi**2), rel=1e-15, abs=0)
    assert normalization_sq(1) == pytest.approx(1.0 / np.pi**2, rel=1e-15, abs=0)


def test_normalization_asymptotic_ratio():
    for N in (50, 64, 128):
        ratio = normalization_sq(N) * SPHERE_AREA / N
        assert abs(ratio - 1.0) <= 2.0 / N


def test_state_norm_on_grid():
    rng = np.random.default_rng(2)
    for N in (0, 3, 17, 64):
        index = sample_coherent_index(rng)
        grid = sphere_grid(QuadratureSpec.for_state(N))
        values = coherent_state_values(index, N, grid)
        norm = grid.integrate(np.abs(values) ** 2).real
        assert norm == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# moments of the axial angular momentum
# ---------------------------------------------------------------------------


def test_moment_power_zero_is_one():
    assert expectation_L3_power(HALF_INDEX, 7, 0, B=1.3) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("N", [1, 4, 16, 40])
def test_eigenstate_first_moment_closed_form(N):
    B = 1.0
    b_tilde = -B / 2.0
    got = expectation_L3_power(EIGEN_INDEX, N, 1, B)
    assert got == pytest.approx(-b_tilde * N / (N + 1), abs=1e-10)


@pytest.mark.parametrize("N", [1, 4, 16])
def test_eigenstate_second_moment_closed_form(N):
    B = 1.0
    b_tilde = -B / 2.0
    got = expectation_L3_power(EIGEN_INDEX, N, 2, B)
    assert got == pytest.approx(b_tilde**2 * N**2 / (N + 1) ** 2, abs=1e-10)


def test_moment_spectral_bound():
    rng = np.random.default_rng(4)
    B = 2.0
    for N, m in ((4, 1), (8, 2), (16, 3)):
        index = sample_coherent_index(rng)
        bound = ((B / 2.0) * N / (N + 1)) ** m
        assert abs(expectation_L3_power(index, N, m, B)) <= bound + 1e-10


# ---------------------------------------------------------------------------
# exact law of the axial angular momentum
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("N", [0, 1, 7, 40, 300])
def test_l3_law_sums_to_one_with_mean_N_ell3(N):
    rng = np.random.default_rng(21)
    for index in (HALF_INDEX, sample_coherent_index(rng), sample_coherent_index(rng)):
        law = _l3_law(index, N)
        assert law.shape == (2 * N + 1,)
        assert np.all(law >= 0.0)
        assert law.sum() == pytest.approx(1.0, abs=1e-14)
        mean = law @ np.arange(-N, N + 1)
        assert mean == pytest.approx(N * index.ell3, abs=1e-12 * max(N, 1))


@pytest.mark.parametrize("N", [0, 1, 16, 500])
def test_l3_law_eigenstates_are_point_masses(N):
    # c1 = c2 = -1 puts all mass on -N; the opposite orientation on +N
    flipped = CoherentIndex(a_vec=[1.0, 0, 0, 0], b_vec=[0, 1.0, 0, 0])
    for index, where in ((EIGEN_INDEX, 0), (flipped, 2 * N)):
        law = _l3_law(index, N)
        assert not np.any(np.isnan(law))
        expected = np.zeros(2 * N + 1)
        expected[where] = 1.0
        assert np.array_equal(law, expected)


def test_l3_law_large_shell_has_no_overflow():
    N = 2000
    index = sample_coherent_index(np.random.default_rng(3))
    law = _l3_law(index, N)
    assert np.all(np.isfinite(law))
    assert law.sum() == pytest.approx(1.0, abs=1e-13)
    assert law @ np.arange(-N, N + 1) == pytest.approx(N * index.ell3, abs=1e-9)
    # second moment from the binomial variances, u3, v3 = ell3 +- A3
    rl3 = _wedge(index.a_vec, index.b_vec, 2, 3)
    var = sum(N * (1 - c * c) / 4.0 for c in (index.ell3 + rl3, index.ell3 - rl3))
    expected = (0.5 / (N + 1)) ** 2 * (var + (N * index.ell3) ** 2)
    assert expectation_L3_power(index, N, 2, 1.0) == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("N", [3, 8, 17])
def test_l3_law_matches_rotation_characteristic_function(N):
    """exp(-i theta L3) rotates (omega_1, omega_2), so on the S^3 grid
    a_N^2 int conj(u)^N (alpha . R_theta omega)^N = sum_k P(L3 = k) exp(-i theta k),
    which pins the whole law without the binomial derivation."""
    rng = np.random.default_rng(100 + N)
    grid = sphere_grid(QuadratureSpec.for_state(N))
    omega = grid.omega
    k = np.arange(-N, N + 1)
    for index in (HALF_INDEX, sample_coherent_index(rng), sample_coherent_index(rng)):
        u_conj = np.conj(omega @ index.alpha) ** N
        law = _l3_law(index, N)
        for theta in np.linspace(-3.0, 3.0, 7):
            c, s = np.cos(theta), np.sin(theta)
            rotated = omega.copy()
            rotated[:, 0] = c * omega[:, 0] + s * omega[:, 1]
            rotated[:, 1] = -s * omega[:, 0] + c * omega[:, 1]
            lhs = normalization_sq(N) * grid.integrate(u_conj * (rotated @ index.alpha) ** N)
            rhs = law @ np.exp(-1j * theta * k)
            assert abs(lhs - rhs) <= 1e-13


def _index_probabilities(index):
    """The two binomial parameters of the law, by the same float operations."""
    a, b = index.a_vec, index.b_vec
    ell3, rl3 = _wedge(a, b, 0, 1), _wedge(a, b, 2, 3)
    return 0.5 * (1.0 + ell3 + rl3), 0.5 * (1.0 + ell3 - rl3)


def _exact_moment(index, N, power, B):
    """E[(h (-B/2) L3)^power] as an exact rational in the float inputs.

    E[X^j] = sum_r S(j, r) N^(r) p^r for X ~ Bin(N, p), with Stirling
    numbers of the second kind and falling factorials N^(r); then
    L3 = X1 + X2 - N is expanded by the multinomial theorem.
    """
    stirling = [[Fraction(1)]]
    for j in range(1, power + 1):
        prev = stirling[-1] + [Fraction(0)]
        stirling.append([Fraction(0)] + [r * prev[r] + prev[r - 1] for r in range(1, j + 1)])

    def raw(p):
        p = Fraction(p)
        return [
            sum(stirling[j][r] * math.perm(N, r) * p**r for r in range(j + 1))
            for j in range(power + 1)
        ]

    r1, r2 = (raw(p) for p in _index_probabilities(index))
    total = sum(
        Fraction(math.factorial(power), math.factorial(i) * math.factorial(j) * math.factorial(power - i - j))
        * r1[i] * r2[j] * (-N) ** (power - i - j)
        for i in range(power + 1)
        for j in range(power + 1 - i)
    )
    return float(total * (Fraction(-B) / 2 / (N + 1)) ** power)


def _retired_binomial_pmf(N, p):
    """The log-space scipy form the ratio walk replaced."""
    from scipy.special import gammaln, xlog1py, xlogy

    k = np.arange(N + 1)
    log_pmf = (
        gammaln(N + 1) - gammaln(k + 1) - gammaln(N - k + 1)
        + xlogy(k, p) + xlog1py(N - k, -p)
    )
    pmf = np.exp(log_pmf)
    return pmf / pmf.sum()


MOMENT_N = [1, 4, 9, 16, 40, 128, 2000]


def _moment_indices():
    rng = np.random.default_rng(8)
    return [HALF_INDEX, sample_coherent_index(rng), sample_coherent_index(rng)]


@pytest.mark.parametrize("N", MOMENT_N)
def test_l3_moments_match_exact_rationals(N):
    for index in _moment_indices():
        for power in (1, 2, 3, 4):
            exact = _exact_moment(index, N, power, 1.0)
            assert expectation_L3_power(index, N, power, 1.0) == pytest.approx(
                exact, rel=1e-14, abs=0
            )


@pytest.mark.parametrize("N", MOMENT_N)
def test_l3_moments_match_retired_scipy_form(N):
    # the retired form rounds lgamma of arguments up to N, so its own error
    # grows with N: 9e-14 off the exact moments at N = 2000
    values = (-0.5) / (N + 1) * (np.arange(2 * N + 1) - N)
    for index in _moment_indices():
        p1, p2 = _index_probabilities(index)
        law = np.convolve(_retired_binomial_pmf(N, p1), _retired_binomial_pmf(N, p2))
        for power in (1, 2, 3, 4):
            assert expectation_L3_power(index, N, power, 1.0) == pytest.approx(
                float(law @ values**power), rel=1e-14 * max(1.0, N / 40), abs=0
            )


@pytest.mark.parametrize("N", [0, 1, 5, 2000])
@pytest.mark.parametrize("p", [0.0, 5e-324, 1e-300, 0.3, 0.5, 1.0 - 2.0**-53, 1.0])
def test_binomial_pmf_extremes_are_finite_and_normalized(N, p):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pmf = _binomial_pmf(N, p)
    assert pmf.shape == (N + 1,)
    assert np.all(pmf >= 0.0)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-13)
    if p in (0.0, 1.0):
        assert pmf[round(p * N)] == 1.0


def test_convergence_rate_half_index():
    for m, lo, hi in ((1, -1.2, -0.8), (2, -1.2, -0.8)):
        table = moment_convergence_table(HALF_INDEX, m, 1.0, [8, 16, 32, 64])
        assert lo <= table.slope <= hi


def test_convergence_eigen_index_error_closed_form():
    B = 1.0
    table = moment_convergence_table(EIGEN_INDEX, 1, B, [8, 16, 32])
    expected = (B / 2.0) / (np.array([8, 16, 32]) + 1.0)
    assert table.errors == pytest.approx(expected, rel=1e-8)


def test_convergence_power_zero_degenerate():
    table = moment_convergence_table(HALF_INDEX, 0, 1.0, [4, 8])
    assert np.all(table.errors <= 1e-12)


def test_convergence_requires_increasing_list():
    with pytest.raises(ValueError):
        moment_convergence_table(HALF_INDEX, 1, 1.0, [8, 8])


@pytest.mark.parametrize("power, B", [(2, 1e160), (3, 1e120), (2, -1e160)])
def test_convergence_table_rejects_moments_out_of_float_range(power, B):
    with pytest.raises(ValueError, match="out of float range"):
        moment_convergence_table(HALF_INDEX, power, B, [8, 16])


@pytest.mark.parametrize("power", [2, 3, 7])
def test_convergence_table_at_the_edge_of_float_range(power):
    # 2 (|B|/2)^power just below the largest float: every value is finite,
    # with warnings as errors; just above it the table is refused
    edge = 2.0 * (np.finfo(float).max / 2.0) ** (1.0 / power)
    table = moment_convergence_table(HALF_INDEX, power, edge * (1 - 1e-12), [8, 16, 32])
    assert np.all(np.isfinite(table.moments)) and np.all(np.isfinite(table.errors))
    assert np.isfinite(table.target) and np.isfinite(table.slope)
    with pytest.raises(ValueError, match="out of float range"):
        moment_convergence_table(HALF_INDEX, power, edge * (1 + 1e-12), [8, 16, 32])


# ---------------------------------------------------------------------------
# completeness
# ---------------------------------------------------------------------------


def test_harmonic_basis_dimensions():
    # N = 4 exercises projection against two lower parity levels
    for N in (0, 1, 2, 3, 4):
        grid = sphere_grid(QuadratureSpec.for_state(N))
        basis = harmonic_basis(N, grid)
        assert basis.shape[0] == (N + 1) ** 2


def test_harmonic_basis_needs_fine_grid():
    with pytest.raises((QuadratureAccuracyError, BasisConstructionError)):
        harmonic_basis(4, sphere_grid(QuadratureSpec(3, 3, 6)))


def test_resolution_of_identity_trivial_shell():
    result = resolution_of_identity_check(0, 2000, np.random.default_rng(0))
    assert result.max_deviation <= 1e-10
    assert result.trace == pytest.approx(1.0, abs=1e-10)
    # the one-dimensional case holds per sample, not just on average
    rng = np.random.default_rng(6)
    grid = sphere_grid(QuadratureSpec.for_state(0))
    basis = harmonic_basis(0, grid)
    for _ in range(10):
        values = coherent_state_values(sample_coherent_index(rng), 0, grid)
        coeff = complex(np.sum(grid.weights * basis[0] * values))
        assert abs(coeff) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_resolution_of_identity_shell_two():
    result = resolution_of_identity_check(2, 100000, np.random.default_rng(5))
    assert result.max_deviation <= 0.05
    assert result.trace == pytest.approx(9.0, rel=0.02)


def test_resolution_of_identity_rejects_negative_shell():
    with pytest.raises(ValueError, match="shell index must be non-negative"):
        resolution_of_identity_check(-1, 10, np.random.default_rng(0))


@pytest.mark.parametrize("N", [0, 1, 2, 3])
def test_product_estimate_is_the_grid_estimate(N):
    """The product basis and the grid's harmonic basis differ by a unitary,
    so at the same indices the two estimates share eigenvalues and trace;
    25000 samples take a full and a partial batch."""
    got = _identity_estimate(N, 25000, np.random.default_rng(60 + N))
    want = grid_identity_estimate(N, 25000, np.random.default_rng(60 + N))
    assert np.max(np.abs(np.linalg.eigvalsh(got) - np.linalg.eigvalsh(want))) <= 1e-13
    assert abs(got.trace() - want.trace()) <= 1e-13


@pytest.mark.parametrize("N", [0, 1, 2, 3, 4])
def test_grid_overlaps_are_product_state_overlaps(N):
    """Psi_alpha is |u> x |v> up to a phase: the phase-free |<1|2>|^2 and
    Bargmann triple product <1|2><2|3><3|1> on the S^3 grid equal those of
    the product amplitudes, and |<1|2>|^2 has the closed form
    [((1 + u.u')/2)((1 + v.v')/2)]^N."""
    rng = np.random.default_rng(40 + N)
    spec = QuadratureSpec.for_state(N)
    for _ in range(10):
        a, b = sample_index_batch(rng, 3)
        alpha = a + 1j * b
        states = _product_states(a, b, N)
        grid, prod = {}, {}
        for i, j in ((0, 1), (1, 2), (2, 0)):
            grid[i, j] = normalization_sq(N) * s3_quadrature(
                lambda om: np.conj(om @ alpha[i]) ** N * (om @ alpha[j]) ** N, spec
            )
            prod[i, j] = np.vdot(states[i], states[j])
        ell, rl = index_kepler_vectors(a, b)
        u, v = ell + rl, ell - rl
        closed = (0.5 * (1 + u[0] @ u[1]) * 0.5 * (1 + v[0] @ v[1])) ** N
        assert abs(abs(prod[0, 1]) ** 2 - closed) <= 1e-14
        assert abs(abs(grid[0, 1]) ** 2 - closed) <= 1e-14
        assert abs(math.prod(grid.values()) - math.prod(prod.values())) <= 1e-14


def test_product_states_are_unit_vectors():
    a, b = sample_index_batch(np.random.default_rng(41), 1000)
    for N in (0, 1, 5, 40):
        states = _product_states(a, b, N)
        assert states.shape == (1000, (N + 1) ** 2)
        assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) <= 1e-13
