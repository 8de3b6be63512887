"""Agreement of the three limit-functional representations."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zeemanlab.szego_measures import (
    AngleState,
    HaarGrid,
    TestFunction,
    beta_marginalization_gap,
    haar_density_normalization,
    limit_angle_density,
    limit_quadric_mc,
    limit_triangular,
    PushforwardCheck,
    liouville_pushforward_check,
)
from zeemanlab.classical_kepler import (
    _inverse_arrays,
    kepler_constants,
    orbit_point_from_elements,
    sample_index_batch,
)
from zeemanlab.spectral_cluster import (
    EmpiricalMeasure,
    ks_distance,
    ks_two_sample,
    triangular_shift_cdf,
)


def brute_force_triangular(rho, B, n=4000001):
    u = np.linspace(-1.0, 1.0, n)
    return float(np.trapezoid(rho(-(B / 2.0) * u) * (1.0 - np.abs(u)), u))


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


def test_testfunction_kinds():
    assert TestFunction.monomial(0)(np.array([3.0]))[0] == 1.0
    assert TestFunction.monomial(3)(np.array([2.0]))[0] == 8.0
    poly = TestFunction.polynomial([1.0, 0.0, 2.0])
    assert poly(np.array([2.0]))[0] == 9.0
    tab = TestFunction.tabulated([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    assert tab(np.array([0.5]))[0] == pytest.approx(0.5)


def test_testfunction_validation():
    with pytest.raises(ValueError):
        TestFunction.monomial(13)
    with pytest.raises(ValueError):
        TestFunction.polynomial([])
    with pytest.raises(ValueError):
        TestFunction.tabulated([0.0, 0.0], [1.0, 1.0])


def test_angle_state_validation_and_ell3():
    state = AngleState(psi=0.4, theta=1.0, phi=0.1, gamma=5.0, beta=2.0)
    assert state.ell3 == pytest.approx(np.cos(0.4) * np.cos(1.0))
    with pytest.raises(ValueError):
        AngleState(psi=2.0, theta=1.0, phi=0.0, gamma=0.0, beta=0.0)


def test_angle_state_links_to_orbit_geometry():
    state = AngleState(psi=0.7, theta=2.0, phi=1.2, gamma=0.3, beta=4.0)
    pt = orbit_point_from_elements(state.to_orbit_elements())
    _, ell, _ = kepler_constants(pt)
    assert ell[2] == pytest.approx(state.ell3, abs=1e-12)


# ---------------------------------------------------------------------------
# triangular representation
# ---------------------------------------------------------------------------


def test_triangular_constant_normalized():
    assert limit_triangular(TestFunction.monomial(0), 1.0) == pytest.approx(1.0, abs=1e-13)


def test_triangular_odd_vanishes():
    assert limit_triangular(TestFunction.monomial(1), 2.0) == pytest.approx(0.0, abs=1e-13)


def test_triangular_square_value():
    got = limit_triangular(TestFunction.monomial(2), 2.0)
    assert got == pytest.approx(1.0 / 6.0, abs=1e-12)
    assert got == pytest.approx(
        brute_force_triangular(TestFunction.monomial(2), 2.0), abs=1e-9
    )


def test_triangular_scaling_invariance():
    # scaling B by c equals evaluating rho(c x) at the original B, exactly
    rho = TestFunction.polynomial([0.3, -0.2, 1.0, 0.5])
    c = 2.5
    scaled_field = limit_triangular(rho, c * 1.2)
    scaled_rho = limit_triangular(lambda x: rho(c * x), 1.2)
    assert scaled_field == pytest.approx(scaled_rho, abs=1e-10)


def test_all_representations_vanish_outside_support():
    B = 1.0
    bump = TestFunction.tabulated(
        [-10.0, -2.0, -1.0, -0.6, 0.6, 1.0, 2.0, 10.0],
        [0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0],
    )
    assert limit_triangular(bump, B) == pytest.approx(0.0, abs=1e-12)
    assert limit_angle_density(bump, B) == pytest.approx(0.0, abs=1e-10)
    mc = limit_quadric_mc(bump, B, 50000, np.random.default_rng(1))
    assert mc.value == 0.0 and mc.std_error == 0.0


# ---------------------------------------------------------------------------
# angle-density representation
# ---------------------------------------------------------------------------


def test_angle_density_constant_normalized():
    assert limit_angle_density(TestFunction.monomial(0), 1.0) == pytest.approx(
        1.0, abs=1e-10
    )


def test_angle_density_square_value():
    assert limit_angle_density(TestFunction.monomial(2), 2.0) == pytest.approx(
        1.0 / 6.0, abs=1e-8
    )


@given(st.integers(min_value=0, max_value=6))
@settings(deadline=None, max_examples=7)
def test_angle_density_matches_triangular_monomials(degree):
    rho = TestFunction.monomial(degree)
    for B in (0.5, 1.0, 2.0):
        assert limit_angle_density(rho, B) == pytest.approx(
            limit_triangular(rho, B), abs=1e-8
        )


def test_angle_density_matches_triangular_random_polynomials():
    rng = np.random.default_rng(17)
    for _ in range(5):
        rho = TestFunction.polynomial(rng.standard_normal(7))
        for B in (0.5, 1.0, 2.0):
            assert limit_angle_density(rho, B) == pytest.approx(
                limit_triangular(rho, B), abs=1e-8
            )


# ---------------------------------------------------------------------------
# Monte-Carlo representation
# ---------------------------------------------------------------------------


def test_mc_constant_exact():
    out = limit_quadric_mc(TestFunction.monomial(0), 1.0, 2000, np.random.default_rng(0))
    assert out.value == 1.0
    assert out.std_error == 0.0


def test_mc_square_within_three_sigma():
    out = limit_quadric_mc(
        TestFunction.monomial(2), 2.0, 1000000, np.random.default_rng(21)
    )
    assert abs(out.value - 1.0 / 6.0) <= 3.0 * out.std_error


def test_mc_odd_within_three_sigma():
    out = limit_quadric_mc(
        TestFunction.monomial(1), 2.0, 1000000, np.random.default_rng(22)
    )
    assert abs(out.value) <= 3.0 * out.std_error


def test_mc_agrees_with_quadratures_random_polynomials():
    rng = np.random.default_rng(30)
    for _ in range(5):
        rho = TestFunction.polynomial(rng.standard_normal(5))
        ref = limit_triangular(rho, 1.0)
        out = limit_quadric_mc(rho, 1.0, 200000, rng)
        assert abs(out.value - ref) <= 4.0 * out.std_error + 1e-12


# ---------------------------------------------------------------------------
# pushforward and group-measure identities
# ---------------------------------------------------------------------------


def test_liouville_pushforward():
    n = 1000000
    check = liouville_pushforward_check(n, np.random.default_rng(11))
    assert check.max_pointwise_gap <= 1e-9
    # pointwise agreement pins the sample law up to float ties
    assert check.ks_vs_index_law <= 3.0 / n
    assert check.ks_vs_triangular <= 0.005
    assert check.skipped_fraction <= 1e-6


def _retired_pushforward_check(n_samples, rng, keep_samples=0):
    """liouville_pushforward_check as it was before it kept only the
    columns of the inverse lift that ell3 needs."""
    a, b = sample_index_batch(rng, n_samples)
    keep = (1.0 - a[:, 3]) > 1e-12
    skipped = int(n_samples - keep.sum())
    a, b = a[keep], b[keep]
    ell3_index = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    x, p = _inverse_arrays(a, b)
    ell3_phase = x[:, 0] * p[:, 1] - x[:, 1] * p[:, 0]
    gap = float(np.max(np.abs(ell3_phase - ell3_index))) if len(a) else 0.0
    ks_same = ks_two_sample(ell3_phase, ell3_index)
    measure = EmpiricalMeasure(
        values=ell3_phase, weights=np.full(len(ell3_phase), 1.0 / len(ell3_phase))
    )
    ks_tri = ks_distance(measure, triangular_shift_cdf(2.0))
    keep = min(keep_samples, len(a))
    return PushforwardCheck(
        max_pointwise_gap=gap,
        ks_vs_index_law=ks_same,
        ks_vs_triangular=ks_tri,
        skipped_fraction=skipped / n_samples,
        n_samples=n_samples,
        sample_ell3_index=ell3_index[:keep].copy() if keep else None,
        sample_ell3_phase=ell3_phase[:keep].copy() if keep else None,
    )


class _PolePlantingGenerator:
    """A seeded generator whose first draw has the given rows replaced by
    multiples of e4 or by points within 1e-7 of it, so that those index
    vectors land on (or next to) the north pole."""

    def __init__(self, seed, rows):
        self.rng = np.random.default_rng(seed)
        self.rows = rows

    def standard_normal(self, shape):
        out = self.rng.standard_normal(shape)
        if self.rows:
            for i, row in enumerate(self.rows):
                out[row] = [1e-7 * (i % 2), 0.0, 0.0, 2.0 + i]
            self.rows = None
        return out


def _field_bytes(check):
    values = {f.name: getattr(check, f.name) for f in dataclasses.fields(check)}
    return {k: None if v is None else np.asarray(v).tobytes() for k, v in values.items()}


@pytest.mark.parametrize("seed", [1, 2, 3, 11])
@pytest.mark.parametrize("n, keep_samples", [(1, 1), (5000, 0), (200000, 20000)])
def test_pushforward_is_the_retired_check(seed, n, keep_samples):
    got = liouville_pushforward_check(n, np.random.default_rng(seed), keep_samples)
    want = _retired_pushforward_check(n, np.random.default_rng(seed), keep_samples)
    assert _field_bytes(got) == _field_bytes(want)


@pytest.mark.parametrize("rows", [[0], [3, 17, 4999], list(range(0, 5000, 7))])
def test_pushforward_with_pole_rows_is_the_retired_check(rows):
    got = liouville_pushforward_check(5000, _PolePlantingGenerator(4, rows), 3000)
    want = _retired_pushforward_check(5000, _PolePlantingGenerator(4, rows), 3000)
    assert got.skipped_fraction == len(rows) / 5000
    assert _field_bytes(got) == _field_bytes(want)


def test_haar_normalization_default_grid():
    assert haar_density_normalization() == pytest.approx(1.0, abs=1e-6)


def test_haar_normalization_stable_under_refinement():
    coarse = haar_density_normalization(HaarGrid())
    fine = haar_density_normalization(HaarGrid().doubled())
    assert abs(coarse - fine) <= 1e-6


def test_haar_density_nonnegative():
    psi = np.linspace(1e-3, np.pi / 2 - 1e-3, 200)
    beta = np.linspace(0, 2 * np.pi, 200)
    denom = 1.0 + np.sin(psi)[:, None] * np.cos(beta)[None, :]
    assert np.all(denom > 0.0)


def test_beta_marginalization_identity():
    assert beta_marginalization_gap() <= 1e-8
