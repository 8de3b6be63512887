"""Moser correspondence, conserved quantities, flow, and index sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zeemanlab.classical_kepler import (
    CoherentIndex,
    CollisionOrbitError,
    NorthPoleError,
    OrbitElements,
    PhasePoint,
    SingularityError,
    SpherePoint,
    _forward_arrays,
    integrate_kepler,
    kepler_constants,
    measure_period,
    moser_forward,
    moser_inverse,
    orbit_point_from_elements,
    sample_coherent_index,
    sample_index_batch,
    sphere_point_of_index,
    symplectic_check,
)
from zeemanlab.spectral_cluster import EmpiricalMeasure, ks_distance, triangular_shift_cdf


def _ell3(pt):
    return pt.x[0] * pt.p[1] - pt.x[1] * pt.p[0]


# ---------------------------------------------------------------------------
# constants of motion
# ---------------------------------------------------------------------------


def test_kepler_constants_circular_point():
    energy, ell, rl = kepler_constants(PhasePoint(x=[1, 0, 0], p=[0, 1, 0]))
    assert energy == pytest.approx(-0.5, abs=1e-15)
    assert ell == pytest.approx([0.0, 0.0, 1.0])
    assert rl == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)


def test_kepler_constants_rest_point():
    energy, ell, rl = kepler_constants(PhasePoint(x=[2, 0, 0], p=[0, 0, 0]))
    assert energy == pytest.approx(-0.5, abs=1e-15)
    assert np.all(ell == 0.0)
    assert rl == pytest.approx([-1.0, 0.0, 0.0])


def test_kepler_constants_singularity():
    with pytest.raises(SingularityError):
        kepler_constants(PhasePoint(x=[0, 0, 0], p=[1, 0, 0]))


def test_shell_identity_ell_rl():
    rng = np.random.default_rng(0)
    for _ in range(300):
        psi = rng.uniform(0.05, np.pi / 2 - 0.05)
        el = OrbitElements.from_angles(
            psi,
            rng.uniform(0, np.pi),
            rng.uniform(0, 2 * np.pi),
            rng.uniform(0, 2 * np.pi),
            beta=rng.uniform(0, 2 * np.pi),
        )
        _, ell, rl = kepler_constants(orbit_point_from_elements(el))
        assert float(ell @ ell + rl @ rl) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# the Moser correspondence
# ---------------------------------------------------------------------------


def test_forward_rest_momentum_maps_to_south_pole():
    sp = moser_forward(PhasePoint(x=[0.3, -2.0, 1.0], p=[0, 0, 0]))
    assert sp.omega == pytest.approx([0.0, 0.0, 0.0, -1.0])


def test_forward_unit_momentum_has_equatorial_base():
    sp = moser_forward(PhasePoint(x=[1.0, 2.0, 3.0], p=[0, 0, 1.0]))
    assert sp.omega[3] == pytest.approx(0.0, abs=1e-15)


def test_forward_fiber_example():
    sp = moser_forward(PhasePoint(x=[0.0, -1.0, 0.0], p=[1.0, 0.0, 0.0]))
    assert sp.xi == pytest.approx([0.0, 1.0, 0.0, 0.0], abs=1e-15)


def test_inverse_example_on_shell():
    pt = moser_inverse(SpherePoint(omega=[0, 0, 0, -1.0], xi=[0, 0, 1.0, 0]))
    assert pt.p == pytest.approx([0.0, 0.0, 0.0])
    assert pt.x == pytest.approx([0.0, 0.0, -2.0])
    energy, _, _ = kepler_constants(pt)
    assert energy == pytest.approx(-0.5, abs=1e-15)


def test_inverse_rejects_north_pole():
    with pytest.raises(NorthPoleError):
        moser_inverse(SpherePoint(omega=[0, 0, 0, 1.0], xi=[0, 1.0, 0, 0]))


def test_round_trip_many_points():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10000):
        x = rng.standard_normal(3)
        p = rng.standard_normal(3)
        sp = moser_forward(PhasePoint(x=x, p=p))
        back = moser_inverse(sp)
        worst = max(worst, np.max(np.abs(back.x - x)), np.max(np.abs(back.p - p)))
    assert worst <= 1e-10


@given(
    st.lists(st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=6, max_size=6)
)
@settings(deadline=None, max_examples=60)
def test_round_trip_property(zs):
    x, p = np.array(zs[:3]), np.array(zs[3:])
    sp = moser_forward(PhasePoint(x=x, p=p))
    assert abs(float(sp.omega @ sp.omega) - 1.0) <= 1e-12
    assert abs(float(sp.omega @ sp.xi)) <= 1e-10 * max(1.0, np.linalg.norm(sp.xi))
    back = moser_inverse(sp)
    assert np.max(np.abs(back.x - x)) <= 1e-9
    assert np.max(np.abs(back.p - p)) <= 1e-9


def test_index_maps_to_energy_shell():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10000):
        index = sample_coherent_index(rng)
        if 1.0 - index.a_vec[3] < 1e-9:
            continue
        pt = moser_inverse(sphere_point_of_index(index))
        energy, _, _ = kepler_constants(pt)
        worst = max(worst, abs(energy + 0.5))
    assert worst <= 1e-9


def test_index_ell3_sign_identification():
    """The covector orientation is load-bearing: ell3 must match pointwise."""
    rng = np.random.default_rng(9)
    for _ in range(500):
        index = sample_coherent_index(rng)
        if 1.0 - index.a_vec[3] < 1e-9:
            continue
        pt = moser_inverse(sphere_point_of_index(index))
        assert _ell3(pt) == pytest.approx(index.ell3, abs=1e-9)


def test_unit_covector_on_shell_has_unit_fiber():
    pt = PhasePoint(x=[0.0, 1.0, 0.0], p=[1.0, 0.0, 0.0])
    energy, _, _ = kepler_constants(pt)
    assert energy == pytest.approx(-0.5)
    sp = moser_forward(pt)
    assert float(sp.xi @ sp.xi) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# canonical 1-form identity
# ---------------------------------------------------------------------------


def test_symplectic_loops_small_radius():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(3)
        while np.linalg.norm(x) < 0.3:
            x = rng.standard_normal(3)
        pt = PhasePoint(x=x, p=rng.standard_normal(3))
        worst = max(worst, symplectic_check(pt, 1e-3, n_loops=1, rng=rng))
    assert worst <= 1e-6


def test_symplectic_zero_radius_loop():
    pt = PhasePoint(x=[1.0, 0.2, -0.4], p=[0.1, 0.9, 0.0])
    assert symplectic_check(pt, 0.0, n_loops=2) == 0.0


def test_symplectic_discrepancy_vanishes_superlinearly():
    # quadrature error of the two line integrals cancels through cubic
    # order; the fitted decay must therefore be at least cubic
    pt = PhasePoint(x=[0.9, -0.3, 0.5], p=[0.2, 0.8, -0.1])
    radii = np.array([0.005, 0.01, 0.02, 0.04])
    discs = np.array(
        [
            symplectic_check(pt, r, n_loops=4, segments=32, rng=np.random.default_rng(7))
            for r in radii
        ]
    )
    slope = np.polyfit(np.log(radii), np.log(discs), 1)[0]
    assert slope >= 2.7


# ---------------------------------------------------------------------------
# regularized flow
# ---------------------------------------------------------------------------


def test_circular_orbit_returns():
    pt0 = PhasePoint(x=[1.0, 0.0, 0.0], p=[0.0, 1.0, 0.0])
    traj = integrate_kepler(pt0, 2.0 * np.pi, tol=1e-10)
    gap = np.max(np.abs(np.concatenate([traj.final.x, traj.final.p]) - [1, 0, 0, 0, 1, 0]))
    assert gap <= 1e-8


def test_eccentric_orbit_energy_drift():
    ell = 0.05
    el = OrbitElements(ell=[0.0, 0.0, ell], rl=[np.sqrt(1 - ell**2), 0.0, 0.0])
    pt0 = orbit_point_from_elements(el)
    traj = integrate_kepler(pt0, 4.0 * np.pi, tol=1e-10)
    energies = traj.energies()
    assert np.max(np.abs(energies - energies[0])) <= 1e-9


def test_eccentric_orbit_returns_within_contract():
    # start at aphelion: a perihelion start is intrinsically ill-conditioned
    # (one ulp of x there moves the recurrence time by ~1e-11)
    ell = 0.05
    el = OrbitElements(
        ell=[0.0, 0.0, ell], rl=[np.sqrt(1 - ell**2), 0.0, 0.0], beta=np.pi
    )
    pt0 = orbit_point_from_elements(el)
    tol = 1e-10
    traj = integrate_kepler(pt0, 2.0 * np.pi, tol=tol)
    gap = np.max(
        np.abs(
            np.concatenate([traj.final.x - pt0.x, traj.final.p - pt0.p])
        )
    )
    assert gap <= 100.0 * tol


def test_ell3_conserved_along_trajectory():
    el = OrbitElements.from_angles(0.7, 1.1, 0.3, 2.2, beta=0.5)
    pt0 = orbit_point_from_elements(el)
    traj = integrate_kepler(pt0, 2.0 * np.pi, tol=1e-10)
    values = traj.ell3()
    assert np.max(np.abs(values - values[0])) <= 1e-9


def test_all_constants_conserved():
    el = OrbitElements.from_angles(1.0, 0.4, 5.0, 1.0, beta=2.0)
    pt0 = orbit_point_from_elements(el)
    traj = integrate_kepler(pt0, 2.0 * np.pi, tol=1e-10)
    for row in traj.states[:: max(1, len(traj.states) // 20)]:
        energy, ell, rl = kepler_constants(PhasePoint(x=row[:3], p=row[3:]))
        assert energy == pytest.approx(-0.5, abs=1e-9)
        assert np.max(np.abs(ell - el.ell)) <= 1e-9
        assert np.max(np.abs(rl - el.rl)) <= 1e-9


def test_off_shell_warns():
    with pytest.warns(UserWarning):
        integrate_kepler(PhasePoint(x=[1, 0, 0], p=[0, 1.2, 0]), 1.0, tol=1e-8)


def test_radial_infall_hits_collision_floor():
    from zeemanlab.classical_kepler import NumericalCollisionError

    # off-shell straight-line infall must trip the floor, not loop forever
    pt0 = PhasePoint(x=[1e-6, 0.0, 0.0], p=[0.0, 0.0, 0.0])
    with pytest.warns(UserWarning):
        with pytest.raises(NumericalCollisionError):
            integrate_kepler(pt0, 1.0, tol=1e-8)


def _period_test_orbits():
    for ell in (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0):
        yield OrbitElements(ell=[0, 0, ell], rl=[np.sqrt(1.0 - ell**2), 0.0, 0.0])
    yield OrbitElements(ell=[0, 0, 0.05], rl=[np.sqrt(1.0 - 0.05**2), 0.0, 0.0], beta=np.pi)
    rng = np.random.default_rng(2)
    for _ in range(7):
        yield OrbitElements.from_angles(
            rng.uniform(0.05, np.pi / 2 - 0.05),
            rng.uniform(0, np.pi),
            rng.uniform(0, 2 * np.pi),
            rng.uniform(0, 2 * np.pi),
            beta=rng.uniform(0, 2 * np.pi),
        )


def test_period_circular_and_eccentric():
    # circular to ell = 0.05, perihelion and aphelion starts, random orientations
    for el in _period_test_orbits():
        period = measure_period(orbit_point_from_elements(el), tol=1e-10)
        assert period == pytest.approx(2.0 * np.pi, abs=1e-9)


def test_period_without_recurrence_in_window_raises():
    # off shell the s-period is 2 pi / sqrt(-2E) = 8.396, outside the window
    pt0 = PhasePoint(x=[1, 0, 0], p=[0, 1.2, 0])
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError, match=r"s in \[5\.78.*, 6\.78.*\]"):
            measure_period(pt0, tol=1e-10)


@pytest.mark.parametrize("ell", [0.9, 0.3, 0.05])
def test_flow_is_the_great_circle(ell):
    """Every accepted state lies on the exact Moser image of the flow.

    At energy -1/2 the regularized flow is the unit-speed geodesic flow on
    S^3: omega(s) = cos s omega0 + sin s xi0, xi(s) = -sin s omega0 + cos s xi0.
    """
    el = OrbitElements(ell=[0, 0, ell], rl=[np.sqrt(1.0 - ell**2), 0.0, 0.0])
    tol = 1e-10
    traj = integrate_kepler(orbit_point_from_elements(el), 2.0 * np.pi, tol=tol)
    omega, xi = _forward_arrays(traj.states[:, :3], traj.states[:, 3:])
    c, s = np.cos(traj.s)[:, None], np.sin(traj.s)[:, None]
    assert np.max(np.abs(omega - (c * omega[0] + s * xi[0]))) <= 100.0 * tol
    assert np.max(np.abs(xi - (-s * omega[0] + c * xi[0]))) <= 100.0 * tol


# ---------------------------------------------------------------------------
# orbit elements
# ---------------------------------------------------------------------------


def test_near_circular_elements_geometry():
    psi = 1e-6
    el = OrbitElements.from_angles(psi, 0.0, 0.0, 0.0, beta=0.0)
    pt = orbit_point_from_elements(el)
    assert np.linalg.norm(pt.x) == pytest.approx(1.0, abs=1e-5)
    assert np.linalg.norm(pt.p) == pytest.approx(1.0, abs=1e-5)
    assert float(pt.x @ pt.p) == pytest.approx(0.0, abs=1e-5)


def test_elements_round_trip_constants():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        el = OrbitElements.from_angles(
            rng.uniform(1e-3, np.pi / 2 - 1e-3),
            rng.uniform(0, np.pi),
            rng.uniform(0, 2 * np.pi),
            rng.uniform(0, 2 * np.pi),
            beta=rng.uniform(0, 2 * np.pi),
        )
        energy, ell, rl = kepler_constants(orbit_point_from_elements(el))
        assert energy == pytest.approx(-0.5, abs=1e-9)
        assert np.max(np.abs(ell - el.ell)) <= 1e-9
        assert np.max(np.abs(rl - el.rl)) <= 1e-9


def test_momentum_lies_on_known_circle():
    el = OrbitElements.from_angles(0.9, 1.3, 0.7, 0.2, beta=4.0)
    pt = orbit_point_from_elements(el)
    ell_sq = float(el.ell @ el.ell)
    center = np.cross(el.ell, el.rl) / ell_sq
    assert np.linalg.norm(pt.p - center) == pytest.approx(
        1.0 / np.sqrt(ell_sq), rel=1e-12
    )


def test_collision_orbit_rejected():
    el = OrbitElements(ell=[0.0, 0.0, 0.0], rl=[1.0, 0.0, 0.0])
    with pytest.raises(CollisionOrbitError):
        orbit_point_from_elements(el)


def test_elements_validate_shell_identity():
    with pytest.raises(ValueError):
        OrbitElements(ell=[0.0, 0.0, 0.5], rl=[0.5, 0.0, 0.0])


@given(
    psi=st.floats(min_value=0.05, max_value=np.pi / 2 - 0.05),
    theta=st.floats(min_value=0.0, max_value=np.pi),
    phi=st.floats(min_value=0.0, max_value=2 * np.pi),
    gamma=st.floats(min_value=0.0, max_value=2 * np.pi),
    beta=st.floats(min_value=0.0, max_value=2 * np.pi),
)
@settings(deadline=None, max_examples=80)
def test_elements_shell_property(psi, theta, phi, gamma, beta):
    el = OrbitElements.from_angles(psi, theta, phi, gamma, beta=beta)
    energy, _, _ = kepler_constants(orbit_point_from_elements(el))
    assert abs(energy + 0.5) <= 1e-9


# ---------------------------------------------------------------------------
# sampling the index set
# ---------------------------------------------------------------------------


def test_sample_invariants_large_batch():
    rng = np.random.default_rng(123)
    a, b = sample_index_batch(rng, 1000000)
    assert np.max(np.abs(np.sum(a * a, axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(np.sum(b * b, axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(np.sum(a * b, axis=1))) <= 1e-12


def test_sample_ell3_law_is_triangular():
    rng = np.random.default_rng(7)
    a, b = sample_index_batch(rng, 1000000)
    ell3 = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    n = len(ell3)
    emp = EmpiricalMeasure(values=ell3, weights=np.full(n, 1.0 / n))
    assert ks_distance(emp, triangular_shift_cdf(2.0)) <= 0.005
    # the mean vanishes by symmetry; 3 standard errors of slack
    sem = ell3.std(ddof=1) / np.sqrt(n)
    assert abs(ell3.mean()) <= 3.0 * sem


def test_single_sample_constructor():
    index = sample_coherent_index(np.random.default_rng(0))
    assert isinstance(index, CoherentIndex)
    assert -1.0 <= index.ell3 <= 1.0


def test_coherent_index_examples():
    assert CoherentIndex(a_vec=[1, 0, 0, 0], b_vec=[0, 1, 0, 0]).ell3 == 1.0
    assert CoherentIndex(a_vec=[0, 0, 1, 0], b_vec=[0, 0, 0, 1]).ell3 == 0.0


def test_coherent_index_validation():
    with pytest.raises(ValueError):
        CoherentIndex(a_vec=[1, 1, 0, 0], b_vec=[0, 1, 0, 0])
    with pytest.raises(ValueError):
        CoherentIndex(a_vec=[1, 0, 0, 0], b_vec=[1, 0, 0, 0])
