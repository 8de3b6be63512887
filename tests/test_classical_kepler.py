"""Moser correspondence, conserved quantities, flow, and index sampling."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zeemanlab.classical_kepler import (
    CoherentIndex,
    CollisionOrbitError,
    NorthPoleError,
    NumericalCollisionError,
    OrbitElements,
    PhasePoint,
    SingularityError,
    SpherePoint,
    Trajectory,
    _SAMPLE_BLOCK,
    _forward_arrays,
    _orthonormalize,
    integrate_kepler,
    kepler_constants,
    measure_period,
    moser_forward,
    moser_inverse,
    orbit_point_from_elements,
    sample_coherent_index,
    sample_index_batch,
    sphere_point_of_index,
)
from zeemanlab.spectral_cluster import ks_distance, triangular_shift_cdf

from test_acceptance import CANONICAL_FORM_BOUND

import reference
from reference import (
    StreamPlantingGenerator,
    canonical_form_gap,
    elements_from_angles,
    index_kepler_vectors,
    numpy_integrate_kepler,
    sample_index_batch as reference_sample_index_batch,
    spelled_sq,
)


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
        el = elements_from_angles(
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


def test_wedge_gives_the_kepler_constants_of_the_inverse_lift():
    """ell and A read off a ^ b are those of the index's phase point, which
    pins the signs of the layout; rows near the pole lose a few digits to
    the 1/(1 - a4) of the lift."""
    a, b = sample_index_batch(np.random.default_rng(17), 2000)
    ell, rl = index_kepler_vectors(a, b)
    assert np.array_equal(ell[:, 2], [CoherentIndex(*row).ell3 for row in zip(a, b)])
    worst = 0.0
    for k in range(len(a)):
        index = CoherentIndex(a_vec=a[k], b_vec=b[k])
        _, ell_k, rl_k = kepler_constants(moser_inverse(sphere_point_of_index(index)))
        worst = max(worst, np.max(np.abs(ell_k - ell[k])), np.max(np.abs(rl_k - rl[k])))
    assert worst <= 1e-12


def test_wedge_vectors_lie_on_the_energy_shell():
    """u = ell + A and v = ell - A are unit vectors: ell . A = 0 and
    |ell|^2 + |A|^2 = 1."""
    a, b = sample_index_batch(np.random.default_rng(18), 100000)
    ell, rl = index_kepler_vectors(a, b)
    for w in (ell + rl, ell - rl):
        assert np.max(np.abs(np.sum(w * w, axis=1) - 1.0)) <= 1e-14
    assert np.max(np.abs(np.sum(ell * rl, axis=1))) <= 1e-14
    assert np.max(np.abs(np.sum(ell * ell + rl * rl, axis=1) - 1.0)) <= 1e-14


def test_unit_covector_on_shell_has_unit_fiber():
    pt = PhasePoint(x=[0.0, 1.0, 0.0], p=[1.0, 0.0, 0.0])
    energy, _, _ = kepler_constants(pt)
    assert energy == pytest.approx(-0.5)
    sp = moser_forward(pt)
    assert float(sp.xi @ sp.xi) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# canonical 1-form identity
# ---------------------------------------------------------------------------


def test_canonical_form_gap_holds_to_large_momenta():
    # 10^4 points with |p| spread up to 10: the gap, relative to 1 + |y|,
    # stays within the acceptance suite's rounding bound
    rng = np.random.default_rng(11)
    x = rng.standard_normal((10000, 3))
    p = rng.standard_normal((10000, 3))
    p *= rng.uniform(0.0, 10.0, (10000, 1)) / np.linalg.norm(p, axis=1, keepdims=True)
    assert canonical_form_gap(x, p) <= CANONICAL_FORM_BOUND


def test_canonical_form_gap_sees_a_planted_fault(monkeypatch):
    forward = reference._forward_arrays

    def faulty(x, p):
        omega, xi = forward(x, p)
        xi[..., 3] *= 1.0 + 1e-9
        return omega, xi

    rng = np.random.default_rng(12)
    x, p = rng.standard_normal((100, 3)), rng.standard_normal((100, 3))
    monkeypatch.setattr(reference, "_forward_arrays", faulty)
    assert canonical_form_gap(x, p) > 1e4 * CANONICAL_FORM_BOUND


# ---------------------------------------------------------------------------
# regularized flow
# ---------------------------------------------------------------------------


def test_circular_orbit_returns():
    pt0 = PhasePoint(x=[1.0, 0.0, 0.0], p=[0.0, 1.0, 0.0])
    traj = integrate_kepler(pt0, 2.0 * np.pi, tol=1e-10)
    gap = np.max(np.abs(traj.states[-1] - [1, 0, 0, 0, 1, 0]))
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
    gap = np.max(np.abs(traj.states[-1] - np.concatenate([pt0.x, pt0.p])))
    assert gap <= 100.0 * tol


def test_ell3_conserved_along_trajectory():
    el = elements_from_angles(0.7, 1.1, 0.3, 2.2, beta=0.5)
    pt0 = orbit_point_from_elements(el)
    traj = integrate_kepler(pt0, 2.0 * np.pi, tol=1e-10)
    values = traj.ell3()
    assert np.max(np.abs(values - values[0])) <= 1e-9


def test_all_constants_conserved():
    el = elements_from_angles(1.0, 0.4, 5.0, 1.0, beta=2.0)
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


def test_start_rounded_off_the_shell_does_not_warn():
    # at ell = 1e-4, |p|^2/2 is about 2e8 and the energy rounds 3e-8 off -1/2
    ell = 1e-4
    pt0 = orbit_point_from_elements(
        OrbitElements(ell=np.array([0.0, 0.0, ell]), rl=np.array([np.sqrt(1.0 - ell * ell), 0.0, 0.0]))
    )
    assert abs(0.5 * pt0.p @ pt0.p - 1.0 / np.linalg.norm(pt0.x) + 0.5) > 1e-9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        integrate_kepler(pt0, 0.0)


def test_radial_infall_hits_collision_floor():
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
        yield elements_from_angles(
            rng.uniform(0.05, np.pi / 2 - 0.05),
            rng.uniform(0, np.pi),
            rng.uniform(0, 2 * np.pi),
            rng.uniform(0, 2 * np.pi),
            beta=rng.uniform(0, 2 * np.pi),
        )


# the end of the recurrence window
_S_WINDOW = 2.0 * np.pi + 0.5


def test_period_circular_and_eccentric():
    # circular to ell = 0.05, perihelion and aphelion starts, random orientations
    for el in _period_test_orbits():
        traj = integrate_kepler(orbit_point_from_elements(el), _S_WINDOW, tol=1e-10)
        assert measure_period(traj) == pytest.approx(2.0 * np.pi, abs=1e-9)


def test_period_does_not_depend_on_trajectory_length():
    # the steps before the window are the same however far the run goes
    pt0 = orbit_point_from_elements(elements_from_angles(0.9, 1.1, 0.3, 2.2, beta=0.5))
    short = measure_period(integrate_kepler(pt0, _S_WINDOW, tol=1e-10))
    assert measure_period(integrate_kepler(pt0, 4.0 * np.pi, tol=1e-10)) == short


def test_period_without_recurrence_in_window_raises():
    # off shell the s-period is 2 pi / sqrt(-2E) = 8.396: a 4 pi run reaches
    # that recurrence, but it lies past the window
    pt0 = PhasePoint(x=[1, 0, 0], p=[0, 1.2, 0])
    with pytest.warns(UserWarning):
        traj = integrate_kepler(pt0, 4.0 * np.pi, tol=1e-10)
    with pytest.raises(ValueError, match=r"s in \[5\.78.*, 6\.78.*\] \(trajectory ends at s=12\.56"):
        measure_period(traj)


def test_period_of_a_trajectory_short_of_the_window_raises():
    pt0 = PhasePoint(x=[1.0, 0.0, 0.0], p=[0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match=r"does not recur .*trajectory ends at s=1\.0\)"):
        measure_period(integrate_kepler(pt0, 1.0, tol=1e-10))


@pytest.mark.parametrize("s_max", [1e-16, 1e-300])
def test_run_shorter_than_the_step_floor_ends_at_s_max(s_max):
    # the one step to s_max leaves a next step size below the collapse
    # floor of 1e-15, which is the end of the run, not a collapse
    pt0 = PhasePoint(x=[1.0, 0.0, 0.0], p=[0.0, 1.0, 0.0])
    traj = integrate_kepler(pt0, s_max)
    assert traj.s.tolist() == [0.0, s_max]
    retired = numpy_integrate_kepler(pt0, s_max, sq=spelled_sq)
    assert traj.s.tobytes() == retired.s.tobytes()
    assert traj.states.tobytes() == retired.states.tobytes()


# ---------------------------------------------------------------------------
# the retired NumPy stepper as oracle for the scalar one
# ---------------------------------------------------------------------------

def _from_perihelion(ell):
    return orbit_point_from_elements(
        OrbitElements(ell=[0, 0, ell], rl=[np.sqrt(1.0 - ell**2), 0.0, 0.0])
    )


# (start, s_max, tol, compare with the BLAS dot): the period test orbits to
# the window, and to 4 pi from perihelion ell = 0.05, ell = 1e-3 (17694
# steps), the circle ell = 1 and ell = 0.05 at tol = 1e-6.  At ell = 1e-3
# the orbit passes within 1e-6 of the origin, where a BLAS dot that fuses
# multiply-adds moves the period by about 5e-8 (4.6e-8 measured with
# OpenBLAS on x86-64), so only the spelled norms are compared.
_ORACLE_CASES = [(orbit_point_from_elements(el), _S_WINDOW, 1e-10, True) for el in _period_test_orbits()]
_ORACLE_CASES += [
    (_from_perihelion(0.05), 4.0 * np.pi, 1e-10, True),
    (_from_perihelion(1e-3), 4.0 * np.pi, 1e-10, False),
    (_from_perihelion(1.0), 4.0 * np.pi, 1e-10, True),
    (_from_perihelion(0.05), 4.0 * np.pi, 1e-6, True),
]


@pytest.mark.parametrize("case", range(len(_ORACLE_CASES)))
def test_scalar_stepper_is_the_retired_stepper(case):
    """Byte for byte against the retired stepper with the same squared
    norms; with the BLAS dot, which may fuse multiply-adds, the same step
    count and the same period to 1e-10."""
    pt0, s_max, tol, with_blas = _ORACLE_CASES[case]
    traj = integrate_kepler(pt0, s_max, tol=tol)
    spelled = numpy_integrate_kepler(pt0, s_max, tol=tol, sq=spelled_sq)
    assert traj.s.tobytes() == spelled.s.tobytes()
    assert traj.states.tobytes() == spelled.states.tobytes()
    if with_blas:
        blas = numpy_integrate_kepler(pt0, s_max, tol=tol)
        assert len(blas.s) == len(traj.s)
        assert abs(measure_period(blas) - measure_period(traj)) <= 1e-10


def _outcome(integrate, *args, **kwargs):
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            traj = integrate(*args, **kwargs)
        except NumericalCollisionError as exc:
            return str(exc)
    return traj.s.tobytes(), traj.states.tobytes()


def test_step_with_a_stage_at_the_origin_is_rejected():
    # x = 1, p = -100 along e1: the first stage, 1 + 0.05 * (0.2 * -100),
    # lands on x = 0 exactly, which divides by zero in the slope
    pt0 = PhasePoint(x=[1.0, 0.0, 0.0], p=[-100.0, 0.0, 0.0])
    assert 1.0 + 0.05 * (0.2 * -100.0) == 0.0
    got = _outcome(integrate_kepler, pt0, 0.05, tol=1e-8)
    assert got == _outcome(numpy_integrate_kepler, pt0, 0.05, tol=1e-8, sq=spelled_sq)
    s = np.frombuffer(got[0])
    assert len(s) > 2 and s[1] < 0.05  # the full first step was rejected


@pytest.mark.parametrize(
    "pt0, tol",
    [
        # stages overflow to inf and then to nan: every step is rejected
        (PhasePoint(x=[1.0, 0.0, 0.0], p=[0.0, 1e154, 0.0]), 1e-8),
        # on the shell, but the squares of the scaled error overflow
        (PhasePoint(x=[1.0, 0.0, 0.0], p=[0.0, 1.0, 0.0]), 1e-300),
    ],
)
def test_step_with_overflow_is_rejected(pt0, tol):
    got = _outcome(integrate_kepler, pt0, 1.0, tol=tol)
    assert got == _outcome(numpy_integrate_kepler, pt0, 1.0, tol=tol, sq=spelled_sq)


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
    el = elements_from_angles(psi, 0.0, 0.0, 0.0, beta=0.0)
    pt = orbit_point_from_elements(el)
    assert np.linalg.norm(pt.x) == pytest.approx(1.0, abs=1e-5)
    assert np.linalg.norm(pt.p) == pytest.approx(1.0, abs=1e-5)
    assert float(pt.x @ pt.p) == pytest.approx(0.0, abs=1e-5)


def test_elements_round_trip_constants():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        el = elements_from_angles(
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
    el = elements_from_angles(0.9, 1.3, 0.7, 0.2, beta=4.0)
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
    el = elements_from_angles(psi, theta, phi, gamma, beta=beta)
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
    assert ks_distance(np.sort(ell3), triangular_shift_cdf(2.0)) <= 0.005
    # the mean vanishes by symmetry; 3 standard errors of slack
    sem = ell3.std(ddof=1) / np.sqrt(n)
    assert abs(ell3.mean()) <= 3.0 * sem


@pytest.mark.parametrize("seed", [1, 7, 12345])
@pytest.mark.parametrize(
    "n",
    [1, 2, 5, 1000, 1000000]
    # around the sampler's first and second block edges
    + [_SAMPLE_BLOCK - 1, _SAMPLE_BLOCK, _SAMPLE_BLOCK + 1, 3 * _SAMPLE_BLOCK + 7]
    + [2 * _SAMPLE_BLOCK - 1, 2 * _SAMPLE_BLOCK, 2 * _SAMPLE_BLOCK + 1, 6 * _SAMPLE_BLOCK + 7],
)
def test_sample_has_the_bits_of_numpy_row_reductions(n, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    a, b = sample_index_batch(rng, n)
    expect_a, expect_b = reference_sample_index_batch(oracle_rng, n)
    assert a.tobytes() == expect_a.tobytes()
    assert b.tobytes() == expect_b.tobytes()
    assert rng.random() == oracle_rng.random()


class _ScriptedGenerator:
    """Hands out fixed standard-normal draws in order and records their shapes."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.shapes = []

    def standard_normal(self, shape):
        self.shapes.append(shape)
        out = self.draws.pop(0)
        assert out.shape == shape
        return out.copy()


def _gram_schmidt(a, b):
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    b = b - np.sum(b * a, axis=1, keepdims=True) * a
    return a, b / np.linalg.norm(b, axis=1, keepdims=True)


def test_sample_redraws_degenerate_rows_in_order():
    rng = np.random.default_rng(5)
    # a row's first vector is columns 0..3 of its draw, the second 4..7
    ab0, ab1, ab2 = (rng.standard_normal((k, 8)) for k in (5, 2, 1))
    a0, b0, a1, b1, a2, b2 = ab0[:, :4], ab0[:, 4:], ab1[:, :4], ab1[:, 4:], ab2[:, :4], ab2[:, 4:]
    a0[1] = 0.0  # vanishing first vector
    b0[3] = 3.0 * a0[3]  # parallel pair
    a1[0] = 0.0  # the redraw of row 1 degenerates again
    gen = _ScriptedGenerator([ab0, ab1, ab2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b = sample_index_batch(gen, 5)
    assert gen.shapes == [(5, 8), (2, 8), (1, 8)]
    oracle_a, oracle_b = reference_sample_index_batch(_ScriptedGenerator([ab0, ab1, ab2]), 5)
    assert a.tobytes() == oracle_a.tobytes() and b.tobytes() == oracle_b.tobytes()
    expect_a, expect_b = np.empty((5, 4)), np.empty((5, 4))
    keep = [0, 2, 4]
    expect_a[keep], expect_b[keep] = _gram_schmidt(a0[keep], b0[keep])
    expect_a[3], expect_b[3] = (v[0] for v in _gram_schmidt(a1[1:], b1[1:]))
    expect_a[1], expect_b[1] = (v[0] for v in _gram_schmidt(a2, b2))
    np.testing.assert_allclose(a, expect_a, rtol=0, atol=1e-15)
    np.testing.assert_allclose(b, expect_b, rtol=0, atol=1e-15)


def _vanishing_first(row):
    return np.r_[np.zeros(4), row[4:]]


def _parallel(row):
    return np.r_[row[:4], 3.0 * row[:4]]


def _vanishing_second(row):
    return np.r_[row[:4], np.zeros(4)]


def _degenerate_plants(n):
    """Stream rows that make rows block+3, 2*block+1 and 3*block+2 of an
    n-row draw degenerate: rows 0..n-1 of the stream are the index rows,
    and the redraws follow from row n on."""
    blk = _SAMPLE_BLOCK
    return {
        blk + 3: _vanishing_first,
        2 * blk + 1: _parallel,
        3 * blk + 2: _vanishing_second,
        n: _vanishing_first,  # the redraw of row blk + 3 degenerates again
    }


def test_sample_redraws_degenerate_rows_beyond_the_first_block():
    n = 3 * _SAMPLE_BLOCK + 7
    gen = StreamPlantingGenerator(5, _degenerate_plants(n))
    a, b = sample_index_batch(gen, n)
    oracle_gen = StreamPlantingGenerator(5, _degenerate_plants(n))
    expect_a, expect_b = reference_sample_index_batch(oracle_gen, n)
    assert a.tobytes() == expect_a.tobytes() and b.tobytes() == expect_b.tobytes()
    # three rows redrawn, one of them twice
    assert gen.drawn == oracle_gen.drawn == n + 4
    assert np.max(np.abs(np.sum(a * a, axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(np.sum(b * b, axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(np.sum(a * b, axis=1))) <= 1e-12


def _columns(a, b):
    # one float, one bool and one two-column output per row
    return a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0], a[:, 3] > b[:, 3], np.stack([a[:, 2], b[:, 0]], 1)


@pytest.mark.parametrize(
    "n, planted",
    [(1, False), (_SAMPLE_BLOCK + 1, False), (2 * _SAMPLE_BLOCK + 1, False)]
    + [(3 * _SAMPLE_BLOCK + 7, False), (3 * _SAMPLE_BLOCK + 7, True)]
    + [(6 * _SAMPLE_BLOCK + 7, False), (6 * _SAMPLE_BLOCK + 7, True)],
)
def test_sample_columns_are_the_expressions_on_the_full_pairs(n, planted):
    plants = _degenerate_plants(n) if planted else {}
    gen, pair_gen = StreamPlantingGenerator(9, plants), StreamPlantingGenerator(9, plants)
    got = sample_index_batch(gen, n, _columns)
    want = _columns(*sample_index_batch(pair_gen, n))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())
    assert gen.drawn == pair_gen.drawn


def _twin_generators(n, planted):
    if not planted:
        return (np.random.default_rng(np.random.Philox(key=n)) for _ in range(2))
    # row 0 vanishes, the last pair is parallel, and the redraw of row 0 vanishes again
    plants = {0: _vanishing_first, n - 1: _parallel, n: _vanishing_first}
    return StreamPlantingGenerator(6, plants), StreamPlantingGenerator(6, plants)


@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("n", [1, 5000, 3 * _SAMPLE_BLOCK + 5, 6 * _SAMPLE_BLOCK + 5])
def test_sample_leaves_the_generator_where_the_full_pairs_do(n, planted):
    gen, oracle_gen = _twin_generators(n, planted)
    got = sample_index_batch(gen, n, _columns)
    want = _columns(*reference_sample_index_batch(oracle_gen, n))
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    assert gen.standard_normal((3, 8)).tobytes() == oracle_gen.standard_normal((3, 8)).tobytes()


@pytest.mark.parametrize("seed", range(20))
def test_single_index_is_two_successive_four_vector_draws(seed):
    # the stream of coherent's one index, as the benchmark oracle draws it
    rng = np.random.default_rng(np.random.Philox(key=seed))
    oracle_rng = np.random.default_rng(np.random.Philox(key=seed))
    index = sample_coherent_index(rng)
    a, b = oracle_rng.standard_normal(4)[None, :], oracle_rng.standard_normal(4)[None, :]
    assert _orthonormalize(a) & _orthonormalize(b, a)
    assert index.a_vec.tobytes() == a[0].tobytes()
    assert index.b_vec.tobytes() == b[0].tobytes()
    np.testing.assert_equal(rng.bit_generator.state, oracle_rng.bit_generator.state)


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
