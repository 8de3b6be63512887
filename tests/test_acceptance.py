"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here and nowhere else; every criterion is checked at
finite N with the quantified rate it is supposed to satisfy.
"""

import time

import numpy as np

from zeemanlab.classical_kepler import (
    CoherentIndex,
    OrbitElements,
    PhasePoint,
    integrate_kepler,
    kepler_constants,
    measure_period,
    moser_forward,
    moser_inverse,
    orbit_point_from_elements,
    sample_index_batch,
    sphere_point_of_index,
    symplectic_check,
)
from zeemanlab.coherent_states import (
    QuadratureSpec,
    SPHERE_AREA,
    expectation_L3_power,
    moment_convergence_table,
    normalization_sq,
    resolution_of_identity_check,
    s3_quadrature,
)
from zeemanlab.hydrogenic_shell import ScalingSchedule, shell_matrix_L3, shell_matrix_rho2
from zeemanlab.spectral_cluster import (
    cluster_eigenvalues,
    ks_distance,
    scaled_shift_measure,
    subcluster_assignment,
    trace_average,
    triangular_shift_cdf,
)
from zeemanlab.szego_measures import (
    TestFunction,
    beta_marginalization_gap,
    haar_density_normalization,
    limit_angle_density,
    limit_quadric_mc,
    limit_triangular,
)

EIGEN_INDEX = CoherentIndex(a_vec=[1.0, 0, 0, 0], b_vec=[0, -1.0, 0, 0])
HALF_INDEX = CoherentIndex(a_vec=[1.0, 0, 0, 0], b_vec=[0, 0.5, np.sqrt(3.0) / 2.0, 0])


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] criterion {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_triangular_limit_law():
    schedule = ScalingSchedule(B=1.0, q=17.0)
    cdf = triangular_shift_cdf(1.0)
    distances = []
    runtime_200 = None
    for N in (25, 50, 100, 200):
        start = time.time()
        spec = cluster_eigenvalues(N, schedule, mode="first_order")
        distances.append(ks_distance(scaled_shift_measure(spec), cdf))
        if N == 200:
            runtime_200 = time.time() - start
    decreasing = all(b <= 1.2 * a for a, b in zip(distances, distances[1:]))
    ok = distances[-1] <= 0.02 and decreasing and runtime_200 < 60.0
    _report(
        1,
        "triangular limit law",
        ok,
        f"KS={['%.4f' % d for d in distances]}, N=200 in {runtime_200:.2f}s",
    )


def test_criterion_02_trace_identity():
    B = 2.0
    worst = {}
    ok = True
    for degree in range(5):
        rho = TestFunction.monomial(degree)
        rhs = limit_triangular(rho, B)
        gaps = []
        for N in (25, 50, 100, 200, 400):
            lhs = trace_average(N, B, rho)
            gap = abs(lhs - rhs)
            gaps.append(gap)
            ok &= gap <= 3.0 / N
            if degree % 2 == 1:
                ok &= abs(lhs) <= 1e-10 and abs(rhs) <= 1e-10
        worst[degree] = max(gaps)
    _report(
        2,
        "trace identity",
        ok,
        "max gaps by degree: " + ", ".join(f"{d}:{g:.2e}" for d, g in worst.items()),
    )


def test_criterion_03_coherent_moment_rate():
    slopes = {}
    ok = True
    for power in (1, 2):
        table = moment_convergence_table(HALF_INDEX, power, 1.0, [8, 16, 32, 64])
        slopes[power] = table.slope
        ok &= -1.2 <= table.slope <= -0.8
    closed_gap = 0.0
    for N in (8, 16, 32, 64):
        got = expectation_L3_power(EIGEN_INDEX, N, 1, 1.0)
        closed_gap = max(closed_gap, abs(got - 0.5 * N / (N + 1)))
    ok &= closed_gap <= 1e-10
    _report(
        3,
        "coherent moment rate",
        ok,
        f"slopes m=1:{slopes[1]:.3f}, m=2:{slopes[2]:.3f}; eigenstate gap {closed_gap:.1e}",
    )


def test_criterion_04_normalization():
    axis = CoherentIndex(a_vec=[1.0, 0, 0, 0], b_vec=[0, 1.0, 0, 0])
    worst_rel = 0.0
    for N in (0, 1, 2, 4, 8, 16, 32, 64):
        integral = s3_quadrature(
            lambda om: np.abs(om @ axis.alpha) ** (2 * N), QuadratureSpec.for_state(N)
        ).real
        worst_rel = max(worst_rel, abs(normalization_sq(N) * integral - 1.0))
    ratio_ok = all(
        abs(normalization_sq(N) * SPHERE_AREA / N - 1.0) <= 2.0 / N for N in (50, 64, 128)
    )
    ok = worst_rel <= 1e-10 and ratio_ok
    _report(
        4,
        "coherent normalization",
        ok,
        f"closed-form vs quadrature rel err {worst_rel:.1e}; asymptotic ratio ok={ratio_ok}",
    )


def test_criterion_05_moser_geometry():
    rng = np.random.default_rng(2024)
    # (a) round trip
    round_trip = 0.0
    for _ in range(10000):
        x = rng.standard_normal(3)
        p = rng.standard_normal(3)
        back = moser_inverse(moser_forward(PhasePoint(x=x, p=p)))
        round_trip = max(round_trip, np.max(np.abs(back.x - x)), np.max(np.abs(back.p - p)))
    # (b) canonical 1-form identity on loops of radius 1e-3
    loop_disc = 0.0
    for _ in range(100):
        x = rng.standard_normal(3)
        while np.linalg.norm(x) < 0.3:
            x = rng.standard_normal(3)
        pt = PhasePoint(x=x, p=rng.standard_normal(3))
        loop_disc = max(loop_disc, symplectic_check(pt, 1e-3, n_loops=1, rng=rng))
    # (c) indices map onto the energy shell
    energy_gap = 0.0
    a, b = sample_index_batch(rng, 10000)
    for av, bv in zip(a, b):
        if 1.0 - av[3] < 1e-9:
            continue
        pt = moser_inverse(sphere_point_of_index(CoherentIndex(a_vec=av, b_vec=bv)))
        energy, _, _ = kepler_constants(pt)
        energy_gap = max(energy_gap, abs(energy + 0.5))
    # (d) regularized period, circular and eccentric
    period_gap = 0.0
    for ell in (1.0, 0.05):
        if ell < 1.0:
            el = OrbitElements(
                ell=[0, 0, ell], rl=[np.sqrt(1 - ell**2), 0.0, 0.0], beta=np.pi
            )
            pt0 = orbit_point_from_elements(el)
        else:
            pt0 = PhasePoint(x=[1.0, 0, 0], p=[0, 1.0, 0])
        traj = integrate_kepler(pt0, 2.0 * np.pi + 0.5, tol=1e-10)
        period_gap = max(period_gap, abs(measure_period(traj) - 2.0 * np.pi))
    ok = (
        round_trip <= 1e-10
        and loop_disc <= 1e-6
        and energy_gap <= 1e-9
        and period_gap <= 1e-6
    )
    _report(
        5,
        "Moser geometry",
        ok,
        f"round-trip {round_trip:.1e}, loops {loop_disc:.1e}, "
        f"shell energy {energy_gap:.1e}, period {period_gap:.1e}",
    )


def test_criterion_06_measure_identities():
    rng = np.random.default_rng(99)
    quad_gap = 0.0
    polys = [TestFunction.monomial(d) for d in range(7)]
    polys += [TestFunction.polynomial(rng.standard_normal(7)) for _ in range(2)]
    for rho in polys:
        for B in (0.5, 1.0, 2.0):
            quad_gap = max(
                quad_gap, abs(limit_triangular(rho, B) - limit_angle_density(rho, B))
            )
    mc = limit_quadric_mc(TestFunction.monomial(2), 2.0, 1000000, rng)
    mc_ok = abs(mc.value - 1.0 / 6.0) <= 3.0 * mc.std_error
    haar_gap = abs(haar_density_normalization() - 1.0)
    beta_gap = beta_marginalization_gap()
    ok = quad_gap <= 1e-8 and mc_ok and haar_gap <= 1e-6 and beta_gap <= 1e-8
    _report(
        6,
        "measure identities",
        ok,
        f"tri-vs-angle {quad_gap:.1e}, MC |err|/sigma "
        f"{abs(mc.value - 1 / 6) / max(mc.std_error, 1e-300):.2f}, "
        f"haar {haar_gap:.1e}, beta marginal {beta_gap:.1e}",
    )


def test_criterion_07_subclusters():
    B = 1.0
    schedule = ScalingSchedule(B=B, q=17.0)
    ok = True
    worst_dist = 0.0
    for N in range(1, 31):
        spec = cluster_eigenvalues(N, schedule)
        assignment = subcluster_assignment(spec)
        for m in range(-N, N + 1):
            ok &= len(assignment[m]) == N + 1 - abs(m)
            if len(assignment[m]):
                center = -(B / 2.0) * m / (N + 1)
                dist = float(np.max(np.abs(np.asarray(assignment[m]) - center)))
                ok &= dist < (B / 8.0) / (N + 1)
                worst_dist = max(worst_dist, dist * (N + 1))
    _report(
        7,
        "sub-cluster sizes",
        ok,
        f"all N <= 30 sized N+1-|m|; worst scaled center distance {worst_dist:.1e}",
    )


def test_criterion_08_stability_count():
    schedule = ScalingSchedule(B=1.0, q=17.0)
    counts = {}
    ok = True
    for N in (8, 10, 12):
        spec = cluster_eigenvalues(N, schedule, mode="multishell", delta=2)
        counts[N] = len(spec.shifts)
        ok &= counts[N] == (N + 1) ** 2
    _report(
        8,
        "stability count",
        ok,
        ", ".join(f"N={n}: {c}/{(n + 1) ** 2}" for n, c in counts.items()),
    )


def test_criterion_09_norm_growth():
    Ns = np.array([10, 20, 40, 60])
    norms = np.array([shell_matrix_rho2(int(N)).norm() for N in Ns])
    # fitted against the principal quantum number N+1, the scale the
    # matrix elements actually carry
    slope = float(np.polyfit(np.log(Ns + 1), np.log(norms), 1)[0])
    l3_exact = all(shell_matrix_L3(int(N)).norm() == float(N) for N in Ns)
    ok = abs(slope - 4.0) <= 0.1 and l3_exact
    _report(
        9,
        "norm growth",
        ok,
        f"rho^2 exponent {slope:.3f} (target 4.0 +- 0.1); L3 norm exact: {l3_exact}",
    )


def test_criterion_10_resolution_of_identity():
    result = resolution_of_identity_check(2, 100000, np.random.default_rng(314))
    ok = result.max_deviation <= 0.05 and abs(result.trace - result.dim) <= 0.02 * result.dim
    _report(
        10,
        "resolution of identity",
        ok,
        f"deviation {result.max_deviation:.3f} (<= 0.05), trace {result.trace:.3f} "
        f"vs {result.dim}",
    )
