"""Cluster spectra, scaled-shift laws, trace averages, and KS machinery."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zeemanlab.hydrogenic_shell import (
    ScalingSchedule,
    _band_blocks,
    cluster_radius,
    shell_matrix_L3,
    shell_matrix_W,
)
from zeemanlab import hydrogenic_shell, spectral_cluster
from zeemanlab.spectral_cluster import (
    ClusterSeparationError,
    SubclusterOverlapError,
    cluster_eigenvalues,
    ks_distance,
    scaled_shift_measure,
    subcluster_assignment,
    trace_average,
    triangular_shift_cdf,
)
from zeemanlab.szego_measures import TestFunction

from reference import (
    band_norm,
    empirical_cdf,
    exact_block_spectrum,
    enumerate_shell,
    ks_distance as reference_ks_distance,
    ks_two_sample,
    multishell_states,
    nearest_center_assignment,
    per_m_assemble,
    per_m_band_blocks,
    per_m_cluster,
    per_m_eigenvalues,
    swapped_label_spectrum,
    to_dense,
)


def _para_schedule(B=1.0, q=17.0):
    return ScalingSchedule(B=B, q=q, include_diamagnetic=False)


# ---------------------------------------------------------------------------
# cluster_eigenvalues
# ---------------------------------------------------------------------------


def test_zero_field_shifts_vanish():
    spec = cluster_eigenvalues(3, ScalingSchedule(B=0.0))
    assert np.all(spec.shifts == 0.0)


def test_paramagnetic_ladder_is_exact():
    N, B = 4, 1.5
    sched = _para_schedule(B=B)
    spec = cluster_eigenvalues(N, sched)
    lam = sched.lam(N)
    expected = np.sort(
        np.concatenate(
            [np.full(N + 1 - abs(m), -0.5 * lam * m) for m in range(-N, N + 1)]
        )
    )
    assert np.array_equal(np.sort(spec.shifts), expected)


def test_skipped_diamagnetic_ladder_is_exact_at_large_N():
    N, sched = 400, ScalingSchedule(B=1.0, q=17.0)
    assert sched.diamagnetic_negligible(N)
    m = np.arange(-N, N + 1)
    ladder = np.sort(np.repeat(-(sched.lam(N) / 2.0) * m, N + 1 - np.abs(m)))
    assert np.array_equal(cluster_eigenvalues(N, sched).shifts, ladder)


def _dense_cluster(N, sched, mode, delta):
    """eigvalsh of each m-block of the full matrix, filtered and ordered like the cluster."""
    if mode == "first_order":
        states, radius = enumerate_shell(N), np.inf
        dense = to_dense(shell_matrix_W(N, sched))
    else:
        states, radius = multishell_states(N, delta), cluster_radius(N)
        dense = to_dense(_band_blocks(N, delta, sched))
    ms = np.array([s.m for s in states])
    vals, labels = [], []
    for m in range(ms.min(), ms.max() + 1):
        v = np.linalg.eigvalsh(dense[np.ix_(ms == m, ms == m)])
        vals.append(v[np.abs(v) < radius])
        labels.append(np.full(len(vals[-1]), m))
    vals, labels = np.concatenate(vals), np.concatenate(labels)
    order = np.lexsort((labels, vals))
    return vals[order], labels[order]


@pytest.mark.parametrize(
    "N, mode, delta, rtol",
    [(N, "first_order", 2, 1e-14) for N in range(1, 13)]
    + [(N, "multishell", d, 1e-12) for N in (10, 12) for d in (1, 2)],
)
def test_cluster_matches_dense_eigvalsh(N, mode, delta, rtol):
    sched = ScalingSchedule(B=1.0, q=2.0)
    spec = cluster_eigenvalues(N, sched, mode=mode, delta=delta)
    vals, labels = _dense_cluster(N, sched, mode, delta)
    assert np.max(np.abs(spec.shifts - vals)) <= rtol * sched.shift_scale(N)
    assert np.array_equal(spec.subcluster_m, labels)


def test_scaled_shifts_supported_in_reported_interval():
    N, B = 12, 2.0
    sched = ScalingSchedule(B=B, q=17.0)
    spec = cluster_eigenvalues(N, sched)
    bound = B / 2.0 + spec.diamagnetic_slack + 1e-12
    assert np.max(np.abs(spec.scaled_shifts)) <= bound


def test_shift_multiset_symmetric_without_diamagnetic_term():
    spec = cluster_eigenvalues(6, _para_schedule(B=1.0))
    assert np.array_equal(np.sort(spec.shifts), np.sort(-spec.shifts))


def test_first_order_vs_multishell_default_schedule():
    N = 20
    sched = ScalingSchedule(B=1.0, q=17.0)
    first = cluster_eigenvalues(N, sched, mode="first_order")
    multi = cluster_eigenvalues(N, sched, mode="multishell", delta=2)
    tol = 1e-3 * sched.shift_scale(N)
    assert np.max(np.abs(first.shifts - multi.shifts)) <= tol


def test_first_order_vs_multishell_visible_coupling():
    # q=2 makes the diamagnetic term numerically alive; the band result
    # differs only by second-order shell mixing, well under tolerance
    N = 10
    sched = ScalingSchedule(B=1.0, q=2.0)
    first = cluster_eigenvalues(N, sched, mode="first_order")
    multi = cluster_eigenvalues(N, sched, mode="multishell", delta=2)
    gap = np.max(np.abs(first.shifts - multi.shifts))
    assert 0.0 < gap <= 1e-3 * sched.shift_scale(N)


def test_multishell_counts_cluster():
    spec = cluster_eigenvalues(8, ScalingSchedule(B=1.0, q=17.0), mode="multishell")
    assert len(spec.shifts) == 81


def test_multishell_separation_failure_raises():
    # an enormous field at a low exponent pushes eigenvalues out of the circle
    sched = ScalingSchedule(B=5e4, q=0.1)
    with pytest.raises(ClusterSeparationError):
        cluster_eigenvalues(2, sched, mode="multishell", delta=1)


def test_separation_failure_names_the_first_short_block():
    with pytest.raises(ClusterSeparationError) as err:
        cluster_eigenvalues(10, ScalingSchedule(B=1.0, q=1.0), mode="multishell")
    e = err.value
    assert (e.N, e.m, e.found, e.expected) == (10, 5, 5, 6)
    assert "block m=5" in str(e)
    # the retired per-m path fails there too
    assert per_m_cluster(10, ScalingSchedule(B=1.0, q=1.0), "multishell") is None


# ---------------------------------------------------------------------------
# one solve per (|m|, l parity), against the retired per-m path
# ---------------------------------------------------------------------------


def _operator(N, sched, mode, delta):
    return shell_matrix_W(N, sched) if mode == "first_order" else _band_blocks(N, delta, sched)


@pytest.mark.parametrize(
    "N, mode, delta", [(12, "first_order", 0), (80, "first_order", 0), (12, "multishell", 2),
                       (10, "multishell", 3), (400, "first_order", 0)]
)
def test_one_dsbevd_call_per_wide_band(N, mode, delta, monkeypatch):
    sched = ScalingSchedule(B=1.0, q=2.0 if N < 400 else 17.0)
    calls = []
    dsbevd = hydrogenic_shell._dsbevd()

    def counted(ab, **kwargs):
        calls.append(ab.shape)
        return dsbevd(ab, **kwargs)

    monkeypatch.setattr(hydrogenic_shell, "_dsbevd", lambda: counted)
    cluster_eigenvalues(N, sched, mode=mode, delta=delta)
    op = _operator(N, sched, mode, delta)
    assert calls == [ab.shape for _, ab in op.bands.values() if len(ab) > 1]
    # the per-m path solves each band of |m| > 0 twice, once for m and once for -m
    per_m = [m for (m, _), (_, ab) in per_m_band_blocks(N, delta, sched).items() if len(ab) > 1]
    assert 2 * len(calls) - per_m.count(0) == len(per_m)
    assert (len(calls) == 0) == (N == 400)


@pytest.mark.parametrize(
    "N, sched, mode, delta",
    [
        (1, ScalingSchedule(B=1.0), "first_order", 0),
        (1, ScalingSchedule(B=1.0, q=2.0), "first_order", 0),
        (8, ScalingSchedule(B=2.0), "first_order", 0),
        (40, ScalingSchedule(B=1.0), "first_order", 0),
        (400, ScalingSchedule(B=1.0), "first_order", 0),
        (4, ScalingSchedule(B=1.5, include_diamagnetic=False), "first_order", 0),
        (10, ScalingSchedule(B=1.0), "multishell", 2),
        (12, ScalingSchedule(B=2.0, q=2.0, include_diamagnetic=False), "multishell", 3),
        (3, ScalingSchedule(B=0.0), "multishell", 1),
    ],
)
def test_ladder_spectra_have_the_bits_of_the_per_m_path(N, sched, mode, delta):
    op = _operator(N, sched, mode, delta)
    assert all(len(ab) == 1 for _, ab in op.bands.values())
    bands = per_m_band_blocks(N, delta if mode == "multishell" else 0, sched)
    for m, w in op.block_spectra():
        assert w.tobytes() == per_m_eigenvalues(bands, m).tobytes()
    spec = cluster_eigenvalues(N, sched, mode=mode, delta=delta)
    shifts, labels = per_m_cluster(N, sched, mode, delta)
    assert spec.shifts.tobytes() == shifts.tobytes()
    assert spec.subcluster_m.tobytes() == labels.tobytes()


@pytest.mark.parametrize("N", [0, 1, 5, 40])
def test_L3_spectra_have_the_bits_of_the_per_m_path(N):
    bands = per_m_assemble(N, 0, lambda Np, m: float(m), 0.0)
    for m, w in shell_matrix_L3(N).block_spectra():
        assert w.tobytes() == per_m_eigenvalues(bands, m).tobytes()
        assert w.tolist() == [float(m)] * (N + 1 - abs(m))


@pytest.mark.parametrize(
    "N, mode, delta",
    [*((N, "first_order", 0) for N in range(2, 13))]
    + [(10, "multishell", 1), (10, "multishell", 2), (10, "multishell", 3), (12, "multishell", 2),
       (32, "multishell", 2), (24, "multishell", 3), (48, "multishell", 3)],
)
def test_assembled_clusters_within_band_rounding_of_the_per_m_path(N, mode, delta):
    # moving the ladder term out of the band changes where it is rounded; the
    # shifts stay within eps ||band||, the band's largest entry times its rows
    sched = ScalingSchedule(B=1.0, q=2.0)
    op = _operator(N, sched, mode, delta)
    assert any(len(ab) > 1 for _, ab in op.bands.values())
    bands = per_m_band_blocks(N, delta, sched)
    spectra = dict(op.block_spectra())
    # block 0 has no ladder term: the same band, the same bits
    assert spectra[0].tobytes() == per_m_eigenvalues(bands, 0).tobytes()
    spec = cluster_eigenvalues(N, sched, mode=mode, delta=delta)
    shifts, labels = per_m_cluster(N, sched, mode, delta)
    assert np.array_equal(spec.subcluster_m, labels)
    floor = np.finfo(float).eps * max(band_norm(bands, m) for m, _ in bands)
    assert np.max(np.abs(spec.shifts - shifts)) <= floor


@pytest.mark.parametrize("N", [40, 80])
def test_first_order_blocks_within_band_rounding_of_their_exact_spectra(N):
    # here the per-m path strays up to about 2 eps ||band|| from the exact
    # eigenvalues, since dsbevd works on the ladder-shifted block; the
    # library solves the m-free band and adds the ladder term once
    sched = ScalingSchedule(B=1.0, q=2.0)
    op = shell_matrix_W(N, sched)
    bands = per_m_band_blocks(N, 0, sched)
    spectra = dict(op.block_spectra())
    for m in (1, -1, N // 2, -(N // 2), N):
        exact = exact_block_spectrum(op, m)
        assert np.max(np.abs(spectra[m] - exact)) <= np.finfo(float).eps * band_norm(bands, m), m


def test_cluster_requires_positive_N():
    with pytest.raises(ValueError):
        cluster_eigenvalues(0, ScalingSchedule(B=1.0))


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        cluster_eigenvalues(2, ScalingSchedule(B=1.0), mode="exact")


# ---------------------------------------------------------------------------
# scaled shift measure
# ---------------------------------------------------------------------------


def test_scaled_measure_n1_atoms():
    spec = cluster_eigenvalues(1, _para_schedule(B=2.0))
    sample = scaled_shift_measure(spec)
    assert np.allclose(sample, [-0.5, 0.0, 0.0, 0.5], atol=1e-15)


def test_scaled_measure_zero_field_point_mass():
    spec = cluster_eigenvalues(3, ScalingSchedule(B=0.0))
    sample = scaled_shift_measure(spec)
    assert len(sample) == 16
    assert np.all(sample == 0.0)


@given(st.integers(min_value=1, max_value=12))
@settings(deadline=None, max_examples=8)
def test_scaled_measure_normalized(N):
    # equal weights: the law is normalized by the sample holding all
    # (N+1)^2 scaled shifts, sorted and not copied
    spec = cluster_eigenvalues(N, _para_schedule(B=1.0))
    sample = scaled_shift_measure(spec)
    assert sample is spec.scaled_shifts
    assert len(sample) == (N + 1) ** 2
    assert np.all(sample[1:] >= sample[:-1])


# ---------------------------------------------------------------------------
# subcluster assignment
# ---------------------------------------------------------------------------


def test_subcluster_sizes_small_shell():
    spec = cluster_eigenvalues(2, ScalingSchedule(B=1.0, q=17.0))
    dist = subcluster_assignment(spec)
    assert dist.shape == spec.scaled_shifts.shape
    m, counts = np.unique(spec.subcluster_m, return_counts=True)
    assert dict(zip(m.tolist(), counts.tolist())) == {-2: 1, -1: 2, 0: 3, 1: 2, 2: 1}


def test_subcluster_distances_without_diamagnetic_term():
    spec = cluster_eigenvalues(5, _para_schedule(B=1.0))
    dist = subcluster_assignment(spec)
    center = -(1.0 / 2.0) * spec.subcluster_m / 6.0
    np.testing.assert_array_equal(dist, np.abs(spec.scaled_shifts - center))
    # one rounding step comes from rescaling the raw shifts
    assert np.max(dist) <= 1e-15


def test_subcluster_center_distance_default_schedule():
    N, B = 20, 1.0
    spec = cluster_eigenvalues(N, ScalingSchedule(B=B, q=17.0))
    assert np.max(subcluster_assignment(spec)) <= 1e-6 * B


def test_subcluster_assignment_matches_brute_force_argmin():
    N, B = 12, 1.0
    spec = cluster_eigenvalues(N, ScalingSchedule(B=B, q=2.0))
    centers_m = np.arange(-N, N + 1)
    centers = -(B / 2.0) * centers_m / (N + 1)
    gaps = np.abs(spec.scaled_shifts[:, None] - centers)
    nearest = centers_m[np.argmin(gaps, axis=1)]
    dist = subcluster_assignment(spec)
    np.testing.assert_array_equal(nearest, spec.subcluster_m)
    np.testing.assert_array_equal(dist, np.min(gaps, axis=1))


def _agrees_with_nearest_center_oracle(spec):
    """Hold the labels to the rounding assignment; False where the oracle rejects."""
    try:
        groups = nearest_center_assignment(spec)
    except SubclusterOverlapError:
        return False
    # where the oracle accepts, the library accepts too
    dist = subcluster_assignment(spec)
    N, B = spec.N, spec.schedule.B
    assert list(groups) == list(range(-N, N + 1))
    for m, shifts in groups.items():
        np.testing.assert_array_equal(shifts, spec.scaled_shifts[spec.subcluster_m == m])
    worst = max(
        float(np.max(np.abs(v + (B / 2.0) * m / (N + 1))))
        for m, v in groups.items()
        if len(v)
    )
    assert float(np.max(dist)) == worst
    return True


@pytest.mark.parametrize("B", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("q", [2.0, 17.0])
@pytest.mark.parametrize("mode", ["first_order", "multishell"])
def test_subcluster_labels_are_the_nearest_centers_small_shells(mode, q, B):
    schedule = ScalingSchedule(B=B, q=q)
    agreed = 0
    for N in range(1 if mode == "first_order" else 2, 31):
        try:
            spec = cluster_eigenvalues(N, schedule, mode=mode, delta=2)
        except ClusterSeparationError:
            continue
        agreed += _agrees_with_nearest_center_oracle(spec)
    # only N <= 3 at q = 2, B = 2 is rejected or fails to separate
    assert agreed >= 27


@pytest.mark.parametrize("B", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("N, q", [(400, 17.0), (80, 2.0)])
def test_subcluster_labels_are_the_nearest_centers_large_shells(N, q, B):
    assert _agrees_with_nearest_center_oracle(cluster_eigenvalues(N, ScalingSchedule(B=B, q=q)))


def test_subcluster_assignment_rejects_a_label_off_its_block_center():
    spec = swapped_label_spectrum()
    # the rounding oracle regroups the shifts by their nearest centers
    groups = nearest_center_assignment(spec)
    assert {m: v.tolist() for m, v in groups.items()} == {-1: [0.25], 0: [0.0, 0.01], 1: [-0.24]}
    with pytest.raises(SubclusterOverlapError) as err:
        subcluster_assignment(spec)
    assert (err.value.shift, err.value.distance) == (-0.24, 0.24)
    assert "from its block's ladder center" in str(err.value)


def test_subcluster_overlap_error_reports_distance():
    spec = cluster_eigenvalues(2, _para_schedule(B=1.0))
    # corrupt one scaled shift so it lands midway between two centers
    spec.scaled_shifts[0] = spec.scaled_shifts[0] + 1.0 / 12.0
    with pytest.raises(SubclusterOverlapError) as err:
        subcluster_assignment(spec)
    assert err.value.distance >= err.value.allowed


def test_subcluster_needs_positive_field():
    spec = cluster_eigenvalues(2, ScalingSchedule(B=0.0))
    with pytest.raises(ValueError):
        subcluster_assignment(spec)


# ---------------------------------------------------------------------------
# trace averages and Riemann sums
# ---------------------------------------------------------------------------


def test_trace_average_constant_is_one():
    assert trace_average(17, 1.3, lambda x: 1.0) == pytest.approx(1.0, abs=1e-14)


def test_trace_average_odd_vanishes():
    assert trace_average(23, 2.0, lambda x: x) == pytest.approx(0.0, abs=1e-14)


def test_trace_average_square_limit():
    # closed value N(N+2)/(6(N+1)^2) at B=2 converges to 1/6
    for N in (50, 400):
        got = trace_average(N, 2.0, lambda x: x * x)
        assert got == pytest.approx(N * (N + 2) / (6.0 * (N + 1) ** 2), rel=1e-12, abs=0)
    assert trace_average(4000, 2.0, lambda x: x * x) == pytest.approx(1.0 / 6.0, abs=1e-5)


def test_trace_average_square_vs_quadrature_oracle():
    u = np.linspace(-1.0, 1.0, 200001)
    oracle = np.trapezoid(u * u * (1.0 - np.abs(u)), u)
    assert trace_average(2000, 2.0, lambda x: x * x) == pytest.approx(oracle, abs=1e-6)


def _trace_average_by_point(N, B, rho):
    # the retired loop: rho called on one ladder point at a time
    m = np.arange(-N, N + 1)
    mult = (N + 1 - np.abs(m)).astype(float)
    vals = np.asarray([rho(x) for x in -(B / 2.0) * m / (N + 1)], dtype=float)
    return float(np.sum(mult * vals)) / (N + 1) ** 2


@pytest.mark.parametrize("B", [0.0, 1.0, 2.0, 3.7])
@pytest.mark.parametrize("N", [1, 40, 1000])
def test_trace_average_matches_per_point_loop(N, B):
    rhos = [TestFunction.monomial(k) for k in range(13)] + [
        TestFunction.polynomial([0.5, -1.0, 0.0, 2.5]),
        lambda x: np.interp(x, [-1.0, 0.0, 0.3, 2.0], [0.2, 1.0, -0.4, 3.0]),
        lambda x: 1.0,
    ]
    for rho in rhos:
        assert trace_average(N, B, rho) == _trace_average_by_point(N, B, rho)


def test_trace_identity_against_matrix_functional_calculus():
    # trace_average must reproduce (1/d_N) Tr Q(-(B/2) h L3) for polynomials
    N, B = 9, 1.7
    ell3 = np.diag(to_dense(shell_matrix_L3(N)))
    eigs = -(B / 2.0) / (N + 1) * ell3
    rng = np.random.default_rng(1)
    for _ in range(5):
        coeffs = rng.standard_normal(7)
        poly = np.polynomial.Polynomial(coeffs)
        by_trace = float(np.mean(poly(eigs)))
        by_formula = trace_average(N, B, poly)
        assert by_formula == pytest.approx(by_trace, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov distances
# ---------------------------------------------------------------------------


def test_ks_identical_discrete_measures_is_zero():
    sample = np.array([-0.5, 0.0, 0.0, 0.25])

    def ref(x):
        return empirical_cdf(sample, x)

    # the previous float stands in for the left limit of each atom of ref
    assert ks_distance(sample, ref) == 0.0


def test_ks_point_mass_vs_triangular_is_half():
    assert ks_distance(np.array([0.0]), triangular_shift_cdf(1.0)) == pytest.approx(0.5, abs=1e-15)


def test_ks_zero_field_cluster_matches_its_point_mass():
    # the B = 0 law is the point mass at zero; at the previous float its
    # distribution function is its left limit, 0
    spec = cluster_eigenvalues(4, ScalingSchedule(B=0.0))
    assert ks_distance(scaled_shift_measure(spec), triangular_shift_cdf(0.0)) == 0.0


def _ladder_ks_exact(N: int, B: Fraction) -> Fraction:
    """KS distance of the paramagnetic ladder law to the triangular law, in
    rational arithmetic: weight (N+1-|m|)/(N+1)^2 at -(B/2) m/(N+1)."""

    def cdf(x):
        t = max(min(2 * x / B, Fraction(1)), Fraction(-1))
        return (1 + t) ** 2 / 2 if t <= 0 else 1 - (1 - t) ** 2 / 2

    below, d = Fraction(0), Fraction(0)
    for m in range(N, -N - 1, -1):
        x = -(B / 2) * Fraction(m, N + 1)
        above = below + Fraction(N + 1 - abs(m), (N + 1) ** 2)
        # the triangular law has no atoms: its left limit is cdf(x)
        d = max(d, abs(above - cdf(x)), abs(below - cdf(x)))
        below = above
    return d


@pytest.mark.parametrize("B", [Fraction(1, 2), Fraction(1), Fraction(2)])
def test_ladder_ks_is_half_over_N_plus_1_in_rational_arithmetic(B):
    for N in range(1, 31):
        assert _ladder_ks_exact(N, B) == Fraction(1, 2 * (N + 1))


def test_ks_paramagnetic_ladder_is_half_over_N_plus_1():
    # the rational value above, to 1e-13 relative: the step heights k/n
    # are exact, so only the scaled shifts and the reference carry rounding
    off = []
    for B in (0.5, 1.0, 2.0):
        cdf = triangular_shift_cdf(B)
        for N in [*range(1, 61), 100, 200, 400, 800]:
            d = ks_distance(scaled_shift_measure(cluster_eigenvalues(N, _para_schedule(B=B))), cdf)
            exact = 1.0 / (2 * (N + 1))
            if abs(d - exact) > 1e-13 * exact:
                off.append((B, N, abs(d - exact) / exact))
    assert not off


def test_ks_bounds():
    assert ks_distance(np.array([5.0]), triangular_shift_cdf(1.0)) == pytest.approx(1.0)


@pytest.mark.parametrize("block", [1, 3, spectral_cluster._KS_BLOCK])
@pytest.mark.parametrize("edge", [1, 2])
def test_ks_of_a_sample_with_a_descent_past_a_block_edge_is_value_error(block, edge, monkeypatch):
    # the only descent is between the last entry of a block and the first
    # entry past it, the one entry the blocks share
    monkeypatch.setattr(spectral_cluster, "_KS_BLOCK", block)
    sample = np.linspace(-1.0, 1.0, 3 * block + 5)
    k = edge * block
    sample[k], sample[k + 1] = sample[k + 1], sample[k]
    assert np.count_nonzero(np.diff(sample) < 0) == 1
    with pytest.raises(ValueError, match="sorted"):
        ks_distance(sample, triangular_shift_cdf(2.0))


def test_ks_of_empty_sample_is_value_error():
    with pytest.raises(ValueError, match="non-empty"):
        ks_distance(np.array([]), triangular_shift_cdf(1.0))


@given(
    st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False), min_size=1, max_size=20)
)
@settings(deadline=None, max_examples=25)
def test_ks_in_unit_interval(xs):
    d = ks_distance(np.sort(xs), triangular_shift_cdf(2.0))
    assert 0.0 <= d <= 1.0


@given(
    st.lists(st.sampled_from([-0.75, -0.5, -0.1, 0.0, 0.3, 0.5, 2.0]), min_size=1, max_size=30),
    st.sampled_from([0.0, 0.5, 2.0]),
)
@settings(deadline=None, max_examples=50)
def test_ks_equals_searchsorted_oracle_on_tied_samples(xs, B):
    # F_n by searchsorted at every atom and at its previous float, against
    # the tie groups of ks_distance; both give the same step heights k/n
    sample = np.sort(xs)
    cdf = triangular_shift_cdf(B)
    atoms = np.unique(sample)
    points = np.concatenate([atoms, np.nextafter(atoms, -np.inf)])
    expected = np.max(np.abs(empirical_cdf(sample, points) - cdf(points)))
    assert ks_distance(sample, cdf) == expected


# ties, signed zeros and neighbouring floats, where a step of one sample
# sits just below an atom of the other
_TWO_SAMPLE_VALUES = [
    -0.5, np.nextafter(-0.5, -np.inf), -0.0, 0.0, -5e-324, 5e-324,
    0.3, np.nextafter(0.3, -np.inf), np.nextafter(0.3, np.inf), 1.0,
]
_two_sample = st.lists(
    st.one_of(st.sampled_from(_TWO_SAMPLE_VALUES), st.floats(-1, 1)), min_size=1, max_size=40
)


@given(_two_sample, _two_sample)
@settings(deadline=None, max_examples=200)
def test_two_sample_ks_through_ks_distance_is_the_pooled_form(xs, ys):
    # liouville_pushforward_check takes the distance between its two samples
    # as ks_distance against the second one's distribution function
    a, b = np.sort(xs), np.array(ys)
    ref = np.sort(b)
    got = ks_distance(a, lambda x: np.searchsorted(ref, x, side="right") / len(ref))
    assert got == ks_two_sample(a, b)


def _assert_ks_bits(sample, *cdfs):
    for cdf in cdfs:
        assert ks_distance(sample, cdf).hex() == reference_ks_distance(sample, cdf).hex()


def _sample_cdf(sample):
    ref = np.sort(sample)
    return lambda x: np.searchsorted(ref, x, side="right") / len(ref)


def test_blocked_ks_over_several_blocks_is_the_one_array_form():
    rng = np.random.default_rng(17)
    n = 3 * spectral_cluster._KS_BLOCK + 5
    sample = np.sort(rng.triangular(-1.0, 0.0, 1.0, n))
    assert len(np.unique(sample)) == n
    other = _sample_cdf(rng.triangular(-1.0, 0.0, 1.0, 1000))
    _assert_ks_bits(sample, triangular_shift_cdf(2.0), triangular_shift_cdf(0.0), other)


@pytest.mark.parametrize(
    "block", [1, 3, 8, spectral_cluster._KS_BLOCK, 4 * spectral_cluster._KS_BLOCK]
)
def test_blocked_ks_with_ties_at_block_edges_is_the_one_array_form(block, monkeypatch):
    monkeypatch.setattr(spectral_cluster, "_KS_BLOCK", block)
    atoms = np.linspace(-1.0, 1.0, 2 * block + 3)
    counts = np.ones(len(atoms), dtype=int)
    for edge in (block, 2 * block):
        # tie runs on both atoms next to each block edge
        counts[edge - 1], counts[edge] = 4, 3
    sample = np.repeat(atoms, counts)
    _assert_ks_bits(
        sample, triangular_shift_cdf(2.0), triangular_shift_cdf(0.0), _sample_cdf(atoms[::2])
    )


@pytest.mark.parametrize("block", [1, 2, spectral_cluster._KS_BLOCK])
@pytest.mark.parametrize("sample", [np.full(1000, 0.25), np.array([0.3]), np.array([-0.0])])
def test_blocked_ks_all_tied_and_single_entry_is_the_one_array_form(sample, block, monkeypatch):
    monkeypatch.setattr(spectral_cluster, "_KS_BLOCK", block)
    _assert_ks_bits(sample, triangular_shift_cdf(1.0), triangular_shift_cdf(0.0))


@pytest.mark.parametrize(
    "block", [64, 800, 801, spectral_cluster._KS_BLOCK, 4 * spectral_cluster._KS_BLOCK]
)
def test_blocked_ks_of_the_ladder_is_the_one_array_form(block, monkeypatch):
    # N = 400: 801 atoms with N + 1 - |m| ties each
    sample = scaled_shift_measure(cluster_eigenvalues(400, _para_schedule(B=1.0)))
    assert len(np.unique(sample)) == 801
    monkeypatch.setattr(spectral_cluster, "_KS_BLOCK", block)
    _assert_ks_bits(sample, triangular_shift_cdf(1.0), triangular_shift_cdf(2.0))


@pytest.mark.parametrize("block", [16, spectral_cluster._KS_BLOCK])
def test_blocked_ks_keeps_a_nan_from_cdf(block, monkeypatch):
    monkeypatch.setattr(spectral_cluster, "_KS_BLOCK", block)
    sample = np.linspace(-1.0, 1.0, 100)
    tri = triangular_shift_cdf(2.0)

    def nan_at(bad):
        def cdf(x):
            out = np.array(tri(x))
            out[np.isin(x, bad)] = np.nan
            return out

        return cdf

    # a NaN at an atom, in the first block, in a later one or in all later ones
    for bad in ([sample[3]], [sample[90]], sample[40:]):
        cdf = nan_at(bad)
        assert np.isnan(ks_distance(sample, cdf))
        _assert_ks_bits(sample, cdf)
    # a NaN only just below an atom: the one-array form reports the sup at the atoms
    _assert_ks_bits(sample, nan_at([np.nextafter(sample[70], -np.inf)]))


def test_ks_two_sample_identical_and_disjoint():
    a = np.array([0.0, 1.0, 2.0])
    assert ks_two_sample(a, a.copy()) == 0.0
    assert ks_two_sample(a, a + 10.0) == 1.0


def test_triangular_cdf_zero_field_degenerates():
    cdf = triangular_shift_cdf(0.0)
    assert cdf(np.array([-1e-9]))[0] == 0.0
    assert cdf(np.array([0.0]))[0] == 1.0


def test_triangular_cdf_symmetry():
    cdf = triangular_shift_cdf(1.0)
    xs = np.linspace(-0.5, 0.5, 101)
    assert np.allclose(cdf(xs) + cdf(-xs), 1.0, atol=1e-14)
