"""Agreement of the three limit-functional representations."""

import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zeemanlab import szego_measures
from zeemanlab.szego_measures import (
    McEstimate,
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
    _SAMPLE_BLOCK,
    _inverse_arrays,
    kepler_constants,
    orbit_point_from_elements,
    sample_index_batch,
)
from zeemanlab.spectral_cluster import ks_distance, triangular_shift_cdf

from reference import (
    StreamPlantingGenerator,
    elements_from_angles,
    ks_two_sample,
    sample_index_batch as reference_sample_index_batch,
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


def test_testfunction_validation():
    with pytest.raises(ValueError):
        TestFunction.monomial(13)
    with pytest.raises(ValueError):
        TestFunction.polynomial([])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_polynomial_refuses_non_finite_coefficients(bad):
    with pytest.raises(ValueError, match=f"coefficient 1 is {bad!r}, not a finite number"):
        TestFunction.polynomial([1.0, bad, 2.0])


def test_polynomial_takes_at_most_63_coefficients():
    # the 32-node rules integrate degree 62 exactly, not degree 63
    assert TestFunction.polynomial(np.ones(63))(np.array([1.0]))[0] == 63.0
    with pytest.raises(ValueError, match="need 1 to 63 coefficients, got 64"):
        TestFunction.polynomial(np.ones(64))


def test_coefficients_are_ascending():
    assert TestFunction.monomial(0).coefficients == (1.0,)
    assert TestFunction.monomial(3).coefficients == (0.0, 0.0, 0.0, 1.0)
    assert TestFunction.polynomial([1, -2]).coefficients == (1.0, -2.0)


def test_angle_state_validation_and_ell3():
    # the angle-density form integrates over cos(psi) cos(theta) = ell3
    el = elements_from_angles(0.4, 1.0, 0.1, 5.0, beta=2.0)
    assert el.ell[2] == pytest.approx(np.cos(0.4) * np.cos(1.0))
    with pytest.raises(ValueError):
        elements_from_angles(2.0, 1.0, 0.0, 0.0, beta=0.0)


def test_angle_state_links_to_orbit_geometry():
    pt = orbit_point_from_elements(elements_from_angles(0.7, 2.0, 1.2, 0.3, beta=4.0))
    _, ell, _ = kepler_constants(pt)
    assert ell[2] == pytest.approx(np.cos(0.7) * np.cos(2.0), abs=1e-12)


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
    xs = [-10.0, -2.0, -1.0, -0.6, 0.6, 1.0, 2.0, 10.0]
    ys = [0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0]
    bump = lambda x: np.interp(x, xs, ys)
    assert limit_triangular(bump, B) == pytest.approx(0.0, abs=1e-12)
    assert limit_angle_density(bump, B) == pytest.approx(0.0, abs=1e-10)
    mc = limit_quadric_mc(bump, B, 50000, np.random.default_rng(1))
    assert mc.value == 0.0 and mc.std_error == 0.0


# ---------------------------------------------------------------------------
# exactness of the fixed Gauss rules
# ---------------------------------------------------------------------------


def _triangular_moments(B, degree):
    """Exact integral of |(B/2) u|^k (1 - |u|) du over [-1, 1], k = 0..degree."""
    r = Fraction(B) / 2
    return [2 * r**k / ((k + 1) * (k + 2)) for k in range(degree + 1)]


@pytest.mark.parametrize("B", [0.5, 2.0, 20.0, 100.0])
@pytest.mark.parametrize("limit, rtol", [(limit_triangular, 1e-14), (limit_angle_density, 5e-14)])
def test_limits_are_exact_for_monomials(limit, rtol, B):
    for k, moment in enumerate(_triangular_moments(B, 12)):
        got = limit(TestFunction.monomial(k), B)
        # odd monomials integrate to 0, up to rounding of terms of the size of |x|^k
        want = float(moment) if k % 2 == 0 else 0.0
        assert abs(got - want) <= rtol * float(moment), (k, got, want)
        if limit is limit_triangular and k % 2:
            assert abs(got) <= 1e-13


@pytest.mark.parametrize("B", [2.0, 20.0])
@pytest.mark.parametrize("limit, rtol", [(limit_triangular, 1e-14), (limit_angle_density, 5e-14)])
def test_limits_are_exact_at_degree_62(limit, rtol, B):
    rng = np.random.default_rng(5)
    for coeffs in (np.eye(63)[62], rng.standard_normal(63)):
        moments = _triangular_moments(B, 62)
        want = sum(Fraction(c) * m for k, (c, m) in enumerate(zip(coeffs, moments)) if k % 2 == 0)
        size = sum(abs(Fraction(c)) * m for c, m in zip(coeffs, moments))
        got = limit(TestFunction.polynomial(coeffs), B)
        assert abs(Fraction(got) - want) <= Fraction(rtol) * size


@pytest.mark.parametrize("B", [2.0, 20.0])
@pytest.mark.parametrize("limit", [limit_triangular, limit_angle_density])
def test_limits_ask_for_32_gauss_nodes_only(monkeypatch, limit, B):
    asked = []
    leggauss = np.polynomial.legendre.leggauss

    def recording(n):
        asked.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", recording)
    # at B = 20 rounding kept a node-doubling loop from settling on x^6
    got = limit(TestFunction.monomial(6), B)
    assert asked == [32, 32]
    assert got == pytest.approx(2.0 * (B / 2.0) ** 6 / 56.0, rel=5e-14)


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
    check = liouville_pushforward_check(n, np.random.default_rng(11), TestFunction.monomial(2), 2.0)
    assert check.max_pointwise_gap <= 1e-9
    # pointwise agreement to delta pins the sample law up to the atoms within
    # delta of one point: one or two at delta = 12 eps
    a, b = reference_sample_index_batch(np.random.default_rng(11), n)
    keep = (1.0 - a[:, 3]) > 1e-12
    a, b = a[keep], b[keep]
    x, p = _inverse_arrays(a, b)
    ell3_index = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    ell3_phase = x[:, 0] * p[:, 1] - x[:, 1] * p[:, 0]
    assert ks_two_sample(ell3_phase, ell3_index) <= 3.0 / n
    assert check.ks_vs_triangular <= 0.005
    assert check.skipped_fraction <= 1e-6


def _retired_pushforward_check(n_samples, rng, keep_samples=20000):
    """liouville_pushforward_check as it was before it kept only the
    columns of the inverse lift that ell3 needs, with the moment of x^2 at
    B = 2 that limit_quadric_mc took from a second draw."""
    a, b = sample_index_batch(rng, n_samples)
    vals = (-(2.0 / 2.0) * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])) ** 2
    sem = float(vals.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    moment = McEstimate(value=float(vals.mean()), std_error=sem, n_samples=n_samples)
    keep = (1.0 - a[:, 3]) > 1e-12
    skipped = int(n_samples - keep.sum())
    a, b = a[keep], b[keep]
    ell3_index = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    x, p = _inverse_arrays(a, b)
    ell3_phase = x[:, 0] * p[:, 1] - x[:, 1] * p[:, 0]
    gap = float(np.max(np.abs(ell3_phase - ell3_index))) if len(a) else 0.0
    ks_tri = ks_distance(np.sort(ell3_phase), triangular_shift_cdf(2.0))
    keep = min(keep_samples, len(a))
    return PushforwardCheck(
        max_pointwise_gap=gap,
        ks_vs_triangular=ks_tri,
        skipped_fraction=skipped / n_samples,
        sample_ell3_index=ell3_index[:keep].copy(),
        sample_ell3_phase=ell3_phase[:keep].copy(),
        moment=moment,
    )


def _poles(rows):
    """Plants that replace the first vectors of the given stream rows by
    multiples of e4, or by points within 1e-7 of it, so that those index
    vectors land on (or next to) the north pole."""
    return {
        row: (lambda drawn, i=i: np.r_[1e-7 * (i % 2), 0.0, 0.0, 2.0 + i, drawn[4:]])
        for i, row in enumerate(rows)
    }


def _field_bytes(check):
    values = {f.name: getattr(check, f.name) for f in dataclasses.fields(check)}
    values["moment"] = dataclasses.astuple(values["moment"])
    return {k: np.asarray(v).tobytes() for k, v in values.items()}


@pytest.mark.parametrize("seed", [1, 2, 3, 11])
@pytest.mark.parametrize(
    "n, kept",
    [(1, 1), (5000, 0), (200000, 20000)]
    + [(3 * _SAMPLE_BLOCK + 5, 20000), (6 * _SAMPLE_BLOCK + 5, 20000)],
)
def test_pushforward_is_the_retired_check(monkeypatch, seed, n, kept):
    # kept = 0 and 1 reach the edges of the returned sample columns
    monkeypatch.setattr(szego_measures, "_KEPT_SAMPLES", kept)
    got = liouville_pushforward_check(n, np.random.default_rng(seed), TestFunction.monomial(2), 2.0)
    want = _retired_pushforward_check(n, np.random.default_rng(seed), kept)
    assert len(got.sample_ell3_index) == len(got.sample_ell3_phase) == kept
    assert _field_bytes(got) == _field_bytes(want)


@pytest.mark.parametrize("rows", [[0], [3, 17, 4999], list(range(0, 5000, 7))])
def test_pushforward_with_pole_rows_is_the_retired_check(rows):
    got = liouville_pushforward_check(
        5000, StreamPlantingGenerator(4, _poles(rows)), TestFunction.monomial(2), 2.0
    )
    want = _retired_pushforward_check(5000, StreamPlantingGenerator(4, _poles(rows)))
    assert got.skipped_fraction == len(rows) / 5000
    assert _field_bytes(got) == _field_bytes(want)


def test_pushforward_with_pole_and_degenerate_rows_beyond_the_first_block_is_the_retired_check(
    monkeypatch,
):
    blk = _SAMPLE_BLOCK
    n = 3 * blk + 5
    # every kept row is compared
    monkeypatch.setattr(szego_measures, "_KEPT_SAMPLES", n)
    # stream rows 0..n-1 are the index rows: four pole rows, then a vanishing
    # first vector and a parallel pair
    poles = [blk, blk + 1, 2 * blk + 7, n - 1]
    plants = _poles(poles)
    plants[2 * blk + 3] = lambda row: np.r_[np.zeros(4), row[4:]]
    plants[3 * blk] = lambda row: np.r_[row[:4], 3.0 * row[:4]]
    gen, retired_gen = StreamPlantingGenerator(4, plants), StreamPlantingGenerator(4, plants)
    got = liouville_pushforward_check(n, gen, TestFunction.monomial(2), 2.0)
    want = _retired_pushforward_check(n, retired_gen, n)
    # two rows redrawn
    assert gen.drawn == retired_gen.drawn == n + 2
    assert got.skipped_fraction == len(poles) / n
    assert _field_bytes(got) == _field_bytes(want)


def test_mc_over_several_sampler_blocks_has_the_bits_of_the_full_pairs():
    n = 3 * _SAMPLE_BLOCK + 5
    rho = TestFunction.polynomial([0.5, -1.0, 3.0])
    got = limit_quadric_mc(rho, 1.5, n, np.random.default_rng(8))
    a, b = reference_sample_index_batch(np.random.default_rng(8), n)
    vals = rho(-(1.5 / 2.0) * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]))
    assert got.value == float(vals.mean())
    assert got.std_error == float(vals.std(ddof=1) / np.sqrt(n))


_LEAF = szego_measures._SUM_LEAF


# numpy sums a contiguous array pairwise, halving it at multiples of 8; if a
# numpy release moves that split, the blockwise sums of _average fail here
@pytest.mark.parametrize(
    "n",
    [1, 2, 7, 8, 9, 127, 128, 129, _LEAF - 1, _LEAF, _LEAF + 1, _LEAF + 8, 2 * _LEAF + 11]
    + [3 * _SAMPLE_BLOCK + 5, 100003, 1000000],
)
@pytest.mark.parametrize(
    "rho", [TestFunction.polynomial([0.5, -1.0, 3.0, 0.25]), TestFunction.monomial(2)]
)
def test_average_has_the_bits_of_one_array(n, rho):
    ell3 = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    got = szego_measures._average(rho, 1.5, ell3)
    vals = rho(-(1.5 / 2.0) * ell3)
    assert got.value == float(vals.mean())
    assert got.std_error == (float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0)
    assert got.n_samples == n


def _traced_peak_mib(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# The sampler keeps only the per-row outputs: the pushforward columns
# (17 bytes a row) and the pairs (a, b) alone are 16 and 61 MiB.  The
# moment, the gap and the KS step work in blocks beside them, and
# ks_distance walks the sorted sample in place.  One full-size (n, 4)
# temporary, a resident first vector per row, an n-long temporary after the
# sampler, a sorted copy (8 MiB) in ks_distance, or its cdf on all 10^6
# atoms at once would cross these bounds.
@pytest.mark.parametrize(
    "name, bound_mib",
    [("pushforward", 22), ("mc", 12), ("sample", 72), ("sample_columns", 24), ("ks", 3)],
)
def test_peak_memory_at_a_million_samples(name, bound_mib):
    n = 1000000
    rng = np.random.default_rng(3)
    if name == "ks":
        sample = np.sort(rng.random(n))
        assert len(np.unique(sample)) == n
    runs = {
        "pushforward": lambda: liouville_pushforward_check(n, rng, TestFunction.monomial(2), 2.0),
        "mc": lambda: limit_quadric_mc(TestFunction.monomial(2), 2.0, n, rng),
        "sample": lambda: sample_index_batch(rng, n),
        "sample_columns": lambda: sample_index_batch(rng, n, szego_measures._pushforward_columns),
        "ks": lambda: ks_distance(sample, triangular_shift_cdf(2.0)),
    }
    assert _traced_peak_mib(runs[name]) <= bound_mib


def test_pole_row_at_a_million_samples_is_compacted_in_place():
    # one stream row puts a at e4; dropping it from both ell3 columns by a
    # mask would copy them (16 MiB), the compaction moves rows in blocks
    n = 1000000
    plants = {5: lambda row: np.r_[0.0, 0.0, 0.0, 1.0, row[4:]]}
    rho = TestFunction.monomial(2)
    got = []

    def run(plants):
        got.append(liouville_pushforward_check(n, StreamPlantingGenerator(7, plants), rho, 2.0))

    planted, unplanted = (_traced_peak_mib(lambda: run(p)) for p in (plants, {}))
    want = _retired_pushforward_check(n, StreamPlantingGenerator(7, plants))
    assert got[0].skipped_fraction == 1 / n
    assert _field_bytes(got[0]) == _field_bytes(want)
    assert planted <= unplanted + 1.0


def test_haar_normalization_default_grid():
    assert haar_density_normalization() == pytest.approx(1.0, abs=1e-6)


def test_haar_normalization_stable_under_refinement():
    coarse = haar_density_normalization()
    fine = haar_density_normalization(2)
    assert abs(coarse - fine) <= 1e-6


def test_haar_density_nonnegative():
    psi = np.linspace(1e-3, np.pi / 2 - 1e-3, 200)
    beta = np.linspace(0, 2 * np.pi, 200)
    denom = 1.0 + np.sin(psi)[:, None] * np.cos(beta)[None, :]
    assert np.all(denom > 0.0)


def test_beta_marginalization_identity():
    assert beta_marginalization_gap() <= 1e-8
