"""Shell enumeration, matrix elements, and band assembly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_genlaguerre, lpmv, roots_legendre

from zeemanlab.hydrogenic_shell import (
    _band_blocks,
    _cross_shell_r2,
    _dsbevd,
    ScalingSchedule,
    ShellMatrix,
    cluster_radius,
    radial_integral_r2,
    radial_integral_r2_cross,
    shell_energy,
    shell_matrix_L3,
    shell_matrix_rho2,
    shell_matrix_W,
)
from zeemanlab.spectral_cluster import cluster_eigenvalues

from reference import (
    LadderSchedule,
    angular_cos2_element,
    angular_sin2_element,
    banded_solver_spectrum,
    enumerate_shell,
    ladder_coefficient,
    multishell_states,
    radial_integral,
    to_dense,
)


# ---------------------------------------------------------------------------
# independent oracles (different quadrature, different special functions)
# ---------------------------------------------------------------------------


def oracle_radial_R(n, l, r):
    """Hydrogenic radial function via scipy's generalized Laguerre."""
    from math import lgamma, exp, log

    x = 2.0 * np.asarray(r, float) / n
    c = exp(1.5 * log(2.0 / n) + 0.5 * (lgamma(n - l) - lgamma(n + l + 1)) - 0.5 * log(2 * n))
    return c * x**l * eval_genlaguerre(n - l - 1, 2 * l + 1, x) * np.exp(-x / 2.0)


def oracle_radial_integral(n, l, l2, n2=None, panels=80, nodes=48):
    """Composite Gauss-Legendre quadrature of R R' r^4 on [0, r_cut]."""
    n2 = n if n2 is None else n2
    r_cut = 4.5 * max(n, n2) ** 2 + 60.0
    t, w = roots_legendre(nodes)
    edges = np.linspace(0.0, r_cut, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        r = 0.5 * (b - a) * t + 0.5 * (a + b)
        g = oracle_radial_R(n, l, r) * oracle_radial_R(n2, l2, r) * r**4
        total += 0.5 * (b - a) * float(w @ g)
    return total


def oracle_angular_cos2(l, l2, m, nodes=64):
    """Gauss-Legendre integral of normalized associated Legendre products."""

    def norm_plm(ll, mm, s):
        from math import lgamma, exp

        c = exp(0.5 * (np.log(2 * ll + 1) - np.log(2.0)) + 0.5 * (lgamma(ll - mm + 1) - lgamma(ll + mm + 1)))
        return c * lpmv(mm, ll, s)

    s, w = roots_legendre(nodes)
    mm = abs(m)
    return float(np.sum(w * norm_plm(l, mm, s) * s**2 * norm_plm(l2, mm, s)))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_shell_smallest():
    assert [(s.l, s.m) for s in enumerate_shell(0)] == [(0, 0)]


def test_enumerate_shell_n2_length_and_l_range():
    states = enumerate_shell(2)
    assert len(states) == 9
    assert {s.l for s in states} == {0, 1, 2}


def test_enumerate_shell_m0_count_n5():
    states = enumerate_shell(5)
    assert sum(1 for s in states if s.m == 0) == 6


def test_enumerate_shell_ordering_is_m_major():
    states = enumerate_shell(3)
    keys = [(s.m, s.l) for s in states]
    assert keys == sorted(keys)


@given(st.integers(min_value=0, max_value=12))
def test_enumerate_shell_counts(N):
    states = enumerate_shell(N)
    assert len(states) == (N + 1) ** 2
    for m in range(-N, N + 1):
        assert sum(1 for s in states if s.m == m) == N + 1 - abs(m)


def test_enumerate_shell_rejects_negative():
    with pytest.raises(ValueError):
        enumerate_shell(-1)


# ---------------------------------------------------------------------------
# scaling schedule
# ---------------------------------------------------------------------------


def test_schedule_lambda_strictly_decreasing():
    sched = ScalingSchedule(B=2.0, q=17.0)
    lams = [sched.lam(N) for N in range(1, 40)]
    assert all(a > b > 0 for a, b in zip(lams, lams[1:]))


def test_schedule_rejects_negative_field():
    with pytest.raises(ValueError):
        ScalingSchedule(B=-1.0)


@pytest.mark.parametrize("B, q", [(np.nan, 17.0), (np.inf, 17.0), (1.0, np.nan), (1.0, -np.inf)])
def test_schedule_rejects_non_finite_field_and_exponent(B, q):
    with pytest.raises(ValueError, match="finite"):
        ScalingSchedule(B=B, q=q)


# ---------------------------------------------------------------------------
# radial integrals
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,l,l2,expected",
    [(1, 0, 0, 3.0), (2, 1, 1, 30.0), (2, 0, 0, 42.0)],
)
def test_radial_integral_frozen_values(n, l, l2, expected):
    assert radial_integral_r2(n, l, l2) == pytest.approx(expected, rel=1e-12)
    # the frozen values themselves come from the independent oracle
    assert oracle_radial_integral(n, l, l2) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize(
    "n,l",
    [(n, l) for n in (*range(1, 41), 81) for l in range(n)]
    + [(41, 17), (61, 0), (61, 59), (201, 0), (201, 100), (201, 198)],
)
def test_radial_diagonal_matches_oracle_and_closed_form(n, l):
    # Bethe-Salpeter closed forms for the l -> l and l -> l+2 elements
    closed = n * n * (5 * n * n + 1 - 3 * l * (l + 1)) / 2.0
    if n <= 81:  # beyond, the oracle's scipy Laguerre polynomials overflow
        # confirm the closed form against the independent quadrature first
        assert oracle_radial_integral(n, l, l) == pytest.approx(closed, rel=1e-10)
    # the exact integer sum, rounded once, and the production path agree bit for bit
    assert radial_integral(n, l, n, l) == closed
    assert radial_integral_r2(n, l, l) == closed
    assert radial_integral_r2_cross(n, l, n, l) == closed
    if l + 2 < n:
        up = 2.5 * n * n * math.sqrt((n * n - (l + 1) ** 2) * (n * n - (l + 2) ** 2))
        exact = radial_integral(n, l, n, l + 2)
        assert exact == pytest.approx(up, rel=1e-15)
        assert radial_integral_r2(n, l, l + 2) == exact
        assert radial_integral_r2(n, l + 2, l) == exact
        assert radial_integral_r2_cross(n, l + 2, n, l) == exact


def test_radial_offdiagonal_matches_oracle():
    assert radial_integral_r2(4, 1, 3) == pytest.approx(
        oracle_radial_integral(4, 1, 3), rel=1e-9
    )


def test_radial_cross_shell_matches_oracle():
    assert radial_integral_r2_cross(9, 2, 11, 2) == pytest.approx(
        oracle_radial_integral(9, 2, 2, n2=11), rel=1e-9
    )
    assert radial_integral_r2_cross(10, 3, 11, 5) == pytest.approx(
        oracle_radial_integral(10, 3, 5, n2=11), rel=1e-9
    )


def test_radial_cross_shell_large_quantum_numbers_match_oracle():
    # an element of the N = 32, delta = 2 band that node doubling lost to 0.0
    assert radial_integral_r2_cross(32, 16, 35, 18) == pytest.approx(
        oracle_radial_integral(32, 16, 18, n2=35), rel=1e-9
    )


def test_radial_cross_shell_symmetric_in_arguments():
    assert radial_integral_r2_cross(9, 2, 11, 4) == radial_integral_r2_cross(11, 4, 9, 2)


def cross_shell_labels(n, n2):
    """Every (n, l, n2, l2) with l2 - l in {-2, 0, 2}."""
    return [(n, l, n2, l2) for l in range(n) for l2 in (l - 2, l, l + 2) if 0 <= l2 < n2]


def assert_cross_shell_bits(labels):
    for args in labels:
        assert radial_integral_r2_cross(*args).hex() == radial_integral(*args).hex(), args


@pytest.mark.parametrize("n", range(1, 41))
def test_cross_shell_elements_have_the_bits_of_the_integrated_polynomial(n):
    # every element of the shells n < n2 <= n + 4, both orders of l: 9484 over all n
    assert_cross_shell_bits(a for n2 in range(n + 1, n + 5) for a in cross_shell_labels(n, n2))


@pytest.mark.parametrize("n, n2", [(64, 65), (64, 68), (81, 82), (81, 85)])
def test_cross_shell_elements_at_large_n_have_the_bits_of_the_integrated_polynomial(n, n2):
    assert_cross_shell_bits(cross_shell_labels(n, n2))


@pytest.mark.parametrize("n2", [129, 130, 132])
def test_cross_shell_elements_at_n_128_have_the_bits_of_the_integrated_polynomial(n2):
    sampled = {0, 1, 2, 41, 64, 97, 125, 126, 127}
    assert_cross_shell_bits(a for a in cross_shell_labels(128, n2) if a[1] in sampled)


def test_cross_shell_numpy_integer_arguments_give_the_same_bits(request):
    # the recurrence's integers reach thousands of bits; int64 would wrap silently
    labels = [(3, 2, 5, 0), (32, 16, 35, 18), (64, 0, 66, 0), (81, 80, 85, 82), (128, 5, 130, 3)]
    want = [radial_integral(*args).hex() for args in labels]
    request.addfinalizer(_cross_shell_r2.cache_clear)
    for kind in (np.int64, np.int32, np.uint16):
        _cross_shell_r2.cache_clear()
        got = [radial_integral_r2_cross(*map(kind, args)).hex() for args in labels]
        assert got == want, kind
        # and the table the numpy call cached serves Python ints with the same bits
        assert [radial_integral_r2_cross(*args).hex() for args in labels] == want


def test_same_shell_numpy_integer_arguments_give_the_same_bits():
    # unsigned numpy integers would wrap in the checks' l - l2
    labels = [(5, 0, 2), (5, 2, 0), (40, 17, 17), (400, 397, 399)]
    want = [radial_integral_r2(*args).hex() for args in labels]
    for kind in (np.int64, np.int32, np.uint16):
        assert [radial_integral_r2(*map(kind, args)).hex() for args in labels] == want, kind
    with pytest.raises(ValueError, match=r"\|l-l2\|=3"):
        radial_integral_r2(np.uint16(5), np.uint16(0), np.uint16(3))
    with pytest.raises(TypeError):
        radial_integral_r2(5.0, 0, 2)


@pytest.mark.parametrize("n,l,l2", [(2, 0, 1), (3, 2, 3), (1, 0, 2)])
def test_radial_integral_rejects_bad_pairs(n, l, l2):
    with pytest.raises(ValueError):
        radial_integral_r2(n, l, l2)
    # the message names the offending pair
    named = rf"\|l-l2\|={abs(l - l2)}" if l2 < n else f"got n={n}, l={l}, n2={n}, l2={l2}$"
    with pytest.raises(ValueError, match=named):
        radial_integral_r2_cross(n, l, n, l2)


# ---------------------------------------------------------------------------
# angular elements
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "l,l2,m,expected",
    [(0, 0, 0, 1.0 / 3.0), (1, 1, 0, 3.0 / 5.0), (1, 1, 1, 0.2), (1, 1, -1, 0.2)],
)
def test_angular_cos2_frozen_values(l, l2, m, expected):
    assert angular_cos2_element(l, l2, m) == pytest.approx(expected, rel=1e-13)
    assert oracle_angular_cos2(l, l2, m) == pytest.approx(expected, rel=1e-11)


@pytest.mark.parametrize("l,l2,m", [(3, 3, 2), (2, 4, 1), (5, 3, 0), (6, 6, -4)])
def test_angular_cos2_matches_oracle(l, l2, m):
    assert angular_cos2_element(l, l2, m) == pytest.approx(
        oracle_angular_cos2(l, l2, m), abs=1e-12
    )


def test_ladder_identity_consistency():
    # <l, m|cos^2|l, m> must equal c_{l,m}^2 + c_{l-1,m}^2 by construction
    assert angular_cos2_element(1, 1, 0) == pytest.approx(
        ladder_coefficient(1, 0) ** 2 + ladder_coefficient(0, 0) ** 2
    )


def test_angular_rejects_bad_arguments():
    with pytest.raises(ValueError):
        angular_cos2_element(1, 1, 2)
    with pytest.raises(ValueError):
        angular_cos2_element(1, 4, 1)


# ---------------------------------------------------------------------------
# shell matrices
# ---------------------------------------------------------------------------


def oracle_all_pairs(N, delta, schedule, e_center):
    """Dense assembly over every label pair of each m-block.

    Entries in multishell_states order: (E_N' - e_center) - (lambda/2) m on
    the diagonal, plus (lambda^2/8) radial x angular for every pair with
    |l - l2| in {0, 2}, unless the diamagnetic term is skipped.
    """
    lam = schedule.lam(N)
    coeff = 0.0 if schedule.diamagnetic_negligible(N) else lam**2 / 8.0
    states = multishell_states(N, delta)
    out = np.zeros((len(states), len(states)))
    for m in range(-(N + delta), N + delta + 1):
        idx = [i for i, s in enumerate(states) if s.m == m]
        for i in idx:
            si = states[i]
            out[i, i] = (shell_energy(si.N) - e_center) - 0.5 * lam * m
            for j in idx:
                sj = states[j]
                if coeff and abs(si.l - sj.l) in (0, 2):
                    out[i, j] += coeff * radial_integral_r2_cross(
                        si.N + 1, si.l, sj.N + 1, sj.l
                    ) * angular_sin2_element(si.l, sj.l, m)
    return out


def oracle_assemble(N, delta, levels, rho2_coeff, radial=radial_integral):
    """The retired per-element band assembler, by default on the exact integer radial path.

    ``levels[shell - (N - delta)]`` goes on the diagonal, with no ladder
    term.  ``radial`` receives its arguments in canonical order.  Returns
    the ``bands`` dict of a ShellMatrix: ``(|m|, parity) -> (labels, ab)``.
    """
    lo, hi = N - delta, N + delta
    bands = {}
    for m in range(hi + 1):
        for p in (0, 1):
            l0 = m + (m + p) % 2
            labels = [(l, Np) for l in range(l0, hi + 1, 2) for Np in range(max(lo, l), hi + 1)]
            if not labels:
                continue
            ab = np.array([[levels[Np - lo] for _, Np in labels]])
            if rho2_coeff:
                rows, cols, vals = [], [], []
                for j, (l, Np) in enumerate(labels):
                    # (l, Np2 >= Np) starts at row j, (l+2, Np2) right after (l, hi)
                    for l2, first, row in ((l, Np, j), (l + 2, max(lo, l + 2), j + hi + 1 - Np)):
                        ang = angular_sin2_element(l, l2, m)
                        for Np2 in range(first, hi + 1):
                            a, b = sorted([(Np + 1, l), (Np2 + 1, l2)])
                            rad = radial(*a, *b)
                            rows.append(row + Np2 - first)
                            cols.append(j)
                            vals.append(rho2_coeff * (rad * ang))
                rows, cols = np.array(rows), np.array(cols)
                ab = np.concatenate([ab, np.zeros((int(np.max(rows - cols)), len(labels)))])
                ab[rows - cols, cols] += vals
            bands[m, p] = (np.array(labels), ab)
    return bands


def assert_same_bands(bands, oracle):
    assert list(bands) == list(oracle)
    for key, (labels, ab) in bands.items():
        for got, want in zip((labels, ab), oracle[key]):
            assert (got.dtype, got.shape) == (want.dtype, want.shape), key
            assert got.tobytes() == want.tobytes(), key


def schedule_levels(N, delta, schedule):
    """Shell energies less E_N over the band, and the diamagnetic coefficient."""
    lam = schedule.lam(N)
    coeff = 0.0 if schedule.diamagnetic_negligible(N) else lam**2 / 8.0
    return [shell_energy(Np) - shell_energy(N) for Np in range(N - delta, N + delta + 1)], coeff


@pytest.mark.parametrize("N", [*range(1, 13), 40, 80])
def test_W_bands_match_retired_assembler_bit_for_bit(N):
    sched = ScalingSchedule(B=1.0, q=2.0)
    assert not sched.diamagnetic_negligible(N)
    levels, coeff = schedule_levels(N, 0, sched)
    assert_same_bands(shell_matrix_W(N, sched).bands, oracle_assemble(N, 0, levels, coeff))


@pytest.mark.parametrize("N, delta", [(10, 1), (12, 2), (32, 2), (48, 3)])
def test_band_matches_retired_assembler_bit_for_bit(N, delta):
    sched = ScalingSchedule(B=1.0, q=2.0)
    levels, coeff = schedule_levels(N, delta, sched)
    band = _band_blocks(N, delta, sched)
    assert_same_bands(band.bands, oracle_assemble(N, delta, levels, coeff))


@pytest.mark.parametrize("N", [0, 1, 2, 7, 20, 120, 160])
def test_rho2_and_L3_match_retired_assembler_bit_for_bit(N):
    # Radial values are pinned to the integer path elsewhere; the shells past
    # N = 80 reach the (l, m) where ladder c * c and c ** 2 differ in the last bit.
    radial = radial_integral if N <= 20 else radial_integral_r2_cross
    assert_same_bands(shell_matrix_rho2(N).bands, oracle_assemble(N, 0, [0.0], 1.0, radial))
    assert_same_bands(shell_matrix_L3(N).bands, oracle_assemble(N, 0, [0.0], 0.0))


@pytest.mark.parametrize("N", [0, 1, 2, 7, 40, 200])
def test_rho2_trace_is_the_shell_sum_of_r2_and_sin2(N):
    # sum over l, m of <n l|r^2|n l> <l m|sin^2|l m> = n^4 (7 n^2 + 5)/6 in closed form, an
    # oracle with no radial element that pins the same-shell forms and the angular factors together
    n = N + 1
    trace = n**4 * (7 * n * n + 5) / 6
    op = shell_matrix_rho2(N)
    # the band of |m| > 0 holds blocks m and -m
    diagonal = math.fsum(
        x for (k, _), (_, ab) in op.bands.items() for x in ab[0].tolist() * (1 + (k > 0))
    )
    eigenvalues = math.fsum(np.concatenate([w for _, w in op.block_spectra()]).tolist())
    assert diagonal == pytest.approx(trace, rel=1e-14, abs=0)
    assert eigenvalues == pytest.approx(trace, rel=1e-14, abs=0)


@pytest.mark.parametrize(
    "N, delta, q", [(1, 0, 17.0), (40, 0, 17.0), (400, 0, 17.0), (400, 0, 40.0), (10, 2, 17.0)]
)
def test_diagonal_bands_sort_like_the_banded_solver(N, delta, q):
    sched = ScalingSchedule(B=1.0, q=q)
    op = _band_blocks(N, delta, sched)
    assert all(len(ab) == 1 for _, ab in op.bands.values())
    spectra = list(op.block_spectra())
    assert sorted(m for m, _ in spectra) == list(range(-(N + delta), N + delta + 1))
    for m, w in spectra:
        assert w.tobytes() == banded_solver_spectrum(op, m).tobytes()


@pytest.mark.parametrize(
    "N, delta", [*((N, 0) for N in range(1, 13)), (80, 0), (10, 1), (12, 2), (32, 2), (8, 4)]
)
def test_wide_bands_have_the_bits_of_the_banded_solver(N, delta):
    op = _band_blocks(N, delta, ScalingSchedule(B=1.0, q=2.0))
    # shell N = 1 has one l per parity, so only its bands are diagonal
    assert any(len(ab) > 1 for _, ab in op.bands.values()) == ((N, delta) != (1, 0))
    for m, w in op.block_spectra():
        assert w.tobytes() == banded_solver_spectrum(op, m).tobytes()


def test_dsbevd_from_scipy_linalg_when_its_file_is_not_found(monkeypatch, request):
    import importlib.machinery

    from scipy.linalg import lapack

    op = _band_blocks(12, 2, ScalingSchedule(B=1.0, q=2.0))
    direct = [(m, w.tobytes()) for m, w in op.block_spectra()]
    find_spec = importlib.machinery.PathFinder.find_spec

    def without_flapack(name, path=None, target=None):
        return None if name == "scipy.linalg._flapack" else find_spec(name, path, target)

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", without_flapack)
    request.addfinalizer(_dsbevd.cache_clear)
    _dsbevd.cache_clear()
    assert _dsbevd() is lapack.dsbevd
    assert [(m, w.tobytes()) for m, w in op.block_spectra()] == direct


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_band_is_value_error(bad):
    ab = np.array([[1.0, 2.0], [bad, 0.0]])
    op = ShellMatrix(N=1, delta=0, bands={(0, 1): (np.array([[1, 0], [1, 1]]), ab)}, ladder=0.0)
    with pytest.raises(ValueError, match="infs or NaNs"):
        next(op.block_spectra())


@pytest.mark.parametrize("N", range(1, 13))
def test_W_matches_all_pairs_oracle(N):
    sched = ScalingSchedule(B=1.0, q=2.0)
    assert not sched.diamagnetic_negligible(N)
    oracle = oracle_all_pairs(N, 0, sched, shell_energy(N))
    np.testing.assert_allclose(to_dense(shell_matrix_W(N, sched)), oracle, rtol=1e-15, atol=0)


@pytest.mark.parametrize("N, delta", [(10, 1), (10, 2), (12, 1), (12, 2)])
def test_band_matches_all_pairs_oracle(N, delta):
    sched = ScalingSchedule(B=1.0, q=2.0)
    oracle = oracle_all_pairs(N, delta, sched, shell_energy(N))
    band = to_dense(_band_blocks(N, delta, sched))
    np.testing.assert_allclose(band, oracle, rtol=1e-15, atol=0)


def test_L3_matrix_n1_diagonal():
    dense = to_dense(shell_matrix_L3(1))
    assert np.array_equal(np.diag(dense), [-1.0, 0.0, 0.0, 1.0])
    assert np.array_equal(dense, np.diag(np.diag(dense)))


def test_L3_matrix_n0():
    assert to_dense(shell_matrix_L3(0)).tolist() == [[0.0]]


def test_L3_eigenvalue_multiplicity():
    dense = to_dense(shell_matrix_L3(3))
    assert int(np.sum(np.diag(dense) == 2.0)) == 2


def test_L3_norm_equals_shell_index():
    for N in (1, 5, 12):
        assert shell_matrix_L3(N).norm() == float(N)


def test_rho2_smallest_shell():
    assert to_dense(shell_matrix_rho2(0))[0, 0] == pytest.approx(2.0, rel=1e-12)


def test_rho2_exactly_symmetric_and_m_block():
    mat = shell_matrix_rho2(4)
    dense = to_dense(mat)
    assert np.array_equal(dense, dense.T)  # assembled, not rounded
    # entries between different m vanish identically
    states = enumerate_shell(4)
    for i, si in enumerate(states):
        for j, sj in enumerate(states):
            if si.m != sj.m:
                assert dense[i, j] == 0.0
            # nor between opposite l parity
            if (si.l - sj.l) % 2:
                assert dense[i, j] == 0.0


def test_dense_layout_matches_enumeration():
    # one shell: enumerate_shell order, each m-block contiguous
    states = enumerate_shell(3)
    assert np.diag(to_dense(shell_matrix_L3(3))).tolist() == [float(s.m) for s in states]
    for m in range(-3, 4):
        rows = [i for i, s in enumerate(states) if s.m == m]
        assert rows == list(range(rows[0], rows[0] + 3 + 1 - abs(m)))
    # a band: multishell_states order, shell energies less E_N on the diagonal
    states = multishell_states(3, 1)
    diag = np.diag(to_dense(_band_blocks(3, 1, ScalingSchedule(B=0.0))))
    assert diag.tolist() == [shell_energy(s.N) - shell_energy(3) for s in states]


def test_rho2_norm_scaling_consistency():
    n10 = shell_matrix_rho2(10).norm() / 10**4
    n20 = shell_matrix_rho2(20).norm() / 20**4
    assert 0.5 < n10 / n20 < 2.0


def test_rho2_growth_exponent():
    Ns = np.array([10, 20, 40, 60])
    norms = np.array([shell_matrix_rho2(N).norm() for N in Ns])
    # the natural scale is the principal quantum number N + 1
    slope = np.polyfit(np.log(Ns + 1), np.log(norms), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.1)


def test_W_zero_field_vanishes():
    dense = to_dense(shell_matrix_W(2, ScalingSchedule(B=0.0)))
    assert np.all(dense == 0.0)


def test_W_paramagnetic_only_is_diagonal():
    sched = LadderSchedule(B=1.5, q=17.0)
    N = 3
    dense = to_dense(shell_matrix_W(N, sched))
    lam = sched.lam(N)
    expected = -0.5 * lam * np.array([s.m for s in enumerate_shell(N)])
    assert np.array_equal(dense, np.diag(expected))


def test_W_matches_dense_quadrature_oracle():
    """Entrywise check of W at N=1 against a 3-d quadrature oracle."""
    N, n = 1, 2
    sched = ScalingSchedule(B=1.0, q=17.0)
    lam = sched.lam(N)
    states = enumerate_shell(N)

    s, ws = roots_legendre(80)
    phi = 2.0 * np.pi * np.arange(32) / 32

    def sph(l, m, s_grid, phi_grid):
        from math import lgamma, exp, pi

        mm = abs(m)
        c = exp(
            0.5 * (np.log((2 * l + 1) / (4 * pi)) + lgamma(l - mm + 1) - lgamma(l + mm + 1))
        )
        leg = c * lpmv(mm, l, s_grid)
        az = np.exp(1j * mm * phi_grid)
        out = leg[:, None] * az[None, :]
        if m < 0:
            out = (-1.0) ** mm * np.conj(out)
        return out

    oracle = np.zeros((4, 4))
    t, wt = roots_legendre(64)
    r = 0.5 * 60.0 * (t + 1.0)
    wr = 0.5 * 60.0 * wt
    for i, si in enumerate(states):
        for j, sj in enumerate(states):
            if si.m != sj.m:
                continue
            rad = float(
                np.sum(
                    wr * oracle_radial_R(n, si.l, r) * oracle_radial_R(n, sj.l, r) * r**4
                )
            )
            yi = sph(si.l, si.m, s, phi)
            yj = sph(sj.l, sj.m, s, phi)
            ang = float(
                np.real(
                    np.sum(
                        ws[:, None]
                        * (2.0 * np.pi / 32)
                        * np.conj(yj)
                        * (1.0 - s[:, None] ** 2)
                        * yi
                    )
                )
            )
            oracle[i, j] = (lam**2 / 8.0) * rad * ang
            if i == j:
                oracle[i, j] += -0.5 * lam * si.m
    dense = to_dense(shell_matrix_W(N, sched))
    assert dense == pytest.approx(oracle, abs=1e-8 * np.abs(oracle).max())
    # the diamagnetic factor alone, at full relative accuracy
    rho2 = to_dense(shell_matrix_rho2(N))
    diam_oracle = (oracle - np.diag([0.5 * lam, 0, 0, -0.5 * lam])) / (lam**2 / 8.0)
    assert rho2 == pytest.approx(diam_oracle, rel=1e-8)


def test_rho2_assembled_matrix_matches_oracle_with_l_coupling():
    """N=2 is the smallest shell with an l <-> l+2 diamagnetic coupling."""
    N, n = 2, 3
    dense = to_dense(shell_matrix_rho2(N))
    ms = np.array([s.m for s in enumerate_shell(N)])
    for m in range(-N, N + 1):
        ls = list(range(abs(m), N + 1))
        oracle = np.zeros((len(ls), len(ls)))
        for i, l in enumerate(ls):
            for j, l2 in enumerate(ls):
                if abs(l - l2) not in (0, 2):
                    continue
                ang = (1.0 if l == l2 else 0.0) - oracle_angular_cos2(l, l2, m)
                oracle[i, j] = oracle_radial_integral(n, l, l2) * ang
        block = dense[np.ix_(ms == m, ms == m)]
        assert block == pytest.approx(oracle, rel=1e-9, abs=1e-9)
    # the coupling really is nonzero
    assert abs(dense[np.ix_(ms == 0, ms == 0)][0, 2]) > 1.0


def test_diamagnetic_skip_is_harmless():
    """At q = 17 the term is skipped from N = 8 on, where it cannot move a
    scaled shift by half an ulp of B/2."""
    N = 8
    ms = np.array([s.m for s in enumerate_shell(N)])
    rho2 = to_dense(shell_matrix_rho2(N))
    for B in (0.5, 1.0, 2.0):
        sched = ScalingSchedule(B=B, q=17.0)
        assert not sched.diamagnetic_negligible(N - 1) and sched.diamagnetic_negligible(N)
        assert sched.diamagnetic_slack(N) < math.ulp(B / 2) / 2
        # each block of the skipped W is -(lambda/2) m times the identity, so
        # the term would move its eigenvalues by exactly those of its own block
        skipped = to_dense(shell_matrix_W(N, sched))
        assert np.array_equal(skipped, np.diag(-0.5 * sched.lam(N) * ms))
        term = (sched.lam(N) ** 2 / 8.0) * rho2
        moves = max(
            np.abs(np.linalg.eigvalsh(term[np.ix_(ms == m, ms == m)])).max()
            for m in range(-N, N + 1)
        )
        assert moves / sched.shift_scale(N) <= sched.diamagnetic_slack(N)
    # at B = 1e300 the bound's lambda^2 overflows, which is out of range, not a skip
    with pytest.raises(ValueError, match="out of floating-point range"):
        ScalingSchedule(B=1e300).diamagnetic_slack(5)


@given(st.integers(min_value=0, max_value=6))
@settings(deadline=None, max_examples=7)
def test_matrices_symmetric_property(N):
    for build in (shell_matrix_L3, shell_matrix_rho2):
        dense = to_dense(build(N))
        assert np.array_equal(dense, dense.T)


# ---------------------------------------------------------------------------
# multishell band
# ---------------------------------------------------------------------------


def test_band_delta0_reduces_to_single_shell():
    N = 3
    sched = ScalingSchedule(B=1.0, q=5.0)
    multi = cluster_eigenvalues(N, sched, delta=0)
    assert np.array_equal(multi.shifts, cluster_eigenvalues(N, sched).shifts)


def test_band_zero_field_eigenvalues_exact():
    N = 4
    band = _band_blocks(N, 1, ScalingSchedule(B=0.0))
    vals = np.sort(np.linalg.eigvalsh(to_dense(band)))
    expected = np.sort(
        np.concatenate(
            [
                np.full((Np + 1) ** 2, shell_energy(Np) - shell_energy(N))
                for Np in (N - 1, N, N + 1)
            ]
        )
    )
    assert np.array_equal(vals, expected)


def test_band_count_inside_circle():
    N, delta = 10, 2
    sched = ScalingSchedule(B=1.0, q=17.0)
    vals = np.linalg.eigvalsh(to_dense(_band_blocks(N, delta, sched)))
    inside = np.abs(vals) < cluster_radius(N)
    assert int(inside.sum()) == (N + 1) ** 2


def test_band_count_inside_circle_visible_coupling():
    # q=2 makes the diamagnetic coupling numerically live
    N, delta = 10, 2
    sched = ScalingSchedule(B=1.0, q=2.0)
    vals = np.linalg.eigvalsh(to_dense(_band_blocks(N, delta, sched)))
    inside = np.abs(vals) < cluster_radius(N)
    assert int(inside.sum()) == (N + 1) ** 2


def test_band_states_ordering():
    states = multishell_states(3, 1)
    keys = [(s.m, s.N, s.l) for s in states]
    assert keys == sorted(keys)
    assert len(states) == sum((Np + 1) ** 2 for Np in (2, 3, 4))


# ---------------------------------------------------------------------------
# so(4) form of the shell diamagnetic block
# ---------------------------------------------------------------------------


def so4_rho2_block(n, m, ls):
    """(n^2/2)[n^2 + 3 + m^2 + 4(n^2 - 1 - l(l+1)) - 5 A_z^2] over one l parity.

    P (x1^2 + x2^2) P on shell n from the Runge-Lenz component A_z alone,
    <l+1|A_z|l> = a_l: no radial integral and no angular ladder.  Returns
    the diagonal over ``ls`` and the couplings between l and l+2.
    """
    def a(l):
        l = np.asarray(l, dtype=float)
        num = (n * n - (l + 1) ** 2) * ((l + 1) ** 2 - m * m)
        return np.sqrt(num / ((2 * l + 1) * (2 * l + 3)))

    ls = np.asarray(ls)
    az2 = a(ls - 1) ** 2 + a(ls) ** 2  # a_{|m|-1} = 0
    diag = (n * n / 2) * (n * n + 3 + m * m + 4 * (n * n - 1 - ls * (ls + 1)) - 5 * az2)
    return diag, (n * n / 2) * (-5 * a(ls[:-1]) * a(ls[:-1] + 1))


def same_shell_parts(bands, shells):
    """(|m|, p, shell) -> (ls, diagonal, couplings l -> l+2) of each band on each shell."""
    out = {}
    for (m, p), (labels, ab) in bands.items():
        for Np in shells:
            pos = np.flatnonzero(labels[:, 1] == Np)
            if not len(pos):
                continue
            diag = ab[0, pos]
            # (l, Np) -> (l+2, Np) is pos[i+1] - pos[i] rows below the diagonal
            off = ab[pos[1:] - pos[:-1], pos[:-1]]
            out[m, p, Np] = (labels[pos, 0], diag, off)
    return out


@pytest.mark.parametrize("N", [*range(41), 60, 100, 200, 400])
def test_rho2_matches_so4_form(N):
    n = N + 1
    parts = same_shell_parts(shell_matrix_rho2(N).bands, [N])
    # the band of |m| > 0 holds blocks m and -m
    assert sum(len(ls) * (1 + (m > 0)) for (m, _, _), (ls, _, _) in parts.items()) == n * n
    for (m, p, _), (ls, diag, off) in parts.items():
        want_diag, want_off = so4_rho2_block(n, m, ls)
        scale = max(np.abs(want_diag).max(), np.abs(want_off).max(initial=0.0))
        assert np.abs(diag - want_diag).max() <= 1e-14 * scale, (m, p)
        assert np.abs(off - want_off).max(initial=0.0) <= 1e-14 * scale, (m, p)


@pytest.mark.parametrize("N", [10, 12])
def test_multishell_same_shell_blocks_match_so4_form(N):
    sched = ScalingSchedule(B=1.0, q=2.0)
    levels, coeff = schedule_levels(N, 2, sched)
    assert coeff
    shells = range(N - 2, N + 3)
    parts = same_shell_parts(_band_blocks(N, 2, sched).bands, shells)
    count = sum(len(ls) * (1 + (m > 0)) for (m, _, _), (ls, _, _) in parts.items())
    assert count == sum((Np + 1) ** 2 for Np in shells)
    for (m, p, Np), (ls, diag, off) in parts.items():
        want_diag, want_off = so4_rho2_block(Np + 1, m, ls)
        scale = max(np.abs(want_diag).max(), np.abs(want_off).max(initial=0.0))
        lvl = levels[Np - (N - 2)]
        # the level is added before the diagonal is stored: half an ulp of it
        # is lost there, and recovering the diamagnetic part divides by coeff
        lost = np.spacing(abs(lvl)) / coeff
        assert np.abs((diag - lvl) / coeff - want_diag).max() <= 1e-14 * scale + lost, (m, p, Np)
        assert np.abs(off / coeff - want_off).max(initial=0.0) <= 1e-14 * scale, (m, p, Np)
