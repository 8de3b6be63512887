"""Reference forms that only the tests use.

The library keeps what the command line, the acceptance criteria and the
benchmark tracer reach.  The scalar and dense forms below pin its fast
paths from outside: labelled shell states and full matrices, the scalar
ladder and angular elements, orbit elements from their angles, the
canonical 1-form identity of the Moser map at each point, coherent states
sampled on a grid, an orthonormal harmonic basis built on the grid by
Gram-Schmidt and the completeness estimate taken in it (the generic form
of the product-basis check, for small N), the product-basis completeness
check itself (acceptance criterion 10), the hydrogenic r^2 radial element
as one integrated polynomial, the retired per-m band assembly with one
eigensolve per (m, l parity) and the cluster built from it, the sub-cluster
assignment that rounds each scaled shift to its nearest ladder center, with
a spectrum whose m labels that rounding contradicts, the distribution
function of an equal-weight sample, the KS distance over all distinct
values at once, the two-sample KS distance over the pooled sample, and the
index sampler with numpy's row norms and dots in one (n, 8) draw, with a
seeded generator that plants rows into its stream.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Callable, NamedTuple

import numpy as np

from zeemanlab.classical_kepler import (
    CoherentIndex,
    OrbitElements,
    _forward_arrays,
    _wedge,
    sample_index_batch as library_sample_index_batch,
)
from zeemanlab.coherent_states import (
    QuadratureSpec,
    SphereGrid,
    normalization_sq,
    sphere_grid,
)
from zeemanlab.hydrogenic_shell import (
    ScalingSchedule,
    ShellMatrix,
    _ladder,
    cluster_radius,
    radial_integral_r2_cross,
    shell_energy,
)
from zeemanlab.spectral_cluster import ClusterSpectrum, SubclusterOverlapError


class ShellState(NamedTuple):
    """Quantum labels (N; l, m) of one state in the shell of index N."""

    N: int
    l: int
    m: int


def enumerate_shell(N: int) -> list[ShellState]:
    """All (N+1)^2 states of shell N, ordered by ascending m then ascending l."""
    return multishell_states(N, 0)


def multishell_states(N: int, delta: int) -> list[ShellState]:
    """Union basis over shells N-delta..N+delta, ordered by (m, shell, l)."""
    if delta < 0 or N - delta < 0:
        raise ValueError(f"need delta >= 0 and N - delta >= 0, got N={N}, delta={delta}")
    mmax = N + delta
    return [
        ShellState(Np, l, m)
        for m in range(-mmax, mmax + 1)
        for Np in range(N - delta, N + delta + 1)
        for l in range(abs(m), Np + 1)
    ]


def to_dense(op: ShellMatrix) -> np.ndarray:
    """The full matrix of ``op`` in :func:`multishell_states` order, which
    for one shell is :func:`enumerate_shell` order.  The band of |m| fills
    blocks m and -m, and ``op.ladder * m`` is added to block m's diagonal."""
    states = multishell_states(op.N, op.delta)
    index = {(s.m, s.N, s.l): i for i, s in enumerate(states)}
    out = np.zeros((len(states), len(states)))
    for (k, _), (labels, ab) in op.bands.items():
        for m in {k, -k}:
            pos = np.array([index[m, Np, l] for l, Np in labels.tolist()])
            for d, sub in enumerate(ab):
                rows, cols = pos[d:], pos[: len(pos) - d]
                out[rows, cols] = out[cols, rows] = sub[: len(pos) - d]
            out[pos, pos] += op.ladder * m
    return out


def per_m_assemble(
    N: int, delta: int, level: Callable[[int, int], float], rho2_coeff: float
) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
    """The retired per-m band assembler: ``(m, parity) -> (labels, ab)`` for
    every m, with level(shell, m), the ladder term included, on the diagonal.

    The (m, p) band is the trailing columns of one parity band, whose
    labels and radial bands are built once, as in the library.
    """
    lo, hi = N - delta, N + delta
    parities = []
    for p in (0, 1):
        ls = np.arange(p, hi + 1, 2)
        first = np.maximum(ls, lo)
        count = hi + 1 - first
        start = np.cumsum(count) - count
        l_of = np.repeat(ls, count)
        labels = np.column_stack([l_of, np.arange(len(l_of)) + np.repeat(first - start, count)])
        same = up = reach = None
        if rho2_coeff and len(ls):
            end = start + count
            reach = np.repeat(np.append(end[1:], end[-1]), count) - 1 - np.arange(len(labels))
            same, up = np.zeros((2, reach.max() + 1, len(labels)))
            for j, (l, Np) in enumerate(labels.tolist()):
                for Np2 in range(Np, hi + 1):
                    same[Np2 - Np, j] = radial_integral_r2_cross(Np + 1, l, Np2 + 1, l)
                for k, Np2 in enumerate(range(max(lo, l + 2), hi + 1), start=hi + 1 - Np):
                    a, b = sorted([(Np + 1, l), (Np2 + 1, l + 2)])
                    up[k, j] = radial_integral_r2_cross(*a, *b)
        parities.append((start, labels, same, up, reach))
    bands = {}
    for m in range(-hi, hi + 1):
        levels = np.array([level(Np, m) for Np in range(lo, hi + 1)])
        for p, (start, labels, same, up, reach) in enumerate(parities):
            i = (abs(m) + 1 - p) // 2
            if i >= len(start):
                continue
            j0 = start[i]
            block = labels[j0:]
            diagonal = levels[block[:, 1] - lo]
            if rho2_coeff:
                l, rows = block[:, 0], slice(reach[j0:].max() + 1)
                c = _ladder(l, m)
                sin2 = 1.0 - (np.float_power(c, 2) + np.float_power(_ladder(l - 1, m), 2))
                sin2_up = -(c * _ladder(l + 1, m))
                ab = rho2_coeff * (same[rows, j0:] * sin2 + up[rows, j0:] * sin2_up)
                ab[0] += diagonal
            else:
                ab = diagonal[None, :]
            bands[m, p] = (block, ab)
    return bands


def per_m_band_blocks(N: int, delta: int, schedule: ScalingSchedule) -> dict:
    """The per-m bands of S_V - E_N + W(lambda), ladder term on each diagonal."""
    lam = schedule.lam(N)
    e_center = shell_energy(N)
    return per_m_assemble(
        N,
        delta,
        lambda Np, m: (shell_energy(Np) - e_center) - 0.5 * lam * m,
        0.0 if schedule.diamagnetic_negligible(N) else lam**2 / 8.0,
    )


def per_m_eigenvalues(bands: dict, m: int) -> np.ndarray:
    """Eigenvalues of the m-block, one scipy.linalg.eigvals_banded call per l
    parity; a band of one row is its sorted diagonal."""
    from scipy.linalg import eigvals_banded

    out = []
    for ab in (bands[m, p][1] for p in (0, 1) if (m, p) in bands):
        out.append(np.sort(ab[0]) if len(ab) == 1 else eigvals_banded(ab, lower=True))
    return np.concatenate(out)


def banded_solver_spectrum(op: ShellMatrix, m: int) -> np.ndarray:
    """Block m's eigenvalues: scipy.linalg.eigvals_banded of each parity of
    the |m| band, plus ``op.ladder * m``."""
    from scipy.linalg import eigvals_banded

    bands = (op.bands[abs(m), p][1] for p in (0, 1) if (abs(m), p) in op.bands)
    return np.concatenate([eigvals_banded(ab, lower=True) for ab in bands]) + op.ladder * m


def exact_block_spectrum(op: ShellMatrix, m: int, digits: int = 40) -> np.ndarray:
    """Block m's eigenvalues, parity by parity, for tridiagonal bands: those
    of the band plus ``op.ladder * m`` times the identity, rounded once to
    floats from ``digits``-digit decimals.

    Each eigenvalue is bisected on the Sturm count of the LDL^T pivots,
    from a bracket around its float value.
    """
    import decimal

    from scipy.linalg import eigvals_banded

    ctx = decimal.Context(prec=digits)
    D = decimal.Decimal
    shift = op.ladder * m
    out = []
    for p in (0, 1):
        if (abs(m), p) not in op.bands:
            continue
        ab = op.bands[abs(m), p][1]
        if len(ab) > 2:
            raise ValueError("exact_block_spectrum needs tridiagonal bands")
        diag = [ctx.add(D(x), D(shift)) for x in ab[0].tolist()]
        off2 = [ctx.multiply(D(x), D(x)) for x in ab[1, :-1].tolist()] if len(ab) > 1 else []
        guess = eigvals_banded(ab, lower=True) + shift
        scale = D(float(np.max(np.abs(guess))) or 1.0)
        tiny = ctx.multiply(scale, D(10) ** -(digits - 2))

        def below(x):
            count, q = 0, None
            for i, a in enumerate(diag):
                q = ctx.subtract(a, x) if i == 0 else ctx.subtract(
                    ctx.subtract(a, x), ctx.divide(off2[i - 1], q)
                )
                q = q or tiny
                count += q < 0
            return count

        for k, g in enumerate(guess.tolist()):
            width = ctx.multiply(scale, D("1e-12"))
            while True:
                lo, hi = ctx.subtract(D(g), width), ctx.add(D(g), width)
                if below(lo) <= k < below(hi):
                    break
                width = ctx.multiply(width, 2)
            while ctx.subtract(hi, lo) > ctx.multiply(scale, D(10) ** -(digits - 8)):
                mid = ctx.divide(ctx.add(lo, hi), 2)
                lo, hi = (lo, mid) if below(mid) > k else (mid, hi)
            out.append(float(ctx.divide(ctx.add(lo, hi), 2)))
    return np.array(out)


def band_norm(bands: dict, m: int) -> float:
    """‖block m‖ taken crudely as its largest band entry times its band rows."""
    return max(float(np.abs(ab).max()) * len(ab) for (k, _), (_, ab) in bands.items() if k == m)


def per_m_cluster(
    N: int, schedule: ScalingSchedule, mode: str = "first_order", delta: int = 2
) -> tuple[np.ndarray, np.ndarray] | None:
    """(shifts, m labels) of the cluster by the retired per-m path: one solve
    per (m, parity), the kept eigenvalues of each m concatenated, then
    sorted by shift and label; None where a block does not separate."""
    if mode == "first_order":
        bands, radius = per_m_band_blocks(N, 0, schedule), np.inf
    else:
        bands, radius = per_m_band_blocks(N, delta, schedule), cluster_radius(N)
    mmax = N + (0 if mode == "first_order" else delta)
    pieces = []
    for m in range(-mmax, mmax + 1):
        vals = per_m_eigenvalues(bands, m)
        inside = vals[np.abs(vals) < radius]
        if len(inside) != max(N + 1 - abs(m), 0):
            return None
        pieces.append((inside, np.full(len(inside), m)))
    shifts = np.concatenate([p[0] for p in pieces])
    labels = np.concatenate([p[1] for p in pieces]).astype(int)
    order = np.lexsort((labels, shifts))
    return shifts[order], labels[order]


def ladder_coefficient(l: int, m: int) -> float:
    """c_{l,m} in cos(theta) Y_{l,m} = c_{l,m} Y_{l+1,m} + c_{l-1,m} Y_{l-1,m}."""
    if l < abs(m):
        return 0.0
    return math.sqrt(((l + 1) ** 2 - m * m) / ((2 * l + 1.0) * (2 * l + 3.0)))


def angular_cos2_element(l: int, l2: int, m: int) -> float:
    """<l2, m| cos^2(theta) |l, m> from two ladder steps."""
    if abs(m) > min(l, l2):
        raise ValueError(f"need |m| <= min(l, l2), got m={m}, l={l}, l2={l2}")
    lo, hi = min(l, l2), max(l, l2)
    if hi == lo:
        return ladder_coefficient(l, m) ** 2 + ladder_coefficient(l - 1, m) ** 2
    if hi == lo + 2:
        return ladder_coefficient(lo, m) * ladder_coefficient(lo + 1, m)
    raise ValueError(f"unsupported angular coupling |l-l2|={hi - lo}")


def angular_sin2_element(l: int, l2: int, m: int) -> float:
    """<l2, m| sin^2(theta) |l, m> = delta_{l,l2} - <l2, m| cos^2(theta) |l, m>."""
    base = 1.0 if l == l2 else 0.0
    return base - angular_cos2_element(l, l2, m)


def _radial_coeffs(n: int, l: int, n2: int) -> list[int]:
    """Integer coefficients of R_{n,l} in powers of r/(n n2), times k!/C_{n,l}.

    R_{n,l} = C_{n,l} e^{-r/n} sum_i (-1)^i binom(n+l, k-i)/i! (2r/n)^{l+i}
    with k = n-l-1; rescaling by k! and writing 2/n = 2 n2/(n n2) leaves
    integers.
    """
    k = n - l - 1
    return [
        (-1) ** i * math.comb(n + l, k - i) * math.perm(k, k - i) * (2 * n2) ** (l + i)
        for i in range(k + 1)
    ]


@lru_cache(maxsize=None)
def radial_integral(n: int, l: int, n2: int, l2: int) -> float:
    """integral of R_{n,l}(r) r^2 R_{n2,l2}(r) r^2 dr, exact until one rounding.

    The integrand is a polynomial in r/(n n2) times e^{-g r/(n n2)},
    g = n + n2, so the integral is a finite sum of factorials.  With
    C_{n,l}^2 = 4 (n-l-1)!/(n^4 (n+l)!) its square is a ratio of integers,
    rounded once by true division; only the square root rounds again.
    """
    # numpy integers would overflow in the exact arithmetic below
    n, l, n2, l2 = map(operator.index, (n, l, n2, l2))
    U = _radial_coeffs(n, l, n2)
    V = _radial_coeffs(n2, l2, n)
    W = [0] * (len(U) + len(V) - 1)
    for i, u in enumerate(U):
        for j, v in enumerate(V):
            W[i + j] += u * v
    t0 = l + l2
    T = t0 + len(W) - 1
    g = n + n2
    # S = sum_t W_t (t0+t+4)! g^(T-t0-t), by Horner
    S = 0
    fact = math.factorial(t0 + 4)
    for t, w in enumerate(W):
        S = S * g + w * fact
        fact *= t0 + t + 5
    num = 16 * (n * n2) ** 6 * S * S
    den = (
        math.factorial(n + l)
        * math.factorial(n2 + l2)
        * math.factorial(n - l - 1)
        * math.factorial(n2 - l2 - 1)
        * g ** (2 * T + 10)
    )
    value = math.sqrt(num / den)
    return -value if S < 0 else value


def elements_from_angles(
    psi: float, theta: float, phi: float, gamma: float, beta: float = 0.0
) -> OrbitElements:
    """Orbit elements from the five orbit angles.

    psi in (0, pi/2) sets |ell| = cos(psi) and |rl| = sin(psi);
    (theta, phi) orient ell on the 2-sphere; gamma rotates rl in the
    plane orthogonal to ell; beta moves along the orbit.
    """
    if not 0.0 < psi < np.pi / 2:
        raise ValueError(f"psi must lie in (0, pi/2), got {psi!r}")
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    ell = np.cos(psi) * np.array([st * cp, st * sp, ct])
    u_hat = np.array([sp, -cp, 0.0])
    v_hat = np.array([ct * cp, ct * sp, -st])
    rl = np.sin(psi) * (np.cos(gamma) * u_hat + np.sin(gamma) * v_hat)
    return OrbitElements(ell=ell, rl=rl, beta=beta)


def index_kepler_vectors(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ell, A) of index rows, in the layout of ``_wedge``: ell = (w12, w20, w01)
    and A = (w03, w13, w23) of w = a ^ b."""
    ell = np.stack([_wedge(a, b, 1, 2), _wedge(a, b, 2, 0), _wedge(a, b, 0, 1)], axis=-1)
    return ell, np.stack([_wedge(a, b, i, 3) for i in range(3)], axis=-1)


def canonical_form_gap(x: np.ndarray, p: np.ndarray) -> float:
    """Worst gap in Moser's canonical identity sum_i xi_i d(omega_i)/d(p_j) = y_j.

    The pullback of xi . d(omega) is y . dp with y = -x, so the identity
    holds at every phase point (rows of the (n, 3) arrays ``x`` and ``p``)
    for j = 1, 2, 3.
    Both omega and xi come from the library's ``_forward_arrays``, and
    d(omega)/d(p_j) is its complex step Im omega(p + i h e_j)/h with
    h = 1e-30: no difference is taken, so the value is exact to rounding.
    Since |xi| = |y| (|p|^2 + 1)/2 and |d(omega)/d(p_j)| = 2/(|p|^2 + 1),
    the terms of the sum are at most |y| in all; the gap is taken relative
    to 1 + |y|, the scale of its rounding.
    """
    _, xi = _forward_arrays(x, p)
    scale = 1.0 + np.linalg.norm(x, axis=-1)
    gap = 0.0
    for j, step in enumerate(np.eye(3) * 1e-30j):
        d_omega = _forward_arrays(x, p + step)[0].imag / 1e-30
        gap = max(gap, float(np.max(np.abs(np.sum(xi * d_omega, axis=-1) + x[:, j]) / scale)))
    return gap


def coherent_state_values(index: CoherentIndex, N: int, grid: SphereGrid) -> np.ndarray:
    """Normalized state a(N) (alpha . omega)^N at the grid nodes."""
    u = grid.omega @ index.alpha
    return np.sqrt(normalization_sq(N)) * u**N


class QuadratureAccuracyError(ValueError):
    """Requested integrand degree exceeds the exactness of the grid."""


class BasisConstructionError(RuntimeError):
    """Gram matrix of the orthonormalized harmonic basis is off identity."""


def exactness_degree(spec: QuadratureSpec) -> int:
    """Largest total degree in the ambient coordinates that the rule of
    ``spec`` integrates to machine precision."""
    return min(2 * spec.n_chi - 1, 2 * spec.n_theta - 1, spec.n_phi - 1)


def _monomial_values(degree: int, omega: np.ndarray) -> np.ndarray:
    rows = []
    for combo in combinations_with_replacement(range(4), degree):
        v = np.ones(omega.shape[0])
        for i in combo:
            v = v * omega[:, i]
        rows.append(v)
    if not rows:
        rows = [np.ones(omega.shape[0])]
    return np.asarray(rows)


def _orthonormalize(rows: np.ndarray, weights: np.ndarray, against: list, tol: float):
    out: list[np.ndarray] = []
    for row in rows:
        v = row.copy()
        for _ in range(2):  # twice is enough for Gram-Schmidt in floats
            for y in against:
                v -= np.sum(weights * y * v) * y
            for y in out:
                v -= np.sum(weights * y * v) * y
        norm = np.sqrt(np.sum(weights * v * v))
        if norm > tol:
            out.append(v / norm)
    return out


def harmonic_basis(N: int, grid: SphereGrid) -> np.ndarray:
    """Orthonormal basis of the degree-N harmonic space, sampled on the grid.

    Restricted monomials of degree N span all harmonic degrees of the same
    parity up to N; projecting out the span of degree N-2 leaves exactly
    the (N+1)^2 dimensional top component.  Raises if the resulting Gram
    matrix is off identity by more than 1e-8.
    """
    if exactness_degree(grid.spec) < 2 * N:
        raise QuadratureAccuracyError("grid too coarse for the harmonic Gram matrix")
    # restricted monomials of degree N-2 already span every lower level of
    # the same parity (multiplying by |omega|^2 = 1 embeds them upward)
    lower: list[np.ndarray] = []
    if N >= 2:
        lower = _orthonormalize(
            _monomial_values(N - 2, grid.omega), grid.weights, [], 1e-8
        )
    basis = _orthonormalize(_monomial_values(N, grid.omega), grid.weights, lower, 1e-8)
    basis_arr = np.asarray(basis)
    expected = (N + 1) ** 2
    if len(basis) != expected:
        raise BasisConstructionError(
            f"harmonic basis has {len(basis)} elements, expected {expected}"
        )
    gram = (basis_arr * grid.weights) @ basis_arr.T
    dev = float(np.max(np.abs(gram - np.eye(expected))))
    if dev > 1e-8:
        raise BasisConstructionError(f"basis Gram deviates from identity by {dev:.3e}")
    return basis_arr


def grid_identity_estimate(N: int, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """dim * E[|state><state|] on the grid's harmonic basis.

    Indices come from this module's :func:`sample_index_batch`, in batches
    of 20000 as the product-basis estimate draws them, so both see the same
    indices; the grid products run over 2000 indices at a time to keep the
    (nodes, indices) arrays small.
    """
    grid = sphere_grid(QuadratureSpec.for_state(N))
    weighted = harmonic_basis(N, grid) * grid.weights
    scale = np.sqrt(normalization_sq(N))
    dim = (N + 1) ** 2
    acc = np.zeros((dim, dim), dtype=complex)
    for done in range(0, n_samples, 20000):
        a, b = sample_index_batch(rng, min(20000, n_samples - done))
        for i in range(0, len(a), 2000):
            alpha = a[i : i + 2000] + 1j * b[i : i + 2000]
            coeff = weighted @ (scale * (grid.omega @ alpha.T) ** N)  # <Y_i, state>
            acc += coeff @ coeff.conj().T
    return dim * acc / n_samples


def _spin_states(w: np.ndarray, N: int) -> np.ndarray:
    """Spin-N/2 coherent states along the unit rows of w: entry k of a row is
    sqrt(C(N, k)) c^(N-k) (s e^(i phi))^k, with c = sqrt((1 + w3)/2),
    s = sqrt((1 - w3)/2) and phi = atan2(w2, w1)."""
    k = np.arange(N + 1)
    w3 = np.clip(w[:, 2:], -1.0, 1.0)
    binom = np.array([math.comb(N, j) for j in k], dtype=float)
    amp = np.sqrt(binom * (0.5 * (1.0 + w3)) ** (N - k) * (0.5 * (1.0 - w3)) ** k)
    return amp * np.exp(1j * k * np.arctan2(w[:, 1:2], w[:, :1]))


def _product_states(a: np.ndarray, b: np.ndarray, N: int) -> np.ndarray:
    """The states |u> x |v> of the index rows (a, b), one per row."""
    ell, rl = index_kepler_vectors(a, b)
    su, sv = _spin_states(ell + rl, N), _spin_states(ell - rl, N)
    return (su[:, :, None] * sv[:, None, :]).reshape(len(a), -1)


def _identity_estimate(N: int, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """dim * mean of |state><state| over n_samples indices, drawn in batches of 20000."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if N < 0:
        raise ValueError("shell index must be non-negative")
    acc = np.zeros(((N + 1) ** 2,) * 2, dtype=complex)
    for done in range(0, n_samples, 20000):
        states = _product_states(
            *library_sample_index_batch(rng, min(20000, n_samples - done)), N
        )
        acc += states.T @ states.conj()
    return (N + 1) ** 2 * acc / n_samples


@dataclass
class IdentityCheckResult:
    max_deviation: float
    trace: float
    dim: int
    n_samples: int


def resolution_of_identity_check(
    N: int,
    n_samples: int,
    rng: np.random.Generator,
) -> IdentityCheckResult:
    """Monte-Carlo check that dim * E[ |state><state| ] is the identity.

    The estimate is formed in the (N+1)^2 product basis of the states
    |u> x |v>; the worst entry deviation from the identity is reported
    together with the trace."""
    estimate = _identity_estimate(N, n_samples, rng)
    dim = (N + 1) ** 2
    return IdentityCheckResult(
        max_deviation=float(np.max(np.abs(estimate - np.eye(dim)))),
        trace=float(estimate.trace().real),
        dim=dim,
        n_samples=n_samples,
    )


def nearest_center_assignment(spec: ClusterSpectrum) -> dict[int, np.ndarray]:
    """Assign each scaled shift to the nearest paramagnetic center.

    Centers are -(B/2) m / (N+1) for |m| <= N.  The assignment is accepted
    only if every shift lands within (B/8)/(N+1) of its center, a quarter
    of the center spacing; anything farther is reported as an overlap
    instead of silently mislabeled.
    """
    B = spec.schedule.B
    if B <= 0:
        raise ValueError("sub-cluster assignment needs B > 0")
    N = spec.N
    centers = -(B / 2.0) * np.arange(-N, N + 1) / (N + 1)
    allowed = (B / 8.0) / (N + 1)
    shifts = np.asarray(spec.scaled_shifts, dtype=float)
    # nearest center by rounding, as an index into centers
    k = np.clip(np.rint(-2.0 * (N + 1) * shifts / B), -N, N).astype(int) + N
    dist = np.abs(centers[k] - shifts)
    bad = np.flatnonzero(dist >= allowed)
    if bad.size:
        i = bad[0]
        raise SubclusterOverlapError(float(shifts[i]), float(dist[i]), float(allowed))
    order = np.argsort(k, kind="stable")
    groups = np.split(shifts[order], np.cumsum(np.bincount(k, minlength=2 * N + 1))[:-1])
    return dict(zip(range(-N, N + 1), groups))


def swapped_label_spectrum() -> ClusterSpectrum:
    """An N = 1, B = 1 spectrum whose m labels are not its nearest centers.

    The scaled shifts -0.24, 0.0, 0.01, 0.25 carry the labels 0, 0, 1, -1.
    Each shift is within a quarter spacing of some center, so the rounding
    assignment accepts it, and regroups it as {-1: [0.25], 0: [0.0, 0.01],
    1: [-0.24]}; the first and the last two lie far from their own block's
    center.
    """
    schedule = ScalingSchedule(B=1.0)
    scaled = np.array([-0.24, 0.0, 0.01, 0.25])
    return ClusterSpectrum(
        N=1,
        schedule=schedule,
        mode="first_order",
        shifts=scaled * schedule.shift_scale(1),
        scaled_shifts=scaled,
        subcluster_m=np.array([0, 0, 1, -1]),
    )


def empirical_cdf(sample: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Right-continuous distribution function of the equal-weight ``sample`` at ``x``."""
    atoms = np.sort(np.asarray(sample, dtype=float))
    return np.searchsorted(atoms, np.asarray(x, dtype=float), side="right") / len(atoms)


def ks_distance(sample: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """sup |F_n - F| with every distinct value of ``sample`` and ``cdf`` call in one array."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("the KS distance needs a non-empty sample")
    first = np.flatnonzero(np.concatenate([[True], x[1:] != x[:-1]]))
    atoms = x[first]
    upper = np.append(first[1:], n) / n
    d_right = np.max(np.abs(upper - np.asarray(cdf(atoms), dtype=float)))
    below = np.asarray(cdf(np.nextafter(atoms, -np.inf)), dtype=float)
    d_left = np.max(np.abs(first / n - below))
    return float(max(d_right, d_left))


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance, taken at every point of the pooled sample."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    pool = np.concatenate([a, b])
    fa = np.searchsorted(a, pool, side="right") / len(a)
    fb = np.searchsorted(b, pool, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def sample_index_batch(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The index sampler with ``np.linalg.norm`` and ``np.sum`` over rows, in one (n, 8) draw."""
    ab = rng.standard_normal((n, 8))
    a, b = ab[:, :4], ab[:, 4:]
    with np.errstate(divide="ignore", invalid="ignore"):
        n1 = np.linalg.norm(a, axis=1)
        a /= n1[:, None]
        b -= np.sum(b * a, axis=1, keepdims=True) * a
        n2 = np.linalg.norm(b, axis=1)
        b /= n2[:, None]
    redo = np.flatnonzero(~((n1 > 1e-12) & (n2 > 1e-12)))
    if len(redo):
        a[redo], b[redo] = sample_index_batch(rng, len(redo))
    return a, b


class StreamPlantingGenerator:
    """A seeded generator of (k, 8) standard-normal draws whose rows, counted
    as one stream across calls, have the row ``k`` of each key of
    ``plants`` replaced by ``plants[k](row)``, ``row`` as drawn.

    Only the stream matters, not how it is cut into calls, so one blocked
    and one unblocked sampler see the same planted rows.  ``drawn`` counts
    the rows handed out.
    """

    def __init__(self, seed: int, plants: dict[int, Callable[[np.ndarray], np.ndarray]]):
        self.rng = np.random.default_rng(seed)
        self.plants = plants
        self.drawn = 0

    def standard_normal(self, shape):
        out = self.rng.standard_normal(shape)
        start = self.drawn
        for k in sorted(self.plants):
            if start <= k < start + len(out):
                out[k - start] = self.plants[k](out[k - start].copy())
        self.drawn += len(out)
        return out
