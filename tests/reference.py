"""Reference forms that only the tests use.

The library keeps what the command line, the acceptance criteria and the
benchmark tracer reach.  The scalar and dense forms below pin its fast
paths from outside: labelled shell states and full matrices, the scalar
ladder and angular elements, orbit elements from their angles, coherent
states sampled on a grid, the hydrogenic r^2 radial element as one integrated
polynomial, the distribution function of an equal-weight
sample, the KS distance over all distinct values at once, the two-sample
KS distance over the pooled sample, and the index sampler with numpy's row
norms and dots in one (n, 4) draw, with a seeded generator that plants
rows into its stream.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from zeemanlab.classical_kepler import CoherentIndex, OrbitElements
from zeemanlab.coherent_states import SphereGrid, normalization_sq
from zeemanlab.hydrogenic_shell import ShellMatrix


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
    for one shell is :func:`enumerate_shell` order."""
    states = multishell_states(op.N, op.delta)
    index = {(s.m, s.N, s.l): i for i, s in enumerate(states)}
    out = np.zeros((len(states), len(states)))
    for (m, _), (labels, ab) in op.bands.items():
        pos = np.array([index[m, Np, l] for l, Np in labels.tolist()])
        for k, sub in enumerate(ab):
            rows, cols = pos[k:], pos[: len(pos) - k]
            out[rows, cols] = out[cols, rows] = sub[: len(pos) - k]
    return out


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


def coherent_state_values(index: CoherentIndex, N: int, grid: SphereGrid) -> np.ndarray:
    """Normalized state a(N) (alpha . omega)^N at the grid nodes."""
    u = grid.omega @ index.alpha
    return np.sqrt(normalization_sq(N)) * u**N


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
    """The index sampler with ``np.linalg.norm`` and ``np.sum`` over rows."""
    a = rng.standard_normal((n, 4))
    b = rng.standard_normal((n, 4))
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
    """A seeded generator whose standard-normal draws, counted as rows of
    one stream across calls, have the rows ``k`` in ``plants`` replaced by
    ``plants[k](earlier)``, where ``earlier`` holds stream rows 0..k-1.

    Only the stream matters, not how it is cut into calls, so one blocked
    and one unblocked sampler see the same planted rows.
    """

    def __init__(self, seed: int, plants: dict[int, Callable[[np.ndarray], np.ndarray]]):
        self.rng = np.random.default_rng(seed)
        self.plants = plants
        self.rows = np.empty((0, 4))

    def standard_normal(self, shape):
        out = self.rng.standard_normal(shape)
        start = len(self.rows)
        for k in sorted(self.plants):
            if start <= k < start + len(out):
                out[k - start] = self.plants[k](np.concatenate([self.rows, out[: k - start]]))
        self.rows = np.concatenate([self.rows, out])
        return out
