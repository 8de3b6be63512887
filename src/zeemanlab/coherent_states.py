"""Coherent states on the 3-sphere and their angular-momentum moments.

A state of shell index N is the normalized N-th power of the linear form
alpha . omega, with alpha = a + ib an orthonormal index pair.  Its moments
of the axial angular momentum come from the exact law of L3: degree-N
harmonics split as V_{N/2} x V_{N/2} under SU(2) x SU(2), the state is a
product of two spin coherent states, and L3 + N is the sum of two
independent binomials (a convolution of their pmfs).  The product
quadrature on S^3 below serves normalization, the harmonic basis and the
completeness checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .classical_kepler import CoherentIndex

__all__ = [
    "QuadratureSpec",
    "SphereGrid",
    "QuadratureAccuracyError",
    "BasisConstructionError",
    "IdentityCheckResult",
    "ConvergenceTable",
    "normalization_sq",
    "s3_quadrature",
    "sphere_grid",
    "expectation_L3_power",
    "moment_convergence_table",
    "harmonic_basis",
    "resolution_of_identity_check",
]

SPHERE_AREA = 2.0 * np.pi**2


class QuadratureAccuracyError(ValueError):
    """Requested integrand degree exceeds the exactness of the grid."""


class BasisConstructionError(RuntimeError):
    """Gram matrix of the orthonormalized harmonic basis is off identity."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts for the product rule in hyperspherical angles (chi, theta, phi).

    Gauss rules with the correct weights act in cos(chi) and cos(theta),
    the periodic trapezoid rule in phi.  ``exactness_degree`` is the
    largest total polynomial degree in the ambient coordinates integrated
    to machine precision.
    """

    n_chi: int
    n_theta: int
    n_phi: int

    def __post_init__(self):
        if min(self.n_chi, self.n_theta, self.n_phi) < 1:
            raise ValueError("node counts must be positive")

    @property
    def exactness_degree(self) -> int:
        return min(2 * self.n_chi - 1, 2 * self.n_theta - 1, self.n_phi - 1)

    @classmethod
    def for_state(cls, N: int) -> "QuadratureSpec":
        """Spec sized for integrands of degree 2N."""
        return cls(n_chi=N + 4, n_theta=N + 4, n_phi=2 * N + 8)


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature nodes on S^3 (rows of ``omega``) with positive weights."""

    spec: QuadratureSpec
    omega: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> complex:
        return complex(np.sum(self.weights * values))


@lru_cache(maxsize=32)
def sphere_grid(spec: QuadratureSpec) -> SphereGrid:
    n_chi, n_theta, n_phi = spec.n_chi, spec.n_theta, spec.n_phi
    # chi: Gauss-Chebyshev (second kind) in t = cos(chi), weight sqrt(1-t^2)
    k = np.arange(1, n_chi + 1)
    t = np.cos(k * np.pi / (n_chi + 1))
    w_t = np.pi / (n_chi + 1) * np.sin(k * np.pi / (n_chi + 1)) ** 2
    # theta: Gauss-Legendre in s = cos(theta)
    s, w_s = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    w_phi = np.full(n_phi, 2.0 * np.pi / n_phi)
    T, S, P = np.meshgrid(t, s, phi, indexing="ij")
    WT, WS, WP = np.meshgrid(w_t, w_s, w_phi, indexing="ij")
    sin_chi = np.sqrt(1.0 - T**2)
    sin_theta = np.sqrt(1.0 - S**2)
    omega = np.stack(
        [
            sin_chi * sin_theta * np.cos(P),
            sin_chi * sin_theta * np.sin(P),
            sin_chi * S,
            T,
        ],
        axis=-1,
    ).reshape(-1, 4)
    weights = (WT * WS * WP).ravel()
    return SphereGrid(spec=spec, omega=omega, weights=weights)


def s3_quadrature(f, spec: QuadratureSpec) -> complex:
    """Integral of f over S^3; f receives the (nodes, 4) array of points."""
    grid = sphere_grid(spec)
    return grid.integrate(f(grid.omega))


def normalization_sq(N: int) -> float:
    """Squared normalization of the N-th power state: (N+1)/(2 pi^2).

    This is 1 / integral of |alpha . omega|^(2N), whose radial reduction
    over the unit disk gives 2 pi^2/(N+1); the quadrature agreement is
    pinned by tests rather than assumed.
    """
    if N < 0:
        raise ValueError("shell index must be non-negative")
    return (N + 1) / SPHERE_AREA


def _binomial_pmf(N: int, p: float) -> np.ndarray:
    """Bin(N, p) on 0..N by the term ratio, walked outward from the mode.

    pmf[k+1] / pmf[k] = (N-k)/(k+1) * p/(1-p).  Away from the mode every
    factor is at most one, so the running products only shrink: the tails
    underflow to 0 instead of overflowing, and the bulk carries a few
    roundings per step from the mode.  p = 0 and p = 1 are point masses.
    """
    p = min(max(p, 0.0), 1.0)
    pmf = np.zeros(N + 1)
    if p in (0.0, 1.0):
        pmf[round(p * N)] = 1.0
        return pmf
    k = np.arange(N)
    ratio = (N - k) / (k + 1.0) * (p / (1.0 - p))
    mode = min(int((N + 1) * p), N)
    pmf[mode] = 1.0
    pmf[mode + 1 :] = np.cumprod(ratio[mode:])
    pmf[:mode] = np.cumprod(1.0 / ratio[:mode][::-1])[::-1]
    return pmf / pmf.sum()


def _l3_law(index: CoherentIndex, N: int) -> np.ndarray:
    """Law of L3 on -N..N in the state of shell index N (entry j is L3 = j - N).

    Degree-N harmonics split as V_{N/2} x V_{N/2} and the state is a product
    of two spin coherent states, so L3 + N = X1 + X2 with independent
    X_{1,2} ~ Bin(N, (1 + c_{1,2})/2), c_{1,2} = w12 +- w34 and w = a ^ b.
    """
    a, b = index.a_vec, index.b_vec
    w12 = a[0] * b[1] - a[1] * b[0]
    w34 = a[2] * b[3] - a[3] * b[2]
    return np.convolve(
        _binomial_pmf(N, 0.5 * (1.0 + w12 + w34)),
        _binomial_pmf(N, 0.5 * (1.0 + w12 - w34)),
    )


def expectation_L3_power(index: CoherentIndex, N: int, power: int, B: float) -> float:
    """Expectation of (h * (-B/2) * L3)^power in the state of shell index N.

    h = 1/(N+1).  The value is the sum over the exact law of L3
    (:func:`_l3_law`), so no quadrature is involved.
    """
    if N < 0:
        raise ValueError("shell index must be non-negative")
    if power < 0:
        raise ValueError("power must be >= 0")
    values = (-B / 2.0) / (N + 1) * (np.arange(2 * N + 1) - N)
    return float(_l3_law(index, N) @ values**power)


@dataclass
class ConvergenceTable:
    """Moment errors against the classical value, with a log-log slope fit."""

    N_values: np.ndarray
    moments: np.ndarray
    errors: np.ndarray
    target: float
    slope: float


def moment_convergence_table(
    index: CoherentIndex, power: int, B: float, N_list
) -> ConvergenceTable:
    """Errors |moment(N) - ((-B/2) ell3)^power| and their decay rate in N."""
    N_values = np.asarray(sorted(N_list), dtype=int)
    if len(N_values) < 2 or np.any(np.diff(N_values) <= 0):
        raise ValueError("N_list must contain at least two strictly increasing values")
    target = ((-B / 2.0) * index.ell3) ** power
    moments = np.array([expectation_L3_power(index, int(n), power, B) for n in N_values])
    errors = np.abs(moments - target)
    if power == 0 or np.any(errors <= 0.0):
        slope = 0.0
    else:
        slope = float(np.polyfit(np.log(N_values), np.log(errors), 1)[0])
    return ConvergenceTable(
        N_values=N_values, moments=moments, errors=errors, target=target, slope=slope
    )


# ---------------------------------------------------------------------------
# harmonic basis and resolution of the identity
# ---------------------------------------------------------------------------


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
    if grid.spec.exactness_degree < 2 * N:
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

    Estimates d_N * integral of <Y_i, state> <state, Y_j> over the index
    measure on an orthonormal harmonic basis Y and reports the worst entry
    deviation from the identity together with the trace.  Indices are drawn
    in batches of 20000.
    """
    from .classical_kepler import sample_index_batch

    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    grid = sphere_grid(QuadratureSpec.for_state(N))
    basis = harmonic_basis(N, grid)
    dim = (N + 1) ** 2
    weighted = basis * grid.weights
    scale = np.sqrt(normalization_sq(N))
    acc = np.zeros((dim, dim), dtype=complex)
    done = 0
    while done < n_samples:
        take = min(20000, n_samples - done)
        a, b = sample_index_batch(rng, take)
        u = grid.omega @ (a + 1j * b).T
        states = scale * u**N
        coeff = weighted @ states  # <Y_i, state> per column
        acc += coeff @ coeff.conj().T
        done += take
    estimate = dim * acc / n_samples
    return IdentityCheckResult(
        max_deviation=float(np.max(np.abs(estimate - np.eye(dim)))),
        trace=float(estimate.trace().real),
        dim=dim,
        n_samples=n_samples,
    )

