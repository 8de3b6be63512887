"""Coherent states on the 3-sphere and their angular-momentum moments.

A state of shell index N is the normalized N-th power of the linear form
alpha . omega, with alpha = a + ib an orthonormal index pair.  Degree-N
harmonics split as V_{N/2} x V_{N/2} under SU(2) x SU(2), and the state
is, up to a phase, the product |u> x |v> of two spin-N/2 coherent states
along u = ell + A and v = ell - A, read off a ^ b.  So L3 + N is the sum of
two independent binomials (its law a convolution of their pmfs).  The
product quadrature on S^3 below serves the normalization checks; the
completeness check, in the (N+1)^2-dimensional product basis, lives with
the tests in tests/reference.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .classical_kepler import CoherentIndex, _wedge

__all__ = [
    "QuadratureSpec",
    "SphereGrid",
    "ConvergenceTable",
    "normalization_sq",
    "s3_quadrature",
    "sphere_grid",
    "expectation_L3_power",
    "moment_convergence_table",
]

SPHERE_AREA = 2.0 * np.pi**2


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts for the product rule in hyperspherical angles (chi, theta, phi).

    Gauss rules with the correct weights act in cos(chi) and cos(theta),
    the periodic trapezoid rule in phi, so polynomials in the ambient
    coordinates of total degree up to min(2 n_chi - 1, 2 n_theta - 1,
    n_phi - 1) are integrated to machine precision.
    """

    n_chi: int
    n_theta: int
    n_phi: int

    def __post_init__(self):
        if min(self.n_chi, self.n_theta, self.n_phi) < 1:
            raise ValueError("node counts must be positive")

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

    The state is the product |u> x |v> of two spin coherent states, so
    L3 + N = X1 + X2 with independent X1 ~ Bin(N, (1 + u3)/2) and
    X2 ~ Bin(N, (1 + v3)/2), where u3, v3 = ell3 +- A3.
    """
    a, b = index.a_vec, index.b_vec
    ell3, rl3 = _wedge(a, b, 0, 1), _wedge(a, b, 2, 3)
    return np.convolve(
        _binomial_pmf(N, 0.5 * (1.0 + ell3 + rl3)),
        _binomial_pmf(N, 0.5 * (1.0 + ell3 - rl3)),
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
    if power < 0:
        raise ValueError("power must be >= 0")
    # (|B|/2)^power bounds every moment and the target, twice it every error
    with np.errstate(over="ignore"):
        bound = 2.0 * np.float64(abs(B) / 2.0) ** power
    if not np.isfinite(bound):
        raise ValueError(f"B={B!r} puts the power-{power} moments out of float range")
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
