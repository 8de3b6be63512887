"""Three equivalent representations of the cluster limit functional.

For a continuous test function rho the limit of the scaled-shift averages
can be written as (i) an explicit one-dimensional integral against the
triangular density (1-|u|) du on [-1, 1], (ii) a Monte-Carlo average of
rho(-(B/2) ell3) over the rotation-invariant measure on the unit-covector
index set, and (iii) a two-angle integral against the reduced geodesic
density cos(psi) sin(psi) sin(theta).  This module evaluates all three and
the consistency checks that tie them to the Liouville measure of the
regularized Kepler flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classical_kepler import _wedge, sample_index_batch
from .spectral_cluster import ks_distance, triangular_shift_cdf

__all__ = [
    "TestFunction",
    "HaarGrid",
    "McEstimate",
    "PushforwardCheck",
    "limit_triangular",
    "limit_angle_density",
    "limit_quadric_mc",
    "liouville_pushforward_check",
    "haar_density_normalization",
    "beta_marginalization_gap",
]

_MAX_MONOMIAL_DEGREE = 12


@dataclass(frozen=True)
class TestFunction:
    """Test function: a monomial or a polynomial.

    ``data`` holds the degree or the ascending-degree coefficient array.
    """

    kind: str
    data: tuple

    __test__ = False  # not a pytest case, despite the domain name

    @classmethod
    def monomial(cls, degree: int) -> "TestFunction":
        if not 0 <= degree <= _MAX_MONOMIAL_DEGREE:
            raise ValueError(f"monomial degree must be in [0, {_MAX_MONOMIAL_DEGREE}]")
        return cls(kind="monomial", data=(degree,))

    @classmethod
    def polynomial(cls, coefficients) -> "TestFunction":
        coeffs = tuple(float(c) for c in coefficients)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        return cls(kind="polynomial", data=coeffs)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "monomial":
            return x ** self.data[0] if self.data[0] else np.ones_like(x)
        out = np.zeros_like(x)
        for c in reversed(self.data):
            out = out * x + c
        return out


def _gauss_nodes(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    t, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * t + 0.5 * (a + b), 0.5 * (b - a) * w


def _doubled_until_stable(value: Callable[[int], float], tol: float) -> float:
    """value(n) for n = 16, 32, ... up to 4096, stopping once two successive
    values agree to ``tol`` absolutely."""
    n = 16
    prev = value(n)
    for _ in range(8):
        n *= 2
        cur = value(n)
        if abs(cur - prev) <= tol:
            return cur
        prev = cur
    return prev


def limit_triangular(rho: Callable[[np.ndarray], np.ndarray], B: float) -> float:
    """integral of rho(-(B/2) u) (1 - |u|) du over [-1, 1].

    Gauss panels split at the kink u = 0, node counts doubled until the
    value is stable to 1e-12 absolutely.
    """
    if B < 0:
        raise ValueError("B must be >= 0")

    def value(n: int) -> float:
        total = 0.0
        for a, b in ((-1.0, 0.0), (0.0, 1.0)):
            u, w = _gauss_nodes(n, a, b)
            total += float(np.sum(w * np.asarray(rho(-(B / 2.0) * u)) * (1.0 - np.abs(u))))
        return total

    return _doubled_until_stable(value, 1e-12)


def limit_angle_density(rho: Callable[[np.ndarray], np.ndarray], B: float) -> float:
    """Two-angle form: rho(-(B/2) cos psi cos theta) against
    cos(psi) sin(psi) sin(theta) d psi d theta on (0, pi/2) x (0, pi).

    Evaluated in the variables c = cos(psi), s = cos(theta), where the
    density becomes c dc ds and polynomial test functions are integrated
    exactly; node counts double until the value is stable to 1e-10
    absolutely.
    """
    if B < 0:
        raise ValueError("B must be >= 0")

    def value(n: int) -> float:
        c, wc = _gauss_nodes(n, 0.0, 1.0)
        s, ws = np.polynomial.legendre.leggauss(n)
        vals = np.asarray(rho(-(B / 2.0) * np.outer(c, s)))
        return float((wc * c) @ vals @ ws)

    return _doubled_until_stable(value, 1e-10)


@dataclass
class McEstimate:
    value: float
    std_error: float
    n_samples: int


def _pushforward_columns(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per index row: off the pole, ell3 of the index, ell3 of its inverse lift."""
    one_minus = 1.0 - a[:, 3]
    # the x1, x2, p1, p2 columns of the inverse lift, as _inverse_arrays
    # computes them; pole rows divide by zero here and are dropped
    with np.errstate(divide="ignore", invalid="ignore"):
        x1 = -(one_minus * b[:, 0] + b[:, 3] * a[:, 0])
        x2 = -(one_minus * b[:, 1] + b[:, 3] * a[:, 1])
        ell3_phase = x1 * (a[:, 1] / one_minus) - x2 * (a[:, 0] / one_minus)
    return one_minus > 1e-12, _wedge(a, b, 0, 1), ell3_phase


def limit_quadric_mc(
    rho: Callable[[np.ndarray], np.ndarray],
    B: float,
    n_samples: int,
    rng: np.random.Generator,
) -> McEstimate:
    """Monte-Carlo average of rho(-(B/2) ell3) over the index measure."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    (ell3,) = sample_index_batch(rng, n_samples, lambda a, b: (_wedge(a, b, 0, 1),))
    vals = np.asarray(rho(-(B / 2.0) * ell3), dtype=float)
    mean = float(vals.mean())
    sem = float(vals.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return McEstimate(value=mean, std_error=sem, n_samples=n_samples)


@dataclass
class PushforwardCheck:
    max_pointwise_gap: float
    ks_vs_index_law: float
    ks_vs_triangular: float
    skipped_fraction: float
    n_samples: int
    sample_ell3_index: np.ndarray | None = None
    sample_ell3_phase: np.ndarray | None = None


def liouville_pushforward_check(
    n_samples: int, rng: np.random.Generator, keep_samples: int = 0
) -> PushforwardCheck:
    """Compare ell3 on the energy shell with ell3 read off the index.

    Indices are mapped to phase points through the inverse Moser lift of
    their unit covector; samples whose base point falls within 1e-12 of
    the north pole are skipped and counted.  The pointwise gap must vanish
    (the two quantities agree exactly off the exclusion set), hence the
    sample-law distance is zero and only the distance to the triangular
    limit law carries statistical error.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    keep, ell3_index, ell3_phase = sample_index_batch(rng, n_samples, _pushforward_columns)
    skipped = int(n_samples - keep.sum())
    if skipped:
        ell3_index, ell3_phase = ell3_index[keep], ell3_phase[keep]
    del keep
    gap = float(np.max(np.abs(ell3_phase - ell3_index))) if len(ell3_index) else 0.0
    # two-sample KS: between atoms of ell3_phase its law is flat and the
    # index law monotone, so the sup lies where ks_distance looks
    ref = np.sort(ell3_index)
    ks_same = ks_distance(ell3_phase, lambda x: np.searchsorted(ref, x, side="right") / len(ref))
    del ref
    ks_tri = ks_distance(ell3_phase, triangular_shift_cdf(2.0))
    keep = min(keep_samples, len(ell3_index))
    return PushforwardCheck(
        max_pointwise_gap=gap,
        ks_vs_index_law=ks_same,
        ks_vs_triangular=ks_tri,
        skipped_fraction=skipped / n_samples,
        n_samples=n_samples,
        sample_ell3_index=ell3_index[:keep].copy() if keep else None,
        sample_ell3_phase=ell3_phase[:keep].copy() if keep else None,
    )


@dataclass(frozen=True)
class HaarGrid:
    """Node counts in the angles psi, theta, beta of the group density; it
    is uniform in phi, gamma, delta, which need no nodes."""

    n_psi: int = 48
    n_theta: int = 48
    n_beta: int = 512

    def doubled(self) -> "HaarGrid":
        return HaarGrid(2 * self.n_psi, 2 * self.n_theta, 2 * self.n_beta)


def _beta_trapezoid(sin_psi: float, n_beta_min: int) -> float:
    """Periodic trapezoid value of integral d beta / (1 + sin_psi cos beta).

    The integrand has complex poles at distance eta = sqrt(2(1-sin_psi))
    from the real axis, so the trapezoid rate is exp(-n eta); the node
    count is raised until that bound is far below double precision.
    """
    eta = np.sqrt(max(2.0 * (1.0 - sin_psi), 1e-300))
    n = max(n_beta_min, int(np.ceil(45.0 / eta)))
    beta = 2.0 * np.pi * np.arange(n) / n
    return float(np.sum(1.0 / (1.0 + sin_psi * np.cos(beta)))) * (2.0 * np.pi / n)


def haar_density_normalization(grid: HaarGrid = HaarGrid()) -> float:
    """Total mass of the six-angle group density; must come out 1.

    The density (1/(2 pi)^4) cos^2(psi) sin(psi) sin(theta) /
    (1 + sin(psi) cos(beta)) is independent of phi, gamma, delta, so the
    full tensor-product quadrature factorizes exactly into a (psi, beta)
    sum times the remaining one-dimensional sums; that factored evaluation
    is what is computed.  ``n_beta`` is treated as a minimum: polar nodes
    approaching psi = pi/2 push the beta integrand's poles toward the real
    axis and get proportionally more azimuthal nodes.
    """
    psi, w_psi = _gauss_nodes(grid.n_psi, 0.0, np.pi / 2.0)
    theta, w_theta = _gauss_nodes(grid.n_theta, 0.0, np.pi)
    sin_psi = np.sin(psi)
    beta_vals = np.array([_beta_trapezoid(s, grid.n_beta) for s in sin_psi])
    joint = float(np.sum(w_psi * np.cos(psi) ** 2 * sin_psi * beta_vals))
    theta_part = float(np.sum(w_theta * np.sin(theta)))
    # phi, gamma, delta are uniform factors of length 2 pi each
    return joint * theta_part * (2.0 * np.pi) ** 3 / (2.0 * np.pi) ** 4


def beta_marginalization_gap() -> float:
    """Worst relative gap in the closed beta marginal of the group density.

    For each of 32 Gauss nodes in psi the periodic trapezoid value of
    integral d beta / (1 + sin(psi) cos(beta)) is compared with
    2 pi / cos(psi), relative to that value since it diverges toward
    psi = pi/2; at least 4096 beta nodes, more as the poles approach as in
    :func:`haar_density_normalization`.
    """
    psi, _ = _gauss_nodes(32, 0.0, np.pi / 2.0)
    worst = 0.0
    for p in psi:
        closed = 2.0 * np.pi / np.cos(p)
        got = _beta_trapezoid(float(np.sin(p)), 4096)
        worst = max(worst, abs(got - closed) / closed)
    return worst
