"""Three equivalent representations of the cluster limit functional.

For a continuous test function rho the limit of the scaled-shift averages
is (i) an integral against the triangular density (1-|u|) du on [-1, 1],
(ii) a Monte-Carlo average of rho(-(B/2) ell3) over the rotation-invariant
measure on the unit-covector index set, and (iii) a two-angle integral
against the reduced geodesic density cos(psi) sin(psi) sin(theta).  Every
TestFunction is a polynomial, so one fixed Gauss rule gives (i) and (iii)
exactly.  The module also holds the checks that tie them to the Liouville
measure of the regularized Kepler flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classical_kepler import _SAMPLE_BLOCK, _inverse_arrays, _wedge, sample_index_batch
from .spectral_cluster import ks_distance, triangular_shift_cdf

__all__ = [
    "TestFunction",
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
# Gauss nodes of both limit quadratures, exact up to degree 2 _RULE_NODES - 2
_RULE_NODES = 32
_MAX_COEFFICIENTS = 2 * _RULE_NODES - 1
_KEPT_SAMPLES = 20000  # pushforward rows returned as samples
_SUM_LEAF = 1 << 14  # rows per reduce call of _blockwise


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
        if not 1 <= len(coeffs) <= _MAX_COEFFICIENTS:
            raise ValueError(f"need 1 to {_MAX_COEFFICIENTS} coefficients, got {len(coeffs)}")
        for k, c in enumerate(coeffs):
            if not np.isfinite(c):
                raise ValueError(f"coefficient {k} is {c!r}, not a finite number")
        return cls(kind="polynomial", data=coeffs)

    @property
    def coefficients(self) -> tuple:
        """Ascending-degree coefficients."""
        if self.kind == "monomial":
            return (0.0,) * self.data[0] + (1.0,)
        return self.data

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


def limit_triangular(rho: Callable[[np.ndarray], np.ndarray], B: float) -> float:
    """integral of rho(-(B/2) u) (1 - |u|) du over [-1, 1].

    One _RULE_NODES-point Gauss panel on each side of the kink u = 0, so a
    polynomial rho of degree up to 2 _RULE_NODES - 2 is integrated exactly.
    """
    if B < 0:
        raise ValueError("B must be >= 0")
    total = 0.0
    for a, b in ((-1.0, 0.0), (0.0, 1.0)):
        u, w = _gauss_nodes(_RULE_NODES, a, b)
        total += float(np.sum(w * np.asarray(rho(-(B / 2.0) * u)) * (1.0 - np.abs(u))))
    return total


def limit_angle_density(rho: Callable[[np.ndarray], np.ndarray], B: float) -> float:
    """Two-angle form: rho(-(B/2) cos psi cos theta) against
    cos(psi) sin(psi) sin(theta) d psi d theta on (0, pi/2) x (0, pi).

    Evaluated in the variables c = cos(psi), s = cos(theta), where the
    density becomes c dc ds, on the _RULE_NODES x _RULE_NODES Gauss tensor
    rule, which integrates a polynomial rho of degree up to
    2 _RULE_NODES - 2 exactly.
    """
    if B < 0:
        raise ValueError("B must be >= 0")
    c, wc = _gauss_nodes(_RULE_NODES, 0.0, 1.0)
    s, ws = np.polynomial.legendre.leggauss(_RULE_NODES)
    vals = np.asarray(rho(-(B / 2.0) * np.outer(c, s)))
    return float((wc * c) @ vals @ ws)


@dataclass
class McEstimate:
    value: float
    std_error: float
    n_samples: int


def _pushforward_columns(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per index row: off the pole, ell3 of the index, ell3 of its inverse lift."""
    # pole rows divide by zero in the lift and are dropped
    with np.errstate(divide="ignore", invalid="ignore"):
        ell3_phase = _wedge(*_inverse_arrays(a, b), 0, 1)
    return 1.0 - a[:, 3] > 1e-12, _wedge(a, b, 0, 1), ell3_phase


def _blockwise(ufunc: np.ufunc, f: Callable[[int, int], np.ndarray], lo: int, hi: int):
    """ufunc.reduce of f(lo, hi), with f called on at most _SUM_LEAF rows: the rows are halved
    where np.add.reduce halves a contiguous array (at a multiple of 8), so a sum keeps its bits."""
    if hi - lo <= _SUM_LEAF:
        return ufunc.reduce(f(lo, hi))
    half = lo + (hi - lo) // 2 // 8 * 8
    return ufunc(_blockwise(ufunc, f, lo, half), _blockwise(ufunc, f, half, hi))


def _average(rho: Callable[[np.ndarray], np.ndarray], B: float, ell3: np.ndarray) -> McEstimate:
    """Mean of rho(-(B/2) ell3) over the sample ``ell3`` and its standard error, with the
    bits of vals.mean() and vals.std(ddof=1) / sqrt(n) but no n-long temporary."""
    n = len(ell3)

    def vals(lo, hi):
        return np.asarray(rho(-(B / 2.0) * ell3[lo:hi]), dtype=float)

    def squares(lo, hi):
        dev = vals(lo, hi) - mean
        return np.multiply(dev, dev, out=dev)

    mean = _blockwise(np.add, vals, 0, n) / n
    sem = float(np.sqrt(_blockwise(np.add, squares, 0, n) / (n - 1)) / np.sqrt(n)) if n > 1 else 0.0
    return McEstimate(value=float(mean), std_error=sem, n_samples=n)


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
    return _average(rho, B, ell3)


def _compact(keep: np.ndarray, *cols: np.ndarray) -> None:
    """Move the rows of each column where ``keep`` holds to its front, in order and in
    place, one _SAMPLE_BLOCK of rows at a time, so no column is copied whole."""
    m = 0
    for lo in range(0, len(keep), _SAMPLE_BLOCK):
        hi = lo + _SAMPLE_BLOCK
        k = int(np.count_nonzero(keep[lo:hi]))
        for col in cols:
            col[m:m + k] = col[lo:hi][keep[lo:hi]]
        m += k


@dataclass
class PushforwardCheck:
    max_pointwise_gap: float
    ks_vs_triangular: float
    skipped_fraction: float
    sample_ell3_index: np.ndarray
    sample_ell3_phase: np.ndarray
    moment: McEstimate


def liouville_pushforward_check(
    n_samples: int,
    rng: np.random.Generator,
    rho: Callable[[np.ndarray], np.ndarray],
    B: float,
) -> PushforwardCheck:
    """Compare ell3 on the energy shell with ell3 read off the index.

    Indices are mapped to phase points through the inverse Moser lift of
    their unit covector; samples whose base point falls within 1e-12 of
    the north pole are skipped and counted.  The two quantities agree
    exactly off the exclusion set, so the pointwise gap is rounding only.
    That also bounds the sample laws: if every |x_i - y_i| <= delta, then
    sup_z |F_x(z) - F_y(z)| <= max_z #{i : x_i in (z - delta, z + delta]} / n,
    one or two atoms at delta = 12 eps and an ell3 density of at most 1.
    So only the distance to the triangular limit law carries statistical
    error.  The first _KEPT_SAMPLES rows of both ell3 columns off the
    exclusion set are returned as samples, and ``moment`` is the
    Monte-Carlo average of rho(-(B/2) ell3) over every index row, in
    sample order, as limit_quadric_mc takes it.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    keep, ell3_index, ell3_phase = sample_index_batch(rng, n_samples, _pushforward_columns)
    moment = _average(rho, B, ell3_index)
    skipped = int(n_samples - keep.sum())
    if skipped:
        _compact(keep, ell3_index, ell3_phase)
        ell3_index, ell3_phase = ell3_index[:-skipped], ell3_phase[:-skipped]
    del keep
    m = len(ell3_index)
    gap = _blockwise(np.maximum, lambda lo, hi: abs(ell3_phase[lo:hi] - ell3_index[lo:hi]), 0, m)
    samples = ell3_index[:_KEPT_SAMPLES].copy(), ell3_phase[:_KEPT_SAMPLES].copy()
    ell3_phase.sort()
    ks_tri = ks_distance(ell3_phase, triangular_shift_cdf(2.0))
    return PushforwardCheck(
        max_pointwise_gap=float(gap),
        ks_vs_triangular=ks_tri,
        skipped_fraction=skipped / n_samples,
        sample_ell3_index=samples[0],
        sample_ell3_phase=samples[1],
        moment=moment,
    )


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


def haar_density_normalization(refine: int = 1) -> float:
    """Total mass of the six-angle group density; must come out 1.

    The density (1/(2 pi)^4) cos^2(psi) sin(psi) sin(theta) /
    (1 + sin(psi) cos(beta)) is independent of phi, gamma, delta, so the
    full tensor-product quadrature factorizes exactly into a (psi, beta)
    sum times the remaining one-dimensional sums; that factored evaluation
    is what is computed.  It takes 48 * refine Gauss nodes in psi and in
    theta, and at least 512 * refine trapezoid nodes in beta: polar nodes
    approaching psi = pi/2 push the beta integrand's poles toward the real
    axis and get proportionally more azimuthal nodes.
    """
    psi, w_psi = _gauss_nodes(48 * refine, 0.0, np.pi / 2.0)
    theta, w_theta = _gauss_nodes(48 * refine, 0.0, np.pi)
    sin_psi = np.sin(psi)
    beta_vals = np.array([_beta_trapezoid(s, 512 * refine) for s in sin_psi])
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
