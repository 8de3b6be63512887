"""Eigenvalue clusters of the perturbed shell and their scaled statistics.

The cluster around E_N is computed either by first-order degenerate
perturbation theory (eigenvalues of the perturbation restricted to the
shell) or from a band of shells, keeping the eigenvalues inside the
separating circle around E_N.  Either way the operator splits into one
banded block per (m, l parity) and each block is one banded solve.  Shifts
are reported raw and rescaled by h^2 eps(h), the scale on which their
empirical law has an N -> infinity limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .hydrogenic_shell import (
    ScalingSchedule,
    _band_blocks,
    cluster_radius,
    shell_matrix_W,
)

__all__ = [
    "ClusterSpectrum",
    "EmpiricalMeasure",
    "ClusterSeparationError",
    "SubclusterOverlapError",
    "cluster_eigenvalues",
    "scaled_shift_measure",
    "subcluster_assignment",
    "trace_average",
    "ks_distance",
    "ks_two_sample",
    "triangular_shift_cdf",
]


class ClusterSeparationError(RuntimeError):
    """The band diagonalization did not isolate (N+1)^2 eigenvalues."""

    def __init__(self, N: int, found: int, expected: int):
        self.N = N
        self.found = found
        self.expected = expected
        super().__init__(
            f"cluster around shell {N}: found {found} eigenvalues inside the "
            f"separating circle, expected {expected}"
        )


class SubclusterOverlapError(RuntimeError):
    """A scaled shift sits too far from every paramagnetic center."""

    def __init__(self, shift: float, distance: float, allowed: float):
        self.shift = shift
        self.distance = distance
        self.allowed = allowed
        super().__init__(
            f"scaled shift {shift!r} is {distance:.3e} from its nearest "
            f"sub-cluster center, allowed {allowed:.3e}"
        )


@dataclass
class ClusterSpectrum:
    """Sorted eigenvalue shifts of one cluster with their m labels.

    ``scaled_shifts`` = shifts / (h^2 eps(h)).  ``subcluster_m[i]`` is the
    azimuthal block that produced ``shifts[i]``.  ``diamagnetic_slack`` is
    the reported bound on how far scaled shifts may leave [-B/2, B/2].
    """

    N: int
    schedule: ScalingSchedule
    mode: str
    shifts: np.ndarray = field(repr=False)
    scaled_shifts: np.ndarray = field(repr=False)
    subcluster_m: np.ndarray = field(repr=False)
    diamagnetic_slack: float = 0.0
    delta: int | None = None

    def __post_init__(self):
        d = (self.N + 1) ** 2
        if len(self.shifts) != d:
            raise ValueError(f"expected {d} shifts, got {len(self.shifts)}")


@dataclass
class EmpiricalMeasure:
    """Weighted point measure on the real line with total mass one."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.values.shape != self.weights.shape:
            raise ValueError("values and weights must have matching shapes")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        total = float(self.weights.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {total!r}")

    def sorted_atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique atoms in ascending order with their merged weights."""
        uniq, inverse = np.unique(self.values, return_inverse=True)
        return uniq, np.bincount(inverse, weights=self.weights, minlength=len(uniq))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        atoms, w = self.sorted_atoms()
        cum = np.cumsum(w)
        idx = np.searchsorted(atoms, np.asarray(x, dtype=float), side="right")
        return np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)


def cluster_eigenvalues(
    N: int,
    schedule: ScalingSchedule,
    mode: str = "first_order",
    delta: int = 2,
) -> ClusterSpectrum:
    """Eigenvalue shifts of the cluster around E_N.

    ``first_order``: eigenvalues of the perturbation projected onto the
    shell.  ``multishell``: eigenvalues of the band over shells
    N-delta..N+delta, assembled with E_N subtracted from the diagonal so
    the cluster sits at the best-conditioned part of the spectrum, that lie
    inside the separating circle; they must number exactly N+1-|m| in each
    m-block, or ClusterSeparationError is raised.  Both modes solve one
    banded symmetric problem per (m, l parity) block; where the diamagnetic
    term is skipped the blocks are diagonal and the shifts are the exact
    paramagnetic ladder.
    """
    if N < 1:
        raise ValueError(f"cluster computations need N >= 1, got {N}")
    if mode == "first_order":
        # first order keeps every eigenvalue of the projected perturbation
        op, radius = shell_matrix_W(N, schedule), np.inf
    elif mode == "multishell":
        op = _band_blocks(N, delta, schedule, subtract_center=True)
        radius = cluster_radius(N)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    pieces = []
    mmax = N + op.delta
    for m in range(-mmax, mmax + 1):
        vals = op.eigenvalues(m)
        inside = vals[np.abs(vals) < radius]
        expected_m = max(N + 1 - abs(m), 0)
        if len(inside) != expected_m:
            raise ClusterSeparationError(N, found=len(inside), expected=expected_m)
        pieces.append((inside, np.full(len(inside), m)))
    shifts = np.concatenate([p[0] for p in pieces])
    if len(shifts) != (N + 1) ** 2:
        raise ClusterSeparationError(N, found=len(shifts), expected=(N + 1) ** 2)
    labels = np.concatenate([p[1] for p in pieces]).astype(int)
    order = np.lexsort((labels, shifts))
    shifts, labels = shifts[order], labels[order]
    scale = schedule.shift_scale(N)
    return ClusterSpectrum(
        N=N,
        schedule=schedule,
        mode=mode,
        shifts=shifts,
        scaled_shifts=shifts / scale,
        subcluster_m=labels,
        diamagnetic_slack=schedule.diamagnetic_slack(N)
        if schedule.include_diamagnetic
        else 0.0,
        delta=delta if mode == "multishell" else None,
    )


def scaled_shift_measure(spec: ClusterSpectrum) -> EmpiricalMeasure:
    """Uniform weights 1/(N+1)^2 on the scaled shifts."""
    d = (spec.N + 1) ** 2
    return EmpiricalMeasure(
        values=spec.scaled_shifts.copy(), weights=np.full(d, 1.0 / d)
    )


def subcluster_assignment(spec: ClusterSpectrum) -> dict[int, np.ndarray]:
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


def trace_average(N: int, B: float, rho: Callable[[float], float]) -> float:
    """Normalized trace of rho over the paramagnetic ladder of shell N.

    (1/(N+1)^2) sum_m (N+1-|m|) rho(-(B/2) m/(N+1)), using the exact
    multiplicity structure of L3 on the shell.  ``rho`` is called once, on
    the array of ladder points; a scalar return is broadcast.
    """
    m = np.arange(-N, N + 1)
    mult = (N + 1 - np.abs(m)).astype(float)
    x = -(B / 2.0) * m / (N + 1)
    vals = np.broadcast_to(np.asarray(rho(x), dtype=float), x.shape)
    return float(np.sum(mult * vals)) / (N + 1) ** 2


def ks_distance(
    emp: EmpiricalMeasure,
    cdf: Callable[[np.ndarray], np.ndarray],
    cdf_left: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """sup |F_emp - F_ref|, evaluated at the atoms and their left limits.

    ``cdf`` must be the right-continuous reference distribution function;
    for a reference with atoms of its own, pass its left-limit evaluator,
    otherwise continuity makes the two coincide.
    """
    if cdf_left is None:
        cdf_left = cdf
    atoms, w = emp.sorted_atoms()
    cum = np.cumsum(w)
    before = np.concatenate([[0.0], cum[:-1]])
    f_right = np.asarray(cdf(atoms), dtype=float)
    f_left = np.asarray(cdf_left(atoms), dtype=float)
    d = max(np.max(np.abs(cum - f_right)), np.max(np.abs(before - f_left)))
    return float(min(max(d, 0.0), 1.0))


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance between equal-weight samples."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    pool = np.concatenate([a, b])
    fa = np.searchsorted(a, pool, side="right") / len(a)
    fb = np.searchsorted(b, pool, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def triangular_shift_cdf(B: float) -> Callable[[np.ndarray], np.ndarray]:
    """CDF of the limit law of scaled shifts at field strength B.

    The law of -(B/2) U with U distributed as (1-|u|) du on [-1, 1]; for
    B = 0 it degenerates to the point mass at zero.
    """
    if B < 0:
        raise ValueError("B must be >= 0")

    if B == 0:

        def point_mass(x):
            return (np.asarray(x, dtype=float) >= 0.0).astype(float)

        return point_mass

    def cdf(x):
        t = np.clip(2.0 * np.asarray(x, dtype=float) / B, -1.0, 1.0)
        return np.where(t <= 0.0, 0.5 * (1.0 + t) ** 2, 1.0 - 0.5 * (1.0 - t) ** 2)

    return cdf
