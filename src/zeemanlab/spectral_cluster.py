"""Eigenvalue clusters of the perturbed shell and their scaled statistics.

The cluster around E_N is computed either by first-order degenerate
perturbation theory (eigenvalues of the perturbation restricted to the
shell) or from a band of shells, keeping the eigenvalues inside the
separating circle around E_N.  Either way the operator splits into one
banded block per (m, l parity); blocks m and -m differ by a multiple of
the identity, so each (|m|, l parity) is one banded solve.  Shifts
are reported raw and rescaled by h^2 eps(h), the scale on which their
empirical law has an N -> infinity limit.  That law is the sorted array of
scaled shifts itself, a sample with equal weights; its Kolmogorov-Smirnov
distance to a reference law compares the exact step heights k/n of the
empirical distribution function with the reference one.
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
    "ClusterSeparationError",
    "SubclusterOverlapError",
    "cluster_eigenvalues",
    "scaled_shift_measure",
    "subcluster_assignment",
    "trace_average",
    "ks_distance",
    "triangular_shift_cdf",
]

# sorted sample entries per block of ks_distance
_KS_BLOCK = 1 << 14


class ClusterSeparationError(RuntimeError):
    """The band diagonalization did not isolate N+1-|m| eigenvalues of block m."""

    def __init__(self, N: int, m: int, found: int, expected: int):
        self.N, self.m, self.found, self.expected = N, m, found, expected
        super().__init__(
            f"cluster around shell {N}: found {found} eigenvalues of block m={m} "
            f"inside the separating circle, expected {expected}"
        )


class SubclusterOverlapError(RuntimeError):
    """A scaled shift sits too far from its m-block's paramagnetic center."""

    def __init__(self, shift: float, distance: float, allowed: float):
        self.shift = shift
        self.distance = distance
        self.allowed = allowed
        super().__init__(
            f"scaled shift {shift!r} is {distance:.3e} from its block's "
            f"ladder center, allowed {allowed:.3e}"
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
    m-block, or ClusterSeparationError names the first block (in the order
    m = 0, 1, -1, ...) that does not.  Both modes solve one banded problem
    per (|m|, l parity), shifted along the ladder for each sign of m; where
    the diamagnetic term is skipped the bands are diagonal and the shifts
    are the exact paramagnetic ladder.  Scaled shifts beyond floating-point
    range raise the schedule's out-of-range ValueError.
    """
    if N < 1:
        raise ValueError(f"cluster computations need N >= 1, got {N}")
    if mode == "first_order":
        # first order keeps every eigenvalue of the projected perturbation
        op, radius = shell_matrix_W(N, schedule), np.inf
    elif mode == "multishell":
        op = _band_blocks(N, delta, schedule)
        radius = cluster_radius(N)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    shifts, labels = np.empty((N + 1) ** 2), np.empty((N + 1) ** 2, dtype=int)
    filled = 0
    for m, vals in op.block_spectra():
        inside = vals[np.abs(vals) < radius]
        expected_m = max(N + 1 - abs(m), 0)
        if len(inside) != expected_m:
            raise ClusterSeparationError(N, m, found=len(inside), expected=expected_m)
        shifts[filled : filled + expected_m] = inside
        labels[filled : filled + expected_m] = m
        filled += expected_m
    order = np.lexsort((labels, shifts))
    shifts, labels = shifts[order], labels[order]
    with np.errstate(over="ignore"):
        scaled = shifts / schedule.shift_scale(N)
    if not np.all(np.isfinite(scaled)):
        raise schedule._out_of_range(N)
    return ClusterSpectrum(
        N=N,
        schedule=schedule,
        mode=mode,
        shifts=shifts,
        scaled_shifts=scaled,
        subcluster_m=labels,
        diamagnetic_slack=schedule.diamagnetic_slack(N)
        if schedule.include_diamagnetic
        else 0.0,
    )


def scaled_shift_measure(spec: ClusterSpectrum) -> np.ndarray:
    """The scaled shifts, sorted: an equal-weight sample of their empirical law."""
    return spec.scaled_shifts


def subcluster_assignment(spec: ClusterSpectrum) -> np.ndarray:
    """Distance of each scaled shift from its own m-block's ladder center.

    The center of block m is -(B/2) m / (N+1).  Every shift must lie within
    (B/8)/(N+1) of it, a quarter of the center spacing, so it is also
    nearest to that center; anything farther is reported as an overlap
    instead of silently mislabeled.
    """
    B = spec.schedule.B
    if B <= 0:
        raise ValueError("sub-cluster assignment needs B > 0")
    N = spec.N
    allowed = (B / 8.0) / (N + 1)
    shifts = spec.scaled_shifts
    dist = np.abs(shifts + (B / 2.0) * spec.subcluster_m / (N + 1))
    bad = np.flatnonzero(dist >= allowed)
    if bad.size:
        i = bad[0]
        raise SubclusterOverlapError(float(shifts[i]), float(dist[i]), float(allowed))
    return dist


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


def ks_distance(sample: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """sup |F_n - F| between the equal-weight sorted ``sample`` and the reference ``cdf``.

    ``cdf`` is right-continuous.  At each distinct value x, held by entries
    k..j-1 of the sample, F_n steps from k/n to j/n, so the sup is
    reached at x, against cdf(x), or just below x.  Just below x is the
    previous float, where F_n equals k/n exactly; cdf there is the left
    limit of a reference atom at x, and within about one ulp times the
    density of a continuous reference.

    The sample is walked in blocks of _KS_BLOCK entries, each overlapping
    the previous one by an entry, so a descent anywhere, block edges
    included, raises ValueError.  ``cdf`` is called on the distinct values
    that end in each block, and the block maxima are folded with
    ``np.maximum``: the sup is exact in any order, and a NaN from ``cdf``
    comes out as it does from one ``np.max``.
    """
    x = np.asarray(sample, dtype=float)
    n = len(x)
    if n == 0:
        raise ValueError("the KS distance needs a non-empty sample")
    d_right = d_left = -np.inf
    start = 0  # first entry of the value that has not ended yet
    for i in range(1, n + 1, _KS_BLOCK):
        # entries first[k]..upper[k]-1 of x hold the k-th value ending in
        # this block; the last block also ends the last value, at n
        seg = x[i - 1 : i + _KS_BLOCK]
        if np.any(seg[1:] < seg[:-1]):
            raise ValueError("the KS distance needs a sorted sample")
        upper = i + np.flatnonzero(np.append(seg[1:] != seg[:-1], i + _KS_BLOCK > n))
        if not len(upper):
            continue
        first = np.concatenate([[start], upper[:-1]])
        start = upper[-1]
        atoms = x[first]
        at = np.asarray(cdf(atoms), dtype=float)
        d_right = np.maximum(d_right, np.max(np.abs(upper / n - at)))
        below = np.asarray(cdf(np.nextafter(atoms, -np.inf)), dtype=float)
        d_left = np.maximum(d_left, np.max(np.abs(first / n - below)))
    return float(max(d_right, d_left))


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
