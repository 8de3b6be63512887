"""Degenerate hydrogenic shells and matrix elements of the magnetic perturbation.

Everything lives in the scaled frame where the unperturbed Hamiltonian is
-(1/2)laplacian - 1/|x| with shell energies E_N = -1/(2(N+1)^2), shell
dimension (N+1)^2, and the field enters through the effective strength
lambda = h^3 eps(h) B, h = 1/(N+1), eps(h) = h^q.  The perturbation

    W(lambda) = (lambda^2/8) (x1^2 + x2^2) - (lambda/2) L3

commutes with L3, and the diamagnetic part couples l only to l and l+-2, so
every operator splits into one block per (m, l parity).  Ordered by
(l, shell), each block is tridiagonal on one shell and banded on a band of
shells; ShellMatrix stores exactly these bands, and dense() alone builds the
full matrix.  Each block is assembled by array operations over
(l, shell, shell2), and each distinct radial factor is fetched once and
shared by every m.  The radial factors <n l|r^2|n2 l2> are exact until
one rounding of their square: cross-shell ones from integer arithmetic,
same-shell ones from the Bethe-Salpeter closed forms, which round to the
same bits.  A block whose band is its diagonal alone needs no
eigensolver: its eigenvalues are the sorted diagonal.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "ShellState",
    "ScalingSchedule",
    "ShellMatrix",
    "ResourceBudgetError",
    "enumerate_shell",
    "radial_integral_r2",
    "radial_integral_r2_cross",
    "ladder_coefficient",
    "angular_cos2_element",
    "angular_sin2_element",
    "shell_matrix_L3",
    "shell_matrix_rho2",
    "shell_matrix_W",
    "multishell_band_matrix",
    "multishell_states",
    "shell_energy",
    "cluster_radius",
]

class ResourceBudgetError(MemoryError):
    """Dense assembly would exceed the configured memory budget."""

    def __init__(self, required_bytes: int, budget_bytes: int):
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes
        super().__init__(
            f"dense matrix needs {required_bytes} bytes, budget is {budget_bytes}"
        )


@dataclass(frozen=True)
class ShellState:
    """Quantum labels (N; l, m) of one state in the shell of index N.

    The principal quantum number is n = N + 1; the full shell has (N+1)^2
    states.
    """

    N: int
    l: int
    m: int

    def __post_init__(self):
        if self.N < 0:
            raise ValueError(f"shell index must be non-negative, got {self.N}")
        if not 0 <= self.l <= self.N:
            raise ValueError(f"need 0 <= l <= N, got l={self.l}, N={self.N}")
        if abs(self.m) > self.l:
            raise ValueError(f"need |m| <= l, got m={self.m}, l={self.l}")


@dataclass(frozen=True)
class ScalingSchedule:
    """Field strength B and the exponent q of the coupling schedule eps(h) = h^q.

    The default q = 17 keeps the perturbation weak enough that the cluster
    around each shell stays well separated for every N; q is configurable
    because that default is far from the smallest workable exponent.
    ``include_diamagnetic`` switches the (lambda^2/8)(x1^2+x2^2) term off
    entirely, which collapses the cluster onto the exactly known
    paramagnetic ladder (useful as an oracle).
    """

    B: float
    q: float = 17.0
    include_diamagnetic: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.B) and math.isfinite(self.q)):
            raise ValueError(f"B and q must be finite, got B={self.B}, q={self.q}")
        if self.B < 0:
            raise ValueError(f"field strength must be >= 0, got {self.B}")

    def h(self, N: int) -> float:
        return 1.0 / (N + 1)

    def epsilon(self, N: int) -> float:
        return self.h(N) ** self.q

    def lam(self, N: int) -> float:
        """Effective field lambda = h^3 eps(h) B."""
        h = self.h(N)
        return h**3 * self.epsilon(N) * self.B

    def shift_scale(self, N: int) -> float:
        """h^2 eps(h), the scale on which cluster shifts are O(1)."""
        return self.h(N) ** 2 * self.epsilon(N)

    def diamagnetic_bound(self, N: int) -> float:
        """Upper bound 3 lambda^2 (N+1)^4 / 8 on the diamagnetic block norm."""
        return 3.0 * self.lam(N) ** 2 * (N + 1) ** 4 / 8.0

    def diamagnetic_slack(self, N: int) -> float:
        """The bound above in units of the shift scale.

        This is the amount by which scaled shifts may exceed [-B/2, B/2].
        """
        return self.diamagnetic_bound(N) / self.shift_scale(N)

    def diamagnetic_negligible(self, N: int) -> bool:
        """True when the diamagnetic term cannot move any scaled shift by 1e-8.

        In that regime assembling it would only add float noise below the
        resolution of every downstream quantity, so matrix builders skip it.
        """
        if not self.include_diamagnetic:
            return True
        return self.diamagnetic_bound(N) < 1e-8 * self.shift_scale(N) * max(self.B, 1e-300)


def shell_energy(N: int) -> float:
    """Unperturbed shell energy E_N = -1/(2(N+1)^2)."""
    return -0.5 / (N + 1) ** 2


def cluster_radius(N: int) -> float:
    """Radius of the separating circle around E_N.

    A quarter of the gap to the nearest neighboring shell; any constant
    below half the gap works, this one leaves symmetric slack on both sides.
    """
    if N == 0:
        return abs(shell_energy(1) - shell_energy(0)) / 4.0
    lower = abs(shell_energy(N - 1) - shell_energy(N))
    upper = abs(shell_energy(N + 1) - shell_energy(N))
    return min(lower, upper) / 4.0


def enumerate_shell(N: int) -> list[ShellState]:
    """All (N+1)^2 states of shell N, ordered by ascending m then ascending l."""
    if N < 0:
        raise ValueError(f"shell index must be non-negative, got {N}")
    return [ShellState(N, l, m) for m in range(-N, N + 1) for l in range(abs(m), N + 1)]


# ---------------------------------------------------------------------------
# radial matrix elements
# ---------------------------------------------------------------------------


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
def _radial_integral(n: int, l: int, n2: int, l2: int) -> float:
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


def _same_shell_r2(n: int, l: int, l2: int) -> float:
    """<n l|r^2|n l2> for l2 in {l, l+2} from the Bethe-Salpeter closed forms.

    (n^2/2)(5n^2 + 1 - 3l(l+1)) and (5/2) n^2 sqrt((n^2-(l+1)^2)(n^2-(l+2)^2)),
    both positive.  Each square is an exact integer over 4, rounded once by
    true division like the ratio in _radial_integral, so the two paths
    return the same bits.
    """
    n, l = operator.index(n), operator.index(l)
    if l2 == l:
        a = n * n * (5 * n * n + 1 - 3 * l * (l + 1))
        return math.sqrt(a * a / 4)
    return math.sqrt(25 * n**4 * (n * n - (l + 1) ** 2) * (n * n - (l + 2) ** 2) / 4)


def radial_integral_r2(n: int, l: int, l2: int) -> float:
    """Same-shell radial element of r^2 between (n,l) and (n,l2).

    Only the couplings the perturbation produces are allowed:
    |l - l2| in {0, 2}.
    """
    if not (0 <= l <= n - 1 and 0 <= l2 <= n - 1):
        raise ValueError(f"need 0 <= l, l2 <= n-1, got l={l}, l2={l2}, n={n}")
    if abs(l - l2) not in (0, 2):
        raise ValueError(f"unsupported angular coupling |l-l2|={abs(l - l2)}")
    return _same_shell_r2(n, min(l, l2), max(l, l2))


def radial_integral_r2_cross(n: int, l: int, n2: int, l2: int) -> float:
    """Radial element of r^2 between (n,l) and (n2,l2), on one shell or two."""
    if not (0 <= l <= n - 1 and 0 <= l2 <= n2 - 1):
        raise ValueError(
            f"need 0 <= l <= n-1 and 0 <= l2 <= n2-1, got n={n}, l={l}, n2={n2}, l2={l2}"
        )
    if abs(l - l2) not in (0, 2):
        raise ValueError(f"unsupported angular coupling |l-l2|={abs(l - l2)}")
    if (n2, l2) < (n, l):
        n, l, n2, l2 = n2, l2, n, l
    if n == n2:
        return _same_shell_r2(n, l, l2)
    return _radial_integral(n, l, n2, l2)


# ---------------------------------------------------------------------------
# angular matrix elements
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# shell matrices
# ---------------------------------------------------------------------------


@dataclass
class ShellMatrix:
    """Real symmetric operator on shells N-delta..N+delta (one shell: delta = 0).

    The operator commutes with L3 and couples l only to l and l+-2, so it
    splits into one block per (m, l parity).  ``bands[m, p]`` holds that
    block as ``(labels, ab)``: ``labels[i] = (l, shell)`` in ascending
    order, which makes the block banded, and ``ab`` is its LAPACK lower
    band form, ``ab[k, j] = A[j+k, j]``.
    """

    N: int
    delta: int
    bands: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = field(repr=False)

    @property
    def dim(self) -> int:
        return sum(len(labels) for labels, _ in self.bands.values())

    def eigenvalues(self, m: int) -> np.ndarray:
        """Eigenvalues of the m-block, one banded solve per l parity.

        A band of one row is a diagonal block, whose eigenvalues are its
        sorted diagonal; only wider bands import and call the solver.
        """
        out = []
        for ab in (self.bands[m, p][1] for p in (0, 1) if (m, p) in self.bands):
            if len(ab) == 1:
                out.append(np.sort(ab[0]))
            else:
                from scipy.linalg import eigvals_banded

                out.append(eigvals_banded(ab, lower=True))
        return np.concatenate(out)

    def norm(self) -> float:
        """Spectral norm, maximized over m-blocks."""
        mmax = self.N + self.delta
        return max(float(np.max(np.abs(self.eigenvalues(m)))) for m in range(-mmax, mmax + 1))

    def dense(self, budget_bytes: int = 2 << 30) -> np.ndarray:
        """Full matrix in :func:`multishell_states` order, which for one
        shell is :func:`enumerate_shell` order."""
        required = 8 * self.dim**2
        if required > budget_bytes:
            raise ResourceBudgetError(required, budget_bytes)
        index = {(s.m, s.N, s.l): i for i, s in enumerate(multishell_states(self.N, self.delta))}
        out = np.zeros((self.dim, self.dim))
        for (m, _), (labels, ab) in self.bands.items():
            pos = np.array([index[m, Np, l] for l, Np in labels.tolist()])
            for k, sub in enumerate(ab):
                rows, cols = pos[k:], pos[: len(pos) - k]
                out[rows, cols] = out[cols, rows] = sub[: len(pos) - k]
        return out


def _ladder(l: np.ndarray, m: int) -> np.ndarray:
    """ladder_coefficient over an array of l >= |m| - 1, by the same IEEE operations.

    At l = |m| - 1 the numerator vanishes, which gives the 0.0 that
    ladder_coefficient returns below |m|.
    """
    return np.sqrt(((l + 1) ** 2 - m * m) / ((2 * l + 1.0) * (2 * l + 3.0)))


def _assemble(
    N: int, delta: int, level: Callable[[int, int], float], rho2_coeff: float
) -> ShellMatrix:
    """level(shell, m) on the diagonal plus rho2_coeff (x1^2 + x2^2), banded.

    x1^2 + x2^2 = r^2 sin^2(theta) is a product of a radial and an angular
    element and couples (l, shell) only to (l, shell2 >= shell) and
    (l+2, shell2) below the diagonal.  Each block builds those entries as
    arrays over (l, shell, shell2).  Each distinct radial element is fetched
    once, in canonical argument order, and shared by every m.  With
    rho2_coeff = 0 each band is its diagonal alone.
    """
    lo, hi = N - delta, N + delta
    shells = np.arange(lo, hi + 1)
    if rho2_coeff:
        # rad[d // 2, l, s, s2] = <lo+s+1, l|r^2|lo+s2+1, l+d> wherever the block needs it
        rad = np.zeros((2, hi + 1, len(shells), len(shells)))
        for s, Np in enumerate(range(lo, hi + 1)):
            for s2, Np2 in enumerate(range(lo, hi + 1)):
                for d in (0, 2) if Np2 >= Np else (2,):
                    for l in range(min(Np, Np2 - d) + 1):
                        a, b = sorted([(Np + 1, l), (Np2 + 1, l + d)])
                        rad[d // 2, l, s, s2] = radial_integral_r2_cross(*a, *b)
    bands = {}
    for m in range(-hi, hi + 1):
        levels = np.array([level(Np, m) for Np in range(lo, hi + 1)])
        for p in (0, 1):
            ls = np.arange(abs(m) + (abs(m) + p) % 2, hi + 1, 2)
            if not len(ls):
                continue
            # (l, Np) exists for Np >= max(l, lo); labels run over l, then Np
            first = np.maximum(ls, lo)
            count = hi + 1 - first
            start = np.cumsum(count) - count
            l_of = np.repeat(ls, count)
            Np_of = np.arange(len(l_of)) + np.repeat(first - start, count)
            ab = levels[Np_of - lo][None, :]
            if rho2_coeff:
                index = start[:, None] + shells - first[:, None]  # of (ls[i], shells[s])
                has = ls[:, None] <= shells
                same = has[:, :, None] & (shells[:, None] <= shells)
                up = has[:-1, :, None] & has[1:, None, :]
                c = _ladder(ls, m)
                # squares through pow, as Python's float ** does; c * c can differ in the last bit
                sin2 = 1.0 - (np.float_power(c, 2) + np.float_power(_ladder(ls - 1, m), 2))
                sin2_up = -(c[:-1] * _ladder(ls[:-1] + 1, m))
                rows = np.concatenate([
                    np.broadcast_to(index[:, None, :], same.shape)[same],
                    np.broadcast_to(index[1:, None, :], up.shape)[up],
                ])
                cols = np.concatenate([
                    np.broadcast_to(index[:, :, None], same.shape)[same],
                    np.broadcast_to(index[:-1, :, None], up.shape)[up],
                ])
                vals = np.concatenate([
                    (rad[0, ls] * sin2[:, None, None])[same],
                    (rad[1, ls[:-1]] * sin2_up[:, None, None])[up],
                ])
                ab = np.concatenate([ab, np.zeros((int(np.max(rows - cols)), len(l_of)))])
                ab[rows - cols, cols] += rho2_coeff * vals
            bands[m, p] = (np.column_stack([l_of, Np_of]), ab)
    return ShellMatrix(N=N, delta=delta, bands=bands)


def shell_matrix_L3(N: int) -> ShellMatrix:
    """L3 restricted to shell N: diagonal m with multiplicity N+1-|m|."""
    if N < 0:
        raise ValueError(f"shell index must be non-negative, got {N}")
    return _assemble(N, 0, lambda Np, m: float(m), 0.0)


def shell_matrix_rho2(N: int) -> ShellMatrix:
    """x1^2 + x2^2 = r^2 sin^2(theta) restricted to shell N."""
    if N < 0:
        raise ValueError(f"shell index must be non-negative, got {N}")
    return _assemble(N, 0, lambda Np, m: 0.0, 1.0)


def shell_matrix_W(N: int, schedule: ScalingSchedule) -> ShellMatrix:
    """(lambda^2/8) rho^2 - (lambda/2) L3 on shell N.

    The delta = 0 band with E_N subtracted.  The diamagnetic part is dropped
    when provably below the resolution of every scaled quantity (see
    ScalingSchedule.diamagnetic_negligible), which leaves the exact
    paramagnetic ladder on the diagonal.
    """
    return _band_blocks(N, 0, schedule, subtract_center=True)


# ---------------------------------------------------------------------------
# multishell band matrix
# ---------------------------------------------------------------------------


def multishell_states(N: int, delta: int) -> list[ShellState]:
    """Union basis over shells N-delta..N+delta, ordered by (m, shell, l)."""
    if delta < 0 or N - delta < 0:
        raise ValueError(f"need delta >= 0 and N - delta >= 0, got N={N}, delta={delta}")
    mmax = N + delta
    states = []
    for m in range(-mmax, mmax + 1):
        for Np in range(N - delta, N + delta + 1):
            for l in range(abs(m), Np + 1):
                states.append(ShellState(Np, l, m))
    return states


def _band_blocks(
    N: int, delta: int, schedule: ScalingSchedule, subtract_center: bool
) -> ShellMatrix:
    if delta < 0 or N - delta < 0:
        raise ValueError(f"need delta >= 0 and N - delta >= 0, got N={N}, delta={delta}")
    lam = schedule.lam(N)
    e_center = shell_energy(N) if subtract_center else 0.0
    return _assemble(
        N,
        delta,
        lambda Np, m: (shell_energy(Np) - e_center) - 0.5 * lam * m,
        0.0 if schedule.diamagnetic_negligible(N) else lam**2 / 8.0,
    )


def multishell_band_matrix(N: int, delta: int, schedule: ScalingSchedule) -> ShellMatrix:
    """S_V + W(lambda) over the union basis of shells N-delta..N+delta.

    Diagonal carries the shell energies E_{N'}; the diamagnetic term mixes
    shells through cross-shell radial elements.  Each (m, l parity) block,
    ordered by (l, shell), is banded with bandwidth at most 4 delta + 1.
    For delta = 0 this is E_N I + shell_matrix_W(N).
    """
    return _band_blocks(N, delta, schedule, subtract_center=False)
