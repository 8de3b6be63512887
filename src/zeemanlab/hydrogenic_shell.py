"""Degenerate hydrogenic shells and matrix elements of the magnetic perturbation.

Everything lives in the scaled frame where the unperturbed Hamiltonian is
-(1/2)laplacian - 1/|x| with shell energies E_N = -1/(2(N+1)^2), shell
dimension (N+1)^2, and the field enters through the effective strength
lambda = h^3 eps(h) B, h = 1/(N+1), eps(h) = h^q.  The perturbation

    W(lambda) = (lambda^2/8) (x1^2 + x2^2) - (lambda/2) L3

commutes with L3, and the diamagnetic part couples l only to l and l+-2, so
every operator splits into one block per (m, l parity).  The diamagnetic
part depends on m only through m^2, so ShellMatrix stores one band per
(|m|, l parity) and the ladder term as one scalar; no full matrix is ever
built.  Ordered by (l, shell), each band is tridiagonal on one shell and
banded on a band of shells, a trailing slice of one band per l parity,
whose labels and radial factors are built once and shared by every |m|.  The
radial factors <n l|r^2|n2 l2> are exact until one rounding of their
square: cross-shell ones from one integer recurrence in l per shell pair,
seeded at the top l, same-shell ones from the Bethe-Salpeter closed forms;
both have the bits of the integrated polynomial.  A block whose
band is its diagonal alone needs no eigensolver: its eigenvalues are the
sorted diagonal.  Wider bands go to LAPACK dsbevd through scipy's wrapper,
the call scipy.linalg.eigvals_banded makes, loaded without running
scipy.linalg's package init.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import operator
import os
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "ScalingSchedule",
    "ShellMatrix",
    "radial_integral_r2",
    "radial_integral_r2_cross",
    "shell_matrix_L3",
    "shell_matrix_rho2",
    "shell_matrix_W",
    "shell_energy",
    "cluster_radius",
]


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

    def _out_of_range(self, N: int) -> ValueError:
        return ValueError(
            f"B={self.B!r} and q={self.q!r} put the coupling schedule out of "
            f"floating-point range at N={N}"
        )

    def epsilon(self, N: int) -> float:
        try:
            return self.h(N) ** self.q
        except OverflowError:
            raise self._out_of_range(N) from None

    def lam(self, N: int) -> float:
        """Effective field lambda = h^3 eps(h) B.

        A positive field whose lambda underflows to zero or to a subnormal
        would collapse the shifts to zero or round them coarsely, so it is
        out of range.
        """
        h = self.h(N)
        lam = h**3 * self.epsilon(N) * self.B
        if self.B > 0 and lam < sys.float_info.min:
            raise self._out_of_range(N)
        return lam

    def shift_scale(self, N: int) -> float:
        """h^2 eps(h), the scale on which cluster shifts are O(1).

        A scale that underflows to zero leaves no scaled shift defined.
        """
        scale = self.h(N) ** 2 * self.epsilon(N)
        if scale == 0.0:
            raise self._out_of_range(N)
        return scale

    def diamagnetic_slack(self, N: int) -> float:
        """The bound 3 lambda^2 (N+1)^4 / 8 on the diamagnetic block norm, in
        units of the shift scale: (3/8) B^2 eps(h), the amount by which
        scaled shifts may exceed [-B/2, B/2]."""
        try:
            return 3.0 * self.lam(N) ** 2 * (N + 1) ** 4 / 8.0 / self.shift_scale(N)
        except OverflowError:
            raise self._out_of_range(N) from None

    def diamagnetic_negligible(self, N: int) -> bool:
        """True when the diamagnetic term cannot move a scaled shift by half an ulp of B/2.

        By Weyl's inequality it moves no scaled eigenvalue by more than its
        scaled norm, at most diamagnetic_slack(N); below half an ulp of B/2,
        the edge of the scaled spectrum, matrix builders skip it.
        """
        if not self.include_diamagnetic:
            return True
        return self.diamagnetic_slack(N) < math.ulp(self.B / 2.0) / 2.0


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


# ---------------------------------------------------------------------------
# radial matrix elements
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _cross_shell_r2(n: int, n2: int) -> tuple[tuple[float, ...], ...]:
    """Every cross-shell r^2 element of shells n < n2, from one recurrence in l.

    Returns ``(same, up, down)`` with ``same[l] = <n l|r^2|n2 l>``,
    ``up[l] = <n l|r^2|n2 l+2>`` and ``down[l] = <n l+2|r^2|n2 l>``.
    With M_k(l) = integral R_{n,l} R_{n2,l} r^(k+2) dr, L = l+1,
    sigma = 1/L^2 - (1/n^2 + 1/n2^2)/2, Delta = E_n - E_{n2} and
    c_L^2 = (1/L^2 - 1/n^2)(1/L^2 - 1/n2^2), the ladder operators in l give

        c_L M_2(l+1) = sigma M_2(l) - (2/L) M_1(l)
        c_L M_1(l+1) = sigma M_1(l) - (L Delta^2/2) M_2(l),

    whose determinant sigma^2 - Delta^2 is c_L^2 > 0 for L < n.  So the
    pair runs down from l = n-1, where R_{n,n-1} is one monomial and M_k
    an (n2-n+1)-term sum.  Raising l2 by two on one shell gives the l2 = l+2
    elements as combinations of M_1(l), M_2(l) and M_3(l) over that shell's
    ladder factors, and the off-diagonal Kramers relation
    Delta^2 M_3 = -6 (E_n + E_{n2}) M_1 - (3/2) l(l+1) Delta^2 M_2 removes M_3.

    The state is exact: M_1 = rho x1/(2 H D) and M_2 = rho x2/D with
    integers x1, x2, H = 2 n^2 n2^2, and rho^2/D^2 = num/den an integer
    ratio.  Each element's square is a ratio of integers equal to the
    integrated polynomial's, rounded once by true division; only the square
    root rounds again.
    """
    P, Q = n * n, n2 * n2
    H = 2 * P * Q
    K, G = n2 - n, n + n2
    # seed at l = n-1: S_k = sum_j w_j (2n)^j (2n+j+k)! G^(K-j), with w_j the
    # K!-scaled Laguerre coefficients of R_{n2,n-1}, by Horner in G
    S1 = S2 = 0
    fact = math.factorial(2 * n + 1)
    for j in range(K + 1):
        w = (-1) ** j * math.comb(G - 1, K - j) * math.perm(K, K - j) * (2 * n) ** j
        S1 = S1 * G + w * fact
        fact *= 2 * n + j + 2
        S2 = S2 * G + w * fact
    # M_1 = rho S_1 and M_2 = rho n n2 S_2 / G, so D = G
    x1, x2 = 2 * H * G * S1, n * n2 * S2
    num = 2 ** (4 * n) * (n * n2) ** (2 * n + 2)
    den = (
        math.factorial(K)
        * math.factorial(2 * n - 1)
        * math.factorial(G - 1)
        * G ** (4 * n + 2 * K + 6)
    )

    def signed_sqrt(y: int, scale: int) -> float:
        value = math.sqrt(num * y * y / (den * scale))
        return -value if y < 0 else value

    def raised(l: int, A: int, B: int) -> float:
        # <a l|r^2|b l+2> for the shells of squares A = a^2, B = b^2 is, with d = E_a - E_b,
        # Sigma = E_a + E_b and c' = sqrt((1/(l+1)^2 - 1/B)(1/(l+2)^2 - 1/B)),
        #   [(2(2l+3)/(l+1))(Sigma/(d(l+2)) - 1) M_1
        #    + (1/((l+1)(l+2)) - 2E_b + (2l+3)(l+1)d/(l+2)) M_2] / c'
        # = rho y / (D (l+1)(l+2) H (B-A) c')
        y = (2 * l + 3) * (A + B - (l + 2) * (B - A)) * x1 + (B - A) * (
            H + 2 * A * (l + 1) * (l + 2) - (2 * l + 3) * (l + 1) ** 2 * (B - A)
        ) * x2
        scale = 4 * A * A * (B - A) ** 2 * (B - (l + 1) ** 2) * (B - (l + 2) ** 2)
        return signed_sqrt(y if B > A else -y, scale)

    same, up, down = [0.0] * n, [0.0] * min(n, n2 - 2), [0.0] * max(n - 2, 0)
    for l in range(n - 1, -1, -1):
        if l < n - 1:
            # from l+1 down to l: sigma = t/(L^2 H), D takes a factor L^2 H and rho 1/c_L,
            # so num/den takes 1/(2H (P - L^2)(Q - L^2)); num = 2^(4n) (n n2)^(2n+2)
            # divides by 2H = 4 n^2 n2^2 at each of the n-1 steps
            L = l + 1
            t = H - L * L * (P + Q)
            x1, x2 = L**3 * (P - Q) ** 2 * x2 + t * x1, t * x2 + L * x1
            num //= 2 * H
            den *= (P - L * L) * (Q - L * L)
        same[l] = signed_sqrt(x2, 1)
        if l < len(up):
            up[l] = raised(l, P, Q)
        if l < len(down):
            down[l] = raised(l, Q, P)
    return tuple(same), tuple(up), tuple(down)


def _same_shell_r2(n: int, l: int, l2: int) -> float:
    """<n l|r^2|n l2> for l2 in {l, l+2} from the Bethe-Salpeter closed forms.

    (n^2/2)(5n^2 + 1 - 3l(l+1)) and (5/2) n^2 sqrt((n^2-(l+1)^2)(n^2-(l+2)^2)),
    both positive.  Each square is an exact integer over 4, rounded once by
    true division like the cross-shell ratios, so they have the bits of the
    integrated polynomial.
    """
    if l2 == l:
        a = n * n * (5 * n * n + 1 - 3 * l * (l + 1))
        return math.sqrt(a * a / 4)
    return math.sqrt(25 * n**4 * (n * n - (l + 1) ** 2) * (n * n - (l + 2) ** 2) / 4)


def radial_integral_r2(n: int, l: int, l2: int) -> float:
    """Same-shell radial element of r^2 between (n,l) and (n,l2).

    Only the couplings the perturbation produces are allowed:
    |l - l2| in {0, 2}.
    """
    return radial_integral_r2_cross(n, l, n, l2)


def radial_integral_r2_cross(n: int, l: int, n2: int, l2: int) -> float:
    """Radial element of r^2 between (n,l) and (n2,l2), on one shell or two."""
    # numpy integers would wrap in the checks and in the exact arithmetic of both paths
    n, l, n2, l2 = map(operator.index, (n, l, n2, l2))
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
    same, up, down = _cross_shell_r2(n, n2)
    return same[l] if l2 == l else up[l] if l2 > l else down[l2]


# ---------------------------------------------------------------------------
# shell matrices
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _dsbevd():
    """scipy's f2py wrapper of LAPACK dsbevd, the driver of eigvals_banded.

    The extension module is loaded from its file without importing
    scipy.linalg, whose package init clones the numpy namespace: about
    0.3 s, several times the solves of a cluster run.  A scipy laid out
    otherwise gets the same wrapper through scipy.linalg.lapack.
    """
    import scipy

    spec = importlib.machinery.PathFinder.find_spec(
        "scipy.linalg._flapack", [os.path.join(p, "linalg") for p in scipy.__path__]
    )
    if spec is None:
        from scipy.linalg.lapack import dsbevd

        return dsbevd
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dsbevd


@dataclass
class ShellMatrix:
    """Real symmetric operator on shells N-delta..N+delta (one shell: delta = 0).

    It splits into one block per (m, l parity), and depends on m through
    ``ladder * m`` on the diagonal and m^2 elsewhere.  ``bands[|m|, p]``
    holds blocks +-m less their ladder term as ``(labels, ab)``:
    ``labels[i] = (l, shell)`` in ascending order, which makes the block
    banded, and ``ab`` is its LAPACK lower band form, ``ab[k, j] = A[j+k, j]``.
    """

    N: int
    delta: int
    bands: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = field(repr=False)
    ladder: float

    def block_spectra(self):
        """Yield ``(m, eigenvalues of the m-block)`` for m = 0, 1, -1, 2, -2, ...

        Each |m| is one solve per l parity, plus ``ladder * m`` for either
        sign.  A band of one row is diagonal: its eigenvalues are its sorted
        diagonal.  Wider bands go to dsbevd with the call and the checks of
        scipy.linalg.eigvals_banded(ab, lower=True), so they get its bits and
        its errors: ValueError for a non-finite band or an illegal argument,
        np.linalg.LinAlgError for a solve that does not converge.
        """
        for k in range(self.N + self.delta + 1):
            out = []
            for ab in (self.bands[k, p][1] for p in (0, 1) if (k, p) in self.bands):
                if len(ab) == 1:
                    out.append(np.sort(ab[0]))
                    continue
                if not np.isfinite(ab).all():
                    raise ValueError("array must not contain infs or NaNs")
                w, _, info = _dsbevd()(ab, compute_v=0, lower=1, overwrite_ab=0)
                if info < 0:
                    raise ValueError(f"illegal value in argument {-info} of internal dsbevd")
                if info > 0:
                    raise np.linalg.LinAlgError(f"dsbevd did not converge (LAPACK info={info})")
                out.append(w)
            w = np.concatenate(out)
            yield k, w + self.ladder * k
            if k:
                yield -k, w + self.ladder * -k

    def norm(self) -> float:
        """Spectral norm, maximized over m-blocks."""
        return max(float(np.max(np.abs(w))) for _, w in self.block_spectra())


def _ladder(l: np.ndarray, m: int) -> np.ndarray:
    """c_{l,m} in cos(theta) Y_{l,m} = c_{l,m} Y_{l+1,m} + c_{l-1,m} Y_{l-1,m}.

    Evaluated over an array of l >= |m| - 1.  At l = |m| - 1 the numerator
    vanishes, which gives the c = 0 that the recurrence has below |m|.
    """
    return np.sqrt(((l + 1) ** 2 - m * m) / ((2 * l + 1.0) * (2 * l + 3.0)))


def _assemble(
    N: int, delta: int, levels: np.ndarray, rho2_coeff: float, ladder: float
) -> ShellMatrix:
    """levels[shell - (N - delta)] + rho2_coeff (x1^2 + x2^2) + ladder m, banded.

    x1^2 + x2^2 = r^2 sin^2(theta) is a product of a radial and an angular
    element and couples (l, shell) only to (l, shell2 >= shell) and
    (l+2, shell2) below the diagonal.  The (|m|, p) band runs over the
    parity-p labels (l, shell >= max(l, N - delta)) with l >= |m|, the
    trailing columns of one parity band.  Each parity's labels and radial
    bands (l -> l and l -> l+2, one radial call per coupling) are built
    once; a band scales its columns by the angular factors of its m^2 and
    keeps the rows they reach.  With rho2_coeff = 0 each band is its
    diagonal alone.  The ladder term stays out of the bands.
    """
    lo, hi = N - delta, N + delta
    parities = []
    for p in (0, 1):
        ls = np.arange(p, hi + 1, 2)
        # (l, Np) exists for Np >= max(l, lo); labels run over l, then Np
        first = np.maximum(ls, lo)
        count = hi + 1 - first
        start = np.cumsum(count) - count
        l_of = np.repeat(ls, count)
        labels = np.column_stack([l_of, np.arange(len(l_of)) + np.repeat(first - start, count)])
        same = up = reach = None
        if rho2_coeff and len(ls):
            # each column reaches the last shell of the next l, or of its own l
            end = start + count
            reach = np.repeat(np.append(end[1:], end[-1]), count) - 1 - np.arange(len(labels))
            same, up = np.zeros((2, reach.max() + 1, len(labels)))
            for j, (l, Np) in enumerate(labels.tolist()):
                for Np2 in range(Np, hi + 1):
                    same[Np2 - Np, j] = radial_integral_r2_cross(Np + 1, l, Np2 + 1, l)
                # (l+2, Np2) starts right after (l, hi)
                for k, Np2 in enumerate(range(max(lo, l + 2), hi + 1), start=hi + 1 - Np):
                    a, b = sorted([(Np + 1, l), (Np2 + 1, l + 2)])
                    up[k, j] = radial_integral_r2_cross(*a, *b)
        parities.append((start, labels, same, up, reach))
    bands = {}
    for k in range(hi + 1):
        for p, (start, labels, same, up, reach) in enumerate(parities):
            i = (k + 1 - p) // 2  # the first l >= k of parity p is p + 2 i
            if i >= len(start):
                continue
            j0 = start[i]
            block = labels[j0:]
            diagonal = levels[block[:, 1] - lo]
            if rho2_coeff:
                l, rows = block[:, 0], slice(reach[j0:].max() + 1)
                c = _ladder(l, k)
                # squares through pow, as Python's float ** does; c * c can differ in the last bit
                sin2 = 1.0 - (np.float_power(c, 2) + np.float_power(_ladder(l - 1, k), 2))
                sin2_up = -(c * _ladder(l + 1, k))
                ab = rho2_coeff * (same[rows, j0:] * sin2 + up[rows, j0:] * sin2_up)
                ab[0] += diagonal
            else:
                ab = diagonal[None, :]
            bands[k, p] = (block, ab)
    return ShellMatrix(N=N, delta=delta, bands=bands, ladder=ladder)


def shell_matrix_L3(N: int) -> ShellMatrix:
    """L3 restricted to shell N: diagonal m with multiplicity N+1-|m|."""
    if N < 0:
        raise ValueError(f"shell index must be non-negative, got {N}")
    return _assemble(N, 0, np.zeros(1), 0.0, 1.0)


def shell_matrix_rho2(N: int) -> ShellMatrix:
    """x1^2 + x2^2 = r^2 sin^2(theta) restricted to shell N."""
    if N < 0:
        raise ValueError(f"shell index must be non-negative, got {N}")
    return _assemble(N, 0, np.zeros(1), 1.0, 0.0)


def shell_matrix_W(N: int, schedule: ScalingSchedule) -> ShellMatrix:
    """(lambda^2/8) rho^2 - (lambda/2) L3 on shell N.

    The delta = 0 band.  The diamagnetic part is dropped when it cannot
    move a scaled shift by half an ulp of B/2 (see
    ScalingSchedule.diamagnetic_negligible), which leaves zero bands and
    the exact paramagnetic ladder -(lambda/2) m.
    """
    return _band_blocks(N, 0, schedule)


def _band_blocks(N: int, delta: int, schedule: ScalingSchedule) -> ShellMatrix:
    """S_V - E_N + W(lambda) over shells N-delta..N+delta.

    The diagonal carries the shell energies E_{N'} - E_N, so the cluster
    around E_N sits at the best-conditioned part of the spectrum; the
    diamagnetic term mixes shells through cross-shell radial elements.
    Each (|m|, l parity) band, ordered by (l, shell), is banded with
    bandwidth at most 4 delta + 1.
    """
    if delta < 0 or N - delta < 0:
        raise ValueError(f"need delta >= 0 and N - delta >= 0, got N={N}, delta={delta}")
    lam = schedule.lam(N)
    e_center = shell_energy(N)
    return _assemble(
        N,
        delta,
        np.array([shell_energy(Np) - e_center for Np in range(N - delta, N + delta + 1)]),
        0.0 if schedule.diamagnetic_negligible(N) else lam**2 / 8.0,
        -0.5 * lam,
    )
