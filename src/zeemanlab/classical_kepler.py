"""Regularized Kepler problem, the Moser map, and the unit-covector index set.

The Kepler flow at energy -1/2 becomes the great-circle flow on the unit
cotangent bundle of the 3-sphere under the Moser correspondence

    omega_i = 2 p_i / (|p|^2 + 1),  omega_4 = (|p|^2 - 1)/(|p|^2 + 1),
    xi_i = ((|p|^2 + 1)/2) y_i - (y . p) p_i,  xi_4 = y . p,  y = -x,

with the time reparametrization d/ds = |x| d/dt, which makes every orbit
on the shell 2*pi periodic in s, collisions included.  Unit covectors are
indexed by pairs of orthonormal 4-vectors (the real and imaginary parts of
a complex index), carrying the rotation-invariant probability measure.

The integrator steps one orbit in Python floats: each state and stage
slope is a 6-tuple and every component a scalar expression, in a fixed
operation order, so no BLAS kernel runs inside a step.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "PhasePoint",
    "SpherePoint",
    "CoherentIndex",
    "OrbitElements",
    "Trajectory",
    "SingularityError",
    "NorthPoleError",
    "CollisionOrbitError",
    "NumericalCollisionError",
    "kepler_constants",
    "moser_forward",
    "moser_inverse",
    "sphere_point_of_index",
    "integrate_kepler",
    "measure_period",
    "orbit_point_from_elements",
    "sample_coherent_index",
    "sample_index_batch",
]

_ORTHO_TOL = 1e-12
# rows per block of sample_index_batch
_SAMPLE_BLOCK = 1 << 13


class SingularityError(ValueError):
    """Phase point sits at the Coulomb singularity x = 0."""


class NorthPoleError(ValueError):
    """Sphere point at the north pole has no finite-momentum preimage."""


class CollisionOrbitError(ValueError):
    """Orbit elements with zero angular momentum have no orbit-plane frame."""


class NumericalCollisionError(RuntimeError):
    """Regularization lost: the trajectory fell below the collision floor,
    or the step size or the step budget ran out."""


@dataclass(frozen=True)
class PhasePoint:
    """Position and momentum over R^3; the origin is excluded wherever the
    Coulomb term is evaluated."""

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).reshape(3))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float).reshape(3))


@dataclass(frozen=True)
class SpherePoint:
    """Point of the cotangent bundle of S^3: |omega| = 1 and omega . xi = 0."""

    omega: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float).reshape(4)
        xi = np.asarray(self.xi, dtype=float).reshape(4)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "xi", xi)
        if abs(float(omega @ omega) - 1.0) > 5e-12:
            raise ValueError(f"|omega| must be 1, got {np.linalg.norm(omega)!r}")
        if abs(float(omega @ xi)) > 5e-12 * max(1.0, float(np.linalg.norm(xi))):
            raise ValueError(f"omega . xi must vanish, got {float(omega @ xi)!r}")


def _wedge(a: np.ndarray, b: np.ndarray, i: int, j: int) -> np.ndarray:
    """Component w_ij of w = a ^ b for index rows a, b (axes 0-based).

    The Kepler constants of the index are ell = (w_12, w_20, w_01), the
    angular momentum, and A = (w_03, w_13, w_23), the Runge-Lenz vector of
    its inverse Moser lift.  Then u = ell + A and v = ell - A are unit
    vectors: the directions of the two spin-N/2 coherent states whose
    product is the state of the index under SU(2) x SU(2).
    """
    return a[..., i] * b[..., j] - a[..., j] * b[..., i]


@dataclass(frozen=True)
class CoherentIndex:
    """Orthonormal real/imaginary 4-vector pair indexing a unit covector."""

    a_vec: np.ndarray
    b_vec: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a_vec, dtype=float).reshape(4)
        b = np.asarray(self.b_vec, dtype=float).reshape(4)
        object.__setattr__(self, "a_vec", a)
        object.__setattr__(self, "b_vec", b)
        for name, v in (("a_vec", a), ("b_vec", b)):
            if abs(float(v @ v) - 1.0) > _ORTHO_TOL:
                raise ValueError(f"|{name}| must be 1, got {np.linalg.norm(v)!r}")
        if abs(float(a @ b)) > _ORTHO_TOL:
            raise ValueError(f"a_vec . b_vec must vanish, got {float(a @ b)!r}")

    @property
    def alpha(self) -> np.ndarray:
        return self.a_vec + 1j * self.b_vec

    @property
    def ell3(self) -> float:
        """Angular momentum along the field axis read off the index."""
        return float(_wedge(self.a_vec, self.b_vec, 0, 1))


@dataclass(frozen=True)
class OrbitElements:
    """Angular momentum, eccentricity vector, and the along-orbit angle beta.

    On the energy shell the two vectors satisfy ell . rl = 0 and
    |ell|^2 + |rl|^2 = 1; both are enforced at construction.
    """

    ell: np.ndarray
    rl: np.ndarray
    beta: float = 0.0

    def __post_init__(self):
        ell = np.asarray(self.ell, dtype=float).reshape(3)
        rl = np.asarray(self.rl, dtype=float).reshape(3)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "rl", rl)
        if abs(float(ell @ rl)) > 1e-10:
            raise ValueError(f"ell . rl must vanish, got {float(ell @ rl)!r}")
        if abs(float(ell @ ell + rl @ rl) - 1.0) > 1e-10:
            raise ValueError("need |ell|^2 + |rl|^2 = 1 on the energy shell")


# ---------------------------------------------------------------------------
# constants of motion and the Moser correspondence
# ---------------------------------------------------------------------------


def kepler_constants(pt: PhasePoint) -> tuple[float, np.ndarray, np.ndarray]:
    """Energy |p|^2/2 - 1/|x|, angular momentum x cross p, and the
    eccentricity vector p cross ell - x/|x|."""
    r = float(np.linalg.norm(pt.x))
    if r == 0.0:
        raise SingularityError("kepler constants undefined at x = 0")
    energy = 0.5 * float(pt.p @ pt.p) - 1.0 / r
    ell = np.cross(pt.x, pt.p)
    rl = np.cross(pt.p, ell) - pt.x / r
    return energy, ell, rl


def _forward_arrays(x: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y = -x
    p2 = np.sum(p * p, axis=-1, keepdims=True)
    omega = np.concatenate([2.0 * p / (p2 + 1.0), (p2 - 1.0) / (p2 + 1.0)], axis=-1)
    yp = np.sum(y * p, axis=-1, keepdims=True)
    xi = np.concatenate([0.5 * (p2 + 1.0) * y - yp * p, yp], axis=-1)
    return omega, xi


def moser_forward(pt: PhasePoint) -> SpherePoint:
    """Stereographic lift of (x, p); |omega| = 1 holds by construction."""
    omega, xi = _forward_arrays(pt.x[None, :], pt.p[None, :])
    return SpherePoint(omega=omega[0], xi=xi[0])


def _inverse_arrays(omega: np.ndarray, xi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    one_minus = 1.0 - omega[..., 3:4]
    p = omega[..., :3] / one_minus
    y = one_minus * xi[..., :3] + xi[..., 3:4] * omega[..., :3]
    return -y, p


def moser_inverse(sp: SpherePoint) -> PhasePoint:
    """Inverse lift; the north pole (omega_4 = 1) has no finite preimage."""
    if sp.omega[3] >= 1.0 - 1e-15:
        raise NorthPoleError("omega_4 = 1 corresponds to a collision direction")
    x, p = _inverse_arrays(sp.omega[None, :], sp.xi[None, :])
    return PhasePoint(x=x[0], p=p[0])


def sphere_point_of_index(index: CoherentIndex) -> SpherePoint:
    """Unit covector (omega, xi) = (a_vec, b_vec) attached to an index.

    The orientation xi = +b_vec is the one under which the angular momentum
    read off the index coincides with the angular momentum of the mapped
    phase point; flipping it reverses the traversal of the same great
    circle and negates ell3.  A dedicated test pins this sign.
    """
    return SpherePoint(omega=index.a_vec.copy(), xi=index.b_vec.copy())


# ---------------------------------------------------------------------------
# regularized flow
# ---------------------------------------------------------------------------

# Dormand-Prince 5(4) tableau.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)

# Global error near collision passes amplifies the per-step error by powers
# of |p|, so the per-step tolerance is run this much tighter than the
# requested trajectory tolerance.
_STEP_TIGHTEN = 1e-5

# An accepted state closer than this to the origin has lost the
# regularization; the run stops there.
_COLLISION_FLOOR = 1e-8


def _rhs(z) -> tuple:
    """Slope of the regularized flow at a 6-sequence z = (x, p), in floats."""
    x1, x2, x3, p1, p2, p3 = z
    r = math.sqrt((x1 * x1 + x2 * x2) + x3 * x3)
    rr = r * r
    return (r * p1, r * p2, r * p3, -x1 / rr, -x2 / rr, -x3 / rr)


@dataclass
class Trajectory:
    """Accepted integration states of the regularized flow."""

    s: np.ndarray
    states: np.ndarray

    def energies(self) -> np.ndarray:
        r = np.linalg.norm(self.states[:, :3], axis=1)
        return 0.5 * np.sum(self.states[:, 3:] ** 2, axis=1) - 1.0 / r

    def ell3(self) -> np.ndarray:
        return _wedge(self.states[:, :3], self.states[:, 3:], 0, 1)


def integrate_kepler(pt0: PhasePoint, s_max: float, tol: float = 1e-10) -> Trajectory:
    """Integrate dx/ds = |x| p, dp/ds = -x/|x|^2 up to regularized time s_max.

    Adaptive embedded Dormand-Prince 5(4) stepping with two rejection
    criteria: the embedded error estimate, and an energy drift above
    10 * tol in a single step.  On-shell initial data returns to itself at
    s = 2*pi to within about 100 * tol; off-shell data is integrated too
    but the periodicity statement no longer applies, so a warning is
    emitted.

    A step works on six Python floats, not on arrays: every component is
    one scalar expression, so no BLAS kernel runs inside a step and the
    result does not depend on it.  Squared norms are summed as
    (v1*v1 + v2*v2) + v3*v3, and the error norm is the square root of the
    left-to-right sum of the six scaled squares over 6.  A step whose stages
    divide by zero or produce non-finite values is rejected like any step
    with a non-finite error estimate.
    """
    if s_max < 0:
        raise ValueError("s_max must be >= 0")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    z = tuple(pt0.x.tolist() + pt0.p.tolist())
    x1, x2, x3, p1, p2, p3 = z
    kinetic = 0.5 * ((p1 * p1 + p2 * p2) + p3 * p3)
    potential = 1.0 / math.sqrt((x1 * x1 + x2 * x2) + x3 * x3)
    energy0 = kinetic - potential
    # the energy rounds at the size of its terms, which near-collision
    # starts (|p|^2/2 ~ 1/|x| ~ 1/ell^2) make large
    if abs(energy0 + 0.5) > 1e-9 * max(1.0, kinetic + potential):
        warnings.warn(
            f"initial energy {energy0!r} is off the -1/2 shell; the 2*pi "
            "period property does not apply",
            stacklevel=2,
        )
    rt = tol * _STEP_TIGHTEN
    s = 0.0
    h = min(0.05, s_max) if s_max > 0 else 0.0
    samples_s = [0.0]
    samples_z = [z]
    energy = energy0
    k1 = _rhs(z)
    max_steps = 2_000_000
    steps = 0
    while s < s_max:
        steps += 1
        if steps > max_steps:
            raise NumericalCollisionError(f"step budget exhausted at s={s}")
        h = min(h, s_max - s)
        try:
            k2 = _rhs([zi + h * (_A21 * a1) for zi, a1 in zip(z, k1)])
            k3 = _rhs([zi + h * (_A31 * a1 + _A32 * a2) for zi, a1, a2 in zip(z, k1, k2)])
            k4 = _rhs(
                [
                    zi + h * (_A41 * a1 + _A42 * a2 + _A43 * a3)
                    for zi, a1, a2, a3 in zip(z, k1, k2, k3)
                ]
            )
            k5 = _rhs(
                [
                    zi + h * (_A51 * a1 + _A52 * a2 + _A53 * a3 + _A54 * a4)
                    for zi, a1, a2, a3, a4 in zip(z, k1, k2, k3, k4)
                ]
            )
            k6 = _rhs(
                [
                    zi + h * (_A61 * a1 + _A62 * a2 + _A63 * a3 + _A64 * a4 + _A65 * a5)
                    for zi, a1, a2, a3, a4, a5 in zip(z, k1, k2, k3, k4, k5)
                ]
            )
            z_new = tuple(
                zi + h * (_B1 * a1 + _B3 * a3 + _B4 * a4 + _B5 * a5 + _B6 * a6)
                for zi, a1, a3, a4, a5, a6 in zip(z, k1, k3, k4, k5, k6)
            )
            k7 = _rhs(z_new)
            sq = 0.0
            for zi, zn, a1, a3, a4, a5, a6, a7 in zip(z, z_new, k1, k3, k4, k5, k6, k7):
                # z is finite, so a NaN in z_new survives max() as in np.maximum
                q = h * (_E1 * a1 + _E3 * a3 + _E4 * a4 + _E5 * a5 + _E6 * a6 + _E7 * a7) / (
                    rt * (1.0 + max(abs(zn), abs(zi)))
                )
                sq += q * q
            err = math.sqrt(sq / 6)
        except ZeroDivisionError:
            err = 2.0
        if not math.isfinite(err):
            err = 2.0
        accept = False
        if err <= 1.0:
            x1, x2, x3, p1, p2, p3 = z_new
            r_new = math.sqrt((x1 * x1 + x2 * x2) + x3 * x3)
            energy_new = 0.5 * ((p1 * p1 + p2 * p2) + p3 * p3) - 1.0 / r_new
            accept = abs(energy_new - energy) <= 10.0 * tol
        if accept:
            s += h
            z = z_new
            k1 = k7
            energy = energy_new
            if r_new < _COLLISION_FLOOR:
                raise NumericalCollisionError(
                    f"|x| fell below the collision floor {_COLLISION_FLOOR} at s={s}"
                )
            samples_s.append(s)
            samples_z.append(z)
            factor = 0.9 * err ** (-0.2) if err > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
        else:
            factor = 0.9 * err ** (-0.2) if err > 1.0 else 0.5
            h *= min(0.9, max(0.2, factor))
        if h <= 1e-15:
            raise NumericalCollisionError(f"step size collapsed at s={s}")
    return Trajectory(s=np.asarray(samples_s), states=np.asarray(samples_z))


def measure_period(traj: Trajectory) -> float:
    """Return the time at which a trajectory first recurs near 2*pi.

    The initial state is traj.states[0].  The phase condition
    f(s) = (z(s) - z(0)) . z'(0) is evaluated at every accepted state; the
    recurrence is the root of the cubic Hermite interpolant of f (end
    slopes z'(s) . z'(0)) on the first step where f turns from negative to
    non-negative and that ends in [2*pi - 0.5, 2*pi + 0.5].  Off the -1/2
    shell the period is 2*pi / sqrt(-2E) and may fall outside that window,
    and a trajectory may stop short of it; either raises ValueError.
    """
    z0 = traj.states[0]
    v0 = np.asarray(_rhs(z0))
    lo, hi = 2.0 * np.pi - 0.5, 2.0 * np.pi + 0.5
    s, f = traj.s, (traj.states - z0) @ v0
    up = np.flatnonzero((f[:-1] < 0.0) & (f[1:] >= 0.0) & (s[1:] >= lo) & (s[1:] <= hi))
    if not len(up):
        raise ValueError(
            f"the initial state does not recur for s in [{lo!r}, {hi!r}] "
            f"(trajectory ends at s={float(s[-1])!r})"
        )
    i = up[0]
    h = s[i + 1] - s[i]
    f0, f1 = f[i], f[i + 1]
    d0, d1 = (h * (np.asarray(_rhs(traj.states[j])) @ v0) for j in (i, i + 1))
    # Hermite cubic in t = (s - s_i) / h; of its real roots, the one
    # nearest the secant estimate
    t = np.roots([2 * f0 + d0 - 2 * f1 + d1, 3 * (f1 - f0) - 2 * d0 - d1, d0, f0])
    t = t.real[t.imag == 0.0]
    return float(s[i] + h * t[np.argmin(np.abs(t - f0 / (f0 - f1)))])


def orbit_point_from_elements(el: OrbitElements) -> PhasePoint:
    """Phase point on the energy shell for given elements and angle beta.

    The position direction is cos(beta) rl_hat + sin(beta) (ell x rl)-hat,
    the momentum lies on the circle of center ell x rl / |ell|^2 and radius
    1/|ell|, and |x| = 2/(|p|^2 + 1) places the point on the shell.
    """
    ell_norm = float(np.linalg.norm(el.ell))
    if ell_norm < 1e-13:
        raise CollisionOrbitError("collision orbits (|ell| = 0) are not parametrized")
    rl_norm = float(np.linalg.norm(el.rl))
    ell_hat = el.ell / ell_norm
    if rl_norm > 1e-13:
        a_hat = el.rl / rl_norm
    else:
        # circular orbit: the in-plane reference direction is arbitrary
        seed = np.zeros(3)
        seed[int(np.argmin(np.abs(ell_hat)))] = 1.0
        a_hat = np.cross(ell_hat, seed)
        a_hat /= np.linalg.norm(a_hat)
    w_hat = np.cross(ell_hat, a_hat)
    beta = el.beta
    p = (-np.sin(beta) * a_hat + (rl_norm + np.cos(beta)) * w_hat) / ell_norm
    x_dir = np.cos(beta) * a_hat + np.sin(beta) * w_hat
    r = 2.0 / (float(p @ p) + 1.0)
    return PhasePoint(x=r * x_dir, p=p)


# ---------------------------------------------------------------------------
# sampling the index set
# ---------------------------------------------------------------------------


def _orthonormalize(v: np.ndarray, a: np.ndarray | None = None) -> np.ndarray:
    """Normalize the rows of v in place, after removing their part along the
    unit rows a; True where the norm is above 1e-12."""
    v0, v1, v2, v3 = v.T
    with np.errstate(divide="ignore", invalid="ignore"):
        if a is not None:
            a0, a1, a2, a3 = a.T
            v -= (((v0 * a0 + v1 * a1) + v2 * a2) + v3 * a3)[:, None] * a
        norm = np.sqrt(((v0 * v0 + v1 * v1) + v2 * v2) + v3 * v3)
        v /= norm[:, None]
    return norm > 1e-12


def sample_index_batch(
    rng: np.random.Generator,
    n: int,
    columns: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, ...]] | None = None,
) -> tuple[np.ndarray, ...]:
    """n orthonormal pairs drawn from the rotation-invariant measure.

    Two independent standard Gaussian 4-vectors are orthonormalized in
    place; isotropy of the Gaussian makes the law rotation invariant.
    The stream is that of one (n, 4) draw of all first vectors followed by
    one of all second vectors.  A copy of ``rng`` re-reads the first
    vectors in blocks of _SAMPLE_BLOCK rows while ``rng``, having drawn
    and dropped them, draws the second ones alongside, so no first vector
    outlives its block and ``rng`` ends where the two draws leave it.
    Row norms and dots are column expressions summed in the order numpy's
    row reduction uses, ((c0 + c1) + c2) + c3, so they have its bits.
    Degenerate draws (vanishing norms or numerically parallel pairs) are
    redrawn at the end, in row order, by a recursive call on ``rng``.

    Without ``columns`` the result is the pair ``(a, b)`` of (n, 4) arrays.
    With it, ``columns(a_blk, b_blk)`` maps each block of orthonormal rows
    to a tuple of per-row arrays, and the result is those arrays over all
    n rows; then only the outputs stay resident.
    """
    ok = np.empty(n, dtype=bool)
    blocks = [slice(i, min(i + _SAMPLE_BLOCK, n)) for i in range(0, max(n, 1), _SAMPLE_BLOCK)]
    first = copy.deepcopy(rng)
    for blk in blocks:
        rng.standard_normal((blk.stop - blk.start, 4))
    outs = None
    for blk in blocks:
        a_blk = first.standard_normal((blk.stop - blk.start, 4))
        b_blk = rng.standard_normal((blk.stop - blk.start, 4))
        ok[blk] = _orthonormalize(a_blk) & _orthonormalize(b_blk, a_blk)
        got = (a_blk, b_blk) if columns is None else columns(a_blk, b_blk)
        if outs is None:
            outs = tuple(np.empty((n, *c.shape[1:]), c.dtype) for c in got)
        for out, c in zip(outs, got):
            out[blk] = c
    redo = np.flatnonzero(~ok)
    if len(redo):
        for out, patch in zip(outs, sample_index_batch(rng, len(redo), columns)):
            out[redo] = patch
    return outs


def sample_coherent_index(rng: np.random.Generator) -> CoherentIndex:
    """One draw from the rotation-invariant measure on the index set."""
    a, b = sample_index_batch(rng, 1)
    return CoherentIndex(a_vec=a[0], b_vec=b[0])
