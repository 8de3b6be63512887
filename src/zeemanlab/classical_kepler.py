"""Regularized Kepler problem, the Moser map, and the unit-covector index set.

The Kepler flow at energy -1/2 becomes the great-circle flow on the unit
cotangent bundle of the 3-sphere under the Moser correspondence

    omega_i = 2 p_i / (|p|^2 + 1),  omega_4 = (|p|^2 - 1)/(|p|^2 + 1),
    xi_i = ((|p|^2 + 1)/2) y_i - (y . p) p_i,  xi_4 = y . p,  y = -x,

with the time reparametrization d/ds = |x| d/dt, which makes every orbit
on the shell 2*pi periodic in s, collisions included.  Unit covectors are
indexed by pairs of orthonormal 4-vectors (the real and imaginary parts of
a complex index), carrying the rotation-invariant probability measure.

The integrator steps one orbit in Python floats: one call of _dp5_step
takes a step on named scalar locals, every component a scalar expression
in a fixed operation order, so no BLAS kernel runs inside a step.  The
index sampler orthonormalizes its draws in column-major blocks, so each
column expression reads contiguous memory.
"""

from __future__ import annotations

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


def _dp5_step(x1, x2, x3, p1, p2, p3, f1, f2, f3, f4, f5, f6, h, rt) -> tuple:
    """One Dormand-Prince 5(4) step of size h from the state (x, p) with slope f.

    Returns the new state, its slope, the scaled error norm and the new |x|.
    Each stage combination is written out per component in the tableau's
    order and each slope in the expressions of _rhs; the error norm is the
    square root of the left-to-right sum of the six scaled squares over 6.
    A stage on x = 0 raises ZeroDivisionError.
    """
    # stage 2
    y1 = x1 + h * (_A21 * f1)
    y2 = x2 + h * (_A21 * f2)
    y3 = x3 + h * (_A21 * f3)
    q1 = p1 + h * (_A21 * f4)
    q2 = p2 + h * (_A21 * f5)
    q3 = p3 + h * (_A21 * f6)
    r = math.sqrt((y1 * y1 + y2 * y2) + y3 * y3)
    rr = r * r
    g1, g2, g3, g4, g5, g6 = r * q1, r * q2, r * q3, -y1 / rr, -y2 / rr, -y3 / rr
    # stage 3
    y1 = x1 + h * (_A31 * f1 + _A32 * g1)
    y2 = x2 + h * (_A31 * f2 + _A32 * g2)
    y3 = x3 + h * (_A31 * f3 + _A32 * g3)
    q1 = p1 + h * (_A31 * f4 + _A32 * g4)
    q2 = p2 + h * (_A31 * f5 + _A32 * g5)
    q3 = p3 + h * (_A31 * f6 + _A32 * g6)
    r = math.sqrt((y1 * y1 + y2 * y2) + y3 * y3)
    rr = r * r
    c1, c2, c3, c4, c5, c6 = r * q1, r * q2, r * q3, -y1 / rr, -y2 / rr, -y3 / rr
    # stage 4
    y1 = x1 + h * (_A41 * f1 + _A42 * g1 + _A43 * c1)
    y2 = x2 + h * (_A41 * f2 + _A42 * g2 + _A43 * c2)
    y3 = x3 + h * (_A41 * f3 + _A42 * g3 + _A43 * c3)
    q1 = p1 + h * (_A41 * f4 + _A42 * g4 + _A43 * c4)
    q2 = p2 + h * (_A41 * f5 + _A42 * g5 + _A43 * c5)
    q3 = p3 + h * (_A41 * f6 + _A42 * g6 + _A43 * c6)
    r = math.sqrt((y1 * y1 + y2 * y2) + y3 * y3)
    rr = r * r
    d1, d2, d3, d4, d5, d6 = r * q1, r * q2, r * q3, -y1 / rr, -y2 / rr, -y3 / rr
    # stage 5
    y1 = x1 + h * (_A51 * f1 + _A52 * g1 + _A53 * c1 + _A54 * d1)
    y2 = x2 + h * (_A51 * f2 + _A52 * g2 + _A53 * c2 + _A54 * d2)
    y3 = x3 + h * (_A51 * f3 + _A52 * g3 + _A53 * c3 + _A54 * d3)
    q1 = p1 + h * (_A51 * f4 + _A52 * g4 + _A53 * c4 + _A54 * d4)
    q2 = p2 + h * (_A51 * f5 + _A52 * g5 + _A53 * c5 + _A54 * d5)
    q3 = p3 + h * (_A51 * f6 + _A52 * g6 + _A53 * c6 + _A54 * d6)
    r = math.sqrt((y1 * y1 + y2 * y2) + y3 * y3)
    rr = r * r
    e1, e2, e3, e4, e5, e6 = r * q1, r * q2, r * q3, -y1 / rr, -y2 / rr, -y3 / rr
    # stage 6
    y1 = x1 + h * (_A61 * f1 + _A62 * g1 + _A63 * c1 + _A64 * d1 + _A65 * e1)
    y2 = x2 + h * (_A61 * f2 + _A62 * g2 + _A63 * c2 + _A64 * d2 + _A65 * e2)
    y3 = x3 + h * (_A61 * f3 + _A62 * g3 + _A63 * c3 + _A64 * d3 + _A65 * e3)
    q1 = p1 + h * (_A61 * f4 + _A62 * g4 + _A63 * c4 + _A64 * d4 + _A65 * e4)
    q2 = p2 + h * (_A61 * f5 + _A62 * g5 + _A63 * c5 + _A64 * d5 + _A65 * e5)
    q3 = p3 + h * (_A61 * f6 + _A62 * g6 + _A63 * c6 + _A64 * d6 + _A65 * e6)
    r = math.sqrt((y1 * y1 + y2 * y2) + y3 * y3)
    rr = r * r
    k1, k2, k3, k4, k5, k6 = r * q1, r * q2, r * q3, -y1 / rr, -y2 / rr, -y3 / rr
    # fifth-order solution and its slope
    y1 = x1 + h * (_B1 * f1 + _B3 * c1 + _B4 * d1 + _B5 * e1 + _B6 * k1)
    y2 = x2 + h * (_B1 * f2 + _B3 * c2 + _B4 * d2 + _B5 * e2 + _B6 * k2)
    y3 = x3 + h * (_B1 * f3 + _B3 * c3 + _B4 * d3 + _B5 * e3 + _B6 * k3)
    q1 = p1 + h * (_B1 * f4 + _B3 * c4 + _B4 * d4 + _B5 * e4 + _B6 * k4)
    q2 = p2 + h * (_B1 * f5 + _B3 * c5 + _B4 * d5 + _B5 * e5 + _B6 * k5)
    q3 = p3 + h * (_B1 * f6 + _B3 * c6 + _B4 * d6 + _B5 * e6 + _B6 * k6)
    r_new = math.sqrt((y1 * y1 + y2 * y2) + y3 * y3)
    rr = r_new * r_new
    g1, g2, g3, g4, g5, g6 = r_new * q1, r_new * q2, r_new * q3, -y1 / rr, -y2 / rr, -y3 / rr
    # embedded error, each component scaled by rt (1 + max(|new|, |old|)); the
    # old state is finite, so a NaN in the new one survives max() as in np.maximum
    s1 = rt * (1.0 + max(abs(y1), abs(x1)))
    s2 = rt * (1.0 + max(abs(y2), abs(x2)))
    s3 = rt * (1.0 + max(abs(y3), abs(x3)))
    s4 = rt * (1.0 + max(abs(q1), abs(p1)))
    s5 = rt * (1.0 + max(abs(q2), abs(p2)))
    s6 = rt * (1.0 + max(abs(q3), abs(p3)))
    w1 = h * (_E1 * f1 + _E3 * c1 + _E4 * d1 + _E5 * e1 + _E6 * k1 + _E7 * g1) / s1
    w2 = h * (_E1 * f2 + _E3 * c2 + _E4 * d2 + _E5 * e2 + _E6 * k2 + _E7 * g2) / s2
    w3 = h * (_E1 * f3 + _E3 * c3 + _E4 * d3 + _E5 * e3 + _E6 * k3 + _E7 * g3) / s3
    w4 = h * (_E1 * f4 + _E3 * c4 + _E4 * d4 + _E5 * e4 + _E6 * k4 + _E7 * g4) / s4
    w5 = h * (_E1 * f5 + _E3 * c5 + _E4 * d5 + _E5 * e5 + _E6 * k5 + _E7 * g5) / s5
    w6 = h * (_E1 * f6 + _E3 * c6 + _E4 * d6 + _E5 * e6 + _E6 * k6 + _E7 * g6) / s6
    err = math.sqrt((((((w1 * w1 + w2 * w2) + w3 * w3) + w4 * w4) + w5 * w5) + w6 * w6) / 6)
    return y1, y2, y3, q1, q2, q3, g1, g2, g3, g4, g5, g6, err, r_new


def integrate_kepler(pt0: PhasePoint, s_max: float, tol: float = 1e-10) -> Trajectory:
    """Integrate dx/ds = |x| p, dp/ds = -x/|x|^2 up to regularized time s_max.

    Adaptive embedded Dormand-Prince 5(4) stepping with two rejection
    criteria: the embedded error estimate, and an energy drift above
    10 * tol in a single step.  On-shell initial data returns to itself at
    s = 2*pi to within about 100 * tol; off-shell data is integrated too
    but the periodicity statement no longer applies, so a warning is
    emitted.

    A step is one call of _dp5_step on the six floats of the state and the
    six of its slope, not on arrays: every component is one scalar
    expression, so no BLAS kernel runs inside a step and the result does
    not depend on it.  Squared norms are summed as (v1*v1 + v2*v2) + v3*v3,
    and the error norm is the square root of the left-to-right sum of the
    six scaled squares over 6.  A step whose stages divide by zero or
    produce non-finite values is rejected like any step with a non-finite
    error estimate.  The step is a function of its own, not the loop body,
    because CPython specializes a code object's instructions only after it
    has been entered several times: a loop body run once per process stays
    generic, a function called once per step does not.
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
    f1, f2, f3, f4, f5, f6 = _rhs(z)
    max_steps = 2_000_000
    steps = 0
    while s < s_max:
        steps += 1
        if steps > max_steps:
            raise NumericalCollisionError(f"step budget exhausted at s={s}")
        h = min(h, s_max - s)
        try:
            y1, y2, y3, q1, q2, q3, g1, g2, g3, g4, g5, g6, err, r_new = _dp5_step(
                x1, x2, x3, p1, p2, p3, f1, f2, f3, f4, f5, f6, h, rt
            )
        except ZeroDivisionError:
            err = 2.0
        if not math.isfinite(err):
            err = 2.0
        accept = False
        if err <= 1.0:
            energy_new = 0.5 * ((q1 * q1 + q2 * q2) + q3 * q3) - 1.0 / r_new
            accept = abs(energy_new - energy) <= 10.0 * tol
        if accept:
            s += h
            x1, x2, x3, p1, p2, p3 = y1, y2, y3, q1, q2, q3
            f1, f2, f3, f4, f5, f6 = g1, g2, g3, g4, g5, g6
            energy = energy_new
            if r_new < _COLLISION_FLOOR:
                raise NumericalCollisionError(
                    f"|x| fell below the collision floor {_COLLISION_FLOOR} at s={s}"
                )
            samples_s.append(s)
            samples_z.append((x1, x2, x3, p1, p2, p3))
            factor = 0.9 * err ** (-0.2) if err > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
        else:
            factor = 0.9 * err ** (-0.2) if err > 1.0 else 0.5
            h *= min(0.9, max(0.2, factor))
        if h <= 1e-15 and s < s_max:
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
    The stream is that of one (n, 8) draw, a row's first vector in its
    first four columns and its second vector in the last four, taken in
    blocks of _SAMPLE_BLOCK rows, each copied into one column-major buffer
    so that every column expression reads contiguous memory.  Row norms
    and dots are column expressions summed in the order numpy's row
    reduction uses, ((c0 + c1) + c2) + c3, so they have its bits.  The
    layout changes no bit: every operation is elementwise.  Degenerate draws
    (vanishing norms or numerically parallel pairs) are redrawn at the
    end, in row order, by a recursive call on ``rng``.

    Without ``columns`` the result is the pair ``(a, b)`` of (n, 4) arrays.
    With it, ``columns(a_blk, b_blk)`` maps each block of orthonormal rows
    to a tuple of per-row arrays, and the result is those arrays over all
    n rows; then only the outputs stay resident.
    """
    ok = np.empty(n, dtype=bool)
    outs = None
    ab = np.empty((min(n, _SAMPLE_BLOCK), 8), order="F")
    for start in range(0, max(n, 1), _SAMPLE_BLOCK):
        blk = slice(start, min(start + _SAMPLE_BLOCK, n))
        ab_blk = ab[: blk.stop - blk.start]
        np.copyto(ab_blk, rng.standard_normal(ab_blk.shape))
        a_blk, b_blk = ab_blk[:, :4], ab_blk[:, 4:]
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
