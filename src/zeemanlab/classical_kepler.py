"""Regularized Kepler problem, the Moser map, and the unit-covector index set.

The Kepler flow at energy -1/2 becomes the great-circle flow on the unit
cotangent bundle of the 3-sphere under the Moser correspondence

    omega_i = 2 p_i / (|p|^2 + 1),  omega_4 = (|p|^2 - 1)/(|p|^2 + 1),
    xi_i = ((|p|^2 + 1)/2) y_i - (y . p) p_i,  xi_4 = y . p,  y = -x,

with the time reparametrization d/ds = |x| d/dt, which makes every orbit
on the shell 2*pi periodic in s, collisions included.  Unit covectors are
indexed by pairs of orthonormal 4-vectors (the real and imaginary parts of
a complex index), carrying the rotation-invariant probability measure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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
    "symplectic_check",
    "integrate_kepler",
    "measure_period",
    "orbit_point_from_elements",
    "sample_coherent_index",
    "sample_index_batch",
]

_ORTHO_TOL = 1e-12


class SingularityError(ValueError):
    """Phase point sits at the Coulomb singularity x = 0."""


class NorthPoleError(ValueError):
    """Sphere point at the north pole has no finite-momentum preimage."""


class CollisionOrbitError(ValueError):
    """Orbit elements with zero angular momentum have no orbit-plane frame."""


class NumericalCollisionError(RuntimeError):
    """Trajectory fell below the collision floor; regularization lost."""


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
        a, b = self.a_vec, self.b_vec
        return float(a[0] * b[1] - a[1] * b[0])


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

    @classmethod
    def from_angles(
        cls, psi: float, theta: float, phi: float, gamma: float, beta: float = 0.0
    ) -> "OrbitElements":
        """Build elements from the five orbit angles.

        psi in (0, pi/2) sets |ell| = cos(psi) and |rl| = sin(psi);
        (theta, phi) orient ell on the 2-sphere; gamma rotates rl in the
        plane orthogonal to ell; beta moves along the orbit.
        """
        if not 0.0 < psi < np.pi / 2:
            raise ValueError(f"psi must lie in (0, pi/2), got {psi!r}")
        st, ct = np.sin(theta), np.cos(theta)
        sp, cp = np.sin(phi), np.cos(phi)
        ell = np.cos(psi) * np.array([st * cp, st * sp, ct])
        u_hat = np.array([sp, -cp, 0.0])
        v_hat = np.array([ct * cp, ct * sp, -st])
        rl = np.sin(psi) * (np.cos(gamma) * u_hat + np.sin(gamma) * v_hat)
        return cls(ell=ell, rl=rl, beta=beta)


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


def symplectic_check(
    pt: PhasePoint,
    radius: float,
    n_loops: int = 8,
    segments: int = 64,
    rng: np.random.Generator | None = None,
) -> float:
    """Line-integral test of the canonical identity behind the Moser map.

    The pullback of xi . d(omega) equals y . d(p) as 1-forms, so their
    integrals over any closed loop coincide; both are evaluated with the
    same chord-trapezoid rule over random circles of the given radius
    around ``pt`` and the worst absolute mismatch is returned.  The
    mismatch is pure quadrature error and vanishes at least cubically in
    the radius at fixed segment count.
    """
    if radius < 0:
        raise ValueError("loop radius must be >= 0")
    if rng is None:
        rng = np.random.default_rng(0)
    z0 = np.concatenate([pt.x, pt.p])
    t = np.linspace(0.0, 2.0 * np.pi, segments + 1)
    worst = 0.0
    for _ in range(n_loops):
        for _attempt in range(100):
            u = rng.standard_normal(6)
            nu = np.linalg.norm(u)
            v = rng.standard_normal(6)
            v -= (v @ u) * u / nu**2
            nv = np.linalg.norm(v)
            if nu > 1e-8 and nv > 1e-8:
                u, v = u / nu, v / nv
                break
        else:  # pragma: no cover - probability zero
            raise RuntimeError("could not draw a non-degenerate loop plane")
        loop = z0[None, :] + radius * (
            np.cos(t)[:, None] * u[None, :] + np.sin(t)[:, None] * v[None, :]
        )
        x, p = loop[:, :3], loop[:, 3:]
        omega, xi = _forward_arrays(x, p)
        y = -x
        phase_side = float(np.sum(0.5 * (y[1:] + y[:-1]) * (p[1:] - p[:-1])))
        sphere_side = float(np.sum(0.5 * (xi[1:] + xi[:-1]) * (omega[1:] - omega[:-1])))
        worst = max(worst, abs(phase_side - sphere_side))
    return worst


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


def _rhs(z: np.ndarray) -> np.ndarray:
    x, p = z[:3], z[3:]
    r = np.sqrt(x @ x)
    out = np.empty(6)
    out[:3] = r * p
    out[3:] = -x / (r * r)
    return out


def _energy_of(z: np.ndarray) -> float:
    return 0.5 * float(z[3:] @ z[3:]) - 1.0 / float(np.linalg.norm(z[:3]))


@dataclass
class Trajectory:
    """Accepted integration states of the regularized flow."""

    s: np.ndarray
    states: np.ndarray

    @property
    def final(self) -> PhasePoint:
        return PhasePoint(x=self.states[-1, :3], p=self.states[-1, 3:])

    def energies(self) -> np.ndarray:
        r = np.linalg.norm(self.states[:, :3], axis=1)
        return 0.5 * np.sum(self.states[:, 3:] ** 2, axis=1) - 1.0 / r

    def ell3(self) -> np.ndarray:
        x, p = self.states[:, :3], self.states[:, 3:]
        return x[:, 0] * p[:, 1] - x[:, 1] * p[:, 0]


def integrate_kepler(
    pt0: PhasePoint,
    s_max: float,
    tol: float = 1e-10,
    collision_floor: float = 1e-8,
) -> Trajectory:
    """Integrate dx/ds = |x| p, dp/ds = -x/|x|^2 up to regularized time s_max.

    Adaptive embedded Dormand-Prince 5(4) stepping with two rejection
    criteria: the embedded error estimate, and an energy drift above
    10 * tol in a single step.  On-shell initial data returns to itself at
    s = 2*pi to within about 100 * tol; off-shell data is integrated too
    but the periodicity statement no longer applies, so a warning is
    emitted.
    """
    if s_max < 0:
        raise ValueError("s_max must be >= 0")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    z = np.concatenate([pt0.x, pt0.p])
    energy0 = _energy_of(z)
    if abs(energy0 + 0.5) > 1e-9:
        warnings.warn(
            f"initial energy {energy0!r} is off the -1/2 shell; the 2*pi "
            "period property does not apply",
            stacklevel=2,
        )
    rt = tol * _STEP_TIGHTEN
    s = 0.0
    h = min(0.05, s_max) if s_max > 0 else 0.0
    samples_s = [0.0]
    samples_z = [z.copy()]
    k1 = _rhs(z)
    max_steps = 2_000_000
    steps = 0
    while s < s_max:
        steps += 1
        if steps > max_steps:
            raise RuntimeError("step budget exhausted; tolerance too tight?")
        h = min(h, s_max - s)
        k2 = _rhs(z + h * (_A21 * k1))
        k3 = _rhs(z + h * (_A31 * k1 + _A32 * k2))
        k4 = _rhs(z + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
        k5 = _rhs(z + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
        k6 = _rhs(z + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
        z_new = z + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
        k7 = _rhs(z_new)
        err_vec = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
        scale = rt * (1.0 + np.maximum(np.abs(z), np.abs(z_new)))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if not np.isfinite(err):
            err = 2.0
        energy_ok = abs(_energy_of(z_new) - _energy_of(z)) <= 10.0 * tol
        if err <= 1.0 and energy_ok:
            s += h
            z = z_new
            k1 = k7
            if float(np.linalg.norm(z[:3])) < collision_floor:
                raise NumericalCollisionError(
                    f"|x| fell below the collision floor {collision_floor} at s={s}"
                )
            samples_s.append(s)
            samples_z.append(z.copy())
            factor = 0.9 * err ** (-0.2) if err > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
        else:
            factor = 0.9 * err ** (-0.2) if err > 1.0 else 0.5
            h *= min(0.9, max(0.2, factor))
        if h <= 1e-15:
            raise NumericalCollisionError(f"step size collapsed at s={s}")
    return Trajectory(s=np.asarray(samples_s), states=np.asarray(samples_z))


def measure_period(pt0: PhasePoint, tol: float = 1e-10) -> float:
    """Return time to the first recurrence of the initial state near 2*pi.

    One integration up to s = 2*pi + 0.5 gives the phase condition
    f(s) = (z(s) - z(0)) . z'(0) at every accepted state.  The recurrence
    is the root of the cubic Hermite interpolant of f (end slopes
    z'(s) . z'(0)) on the first step where f turns from negative to
    non-negative and that ends in [2*pi - 0.5, 2*pi + 0.5].  Off the -1/2
    shell the period is 2*pi / sqrt(-2E) and may fall outside that window,
    which raises ValueError.
    """
    z0 = np.concatenate([pt0.x, pt0.p])
    v0 = _rhs(z0)
    lo, hi = 2.0 * np.pi - 0.5, 2.0 * np.pi + 0.5
    traj = integrate_kepler(pt0, hi, tol=tol)
    s, f = traj.s, (traj.states - z0) @ v0
    up = np.flatnonzero((f[:-1] < 0.0) & (f[1:] >= 0.0) & (s[1:] >= lo))
    if not len(up):
        raise ValueError(f"the initial state does not recur for s in [{lo!r}, {hi!r}]")
    i = up[0]
    h = s[i + 1] - s[i]
    f0, f1 = f[i], f[i + 1]
    d0, d1 = h * (_rhs(traj.states[i]) @ v0), h * (_rhs(traj.states[i + 1]) @ v0)
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


def sample_index_batch(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n orthonormal pairs drawn from the rotation-invariant measure.

    Two independent standard Gaussian 4-vectors are orthonormalized;
    isotropy of the Gaussian makes the law rotation invariant.  Degenerate
    draws (vanishing norms or numerically parallel pairs) are redrawn.
    """
    a = np.empty((n, 4))
    b = np.empty((n, 4))
    todo = np.arange(n)
    while len(todo):
        g1 = rng.standard_normal((len(todo), 4))
        g2 = rng.standard_normal((len(todo), 4))
        n1 = np.linalg.norm(g1, axis=1)
        ok1 = n1 > 1e-12
        g1[ok1] /= n1[ok1, None]
        g2 -= np.sum(g2 * g1, axis=1, keepdims=True) * g1
        n2 = np.linalg.norm(g2, axis=1)
        ok = ok1 & (n2 > 1e-12)
        g2[ok] /= n2[ok, None]
        a[todo[ok]] = g1[ok]
        b[todo[ok]] = g2[ok]
        todo = todo[~ok]
    return a, b


def sample_coherent_index(rng: np.random.Generator) -> CoherentIndex:
    """One draw from the rotation-invariant measure on the index set."""
    a, b = sample_index_batch(rng, 1)
    return CoherentIndex(a_vec=a[0], b_vec=b[0])
