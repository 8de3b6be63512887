"""Hold the scalar Kepler stepper to the retired array stepper, byte for byte.

Integrates 99 on-shell orbits to s = 4*pi: |ell| log-spaced in [1e-3, 1],
each with a random orientation of (ell, A) and a random angle beta along
the orbit from a fixed seed, the tol cycling through 1e-6, 1e-8, 1e-10.
Each trajectory (its s values and states) must equal that of the array
stepper of tests/reference.py with the same squared norms, byte for byte,
or both must raise the same error message.  The array stepper takes about
40 s on 2 vCPUs, which is why this is a script and not a tier-1 test.  Run
it from the repository root:

    PYTHONPATH=src python tests/kepler_sweep.py

It prints the count and exits 1 on the first orbit whose bytes differ.
"""

from __future__ import annotations

import numpy as np
from reference import numpy_integrate_kepler, spelled_sq

from zeemanlab.classical_kepler import (
    NumericalCollisionError,
    OrbitElements,
    integrate_kepler,
    orbit_point_from_elements,
)

ORBITS = 99
TOLS = (1e-6, 1e-8, 1e-10)
S_MAX = 4.0 * np.pi
SEED = 1


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def orbits():
    """(|ell|, tol, start) of every orbit of the sweep."""
    rng = np.random.default_rng(SEED)
    for i, ell in enumerate(np.geomspace(1e-3, 1.0, ORBITS)):
        u = _unit(rng.standard_normal(3))
        w = _unit(np.cross(u, rng.standard_normal(3)))
        el = OrbitElements(
            ell=ell * u, rl=np.sqrt(1.0 - ell * ell) * w, beta=rng.uniform(0.0, 2.0 * np.pi)
        )
        yield ell, TOLS[i % len(TOLS)], orbit_point_from_elements(el)


def _outcome(integrate, *args, **kwargs):
    try:
        traj = integrate(*args, **kwargs)
    except NumericalCollisionError as exc:
        return str(exc)
    return traj.s.tobytes(), traj.states.tobytes()


def sweep() -> int:
    steps = 0
    for ell, tol, pt0 in orbits():
        got = _outcome(integrate_kepler, pt0, S_MAX, tol=tol)
        want = _outcome(numpy_integrate_kepler, pt0, S_MAX, tol=tol, sq=spelled_sq)
        if got != want:
            raise SystemExit(f"|ell| = {float(ell)!r}, tol = {tol!r}: the scalar and array steppers differ")
        steps += len(got[0]) // 8 - 1 if isinstance(got, tuple) else 0
    return steps


if __name__ == "__main__":
    steps = sweep()
    print(f"{ORBITS} orbits, {steps} accepted steps in all, to s = 4 pi: bit-identical")
