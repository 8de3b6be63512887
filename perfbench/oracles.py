"""Output checks for the benchmark's commands, independent of zeemanlab.

Every expected value here is recomputed from closed forms with numpy
alone; nothing is imported from the package under test.  Each check
function takes an output directory (or, for the pure checkers, parsed
data) and returns a list of failure messages: an empty list means the
output is correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

LADDER_TOL = 1e-12
TRACE_RTOL = 1e-8
MOMENT_RTOL = 1e-12
PERIOD_TOL_FACTOR = 100.0
POINTWISE_GAP_TOL = 1e-12
HAAR_TOL = 1e-10
MC_SIGMAS = 5.0


def read_spectrum_csv(path: Path) -> np.ndarray:
    """Rows (N, m, shift, scaled_shift) of cluster_spectrum.csv."""
    with path.open() as fh:
        header = fh.readline().strip()
        if header != "N,m,shift,scaled_shift":
            raise ValueError(f"unexpected header {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != 4:
        raise ValueError(f"expected 4 columns, got {data.shape[1]}")
    return data


def ladder_coefficient(l: int, m: int) -> float:
    """c_{l,m} in cos(theta) Y_{l,m} = c_{l,m} Y_{l+1,m} + c_{l-1,m} Y_{l-1,m}."""
    if l < abs(m):
        return 0.0
    return math.sqrt(((l + 1) ** 2 - m * m) / ((2 * l + 1.0) * (2 * l + 3.0)))


def field_strength(N: int, B: float, q: float) -> float:
    """lambda = h^3 h^q B with h = 1/(N+1)."""
    h = 1.0 / (N + 1)
    return h**3 * h**q * B


def diamagnetic_block_trace(N: int, m: int, lam: float) -> float:
    """(lambda^2/8) trace of (x1^2 + x2^2) on the m-block of shell N.

    Uses the closed form <nl|r^2|nl> = (n^2/2)(5n^2 + 1 - 3l(l+1)) and
    <l,m|sin^2|l,m> = 1 - c_{l,m}^2 - c_{l-1,m}^2.
    """
    n = N + 1
    total = 0.0
    for l in range(abs(m), N + 1):
        radial = 0.5 * n * n * (5.0 * n * n + 1.0 - 3.0 * l * (l + 1))
        sin2 = 1.0 - ladder_coefficient(l, m) ** 2 - ladder_coefficient(l - 1, m) ** 2
        total += radial * sin2
    return lam * lam / 8.0 * total


def _shell_structure(rows: np.ndarray, N: int) -> list[str]:
    """Row count (N+1)^2, N column, and sub-cluster sizes N+1-|m|."""
    errors = []
    if len(rows) != (N + 1) ** 2:
        errors.append(f"expected {(N + 1) ** 2} rows, got {len(rows)}")
    if len(rows) and np.any(rows[:, 0] != N):
        errors.append("N column does not equal N on every row")
    m = rows[:, 1]
    if np.any(m != np.round(m)) or np.any(np.abs(m) > N):
        errors.append("m column holds a value outside the integers -N..N")
        return errors
    counts = np.bincount((m + N).astype(int), minlength=2 * N + 1)
    expected = N + 1 - np.abs(np.arange(-N, N + 1))
    bad = np.flatnonzero(counts != expected)
    if len(bad):
        k = int(bad[0])
        errors.append(
            f"m={k - N} has {int(counts[k])} shifts, expected {int(expected[k])}"
        )
    return errors


def check_ladder(rows: np.ndarray, N: int, B: float) -> list[str]:
    """Diamagnetic term skipped: every scaled shift is -(B/2) m/(N+1)."""
    errors = _shell_structure(rows, N)
    if len(rows):
        gap = np.abs(rows[:, 3] + (B / 2.0) * rows[:, 1] / (N + 1))
        worst = float(np.max(gap))
        if not worst <= LADDER_TOL:
            errors.append(f"scaled shift off its ladder value by {worst:.3e}")
    return errors


def check_block_traces(rows: np.ndarray, N: int, B: float, q: float) -> list[str]:
    """Each m-block sum of shifts equals the trace of W on that block.

    Tolerance is TRACE_RTOL relative to the diamagnetic part of the trace,
    the part the radial quadrature produces.
    """
    errors = _shell_structure(rows, N)
    if errors:
        return errors
    lam = field_strength(N, B, q)
    m = rows[:, 1].astype(int)
    sums = np.zeros(2 * N + 1)
    np.add.at(sums, m + N, rows[:, 2])
    worst = 0.0
    for mm in range(-N, N + 1):
        dia = diamagnetic_block_trace(N, mm, lam)
        para = -0.5 * lam * mm * (N + 1 - abs(mm))
        rel = abs(sums[mm + N] - (dia + para)) / abs(dia)
        worst = max(worst, rel)
    if not worst <= TRACE_RTOL:
        errors.append(f"m-block trace off by {worst:.3e} of its diamagnetic part")
    return errors


def check_subclusters(summary: dict, N: int) -> list[str]:
    """cluster_summary.json lists sub-cluster sizes N+1-|m| for every m."""
    got = summary.get("subclusters") or {}
    want = {str(m): N + 1 - abs(m) for m in range(-N, N + 1)}
    if got != want:
        return ["cluster_summary.json sub-cluster sizes differ from N+1-|m|"]
    return []


def coherent_index(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal pair the coherent command draws from Philox(key=seed).

    Two standard Gaussian 4-vectors, normalized and Gram-Schmidt
    orthogonalized; a degenerate draw (probability zero) is reported, not
    redrawn.
    """
    rng = np.random.default_rng(np.random.Philox(key=seed))
    g1 = rng.standard_normal(4)
    g2 = rng.standard_normal(4)
    a = g1 / np.linalg.norm(g1)
    g2 = g2 - (g2 @ a) * a
    norm2 = np.linalg.norm(g2)
    if norm2 <= 1e-12:
        raise ValueError("degenerate index draw")
    return a, g2 / norm2


def _binomial_pmf(N: int, p: float) -> np.ndarray:
    """Bin(N, p) by N convolutions with [1-p, p]: all terms positive."""
    pmf = np.ones(1)
    step = np.array([1.0 - p, p])
    for _ in range(N):
        pmf = np.convolve(pmf, step)
    return pmf


def l3_moment(a: np.ndarray, b: np.ndarray, N: int, power: int, B: float) -> float:
    """E[(h (-B/2) L3)^power] from the SU(2) x SU(2) law of L3.

    L3 = X1 + X2 - N with X_{1,2} ~ Bin(N, (1 + c_{1,2})/2),
    c_{1,2} = w12 +- w34 and w = a ^ b.
    """
    w12 = a[0] * b[1] - a[1] * b[0]
    w34 = a[2] * b[3] - a[3] * b[2]
    law = np.convolve(
        _binomial_pmf(N, 0.5 * (1.0 + w12 + w34)),
        _binomial_pmf(N, 0.5 * (1.0 + w12 - w34)),
    )
    values = (-B / 2.0) / (N + 1) * (np.arange(2 * N + 1) - N)
    return float(np.sum(law * values**power))


def check_coherent_rows(
    rows: np.ndarray, summary_ell3: float, seed: int, power: int, B: float, n_list
) -> list[str]:
    """Moments against the exact law, for the index drawn from ``seed``."""
    errors = []
    a, b = coherent_index(seed)
    ell3 = float(a[0] * b[1] - a[1] * b[0])
    if not abs(ell3 - summary_ell3) <= 1e-14:
        errors.append(f"ell3 {summary_ell3!r} differs from the seed's index {ell3!r}")
    if [int(v) for v in rows[:, 0]] != sorted(n_list):
        errors.append(f"N column {rows[:, 0].tolist()} differs from {sorted(n_list)}")
        return errors
    for N, moment in zip(rows[:, 0].astype(int), rows[:, 1]):
        want = l3_moment(a, b, int(N), power, B)
        rel = abs(moment - want) / abs(want)
        if not rel <= MOMENT_RTOL:
            errors.append(f"N={N}: moment {moment!r} off the exact law by {rel:.3e}")
    return errors


def check_period(summary: dict, tol: float) -> list[str]:
    """The regularized flow has period 2*pi; allow 100 * tol."""
    err = abs(float(summary["period"]) - 2.0 * math.pi)
    if not err <= PERIOD_TOL_FACTOR * tol:
        return [f"period off 2*pi by {err:.3e} > {PERIOD_TOL_FACTOR * tol:.1e}"]
    return []


def check_measures_summary(summary: dict) -> list[str]:
    """Pointwise pushforward gap, Haar normalizations and the MC moment."""
    errors = []
    gap = float(summary["pushforward"]["max_pointwise_gap"])
    if not gap <= POINTWISE_GAP_TOL:
        errors.append(f"pushforward pointwise gap {gap:.3e}")
    for key in ("haar_normalization", "haar_normalization_refined"):
        value = float(summary[key])
        if not abs(value - 1.0) <= HAAR_TOL:
            errors.append(f"{key} = {value!r} is not 1 within {HAAR_TOL}")
    moment = summary["quadratic_moment"]
    dev = abs(float(moment["monte_carlo"]) - 1.0 / 6.0)
    sigma = float(moment["std_error"])
    if not (sigma > 0.0 and dev <= MC_SIGMAS * sigma):
        errors.append(f"MC quadratic moment {dev:.3e} from 1/6, std_error {sigma:.3e}")
    return errors


# ---------------------------------------------------------------------------
# per-command entry points: read the files a command wrote and check them
# ---------------------------------------------------------------------------


def _json(outdir: Path, name: str) -> dict:
    return json.loads((outdir / name).read_text())


def check_cluster_output(outdir: Path, params: dict) -> list[str]:
    """cluster: the check depends on whether the diamagnetic term is live."""
    N, B, q = params["N"], params["B"], params["q"]
    rows = read_spectrum_csv(outdir / "cluster_spectrum.csv")
    summary = _json(outdir, "cluster_summary.json")
    errors = check_subclusters(summary, N)
    oracle = params["oracle"]
    if oracle == "ladder":
        errors += check_ladder(rows, N, B)
    elif oracle == "block_trace":
        errors += check_block_traces(rows, N, B, q)
    elif oracle == "structure":
        errors += _shell_structure(rows, N)
    else:
        raise ValueError(f"unknown cluster oracle {oracle!r}")
    return errors


def check_coherent_output(outdir: Path, params: dict) -> list[str]:
    with (outdir / "coherent_convergence.csv").open() as fh:
        if fh.readline().strip() != "N,moment,error,slope":
            return ["coherent_convergence.csv has an unexpected header"]
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    summary = _json(outdir, "coherent_summary.json")
    return check_coherent_rows(
        rows, float(summary["ell3"]), params["seed"], params["m"], params["B"],
        params["N_list"],
    )


def check_kepler_output(outdir: Path, params: dict) -> list[str]:
    summary = _json(outdir, "kepler_summary.json")
    errors = check_period(summary, params["tol"])
    with (outdir / "trajectory.csv").open() as fh:
        n_rows = sum(1 for _ in fh) - 1
    if n_rows != int(summary["n_steps"]) + 1:
        errors.append(f"trajectory.csv has {n_rows} rows for {summary['n_steps']} steps")
    return errors


def check_measures_output(outdir: Path, params: dict) -> list[str]:
    return check_measures_summary(_json(outdir, "measures_summary.json"))

