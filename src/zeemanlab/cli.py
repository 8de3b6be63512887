"""Batch command-line front end producing CSV/JSON experiment artifacts.

Each command validates its input and computes its results, then returns
its files.  ``main`` alone creates the output directory and writes the
files in order, then a manifest (the parsed flags, package versions, wall
time, peak RSS).  So a command that fails writes nothing.  A failed write
exits 1 naming the file; the files written before it stay and no manifest
is written.
Results are deterministic for a fixed configuration and seed: dictionary
field order is fixed, CSV floats have 17 significant digits and JSON
floats are the shortest repr that round-trips, so reruns are
byte-identical (the manifest records the wall time and the peak RSS and
is exempt).  The CSV writer takes whole columns and works on blocks of
rows.  In a block it formats each run of rows equal bit for bit once,
and each distinct bit pattern of a column among the runs once, which
makes a cluster spectrum (few distinct rows, each many times over and
adjacent) cheap to write; a test pins its bytes to ``csv.writer``.  JSON
payloads are small summaries, written by ``json.dump(indent=2)``.  The
manifest's scipy version is read from scipy's version file, so commands
that need no scipy never import it.

Exit codes: 0 success, 1 usage or configuration error, 2 failed
scientific check (cluster separation, sub-cluster overlap, lost orbit
regularization, the pushforward identity of ``measures``).
"""

from __future__ import annotations

import argparse
import csv
import importlib.machinery
import importlib.util
import json
import math
import re
import sys
import time
from itertools import chain, repeat
from pathlib import Path

try:
    import resource
except ImportError:  # no getrusage on Windows
    resource = None

import numpy as np

from . import __version__
from .classical_kepler import (
    NumericalCollisionError,
    OrbitElements,
    integrate_kepler,
    kepler_constants,
    measure_period,
    orbit_point_from_elements,
    sample_coherent_index,
)
from .coherent_states import moment_convergence_table
from .hydrogenic_shell import ScalingSchedule
from .spectral_cluster import (
    ClusterSeparationError,
    SubclusterOverlapError,
    cluster_eigenvalues,
    ks_distance,
    scaled_shift_measure,
    subcluster_assignment,
    trace_average,
    triangular_shift_cdf,
)
from .szego_measures import (
    TestFunction,
    beta_marginalization_gap,
    haar_density_normalization,
    limit_angle_density,
    limit_quadric_mc,
    limit_triangular,
    liouville_pushforward_check,
)

class ConfigError(ValueError):
    pass


class IdentityCheckError(RuntimeError):
    """An exact identity of a command's output is off by more than rounding."""


class _Parser(argparse.ArgumentParser):
    """No flag abbreviations; usage errors exit 1 through ConfigError, not 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


# Rows go out in blocks of this many; within a block each run of equal
# rows, and each distinct bit pattern of a column among the runs, is
# formatted once.  The cap bounds the memory the formatted text takes.
_BLOCK_ROWS = 1 << 14


def _csv_texts(values: np.ndarray) -> list[str]:
    if values.dtype.kind == "f":
        return list(map("%.17g".__mod__, values.tolist()))
    return list(map(str, values.tolist()))


def _formatted(column: np.ndarray) -> list[str]:
    """CSV text of every value of a 1-d block, formatted once per distinct bit pattern.

    Deduplicating by bits rather than by value keeps -0.0 apart from 0.0
    and NaN equal to itself.
    """
    bits, inverse = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
    return np.array(_csv_texts(bits.view(column.dtype)), dtype=object)[inverse].tolist()


def write_json(path: Path, payload: dict) -> None:
    """``payload`` as indented JSON; numpy values json cannot encode go through ``tolist``."""
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, default=lambda v: v.tolist())
        fh.write("\n")


def _csv_block(block: list[np.ndarray]) -> str:
    """CSV lines of a block of rows, without the last line ending.

    A row equal bit for bit to the one above repeats its text; only the
    first row of each run is formatted.  A block's texts go when it
    returns, so they never share memory with the next block's.
    """
    # a run of equal rows starts where the bits of some column change
    new_run = np.zeros(len(block[0]), dtype=bool)
    new_run[0] = True
    for c in block:
        bits = c.view(f"u{c.itemsize}")
        new_run[1:] |= bits[1:] != bits[:-1]
    firsts = np.flatnonzero(new_run)
    counts = np.diff(firsts, append=len(new_run)).tolist()
    texts = [_formatted(c[firsts]) for c in block]
    # numbers never need CSV quoting; the line ending is csv's
    rows = list(map(",".join, zip(*texts)))
    del texts  # freed before the join allocates the block's text
    return "\r\n".join(chain.from_iterable(map(repeat, rows, counts)))


def write_csv(path: Path, header: list[str], columns) -> None:
    """One CSV row per entry of the 1-d ``columns``; a scalar column is broadcast.

    Floats have 17 significant digits, other values their ``str``.
    """
    columns = np.broadcast_arrays(*(np.atleast_1d(c) for c in columns))
    if any(c.ndim != 1 for c in columns):
        raise ValueError("CSV columns must be 1-d arrays or scalars")
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            # the last line ending goes out apart, which spares a copy of the text
            fh.write(_csv_block([c[start : start + _BLOCK_ROWS] for c in columns]))
            fh.write("\r\n")


def _config(args) -> dict:
    """Every flag of the command but ``--out``, as parsed, in ``--help`` order."""
    # argparse sets each default in definition order, so the keys keep it
    return {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}


def _write_results(args, files: dict, started: float) -> None:
    """Create the output directory, write ``files`` in order, then the manifest.

    ``files`` maps each file name to its content: ``(header, columns)``
    for a ``.csv``, a JSON payload otherwise.  A failed write is a usage
    error naming the file; the files written before it stay, and with no
    manifest written the run reads as incomplete.
    """
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {str(outdir)!r}: {exc.strerror}") from exc

    def write(name, content):
        path = outdir / name
        try:
            if name.endswith(".csv"):
                write_csv(path, *content)
            else:
                write_json(path, content)
        except OSError as exc:
            raise ConfigError(f"cannot write {str(path)!r}: {exc.strerror}") from exc

    for name, content in files.items():
        write(name, content)
    manifest = {
        "command": args.command,
        "config": _config(args),
        "versions": {
            "zeemanlab": __version__,
            "numpy": np.__version__,
            "scipy": _scipy_version(),
            "python": sys.version.split()[0],
        },
        "wall_time_s": time.time() - started,
        "peak_rss_mb": _peak_rss_mb(),
    }
    write("manifest.json", manifest)


def _scipy_version() -> str:
    """``scipy.__version__``, read from scipy/version.py without scipy's package init.

    Only the diamagnetic term needs scipy; importing it for its version
    alone would cost every other command 9-16 ms (2-vCPU machine).
    """
    package = importlib.util.find_spec("scipy")
    spec = importlib.machinery.PathFinder.find_spec(
        "scipy.version", package.submodule_search_locations
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.version


def _peak_rss_mb() -> float | None:
    """Peak resident set of this process in MiB; None without getrusage."""
    if resource is None:
        return None
    # ru_maxrss counts bytes on macOS and KiB on Linux and the BSDs
    unit = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit / 2**20


def _parse_n_list(text: str) -> list[int]:
    """Comma-separated, strictly increasing positive integers in ASCII digits."""
    fields = text.split(",")
    try:
        # int() alone also reads "+8", " 8", "4_0" and non-ASCII digits
        values = [int(v) for v in fields if re.fullmatch("[0-9]+", v)]
    except ValueError:  # more digits than int() converts
        values = []
    increasing = all(a < b for a, b in zip(values, values[1:]))
    if len(values) < len(fields) or values[0] < 1 or not increasing:
        # argparse keeps the message of this error type only
        raise argparse.ArgumentTypeError(
            f"bad N list {text!r}: want strictly increasing positive integers"
        )
    return values


def parse_rho(text: str) -> TestFunction:
    """Accepts '1', 'x', 'x^k', or comma-separated polynomial coefficients."""
    text = text.strip()
    try:
        if text in ("1", "x"):
            return TestFunction.monomial(0 if text == "1" else 1)
        if text.startswith("x^"):
            return TestFunction.monomial(int(text[2:]))
        if "," in text:
            return TestFunction.polynomial([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"bad test function {text!r}: {exc}") from exc
    raise ConfigError(f"bad test function {text!r}")


def _require_in_float_range(rho: TestFunction, B: float, samples: int) -> None:
    """Refuse B < 0, and a B at which rho(-(B/2) x), |x| <= 1, may leave the float range.

    2 sum |c_k| (B/2)^k bounds every value, limit and gap; the Monte-Carlo
    variance sums ``samples`` squared deviations, each below its square.
    """
    if B < 0:
        raise ConfigError(f"--B must be >= 0, got {B!r}")
    try:
        bound = 2.0 * sum(abs(c) * (B / 2.0) ** k for k, c in enumerate(rho.coefficients) if c)
    except OverflowError:  # a power beyond the float range
        bound = math.inf
    if not math.isfinite(max(samples, 1) * bound * bound):
        raise ConfigError(f"the test function at B={B!r} leaves the float range")


def _require_seed(args) -> np.random.Generator:
    if args.seed is None:
        raise ConfigError("this command is stochastic: --seed is mandatory")
    # the seed is the 128-bit Philox key
    if not 0 <= args.seed < 2**128:
        raise ConfigError(f"--seed must lie in [0, 2**128), got {args.seed}")
    return np.random.default_rng(np.random.Philox(key=args.seed))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_cluster(args) -> dict:
    # delta is the multishell band width; first order reads no band
    if (args.delta is None) == (args.mode == "multishell"):
        raise ConfigError("--delta goes with --mode multishell, and only with it")
    schedule = ScalingSchedule(B=args.B, q=args.q)
    spec = cluster_eigenvalues(args.N, schedule, args.delta)
    ks = ks_distance(scaled_shift_measure(spec), triangular_shift_cdf(args.B))
    summary = {
        "N": spec.N,
        "mode": args.mode,
        "ks_vs_triangular": ks,
        "diamagnetic_slack": schedule.diamagnetic_slack(args.N),
        "shift_scale": schedule.shift_scale(args.N),
        "subclusters": None,
        "max_center_distance": None,
    }
    if args.B > 0:
        dist = subcluster_assignment(spec)
        sizes = np.bincount(spec.subcluster_m + spec.N)
        summary["subclusters"] = {str(m - spec.N): int(c) for m, c in enumerate(sizes)}
        # empirical worst deviation of a scaled shift from its ladder center
        summary["max_center_distance"] = float(np.max(dist))
    return {
        "cluster_spectrum.csv": (
            ["N", "m", "shift", "scaled_shift"],
            [spec.N, spec.subcluster_m, spec.shifts, spec.scaled_shifts],
        ),
        "cluster_summary.json": summary,
    }


def cmd_szego(args) -> dict:
    if args.samples < 0:
        raise ConfigError(f"--samples must be >= 0, got {args.samples}")
    # only the Monte-Carlo column draws
    if args.seed is not None and not args.samples:
        raise ConfigError("--seed needs --samples > 0")
    rng = _require_seed(args) if args.samples else None
    rho = parse_rho(args.rho)
    _require_in_float_range(rho, args.B, args.samples)
    rhs_tri = limit_triangular(rho, args.B)
    rhs_angle = limit_angle_density(rho, args.B)
    rows = [("triangular", rhs_tri, None, None), ("angle_density", rhs_angle, None, None)]
    if args.samples:
        mc = limit_quadric_mc(rho, args.B, args.samples, rng)
        rows.append(("quadric_mc", mc.value, mc.std_error, mc.n_samples))
    lhs = np.array([trace_average(N, args.B, rho) for N in args.N_list])
    gaps = np.abs(lhs - rhs_tri)
    summary = {
        "config": _config(args),
        "results": [
            {"rho": args.rho, "B": args.B, "representation": r, "value": v, "std_error": e, "n": n}
            for r, v, e, n in rows
        ],
        "limit_triangular": rhs_tri,
        "limit_angle_density": rhs_angle,
        "triangular_vs_angle_gap": abs(rhs_tri - rhs_angle),
        "final_gap": gaps[-1],
    }
    return {
        "szego_table.csv": (
            ["N", "trace_average", "limit_triangular", "gap"],
            [args.N_list, lhs, rhs_tri, gaps],
        ),
        "szego_summary.json": summary,
    }


def cmd_coherent(args) -> dict:
    if args.m < 0:
        raise ConfigError(f"--m must be >= 0, got {args.m}")
    rng = _require_seed(args)
    index = sample_coherent_index(rng)
    table = moment_convergence_table(index, args.m, args.B, args.N_list)
    return {
        "coherent_convergence.csv": (
            ["N", "moment", "error", "slope"],
            [table.N_values, table.moments, table.errors, table.slope],
        ),
        "coherent_summary.json": {
            "config": _config(args),
            "ell3": index.ell3,
            "target": table.target,
            "slope": table.slope,
        },
    }


def cmd_kepler(args) -> dict:
    ell = args.ell
    if not 0.0 < ell <= 1.0:
        raise ConfigError("--ell must lie in (0, 1]")
    rl_norm = float(np.sqrt(max(0.0, 1.0 - ell * ell)))
    elements = OrbitElements(
        ell=np.array([0.0, 0.0, ell]), rl=np.array([rl_norm, 0.0, 0.0])
    )
    pt0 = orbit_point_from_elements(elements)
    traj = integrate_kepler(pt0, args.s_max, tol=args.tol)
    period = measure_period(traj)
    energies = traj.energies()
    ell3 = traj.ell3()
    energy0, ell_vec, rl_vec = kepler_constants(pt0)
    return {
        "trajectory.csv": (
            ["s", "x1", "x2", "x3", "p1", "p2", "p3", "energy", "ell3"],
            [traj.s, *traj.states.T, energies, ell3],
        ),
        "kepler_summary.json": {
            "config": _config(args),
            "initial_energy": energy0,
            "ell": ell_vec,
            "runge_lenz": rl_vec,
            "period": period,
            "period_minus_2pi": period - 2.0 * np.pi,
            "max_energy_drift": float(np.max(np.abs(energies - energies[0]))),
            "max_ell3_drift": float(np.max(np.abs(ell3 - ell3[0]))),
            "n_steps": len(traj.s) - 1,
        },
    }


def cmd_measures(args) -> dict:
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    rng = _require_seed(args)
    rho = TestFunction.monomial(2)
    _require_in_float_range(rho, args.B, args.samples)
    check = liouville_pushforward_check(args.samples, rng, rho, args.B)
    # x1 p2 - x2 p1 of the inverse lift is a0 b1 - a1 b0 for any reals.  Off the pole cap
    # each product x_i (a_j / (1 - a3)) is at most 2 and takes at most 5 roundings of
    # u = eps/2, their difference one more, and the index wedge 2u: 20u + u + 2u < 12 eps.
    gap, bound = check.max_pointwise_gap, 12 * sys.float_info.epsilon
    if not gap <= bound:
        raise IdentityCheckError(f"pushforward gap {gap!r} exceeds its rounding bound {bound!r}")
    mc = check.moment
    return {
        "ell3_samples.csv": (
            ["ell3_index", "ell3_phase"],
            [check.sample_ell3_index, check.sample_ell3_phase],
        ),
        "measures_summary.json": {
            "config": _config(args),
            "pushforward": {
                "max_pointwise_gap": check.max_pointwise_gap,
                "ks_vs_triangular": check.ks_vs_triangular,
                "skipped_fraction": check.skipped_fraction,
            },
            "haar_normalization": haar_density_normalization(1),
            "haar_normalization_refined": haar_density_normalization(2),
            "beta_marginalization_gap": beta_marginalization_gap(),
            "quadratic_moment": {
                "triangular": limit_triangular(rho, args.B),
                "angle_density": limit_angle_density(rho, args.B),
                "monte_carlo": mc.value,
                "std_error": mc.std_error,
            },
        },
    }


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zeemanlab",
        description="Reproducible experiments on Zeeman eigenvalue clusters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("cluster", help="cluster spectrum and its scaled-shift law")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--q", type=float, default=17.0)
    p.add_argument("--mode", choices=["first_order", "multishell"], default="first_order")
    p.add_argument("--delta", type=int)
    add_common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("szego", help="trace averages against the three limit values")
    p.add_argument("--rho", default="x^2")
    p.add_argument("--B", type=float, default=2.0)
    p.add_argument("--N-list", dest="N_list", type=_parse_n_list, default="25,50,100,200,400")
    p.add_argument("--samples", type=int, default=0)
    p.add_argument("--seed", type=int)
    add_common(p)
    p.set_defaults(func=cmd_szego)

    p = sub.add_parser("coherent", help="moment convergence of coherent states")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--N-list", dest="N_list", type=_parse_n_list, default="8,16,32,64")
    p.add_argument("--seed", type=int)
    add_common(p)
    p.set_defaults(func=cmd_coherent)

    p = sub.add_parser("kepler", help="regularized orbit integration diagnostics")
    p.add_argument("--ell", type=float, default=0.05)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--s-max", dest="s_max", type=float, default=4.0 * np.pi)
    add_common(p)
    p.set_defaults(func=cmd_kepler)

    p = sub.add_parser("measures", help="limit-measure identities and pushforward")
    p.add_argument("--samples", type=int, default=1000000)
    p.add_argument("--seed", type=int)
    p.add_argument("--B", type=float, default=2.0)
    add_common(p)
    p.set_defaults(func=cmd_measures)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # float() parses "nan" and "inf"
        for key, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"--{key.replace('_', '-')} must be finite, got {value!r}")
        started = time.time()
        _write_results(args, args.func(args), started)
        return 0
    except ValueError as exc:  # ConfigError and the library's input checks
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    except (
        ClusterSeparationError,
        SubclusterOverlapError,
        NumericalCollisionError,
        IdentityCheckError,
    ) as exc:
        print(f"scientific check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
