"""Batch command-line front end producing CSV/JSON experiment artifacts.

Each command validates its input and computes its results, then returns
its configuration and its files.  ``main`` alone creates the output
directory and writes the files in order, then a manifest (configuration
echo, package versions, wall time, peak RSS).  So a command that fails
writes nothing.  A failed write exits 1 naming the file; the files
written before it stay and no manifest is written.
Results are deterministic for a fixed configuration and seed: dictionary
field order is fixed, CSV floats have 17 significant digits and JSON
floats are the shortest repr that round-trips, so reruns are
byte-identical (the manifest records the wall time and the peak RSS and
is exempt).  The CSV writer takes whole columns and formats each
distinct bit pattern of a block of rows once, which makes a cluster
spectrum (few distinct shifts, each many times over) cheap to write; a
test pins its bytes to ``csv.writer``.  JSON payloads are small
summaries, written by ``json.dump(indent=2)``.

Exit codes: 0 success, 1 usage or configuration error, 2 failed
scientific check (cluster separation, sub-cluster overlap, lost orbit
regularization, the pushforward identity of ``measures``).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
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

OUTPUT_DIR_ENV = "ZEEMANLAB_OUT"


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


# Rows go out in blocks of this many; within a block each distinct bit
# pattern of a column is formatted once.  The cap bounds the memory the
# formatted text takes.
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
    column = np.ascontiguousarray(column)
    bits, inverse = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
    return np.array(_csv_texts(bits.view(column.dtype)), dtype=object)[inverse].tolist()


def write_json(path: Path, payload: dict) -> None:
    """``payload`` as indented JSON; numpy values json cannot encode go through ``tolist``."""
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, default=lambda v: v.tolist())
        fh.write("\n")


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
            texts = [_formatted(c[start : start + _BLOCK_ROWS]) for c in columns]
            # numbers never need CSV quoting; the line ending is csv's
            fh.write("\r\n".join(map(",".join, zip(*texts))) + "\r\n")


def _write_results(args, config: dict, files: dict, started: float) -> None:
    """Create the output directory, write ``files`` in order, then the manifest.

    ``files`` maps each file name to its content: ``(header, columns)``
    for a ``.csv``, a JSON payload otherwise.  A failed write is a usage
    error naming the file; the files written before it stay, and with no
    manifest written the run reads as incomplete.
    """
    import scipy

    outdir = Path(args.out or os.environ.get(OUTPUT_DIR_ENV) or ".")
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
        "config": config,
        "versions": {
            "zeemanlab": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": time.time() - started,
        "peak_rss_mb": _peak_rss_mb(),
    }
    write("manifest.json", manifest)


def _peak_rss_mb() -> float | None:
    """Peak resident set of this process in MiB; None without getrusage."""
    if resource is None:
        return None
    # ru_maxrss counts bytes on macOS and KiB on Linux and the BSDs
    unit = 1 if sys.platform == "darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * unit / 2**20


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise ConfigError(f"bad N list {text!r}") from exc
    if not values or any(v < 1 for v in values):
        raise ConfigError(f"bad N list {text!r}")
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


def cmd_cluster(args) -> tuple[dict, dict]:
    if args.N is None:
        raise ConfigError("cluster needs --N (flag or config file)")
    schedule = ScalingSchedule(
        B=args.B, q=args.q, include_diamagnetic=not args.no_diamagnetic
    )
    config = {
        "N": args.N,
        "B": args.B,
        "q": args.q,
        "mode": args.mode,
        "delta": args.delta,
        "diamagnetic": not args.no_diamagnetic,
    }
    spec = cluster_eigenvalues(args.N, schedule, mode=args.mode, delta=args.delta)
    ks = ks_distance(scaled_shift_measure(spec), triangular_shift_cdf(args.B))
    summary = {
        "N": spec.N,
        "mode": spec.mode,
        "ks_vs_triangular": ks,
        "diamagnetic_slack": spec.diamagnetic_slack,
        "shift_scale": schedule.shift_scale(args.N),
        "subclusters": None,
        "max_center_distance": None,
    }
    if args.B > 0:
        assignment = subcluster_assignment(spec)
        summary["subclusters"] = {
            str(m): len(vals) for m, vals in sorted(assignment.items())
        }
        # empirical worst deviation of a scaled shift from its ladder center
        summary["max_center_distance"] = max(
            float(np.max(np.abs(np.asarray(v) + (args.B / 2.0) * m / (args.N + 1))))
            for m, v in assignment.items()
            if len(v)
        )
    return config, {
        "cluster_spectrum.csv": (
            ["N", "m", "shift", "scaled_shift"],
            [spec.N, spec.subcluster_m, spec.shifts, spec.scaled_shifts],
        ),
        "cluster_summary.json": summary,
    }


def cmd_szego(args) -> tuple[dict, dict]:
    if args.samples < 0:
        raise ConfigError(f"--samples must be >= 0, got {args.samples}")
    rho = parse_rho(args.rho)
    n_list = _parse_n_list(args.N_list)
    config = {"rho": args.rho, "B": args.B, "N_list": n_list, "samples": args.samples}
    _require_in_float_range(rho, args.B, args.samples)
    rhs_tri = limit_triangular(rho, args.B)
    rhs_angle = limit_angle_density(rho, args.B)
    rows = [("triangular", rhs_tri, None, None), ("angle_density", rhs_angle, None, None)]
    if args.samples:
        mc = limit_quadric_mc(rho, args.B, args.samples, _require_seed(args))
        rows.append(("quadric_mc", mc.value, mc.std_error, mc.n_samples))
    lhs = np.array([trace_average(N, args.B, rho) for N in n_list])
    gaps = np.abs(lhs - rhs_tri)
    summary = {
        "config": config,
        "results": [
            {"rho": args.rho, "B": args.B, "representation": r, "value": v, "std_error": e, "n": n}
            for r, v, e, n in rows
        ],
        "limit_triangular": rhs_tri,
        "limit_angle_density": rhs_angle,
        "triangular_vs_angle_gap": abs(rhs_tri - rhs_angle),
        "final_gap": gaps[-1],
    }
    return config, {
        "szego_table.csv": (
            ["N", "trace_average", "limit_triangular", "gap"],
            [n_list, lhs, rhs_tri, gaps],
        ),
        "szego_summary.json": summary,
    }


def cmd_coherent(args) -> tuple[dict, dict]:
    if args.m < 0:
        raise ConfigError(f"--m must be >= 0, got {args.m}")
    rng = _require_seed(args)
    n_list = _parse_n_list(args.N_list)
    config = {"m": args.m, "B": args.B, "N_list": n_list, "seed": args.seed}
    index = sample_coherent_index(rng)
    table = moment_convergence_table(index, args.m, args.B, n_list)
    return config, {
        "coherent_convergence.csv": (
            ["N", "moment", "error", "slope"],
            [table.N_values, table.moments, table.errors, table.slope],
        ),
        "coherent_summary.json": {
            "config": config,
            "ell3": index.ell3,
            "target": table.target,
            "slope": table.slope,
        },
    }


def cmd_kepler(args) -> tuple[dict, dict]:
    ell = args.ell
    if not 0.0 < ell <= 1.0:
        raise ConfigError("--ell must lie in (0, 1]")
    config = {"ell": ell, "tol": args.tol, "s_max": args.s_max}
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
    return config, {
        "trajectory.csv": (
            ["s", "x1", "x2", "x3", "p1", "p2", "p3", "energy", "ell3"],
            [traj.s, *traj.states.T, energies, ell3],
        ),
        "kepler_summary.json": {
            "config": config,
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


def cmd_measures(args) -> tuple[dict, dict]:
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    rng = _require_seed(args)
    config = {"samples": args.samples, "seed": args.seed, "B": args.B}
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
    return config, {
        "ell3_samples.csv": (
            ["ell3_index", "ell3_phase"],
            [check.sample_ell3_index, check.sample_ell3_phase],
        ),
        "measures_summary.json": {
            "config": config,
            "pushforward": {
                "max_pointwise_gap": check.max_pointwise_gap,
                "ks_vs_index_law": check.ks_vs_index_law,
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
    parser.add_argument(
        "--config",
        default=None,
        help="JSON file with default option values, merged under explicit flags",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_seed=False):
        p.add_argument("--out", default=None, help="output directory")
        if with_seed:
            p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("cluster", help="cluster spectrum and its scaled-shift law")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--q", type=float, default=17.0)
    p.add_argument("--mode", choices=["first_order", "multishell"], default="first_order")
    p.add_argument("--delta", type=int, default=2)
    p.add_argument("--no-diamagnetic", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("szego", help="trace averages against the three limit values")
    p.add_argument("--rho", default="x^2")
    p.add_argument("--B", type=float, default=2.0)
    p.add_argument("--N-list", dest="N_list", default="25,50,100,200,400")
    p.add_argument("--samples", type=int, default=0)
    add_common(p, with_seed=True)
    p.set_defaults(func=cmd_szego)

    p = sub.add_parser("coherent", help="moment convergence of coherent states")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--B", type=float, default=1.0)
    p.add_argument("--N-list", dest="N_list", default="8,16,32,64")
    add_common(p, with_seed=True)
    p.set_defaults(func=cmd_coherent)

    p = sub.add_parser("kepler", help="regularized orbit integration diagnostics")
    p.add_argument("--ell", type=float, default=0.05)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--s-max", dest="s_max", type=float, default=4.0 * np.pi)
    add_common(p)
    p.set_defaults(func=cmd_kepler)

    p = sub.add_parser("measures", help="limit-measure identities and pushforward")
    p.add_argument("--samples", type=int, default=1000000)
    p.add_argument("--B", type=float, default=2.0)
    add_common(p, with_seed=True)
    p.set_defaults(func=cmd_measures)

    return parser


# JSON types a config-file value may have, by the option's argparse type
_JSON_TYPES = {int: (int,), float: (int, float), None: (str,)}


def _merge_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    args = parser.parse_args(argv)
    if args.config:
        try:
            defaults = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
        if not isinstance(defaults, dict):
            raise ConfigError("config file must hold a JSON object")
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        command = sub.choices[args.command]
        options = {a.dest: a for a in command._actions if a.dest != "help"}
        values = {}
        for key, value in defaults.items():
            attr = key.replace("-", "_")
            if attr not in options:
                raise ConfigError(f"config key {key!r} is not an option of {args.command!r}")
            values[attr] = _config_value(key, value, options[attr])
        # the file's values become the command's defaults, so flags given
        # on the command line win over them
        command.set_defaults(**values)
        args = parser.parse_args(argv)
    # float() parses "nan" and "inf", and json.loads accepts NaN and Infinity
    for key, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"--{key.replace('_', '-')} must be finite, got {value!r}")
    return args


def _config_value(key: str, value, action: argparse.Action):
    """The file's value as the option stores it, if its JSON type and choice fit."""
    kinds = (bool,) if action.nargs == 0 else _JSON_TYPES[action.type]
    if (
        isinstance(value, bool) != (kinds == (bool,))
        or not isinstance(value, kinds)
        or (action.choices is not None and value not in action.choices)
    ):
        expected = " or ".join(k.__name__ for k in kinds)
        raise ConfigError(f"config key {key!r} cannot take {value!r} (expected {expected})")
    return action.type(value) if action.type else value


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = _merge_config_file(parser, argv)
        started = time.time()
        config, files = args.func(args)
        _write_results(args, config, files, started)
        return 0
    except ValueError as exc:  # ConfigError and the library's input checks
        print(f"error: {exc}", file=sys.stderr)
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
