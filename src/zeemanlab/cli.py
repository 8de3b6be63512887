"""Batch command-line front end producing CSV/JSON experiment artifacts.

Every command writes its results plus a manifest (configuration echo,
package versions, wall time) into the output directory.  Results are
deterministic for a fixed configuration and seed: dictionary field order
is fixed, CSV floats have 17 significant digits and JSON floats are the
shortest repr that round-trips, so reruns are byte-identical (the manifest
records the wall time and is exempt).  The writers take whole columns and
format each distinct bit pattern of a block of rows once, which makes a
cluster spectrum (few distinct shifts, each many times over) cheap to
write; tests pin their bytes to ``csv.writer`` and ``json.dump(indent=2)``.

Exit codes: 0 success, 1 usage or configuration error, 2 failed
scientific check (cluster separation, sub-cluster overlap, lost orbit
regularization).
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
    HaarGrid,
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


def _normalize(obj):
    # json.dumps writes the shortest repr that round-trips, so Python floats
    # already serialize deterministically; only numpy types need converting
    if isinstance(obj, dict):
        return {k: _normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_normalize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _csv_texts(values: np.ndarray) -> list[str]:
    if values.dtype.kind == "f":
        return list(map("%.17g".__mod__, values.tolist()))
    return list(map(str, values.tolist()))


def _json_texts(values: np.ndarray) -> list[str]:
    if values.dtype.kind == "b":
        return ["true" if v else "false" for v in values.tolist()]
    texts = list(map(repr, values.tolist()))
    if values.dtype.kind == "f":
        # json spells the non-finite floats NaN, Infinity and -Infinity
        for i in np.flatnonzero(~np.isfinite(values)):
            texts[i] = json.dumps(values[i].item())
    return texts


def _formatted(column: np.ndarray, texts) -> list[str]:
    """``texts`` of every value of a 1-d block, run once per distinct bit pattern.

    Deduplicating by bits rather than by value keeps -0.0 apart from 0.0
    and NaN equal to itself.
    """
    column = np.ascontiguousarray(column)
    bits, inverse = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
    return np.array(texts(bits.view(column.dtype)), dtype=object)[inverse].tolist()


def _write_json_value(fh, obj, level: int) -> None:
    """Write ``obj`` as ``json.dump(_normalize(obj), indent=2)`` would at ``level``."""
    inner = "\n" + "  " * (level + 1)
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.size and obj.dtype.kind in "biuf":
        sep = "[" + inner
        for start in range(0, len(obj), _BLOCK_ROWS):
            texts = _formatted(obj[start : start + _BLOCK_ROWS], _json_texts)
            fh.write(sep + ("," + inner).join(texts))
            sep = "," + inner
        fh.write("\n" + "  " * level + "]")
        return
    if isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        sep = "{" + inner
        for key, value in obj.items():
            fh.write(f"{sep}{json.dumps(key)}: ")
            _write_json_value(fh, value, level + 1)
            sep = "," + inner
        fh.write("\n" + "  " * level + "}")
        return
    fh.write(json.dumps(_normalize(obj), indent=2).replace("\n", "\n" + "  " * level))


def write_json(path: Path, payload: dict) -> None:
    """``payload`` as indented JSON; 1-d numeric arrays are formatted blockwise."""
    with path.open("w") as fh:
        _write_json_value(fh, payload, 0)
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
            texts = [_formatted(c[start : start + _BLOCK_ROWS], _csv_texts) for c in columns]
            # numbers never need CSV quoting; the line ending is csv's
            fh.write("\r\n".join(map(",".join, zip(*texts))) + "\r\n")


def _write_manifest(outdir: Path, command: str, config: dict, started: float) -> None:
    import scipy

    manifest = {
        "command": command,
        "config": config,
        "versions": {
            "zeemanlab": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": time.time() - started,
    }
    write_json(outdir / "manifest.json", manifest)


def _outdir(args) -> Path:
    base = args.out or os.environ.get(OUTPUT_DIR_ENV) or "."
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


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
    if text == "1":
        return TestFunction.monomial(0)
    if text == "x":
        return TestFunction.monomial(1)
    if text.startswith("x^"):
        try:
            return TestFunction.monomial(int(text[2:]))
        except ValueError as exc:
            raise ConfigError(f"bad test function {text!r}") from exc
    if "," in text:
        try:
            return TestFunction.polynomial([float(v) for v in text.split(",")])
        except ValueError as exc:
            raise ConfigError(f"bad test function {text!r}") from exc
    raise ConfigError(f"bad test function {text!r}")


def _require_seed(args) -> np.random.Generator:
    if args.seed is None:
        raise ConfigError("this command is stochastic: --seed is mandatory")
    return np.random.default_rng(np.random.Philox(key=args.seed))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_cluster(args) -> int:
    if args.N is None:
        raise ConfigError("cluster needs --N (flag or config file)")
    outdir = _outdir(args)
    started = time.time()
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
    measure = scaled_shift_measure(spec)
    # at B = 0 the reference degenerates to a point mass, which needs its
    # own left-limit evaluator
    cdf_left = (lambda x: (np.asarray(x, dtype=float) > 0).astype(float)) if args.B == 0 else None
    ks = ks_distance(measure, triangular_shift_cdf(args.B), cdf_left)
    write_csv(
        outdir / "cluster_spectrum.csv",
        ["N", "m", "shift", "scaled_shift"],
        [spec.N, spec.subcluster_m, spec.shifts, spec.scaled_shifts],
    )
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
    write_json(outdir / "cluster_summary.json", summary)
    record = {
        "N": spec.N,
        "config": config,
        "shifts": spec.shifts,
        "scaled_shifts": spec.scaled_shifts,
        "subcluster_m": spec.subcluster_m,
    }
    write_json(outdir / "cluster_spectrum.json", record)
    _write_manifest(outdir, "cluster", config, started)
    return 0


def cmd_szego(args) -> int:
    outdir = _outdir(args)
    started = time.time()
    rho = parse_rho(args.rho)
    n_list = _parse_n_list(args.N_list)
    config = {"rho": args.rho, "B": args.B, "N_list": n_list, "samples": args.samples}
    rhs_tri = limit_triangular(rho, args.B)
    rhs_angle = limit_angle_density(rho, args.B)
    mc = None
    if args.samples:
        rng = _require_seed(args)
        mc = limit_quadric_mc(rho, args.B, args.samples, rng)
    lhs = np.array([trace_average(N, args.B, rho) for N in n_list])
    gaps = np.abs(lhs - rhs_tri)
    write_csv(
        outdir / "szego_table.csv",
        ["N", "trace_average", "limit_triangular", "gap"],
        [n_list, lhs, rhs_tri, gaps],
    )
    results = [
        {
            "rho": args.rho,
            "B": args.B,
            "representation": "triangular",
            "value": rhs_tri,
            "std_error": None,
            "n": None,
        },
        {
            "rho": args.rho,
            "B": args.B,
            "representation": "angle_density",
            "value": rhs_angle,
            "std_error": None,
            "n": None,
        },
    ]
    if mc is not None:
        results.append(
            {
                "rho": args.rho,
                "B": args.B,
                "representation": "quadric_mc",
                "value": mc.value,
                "std_error": mc.std_error,
                "n": mc.n_samples,
            }
        )
    summary = {
        "config": config,
        "results": results,
        "limit_triangular": rhs_tri,
        "limit_angle_density": rhs_angle,
        "triangular_vs_angle_gap": abs(rhs_tri - rhs_angle),
        "final_gap": gaps[-1],
    }
    write_json(outdir / "szego_summary.json", summary)
    _write_manifest(outdir, "szego", config, started)
    return 0


def cmd_coherent(args) -> int:
    outdir = _outdir(args)
    started = time.time()
    rng = _require_seed(args)
    n_list = _parse_n_list(args.N_list)
    config = {"m": args.m, "B": args.B, "N_list": n_list, "seed": args.seed}
    index = sample_coherent_index(rng)
    table = moment_convergence_table(index, args.m, args.B, n_list)
    write_csv(
        outdir / "coherent_convergence.csv",
        ["N", "moment", "error", "slope"],
        [table.N_values, table.moments, table.errors, table.slope],
    )
    write_json(
        outdir / "coherent_summary.json",
        {
            "config": config,
            "ell3": index.ell3,
            "target": table.target,
            "slope": table.slope,
        },
    )
    _write_manifest(outdir, "coherent", config, started)
    return 0


def cmd_kepler(args) -> int:
    started = time.time()
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
    outdir = _outdir(args)
    energies = traj.energies()
    ell3 = traj.ell3()
    write_csv(
        outdir / "trajectory.csv",
        ["s", "x1", "x2", "x3", "p1", "p2", "p3", "energy", "ell3"],
        [traj.s, *traj.states.T, energies, ell3],
    )
    energy0, ell_vec, rl_vec = kepler_constants(pt0)
    write_json(
        outdir / "kepler_summary.json",
        {
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
    )
    _write_manifest(outdir, "kepler", config, started)
    return 0


def cmd_measures(args) -> int:
    outdir = _outdir(args)
    started = time.time()
    rng = _require_seed(args)
    config = {"samples": args.samples, "seed": args.seed, "B": args.B}
    check = liouville_pushforward_check(
        args.samples, rng, keep_samples=min(args.samples, 20000)
    )
    write_csv(
        outdir / "ell3_samples.csv",
        ["ell3_index", "ell3_phase"],
        [check.sample_ell3_index, check.sample_ell3_phase],
    )
    haar = haar_density_normalization(HaarGrid())
    haar_fine = haar_density_normalization(HaarGrid().doubled())
    beta_gap = beta_marginalization_gap()
    rho = TestFunction.monomial(2)
    mc = limit_quadric_mc(rho, args.B, args.samples, rng)
    write_json(
        outdir / "measures_summary.json",
        {
            "config": config,
            "pushforward": {
                "max_pointwise_gap": check.max_pointwise_gap,
                "ks_vs_index_law": check.ks_vs_index_law,
                "ks_vs_triangular": check.ks_vs_triangular,
                "skipped_fraction": check.skipped_fraction,
            },
            "haar_normalization": haar,
            "haar_normalization_refined": haar_fine,
            "beta_marginalization_gap": beta_gap,
            "quadratic_moment": {
                "triangular": limit_triangular(rho, args.B),
                "angle_density": limit_angle_density(rho, args.B),
                "monte_carlo": mc.value,
                "std_error": mc.std_error,
            },
        },
    )
    _write_manifest(outdir, "measures", config, started)
    return 0


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

    common = {"out": (["--out"], {"default": None, "help": "output directory"})}

    def add_common(p, with_seed=False):
        for flags, kw in common.values():
            p.add_argument(*flags, **kw)
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
        options = {a.dest: a for a in sub.choices[args.command]._actions if a.dest != "help"}
        # flags given explicitly on the command line win over the file
        explicit = _explicit_keys(argv)
        for key, value in defaults.items():
            attr = key.replace("-", "_")
            if attr not in options:
                raise ConfigError(f"config key {key!r} is not an option of {args.command!r}")
            value = _config_value(key, value, options[attr])
            if attr not in explicit:
                setattr(args, attr, value)
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


def _explicit_keys(argv: list[str]) -> set[str]:
    keys = set()
    for token in argv:
        if token.startswith("--"):
            keys.add(token[2:].split("=")[0].replace("-", "_"))
    return keys


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = _merge_config_file(parser, argv)
        return args.func(args)
    except ValueError as exc:  # ConfigError and the library's input checks
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ClusterSeparationError, SubclusterOverlapError, NumericalCollisionError) as exc:
        print(f"scientific check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
