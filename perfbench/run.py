"""Closed-loop benchmark of the zeemanlab command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client issues the workload's
commands one after another, each as a fresh ``zeemanlab`` process, as a
user at a shell would; so every command pays interpreter start-up, the
package import and a cold radial-integral cache.  The command sequence
repeats until the next repetition would overrun ``--seconds``.  Every
output is checked against the oracles in ``oracles.py``; a command fails
when it exits non-zero or a check fails.

``--trace 0`` prints the end-to-end metrics (medians over repetitions).
``--trace 1`` runs each command twice in a row, untraced and then under
``tracing.py``: the traced runs give the per-layer metrics, the untraced
ones the per-command wall times, and their paired difference the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it, and ``.perfbench_work/results/``, hold the provenance of the run
(revision, seed, versions, thread cap, the exact argv of every command).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Callable

import oracles
import tracing

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
RUN_DEADLINE_S = 170.0
SETUP_REPEATS = 7
TRACER = Path(__file__).resolve().parent / "tracing.py"


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its metric name, arguments, oracle and its parameters."""

    metric: str
    args: tuple[str, ...]
    check: Callable[[Path, dict], list[str]]
    params: dict = field(default_factory=dict)


def workload_commands(name: str, seed: int) -> list[Command]:
    """The fixed command sequence of each workload; see NOTES.md for why."""
    s = str(seed)
    if name == "ladder_q17":
        return [
            Command(
                "cluster_first_order_s",
                ("cluster", "--N", "400", "--B", "1", "--q", "17"),
                oracles.check_cluster_output,
                {"N": 400, "B": 1.0, "q": 17.0, "oracle": "ladder"},
            )
        ]
    if name == "diamagnetic_q2":
        return [
            Command(
                "cluster_first_order_s",
                ("cluster", "--N", "80", "--B", "1", "--q", "2"),
                oracles.check_cluster_output,
                {"N": 80, "B": 1.0, "q": 2.0, "oracle": "block_trace"},
            ),
            Command(
                "cluster_multishell_s",
                ("cluster", "--N", "32", "--B", "1", "--q", "2",
                 "--mode", "multishell", "--delta", "2"),
                oracles.check_cluster_output,
                {"N": 32, "B": 1.0, "q": 2.0, "oracle": "structure"},
            ),
        ]
    if name == "sphere_geometry":
        return [
            Command(
                "coherent_s",
                ("coherent", "--m", "2", "--B", "1", "--N-list", "8,16,32,64,128",
                 "--seed", s),
                oracles.check_coherent_output,
                {"m": 2, "B": 1.0, "N_list": [8, 16, 32, 64, 128], "seed": seed},
            ),
            Command(
                "kepler_s",
                ("kepler", "--ell", "0.05", "--tol", "1e-10"),
                oracles.check_kepler_output,
                {"tol": 1e-10},
            ),
            Command(
                "measures_s",
                ("measures", "--samples", "1000000", "--B", "2", "--seed", s),
                oracles.check_measures_output,
            ),
        ]
    raise KeyError(name)


WORKLOADS = ("ladder_q17", "diamagnetic_q2", "sphere_geometry")
COMMAND_METRICS = (
    "cluster_first_order_s",
    "cluster_multishell_s",
    "coherent_s",
    "kepler_s",
    "measures_s",
)


@dataclass
class CommandRun:
    metric: str
    traced: bool
    argv: list[str]
    wall_s: float
    rss_mb: float
    exit_code: int
    errors: list[str]
    bytes_written: int
    trace: dict | None = None
    skipped_fraction: float = 0.0


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


def child_env(threads: int) -> dict:
    """Environment for every child: the checkout's src first, BLAS capped."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def spawn(argv: list[str], env: dict, log_path: Path, deadline: float):
    """Run ``argv`` to completion; return (wall s, max RSS MB, exit code).

    The child is reaped with wait4, which gives its peak RSS (floored by
    this process's own, see NOTES.md).  A child still running at
    ``deadline`` is killed and reported with exit code -9.
    """
    with log_path.open("wb") as log:
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, log.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, log.fileno(), 2),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            # block until the child exits or the deadline passes, without polling
            timeout = max(deadline - time.perf_counter(), 0.0)
            if not select.select([pidfd], [], [], timeout)[0]:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            with contextlib.suppress(ProcessLookupError):  # already exited
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):  # already reaped
                os.wait4(pid, 0)
            raise
        finally:
            os.close(pidfd)
    return wall, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


def measure_setup(env: dict) -> list[float]:
    """Seconds a fresh interpreter spends in ``import zeemanlab.cli``."""
    probe = (
        "import time; t = time.perf_counter(); import zeemanlab.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    out = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def run_command(cmd: Command, outdir: Path, env: dict, traced: bool,
                command_id: int, deadline: float) -> CommandRun:
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    spans_path = outdir.parent / f"spans-{command_id}.json"
    cli_argv = [*cmd.args, "--out", str(outdir)]
    if traced:
        argv = [sys.executable, str(TRACER), str(spans_path), str(command_id), "--", *cli_argv]
    else:
        argv = [sys.executable, "-m", "zeemanlab.cli", *cli_argv]
    wall, rss, code = spawn(argv, env, outdir.parent / f"log-{command_id}.txt", deadline)
    errors = [] if code == 0 else [f"exit code {code}"]
    if code == 0:
        try:
            errors += cmd.check(outdir, cmd.params)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            errors.append(f"unreadable output: {exc!r}")
    written = sum(
        p.stat().st_size for p in outdir.iterdir() if p.is_file() and p.name != "manifest.json"
    )
    run = CommandRun(cmd.metric, traced, argv, wall, rss, code, errors, written)
    if traced and spans_path.exists():
        run.trace = json.loads(spans_path.read_text())
        spans_path.unlink()
    if cmd.metric == "measures_s" and not errors:
        summary = json.loads((outdir / "measures_summary.json").read_text())
        run.skipped_fraction = float(summary["pushforward"]["skipped_fraction"])
    return run


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def layer_metrics(runs: list[CommandRun]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition of the command sequence."""
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    for run in runs:
        if run.trace is None:
            continue
        for name, entry in tracing.summarize(run.trace).items():
            self_s[name] = self_s.get(name, 0.0) + entry["self_s"]
            total_s[name] = total_s.get(name, 0.0) + entry["total_s"]
        for key, value in run.trace["counters"].items():
            counters[key] = counters.get(key, 0) + value
    calls = counters.get("radial_calls", 0)
    distinct = counters.get("radial_distinct", 0)
    steps = counters.get("accepted_steps", 0)
    integrate_s = self_s.get("classical_kepler.integrate", 0.0)
    return {
        "hydrogenic_shell.radial_s": self_s.get("hydrogenic_shell.radial", 0.0),
        "hydrogenic_shell.radial_calls": calls,
        "hydrogenic_shell.radial_distinct": distinct,
        "hydrogenic_shell.radial_reuse": distinct / calls if calls else 0.0,
        "hydrogenic_shell.assemble_s": self_s.get("hydrogenic_shell.assemble", 0.0),
        "spectral_cluster.eigensolve_s": self_s.get("spectral_cluster.eigensolve", 0.0),
        "spectral_cluster.subcluster_s": self_s.get("spectral_cluster.subcluster", 0.0),
        "spectral_cluster.ks_s": self_s.get("spectral_cluster.ks", 0.0),
        "spectral_cluster.eigenvalues": counters.get("eigenvalues", 0),
        "cli.serialize_s": self_s.get("cli.serialize", 0.0),
        "cli.command_self_s": self_s.get("cli.command", 0.0),
        "cli.bytes_written": sum(r.bytes_written for r in runs),
        "coherent_states.moment_s": self_s.get("coherent_states.moment", 0.0),
        "coherent_states.moment_calls": counters.get("moment_calls", 0),
        "coherent_states.grid_nodes": counters.get("grid_nodes", 0),
        "classical_kepler.integrate_s": integrate_s,
        "classical_kepler.integrate_calls": counters.get("integrate_calls", 0),
        "classical_kepler.accepted_steps": steps,
        "classical_kepler.step_us": 1e6 * integrate_s / steps if steps else 0.0,
        "classical_kepler.period_s": total_s.get("classical_kepler.period", 0.0),
        "classical_kepler.sample_s": self_s.get("classical_kepler.sample", 0.0),
        "szego_measures.pushforward_s": self_s.get("szego_measures.pushforward", 0.0),
        "szego_measures.mc_s": self_s.get("szego_measures.mc", 0.0),
        "szego_measures.identities_s": self_s.get("szego_measures.identities", 0.0),
        "szego_measures.skipped_fraction": sum(r.skipped_fraction for r in runs),
    }


def _median(values) -> float:
    return float(statistics.median(values))


def load_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_revision() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def provenance(workload: str, seed: int, trace: int, threads: int,
               commands: list[Command]) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": threads,
        "blas_threads": threads,
        "load": "closed loop, one client, one fresh process per command",
        "commands": [["zeemanlab", *c.args, "--out", "OUTDIR"] for c in commands],
    }


# ---------------------------------------------------------------------------
# main loop
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.perf_counter() + RUN_DEADLINE_S
    if not (ROOT / "src" / "zeemanlab" / "cli.py").is_file():
        print(f"error: no zeemanlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    units = load_units()
    cli_seed = args.seed % 2**64
    commands = workload_commands(args.workload, cli_seed)
    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    results_dir = WORK / "results"
    run_dir.mkdir(parents=True, exist_ok=True)
    results_dir.mkdir(parents=True, exist_ok=True)

    try:
        setup = measure_setup(env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: importing zeemanlab.cli failed: {exc!r}", file=sys.stderr)
        shutil.rmtree(run_dir, ignore_errors=True)
        return 2

    # in a traced run every command runs untraced and then traced, so the
    # overhead is a difference of neighbouring runs, not of distant ones
    modes = (False, True) if args.trace else (False,)
    repetitions: list[list[CommandRun]] = []
    loop_start = time.perf_counter()
    command_id = 0
    while True:
        t0 = time.perf_counter()
        runs = []
        for cmd in commands:
            for traced in modes:
                runs.append(run_command(cmd, run_dir / f"out{len(runs)}", env, traced,
                                        command_id, deadline))
                command_id += 1
        repetitions.append(runs)
        now = time.perf_counter()
        last = now - t0
        if now + last > deadline or now - loop_start + last > args.seconds:
            break

    all_runs = [r for rep in repetitions for r in rep]
    attempted = len(all_runs)
    failed = sum(1 for r in all_runs if r.errors)

    def walls(traced: bool, metric: str | None = None) -> list[float]:
        return [
            sum(r.wall_s for r in rep if r.traced == traced and metric in (None, r.metric))
            for rep in repetitions
        ]

    if args.trace:
        per_rep = [layer_metrics([r for r in rep if r.traced]) for rep in repetitions]
        values = {key: _median([m[key] for m in per_rep]) for key in per_rep[0]}
        for metric in COMMAND_METRICS:
            values[metric] = _median(walls(False, metric))
        values["trace.overhead_s"] = _median(
            [t - u for t, u in zip(walls(True), walls(False))]
        )
    else:
        values = {
            "wall_s": _median(walls(False)),
            "setup_s": _median(setup),
            "peak_rss_mb": _median([max(r.rss_mb for r in rep) for rep in repetitions]),
        }

    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    prov = provenance(args.workload, args.seed, args.trace, threads, commands)
    record = {
        "provenance": prov,
        "setup_samples_s": setup,
        "repetitions": [
            [
                {
                    "metric": r.metric,
                    "traced": r.traced,
                    "argv": r.argv,
                    "wall_s": r.wall_s,
                    "rss_mb": r.rss_mb,
                    "exit_code": r.exit_code,
                    "errors": r.errors,
                    "bytes_written": r.bytes_written,
                }
                for r in rep
            ]
            for rep in repetitions
        ],
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans = [r.trace for r in all_runs if r.trace is not None]
        (results_dir / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    shutil.rmtree(run_dir, ignore_errors=True)

    for r in all_runs:
        for err in r.errors:
            print(f"FAILED {r.metric}: {err}", file=sys.stderr)
    print("provenance " + json.dumps(prov))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
