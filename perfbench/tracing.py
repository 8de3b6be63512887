"""Spans around zeemanlab's layer boundaries, recorded from outside the package.

Run as a script, this is the traced runner: one fresh interpreter per
command, which installs timing wrappers and then calls
``zeemanlab.cli.main(argv)``::

    python3 perfbench/tracing.py SPANS_JSON COMMAND_ID -- ARGV...

Wrappers replace names in the namespace of the caller, because a module
that did ``from .x import f`` keeps its own reference to ``f``; wrapping
only the defining module would miss those calls.  Spans (name, start,
end, parent, command id) and counters stay in memory and are written to
SPANS_JSON when the command returns.  The exit code is the command's.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# (module, attribute) -> span name.  Each entry is the namespace a caller
# looks the name up in at call time.
SPAN_TARGETS = {
    ("zeemanlab.hydrogenic_shell", "radial_integral_r2"): "hydrogenic_shell.radial",
    ("zeemanlab.hydrogenic_shell", "radial_integral_r2_cross"): "hydrogenic_shell.radial",
    ("zeemanlab.spectral_cluster", "shell_matrix_W"): "hydrogenic_shell.assemble",
    ("zeemanlab.spectral_cluster", "_band_blocks"): "hydrogenic_shell.assemble",
    ("zeemanlab.cli", "cluster_eigenvalues"): "spectral_cluster.eigensolve",
    ("zeemanlab.cli", "subcluster_assignment"): "spectral_cluster.subcluster",
    ("zeemanlab.cli", "scaled_shift_measure"): "spectral_cluster.ks",
    ("zeemanlab.cli", "ks_distance"): "spectral_cluster.ks",
    ("zeemanlab.szego_measures", "ks_distance"): "spectral_cluster.ks",
    ("zeemanlab.cli", "write_csv"): "cli.serialize",
    ("zeemanlab.cli", "write_json"): "cli.serialize",
    ("zeemanlab.cli", "cmd_cluster"): "cli.command",
    ("zeemanlab.cli", "cmd_szego"): "cli.command",
    ("zeemanlab.cli", "cmd_coherent"): "cli.command",
    ("zeemanlab.cli", "cmd_kepler"): "cli.command",
    ("zeemanlab.cli", "cmd_measures"): "cli.command",
    ("zeemanlab.coherent_states", "expectation_L3_power"): "coherent_states.moment",
    ("zeemanlab.cli", "integrate_kepler"): "classical_kepler.integrate",
    ("zeemanlab.classical_kepler", "integrate_kepler"): "classical_kepler.integrate",
    ("zeemanlab.cli", "measure_period"): "classical_kepler.period",
    ("zeemanlab.classical_kepler", "sample_index_batch"): "classical_kepler.sample",
    ("zeemanlab.szego_measures", "sample_index_batch"): "classical_kepler.sample",
    ("zeemanlab.cli", "liouville_pushforward_check"): "szego_measures.pushforward",
    ("zeemanlab.cli", "limit_quadric_mc"): "szego_measures.mc",
    ("zeemanlab.cli", "haar_density_normalization"): "szego_measures.identities",
    ("zeemanlab.cli", "beta_marginalization_gap"): "szego_measures.identities",
    ("zeemanlab.cli", "limit_triangular"): "szego_measures.identities",
    ("zeemanlab.cli", "limit_angle_density"): "szego_measures.identities",
}


class Recorder:
    """In-memory spans of one command, plus counters taken at the same calls."""

    def __init__(self, command_id: int):
        self.command_id = command_id
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self.radial_args: set = set()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span called ``name``; ``count(args, result)`` runs after."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "name": name,
                "start": 0.0,
                "end": 0.0,
                "parent": self._stack[-1] if self._stack else None,
                "command": self.command_id,
            }
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    def _count_radial(self, fn_name):
        def count(args, result):
            self.counters["radial_calls"] += 1
            self.radial_args.add((fn_name, *args))

        return count

    def _count_eigenvalues(self, args, spec):
        self.counters["eigenvalues"] += len(spec.shifts)

    def _count_trajectory(self, args, traj):
        self.counters["integrate_calls"] += 1
        self.counters["accepted_steps"] += len(traj.s) - 1

    def _count_moment(self, args, result):
        self.counters["moment_calls"] += 1

    def install(self) -> None:
        """Replace every target in SPAN_TARGETS (and the grid counter) in place."""
        counters = {
            "radial_integral_r2": self._count_radial("r2"),
            "radial_integral_r2_cross": self._count_radial("r2_cross"),
            "cluster_eigenvalues": self._count_eigenvalues,
            "integrate_kepler": self._count_trajectory,
            "expectation_L3_power": self._count_moment,
        }
        for (module_name, attr), span_name in SPAN_TARGETS.items():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self.wrap(span_name, original, counters.get(attr)))
        coherent = importlib.import_module("zeemanlab.coherent_states")
        grid_fn = coherent.sphere_grid

        @functools.wraps(grid_fn)
        def counted_grid(spec):
            grid = grid_fn(spec)
            self.counters["grid_nodes"] += len(grid.omega)
            return grid

        coherent.sphere_grid = counted_grid

    def dump(self) -> dict:
        counters = dict(self.counters)
        counters["radial_distinct"] = len(self.radial_args)
        return {"command": self.command_id, "spans": self.spans, "counters": counters}


def self_times(spans: list[dict]) -> list[float]:
    """Self time of each span: its duration minus the time its children cover.

    ``parent`` is an index into ``spans``.  Child intervals are clipped to
    the parent and merged, so overlapping or out-of-range children are
    never subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for i, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, [])):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(max(end - start - covered, 0.0))
    return out


def summarize(dump: dict) -> dict:
    """Per span name: inclusive time, self time and call count."""
    selfs = self_times(dump["spans"])
    out: dict[str, dict] = {}
    for span, own in zip(dump["spans"], selfs):
        entry = out.setdefault(span["name"], {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        entry["total_s"] += span["end"] - span["start"]
        entry["self_s"] += own
        entry["calls"] += 1
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracing.py SPANS_JSON COMMAND_ID -- ARGV...", file=sys.stderr)
        return 1
    out_path, command_id, cli_argv = argv[0], int(argv[1]), argv[3:]
    recorder = Recorder(command_id)
    recorder.install()
    import zeemanlab.cli

    try:
        return zeemanlab.cli.main(cli_argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump(recorder.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
