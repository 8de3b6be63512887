"""Tests of the benchmark's own oracles and span arithmetic.

    python3 -m pytest perfbench -q

Every oracle must accept a real output of the CLI and reject the same
output after one small corruption.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
import tracing


def _cli(tmp_path: Path, *args: str) -> Path:
    out = tmp_path / "out"
    subprocess.run(
        [sys.executable, "-m", "zeemanlab.cli", *args, "--out", str(out)],
        env=run.child_env(1), check=True, capture_output=True, timeout=120,
    )
    return out


def _rewrite_csv(path: Path, rows: np.ndarray) -> None:
    header = path.read_text().splitlines()[0]
    body = "\n".join(",".join(f"{v:.17g}" for v in row) for row in rows)
    path.write_text(header + "\n" + body + "\n")


def _nudge(rows: np.ndarray, col: int) -> np.ndarray:
    out = rows.copy()
    out[0, col] *= 1.0 + 1e-6
    return out


def test_ladder_oracle(tmp_path):
    params = {"N": 12, "B": 1.0, "q": 17.0, "oracle": "ladder"}
    out = _cli(tmp_path, "cluster", "--N", "12", "--B", "1", "--q", "17")
    assert oracles.check_cluster_output(out, params) == []
    csv = out / "cluster_spectrum.csv"
    rows = oracles.read_spectrum_csv(csv)
    _rewrite_csv(csv, _nudge(rows, 3))
    assert oracles.check_cluster_output(out, params)
    _rewrite_csv(csv, rows[1:])
    assert oracles.check_cluster_output(out, params)


def test_block_trace_oracle(tmp_path):
    params = {"N": 10, "B": 1.0, "q": 2.0, "oracle": "block_trace"}
    out = _cli(tmp_path, "cluster", "--N", "10", "--B", "1", "--q", "2")
    assert oracles.check_cluster_output(out, params) == []
    csv = out / "cluster_spectrum.csv"
    rows = oracles.read_spectrum_csv(csv)
    _rewrite_csv(csv, _nudge(rows, 2))
    assert oracles.check_cluster_output(out, params)
    _rewrite_csv(csv, rows[:-1])
    assert oracles.check_cluster_output(out, params)


def test_multishell_structure_oracle(tmp_path):
    params = {"N": 6, "B": 1.0, "q": 2.0, "oracle": "structure"}
    out = _cli(tmp_path, "cluster", "--N", "6", "--B", "1", "--q", "2",
               "--mode", "multishell", "--delta", "2")
    assert oracles.check_cluster_output(out, params) == []
    csv = out / "cluster_spectrum.csv"
    rows = oracles.read_spectrum_csv(csv)
    _rewrite_csv(csv, rows[1:])
    assert oracles.check_cluster_output(out, params)
    _rewrite_csv(csv, rows)
    summary = json.loads((out / "cluster_summary.json").read_text())
    summary["subclusters"]["0"] -= 1
    (out / "cluster_summary.json").write_text(json.dumps(summary))
    assert oracles.check_cluster_output(out, params)


def test_coherent_oracle(tmp_path):
    params = {"m": 2, "B": 1.0, "N_list": [4, 8, 16], "seed": 5}
    out = _cli(tmp_path, "coherent", "--m", "2", "--B", "1", "--N-list", "4,8,16",
               "--seed", "5")
    assert oracles.check_coherent_output(out, params) == []
    csv = out / "coherent_convergence.csv"
    rows = np.loadtxt(csv, delimiter=",", skiprows=1)
    _rewrite_csv(csv, _nudge(rows, 1))
    assert oracles.check_coherent_output(out, params)
    _rewrite_csv(csv, rows[1:])
    assert oracles.check_coherent_output(out, params)
    _rewrite_csv(csv, rows)
    assert oracles.check_coherent_output(out, dict(params, seed=6))


def test_binomial_law_matches_direct_moment():
    a, b = oracles.coherent_index(11)
    N = 7
    w12 = a[0] * b[1] - a[1] * b[0]
    w34 = a[2] * b[3] - a[3] * b[2]
    p1, p2 = 0.5 * (1 + w12 + w34), 0.5 * (1 + w12 - w34)
    mean = N * (p1 + p2) - N
    var = N * (p1 * (1 - p1) + p2 * (1 - p2))
    scale = -0.5 / (N + 1)
    assert oracles.l3_moment(a, b, N, 1, 1.0) == pytest.approx(scale * mean, rel=1e-13)
    want = scale**2 * (var + mean**2)
    assert oracles.l3_moment(a, b, N, 2, 1.0) == pytest.approx(want, rel=1e-13)


def test_period_oracle(tmp_path):
    out = _cli(tmp_path, "kepler", "--ell", "0.9", "--tol", "1e-10")
    assert oracles.check_kepler_output(out, {"tol": 1e-10}) == []
    summary = json.loads((out / "kepler_summary.json").read_text())
    summary["period"] += 1e-6
    (out / "kepler_summary.json").write_text(json.dumps(summary))
    assert oracles.check_kepler_output(out, {"tol": 1e-10})
    assert oracles.check_period({"period": 2 * math.pi - 1e-6}, 1e-10)


def test_measures_oracle():
    good = {
        "pushforward": {"max_pointwise_gap": 3e-16},
        "haar_normalization": 1.0 - 1e-14,
        "haar_normalization_refined": 1.0 + 1e-14,
        "quadratic_moment": {"monte_carlo": 1 / 6 + 1e-4, "std_error": 2e-4},
    }
    assert oracles.check_measures_summary(good) == []
    bad_gap = json.loads(json.dumps(good))
    bad_gap["pushforward"]["max_pointwise_gap"] = 1e-11
    assert oracles.check_measures_summary(bad_gap)
    bad_haar = dict(good, haar_normalization_refined=1.0 + 1e-9)
    assert oracles.check_measures_summary(bad_haar)
    bad_mc = dict(good, quadratic_moment={"monte_carlo": 1 / 6 + 2e-3, "std_error": 2e-4})
    assert oracles.check_measures_summary(bad_mc)


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "command": 0}


def test_self_time_of_nested_spans():
    spans = [
        _span("a", 0.0, 10.0, None),
        _span("b", 1.0, 4.0, 0),
        _span("c", 2.0, 3.0, 1),
        _span("b", 5.0, 6.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    summary = tracing.summarize({"spans": spans})
    assert summary["b"] == pytest.approx({"total_s": 4.0, "self_s": 3.0, "calls": 2})


def test_self_time_merges_overlapping_children():
    spans = [
        _span("a", 0.0, 10.0, None),
        _span("b", 2.0, 6.0, 0),
        _span("b", 4.0, 12.0, 0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(2.0)


def test_recorder_links_nested_calls():
    rec = tracing.Recorder(command_id=3)
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    first, second = rec.spans
    assert (first["name"], first["parent"]) == ("outer", None)
    assert (second["name"], second["parent"], second["command"]) == ("inner", 0, 3)
    assert first["start"] <= second["start"] <= second["end"] <= first["end"]
