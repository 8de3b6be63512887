"""Command-line contract: files, determinism, exit codes, flag parsing."""

import csv
import importlib.metadata
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zeemanlab import cli
from zeemanlab.cli import (
    _BLOCK_ROWS,
    main,
    parse_rho,
    write_csv,
    write_json,
)
from zeemanlab import szego_measures
from zeemanlab.hydrogenic_shell import ScalingSchedule
from zeemanlab.spectral_cluster import cluster_eigenvalues

from reference import (
    sample_index_batch as reference_sample_index_batch,
    swapped_label_spectrum,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run(args):
    return main(args)


def run_fresh(args, **env):
    """``python args`` in a fresh interpreter that imports this checkout's package,
    with ``env`` added to the environment."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **env, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def _scipy_modules_loaded_after(statement):
    code = (
        f"import sys, zeemanlab.cli; {statement}; "
        "print([m for m in ('scipy', 'scipy.special', 'scipy.linalg', 'scipy._lib._array_api') "
        "if m in sys.modules])"
    )
    proc = run_fresh(["-c", code])
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_importing_the_cli_leaves_scipy_submodules_unloaded():
    # every command pays the import
    assert _scipy_modules_loaded_after("pass") == "[]"


# (argv, whether the scipy package itself is imported); the manifest reads
# scipy's version from its file, so only the banded solver imports scipy
_SCIPY_CASES = [
    # LAPACK's banded solver is loaded without scipy.linalg's package init; at
    # q = 17 the diamagnetic term, and with it the band, stays up to N = 7
    (["cluster", "--N", "6", "--q", "17"], True),
    (["cluster", "--N", "6", "--q", "2"], True),
    (["cluster", "--N", "4", "--q", "2", "--mode", "multishell", "--delta", "2"], True),
    # the L3 law is built without scipy.special
    (["coherent", "--m", "2", "--N-list", "8,16", "--seed", "1"], False),
    (["kepler", "--tol", "1e-6"], False),
    (["measures", "--samples", "1000", "--seed", "1"], False),
    # the paramagnetic ladder: diagonal blocks need no banded solver
    (["cluster", "--N", "8", "--q", "17"], False),
]


@pytest.mark.parametrize(
    "argv, package", _SCIPY_CASES, ids=[f"argv{i}" for i in range(len(_SCIPY_CASES))]
)
def test_commands_leave_scipy_submodules_unloaded(argv, package, tmp_path):
    run_argv = [*argv, "--out", str(tmp_path / "out")]
    statement = f"assert zeemanlab.cli.main({run_argv!r}) == 0"
    assert _scipy_modules_loaded_after(statement) == ("['scipy']" if package else "[]")


def test_manifest_records_the_installed_scipy_version(tmp_path):
    assert run(["cluster", "--N", "2", "--out", str(tmp_path)]) == 0
    versions = json.loads((tmp_path / "manifest.json").read_text())["versions"]
    assert versions["scipy"] == importlib.metadata.version("scipy")


# ---------------------------------------------------------------------------
# result writers against the retired row-by-row CSV writer and json.dumps
# ---------------------------------------------------------------------------


def _oracle_json_text(payload):
    # json's own hook for what it cannot encode; numpy floats are floats
    return json.dumps(payload, indent=2, default=lambda v: v.tolist()) + "\n"


def _oracle_write_csv(path, header, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


def _repeating(n, seed):
    """n floats with few distinct values, zeros of both signs among them."""
    values = np.round(np.random.default_rng(seed).standard_normal(n), 1)
    values[::5] = -0.0
    values[1::5] = 0.0
    return values


def _spectrum(N, q):
    spec = cluster_eigenvalues(N, ScalingSchedule(B=1.0, q=q))
    return spec.N, spec.subcluster_m, spec.shifts, spec.scaled_shifts


_SIGNED_ZEROS = np.array([0.0, -0.0, -0.0, 0.0, 1.0, -0.0])
_NON_FINITE = np.array([np.nan, np.inf, -np.inf, np.nan, -0.0, 5e-324, 1.7976931348623157e308])

_COLUMN_CASES = {
    "signed_zeros": [_SIGNED_ZEROS, -_SIGNED_ZEROS],
    "non_finite": [_NON_FINITE, 2.5],
    "empty": [np.array([]), np.array([], dtype=np.int64), 1.0],
    "one": [np.array([0.1]), np.array([3])],
    "block_minus_1": [_repeating(_BLOCK_ROWS - 1, 1), np.arange(_BLOCK_ROWS - 1)],
    "block": [_repeating(_BLOCK_ROWS, 2), 7, np.float64(1 / 3)],
    "block_plus_1": [_repeating(_BLOCK_ROWS + 1, 3), _repeating(_BLOCK_ROWS + 1, 4)],
    "int_bool_scalars": [
        np.array([-2, 0, 2**62], dtype=np.int64),
        np.array([True, False, True]),
        np.int64(-5),
        np.bool_(False),
        0.25,
    ],
    "ladder_N40_q17": list(_spectrum(40, 17.0)),
    "spectrum_N12_q2": list(_spectrum(12, 2.0)),
    # runs of equal rows: the writer formats the first row of each run once
    "runs_over_one_block_edge": [
        np.repeat([0.5, -1.25, 3.0], [_BLOCK_ROWS - 3, 7, 100]),
        np.repeat([1, 2], [_BLOCK_ROWS - 1, 105]),
    ],
    "runs_over_two_block_edges": [
        np.repeat([0.1, 7.0, 0.1], [5, 2 * _BLOCK_ROWS, 9]),
        np.repeat([2, 3], [_BLOCK_ROWS + 1, _BLOCK_ROWS + 13]),
        -0.0,
    ],
    "signed_zero_and_nan_runs": [
        np.repeat([-0.0, 0.0, np.nan, -np.nan, 0.0, -0.0, np.nan], [4, 3, 5, 2, 1, 6, 3]),
        np.repeat([0.0, -0.0], [12, 12]),
    ],
    "one_run": [np.full(_BLOCK_ROWS + 5, 1 / 3), 4, np.full(_BLOCK_ROWS + 5, np.nan)],
}


@pytest.mark.parametrize("case", sorted(_COLUMN_CASES))
def test_write_csv_matches_row_writer(tmp_path, case):
    columns = _COLUMN_CASES[case]
    header = [f"c{i}" for i in range(len(columns) - 1)] + ['say "x", y']
    write_csv(tmp_path / "new.csv", header, columns)
    rows = zip(*np.broadcast_arrays(*(np.atleast_1d(c) for c in columns)))
    _oracle_write_csv(tmp_path / "old.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


_RUN_POOL = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 0.1, -2.5]


def _runs(values):
    """A column of runs: each drawn value repeated 1 to 4 times."""
    return st.lists(st.tuples(values, st.integers(1, 4)), max_size=12).map(
        lambda runs: [v for v, count in runs for _ in range(count)]
    )


@settings(deadline=None, max_examples=60)
@given(
    floats=_runs(st.sampled_from(_RUN_POOL)),
    ints=_runs(st.integers(-1, 1)),
    scalar=st.sampled_from(_RUN_POOL),
    block_rows=st.integers(1, 6),
)
def test_write_csv_runs_match_row_writer(tmp_path_factory, floats, ints, scalar, block_rows):
    # the two columns' runs end apart, and small blocks put block edges inside runs
    n = min(len(floats), len(ints))
    columns = [np.array(floats[:n]), np.array(ints[:n], dtype=np.int64), scalar]
    directory = tmp_path_factory.mktemp("runs")
    with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
        write_csv(directory / "new.csv", ["x", "m", "c"], columns)
    rows = zip(*np.broadcast_arrays(*(np.atleast_1d(c) for c in columns)))
    _oracle_write_csv(directory / "old.csv", ["x", "m", "c"], rows)
    assert (directory / "new.csv").read_bytes() == (directory / "old.csv").read_bytes()


def test_write_csv_rejects_a_2d_column(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [np.zeros((2, 2)), 1.0])


_JSON_CASES = {
    name: {f"c{i}": c for i, c in enumerate(columns)}
    for name, columns in _COLUMN_CASES.items()
}
_JSON_CASES["structure"] = {
    "grid": np.arange(6.0).reshape(2, 3),
    "scalars": [np.float64(0.1), np.int64(7), np.bool_(True), 1 / 3, None],
    "nested": {"inner": {"a": np.array([1.0, -0.0]), "b": {}}, "empty": [], "none": None},
    "mixed": (1, np.array([3.0]), {"d": None}, [[1, 2], [np.float64(3)]]),
    "text": 'say "hi" \u2014 \u00fcn\u00efcode\\n',
    "int_keys": {1: np.float64(2.0), "2": None},
    "empty_dict": {},
}


@pytest.mark.parametrize("case", sorted(_JSON_CASES))
def test_write_json_matches_json_dump(tmp_path, case):
    payload = _JSON_CASES[case]
    write_json(tmp_path / "new.json", payload)
    assert (tmp_path / "new.json").read_text() == _oracle_json_text(payload)


# ---------------------------------------------------------------------------
# rho parsing
# ---------------------------------------------------------------------------


def test_parse_rho_forms():
    assert parse_rho("1")(np.array([5.0]))[0] == 1.0
    assert parse_rho("x")(np.array([5.0]))[0] == 5.0
    assert parse_rho("x^3")(np.array([2.0]))[0] == 8.0
    assert parse_rho("1,0,2")(np.array([2.0]))[0] == 9.0


def test_parse_rho_rejects_garbage():
    from zeemanlab.cli import ConfigError

    with pytest.raises(ConfigError):
        parse_rho("sin(x)")


def test_szego_rho_with_64_coefficients_is_one_line_usage_error(tmp_path, capsys):
    rho = ",".join(["1"] * 64)
    assert run(["szego", "--rho", rho, "--N-list", "4", "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == (
        f"error: bad test function {rho!r}: need 1 to 63 coefficients, got 64\n"
    )
    assert not (tmp_path / "x").exists()


def test_szego_rho_with_a_nan_coefficient_is_one_line_usage_error(tmp_path, capsys):
    # the coefficient is named, not the field range
    assert run(["szego", "--rho", "nan,1", "--N-list", "4", "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == (
        "error: bad test function 'nan,1': coefficient 0 is nan, not a finite number\n"
    )
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# cluster command
# ---------------------------------------------------------------------------


def _spectrum_rows(out):
    with (out / "cluster_spectrum.csv").open() as fh:
        return list(csv.DictReader(fh))


def test_cluster_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    code = run(["cluster", "--N", "6", "--B", "1", "--q", "17", "--out", str(out)])
    assert code == 0
    with (out / "cluster_spectrum.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["N", "m", "shift", "scaled_shift"]
    assert len(rows) - 1 == 49
    summary = json.loads((out / "cluster_summary.json").read_text())
    assert summary["subclusters"]["0"] == 7
    assert summary["ks_vs_triangular"] < 0.2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "cluster"
    assert "zeemanlab" in manifest["versions"]


def test_manifest_records_the_process_peak_rss(tmp_path):
    resource = pytest.importorskip("resource")
    assert run(["kepler", "--out", str(tmp_path)]) == 0
    peak_mb = json.loads((tmp_path / "manifest.json").read_text())["peak_rss_mb"]
    # the peak so far of this process, which ran the command
    assert 0.0 < peak_mb <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def test_cluster_zero_field_point_mass(tmp_path):
    out = tmp_path / "zero"
    assert run(["cluster", "--N", "4", "--B", "0", "--out", str(out)]) == 0
    assert all(float(row["scaled_shift"]) == 0.0 for row in _spectrum_rows(out))
    summary = json.loads((out / "cluster_summary.json").read_text())
    assert summary["subclusters"] is None
    # the reference law degenerates to the point mass, which the sample is
    assert summary["ks_vs_triangular"] == 0.0


def test_cluster_ladder_ks_is_half_over_N_plus_1(tmp_path):
    # at q = 17 the diamagnetic term is negligible and the shifts are the
    # paramagnetic ladder, whose KS distance to the triangular law is exactly
    # 1/(2(N+1)) in rational arithmetic
    out = tmp_path / "ladder"
    assert run(["cluster", "--N", "25", "--B", "1", "--out", str(out)]) == 0
    summary = json.loads((out / "cluster_summary.json").read_text())
    assert summary["ks_vs_triangular"] == pytest.approx(1 / 52, rel=1e-13, abs=0)


def test_cluster_large_shell_summary(tmp_path):
    out = tmp_path / "big"
    code = run(
        ["cluster", "--N", "200", "--B", "1", "--q", "17", "--mode", "first_order", "--out", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "cluster_summary.json").read_text())
    assert summary["ks_vs_triangular"] <= 0.02
    assert summary["max_center_distance"] <= 1e-6


@pytest.mark.parametrize(
    "N, B, argv",
    [
        (6, 1.0, []),
        (4, 1.0, ["--q", "2", "--mode", "multishell", "--delta", "2"]),
        (4, 0.0, []),
    ],
)
def test_cluster_summary_keys(tmp_path, N, B, argv):
    # a key leaves or arrives only on purpose
    out = tmp_path / "cl"
    assert run(["cluster", "--N", str(N), "--B", str(B), *argv, "--out", str(out)]) == 0
    # first order reads no band width and records none
    multishell = "multishell" in argv
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config == {
        "N": N,
        "B": B,
        "q": 2.0 if multishell else 17.0,
        "mode": "multishell" if multishell else "first_order",
        "delta": 2 if multishell else None,
    }
    # the manifest is the one record of a cluster run's config, so its order is pinned too
    assert list(config) == ["N", "B", "q", "mode", "delta"]
    summary = json.loads((out / "cluster_summary.json").read_text())
    assert list(summary) == [
        "N",
        "mode",
        "ks_vs_triangular",
        "diamagnetic_slack",
        "shift_scale",
        "subclusters",
        "max_center_distance",
    ]
    if B > 0:
        sizes = summary["subclusters"]
        assert list(sizes) == [str(m) for m in range(-N, N + 1)]
        assert sizes == {str(m): N + 1 - abs(m) for m in range(-N, N + 1)}
        assert 0.0 <= summary["max_center_distance"] < (B / 8.0) / (N + 1)
    else:
        assert summary["subclusters"] is None
        assert summary["max_center_distance"] is None


def test_cluster_labels_off_their_block_centers_are_failed_check(tmp_path, capsys, monkeypatch):
    # the rounding assignment would regroup these shifts and disagree with the m column
    monkeypatch.setattr(
        "zeemanlab.cli.cluster_eigenvalues", lambda *args, **kwargs: swapped_label_spectrum()
    )
    out = tmp_path / "swap"
    assert run(["cluster", "--N", "1", "--B", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (
        "scientific check failed: scaled shift -0.24 is 2.400e-01 from its block's "
        "ladder center, allowed 6.250e-02\n"
    )
    assert not out.exists()


def test_cluster_multishell_counts(tmp_path):
    out = tmp_path / "band"
    code = run(
        ["cluster", "--N", "10", "--mode", "multishell", "--delta", "2", "--out", str(out)]
    )
    assert code == 0
    assert len(_spectrum_rows(out)) == 121


def test_cluster_separation_failure_exit_code(tmp_path):
    out = tmp_path / "fail"
    code = run(
        [
            "cluster",
            "--N",
            "2",
            "--B",
            "50000",
            "--q",
            "0.1",
            "--mode",
            "multishell",
            "--delta",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 2


def test_cluster_separation_failure_names_its_block(tmp_path, capsys):
    # blocks are checked in the order m = 0, 1, -1, 2, ...: block 5 is the first short
    out = tmp_path / "fail"
    argv = ["cluster", "--N", "10", "--q", "1", "--mode", "multishell", "--delta", "2",
            "--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "scientific check failed: cluster around shell 10: found 5 eigenvalues of "
        "block m=5 inside the separating circle, expected 6\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "N, q, mode",
    [(7, 17.0, "first_order"), (12, 2.0, "first_order"), (6, 2.0, "multishell")],
)
def test_cluster_csv_holds_the_spectrum_bit_for_bit(tmp_path, N, q, mode):
    out = tmp_path / "rt"
    delta = 2 if mode == "multishell" else None
    argv = ["cluster", "--N", str(N), "--q", str(q), "--mode", mode, "--out", str(out)]
    assert run(argv + (["--delta", str(delta)] if delta else [])) == 0
    spec = cluster_eigenvalues(N, ScalingSchedule(B=1.0, q=q), delta)
    rows = _spectrum_rows(out)
    assert [int(row["N"]) for row in rows] == [spec.N] * len(spec.shifts)
    assert [int(row["m"]) for row in rows] == spec.subcluster_m.tolist()
    # 17 significant digits are lossless for doubles
    for name, values in [("shift", spec.shifts), ("scaled_shift", spec.scaled_shifts)]:
        column = np.array([float(row[name]) for row in rows])
        assert column.tobytes() == np.asarray(values, dtype=float).tobytes()


def test_write_json_numpy_floats_match_python_floats(tmp_path):
    values = [0.1, 1 / 3, -0.0, 5e-324, 1.7976931348623157e308]
    expected = json.dumps({"a": values, "s": values}, indent=2) + "\n"
    path = tmp_path / "f.json"
    write_json(path, {"a": np.array(values), "s": [np.float64(v) for v in values]})
    assert path.read_text() == expected


def test_diamagnetic_switch_is_gone(tmp_path, capsys):
    # the skip rule alone decides the diamagnetic term
    out = tmp_path / "para"
    assert run(["cluster", "--N", "5", "--no-diamagnetic", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: unrecognized arguments: --no-diamagnetic\n"
    assert not out.exists()


def test_cluster_deterministic_output(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["cluster", "--N", "5", "--out", str(out)]) == 0
    for name in ("cluster_spectrum.csv", "cluster_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize(
    "argv, files",
    [
        (["cluster", "--N", "4"], ["cluster_spectrum.csv", "cluster_summary.json"]),
        (["szego", "--N-list", "5"], ["szego_table.csv", "szego_summary.json"]),
        (
            ["coherent", "--N-list", "4,8", "--seed", "1"],
            ["coherent_convergence.csv", "coherent_summary.json"],
        ),
        (["kepler"], ["trajectory.csv", "kepler_summary.json"]),
        (
            ["measures", "--samples", "2000", "--seed", "1"],
            ["ell3_samples.csv", "measures_summary.json"],
        ),
    ],
)
def test_command_writes_exactly_its_files(tmp_path, argv, files):
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted([*files, "manifest.json"])


@pytest.mark.parametrize(
    "argv, code",
    [
        # sub-cluster overlap, found after the spectrum is computed
        (["cluster", "--N", "5", "--B", "1e160"], 2),
        (["cluster", "--N", "2", "--B", "50000", "--q", "0.1", "--mode", "multishell",
          "--delta", "1"], 2),
        (["szego", "--rho", "sin"], 1),
        (["szego", "--samples", "1000"], 1),
        (["coherent"], 1),
        (["measures"], 1),
        (["measures", "--samples", "0", "--seed", "1"], 1),
        # --delta is the multishell band width, and multishell needs one
        (["cluster", "--N", "3", "--delta", "100"], 1),
        (["cluster", "--N", "10", "--mode", "multishell"], 1),
        (["cluster"], 1),
        # szego draws, and reads --seed, only with --samples > 0
        (["szego", "--N-list", "4,8", "--seed", "-7"], 1),
        (["szego", "--N-list", "4,8", "--seed", "340282366920938463463374607431768211457"], 1),
        # an N list is strictly increasing positive integers with no empty field
        (["szego", "--N-list", "x"], 1),
        (["szego", "--N-list", "0,4"], 1),
        (["szego", "--N-list", "4,,8"], 1),
        (["szego", "--N-list", "400,25"], 1),
        (["szego", "--N-list", "25,25"], 1),
        (["coherent", "--N-list", "16,8", "--seed", "1"], 1),
        # ASCII digits only: int() would read each of these
        (["szego", "--N-list", "4_0"], 1),
        (["szego", "--N-list", " 8"], 1),
        (["szego", "--N-list", "+8"], 1),
        (["szego", "--N-list", "\u0664"], 1),
    ],
)
def test_failed_command_creates_no_output_directory(tmp_path, argv, code):
    out = tmp_path / "out"
    proc = run_fresh(["-m", "zeemanlab.cli", *argv, "--out", str(out)])
    assert proc.returncode == code, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: " if code == 1 else "scientific check failed: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["cluster", "szego", "coherent", "kepler", "measures"])
def test_command_help_exits_zero(command):
    proc = run_fresh(["-m", "zeemanlab.cli", command, "--help"])
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout.startswith(f"usage: zeemanlab {command} ")


@pytest.mark.parametrize(
    "argv, blocked, written",
    [
        (["cluster", "--N", "2"], "cluster_summary.json", ["cluster_spectrum.csv"]),
        (["kepler"], "manifest.json", ["kepler_summary.json", "trajectory.csv"]),
    ],
    ids=["cluster", "kepler"],
)
def test_write_error_is_one_line_usage_error(tmp_path, argv, blocked, written):
    # a directory where a result file goes makes its write fail
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    proc = run_fresh(["-m", "zeemanlab.cli", *argv, "--out", str(out)])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == f"error: cannot write {str(out / blocked)!r}: Is a directory\n"
    # the files before the failed one stay; no manifest marks the run incomplete
    assert sorted(p.name for p in out.iterdir()) == sorted([blocked, *written])
    assert not (out / "manifest.json").is_file()


# ---------------------------------------------------------------------------
# szego command
# ---------------------------------------------------------------------------


def test_szego_table_and_gaps(tmp_path):
    out = tmp_path / "sz"
    code = run(
        ["szego", "--rho", "x^2", "--B", "2", "--N-list", "25,50,100", "--out", str(out)]
    )
    assert code == 0
    with (out / "szego_table.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    gaps = [float(r["gap"]) for r in rows]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] <= 3.0 / 100.0
    summary = json.loads((out / "szego_summary.json").read_text())
    assert summary["limit_triangular"] == pytest.approx(1.0 / 6.0, abs=1e-10)


def test_szego_constant_gap_zero(tmp_path):
    out = tmp_path / "szc"
    assert run(["szego", "--rho", "1", "--N-list", "30,60", "--out", str(out)]) == 0
    with (out / "szego_table.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert all(abs(float(r["gap"])) <= 1e-12 for r in rows)


def test_szego_odd_symmetry(tmp_path):
    out = tmp_path / "szo"
    assert run(["szego", "--rho", "x^3", "--N-list", "40", "--out", str(out)]) == 0
    summary = json.loads((out / "szego_summary.json").read_text())
    assert abs(summary["limit_triangular"]) <= 1e-10
    assert abs(summary["final_gap"]) <= 1e-10


def test_szego_mc_requires_seed(tmp_path):
    out = tmp_path / "szmc"
    code = run(["szego", "--samples", "1000", "--out", str(out)])
    assert code == 1


@pytest.mark.parametrize(
    "argv, seed", [(["--samples", "1000", "--seed", "7"], 7), ([], None)]
)
def test_szego_summary_keys(tmp_path, argv, seed):
    # a key leaves or arrives only on purpose; the seed is echoed, null when not given
    out = tmp_path / "sz"
    assert run(["szego", "--N-list", "10", *argv, "--out", str(out)]) == 0
    summary = json.loads((out / "szego_summary.json").read_text())
    assert {k: sorted(v) if isinstance(v, dict) else None for k, v in summary.items()} == {
        "config": ["B", "N_list", "rho", "samples", "seed"],
        "results": None,
        "limit_triangular": None,
        "limit_angle_density": None,
        "triangular_vs_angle_gap": None,
        "final_gap": None,
    }
    manifest = json.loads((out / "manifest.json").read_text())
    assert summary["config"]["seed"] == manifest["config"]["seed"] == seed


# ---------------------------------------------------------------------------
# coherent command
# ---------------------------------------------------------------------------


def test_coherent_requires_seed(tmp_path):
    assert run(["coherent", "--m", "1", "--out", str(tmp_path / "x")]) == 1


def test_coherent_slope(tmp_path):
    out = tmp_path / "coh"
    code = run(
        [
            "coherent",
            "--m",
            "1",
            "--N-list",
            "8,16,32,64",
            "--seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "coherent_summary.json").read_text())
    assert -1.2 <= summary["slope"] <= -0.8
    with (out / "coherent_convergence.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["N"]) for r in rows] == [8, 16, 32, 64]


def test_coherent_deterministic_for_seed(tmp_path):
    outs = [tmp_path / "c1", tmp_path / "c2"]
    for out in outs:
        assert (
            run(
                [
                    "coherent",
                    "--m",
                    "1",
                    "--N-list",
                    "4,8",
                    "--seed",
                    "3",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
    assert (outs[0] / "coherent_summary.json").read_bytes() == (
        outs[1] / "coherent_summary.json"
    ).read_bytes()


# ---------------------------------------------------------------------------
# kepler command
# ---------------------------------------------------------------------------


def test_kepler_period_report(tmp_path):
    out = tmp_path / "kep"
    code = run(["kepler", "--ell", "0.05", "--tol", "1e-10", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "kepler_summary.json").read_text())
    assert abs(summary["period_minus_2pi"]) <= 1e-6
    assert summary["max_energy_drift"] <= 1e-9
    with (out / "trajectory.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0].keys()) == {
        "s",
        "x1",
        "x2",
        "x3",
        "p1",
        "p2",
        "p3",
        "energy",
        "ell3",
    }


def test_kepler_short_run_is_usage_error_and_writes_nothing(tmp_path, capsys):
    # a trajectory that stops before s = 2 pi - 0.5 holds no recurrence; at
    # 1e-300 the one step to s_max leaves a step size below the collapse
    # floor, which ends the run and is no collapse
    for s_max in ("1", "1e-300"):
        out = tmp_path / s_max
        assert run(["kepler", "--s-max", s_max, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the initial state does not recur")
        assert err.endswith(f"(trajectory ends at s={float(s_max)!r})\n")
        assert len(err.splitlines()) == 1
        assert not out.exists()


# the ell = 1e-4 start rounds 3e-8 off the shell, which is no reason to
# warn, and at tol = 1e-300 the step error estimate overflows to a rejection
_LOST_REGULARIZATION = [["--ell", "1e-4"], ["--tol", "1e-300"]]


@pytest.mark.parametrize("argv", _LOST_REGULARIZATION)
@pytest.mark.filterwarnings("error")
def test_kepler_lost_regularization_is_failed_check(tmp_path, capsys, argv):
    # lost regularization is a failed scientific check, reported in one line
    out = tmp_path / "kep"
    assert run(["kepler", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scientific check failed: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", _LOST_REGULARIZATION)
def test_kepler_failed_check_prints_one_stderr_line(tmp_path, argv):
    proc = run_fresh(["-m", "zeemanlab.cli", "kepler", *argv, "--out", str(tmp_path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("scientific check failed: ")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


# ---------------------------------------------------------------------------
# measures command
# ---------------------------------------------------------------------------


def test_measures_summary(tmp_path):
    out = tmp_path / "ms"
    code = run(["measures", "--samples", "200000", "--seed", "7", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "measures_summary.json").read_text())
    assert summary["pushforward"]["max_pointwise_gap"] <= 1e-9
    assert summary["pushforward"]["ks_vs_triangular"] <= 0.01
    assert abs(summary["haar_normalization"] - 1.0) <= 1e-6
    assert summary["beta_marginalization_gap"] <= 1e-8


def test_measures_summary_keys(tmp_path):
    # a key leaves or arrives only on purpose
    out = tmp_path / "ms"
    assert run(["measures", "--samples", "1000", "--seed", "7", "--out", str(out)]) == 0
    summary = json.loads((out / "measures_summary.json").read_text())
    assert {k: sorted(v) if isinstance(v, dict) else None for k, v in summary.items()} == {
        "config": ["B", "samples", "seed"],
        "pushforward": ["ks_vs_triangular", "max_pointwise_gap", "skipped_fraction"],
        "haar_normalization": None,
        "haar_normalization_refined": None,
        "beta_marginalization_gap": None,
        "quadratic_moment": ["angle_density", "monte_carlo", "std_error", "triangular"],
    }


def test_measures_moment_is_taken_over_the_pushforward_draw(tmp_path):
    # one index sample serves the pushforward and the Monte-Carlo moment
    out = tmp_path / "ms"
    assert run(["measures", "--samples", "40000", "--seed", "5", "--out", str(out)]) == 0
    moment = json.loads((out / "measures_summary.json").read_text())["quadratic_moment"]
    rng = np.random.default_rng(np.random.Philox(key=5))
    a, b = reference_sample_index_batch(rng, 40000)
    vals = (-(2.0 / 2.0) * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])) ** 2
    assert moment["monte_carlo"] == float(vals.mean())
    assert moment["std_error"] == float(vals.std(ddof=1) / np.sqrt(40000))


@pytest.mark.parametrize("nudge", [1e-12, np.nan])
def test_measures_pushforward_gap_above_rounding_is_failed_check(
    tmp_path, capsys, monkeypatch, nudge
):
    # x1 p2 - x2 p1 = a0 b1 - a1 b0 exactly, so a gap beyond 12 eps means broken numerics
    columns = szego_measures._pushforward_columns

    def nudged(a, b):
        keep, ell3_index, ell3_phase = columns(a, b)
        ell3_phase[-1] += nudge
        return keep, ell3_index, ell3_phase

    monkeypatch.setattr(szego_measures, "_pushforward_columns", nudged)
    out = tmp_path / "ms"
    assert run(["measures", "--samples", "1000", "--seed", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scientific check failed: pushforward gap ")
    assert err.endswith(f"exceeds its rounding bound {12 * sys.float_info.epsilon!r}\n")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_measures_gates_the_library_inverse_lift(tmp_path, capsys, monkeypatch):
    # ell3 of the pushforward comes from the library's own inverse Moser lift
    lift = szego_measures._inverse_arrays

    def scaled(omega, xi):
        x, p = lift(omega, xi)
        return x, p * (1.0 + 1e-12)

    monkeypatch.setattr(szego_measures, "_inverse_arrays", scaled)
    out = tmp_path / "ms"
    assert run(["measures", "--samples", "1000", "--seed", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scientific check failed: pushforward gap ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_measures_requires_seed(tmp_path):
    assert run(["measures", "--samples", "1000", "--out", str(tmp_path / "x")]) == 1


# ---------------------------------------------------------------------------
# flags and environment
# ---------------------------------------------------------------------------


def test_output_goes_to_the_working_directory_without_out(tmp_path, monkeypatch):
    # --out alone names the output directory; the environment plays no part
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setenv("ZEEMANLAB_OUT", str(tmp_path / "envout"))
    assert run(["cluster", "--N", "3"]) == 0
    assert sorted(p.name for p in work.iterdir()) == [
        "cluster_spectrum.csv", "cluster_summary.json", "manifest.json"
    ]
    assert not (tmp_path / "envout").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "--N", "0"],
        ["kepler", "--tol", "0"],
        ["cluster", "--N", "3", "--B", "-1"],
        ["coherent", "--m", "-1", "--N-list", "4,8", "--seed", "1"],
        # 2 (|B|/2)^m, which bounds every moment and error, overflows
        ["coherent", "--m", "2", "--B", "1e160", "--seed", "1"],
        ["coherent", "--m", "3", "--B", "1e120", "--seed", "1"],
        # the seed is a 128-bit Philox key
        ["coherent", "--seed", "-1"],
        ["measures", "--seed", str(2**128)],
        # an --out that names a file, or a path through one
        ["cluster", "--N", "3", "--out", "{file}"],
        ["cluster", "--N", "3", "--out", "{file}/sub"],
        # a count the library would refuse is refused under the flag's name
        ["szego", "--samples", "-3", "--seed", "1"],
        ["measures", "--samples", "0", "--seed", "1"],
        ["measures", "--samples", "-1", "--seed", "1"],
        # first order takes no delta; the band refuses a negative one
        ["cluster", "--N", "3", "--delta", "-5", "--mode", "first_order"],
        ["cluster", "--N", "3", "--delta", "-5", "--mode", "multishell"],
    ],
)
def test_library_value_error_is_one_line_usage_error(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    argv = [a.format(file=tmp_path / "file") for a in argv]
    out = ["--out", str(tmp_path / "x")] if "--out" not in argv else []
    assert run(argv + out) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    if argv[1] == "--seed":
        assert err == f"error: --seed must lie in [0, 2**128), got {argv[2]}\n"
    least = 1 if argv[0] == "measures" else 0
    if argv[1] in ("--samples", "--m") and int(argv[2]) < least:
        assert err == f"error: {argv[1]} must be >= {least}, got {argv[2]}\n"
    if "first_order" in argv:
        assert err == "error: --delta goes with --mode multishell, and only with it\n"
    if "multishell" in argv:
        assert err == "error: need delta >= 0 and N - delta >= 0, got N=3, delta=-5\n"
    if not out:
        assert err.startswith(f"error: cannot create output directory {argv[-1]!r}: ")
    assert not (tmp_path / "x").exists()


_NUMPY_OOM = (
    "Unable to allocate 931. GiB for an array with shape (1000000000000,) and data type bool"
)


@pytest.mark.parametrize(
    "command, call, message",
    [
        ("measures", "liouville_pushforward_check", _NUMPY_OOM),
        ("szego", "limit_quadric_mc", _NUMPY_OOM),
        ("measures", "liouville_pushforward_check", ""),
    ],
)
def test_out_of_memory_is_one_line_usage_error(
    tmp_path, capsys, monkeypatch, command, call, message
):
    # a huge --samples fails in numpy's allocator; the call raises as that would
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(f"zeemanlab.cli.{call}", refuse)
    out = tmp_path / "x"
    argv = [command, "--samples", "1000000000000", "--seed", "1", "--out", str(out)]
    assert run(argv) == 1
    err = "error: out of memory" + (f": {message}" if message else "")
    assert capsys.readouterr().err == err + "\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--B", "1e300"],  # lambda^2 overflows
        ["--q", "-400"],  # h^q overflows
        ["--q", "1000"],  # h^q underflows to 0
        ["--q", "400"],  # lambda is subnormal
        ["--B", "1e168"],  # the shifts are finite, the scaled shifts overflow
    ],
)
def test_schedule_out_of_float_range_is_one_line_usage_error(tmp_path, argv):
    argv = ["cluster", "--N", "5", *argv, "--out", str(tmp_path)]
    proc = run_fresh(["-m", "zeemanlab.cli", *argv])
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    B, q = (repr(float(argv[4])), "17.0") if argv[3] == "--B" else ("1.0", str(float(argv[4])))
    assert proc.stderr.startswith(f"error: B={B} and q={q} put the coupling schedule out of")
    assert proc.stderr.endswith("at N=5\n")


# Largest B accepted: 2 sum |c_k| (B/2)^k bounds every value of rho, and
# --samples times its square the sum behind the Monte-Carlo variance.
_FIELD_EDGES = [
    (["szego", "--samples", "1000", "--seed", "1"], "2.912016877e+76", "2.912016879e+76"),
    (["measures", "--samples", "1000", "--seed", "1"], "2.912016877e+76", "2.912016879e+76"),
    (["szego", "--rho", "x^12"], "13179248424039", "13179248424040"),
    (
        ["szego", "--rho", "0.3,-0.2,1.0,0.5", "--samples", "1000", "--seed", "1"],
        "1.502504987e+51",
        "1.502504989e+51",
    ),
]


def _run_warnings_as_errors(argv, out):
    return run_fresh(["-m", "zeemanlab.cli", *argv, "--out", str(out)], PYTHONWARNINGS="error")


@pytest.mark.parametrize(
    "argv, below",
    [(a, below) for a, below, _ in _FIELD_EDGES]
    # zero coefficients do not count, however large their power
    + [(["szego", "--rho", "1" + ",0" * 62], "1e300")],
)
def test_field_just_below_the_float_range_edge_writes_finite_results(tmp_path, argv, below):
    proc = _run_warnings_as_errors([*argv, "--B", below], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    for path in tmp_path.iterdir():
        if path.suffix == ".json":
            # json reads Infinity and NaN through parse_constant
            json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(f"{path}: {c}"))
        else:
            with path.open() as fh:
                rows = list(csv.reader(fh))[1:]
            assert np.all(np.isfinite(np.array(rows, dtype=float))), path.name


@pytest.mark.parametrize(
    "argv",
    [[*a, "--B", above] for a, _, above in _FIELD_EDGES]
    + [
        ["szego", "--B", "1e300", "--samples", "1000", "--seed", "1"],
        ["measures", "--samples", "1000", "--B", "1e300", "--seed", "1"],
        # the values are finite, the Monte-Carlo variance is not
        ["szego", "--B", "1e100", "--rho", "x^2", "--samples", "1000", "--seed", "1"],
        ["szego", "--B", "-1"],
        ["measures", "--B", "-1", "--seed", "1"],
    ],
)
def test_field_beyond_the_float_range_is_one_line_usage_error(tmp_path, argv):
    out = tmp_path / "out"
    proc = _run_warnings_as_errors(argv, out)
    assert proc.returncode == 1
    B = float(argv[argv.index("--B") + 1])
    want = f"--B must be >= 0, got {B!r}" if B < 0 else f"the test function at B={B!r} leaves"
    assert proc.stderr.startswith(f"error: {want}"), proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--B", "1e-310"],  # lambda underflows to 0 and every shift with it
        ["--B", "1e-300"],  # lambda is subnormal, the shifts lose digits
    ],
)
def test_tiny_positive_field_is_one_line_usage_error(tmp_path, argv):
    out = tmp_path / "out"
    proc = run_fresh(["-m", "zeemanlab.cli", "cluster", "--N", "5", *argv, "--out", str(out)])
    assert proc.returncode == 1
    # one line, no traceback and no warning
    assert proc.stderr == (
        f"error: B={float(argv[1])!r} and q=17.0 put the coupling schedule out of "
        "floating-point range at N=5\n"
    )
    assert not out.exists()


def test_small_field_with_normal_lambda_runs(tmp_path):
    out = tmp_path / "out"
    argv = ["cluster", "--N", "5", "--B", "1e-290", "--out", str(out)]
    proc = run_fresh(["-m", "zeemanlab.cli", *argv])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    summary = json.loads((out / "cluster_summary.json").read_text())
    assert summary["subclusters"] == {str(m): 6 - abs(m) for m in range(-5, 6)}


def test_swamping_field_is_one_line_failed_check(tmp_path):
    # scaled shifts of 2.4e305 are finite; the diamagnetic term swamps the ladder
    argv = ["cluster", "--N", "5", "--B", "1e160", "--out", str(tmp_path)]
    proc = run_fresh(["-m", "zeemanlab.cli", *argv])
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert proc.stderr.startswith("scientific check failed: scaled shift ")


def test_abbreviated_flag_is_rejected_not_overridden(tmp_path, capsys):
    argv = ["szego", "--sam", "1000", "--seed", "1"]
    assert run(argv + ["--N-list", "4", "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith("error: unrecognized arguments: --sam")
    assert not (tmp_path / "x").exists()


def test_integer_float_flag_is_stored_as_a_float(tmp_path):
    out = tmp_path / "x"
    assert run(["cluster", "--N", "3", "--B", "2", "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["B"] == 2.0 and isinstance(config["B"], float)


@pytest.mark.parametrize("before_command", [True, False])
def test_config_option_is_one_line_usage_error(tmp_path, before_command):
    cfg = tmp_path / "f.json"
    cfg.write_text(json.dumps({"N": 3}))
    out = tmp_path / "x"
    command = ["cluster", "--N", "3", "--out", str(out)]
    option = ["--config", str(cfg)]
    argv = option + command if before_command else command + option
    proc = run_fresh(["-m", "zeemanlab.cli", *argv])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "--N", "3", "--B", "nan"],
        ["cluster", "--N", "3", "--B", "inf"],
        ["cluster", "--N", "3", "--q", "nan"],
        ["szego", "--B", "nan", "--N-list", "5"],
        ["cluster", "--N", "3", "--q", "inf"],
        ["coherent", "--B", "inf", "--seed", "1"],
        ["kepler", "--ell", "nan"],
        ["kepler", "--tol", "inf"],
        ["kepler", "--s-max", "nan"],
        ["measures", "--B", "nan", "--seed", "1"],
    ],
)
def test_non_finite_flag_is_usage_error(tmp_path, capsys, argv):
    # these used to fail inside LAPACK, or (szego) exit 0 with NaN in the JSON
    assert run(argv + ["--out", str(tmp_path / "x")]) == 1
    flag, value = next((a, v) for a, v in zip(argv, argv[1:]) if v in ("nan", "inf"))
    assert capsys.readouterr().err == f"error: {flag} must be finite, got {float(value)!r}\n"
    assert not (tmp_path / "x").exists()

