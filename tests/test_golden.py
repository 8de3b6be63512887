"""The result files of a few small commands against those kept in tests/golden/.

On the Python, numpy, scipy and machine recorded in FINGERPRINT.json the
files must match byte for byte.  Elsewhere the libraries' and the
machine's own roundings may differ, so the files are parsed and must have
the same names, headers, keys and shapes, equal strings and integers, and
floats within RTOL: of the largest magnitude of their column in a CSV, of
their own magnitude (plus ATOL) in a JSON file.  A change meant to move
results reruns tests/regen_golden.py and shows the moved values in the
diff of tests/golden/.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from regen_golden import GOLDEN, GOLDEN_COMMANDS, fingerprint, run

RTOL = 1e-6
ATOL = 1e-12


def recorded_fingerprint() -> dict:
    return json.loads((GOLDEN / "FINGERPRINT.json").read_text())


def _cells(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def csv_mismatch(got: Path, want: Path) -> str | None:
    """Where the parsed CSV ``got`` leaves ``want``'s values by more than the bound."""
    (gh, grows), (wh, wrows) = _cells(got), _cells(want)
    if gh != wh or len(grows) != len(wrows):
        return f"header or row count: {gh}, {len(grows)} rows against {wh}, {len(wrows)}"
    for k, name in enumerate(wh):
        gcol, wcol = [r[k] for r in grows], [r[k] for r in wrows]
        if all(c.lstrip("-").isdigit() for c in wcol):
            if gcol != wcol:
                return f"column {name}: integers differ"
            continue
        g, w = np.array(gcol, dtype=float), np.array(wcol, dtype=float)
        scale = float(np.max(np.abs(w)))
        bad = np.flatnonzero(~((g == w) | (np.abs(g - w) <= RTOL * scale)))
        if bad.size:
            i = bad[0]
            return f"column {name}, row {i}: {gcol[i]} against {wcol[i]}"
    return None


def json_mismatch(got, want, where: str = "") -> str | None:
    """Where the parsed JSON ``got`` leaves ``want`` by more than the bound."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return f"{where}: keys {got!r} against {want!r}"
        for key in want:
            found = json_mismatch(got[key], want[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: {got!r} against {want!r}"
        for i, (g, w) in enumerate(zip(got, want)):
            found = json_mismatch(g, w, f"{where}[{i}]")
            if found:
                return found
        return None
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want) and math.isnan(got):
            return None
        scale = max(abs(got), abs(want))
        if got == want or abs(got - want) <= RTOL * scale + ATOL:
            return None
        return f"{where}: {got!r} against {want!r}"
    return None if type(got) is type(want) and got == want else f"{where}: {got!r} against {want!r}"


def parsed_mismatch(got: Path, want: Path) -> str | None:
    if want.suffix == ".csv":
        return csv_mismatch(got, want)
    return json_mismatch(json.loads(got.read_text()), json.loads(want.read_text()))


def test_golden_files_are_the_commands_outputs():
    assert sorted(p.name for p in GOLDEN.iterdir() if p.is_dir()) == sorted(GOLDEN_COMMANDS)
    assert list(recorded_fingerprint()) == list(fingerprint())


@pytest.mark.parametrize("name", list(GOLDEN_COMMANDS))
def test_command_reproduces_its_golden_files(name, tmp_path):
    run(name, tmp_path)
    want_dir = GOLDEN / name
    names = sorted(p.name for p in want_dir.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    same_machine = recorded_fingerprint() == fingerprint()
    for file in names:
        got, want = tmp_path / file, want_dir / file
        if same_machine:
            assert got.read_bytes() == want.read_bytes(), f"{name}/{file}"
        else:
            assert parsed_mismatch(got, want) is None, f"{name}/{file}"


@pytest.mark.parametrize("name", ["cluster_q2_N12", "kepler"])
def test_parsed_comparison_takes_the_files_and_refuses_a_moved_value(name, tmp_path):
    # the comparison used off the recorded fingerprint, exercised here too
    run(name, tmp_path)
    for want in sorted((GOLDEN / name).iterdir()):
        assert parsed_mismatch(tmp_path / want.name, want) is None
    csv_file = next(tmp_path.glob("*.csv"))
    header, rows = _cells(csv_file)
    k = len(header) - 1
    rows[len(rows) // 2][k] = repr(float(rows[len(rows) // 2][k]) * (1 + 1e-3) + 1e-3)
    with csv_file.open("w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    assert parsed_mismatch(csv_file, GOLDEN / name / csv_file.name) is not None
    summary = next(tmp_path.glob("*.json"))
    payload = json.loads(summary.read_text())
    key = next(k for k, v in payload.items() if isinstance(v, float))
    payload[key] = payload[key] * (1 + 1e-3) + 1e-3
    summary.write_text(json.dumps(payload))
    assert parsed_mismatch(summary, GOLDEN / name / summary.name) is not None
