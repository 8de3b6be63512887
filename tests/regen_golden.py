"""Rewrite the golden result files of a few small commands in tests/golden/.

Each entry of GOLDEN_COMMANDS runs in-process through ``zeemanlab.cli.main``
into ``tests/golden/<name>/``.  Its manifest records the wall time and the
peak RSS, so only the manifest's ``config`` is kept, as ``config.json``;
for ``cluster`` no other file records it.  FINGERPRINT.json records the
Python, numpy and scipy versions and the machine the files were made on,
where tests/test_golden.py compares them byte for byte.  Run it from the
repository root after a change that is meant to move results, and read the
diff of tests/golden/ to see which values moved:

    PYTHONPATH=src python tests/regen_golden.py
"""

from __future__ import annotations

import json
import platform
import shutil
import sys
from pathlib import Path

import numpy as np
import scipy

from zeemanlab.cli import main, write_json

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> argv without --out
GOLDEN_COMMANDS = {
    "cluster_q17_N40": ["cluster", "--N", "40", "--B", "1"],
    "cluster_q17_N2_B2": ["cluster", "--N", "2", "--B", "2"],
    "cluster_q2_N12": ["cluster", "--N", "12", "--B", "1", "--q", "2"],
    "cluster_q2_N10_multishell": [
        "cluster", "--N", "10", "--B", "1", "--q", "2", "--mode", "multishell", "--delta", "2",
    ],
    "szego_default": ["szego"],
    "szego_x6_B20": [
        "szego", "--rho", "x^6", "--B", "20", "--N-list", "25,400", "--samples", "2000",
        "--seed", "7",
    ],
    "coherent": ["coherent", "--m", "1", "--N-list", "4,8,16", "--seed", "7"],
    "kepler": ["kepler", "--ell", "0.6", "--tol", "1e-6", "--s-max", "7"],
    "measures": ["measures", "--samples", "1000", "--seed", "7"],
}


def fingerprint() -> dict:
    """What the bytes of the result files may depend on besides the code."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def run(name: str, out: Path) -> None:
    """Run one golden command into ``out``; its manifest leaves only its config, as config.json."""
    code = main([*GOLDEN_COMMANDS[name], "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"golden command {name!r} exited {code}")
    manifest = out / "manifest.json"
    write_json(out / "config.json", json.loads(manifest.read_text())["config"])
    manifest.unlink()


def regenerate() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir()
    for name in GOLDEN_COMMANDS:
        run(name, GOLDEN / name)
    with (GOLDEN / "FINGERPRINT.json").open("w") as fh:
        json.dump(fingerprint(), fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    regenerate()
    sys.exit(0)
