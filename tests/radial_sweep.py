"""Compare every cross-shell r^2 element with the integrated polynomial, bit for bit.

Covers every <n l|r^2|n2 l2> with n < n2 <= n + 4, n <= 81 and
l2 - l in {-2, 0, 2}: 39127 elements.  The oracle's double sums take about
35 s on 2 vCPUs, which is why this is a script and not a tier-1 test.  Run it
from the repository root:

    PYTHONPATH=src python tests/radial_sweep.py

It prints the count and exits 1 on the first element whose bits differ.
"""

from __future__ import annotations

from reference import radial_integral

from zeemanlab.hydrogenic_shell import radial_integral_r2_cross

NMAX = 81
GAP = 4


def sweep() -> int:
    count = 0
    for n in range(1, NMAX + 1):
        for n2 in range(n + 1, n + GAP + 1):
            for l in range(n):
                for l2 in (l - 2, l, l + 2):
                    if not 0 <= l2 < n2:
                        continue
                    got = radial_integral_r2_cross(n, l, n2, l2)
                    want = radial_integral(n, l, n2, l2)
                    if got.hex() != want.hex():
                        raise SystemExit(
                            f"<{n} {l}|r^2|{n2} {l2}>: production {got!r}, oracle {want!r}"
                        )
                    count += 1
    return count


if __name__ == "__main__":
    count = sweep()
    print(f"{count} cross-shell elements with n <= {NMAX}, n2 - n <= {GAP}: bit-identical")
