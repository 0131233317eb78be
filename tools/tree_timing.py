"""Print the guide-tree build time against the number of taxa.

Usage: python tools/tree_timing.py

For each n in 50, 100, 200, 400 and 800 the script draws n seeded random
points in the unit cube, takes their Euclidean distances as the matrix,
and times ``upgma_build`` and ``nj_build`` on it, best of five calls each,
taken in five rounds over every cell. It prints one Markdown table of
milliseconds, so the tree layer's cost can be compared across commits on
one machine. The script takes no options and writes no file.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter_ns

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIZES = (50, 100, 200, 400, 800)
REPEATS = 5


def point_matrix(n: int):
    """Distances between n random points of the unit cube, seeded by n."""
    from promsa import DistanceMatrix

    points = np.random.default_rng(n).random((n, 3))
    # diff[i, j] is exactly -diff[j, i], so the table is exactly symmetric.
    diff = points[:, None, :] - points[None, :, :]
    return DistanceMatrix(tuple(f"t{i}" for i in range(n)), np.sqrt((diff**2).sum(axis=2)))


def tree_timing() -> str:
    """The Markdown table; ``promsa`` must be importable."""
    from promsa import nj_build, upgma_build

    builds = (upgma_build, nj_build)
    matrices = [point_matrix(n) for n in SIZES]
    best: dict[tuple, int] = {}
    # Each round times every cell once, so a burst of load on the machine
    # costs each cell at most a few of its samples, not all of them.
    for _ in range(REPEATS):
        for build in builds:
            for n, m in zip(SIZES, matrices):
                start = perf_counter_ns()
                build(m)
                elapsed = perf_counter_ns() - start
                best[build, n] = min(best.get((build, n), elapsed), elapsed)
    lines = [
        f"Guide-tree build, best of {REPEATS} (ms), random 3-D point tables",
        "",
        "| n | " + " | ".join(map(str, SIZES)) + " |",
        "|---" * (len(SIZES) + 1) + "|",
    ]
    for build in builds:
        cells = (f"{best[build, n] / 1e6:,.1f}" for n in SIZES)
        lines.append(f"| `{build.__name__}` | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    print(tree_timing())
    return 0


if __name__ == "__main__":
    sys.exit(main())
