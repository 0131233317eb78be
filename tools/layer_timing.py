"""Print the guide-tree build time, the DP kernel's time and memory, and the
distance stage's time and memory against n.

Usage: python tools/layer_timing.py

Every cell of the three tables is timed best of five calls, taken in five
rounds over every cell of its table. The script prints three Markdown
tables, so the tree, kernel and distance layers' cost can be compared
across commits on one machine:

- Guide tree: for each n in 50, 100, 200, 400, 800 and 1000, n seeded
  random points in the unit cube give the distance matrix (their Euclidean
  distances), and ``upgma_build`` and ``nj_build`` are timed on it, in ms.
  n = 1000 is the size the guide-tree targets are stated at. One run
  cannot rank two commits at n >= 800: compare several alternating runs.
- DP kernel: for each n in 100, 200, 400, 800 and 1600, ``align_strings``
  is timed on a seeded random pair of n-nt DNA sequences under the default
  scores, with the memo emptied before each call so every call fills its
  grid. The table gives the best time in ms, the (n+1)**2 grid cells filled
  per second, and the call's peak ``tracemalloc`` bytes per cell, taken in
  one more call outside the timed ones. It compares the kernel layer alone,
  which the benchmark's per-layer cells/s cannot: it counts memoized calls
  as fills.
- Distance stage: for each n in 250, 500, 1000 and 2000,
  ``pairwise_distance_matrix`` is timed on n seeded random 12-nt DNA
  sequences under the default scores, in ms with one decimal as in the
  tree table, so a change of a few percent shows even at n = 250. The
  table also gives its bytes per pair, n(n-1)/2 of them: the rise of
  ``ru_maxrss`` over one call in a child process of its own, one child per
  n, run one at a time.
  No benchmark workload has more than 100 taxa.

The script takes no options and writes no file.
"""

from __future__ import annotations

import random
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter_ns

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TREE_SIZES = (50, 100, 200, 400, 800, 1000)
KERNEL_SIZES = (100, 200, 400, 800, 1600)
DISTANCE_SIZES = (250, 500, 1000, 2000)
REPEATS = 5


def best_ns(cells, run) -> dict:
    """The best of ``REPEATS`` ns that ``run(cell)`` takes, for each of ``cells``."""
    best: dict = {}
    # Each round times every cell once, so a burst of load on the machine
    # costs each cell at most a few of its samples, not all of them.
    for _ in range(REPEATS):
        for cell in cells:
            start = perf_counter_ns()
            run(cell)
            elapsed = perf_counter_ns() - start
            best[cell] = min(best.get(cell, elapsed), elapsed)
    return best


def table(title: str, sizes: tuple[int, ...], rows: dict) -> str:
    """A Markdown table with a column per n in ``sizes`` and a row per label of ``rows``."""
    head = " | ".join(map(str, sizes))
    lines = [title, "", f"| n | {head} |", "|---" * (len(sizes) + 1) + "|"]
    lines += [f"| {label} | " + " | ".join(values) + " |" for label, values in rows.items()]
    return "\n".join(lines)


def point_matrix(n: int):
    """Distances between n random points of the unit cube, seeded by n."""
    from promsa import DistanceMatrix

    points = np.random.default_rng(n).random((n, 3))
    # diff[i, j] is exactly -diff[j, i], so the table is exactly symmetric.
    diff = points[:, None, :] - points[None, :, :]
    return DistanceMatrix(tuple(f"t{i}" for i in range(n)), np.sqrt((diff**2).sum(axis=2)))


def tree_timing() -> str:
    """The guide-tree table; ``promsa`` must be importable."""
    from promsa import nj_build, upgma_build

    builds = (upgma_build, nj_build)
    matrices = {n: point_matrix(n) for n in TREE_SIZES}
    cells = [(build, n) for build in builds for n in TREE_SIZES]
    best = best_ns(cells, lambda cell: cell[0](matrices[cell[1]]))
    rows = {f"`{b.__name__}`": [f"{best[b, n] / 1e6:,.1f}" for n in TREE_SIZES] for b in builds}
    return table(f"Guide-tree build, best of {REPEATS} (ms), random 3-D point tables",
                 TREE_SIZES, rows)


def dna_pair(n: int) -> tuple[str, str]:
    """Two random n-nt DNA strings, seeded by n."""
    rng = random.Random(n)
    return tuple("".join(rng.choice("ACGT") for _ in range(n)) for _ in range(2))


def traced_peak(call) -> int:
    """Peak bytes ``tracemalloc`` sees ``call()`` hold above what was held before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def kernel_timing() -> str:
    """The DP kernel table; ``promsa`` must be importable."""
    from promsa import ScoringScheme, align_strings
    from promsa.pairwise import _memo_align

    s = ScoringScheme()
    pairs = {n: dna_pair(n) for n in KERNEL_SIZES}

    def cold_align(n: int) -> None:
        _memo_align.cache_clear()
        align_strings(*pairs[n], s)

    best = best_ns(KERNEL_SIZES, cold_align)
    peaks = {n: traced_peak(lambda: cold_align(n)) for n in KERNEL_SIZES}
    cells = {n: (n + 1) ** 2 for n in KERNEL_SIZES}
    rows = {
        f"best of {REPEATS} (ms)": [f"{best[n] / 1e6:,.2f}" for n in KERNEL_SIZES],
        "Mcells/s": [f"{cells[n] / best[n] * 1e3:,.1f}" for n in KERNEL_SIZES],
        "peak bytes/cell": [f"{peaks[n] / cells[n]:.2f}" for n in KERNEL_SIZES],
    }
    return table("DP kernel, `align_strings` on seeded random n x n DNA pairs, memo emptied",
                 KERNEL_SIZES, rows)


def dna_set(n: int) -> list:
    """n random 12-nt DNA ``Sequence``s, seeded by n."""
    from promsa import Sequence

    rng = random.Random(n)
    return [Sequence(f"s{i}", "".join(rng.choices("ACGT", k=12))) for i in range(n)]


def distance_rise(n: int) -> int:
    """The bytes ``ru_maxrss`` rises by over one distance stage on ``dna_set(n)``
    in this process; Linux gives ``ru_maxrss`` in KiB."""
    from promsa import pairwise_distance_matrix

    seqs = dna_set(n)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pairwise_distance_matrix(seqs)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024


# A child process runs distance_rise(n) alone, so no other call's peak hides its own.
CHILD = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import layer_timing as t; "
    "print(t.distance_rise(int(sys.argv[3])))"
)


def distance_timing() -> str:
    """The distance-stage table; ``promsa`` must be importable."""
    from promsa import pairwise_distance_matrix

    paths = [str(ROOT / "src"), str(ROOT / "tools")]
    # Before this process builds any input: see main.
    rises = {
        n: int(subprocess.run([sys.executable, "-c", CHILD, *paths, str(n)], check=True,
                              capture_output=True, text=True).stdout)
        for n in DISTANCE_SIZES
    }
    sets = {n: dna_set(n) for n in DISTANCE_SIZES}
    best = best_ns(DISTANCE_SIZES, lambda n: pairwise_distance_matrix(sets[n]))
    rows = {
        f"best of {REPEATS} (ms)": [f"{best[n] / 1e6:,.1f}" for n in DISTANCE_SIZES],
        "bytes/pair": [f"{rises[n] / (n * (n - 1) // 2):,.0f}" for n in DISTANCE_SIZES],
    }
    return table("Distance stage, `pairwise_distance_matrix` on n seeded random 12-nt DNA "
                 "sequences", DISTANCE_SIZES, rows)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    # Linux starts a child's ru_maxrss at the peak RSS of the process that
    # started it, so the distance table's children run before the other
    # tables make this process large; started after them, they read 0.
    distance = distance_timing()
    print(tree_timing(), kernel_timing(), distance, sep="\n\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
