"""Print the Needleman-Wunsch kernel's time and memory against the length.

Usage: python tools/kernel_timing.py

For each n in 100, 200, 400, 800 and 1600 the script draws a seeded random
pair of n-nt DNA sequences and times ``align_strings`` on it under the
default scores, best of five calls, taken in five rounds over every n, with
the memo emptied before each call so every call fills its grid. It prints
one Markdown table: the best time in milliseconds, the (n+1)**2 grid cells
filled per second, and the call's peak ``tracemalloc`` bytes per cell,
taken in one more call outside the timed ones. Lines of tables from two
commits on one machine compare the kernel layer alone, which the
benchmark's per-layer cells/s cannot: it counts memoized calls as fills.
The script takes no options and writes no file.
"""

from __future__ import annotations

import random
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SIZES = (100, 200, 400, 800, 1600)
REPEATS = 5


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
    """The Markdown table; ``promsa`` must be importable."""
    from promsa import ScoringScheme, align_strings
    from promsa.pairwise import _memo_align

    s = ScoringScheme()
    pairs = {n: dna_pair(n) for n in SIZES}

    def cold_align(n: int) -> None:
        _memo_align.cache_clear()
        align_strings(*pairs[n], s)

    best: dict[int, int] = {}
    # Each round times every n once, so a burst of load on the machine
    # costs each n at most a few of its samples, not all of them.
    for _ in range(REPEATS):
        for n in SIZES:
            start = perf_counter_ns()
            cold_align(n)
            elapsed = perf_counter_ns() - start
            best[n] = min(best.get(n, elapsed), elapsed)
    peaks = {n: traced_peak(lambda: cold_align(n)) for n in SIZES}
    cells = {n: (n + 1) ** 2 for n in SIZES}
    rows = {
        f"best of {REPEATS} (ms)": (f"{best[n] / 1e6:,.2f}" for n in SIZES),
        "Mcells/s": (f"{cells[n] / best[n] * 1e3:,.1f}" for n in SIZES),
        "peak bytes/cell": (f"{peaks[n] / cells[n]:.2f}" for n in SIZES),
    }
    lines = [
        "DP kernel, `align_strings` on seeded random n x n DNA pairs, memo emptied",
        "",
        "| n | " + " | ".join(map(str, SIZES)) + " |",
        "|---" * (len(SIZES) + 1) + "|",
    ]
    lines += [f"| {name} | " + " | ".join(values) + " |" for name, values in rows.items()]
    return "\n".join(lines)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    print(kernel_timing())
    return 0


if __name__ == "__main__":
    sys.exit(main())
