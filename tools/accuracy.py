"""Print the accuracy of the default pipeline and one hash of its layer counts.

Usage: python tools/accuracy.py

Each core job of perfbench's three workloads at seed 1 (96 jobs) is
aligned once with the default ``PipelineConfig`` under its job's
guide-tree method, through ``promsa.progressive.progressive_align`` as
the benchmark calls it, under a fresh perfbench span tracer. Then each
of 16 fixed coalescent families (16 x 120 nt, indel rate 0.05) at tree
heights 0.15 and 0.4 is aligned untraced under both methods.

The script prints one Markdown table with a row per workload and method
and per height and method: the mean Q (the share of true homologous
residue pairs put in one column, perfbench's ``q_score``), the summed
sum-of-pairs cost and the summed sum-of-pairs score. The workload rows
equal perfbench's seed-1 ``q_score.*``, ``total_cost.*`` and ``sp_score.*``
sums. Its last line is ``trace counts: 96 <sha256>``, one hash over each
core job's 12 counts (``spans.COUNT_KEYS``: DP calls and cells, distance
pairs, tree scans, merges by kind, profiled cells, SP pair columns and
Msa builds). Two checkouts that print the same line do the same counted
work in every job. The counts are not pinned, since a change that speeds
a layer up may move them. The script takes no options and writes no file.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEIGHTS = (0.15, 0.4)
FAMILIES = 16
CAPTION = (f"Accuracy of the seed-1 core jobs and of {FAMILIES} coalescent families of 16 x 120"
           " nt per tree height: mean Q, summed SP cost and summed SP score")


def accuracy() -> str:
    """The Markdown table and the trace counts line; ``promsa`` and
    perfbench's ``family``, ``spans`` and ``workloads`` must be importable."""
    import promsa.progressive
    from family import q_score, simulate_family
    from promsa import PipelineConfig
    from spans import COUNT_KEYS, Tracer
    from workloads import METHODS, WORKLOADS

    def measure(family, method):
        report = promsa.progressive.progressive_align(family.seqs, PipelineConfig(method))
        return q_score(report.msa, family), report.total_cost, report.sp_score

    runs: dict[tuple[str, str], list] = defaultdict(list)
    sha = hashlib.sha256()
    for name, workload in WORKLOADS.items():
        for job in range(workload.core_jobs):
            method = workload.method(job)
            tracer = Tracer()
            with tracer.installed(job):
                run = measure(workload.dataset(1, job), method)
            runs[name, method].append(run)
            sha.update(" ".join(str(tracer.counts[job][k]) for k in COUNT_KEYS).encode() + b"\n")
    jobs = sum(map(len, runs.values()))
    for height in HEIGHTS:
        for k in range(FAMILIES):
            rng = random.Random(f"coalescent:{height}:{k}")
            family = simulate_family(rng, (120,) * 16, height, 0.05, 2.0, star=False)
            for method in METHODS:
                runs[f"coalescent {height}", method].append(measure(family, method))

    lines = [CAPTION, "", "| workload | method | jobs | Q | SP cost | SP score |",
             "|---" * 6 + "|"]
    for (name, method), rows in runs.items():
        q, cost, score = zip(*rows)
        lines.append(
            f"| {name} | {method} | {len(rows)} | {statistics.fmean(q):.4f} "
            f"| {sum(cost):,.0f} | {sum(score):,} |"
        )
    # The blank line ends the table, which would otherwise take the line as a row.
    lines += ["", f"trace counts: {jobs} {sha.hexdigest()}"]
    return "\n".join(lines)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    print(accuracy())
    return 0


if __name__ == "__main__":
    sys.exit(main())
