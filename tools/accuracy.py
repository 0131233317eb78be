"""Print the accuracy of the default pipeline on perfbench's workloads.

Usage: python tools/accuracy.py

Each core job of perfbench's three workloads at seed 1 (96 jobs) is
aligned with the default ``PipelineConfig`` under its job's guide-tree
method, as the benchmark runs it. The script prints one Markdown table
with a row per workload and method: the jobs' mean Q (the share of true
homologous residue pairs put in one column, perfbench's ``q_score``),
their summed sum-of-pairs cost and their summed sum-of-pairs score. The
rows equal perfbench's seed-1 ``q_score.*``, ``total_cost.*`` and
``sp_score.*`` sums. The script takes no options and writes no file.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def accuracy_table() -> str:
    """The Markdown table; ``promsa`` and perfbench's ``family`` and
    ``workloads`` must be importable."""
    from family import q_score
    from promsa import PipelineConfig, progressive_align
    from workloads import METHODS, WORKLOADS

    lines = [
        "Accuracy of the seed-1 core jobs: mean Q, summed SP cost and summed SP score",
        "",
        "| workload | method | jobs | Q | SP cost | SP score |",
        "|---|---|---|---|---|---|",
    ]
    for name, workload in WORKLOADS.items():
        runs = {method: [] for method in METHODS}
        for job in range(workload.core_jobs):
            family = workload.dataset(1, job)
            report = progressive_align(family.seqs, PipelineConfig(workload.method(job)))
            runs[workload.method(job)].append(
                (q_score(report.msa, family), report.total_cost, report.sp_score)
            )
        for method, rows in runs.items():
            q, cost, score = zip(*rows)
            lines.append(
                f"| {name} | {method} | {len(rows)} | {statistics.fmean(q):.4f} "
                f"| {sum(cost):,.0f} | {sum(score):,} |"
            )
    return "\n".join(lines)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    print(accuracy_table())
    return 0


if __name__ == "__main__":
    sys.exit(main())
