"""Print one SHA-256 over perfbench's layer counts of every seed-1 core job.

Usage: python tools/trace_counts.py

Each core job of perfbench's three workloads at seed 1 (96 jobs) runs on
its own under perfbench's span tracer, through
``promsa.progressive.progressive_align`` as the benchmark calls it, and
adds its 12 counts (``spans.COUNT_KEYS``: DP calls and cells, distance
pairs, tree scans, merges by kind, profiled cells, SP pair columns and
Msa builds) to the hash. Two checkouts that print the same line do the
same counted work in every job. The counts are not pinned, since a
change that speeds a layer up may move them. The script takes no options
and writes no file.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def trace_counts() -> tuple[int, str]:
    """(jobs, SHA-256 hex digest) over the counts; ``promsa`` and perfbench's
    ``spans`` and ``workloads`` must be importable."""
    import promsa.progressive
    from promsa import PipelineConfig
    from spans import COUNT_KEYS, Tracer
    from workloads import WORKLOADS

    sha = hashlib.sha256()
    jobs = 0
    for workload in WORKLOADS.values():
        for job in range(workload.core_jobs):
            seqs = workload.dataset(1, job).seqs
            tracer = Tracer()
            with tracer.installed(job):
                promsa.progressive.progressive_align(seqs, PipelineConfig(workload.method(job)))
            counts = tracer.counts[job]
            sha.update(" ".join(str(counts[key]) for key in COUNT_KEYS).encode() + b"\n")
            jobs += 1
    return jobs, sha.hexdigest()


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    print(*trace_counts())
    return 0


if __name__ == "__main__":
    sys.exit(main())
