"""The benchmark's workloads: dataset shapes and how each job's input is made.

Every job draws a fresh dataset from (workload, seed, job index), so no
input repeats within a run, while the shape (taxon count and every
sequence length) is the same for all jobs and seeds. README.md explains
why each workload exists and which layer it loads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from family import Family, simulate_family

METHODS = ("upgma", "nj")


@dataclass(frozen=True)
class Workload:
    name: str
    lengths: tuple[int, ...]
    height: float
    indel_rate: float
    mean_indel: float
    star: bool
    # The first ``core_jobs`` jobs run in every run, however short
    # --seconds is. The accuracy sums and the layer counts cover exactly
    # these jobs, so they repeat exactly for a given seed.
    datasets_per_method: int

    @property
    def core_jobs(self) -> int:
        return len(METHODS) * self.datasets_per_method

    def method(self, job: int) -> str:
        """Jobs alternate guide-tree methods, starting with UPGMA."""
        return METHODS[job % len(METHODS)]

    def dataset(self, seed: int, job: int) -> Family:
        rng = random.Random(f"{self.name}:{seed}:{job}")
        return simulate_family(
            rng, self.lengths, self.height, self.indel_rate, self.mean_indel, self.star
        )


WORKLOADS = {
    w.name: w
    for w in (
        # Few long, distant sequences: the DP grid dominates time and memory.
        Workload("long_pairs", (800,) * 4, 0.2, 0.05, 3.0, star=True, datasets_per_method=8),
        # Many tiny sequences: per-call overhead, O(n^3) tree selection and
        # O(depth^2) scoring dominate. Equal lengths, no indels and many
        # datasets per run keep the alignment sums steady (see README.md).
        Workload("many_taxa", (12,) * 100, 0.1, 0.0, 1.0, star=True, datasets_per_method=24),
        # Related sequences down a random tree, with indels: the accuracy case.
        Workload("family", (200,) * 16, 0.15, 0.05, 2.0, star=False, datasets_per_method=16),
    )
}
