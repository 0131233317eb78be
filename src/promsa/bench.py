"""Benchmark harness comparing UPGMA and neighbor-joining guide trees.

For every requested dataset class the harness generates (or accepts) one
dataset per base seed, runs the full pipeline once per method and
repetition on that same dataset, and records stage timings and both
sum-of-pairs metrics. Repetitions rerun identical data, so cost columns
are constant per dataset and only the timings vary.
"""

from __future__ import annotations

from dataclasses import dataclass

from .datasets import CLASSES, generate_class
from .pairwise import ScoringScheme
from .progressive import GUIDE_METHODS, PipelineConfig, PipelineReport, progressive_align
from .profiles import TieBreak
from .sequences import Sequence

BENCH_CSV_HEADER = (
    "method,n_sequences,mean_length,distance_ms,tree_ms,merge_ms,"
    "total_ms,total_cost,sp_score,seed"
)


@dataclass(frozen=True)
class BenchRecord:
    method: str
    n_sequences: int
    mean_length: float
    distance_ms: int
    tree_ms: int
    merge_ms: int
    total_ms: int
    total_cost: float
    sp_score: int
    seed: int

    @classmethod
    def from_report(
        cls, method: str, seqs: list[Sequence], report: PipelineReport, seed: int
    ) -> "BenchRecord":
        """The record of one pipeline run over ``seqs``."""
        t = report.timings
        return cls(
            method=method,
            n_sequences=len(seqs),
            mean_length=sum(len(s) for s in seqs) / len(seqs),
            distance_ms=t.distance_ms,
            tree_ms=t.tree_ms,
            merge_ms=t.merge_ms,
            total_ms=t.total_ms,
            total_cost=report.total_cost,
            sp_score=report.sp_score,
            seed=seed,
        )

    def csv_row(self) -> str:
        return (
            f"{self.method},{self.n_sequences},{self.mean_length:.2f},"
            f"{self.distance_ms},{self.tree_ms},{self.merge_ms},{self.total_ms},"
            f"{self.total_cost:.6f},{self.sp_score},{self.seed}"
        )


def run_bench(
    classes: list[str] | tuple[str, ...],
    reps: int,
    seed: int,
    methods: tuple[str, ...] = GUIDE_METHODS,
    scoring: ScoringScheme | None = None,
    large_seqs: list[Sequence] | None = None,
) -> list[BenchRecord]:
    """Run every class x method x repetition cell and collect records.

    ``large`` must be accompanied by user-supplied sequences; ``small``
    and ``medium`` datasets are generated deterministically from the seed.
    Rows come out in class, then method, then repetition order.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    for method in methods:
        if method not in GUIDE_METHODS:
            raise ValueError(f"unknown method {method!r}")
    scoring = scoring if scoring is not None else ScoringScheme()

    records: list[BenchRecord] = []
    for name in classes:
        if name == "large":
            if not large_seqs:
                raise ValueError("the large class needs an input FASTA")
            seqs = list(large_seqs)
        elif name in CLASSES:
            seqs = generate_class(CLASSES[name], seed)
        else:
            raise ValueError(f"unknown dataset class {name!r}")
        for method in methods:
            cfg = PipelineConfig(guide_method=method, scoring=scoring, tie=TieBreak())
            for _ in range(reps):
                report = progressive_align(seqs, cfg)
                records.append(BenchRecord.from_report(method, seqs, report, seed))
    return records


def records_to_csv(records: list[BenchRecord]) -> str:
    lines = [BENCH_CSV_HEADER]
    lines.extend(record.csv_row() for record in records)
    return "\n".join(lines) + "\n"


def summarize(records: list[BenchRecord]) -> str:
    """Per-dataset method comparison of total cost and total time."""
    datasets: dict[tuple, dict[str, BenchRecord]] = {}
    for record in records:
        key = (record.seed, record.n_sequences, record.mean_length)
        datasets.setdefault(key, {})[record.method] = record
    lines = []
    for (seed, n, mean_length), by_method in datasets.items():
        parts = [
            f"{method}: cost {rec.total_cost:.1f}, {rec.total_ms} ms"
            for method, rec in by_method.items()
        ]
        lines.append(
            f"n={n} mean_len={mean_length:.1f} seed={seed}  " + "  ".join(parts)
        )
    return "\n".join(lines)
