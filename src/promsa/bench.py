"""Benchmark harness comparing UPGMA and neighbor-joining guide trees.

For every requested dataset class the harness generates (or accepts) one
dataset per base seed, runs the full pipeline once per method and
repetition on that same dataset, and records stage timings and both
sum-of-pairs metrics. Repetitions rerun identical data, so cost columns
are constant per dataset and only the timings vary.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from statistics import median_low

from .datasets import CLASSES, generate_sequences
from .distances import check_taxa
from .pairwise import ScoringScheme
from .progressive import GUIDE_METHODS, PipelineConfig, PipelineReport, progressive_align
from .sequences import Sequence, check_raw_inputs


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
    def from_report(cls, seqs: list[Sequence], report: PipelineReport, seed: int) -> "BenchRecord":
        """The record of one pipeline run over ``seqs``."""
        t = report.timings
        return cls(
            method=report.guide_tree.method,
            n_sequences=len(seqs),
            mean_length=sum(len(s) for s in seqs) / len(seqs),
            distance_ms=t.distance_ns // 1_000_000,
            tree_ms=t.tree_ns // 1_000_000,
            merge_ms=t.merge_ns // 1_000_000,
            total_ms=t.total_ns // 1_000_000,
            total_cost=report.total_cost,
            sp_score=report.sp_score,
            seed=seed,
        )


_CSV_COLUMNS = tuple(f.name for f in fields(BenchRecord))
BENCH_CSV_HEADER = ",".join(_CSV_COLUMNS)
# The columns not written with str(); every other field is a name or an int.
_CSV_FORMATS = {"mean_length": ".2f", "total_cost": ".6f"}


def run_bench(
    classes: list[str] | tuple[str, ...],
    reps: int,
    seed: int,
    methods: tuple[str, ...] = GUIDE_METHODS,
    scoring: ScoringScheme = ScoringScheme(),
    large_seqs: list[Sequence] | None = None,
) -> list[BenchRecord]:
    """Run every class x method x repetition cell and collect records.

    Every argument is checked before any cell runs. ``large`` needs user
    sequences; ``small`` and ``medium`` datasets are generated from the seed.
    Rows come out in class, then method, then repetition order.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    for name in classes:
        if name != "large" and name not in CLASSES:
            raise ValueError(f"unknown dataset class {name!r}")
    if "large" in classes:
        if not large_seqs:
            raise ValueError("the large class needs an input FASTA")
        check_raw_inputs(large_seqs)
        check_taxa(len(large_seqs))
    for method in methods:
        if method not in GUIDE_METHODS:
            raise ValueError(f"unknown method {method!r}")

    records: list[BenchRecord] = []
    for name in classes:
        if name == "large":
            seqs = list(large_seqs)
        else:
            spec = CLASSES[name]
            seqs = generate_sequences(spec.count, spec.min_len, spec.max_len, seed)
        for method in methods:
            cfg = PipelineConfig(guide_method=method, scoring=scoring)
            for _ in range(reps):
                report = progressive_align(seqs, cfg)
                records.append(BenchRecord.from_report(seqs, report, seed))
    return records


def records_to_csv(records: list[BenchRecord]) -> str:
    """The header, then one row per record: its fields in declaration order."""
    rows = (",".join(format(getattr(rec, col), _CSV_FORMATS.get(col, "")) for col in _CSV_COLUMNS)
            for rec in records)
    return "\n".join((BENCH_CSV_HEADER, *rows)) + "\n"


def summarize(records: list[BenchRecord]) -> str:
    """Per-dataset method comparison of total cost and total time.

    A method's time is the ``statistics.median_low`` of its repetitions'
    ``total_ms``, a time one of them took; its cost is the same on every
    repetition.
    """
    datasets: dict[tuple, dict[str, list[BenchRecord]]] = {}
    for record in records:
        key = (record.seed, record.n_sequences, record.mean_length)
        datasets.setdefault(key, {}).setdefault(record.method, []).append(record)
    lines = []
    for (seed, n, mean_length), by_method in datasets.items():
        parts = [
            f"{method}: cost {reps[0].total_cost:.1f}, {median_low(r.total_ms for r in reps)} ms"
            for method, reps in by_method.items()
        ]
        lines.append(
            f"n={n} mean_len={mean_length:.1f} seed={seed}  " + "  ".join(parts)
        )
    return "\n".join(lines)
