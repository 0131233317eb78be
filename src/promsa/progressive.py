"""Progressive alignment pipeline: distances, guide tree, ordered merging.

The merge stage folds over the guide tree's own join log: a leaf-leaf
join runs the pairwise aligner, a group-leaf join aligns the newcomer to
the group's consensus, and a group-group join aligns the two consensus
sequences, propagating inserted gaps into the owning groups. Each stage
is timed with a monotonic clock in nanoseconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .distances import DEFAULT_D_MAX, DistanceMatrix, pairwise_distance_matrix
from .evaluate import CostScheme, sp_score, sp_total_cost
from .guide_tree import GuideTree, nj_build, upgma_build
from .pairwise import ScoringScheme, align_global
from .profiles import TieBreak, align_profile_to_profile, align_sequence_to_profile
from .sequences import Msa, Sequence, check_raw_inputs

GUIDE_METHODS = ("upgma", "nj")


class PipelineError(RuntimeError):
    """Failure inside a named pipeline stage."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"{stage} stage failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class PipelineConfig:
    guide_method: str = "upgma"
    scoring: ScoringScheme = field(default_factory=ScoringScheme)
    tie: TieBreak = field(default_factory=TieBreak)
    d_max: float = DEFAULT_D_MAX

    def __post_init__(self):
        if self.guide_method not in GUIDE_METHODS:
            raise ValueError(f"guide_method must be one of {GUIDE_METHODS}")


@dataclass(frozen=True)
class StageTimings:
    """Stage wall times in ns; the ``*_ms`` views round down to whole ms."""

    distance_ns: int
    tree_ns: int
    merge_ns: int
    total_ns: int

    @property
    def distance_ms(self) -> int:
        return self.distance_ns // 1_000_000

    @property
    def tree_ms(self) -> int:
        return self.tree_ns // 1_000_000

    @property
    def merge_ms(self) -> int:
        return self.merge_ns // 1_000_000

    @property
    def total_ms(self) -> int:
        return self.total_ns // 1_000_000


@dataclass(frozen=True)
class PipelineReport:
    distance_matrix: DistanceMatrix
    guide_tree: GuideTree
    msa: Msa
    total_cost: float
    sp_score: int
    timings: StageTimings


def progressive_align(
    seqs: list[Sequence] | tuple[Sequence, ...], cfg: PipelineConfig | None = None
) -> PipelineReport:
    """Run the full pipeline over gapless input sequences.

    The final alignment's rows are reordered to the input order. Errors
    are re-raised as PipelineError naming the failing stage.
    """
    cfg = cfg if cfg is not None else PipelineConfig()
    seqs = tuple(seqs)
    ids = check_raw_inputs(seqs)
    tie = cfg.tie.fresh()

    start_ns = time.monotonic_ns()
    try:
        matrix = pairwise_distance_matrix(seqs, cfg.scoring, cfg.d_max)
    except Exception as err:
        raise PipelineError("distance", err) from err
    distance_end_ns = time.monotonic_ns()

    try:
        build = upgma_build if cfg.guide_method == "upgma" else nj_build
        tree = build(matrix)
    except Exception as err:
        raise PipelineError("tree", err) from err
    tree_end_ns = time.monotonic_ns()

    try:
        groups: dict[int, Sequence | Msa] = dict(enumerate(seqs))
        for step in tree.merge_log:
            left = groups.pop(step.left)
            right = groups.pop(step.right)
            if isinstance(left, Sequence) and isinstance(right, Sequence):
                merged = align_global(left, right, cfg.scoring).to_msa()
            elif isinstance(left, Msa) and isinstance(right, Msa):
                merged = align_profile_to_profile(left, right, cfg.scoring, tie)
            elif isinstance(left, Msa):
                merged = align_sequence_to_profile(left, right, cfg.scoring, tie)
            else:
                merged = align_sequence_to_profile(right, left, cfg.scoring, tie)
            groups[step.new] = merged
        (alignment,) = groups.values()
        by_id = {row.id: row for row in alignment.rows}
        alignment = Msa(tuple(by_id[i] for i in ids))
    except Exception as err:
        raise PipelineError("merge", err) from err
    merge_end_ns = time.monotonic_ns()

    return PipelineReport(
        distance_matrix=matrix,
        guide_tree=tree,
        msa=alignment,
        total_cost=sp_total_cost(alignment, CostScheme()),
        sp_score=sp_score(alignment, cfg.scoring),
        timings=StageTimings(
            distance_ns=distance_end_ns - start_ns,
            tree_ns=tree_end_ns - distance_end_ns,
            merge_ns=merge_end_ns - tree_end_ns,
            total_ns=merge_end_ns - start_ns,
        ),
    )
