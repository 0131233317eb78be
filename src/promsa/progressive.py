"""Progressive alignment pipeline: distances, guide tree, ordered merging.

A run is three stages, each timed with a monotonic clock in nanoseconds.
The merge stage, ``merge_along``, folds over a join log such as the guide
tree's own: a leaf-leaf join runs the pairwise aligner, a group-leaf join
aligns the newcomer to the group's consensus, and a group-group join
aligns the two consensus sequences, propagating inserted gaps into the
owning groups. Groups travel as code blocks, and the final alignment is
one gather of the last block's rows into input order. A leaf-leaf join
aligns the same ordered residue pair as the distance stage, so where that
stage aligned the pair on its own, not as a lane, the aligner's memo
returns the moves without a second fill. Each run starts with an empty
memo, so that it reuses only its own alignments.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

from .distances import DistanceMatrix, pairwise_distance_matrix
from .evaluate import sp_score, sp_total_cost
from .guide_tree import GuideTree, Merge, nj_build, upgma_build
from .pairwise import ScoringScheme, _memo_align, align_global, grids_held
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

    def __post_init__(self):
        if self.guide_method not in GUIDE_METHODS:
            raise ValueError(f"guide_method must be one of {GUIDE_METHODS}")


@dataclass(frozen=True)
class StageTimings:
    """Stage wall times in ns, from a monotonic clock."""

    distance_ns: int
    tree_ns: int
    merge_ns: int
    total_ns: int


@dataclass(frozen=True)
class PipelineReport:
    distance_matrix: DistanceMatrix
    guide_tree: GuideTree
    msa: Msa
    total_cost: float
    sp_score: int
    timings: StageTimings


def merge_along(
    seqs: list[Sequence] | tuple[Sequence, ...],
    merge_log: tuple[Merge, ...],
    scoring: ScoringScheme,
    tie: TieBreak,
) -> Msa:
    """Merge gapless ``seqs`` in the order of ``merge_log``, whose leaves
    index ``seqs``, and return the alignment with its rows in input order.

    Raises ValueError if ``seqs`` are not two or more gapless sequences
    with distinct ids (rows are put back in input order by id), or if the
    log joins a cluster that is not pending, or does not join every
    sequence into one tree.
    """
    check_raw_inputs(seqs)
    groups: dict[int, Sequence | Msa] = dict(enumerate(seqs))
    for step in merge_log:
        try:
            left = groups.pop(step.left)
            right = groups.pop(step.right)
        except KeyError as err:
            raise ValueError(
                f"merge log joins cluster {err.args[0]}, which is not pending"
            ) from None
        if isinstance(left, Sequence) and isinstance(right, Sequence):
            pair = align_global(left, right, scoring)
            merged = Msa((pair.row_a, pair.row_b))
        elif isinstance(left, Msa) and isinstance(right, Msa):
            merged = align_profile_to_profile(left, right, scoring, tie)
        else:  # a group stays first when it meets a lone row
            group, lone = (left, right) if isinstance(left, Msa) else (right, left)
            merged = align_sequence_to_profile(group, lone, scoring, tie)
        groups[step.new] = merged
    alignment = groups.popitem()[1] if len(groups) == 1 else None
    if not isinstance(alignment, Msa) or alignment.depth != len(seqs):
        raise ValueError(f"merge log does not join the {len(seqs)} sequences into one tree")
    position = {row_id: k for k, row_id in enumerate(alignment.ids)}
    return Msa._from_codes(
        tuple(seq.id for seq in seqs),
        tuple(seq.description for seq in seqs),
        alignment.codes[[position[seq.id] for seq in seqs]],
    )


def _stage(name: str, fn: Callable, *args):
    """(fn(*args), the clock when it returned); a failure is re-raised as a
    PipelineError naming the stage."""
    try:
        return fn(*args), time.monotonic_ns()
    except Exception as err:
        raise PipelineError(name, err) from err


def progressive_align(
    seqs: list[Sequence] | tuple[Sequence, ...], cfg: PipelineConfig = PipelineConfig()
) -> PipelineReport:
    """Run the full pipeline over gapless input sequences.

    The final alignment's rows are reordered to the input order. Errors
    are re-raised as PipelineError naming the failing stage.
    """
    seqs = tuple(seqs)
    check_raw_inputs(seqs)
    # A run is timed on its own work, not on alignments an earlier run left.
    _memo_align.cache_clear()
    start_ns = time.monotonic_ns()
    # One grid buffer serves every fill of the run, so a run's grids are
    # never resident twice over; it is dropped as the block exits.
    with grids_held():
        matrix, distance_end = _stage("distance", pairwise_distance_matrix, seqs, cfg.scoring)
        build = upgma_build if cfg.guide_method == "upgma" else nj_build
        tree, tree_end = _stage("tree", build, matrix)
        alignment, merge_end = _stage(
            "merge", merge_along, seqs, tree.merge_log, cfg.scoring, cfg.tie.fresh()
        )
    return PipelineReport(
        distance_matrix=matrix,
        guide_tree=tree,
        msa=alignment,
        total_cost=sp_total_cost(alignment),
        sp_score=sp_score(alignment, cfg.scoring),
        timings=StageTimings(
            distance_ns=distance_end - start_ns,
            tree_ns=tree_end - distance_end,
            merge_ns=merge_end - tree_end,
            total_ns=merge_end - start_ns,
        ),
    )
