"""Progressive multiple sequence alignment of DNA.

Pipeline: Needleman-Wunsch pairwise distances under the Jukes-Cantor
model, a UPGMA or neighbor-joining guide tree, then profile-based
progressive merging in the tree's join order. A benchmark harness
compares the two guide-tree methods on generated or user-supplied
datasets.
"""

from .datasets import CLASSES, MEDIUM, SMALL, generate_sequences
from .distances import (
    DistanceMatrix,
    JukesCantorResult,
    MatchStats,
    column_stats,
    jukes_cantor,
    pairwise_distance_matrix,
)
from .evaluate import CostScheme, sp_score, sp_total_cost
from .guide_tree import (
    GuideTree,
    Merge,
    NjWorkspace,
    leaf_order,
    merge_log_csv,
    nj_build,
    nj_rates,
    to_newick,
    tree_distances,
    upgma_build,
)
from .pairwise import (
    DpMatrix,
    PairwiseAlignment,
    ScoringScheme,
    align_global,
    align_strings,
    build_dp_matrix,
)
from .profiles import (
    ProfileMatrix,
    TieBreak,
    align_profile_to_profile,
    align_sequence_to_profile,
    build_profile,
    consensus,
)
from .progressive import (
    PipelineConfig,
    PipelineError,
    PipelineReport,
    StageTimings,
    progressive_align,
)
from .sequences import (
    GAP,
    FastaError,
    Msa,
    Sequence,
    parse_fasta,
    strip_gaps,
    verify_msa_against_inputs,
    write_fasta,
)

__version__ = "0.1.0"

__all__ = [
    "GAP",
    "CLASSES",
    "MEDIUM",
    "SMALL",
    "CostScheme",
    "DistanceMatrix",
    "DpMatrix",
    "FastaError",
    "GuideTree",
    "JukesCantorResult",
    "MatchStats",
    "Merge",
    "Msa",
    "NjWorkspace",
    "PairwiseAlignment",
    "PipelineConfig",
    "PipelineError",
    "PipelineReport",
    "ProfileMatrix",
    "ScoringScheme",
    "Sequence",
    "StageTimings",
    "TieBreak",
    "align_global",
    "align_profile_to_profile",
    "align_sequence_to_profile",
    "align_strings",
    "build_dp_matrix",
    "build_profile",
    "column_stats",
    "consensus",
    "generate_sequences",
    "jukes_cantor",
    "leaf_order",
    "merge_log_csv",
    "nj_build",
    "nj_rates",
    "pairwise_distance_matrix",
    "parse_fasta",
    "progressive_align",
    "sp_score",
    "sp_total_cost",
    "strip_gaps",
    "to_newick",
    "tree_distances",
    "upgma_build",
    "verify_msa_against_inputs",
    "write_fasta",
]
