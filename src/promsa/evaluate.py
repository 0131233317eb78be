"""Sum-of-pairs evaluation of a finished alignment.

Two complementary views: a distance-style total cost (lower is better)
and a score under the alignment's own match/mismatch/gap scheme (higher
is better). Both are weighted sums of one tally of column pairs, taken
from the alignment's per-column symbol counts rather than from its row
pairs, so they cost O(width) whatever the depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pairwise import ScoringScheme
from .profiles import build_profile
from .sequences import Msa


@dataclass(frozen=True)
class CostScheme:
    """Per-column pair costs: match and gap-gap are free, mismatches and
    residue-against-gap columns pay the configured nonnegative amounts."""

    mismatch_cost: float = 1.0
    gap_letter_cost: float = 1.0

    def __post_init__(self):
        if self.mismatch_cost < 0 or self.gap_letter_cost < 0:
            raise ValueError("costs must be nonnegative")


def _pair_counts(msa: Msa) -> tuple[int, int, int]:
    """(match, mismatch, residue-gap) counts over all row pairs and columns.

    In a column with c_x copies of each letter x and R = depth - gaps
    residues, the matching pairs number sum C(c_x, 2), the mismatching
    ones C(R, 2) minus those, and the residue-against-gap ones R * gaps.
    Gap-gap pairs are not counted.
    """
    if msa.depth < 2:
        return 0, 0, 0
    counts = build_profile(msa).counts
    # Profile columns count A, C, G, T, then the gap.
    letters, gaps = counts[:, :-1], counts[:, -1]
    residues = msa.depth - gaps
    # Python ints from here on: the callers weight them by scores up to 2**31.
    match = int((letters * (letters - 1)).sum()) // 2
    mismatch = int((residues * (residues - 1)).sum()) // 2 - match
    residue_gap = int((residues * gaps).sum())
    return match, mismatch, residue_gap


def sp_total_cost(msa: Msa, costs: CostScheme | None = None) -> float:
    """Total cost summed over all unordered row pairs and all columns.

    The cost is the mismatch and residue-gap pair counts times their
    costs. With integer or dyadic costs, such as the defaults, this is
    exact; other float costs may differ in the last bit from adding the
    cost once per pair and column.
    """
    costs = costs if costs is not None else CostScheme()
    _, mismatch, residue_gap = _pair_counts(msa)
    return float(mismatch * costs.mismatch_cost + residue_gap * costs.gap_letter_cost)


def sp_score(msa: Msa, s: ScoringScheme | None = None) -> int:
    """Sum-of-pairs score under a match/mismatch/gap scheme.

    Gap-gap columns contribute zero, so for a two-row alignment produced
    by the global aligner this equals the pairwise alignment score.
    """
    s = s if s is not None else ScoringScheme()
    match, mismatch, residue_gap = _pair_counts(msa)
    return match * s.match_score + mismatch * s.mismatch_score + residue_gap * s.gap_penalty
