"""Sum-of-pairs evaluation of a finished alignment.

Two complementary views: a distance-style total cost (lower is better)
and a score under the alignment's own match/mismatch/gap scheme (higher
is better). Both are weighted sums of one tally of column pairs, taken
from the per-column symbol counts the alignment took when it was built
rather than from its row pairs, so they cost O(width) whatever the depth.
"""

from __future__ import annotations

from .pairwise import ScoringScheme
from .sequences import Msa


def _pair_counts(msa: Msa) -> tuple[int, int, int]:
    """(match, mismatch, residue-gap) counts over all row pairs and columns.

    In a column with c_x copies of each letter x and R = depth - gaps
    residues, the matching pairs number sum C(c_x, 2), the mismatching
    ones C(R, 2) minus those, and the residue-against-gap ones R * gaps.
    Gap-gap pairs are not counted.
    """
    # The columns count A, C, G, T, then the gap.
    letters, gaps = msa.counts[:, :-1], msa.counts[:, -1]
    residues = msa.depth - gaps
    # Python ints from here on: the callers weight them by scores up to 2**31.
    match = int((letters * (letters - 1)).sum()) // 2
    mismatch = int((residues * (residues - 1)).sum()) // 2 - match
    residue_gap = int((residues * gaps).sum())
    return match, mismatch, residue_gap


def sp_total_cost(msa: Msa) -> float:
    """Total cost summed over all unordered row pairs and all columns.

    Each mismatching pair and each residue-against-gap pair adds 1;
    matches and gap-gap pairs are free.
    """
    _, mismatch, residue_gap = _pair_counts(msa)
    return float(mismatch + residue_gap)


def sp_score(msa: Msa, s: ScoringScheme = ScoringScheme()) -> int:
    """Sum-of-pairs score under a match/mismatch/gap scheme.

    Gap-gap columns contribute zero, so for a two-row alignment produced
    by the global aligner this equals the pairwise alignment score.
    """
    match, mismatch, residue_gap = _pair_counts(msa)
    return match * s.match_score + mismatch * s.mismatch_score + residue_gap * s.gap_penalty
