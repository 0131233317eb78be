"""Jukes-Cantor evolutionary distances assembled into a distance matrix.

Distances are computed from Needleman-Wunsch alignments of each distinct
ordered pair of residue strings. The stage numbers the distinct strings
and the distinct ordered keys, and passes the strings with two index
arrays, a key's first and second string, to
``pairwise.batch_site_counts``, which counts the sites of every key at
once: it fills the keys its thresholds admit as lanes of anti-diagonals,
gathering each lane's code points by index from one concatenation of the
strings, each cell carrying the site counts of its traceback path, and
counts the rest from each pair's move string. No grid is filled when any
pair's grid would be over ``MAX_DP_CELLS``. Gap columns are excluded from
the counts, and each distinct substitution fraction feeds the
Jukes-Cantor correction once. Fractions at or beyond the model's 3/4
ceiling are clamped to ``DEFAULT_D_MAX``. The matrix keeps no saturation
flag: only ``jukes_cantor``, which corrects one pair's counts, reports
one.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .pairwise import (
    MAX_DP_CELLS,
    PairwiseAlignment,
    ScoringScheme,
    batch_site_counts,
    check_dp_cells,
)

# Unused here since the stage counts sites itself; perfbench's tracer wraps it by this name.
from .pairwise import align_global
from .sequences import GAP, Sequence, check_raw_inputs

DEFAULT_D_MAX = 10.0

SATURATION_P = 0.75

_NO_SITES = "alignment has no gap-free columns to compare"


@dataclass(frozen=True)
class MatchStats:
    """Match/mismatch counts over the gap-free columns of a pair."""

    matches: int
    mismatches: int
    comparable_columns: int

    def __post_init__(self):
        if self.matches < 0 or self.mismatches < 0:
            raise ValueError("counts must be nonnegative")
        if self.matches + self.mismatches != self.comparable_columns:
            raise ValueError("matches + mismatches must equal comparable_columns")

    @property
    def mismatch_fraction(self) -> float:
        if self.comparable_columns == 0:
            raise ValueError("no comparable columns")
        return self.mismatches / self.comparable_columns


class JukesCantorResult(NamedTuple):
    value: float
    saturated: bool


def column_stats(alignment: PairwiseAlignment) -> MatchStats:
    """Count matches and mismatches over columns where neither row has a gap."""
    matches = 0
    mismatches = 0
    for x, y in zip(alignment.row_a.residues, alignment.row_b.residues):
        if x == GAP or y == GAP:
            continue
        if x == y:
            matches += 1
        else:
            mismatches += 1
    if matches + mismatches == 0:
        raise ValueError(_NO_SITES)
    return MatchStats(matches, mismatches, matches + mismatches)


def jukes_cantor(stats: MatchStats) -> JukesCantorResult:
    """Jukes-Cantor distance from pairwise site counts.

    With p the mismatch fraction over comparable columns, the distance is
    -(3/4) * ln(1 - (4/3) * p). For p >= 3/4 the formula is undefined, so
    the result is clamped to ``DEFAULT_D_MAX`` and flagged saturated.
    """
    p = stats.mismatch_fraction
    return JukesCantorResult(_jukes_cantor_value(p), p >= SATURATION_P)


def _jukes_cantor_value(p: float) -> float:
    """The Jukes-Cantor distance at mismatch fraction p, ``DEFAULT_D_MAX`` from 3/4 up."""
    if p >= SATURATION_P:
        return DEFAULT_D_MAX
    if p == 0:
        return 0.0  # the formula gives -0.0 here
    return -0.75 * math.log(1.0 - (4.0 / 3.0) * p)


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric nonnegative distances over named taxa, zero diagonal.

    ``taxa`` is a tuple, ``values`` the matrix's own read-only C-ordered
    float64 copy of the caller's array or lists; matrices compare by identity."""

    taxa: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        n = len(self.taxa)
        values = np.array(self.values, dtype=np.float64, order="C")
        if len(set(self.taxa)) != n:
            raise ValueError("taxa ids must be distinct")
        if values.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("distances must be finite")
        if np.any(values < 0):
            raise ValueError("distances must be nonnegative")
        if np.any(np.diag(values) != 0):
            raise ValueError("diagonal must be zero")
        if not np.array_equal(values, values.T):
            raise ValueError("matrix must be symmetric")
        values.flags.writeable = False
        object.__setattr__(self, "taxa", tuple(self.taxa))
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return len(self.taxa)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["taxon", *self.taxa])
        for name, row in zip(self.taxa, self.values):
            writer.writerow([name, *(f"{v:.6f}" for v in row)])
        return out.getvalue()


def pairwise_distance_matrix(
    seqs: list[Sequence] | tuple[Sequence, ...],
    s: ScoringScheme = ScoringScheme(),
) -> DistanceMatrix:
    """Jukes-Cantor distances for every unordered pair of input sequences.

    Each distinct ordered residue pair is aligned once under the given
    scoring scheme; a later pair with the same residues, in the same
    order, reuses that distance. The order matters because traceback ties
    can resolve differently when the inputs are swapped. The pairs are
    counted together by ``batch_site_counts``, whose docstring gives the
    thresholds for filling them by anti-diagonals across lanes.

    Every pair is checked against ``MAX_DP_CELLS`` before any grid is
    filled: if any is over, the first such pair in row order is named and
    nothing is aligned. Otherwise the error names the first pair in row
    order whose alignment has no gap-free column.
    """
    ids = check_raw_inputs(seqs)
    n = len(seqs)
    residues = [seq.residues for seq in seqs]
    # Number the distinct residue strings (an object array, so no string is
    # padded to the longest), then the distinct ordered keys.
    strings, string_of = np.unique(np.array(residues, dtype=object), return_inverse=True)
    rows, cols = np.triu_indices(n, 1)  # every pair, in row order
    keys, first, key_of_pair = np.unique(
        string_of[rows] * len(strings) + string_of[cols], return_index=True, return_inverse=True
    )
    key_a, key_b = np.divmod(keys, len(strings))
    lengths = np.array([len(r) for r in strings])
    # No grid is filled while any key is over the budget.
    failed = (lengths[key_a] + 1) * (lengths[key_b] + 1) > MAX_DP_CELLS
    if not failed.any():
        matches, comparable = batch_site_counts(strings.tolist(), key_a, key_b, s)
        failed = comparable == 0
    if failed.any():
        k = first[failed].min()  # the first pair of a failed key, in row order
        i, j = rows[k], cols[k]
        try:
            check_dp_cells(len(residues[i]), len(residues[j]))
            raise ValueError(_NO_SITES)  # within the budget, so it was aligned
        except ValueError as err:
            raise ValueError(f"pair ({ids[i]}, {ids[j]}): {err}") from err
    # Keys share fractions: a many_taxa job's 1,450-2,120 keys hold 13-20
    # distinct ones, so each distinct fraction is corrected once.
    fractions, fraction_of_key = np.unique((comparable - matches) / comparable, return_inverse=True)
    distances = np.array([_jukes_cantor_value(p) for p in fractions.tolist()])[fraction_of_key]
    values = np.zeros((n, n))
    values[rows, cols] = values[cols, rows] = distances[key_of_pair]
    return DistanceMatrix(tuple(ids), values)
