"""Jukes-Cantor evolutionary distances assembled into a distance matrix.

Distances are computed from Needleman-Wunsch alignments of each distinct
ordered pair of residue strings (a key). The stage numbers the distinct
strings and finds each one's first and last input position. Some pair
puts string a before string b exactly when a's first position comes
before b's last, so the keys are listed from the distinct strings alone,
and no list of the pairs is made. The strings go with two index arrays, a
key's first and second string, to ``pairwise.batch_site_counts``, which
counts the sites of every key at once: it fills the keys its thresholds
admit as lanes of anti-diagonals, gathering each lane's code points by
index from one concatenation of the strings, each cell carrying the site
counts of its traceback path, and counts the rest from each pair's move
string. The key distances fill a table over the distinct strings, and
the matrix is one gather of it by each sequence's string. No key is
formed when the sequences are too many for ``MAX_DISTANCE_BYTES``, and
no grid is filled when any pair's grid would be over ``MAX_DP_CELLS``.
Gap columns are excluded from the counts, and each distinct substitution
fraction feeds the Jukes-Cantor correction once. Fractions at or beyond
the model's 3/4 ceiling are clamped to ``DEFAULT_D_MAX``. The matrix
keeps no saturation flag: only ``jukes_cantor``, which corrects one
pair's counts, reports one.
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

# check_taxa keeps the stage's peak within MAX_DISTANCE_BYTES, as MAX_DP_CELLS
# bounds one grid. The peak grows with the n(n-1)/2 pairs, whose arrays do
# not grow with the sequences' length: one stage on 2,000 random 12-nt
# sequences raises ru_maxrss by 99 bytes a pair (tools/layer_timing.py;
# 2-core x86, Python 3.11, numpy 2.4). The bound keeps an earlier 146 bytes
# a pair, so 2 GiB still admits 5,424 sequences: raising it changes which
# inputs are accepted.
MAX_DISTANCE_BYTES = 2**31
_PAIR_BYTES = 146

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


def check_taxa(n: int) -> None:
    """Raise ValueError when the distance stage over n sequences would hold
    more than ``MAX_DISTANCE_BYTES``, judged from n alone."""
    need = n * (n - 1) // 2 * _PAIR_BYTES
    if need > MAX_DISTANCE_BYTES:
        raise ValueError(
            f"{n} sequences need about {need} bytes in the distance stage, "
            f"over the budget of {MAX_DISTANCE_BYTES}"
        )


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

    The sequence count is checked against ``MAX_DISTANCE_BYTES`` before
    any array of n x n size is made. Every pair is checked against
    ``MAX_DP_CELLS`` before any grid is filled: if any is over, the first
    such pair in row order is named and nothing is aligned. Otherwise the
    error names the first pair in row order whose alignment has no gap-free
    column.
    """
    ids = check_raw_inputs(seqs)
    n = len(seqs)
    check_taxa(n)
    # Number the distinct residue strings (an object array, so no string is
    # padded to the longest), with each one's first and last input position.
    residues = np.array([seq.residues for seq in seqs], dtype=object)
    strings, first, string_of = np.unique(residues, return_index=True, return_inverse=True)
    last = n - 1 - np.unique(residues[::-1], return_index=True)[1]
    # Some pair puts string a before string b exactly when a first comes
    # before b last: these are the keys, in (a, b) order.
    key_a, key_b = np.nonzero(first[:, None] < last)

    def by_pair(key_values: np.ndarray) -> np.ndarray:
        """The n x n gather of a key table: [i, j] holds the value of key
        (string_of[i], string_of[j]), or 0 if that is not a key. Only the
        entries above the diagonal are pairs' keys."""
        table = np.zeros((len(strings), len(strings)), dtype=key_values.dtype)
        table[key_a, key_b] = key_values
        return table[string_of[:, None], string_of]

    lengths = np.array([len(r) for r in strings])
    # No grid is filled while any key is over the budget.
    failed = (lengths[key_a] + 1) * (lengths[key_b] + 1) > MAX_DP_CELLS
    if not failed.any():
        matches, comparable = batch_site_counts(strings.tolist(), key_a, key_b, s)
        failed = comparable == 0
    if failed.any():
        # The first failed pair in row order holds the first True above the diagonal.
        i, j = divmod(int(np.triu(by_pair(failed), 1).argmax()), n)
        try:
            check_dp_cells(len(residues[i]), len(residues[j]))
            raise ValueError(_NO_SITES)  # within the budget, so it was aligned
        except ValueError as err:
            raise ValueError(f"pair ({ids[i]}, {ids[j]}): {err}") from err
    # Keys share fractions: a many_taxa job's 1,450-2,120 keys hold 13-20
    # distinct ones, so each distinct fraction is corrected once.
    fractions, fraction_of_key = np.unique((comparable - matches) / comparable, return_inverse=True)
    distances = np.array([_jukes_cantor_value(p) for p in fractions.tolist()])[fraction_of_key]
    # Each n x n float array held at once adds 16 bytes a pair to the peak,
    # so the key table is freed before the upper triangle is copied out, and
    # the lower one is filled in place.
    values = np.triu(by_pair(distances), 1)
    return DistanceMatrix(tuple(ids), np.add(values, values.T, out=values))
