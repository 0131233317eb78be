"""Jukes-Cantor evolutionary distances assembled into a distance matrix.

Distances are computed from Needleman-Wunsch alignments of each sequence
pair, whose sites are counted straight from the aligner's move string.
Columns containing a gap are excluded from the site counts, and the
substitution fraction feeds the Jukes-Cantor correction. Fractions at or
beyond the model's 3/4 ceiling are clamped to a configurable maximum and
flagged as saturated.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Unused here since the stage counts sites itself; perfbench's tracer wraps it by this name.
from .pairwise import PairwiseAlignment, ScoringScheme, align_global, site_counts
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


def jukes_cantor(stats: MatchStats, d_max: float = DEFAULT_D_MAX) -> JukesCantorResult:
    """Jukes-Cantor distance from pairwise site counts.

    With p the mismatch fraction over comparable columns, the distance is
    -(3/4) * ln(1 - (4/3) * p). For p >= 3/4 the formula is undefined, so
    the result is clamped to ``d_max`` and flagged saturated.
    """
    p = stats.mismatch_fraction
    if p >= SATURATION_P:
        return JukesCantorResult(d_max, True)
    if p == 0:
        return JukesCantorResult(0.0, False)  # the formula gives -0.0 here
    return JukesCantorResult(-0.75 * math.log(1.0 - (4.0 / 3.0) * p), False)


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

    def between(self, taxon_a: str, taxon_b: str) -> float:
        i = self.taxa.index(taxon_a)
        j = self.taxa.index(taxon_b)
        return float(self.values[i, j])

    def to_csv(self) -> str:
        lines = ["taxon," + ",".join(self.taxa)]
        for name, row in zip(self.taxa, self.values):
            lines.append(name + "," + ",".join(f"{v:.6f}" for v in row))
        return "\n".join(lines) + "\n"


def pairwise_distance_matrix(
    seqs: list[Sequence] | tuple[Sequence, ...],
    s: ScoringScheme | None = None,
    d_max: float = DEFAULT_D_MAX,
) -> DistanceMatrix:
    """Jukes-Cantor distances for every unordered pair of input sequences.

    Each distinct ordered residue pair is aligned once with ``site_counts``
    under the given scoring scheme, which counts its sites from the move
    string; a later pair with the same residues, in the same order, reuses
    that distance. The order matters because traceback ties can resolve
    differently when the inputs are swapped. Errors from the per-pair steps
    are re-raised with the offending pair named, which is the first pair in
    row order with those residues. ``d_max`` is checked before any pair is
    aligned: it must be finite and nonnegative.
    """
    if not (math.isfinite(d_max) and d_max >= 0):
        raise ValueError(f"d_max must be finite and nonnegative, got {d_max!r}")
    ids = check_raw_inputs(seqs)
    s = s if s is not None else ScoringScheme()
    n = len(seqs)
    residues = [seq.residues for seq in seqs]
    # A key recurs only if one of its strings does, so only those are kept.
    repeats = {r for r, count in Counter(residues).items() if count > 1}
    known: dict[tuple[str, str], float] = {}
    upper: list[float] = []  # row-major, as np.triu_indices orders the pairs
    for i in range(n):
        for j in range(i + 1, n):
            key = (residues[i], residues[j])
            d = known.get(key)
            if d is None:
                try:
                    matches, comparable = site_counts(*key, s)
                    if comparable == 0:
                        raise ValueError(_NO_SITES)
                    stats = MatchStats(matches, comparable - matches, comparable)
                    d = jukes_cantor(stats, d_max).value
                except ValueError as err:
                    raise ValueError(f"pair ({ids[i]}, {ids[j]}): {err}") from err
                if key[0] in repeats or key[1] in repeats:
                    known[key] = d
            upper.append(d)
    values = np.zeros((n, n))
    rows, cols = np.triu_indices(n, 1)
    values[rows, cols] = values[cols, rows] = upper
    return DistanceMatrix(tuple(ids), values)
