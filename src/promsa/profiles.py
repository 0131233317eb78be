"""Column frequency profiles, consensus extraction, and merge operations.

A profile records, for every alignment column, how often each of A, C, G,
T and the gap symbol occurs. Consensus extraction picks the most frequent
symbol per column; ties are settled by a pluggable policy, optionally
consulting a positionally matched companion sequence first. Merging a
sequence or a second alignment into a group goes through the group's
consensus: the consensus is globally aligned (gap glyphs acting as an
ordinary fifth letter), and every gap the aligner inserts into a consensus
becomes a full gap column in the corresponding group.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .pairwise import DIAG, LEFT, UP, ScoringScheme, align_strings, expand_by_moves
from .sequences import GAP, Msa, Sequence

SYMBOL_ORDER = "ACGT" + GAP

CONSENSUS_ID = "consensus"


class TieBreak:
    """Choice among tied consensus symbols: lexicographic or seeded-random.

    The lexicographic mode picks the smallest symbol under A < C < G < T <
    gap and makes the whole pipeline bit-reproducible. The random mode
    draws from a private generator seeded at construction, so runs with
    the same seed reproduce each other. ``fresh()`` returns an unused copy
    with the same configuration.
    """

    LEX = "lex"
    RANDOM = "random"

    def __init__(self, mode: str = LEX, seed: int = 0):
        if mode not in (self.LEX, self.RANDOM):
            raise ValueError(f"unknown tie-break mode {mode!r}")
        self.mode = mode
        self.seed = seed
        self._rng = random.Random(seed) if mode == self.RANDOM else None

    def fresh(self) -> "TieBreak":
        return TieBreak(self.mode, self.seed)

    def choose(self, candidates: Iterable[str]) -> str:
        ordered = sorted(set(candidates), key=SYMBOL_ORDER.index)
        if not ordered:
            raise ValueError("no candidates to choose from")
        if len(ordered) == 1 or self.mode == self.LEX:
            return ordered[0]
        return self._rng.choice(ordered)

    def __repr__(self):
        return f"TieBreak(mode={self.mode!r}, seed={self.seed!r})"


@dataclass(frozen=True)
class ProfileMatrix:
    """Per-column symbol counts over an alignment's rows.

    Frequencies are exposed as count/depth, so every value is a multiple
    of 1/depth and each column's frequencies sum to one.
    """

    counts: tuple[tuple[int, ...], ...]
    depth: int

    def __post_init__(self):
        for index, column in enumerate(self.counts):
            if len(column) != len(SYMBOL_ORDER) or sum(column) != self.depth:
                raise ValueError(f"column {index} counts do not total the depth")

    @property
    def width(self) -> int:
        return len(self.counts)

    def frequency(self, column: int, symbol: str) -> float:
        return self.counts[column][SYMBOL_ORDER.index(symbol)] / self.depth

    def column_frequencies(self, column: int) -> dict[str, float]:
        return {
            symbol: count / self.depth
            for symbol, count in zip(SYMBOL_ORDER, self.counts[column])
            if count
        }

    def to_csv(self) -> str:
        """Debug table: one row per symbol (gap rendered '-'), one column
        per alignment position."""
        header = "symbol," + ",".join(str(i) for i in range(self.width))
        lines = [header]
        for k, symbol in enumerate(SYMBOL_ORDER):
            label = "-" if symbol == GAP else symbol
            values = ",".join(f"{col[k] / self.depth:.6f}" for col in self.counts)
            lines.append(f"{label},{values}")
        return "\n".join(lines) + "\n"


def build_profile(msa: Msa) -> ProfileMatrix:
    """Count symbol occurrences per column; requires at least two rows."""
    if msa.depth < 2:
        raise ValueError("a profile needs at least two sequences")
    columns = map("".join, zip(*(row.residues for row in msa.rows)))
    counts = tuple(tuple(col.count(symbol) for symbol in SYMBOL_ORDER) for col in columns)
    return ProfileMatrix(counts, msa.depth)


def consensus(
    profile: ProfileMatrix,
    against: Sequence | str | None = None,
    tie: TieBreak | None = None,
) -> Sequence:
    """Extract the per-column majority sequence from a profile.

    At each position the unique most frequent symbol wins. On a tie, a
    symbol supplied by ``against`` at that position is taken when it is
    among the tied leaders; otherwise the tie-break policy draws from the
    leaders. ``against`` must match the profile width when provided.
    """
    tie = tie if tie is not None else TieBreak()
    companion = against.residues if isinstance(against, Sequence) else against
    if companion is not None and len(companion) != profile.width:
        raise ValueError(
            f"companion length {len(companion)} does not match profile width {profile.width}"
        )
    out = []
    for index, column in enumerate(profile.counts):
        top = max(column)
        leaders = [symbol for symbol, count in zip(SYMBOL_ORDER, column) if count == top]
        if len(leaders) == 1:
            out.append(leaders[0])
        elif companion is not None and companion[index] in leaders:
            out.append(companion[index])
        else:
            out.append(tie.choose(leaders))
    return Sequence(CONSENSUS_ID, "".join(out))


def _expand_rows(rows: tuple[Sequence, ...], moves: str, consume: str) -> list[Sequence]:
    return [
        Sequence(row.id, expand_by_moves(row.residues, moves, consume), row.description)
        for row in rows
    ]


def align_sequence_to_profile(
    group: Msa,
    newcomer: Sequence,
    s: ScoringScheme | None = None,
    tie: TieBreak | None = None,
) -> Msa:
    """Merge a gapless sequence into an aligned group.

    The group's consensus is globally aligned against the newcomer; each
    gap inserted into the consensus becomes a gap column across the whole
    group, and the aligned newcomer is appended as the last row.
    """
    if not newcomer.is_gapless:
        raise ValueError(f"newcomer {newcomer.id!r} must be gapless")
    s = s if s is not None else ScoringScheme()
    cons = consensus(build_profile(group), tie=tie)
    _, moves = align_strings(cons.residues, newcomer.residues, s)
    rows = _expand_rows(group.rows, moves, DIAG + UP)
    new_row = Sequence(
        newcomer.id, expand_by_moves(newcomer.residues, moves, DIAG + LEFT), newcomer.description
    )
    return Msa(tuple(rows) + (new_row,))


def align_profile_to_profile(
    g1: Msa,
    g2: Msa,
    s: ScoringScheme | None = None,
    tie: TieBreak | None = None,
) -> Msa:
    """Merge two aligned groups via their consensus sequences.

    Gaps inserted into either consensus become gap columns in that group;
    the second group's rows follow the first's.
    """
    s = s if s is not None else ScoringScheme()
    tie = tie if tie is not None else TieBreak()
    c1 = consensus(build_profile(g1), tie=tie)
    c2 = consensus(build_profile(g2), tie=tie)
    _, moves = align_strings(c1.residues, c2.residues, s)
    rows = _expand_rows(g1.rows, moves, DIAG + UP)
    rows += _expand_rows(g2.rows, moves, DIAG + LEFT)
    return Msa(tuple(rows))
