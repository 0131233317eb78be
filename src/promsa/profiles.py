"""Column frequency profiles, consensus extraction, and merge operations.

A profile is an alignment of at least two rows: its ``counts`` record, for
every column, how often each of A, C, G, T and the gap symbol occurs, as
taken when the ``Msa`` was built, and ``Msa.column_frequencies`` gives
them as fractions of the depth. Consensus extraction picks the most
frequent symbol per column; ties are settled by a pluggable policy.
Merging a sequence or a second alignment into a group goes through the
group's consensus: the consensus is globally aligned (gap glyphs acting as
an ordinary fifth letter), and every gap the aligner inserts into a
consensus becomes a full gap column in the corresponding group. A merge
takes its two operands whole, each an alignment or a lone sequence, and
places each one's code block on the joint columns in one step, so no row
is rebuilt.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable

import numpy as np

from .pairwise import LEFT, UP, ScoringScheme, align_strings
from .sequences import GAP, SYMBOLS, Msa, Sequence

# The ASCII code of each of SYMBOLS, the order of a count table's columns.
_SYMBOL_CODES = np.frombuffer(SYMBOLS.encode("ascii"), dtype=np.uint8)

CONSENSUS_ID = "consensus"


@dataclass(frozen=True)
class TieBreak:
    """Choice among tied consensus symbols: lexicographic or seeded-random.

    The lexicographic mode picks the smallest symbol under A < C < G < T <
    gap and makes the whole pipeline bit-reproducible. The random mode
    draws from a private generator seeded at construction, so runs with
    the same seed reproduce each other. ``fresh()`` returns an unused copy
    with the same configuration. Policies compare and hash by mode and
    seed, whatever their generators have drawn.
    """

    LEX = "lex"
    RANDOM = "random"

    mode: str = LEX
    seed: int = 0
    _rng: random.Random | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in (self.LEX, self.RANDOM):
            raise ValueError(f"unknown tie-break mode {self.mode!r}")
        rng = random.Random(self.seed) if self.mode == self.RANDOM else None
        object.__setattr__(self, "_rng", rng)

    def fresh(self) -> "TieBreak":
        return TieBreak(self.mode, self.seed)

    def choose(self, candidates: Iterable[str]) -> str:
        candidates = set(candidates)
        unknown = candidates.difference(SYMBOLS)
        if unknown:
            raise ValueError(f"candidates not in {SYMBOLS!r}: {sorted(unknown)}")
        ordered = sorted(candidates, key=SYMBOLS.index)
        if not ordered:
            raise ValueError("no candidates to choose from")
        if len(ordered) == 1 or self.mode == self.LEX:
            return ordered[0]
        return self._rng.choice(ordered)


def _majority(counts: np.ndarray, tie: TieBreak) -> str:
    """The most frequent symbol of each column of ``counts``; only tied
    columns are visited, in column order, so a random policy draws in the
    same columns and order as a walk over every column."""
    # argmax takes the first leader in SYMBOLS, which is the lex rule.
    out = _SYMBOL_CODES[counts.argmax(axis=1)]
    if tie.mode == TieBreak.RANDOM:
        leads = counts == counts.max(axis=1, keepdims=True)
        tied = np.flatnonzero(leads.sum(axis=1) > 1)
        for index, lead in zip(tied.tolist(), leads[tied].tolist()):
            out[index] = ord(tie.choose(compress(SYMBOLS, lead)))
    return out.tobytes().decode("ascii")


def build_profile(msa: Msa) -> Msa:
    """The profile of an alignment of at least two rows: the alignment itself."""
    if msa.depth < 2:
        raise ValueError("a profile needs at least two sequences")
    return msa


def consensus(profile: Msa, tie: TieBreak = TieBreak()) -> Sequence:
    """Extract the per-column majority sequence from a profile's ``counts``.

    At each position the unique most frequent symbol wins; on a tie the
    tie-break policy draws from the leaders, column by column.
    """
    return Sequence(CONSENSUS_ID, _majority(profile.counts, tie))


def _operand(operand: Msa | Sequence, tie: TieBreak):
    """A merge operand's ids, descriptions, uint8 code block and the string
    aligned for it: an alignment's consensus, or a lone sequence's residues."""
    if isinstance(operand, Msa):
        return operand.ids, operand.descriptions, operand.codes, _majority(operand.counts, tie)
    codes = np.frombuffer(operand.residues.encode("ascii"), dtype=np.uint8).reshape(1, -1)
    return (operand.id,), (operand.description,), codes, operand.residues


def _merge(first: Msa | Sequence, second: Msa | Sequence, s: ScoringScheme, tie: TieBreak) -> Msa:
    """Align the strings that stand for ``first`` and ``second`` (a random
    tie-break draws for the first one's consensus first) and place both
    operands on the joint columns, the first above the second: each fills
    the columns whose moves consume its string, and each gap put into its
    string is a gap column in it."""
    ids1, descriptions1, codes1, c1 = _operand(first, tie)
    ids2, descriptions2, codes2, c2 = _operand(second, tie)
    _, moves = align_strings(c1, c2, s)
    steps = np.frombuffer(moves.encode("ascii"), dtype=np.uint8)
    depth1 = len(ids1)
    codes = np.full((depth1 + len(ids2), len(moves)), ord(GAP), dtype=np.uint8)
    # An operand whose string gets no gap fills every joint column, so it is
    # placed whole; only one that gets a gap needs the mask of its columns.
    for rows, block, gap in ((slice(depth1), codes1, LEFT), (slice(depth1, None), codes2, UP)):
        if gap in moves:
            codes[rows, steps != ord(gap)] = block
        else:
            codes[rows] = block
    return Msa._from_codes(ids1 + ids2, descriptions1 + descriptions2, codes)


def align_sequence_to_profile(
    group: Msa,
    newcomer: Sequence,
    s: ScoringScheme = ScoringScheme(),
    tie: TieBreak = TieBreak(),
) -> Msa:
    """Merge a gapless sequence into an aligned group.

    The group's consensus is globally aligned against the newcomer; each
    gap inserted into the consensus becomes a gap column across the whole
    group, and the aligned newcomer is appended as the last row.
    """
    if not newcomer.is_gapless:
        raise ValueError(f"newcomer {newcomer.id!r} must be gapless")
    return _merge(group, newcomer, s, tie)


def align_profile_to_profile(
    g1: Msa,
    g2: Msa,
    s: ScoringScheme = ScoringScheme(),
    tie: TieBreak = TieBreak(),
) -> Msa:
    """Merge two aligned groups via their consensus sequences.

    Gaps inserted into either consensus become gap columns in that group;
    the second group's rows follow the first's.
    """
    return _merge(g1, g2, s, tie)
