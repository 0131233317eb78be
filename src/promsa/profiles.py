"""Column frequency profiles, consensus extraction, and merge operations.

A profile records, for every alignment column, how often each of A, C, G,
T and the gap symbol occurs. Consensus extraction picks the most frequent
symbol per column; ties are settled by a pluggable policy. Merging a
sequence or a second alignment into a group goes through the group's
consensus: the consensus is globally aligned (gap glyphs acting as an
ordinary fifth letter), and every gap the aligner inserts into a consensus
becomes a full gap column in the corresponding group.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable

import numpy as np

from .pairwise import DIAG, LEFT, UP, ScoringScheme, align_strings, expand_by_moves
from .sequences import SYMBOLS, Msa, Sequence

SYMBOL_ORDER = SYMBOLS

# ASCII codes of SYMBOL_ORDER, and the position in SYMBOL_ORDER of each code.
_SYMBOL_CODES = np.frombuffer(SYMBOL_ORDER.encode("ascii"), dtype=np.uint8)
_SYMBOL_INDEX = np.zeros(256, dtype=np.intp)
_SYMBOL_INDEX[_SYMBOL_CODES] = np.arange(len(SYMBOL_ORDER))

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
        ordered = sorted(set(candidates), key=SYMBOL_ORDER.index)
        if not ordered:
            raise ValueError("no candidates to choose from")
        if len(ordered) == 1 or self.mode == self.LEX:
            return ordered[0]
        return self._rng.choice(ordered)


@dataclass(frozen=True, eq=False)
class ProfileMatrix:
    """Per-column symbol counts over an alignment's rows.

    ``counts`` is a read-only width x 5 int64 array whose columns follow
    SYMBOL_ORDER (A, C, G, T, gap). Frequencies are exposed as count/depth,
    so every value is a multiple of 1/depth and each column's frequencies
    sum to one. Profiles compare by identity; compare ``counts`` with
    ``np.array_equal``.
    """

    counts: np.ndarray
    depth: int

    def __post_init__(self):
        counts = np.array(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[1] != len(SYMBOL_ORDER):
            raise ValueError(f"counts must be a width x {len(SYMBOL_ORDER)} table")
        if (counts < 0).any():
            raise ValueError("counts must be nonnegative")
        bad = np.flatnonzero(counts.sum(axis=1) != self.depth)
        if bad.size:
            raise ValueError(f"column {bad[0]} counts do not total the depth")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    def column_frequencies(self, column: int) -> dict[str, float]:
        return {
            symbol: count / self.depth
            for symbol, count in zip(SYMBOL_ORDER, self.counts[column].tolist())
            if count
        }


def build_profile(msa: Msa) -> ProfileMatrix:
    """Count symbol occurrences per column; requires at least two rows."""
    if msa.depth < 2:
        raise ValueError("a profile needs at least two sequences")
    # Symbol k in column j counts into bin 5*j + k.
    keys = _SYMBOL_INDEX[msa.codes]
    keys += np.arange(0, len(SYMBOL_ORDER) * msa.width, len(SYMBOL_ORDER))
    counts = np.bincount(keys.ravel(), minlength=len(SYMBOL_ORDER) * msa.width)
    return ProfileMatrix(counts.reshape(msa.width, len(SYMBOL_ORDER)), msa.depth)


def consensus(profile: ProfileMatrix, tie: TieBreak = TieBreak()) -> Sequence:
    """Extract the per-column majority sequence from a profile.

    At each position the unique most frequent symbol wins; on a tie the
    tie-break policy draws from the leaders. Only tied columns are visited,
    in column order, so a random policy draws in the same columns and order
    as a walk over every column.
    """
    counts = profile.counts
    # argmax takes the first leader in SYMBOL_ORDER, which is the lex rule.
    out = _SYMBOL_CODES[counts.argmax(axis=1)]
    if tie.mode == TieBreak.RANDOM:
        leads = counts == counts.max(axis=1, keepdims=True)
        tied = np.flatnonzero(leads.sum(axis=1) > 1)
        for index, lead in zip(tied.tolist(), leads[tied].tolist()):
            out[index] = ord(tie.choose(compress(SYMBOL_ORDER, lead)))
    return Sequence(CONSENSUS_ID, out.tobytes().decode("ascii"))


def _merge(
    rows1: tuple[Sequence, ...], c1: str, rows2: tuple[Sequence, ...], c2: str,
    s: ScoringScheme,
) -> Msa:
    """Align ``c1`` and ``c2``, which stand for ``rows1`` and ``rows2`` (a
    consensus, or a lone row itself), and put both row sets on the joint
    columns: each gap put into ``c1`` or ``c2`` is a gap column in its rows.
    A row set whose string gains no gap is already on the joint columns and
    is kept as it is."""
    _, moves = align_strings(c1, c2, s)
    merged: list[Sequence] = []
    for rows, consume, gap in ((rows1, DIAG + UP, LEFT), (rows2, DIAG + LEFT, UP)):
        if gap in moves:
            rows = tuple(
                Sequence(row.id, expand_by_moves(row.residues, moves, consume), row.description)
                for row in rows
            )
        merged += rows
    return Msa(tuple(merged))


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
    cons = consensus(build_profile(group), tie=tie)
    return _merge(group.rows, cons.residues, (newcomer,), newcomer.residues, s)


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
    c1 = consensus(build_profile(g1), tie=tie)
    c2 = consensus(build_profile(g2), tie=tie)
    return _merge(g1.rows, c1.residues, g2.rows, c2.residues, s)
