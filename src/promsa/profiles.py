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

import numpy as np

from .pairwise import DIAG, LEFT, UP, ScoringScheme, align_strings, expand_by_moves
from .sequences import GAP, Msa, Sequence

SYMBOL_ORDER = "ACGT" + GAP

# ASCII codes of SYMBOL_ORDER, and the position in SYMBOL_ORDER of each code.
_SYMBOL_CODES = np.frombuffer(SYMBOL_ORDER.encode("ascii"), dtype=np.uint8)
_SYMBOL_INDEX = np.zeros(256, dtype=np.intp)
_SYMBOL_INDEX[_SYMBOL_CODES] = np.arange(len(SYMBOL_ORDER))

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
        bad = np.flatnonzero(counts.sum(axis=1) != self.depth)
        if bad.size:
            raise ValueError(f"column {bad[0]} counts do not total the depth")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def width(self) -> int:
        return len(self.counts)

    def frequency(self, column: int, symbol: str) -> float:
        return int(self.counts[column, SYMBOL_ORDER.index(symbol)]) / self.depth

    def column_frequencies(self, column: int) -> dict[str, float]:
        return {
            symbol: count / self.depth
            for symbol, count in zip(SYMBOL_ORDER, self.counts[column].tolist())
            if count
        }

    def to_csv(self) -> str:
        """Debug table: one row per symbol (gap rendered '-'), one column
        per alignment position."""
        header = "symbol," + ",".join(str(i) for i in range(self.width))
        lines = [header]
        for symbol, counts in zip(SYMBOL_ORDER, self.counts.T.tolist()):
            label = "-" if symbol == GAP else symbol
            values = ",".join(f"{count / self.depth:.6f}" for count in counts)
            lines.append(f"{label},{values}")
        return "\n".join(lines) + "\n"


def build_profile(msa: Msa) -> ProfileMatrix:
    """Count symbol occurrences per column; requires at least two rows."""
    if msa.depth < 2:
        raise ValueError("a profile needs at least two sequences")
    # Symbol k in column j counts into bin 5*j + k.
    keys = _SYMBOL_INDEX[msa.codes]
    keys += np.arange(0, len(SYMBOL_ORDER) * msa.width, len(SYMBOL_ORDER))
    counts = np.bincount(keys.ravel(), minlength=len(SYMBOL_ORDER) * msa.width)
    return ProfileMatrix(counts.reshape(msa.width, len(SYMBOL_ORDER)), msa.depth)


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
    Only tied columns are visited, in column order, so a random policy
    draws in the same columns and order as a walk over every column.
    """
    tie = tie if tie is not None else TieBreak()
    companion = against.residues if isinstance(against, Sequence) else against
    if companion is not None and len(companion) != profile.width:
        raise ValueError(
            f"companion length {len(companion)} does not match profile width {profile.width}"
        )
    counts = profile.counts
    # argmax takes the first leader in SYMBOL_ORDER, which is the lex rule.
    out = _SYMBOL_CODES[counts.argmax(axis=1)]
    if companion is not None or tie.mode == TieBreak.RANDOM:
        leads = counts == counts.max(axis=1, keepdims=True)
        tied = np.flatnonzero(leads.sum(axis=1) > 1)
        for index, lead in zip(tied.tolist(), leads[tied].tolist()):
            leaders = [symbol for symbol, is_leader in zip(SYMBOL_ORDER, lead) if is_leader]
            if companion is not None and companion[index] in leaders:
                out[index] = ord(companion[index])
            else:
                out[index] = ord(tie.choose(leaders))
    return Sequence(CONSENSUS_ID, out.tobytes().decode("ascii"))


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
