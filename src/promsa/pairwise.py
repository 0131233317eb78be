"""Needleman-Wunsch global alignment under a linear match/mismatch/gap scheme.

All functions are pure; matrices are per-call values, so any number of
alignments may run concurrently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .sequences import GAP, Msa, Sequence

# Traceback move codes, in alignment order: D consumes a residue from both
# inputs, U consumes from the first only, L from the second only.
DIAG, UP, LEFT = "D", "U", "L"
# The move that puts a gap into each input's row.
_GAP_MOVE = {DIAG + UP: LEFT, DIAG + LEFT: UP}

# Largest score grid a call may fill. The budget stays in cells whatever a
# cell's width: 2 GiB on an int64 grid, 1 GiB on an int32 one. With every
# score within 2**31 (checked by ScoringScheme), each cell stays below 2**60.
MAX_DP_CELLS = 2**28
_MAX_SCORE = 2**31

# Rows at least this many cells wide are filled with numpy, narrower rows by
# a Python loop: numpy's fixed cost per row outweighs the cells it saves
# below a crossover of 24-32 cells (align_strings on square DNA pairs,
# 2-core x86, Python 3.11, numpy 2.4).
_VECTOR_MIN_WIDTH = 32


@dataclass(frozen=True)
class ScoringScheme:
    """Integer match/mismatch/gap scores. Defaults: 3 / 0 / -1."""

    match_score: int = 3
    mismatch_score: int = 0
    gap_penalty: int = -1

    def __post_init__(self):
        for name in ("match_score", "mismatch_score", "gap_penalty"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if abs(value) > _MAX_SCORE:
                raise ValueError(f"{name} must be within +-2**31, got {value}")
        if self.match_score < self.mismatch_score:
            warnings.warn(
                "match_score is below mismatch_score; alignments will favor mismatches",
                stacklevel=3,  # the caller of the generated __init__
            )
        if 2 * self.gap_penalty > self.mismatch_score:
            warnings.warn(
                f"gap_penalty {self.gap_penalty}: two gaps outscore a mismatch, so a pair "
                "can align with no gap-free columns and fail the distance stage",
                stacklevel=3,
            )


@dataclass(frozen=True)
class DpMatrix:
    """The (m+1) x (n+1) global-alignment score grid."""

    cells: tuple[tuple[int, ...], ...]

    @property
    def corner(self) -> int:
        return self.cells[-1][-1]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.cells), len(self.cells[0]))


@dataclass(frozen=True)
class PairwiseAlignment:
    """Two equal-length gapped rows plus their alignment score."""

    row_a: Sequence
    row_b: Sequence
    score: int

    def __post_init__(self):
        if len(self.row_a) != len(self.row_b):
            raise ValueError("alignment rows differ in length")

    @property
    def width(self) -> int:
        return len(self.row_a)

    def to_msa(self) -> Msa:
        return Msa((self.row_a, self.row_b))


def _fill(a: str, b: str, s: ScoringScheme) -> list[int] | memoryview:
    """The score grid on the shifted scale F[i][j] = H[i][j] - g*(i+j).

    In F the borders are zero and each cell is the largest of
    F[i-1][j-1] + s_ij - 2g, F[i-1][j] and F[i][j-1], so a whole row is one
    elementwise step followed by a running maximum. Returns the
    (len(a)+1) x (len(b)+1) grid flattened row by row; indexing it gives
    plain ints.

    A numpy grid is int32 when every value written fits, else int64. Each
    F lies in [0, min(m, n) * the best diagonal step, or 0], and each
    diagonal sum F + step is at least the smaller diagonal step.
    """
    m, n = len(a), len(b)
    if (m + 1) * (n + 1) > MAX_DP_CELLS:
        raise ValueError(
            f"aligning lengths {m} and {n} needs {(m + 1) * (n + 1)} DP cells, "
            f"over the budget of {MAX_DP_CELLS}"
        )
    gap = s.gap_penalty
    diag_match, diag_mismatch = s.match_score - 2 * gap, s.mismatch_score - 2 * gap
    if n + 1 >= _VECTOR_MIN_WIDTH:
        int32 = np.iinfo(np.int32)
        top = min(m, n) * max(0, diag_match, diag_mismatch)
        bottom = min(diag_match, diag_mismatch)
        dtype = np.int32 if int32.min <= bottom and top <= int32.max else np.int64
        # Code points, so any str works, lone surrogates included.
        codes = np.frombuffer(b.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
        steps = {
            x: np.where(codes == ord(x), diag_match, diag_mismatch).astype(dtype) for x in set(a)
        }
        grid = np.zeros((m + 1, n + 1), dtype=dtype)
        rows = zip(a, grid[:-1, :-1], grid[:-1, 1:], grid[1:, 1:], grid[1:])
        for x, diag, up, out, cur in rows:
            np.add(diag, steps[x], out=out)
            np.maximum(out, up, out=out)
            np.maximum.accumulate(cur, out=cur)
        return memoryview(grid.reshape(-1))
    steps = {x: [diag_match if x == y else diag_mismatch for y in b] for x in set(a)}
    prev = [0] * (n + 1)
    flat = list(prev)
    for x in a:
        cur = [0]
        left = 0
        for best, up, step in zip(prev, prev[1:], steps[x]):
            best += step
            if up > best:
                best = up
            if left > best:
                best = left
            cur.append(best)
            left = best
        flat += cur
        prev = cur
    return flat


def build_dp_matrix(a: Sequence | str, b: Sequence | str, s: ScoringScheme) -> DpMatrix:
    """Fill the global-alignment score grid for two gapless sequences.

    Cell (i, j) holds the optimal score for aligning the first i residues
    of ``a`` with the first j residues of ``b``; the corner cell is the
    optimal global alignment score.
    """
    sa = _residues(a, "a")
    sb = _residues(b, "b")
    flat = _fill(sa, sb, s)
    width = len(sb) + 1
    gap = s.gap_penalty
    return DpMatrix(
        tuple(
            tuple(v + gap * (i + j) for j, v in enumerate(flat[i * width : (i + 1) * width]))
            for i in range(len(sa) + 1)
        )
    )


def align_strings(a: str, b: str, s: ScoringScheme) -> tuple[int, str]:
    """Optimal global alignment of two symbol strings, as a move string.

    Symbols are compared for equality only, so gapped consensus strings may
    be aligned with the gap glyph acting as an ordinary fifth letter.
    Returns (score, moves) with moves over ``D``/``U``/``L`` in alignment
    order. Ties are broken at the earliest alignment column, preferring
    D, then U, then L, which makes the result deterministic.
    """
    gap = s.gap_penalty
    diag_match, diag_mismatch = s.match_score - 2 * gap, s.mismatch_score - 2 * gap
    ra, rb = a[::-1], b[::-1]
    flat = _fill(ra, rb, s)
    i, j = len(a), len(b)
    width = j + 1
    k = len(flat) - 1  # flat index of cell (i, j)
    score = flat[k] + gap * (i + j)
    # Walking the reversed grid from its corner decides the first column of
    # the forward alignment first, so moves come out already in order.
    moves: list[str] = []
    while i > 0 or j > 0:
        cell = flat[k]
        if i > 0 and j > 0 and cell == flat[k - width - 1] + (
            diag_match if ra[i - 1] == rb[j - 1] else diag_mismatch
        ):
            moves.append(DIAG)
            i -= 1
            j -= 1
            k -= width + 1
        elif i > 0 and cell == flat[k - width]:
            moves.append(UP)
            i -= 1
            k -= width
        else:
            moves.append(LEFT)
            j -= 1
            k -= 1
    return score, "".join(moves)


def expand_by_moves(residues: str, moves: str, consume: str) -> str:
    """Project a string onto alignment columns, inserting gaps elsewhere.

    ``consume`` names the moves that take the next residue: ``DIAG + UP``
    for the first input's row, ``DIAG + LEFT`` for the second's. The third
    move contributes a gap symbol. The residues are cut at the gap moves,
    so the Python steps grow with the gaps, not the width.
    """
    pieces: list[str] = []
    pos = 0
    for run in moves.split(_GAP_MOVE[consume]):
        end = pos + len(run)
        pieces.append(residues[pos:end])
        pos = end
    if pos != len(residues):
        raise ValueError("move string does not consume the whole sequence")
    return GAP.join(pieces)


def site_counts(a: str, b: str, s: ScoringScheme) -> tuple[int, int]:
    """(matches, comparable columns) of the optimal alignment of two gapless
    strings, the columns where neither row has a gap.

    Counted from the move string: every diagonal move is comparable, and a
    column matches when its two symbols are equal, which no gap column can
    be since neither input holds a gap.
    """
    _, moves = align_strings(a, b, s)
    row_a = expand_by_moves(a, moves, DIAG + UP)
    row_b = expand_by_moves(b, moves, DIAG + LEFT)
    return sum(map(str.__eq__, row_a, row_b)), moves.count(DIAG)


def align_global(
    a: Sequence | str, b: Sequence | str, s: ScoringScheme | None = None
) -> PairwiseAlignment:
    """Globally align two gapless sequences.

    Either input may be an empty string (but not both). The score equals
    the corner cell of ``build_dp_matrix`` and is reproduced by rescoring
    the output columns.
    """
    s = s if s is not None else ScoringScheme()
    id_a, sa, desc_a = _parts(a, "a")
    id_b, sb, desc_b = _parts(b, "b")
    if not sa and not sb:
        raise ValueError("cannot align two empty sequences")
    score, moves = align_strings(sa, sb, s)
    row_a = Sequence(id_a, expand_by_moves(sa, moves, DIAG + UP), desc_a)
    row_b = Sequence(id_b, expand_by_moves(sb, moves, DIAG + LEFT), desc_b)
    return PairwiseAlignment(row_a, row_b, score)


def _parts(seq: Sequence | str, fallback_id: str) -> tuple[str, str, str]:
    if isinstance(seq, Sequence):
        if not seq.is_gapless:
            raise ValueError(f"sequence {seq.id!r} contains gaps")
        return seq.id, seq.residues, seq.description
    if GAP in seq or "-" in seq:
        raise ValueError("input string contains gaps")
    return fallback_id, seq, ""


def _residues(seq: Sequence | str, fallback_id: str) -> str:
    return _parts(seq, fallback_id)[1]
