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

# batch_site_counts fills a chunk of pairs as one lane-major grid of at most
# _LANE_CELLS cells when the chunk holds at least _LANE_MIN pairs, so only
# pairs of up to (m+1)(n+1) = 1024 cells are ever batched. 2**16 cells gave
# the fastest many_taxa jobs (UPGMA medians 0.040-0.041 s at 2**14,
# 0.033-0.037 s at 2**16, 0.035-0.038 s at 2**18) for 1.6 MB more peak RSS
# than the per-pair stage (4.3 MB at 2**18). From 64 lanes up the batch was
# 4.5-8.7x as fast as per-pair site_counts at lengths 4-30 (it already won
# from 8-16 lanes); the minimum stays at 64 so that small inputs, up to 11
# sequences, keep one align_strings call per distinct pair, which the
# benchmark's tracer counts. All on a 2-core x86, Python 3.11, numpy 2.4.
_LANE_CELLS = 2**16
_LANE_MIN = 64


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


def check_dp_cells(m: int, n: int) -> None:
    """Raise ValueError when aligning lengths m and n needs a grid over
    ``MAX_DP_CELLS``."""
    if (m + 1) * (n + 1) > MAX_DP_CELLS:
        raise ValueError(
            f"aligning lengths {m} and {n} needs {(m + 1) * (n + 1)} DP cells, "
            f"over the budget of {MAX_DP_CELLS}"
        )


def _diag_steps(s: ScoringScheme) -> tuple[int, int]:
    """(match, mismatch) diagonal steps on the shifted scale: s_ij - 2g."""
    gap = s.gap_penalty
    return s.match_score - 2 * gap, s.mismatch_score - 2 * gap


def _grid_dtype(m: int, n: int, diag_match: int, diag_mismatch: int) -> type:
    """int32 when every value an (m+1) x (n+1) shifted grid writes fits,
    else int64.

    Each F lies in [0, min(m, n) * the best diagonal step, or 0], and each
    diagonal sum F + step is at least the smaller diagonal step.
    """
    int32 = np.iinfo(np.int32)
    top = min(m, n) * max(0, diag_match, diag_mismatch)
    bottom = min(diag_match, diag_mismatch)
    return np.int32 if int32.min <= bottom and top <= int32.max else np.int64


def _fill_rows(grid: np.ndarray, steps) -> None:
    """Fill a zero-bordered shifted grid in place, row by row.

    Axis 0 is i and axis 1 is j; any further axes are independent lanes.
    ``steps`` yields row i+1's diagonal steps, shaped like ``grid[0, 1:]``.
    """
    # Bound once: looking the ufuncs up on every row cost 5-10% of a
    # 200 x 200 fill. accumulate runs along its default axis 0, over j.
    add, maximum, running_max = np.add, np.maximum, np.maximum.accumulate
    rows = zip(steps, grid[:-1, :-1], grid[:-1, 1:], grid[1:, 1:], grid[1:])
    for step, diag, up, out, cur in rows:
        add(diag, step, out=out)
        maximum(out, up, out=out)
        running_max(cur, out=cur)


def _fill(a: str, b: str, s: ScoringScheme) -> list[int] | memoryview:
    """The score grid on the shifted scale F[i][j] = H[i][j] - g*(i+j).

    In F the borders are zero and each cell is the largest of
    F[i-1][j-1] + s_ij - 2g, F[i-1][j] and F[i][j-1], so a whole row is one
    elementwise step followed by a running maximum. Returns the
    (len(a)+1) x (len(b)+1) grid flattened row by row; indexing it gives
    plain ints.
    """
    m, n = len(a), len(b)
    check_dp_cells(m, n)
    diag_match, diag_mismatch = _diag_steps(s)
    if n + 1 >= _VECTOR_MIN_WIDTH:
        dtype = _grid_dtype(m, n, diag_match, diag_mismatch)
        codes = _codes(b)
        steps = {
            x: np.where(codes == ord(x), diag_match, diag_mismatch).astype(dtype) for x in set(a)
        }
        grid = np.zeros((m + 1, n + 1), dtype=dtype)
        _fill_rows(grid, map(steps.__getitem__, a))
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


def _codes(text: str) -> np.ndarray:
    """Code points, so any str works, lone surrogates included."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)


def build_dp_matrix(a: Sequence | str, b: Sequence | str, s: ScoringScheme) -> DpMatrix:
    """Fill the global-alignment score grid for two gapless sequences.

    Cell (i, j) holds the optimal score for aligning the first i residues
    of ``a`` with the first j residues of ``b``; the corner cell is the
    optimal global alignment score.
    """
    sa = _parts(a, "a")[1]
    sb = _parts(b, "b")[1]
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
    diag_match, diag_mismatch = _diag_steps(s)
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


def batch_site_counts(
    pairs: list[tuple[str, str]], s: ScoringScheme
) -> tuple[np.ndarray, np.ndarray]:
    """(matches, comparable) arrays, entry k equal to ``site_counts(*pairs[k], s)``.

    The pairs are sorted by lengths and cut into chunks of at most
    ``_LANE_CELLS`` grid cells. A chunk of at least ``_LANE_MIN`` pairs is
    filled as one lane-major grid; a smaller one goes pair by pair through
    ``site_counts``.
    """
    matches = np.zeros(len(pairs), dtype=np.int64)
    comparable = np.zeros(len(pairs), dtype=np.int64)
    for chunk in _chunks([len(a) for a, _ in pairs], [len(b) for _, b in pairs]):
        if len(chunk) < _LANE_MIN:
            for k in chunk:
                matches[k], comparable[k] = site_counts(*pairs[k], s)
        else:
            matches[chunk], comparable[chunk] = _lane_counts([pairs[k] for k in chunk], s)
    return matches, comparable


def _chunks(len_a: list[int], len_b: list[int]) -> list[list[int]]:
    """Pair indices sorted by lengths, cut greedily so that each chunk's
    lanes times its padded (m+1) x (n+1) grid stays within ``_LANE_CELLS``;
    a pair over the cap alone is a chunk of one."""
    chunks: list[list[int]] = []
    chunk: list[int] = []
    m = n = 0
    for a, b, k in sorted(zip(len_a, len_b, range(len(len_a)))):
        wide_m, wide_n = max(m, a), max(n, b)
        if chunk and (len(chunk) + 1) * (wide_m + 1) * (wide_n + 1) > _LANE_CELLS:
            chunks.append(chunk)
            chunk, wide_m, wide_n = [], a, b
        chunk.append(k)
        m, n = wide_m, wide_n
    if chunk:
        chunks.append(chunk)
    return chunks


# Bits of a lane cell's flags: the moves align_strings' D > U > L rule may
# take there, and whether the diagonal pairs equal symbols. The origin,
# where a lane's walk ends, has only _DONE.
_UP_OK, _DIAG_OK, _SAME, _DONE = 1, 2, 4, 8


def _lane_counts(pairs: list[tuple[str, str]], s: ScoringScheme) -> tuple[np.ndarray, np.ndarray]:
    """``site_counts`` of every pair from one (m+1) x (n+1) x pairs grid.

    Each pair is a lane: its reversed strings are padded to the longest,
    and the recurrence never reads past a lane's own lengths, so padding
    does not reach its cells. Which moves each cell allows is found for all
    lanes at once; the traceback then walks every lane in lock-step from its
    own corner, taking D, else U, else L, as ``align_strings`` does.
    """
    lanes = len(pairs)
    len_a = np.array([len(a) for a, _ in pairs])
    len_b = np.array([len(b) for _, b in pairs])
    m, n = int(len_a.max()), int(len_b.max())
    diag_match, diag_mismatch = _diag_steps(s)
    dtype = _grid_dtype(m, n, diag_match, diag_mismatch)
    same = _lane_codes([a for a, _ in pairs], m)[:, None] == _lane_codes([b for _, b in pairs], n)
    # Row i's steps, where(B == A[i], match, mismatch), as products that
    # cannot overflow the grid's dtype; np.where took 3x as long here.
    steps = same * dtype(diag_match) + ~same * dtype(diag_mismatch)
    grid = np.zeros((m + 1, n + 1, lanes), dtype=dtype)
    _fill_rows(grid, steps)

    flags = np.zeros((m + 1, n + 1, lanes), dtype=np.int8)
    np.equal(grid[1:], grid[:-1], out=flags[1:])  # True is _UP_OK
    steps += grid[:-1, :-1]  # each cell's diagonal candidate
    flags[1:, 1:] += (grid[1:, 1:] == steps) * np.int8(_DIAG_OK) + same * np.int8(_SAME)
    flags[0, 0] = _DONE
    up_back, left_back = (n + 1) * lanes, lanes  # flat offsets of one step up, left
    back = np.zeros(_DONE + 1, dtype=np.int64)  # what a step from each flag value subtracts
    for f in range(_DONE):
        back[f] = up_back + left_back if f & _DIAG_OK else up_back if f & _UP_OK else left_back
    # Each step moves every unfinished lane closer to (0, 0), so m + n steps
    # finish them all.
    path = np.empty((int((len_a + len_b).max()), lanes), dtype=np.int8)
    k = len_a * up_back + len_b * left_back + np.arange(lanes)
    flags = flags.reshape(-1)
    for step in path:
        np.take(flags, k, out=step)
        k -= back.take(step)
    match = _DIAG_OK | _SAME
    return ((path & match) == match).sum(axis=0), ((path & _DIAG_OK) != 0).sum(axis=0)


def _lane_codes(strings: list[str], width: int) -> np.ndarray:
    """width x lanes code points of the reversed strings, padded with NUL;
    each distinct string is encoded once."""
    rows: dict[str, int] = {}
    lanes = [rows.setdefault(x, len(rows)) for x in strings]
    text = "".join(x[::-1].ljust(width, "\0") for x in rows)
    return np.ascontiguousarray(_codes(text).reshape(len(rows), width)[lanes].T)


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
