"""Needleman-Wunsch global alignment under a linear match/mismatch/gap scheme.

Every function returns a value that depends on its arguments alone, and
matrices are per-call values. ``align_strings`` keeps a bounded memo of
recent (a, b, scheme) keys and their results, so a pair aligned twice,
such as a distance-stage pair that a leaf-leaf merge joins again, is
filled once. The memo is a ``functools.lru_cache``, whose bookkeeping is
thread-safe, so any number of alignments may still run concurrently; two
threads may fill the same new key at once, and both get the same result.
Each pipeline run empties the memo as it starts, so a run in another
thread may empty it mid-run, which costs that run its reuse, not its
result.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sequences import GAP, Sequence

# Traceback move codes, in alignment order: D consumes a residue from both
# inputs, U consumes from the first only, L from the second only.
DIAG, UP, LEFT = "D", "U", "L"
# The move that puts a gap into each input's row.
_GAP_MOVE = {DIAG + UP: LEFT, DIAG + LEFT: UP}

# Largest score grid a call may fill. The budget stays in cells whatever a
# cell's width (_grid_dtype): 512 MiB on an int16 grid, 1 GiB on an int32 one
# and 2 GiB on an int64 one. Under the default scores a grid is int16 while
# min(m, n) <= 6,553. With every score within 2**31 (checked by
# ScoringScheme), each cell stays below 2**60.
MAX_DP_CELLS = 2**28
_MAX_SCORE = 2**31

# align_strings memoizes the results of its last _MEMO_KEYS keys of at most
# _MEMO_SYMBOLS symbols. 64 keys hold every pair of a job below _LANE_MIN
# through its merges: 11 sequences give 55 pairs and 10 merges, so at most 63
# other keys come between a pair and the leaf-leaf join that aligns it again.
# An entry holds a, b and a move string of at most len(a) + len(b) symbols,
# 16 KiB of DNA at most (40 KiB with 4-byte code points), so the memo holds
# at most 1 MiB of DNA (2.5 MiB). Without the length bound, one key under
# MAX_DP_CELLS could hold over 2**29 symbols: 2**28 - 1 against an empty side.
_MEMO_KEYS = 64
_MEMO_SYMBOLS = 2**13

# Rows at least this many cells wide are filled with numpy, narrower rows by
# a Python loop: numpy's cost per row outweighs the cells below 24-32 cells
# (square DNA pairs), and numpy-only rows made many_taxa jobs 11-14% slower
# (2-core x86, Python 3.11, numpy 2.4).
_VECTOR_MIN_WIDTH = 32

# A job of at least _LANE_MIN distinct pairs fills its pairs of at most
# _LANE_KEY_CELLS cells as lanes of anti-diagonals (_lane_counts), in chunks
# whose lanes times the longer padded side stay within _LANE_CELLS; the kernel
# holds 28 bytes per unit, 0.93 MB at most (48 and 1.59 MB on int64 keys), and
# a whole family (16 x 200 nt) or many_taxa (100 x 12 nt) job is one chunk.
# Of those bytes, 8 are the chunk's code blocks, gathered from one code array
# of the distinct strings; the gathers' index blocks, 8 bytes a unit, are
# freed before the fill. So no buffer grows with distinct strings x longest.
# Caps of 2**14, 2**15 and 2**16 gave the family distance stage 22.3, 19.1
# and 18.7 ms, and 20 random sequences of 40-300 nt 36.9, 34.0 and 41.6 ms
# (int64 keys). Bounding the longer side, not m + 1 alone, keeps a few lanes
# with a much longer b from stretching a chunk of short lanes to their m + n
# diagonals. The minimum of 64 keeps inputs of up to 11 sequences at one
# align_strings call per distinct pair, which the benchmark's tracer counts;
# short pairs already won from 8-16 lanes. All on a 2-core x86, Python 3.11,
# numpy 2.4, medians of five alternating runs.
_LANE_CELLS = 2**15
_LANE_MIN = 64
_LANE_KEY_CELLS = 2**17

# A lane cell's key is F << _SCORE_SHIFT | pref << _PREF_SHIFT |
# comparable << _COUNT_BITS | matches. A count is at most a lane's shorter
# side, which _LANE_KEY_CELLS keeps at 361 < 2**9. Keys are int32 when every
# value _grid_dtype bounds fits in the 12 signed bits above bit 20, as under
# the default scores (361 * 5 + 5 < 2**11), else int64: ScoringScheme's 2**31
# bound keeps each diagonal step within 3 * 2**31 < 2**33, so 0 <= F < 2**42
# and |F + step| < 2**43, within the 44 signed bits above bit 20.
_COUNT_BITS = 9
_PREF_SHIFT = 2 * _COUNT_BITS
_SCORE_SHIFT = _PREF_SHIFT + 2


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


@dataclass(frozen=True)
class PairwiseAlignment:
    """Two equal-length gapped rows plus their alignment score."""

    row_a: Sequence
    row_b: Sequence
    score: int

    def __post_init__(self):
        if len(self.row_a) != len(self.row_b):
            raise ValueError("alignment rows differ in length")


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


def _grid_dtype(m: int, n: int, diag_match: int, diag_mismatch: int, shift: int = 0) -> type:
    """The narrowest of int16, int32 and int64 that holds every value an
    (m+1) x (n+1) shifted grid fill forms, even shifted left by ``shift``.

    Each F lies in [0, min(m, n) * the best diagonal step, or 0], each
    diagonal sum F + step is at least the smaller diagonal step, and a lane
    key also adds match step - mismatch step, which ``_fill`` never forms.
    Under the default scores a grid is int16 while min(m, n) <= 6,553.
    Lane keys (``shift`` > 0) are at least int32, since their count and
    preference bits fill the low ``_SCORE_SHIFT`` bits whatever the scores.
    """
    top = min(m, n) * max(0, diag_match, diag_mismatch)
    values = (top, min(diag_match, diag_mismatch), diag_match - diag_mismatch)
    low, high = min(values) << shift, max(values) << shift
    for dtype in (np.int32,) if shift else (np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= low and high <= info.max:
            return dtype
    return np.int64


def _fill(a: str, b: str, s: ScoringScheme) -> list[int] | memoryview:
    """The score grid on the shifted scale F[i][j] = H[i][j] - g*(i+j).

    In F the borders are zero and each cell is the largest of
    F[i-1][j-1] + s_ij - 2g, F[i-1][j] and F[i][j-1], so a whole row is one
    elementwise step followed by a running maximum. Returns the
    (len(a)+1) x (len(b)+1) grid flattened row by row; indexing it gives
    plain ints. The caller checks the cell budget.
    """
    m, n = len(a), len(b)
    diag_match, diag_mismatch = _diag_steps(s)
    if n + 1 >= _VECTOR_MIN_WIDTH:
        dtype = _grid_dtype(m, n, diag_match, diag_mismatch)
        codes = _codes(b)
        # Scalars of the grid's dtype make np.where's row that dtype itself,
        # with no wider temporary and no cast.
        match, mismatch = dtype(diag_match), dtype(diag_mismatch)
        steps = {x: np.where(codes == ord(x), match, mismatch) for x in set(a)}
        grid = np.zeros((m + 1, n + 1), dtype=dtype)
        # Bound once: a lookup per row cost 5-10% of a 200 x 200 fill.
        add, maximum, running_max = np.add, np.maximum, np.maximum.accumulate
        # Each row's out is the next row's up, so zip makes two views a row.
        up = grid[0, 1:]
        for x, diag, out in zip(a, grid[:-1, :-1], grid[1:, 1:]):
            add(diag, steps[x], out=out)
            maximum(out, up, out=out)
            running_max(out, out=out)
            up = out
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
    check_dp_cells(len(sa), len(sb))
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
    D, then U, then L, which makes the result deterministic. The cell budget
    is checked on every call; a key seen among the recent calls then returns
    its memoized result.
    """
    check_dp_cells(len(a), len(b))
    if len(a) + len(b) > _MEMO_SYMBOLS:
        return _align(a, b, s)
    return _memo_align(a, b, s)


def _align(a: str, b: str, s: ScoringScheme) -> tuple[int, str]:
    """``align_strings`` without the memo."""
    gap = s.gap_penalty
    diag_match, diag_mismatch = _diag_steps(s)
    flat = _fill(a[::-1], b[::-1], s)
    m, n = len(a), len(b)
    width = n + 1
    k = len(flat) - 1  # flat index of cell (m, n)
    score = flat[k] + gap * (m + n)
    # Walking the reversed grid from its corner gives moves in alignment order,
    # with a[p] and b[q] the next residues of each input. On its zero first row
    # or column, D > U > L runs straight to the origin. The walk carries the
    # current cell's value and reads the cell above only when D fails, so a D
    # step reads one cell, a U step two and an L step three.
    moves: list[str] = []
    cell = flat[k]
    p = q = 0
    diag_offset = width + 1  # flat offset from a cell to its diagonal neighbour
    while p < m and q < n:
        diag = flat[k - diag_offset]
        if cell == diag + (diag_match if a[p] == b[q] else diag_mismatch):
            moves.append(DIAG)
            p += 1
            q += 1
            k -= diag_offset
            cell = diag
            continue
        up = flat[k - width]
        if cell == up:
            moves.append(UP)
            p += 1
            k -= width
            cell = up
        else:
            moves.append(LEFT)
            q += 1
            k -= 1
            cell = flat[k]
    return score, "".join(moves) + UP * (m - p) + LEFT * (n - q)


_memo_align = lru_cache(maxsize=_MEMO_KEYS)(_align)


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
    be since neither input holds a gap. One numpy comparison of the two
    rows' code points counts the matches.
    """
    _, moves = align_strings(a, b, s)
    row_a = expand_by_moves(a, moves, DIAG + UP)
    row_b = expand_by_moves(b, moves, DIAG + LEFT)
    return int(np.count_nonzero(_codes(row_a) == _codes(row_b))), moves.count(DIAG)


def batch_site_counts(
    strings: list[str], key_a: np.ndarray, key_b: np.ndarray, s: ScoringScheme
) -> tuple[np.ndarray, np.ndarray]:
    """(matches, comparable) arrays, entry k equal to
    ``site_counts(strings[key_a[k]], strings[key_b[k]], s)``.

    Each key names its pair by two indices into ``strings``, so a string
    shared by many keys is held, measured and coded once. From
    ``_LANE_MIN`` keys up, every pair of at most ``_LANE_KEY_CELLS`` grid
    cells is a lane: ``_chunks`` cuts these into chunks, each filled by
    anti-diagonals across its lanes by ``_lane_counts``, which gathers its
    lanes' code points from one concatenation of ``strings``. The other
    pairs go one by one through ``site_counts``.
    """
    lengths = np.array([len(x) for x in strings], dtype=np.int64)
    len_a, len_b = lengths[key_a], lengths[key_b]
    lane = (len(key_a) >= _LANE_MIN) & ((len_a + 1) * (len_b + 1) <= _LANE_KEY_CELLS)
    counts = np.zeros((2, len(key_a)), dtype=np.int64)  # matches, then comparable
    for k in np.flatnonzero(~lane).tolist():
        counts[:, k] = site_counts(strings[key_a[k]], strings[key_b[k]], s)
    keys = np.flatnonzero(lane)
    codes = _codes("".join(strings))
    bounds = np.concatenate(([0], np.cumsum(lengths)))  # string k is codes[bounds[k] : bounds[k+1]]
    for chunk in _chunks(len_a[keys], len_b[keys]):
        chunk = keys[chunk]
        counts[:, chunk] = _lane_counts(codes, bounds, key_a[chunk], key_b[chunk], s)
    return counts[0], counts[1]


def _chunks(len_a: np.ndarray | list[int], len_b: np.ndarray | list[int]) -> list[np.ndarray]:
    """Pair indices sorted by lengths, cut so that each chunk's lanes times the
    longer side of its padded grid, max(m, n) + 1, stays within ``_LANE_CELLS``
    (a pair over it is a chunk alone). Where the next ``fit`` pairs would fit,
    the r pairs left are shared evenly among ceil(r / fit) chunks, so a run of
    equal lengths is cut into even chunks and none is left short. Unpadded
    one-shape chunks made mixed-length jobs 4x slower. Every side is at least
    1, so no chunk holds more than ``_LANE_CELLS`` pairs, and each cut looks
    that far ahead only: the chunker is linear in the pairs."""
    order = np.lexsort((len_b, len_a))
    sides = np.maximum(len_a, len_b)[order] + 1
    chunks = []
    start = 0
    while start < len(order):
        left = len(order) - start
        side = np.maximum.accumulate(sides[start : start + _LANE_CELLS])
        fit = max(1, int(np.count_nonzero(side * np.arange(1, len(side) + 1) <= _LANE_CELLS)))
        size = -(-left // -(-left // fit))
        chunks.append(order[start : start + size])
        start += size
    return chunks


def _lane_counts(
    codes: np.ndarray, bounds: np.ndarray, key_a: np.ndarray, key_b: np.ndarray, s: ScoringScheme
) -> tuple[np.ndarray, np.ndarray]:
    """``site_counts`` of every key, filled by anti-diagonals d = i + j across lanes.

    String k is ``codes[bounds[k]:bounds[k + 1]]``, and key k pairs strings
    ``key_a[k]`` and ``key_b[k]``. Each key is a lane: its ``a`` reversed
    and its ``b`` right-aligned, gathered from ``codes`` by offset from
    each string's end, so one diagonal's cells compare two contiguous
    slices. A lane's rows past its own strings gather other code points
    (clipped to the array), which never reach its own cells: each cell
    depends only on cells above and to its left. Three rolling (m+1) x
    lanes diagonals, indexed by i, hold a packed key a cell (see
    ``_COUNT_BITS``): the largest of D, U and L with preference bits 2, 1
    and 0, cleared afterwards, so a tie on F goes D > U > L as in
    ``align_strings``' traceback, and the counts are those along its path.
    Borders are never written and stay zero. A lane's counts are read at
    row len(a) of diagonal len(a) + len(b).
    """
    lanes = len(key_a)
    end_a, end_b = bounds[key_a + 1], bounds[key_b + 1]
    len_a, len_b = end_a - bounds[key_a], end_b - bounds[key_b]
    m, n = int(len_a.max()), int(len_b.max())
    codes_a = codes.take(end_a - 1 - np.arange(m)[:, None], mode="clip")  # a[len(a) - 1 - i]
    codes_b = codes.take(end_b - n + np.arange(n)[:, None], mode="clip")  # b[j - (n - len(b))]
    diag_match, diag_mismatch = _diag_steps(s)
    count = 1 << _COUNT_BITS
    mismatch_key = (diag_mismatch << _SCORE_SHIFT) + (2 << _PREF_SHIFT) + count
    same_key = ((diag_match - diag_mismatch) << _SCORE_SHIFT) + 1
    up_key = 1 << _PREF_SHIFT
    clear = ~(3 << _PREF_SHIFT)
    dtype = _grid_dtype(m, n, diag_match, diag_mismatch, _SCORE_SHIFT)
    diags = np.zeros((3, m + 1, lanes), dtype=dtype)
    key, up = np.empty((2, m, lanes), dtype=dtype)
    end = (len_a + len_b) * (len_a * len_b > 0)  # a lane with an empty side counts nothing
    ends = {d: np.flatnonzero(end == d) for d in set(end.tolist())}  # lanes by corner
    corners = np.zeros(lanes, dtype=np.int64)
    before, last, cur = diags  # diagonals d - 2, d - 1 and d
    for d in range(2, int(end.max()) + 1):
        lo, hi = max(1, d - n), min(m, d - 1)  # interior cells (i, d - i)
        k, u = key[: hi - lo + 1], up[: hi - lo + 1]
        np.equal(codes_a[lo - 1 : hi], codes_b[n - d + lo : n - d + hi + 1], out=k)
        np.multiply(k, same_key, out=k)
        np.add(k, mismatch_key, out=k)
        np.add(k, before[lo - 1 : hi], out=k)  # D
        np.add(last[lo - 1 : hi], up_key, out=u)  # U
        np.maximum(k, u, out=k)
        np.maximum(k, last[lo : hi + 1], out=k)  # L
        np.bitwise_and(k, clear, out=cur[lo : hi + 1])
        done = ends.get(d)
        if done is not None:
            corners[done] = cur[len_a[done], done]
        before, last, cur = last, cur, before
    return corners & (count - 1), (corners >> _COUNT_BITS) & (count - 1)


def align_global(
    a: Sequence | str, b: Sequence | str, s: ScoringScheme = ScoringScheme()
) -> PairwiseAlignment:
    """Globally align two gapless sequences.

    Either input may be an empty string (but not both). The score equals
    the corner cell of ``build_dp_matrix`` and is reproduced by rescoring
    the output columns.
    """
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
