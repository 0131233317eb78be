"""Shared test oracles: the character-loop FASTA reader, exhaustive
alignment enumeration, the scalar
Needleman-Wunsch fill and traceback, the per-move gap expansion, the
align-every-pair distance loop, the whole-grid and rolling-row lock-step
lane counts, the column-loop profile, consensus and pair tally, the
merge that rebuilds every row and the merge stage over rows built on it,
the all-gap column scan, row-pair
sum-of-pairs loops, the pair-by-pair guide-tree join scan, the masked
closest-pair selection, the guide-tree builders over a (2n-1)-square
working table, recursive guide-tree walks, a minimal Newick reader, and
random tree/matrix/merge-log generators, and the hand-written bench CSV
row. Everything here is independent
of the code paths under test, except that the rebuilding merge aligns
with the shared ``align_strings``, the merge stage over rows joins two
leaves with the shared ``align_global``, and the distance loop checks
cell budgets with the shared ``check_dp_cells``."""

from __future__ import annotations

import math
import random
import re
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from promsa import (
    GAP,
    DistanceMatrix,
    FastaError,
    Msa,
    ScoringScheme,
    Sequence,
    TieBreak,
    align_global,
    align_strings,
    column_stats,
    jukes_cantor,
)
from promsa.bench import BenchRecord
from promsa.guide_tree import BuildStats, GuideTree, Merge
from promsa.pairwise import DIAG, LEFT, UP, check_dp_cells, expand_by_moves
from promsa.sequences import _LINE, _LINE_END, ALPHABET, SYMBOLS

# The seven short test sequences used throughout (degapped).
SETUP1 = (
    "ACGTACT",
    "ACTACG",
    "ATGGATACTAACTCGG",
    "ATGGCTAGT",
    "ATGCTCCGGCAAAGG",
    "ATGCTGG",
    "ATCGACAGTGTC",
)


def setup1_sequences() -> list[Sequence]:
    return [Sequence(f"s{i + 1}", residues) for i, residues in enumerate(SETUP1)]


def char_loop_parse_fasta(text: str | bytes, allow_gaps: bool = False) -> list[Sequence]:
    """``parse_fasta`` checking each body character in a Python loop."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as err:
            line = len(re.findall(_LINE_END.encode(), text[: err.start])) + 1
            raise FastaError("input is not valid UTF-8", line, err.start) from None
    bom = "\ufeff" if text.startswith("\ufeff") else ""
    text = text[len(bom):]
    if not text.strip():
        raise FastaError("empty FASTA input")

    records: list[Sequence] = []
    seen: set[str] = set()
    header: tuple[str, str] | None = None
    body: list[str] = []
    header_line = 0

    def flush():
        if header is None:
            return
        seq_id, description = header
        if not body:
            raise FastaError(f"record {seq_id!r} has an empty body", header_line)
        records.append(Sequence(seq_id, "".join(body), description))

    offset = len(bom.encode())
    for lineno, raw_line in enumerate(_LINE.findall(text), start=1):
        line = raw_line.rstrip("\r\n")
        if line.startswith(">"):
            flush()
            fields = line[1:].strip().split(None, 1)
            if not fields:
                raise FastaError("header line has no identifier", lineno, offset)
            seq_id = fields[0]
            if seq_id in seen:
                raise FastaError(f"duplicate identifier {seq_id!r}", lineno, offset)
            seen.add(seq_id)
            header = (seq_id, fields[1] if len(fields) > 1 else "")
            header_line = lineno
            body = []
        else:
            if header is None and line.strip():
                raise FastaError("sequence data before first '>' header", lineno, offset)
            for col, ch in enumerate(line):
                if ch.isspace():
                    continue
                up = ch.upper()
                if up in ALPHABET:
                    body.append(up)
                elif up in "-_" and allow_gaps:
                    body.append(GAP)
                else:
                    at = offset + len(line[:col].encode())
                    if up in "-_":
                        raise FastaError(f"gap character {ch!r} in raw sequence", lineno, at)
                    raise FastaError(f"illegal character {ch!r}", lineno, at)
        offset += len(raw_line.encode())

    flush()
    if not records:
        raise FastaError("no FASTA records found")
    return records


def brute_force_score(a: str, b: str, match: int, mismatch: int, gap: int) -> int:
    """Best global alignment score by plain recursive enumeration."""

    def rec(i: int, j: int) -> int:
        if i == len(a) and j == len(b):
            return 0
        best = None
        if i < len(a) and j < len(b):
            v = (match if a[i] == b[j] else mismatch) + rec(i + 1, j + 1)
            best = v
        if i < len(a):
            v = gap + rec(i + 1, j)
            best = v if best is None else max(best, v)
        if j < len(b):
            v = gap + rec(i, j + 1)
            best = v if best is None else max(best, v)
        return best

    return rec(0, 0)


def scalar_fill(a: str, b: str, s: ScoringScheme) -> list[list[int]]:
    """The (len(a)+1) x (len(b)+1) score grid, one cell at a time."""
    match, mismatch, gap = s.match_score, s.mismatch_score, s.gap_penalty
    m, n = len(a), len(b)
    rows = [[0] * (n + 1) for _ in range(m + 1)]
    rows[0] = [j * gap for j in range(n + 1)]
    for i in range(1, m + 1):
        prev = rows[i - 1]
        cur = rows[i]
        cur[0] = i * gap
        ai = a[i - 1]
        for j in range(1, n + 1):
            diag = prev[j - 1] + (match if ai == b[j - 1] else mismatch)
            up = prev[j] + gap
            left = cur[j - 1] + gap
            best = diag
            if up > best:
                best = up
            if left > best:
                best = left
            cur[j] = best
    return rows


def scalar_align_strings(a: str, b: str, s: ScoringScheme) -> tuple[int, str]:
    """(score, moves) by tracing back ``scalar_fill`` of the reversed
    strings, preferring D, then U, then L at each step."""
    gap = s.gap_penalty
    ra, rb = a[::-1], b[::-1]
    grid = scalar_fill(ra, rb, s)
    score = grid[len(a)][len(b)]
    moves: list[str] = []
    i, j = len(a), len(b)
    while i > 0 or j > 0:
        cell = grid[i][j]
        if i > 0 and j > 0 and cell == grid[i - 1][j - 1] + (
            s.match_score if ra[i - 1] == rb[j - 1] else s.mismatch_score
        ):
            moves.append("D")
            i -= 1
            j -= 1
        elif i > 0 and cell == grid[i - 1][j] + gap:
            moves.append("U")
            i -= 1
        else:
            moves.append("L")
            j -= 1
    return score, "".join(moves)


def loop_expand_by_moves(residues: str, moves: str, consume: str) -> str:
    """Gapped row by one step per move: a residue for each move in
    ``consume``, a gap for any other."""
    out: list[str] = []
    pos = 0
    for move in moves:
        if move in consume:
            out.append(residues[pos])
            pos += 1
        else:
            out.append(GAP)
    if pos != len(residues):
        raise ValueError("move string does not consume the whole sequence")
    return "".join(out)


def rebuild_merge(
    rows1: tuple[Sequence, ...], c1: str, rows2: tuple[Sequence, ...], c2: str,
    s: ScoringScheme,
) -> Msa:
    """``profiles._merge`` over rows: align ``c1`` and ``c2``, the strings
    that stand for ``rows1`` and ``rows2``, and rebuild every row of both
    sides as a gapped Sequence, then the whole group as a new Msa."""
    _, moves = align_strings(c1, c2, s)
    return Msa(tuple(
        Sequence(row.id, expand_by_moves(row.residues, moves, consume), row.description)
        for rows, consume in ((rows1, DIAG + UP), (rows2, DIAG + LEFT))
        for row in rows
    ))


def row_merge_along(
    seqs: list[Sequence] | tuple[Sequence, ...], merge_log, s: ScoringScheme, tie: TieBreak
) -> Msa:
    """``progressive.merge_along`` over rows: a leaf-leaf join aligns with
    ``align_global``, a group's consensus is the column loop's, every other
    join rebuilds its rows with ``rebuild_merge``, and the final rows are
    picked by id."""
    groups = dict(enumerate(seqs))
    for step in merge_log:
        left, right = groups.pop(step.left), groups.pop(step.right)
        if isinstance(left, Sequence) and isinstance(right, Sequence):
            pair = align_global(left, right, s)
            merged = Msa((pair.row_a, pair.row_b))
        else:
            if isinstance(left, Sequence):  # a group stays first when it meets a lone row
                left, right = right, left
            operands = [
                (side.rows, loop_consensus(string_profile_counts(side), tie))
                if isinstance(side, Msa) else ((side,), side.residues)
                for side in (left, right)
            ]
            merged = rebuild_merge(*operands[0], *operands[1], s)
        groups[step.new] = merged
    (alignment,) = groups.values()
    by_id = {row.id: row for row in alignment.rows}
    return Msa(tuple(by_id[seq.id] for seq in seqs))


def random_merge_log(rng, n: int) -> tuple[Merge, ...]:
    """A log joining two random pending clusters of ``n`` leaves at a time."""
    pending = list(range(n))
    log = []
    for new in range(n, 2 * n - 1):
        left, right = (pending.pop(rng.randrange(len(pending))) for _ in range(2))
        log.append(Merge(left, right, new, 0.0, 0.0, 0.0))
        pending.append(new)
    return tuple(log)


def first_all_gap_column(rows) -> int | None:
    """Index of the first column made of gaps only, scanning column by column."""
    for col in range(len(rows[0])):
        if all(row[col] == GAP for row in rows):
            return col
    return None


def string_profile_counts(msa: Msa) -> tuple[tuple[int, ...], ...]:
    """Per-column (A, C, G, T, gap) counts by transposing the rows as strings."""
    columns = map("".join, zip(*(row.residues for row in msa.rows)))
    return tuple(tuple(col.count(symbol) for symbol in SYMBOLS) for col in columns)


def loop_consensus(counts, tie: TieBreak | None = None) -> str:
    """Majority symbol column by column; a tie goes to ``tie.choose`` over
    the leaders."""
    tie = tie if tie is not None else TieBreak()
    out = []
    for column in counts:
        top = max(column)
        leaders = [symbol for symbol, count in zip(SYMBOLS, column) if count == top]
        out.append(leaders[0] if len(leaders) == 1 else tie.choose(leaders))
    return "".join(out)


def loop_pair_counts(msa: Msa) -> tuple[int, int, int]:
    """(match, mismatch, residue-gap) pair counts summed column by column
    from ``string_profile_counts``."""
    if msa.depth < 2:
        return 0, 0, 0
    match = mismatch = residue_gap = 0
    for column in string_profile_counts(msa):
        gaps = column[-1]
        residues = msa.depth - gaps
        same = sum(c * (c - 1) for c in column[:-1]) // 2
        match += same
        mismatch += residues * (residues - 1) // 2 - same
        residue_gap += residues * gaps
    return match, mismatch, residue_gap


def pair_loop_distance_matrix(seqs: list[Sequence], s: ScoringScheme) -> DistanceMatrix:
    """Jukes-Cantor distances with one alignment per unordered pair,
    repeated residue strings included, after every pair's cell budget is
    checked; errors name the pair."""
    n = len(seqs)
    for i, j in combinations(range(n), 2):
        try:
            check_dp_cells(len(seqs[i]), len(seqs[j]))
        except ValueError as err:
            raise ValueError(f"pair ({seqs[i].id}, {seqs[j].id}): {err}") from err
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            try:
                alignment = align_global(seqs[i], seqs[j], s)
                d = jukes_cantor(column_stats(alignment)).value
            except ValueError as err:
                raise ValueError(f"pair ({seqs[i].id}, {seqs[j].id}): {err}") from err
            values[i, j] = values[j, i] = d
    return DistanceMatrix(tuple(seq.id for seq in seqs), values)


def reversed_lane_codes(strings: list[str], width: int) -> np.ndarray:
    """width x lanes code points of the reversed strings, padded with -1."""
    out = np.full((width, len(strings)), -1, dtype=np.int64)
    for lane, x in enumerate(strings):
        out[: len(x), lane] = [ord(c) for c in reversed(x)]
    return out


def full_grid_lane_counts(
    pairs: list[tuple[str, str]], s: ScoringScheme
) -> tuple[np.ndarray, np.ndarray]:
    """(matches, comparable) of every pair from one whole (m+1) x (n+1) x
    pairs int64 grid of shifted scores, F[i][j] = H[i][j] - g*(i+j).

    Each pair is a lane over its reversed strings, padded to the longest.
    Which moves each cell allows is found for all lanes at once; the
    traceback then walks every lane in lock-step from its own corner,
    taking D, else U, else L, until all reach (0, 0)."""
    lanes = len(pairs)
    len_a = np.array([len(a) for a, _ in pairs])
    len_b = np.array([len(b) for _, b in pairs])
    m, n = int(len_a.max()), int(len_b.max())
    gap = s.gap_penalty
    diag_match, diag_mismatch = s.match_score - 2 * gap, s.mismatch_score - 2 * gap

    codes_a = reversed_lane_codes([a for a, _ in pairs], m)
    same = codes_a[:, None] == reversed_lane_codes([b for _, b in pairs], n)
    steps = np.where(same, diag_match, diag_mismatch).astype(np.int64)
    grid = np.zeros((m + 1, n + 1, lanes), dtype=np.int64)
    for i in range(m):
        grid[i + 1, 1:] = np.maximum(grid[i, :-1] + steps[i], grid[i, 1:])
        np.maximum.accumulate(grid[i + 1], axis=0, out=grid[i + 1])

    up_ok, diag_ok, same_bit, done = 1, 2, 4, 8
    flags = np.zeros((m + 1, n + 1, lanes), dtype=np.int8)
    flags[1:] += grid[1:] == grid[:-1]
    flags[1:, 1:] += (grid[1:, 1:] == grid[:-1, :-1] + steps) * np.int8(diag_ok)
    flags[1:, 1:] += same * np.int8(same_bit)
    flags[0, 0] = done
    up_back, left_back = (n + 1) * lanes, lanes
    back = np.zeros(done + 1, dtype=np.int64)  # what a step from each flag value subtracts
    for f in range(done):
        back[f] = up_back + left_back if f & diag_ok else up_back if f & up_ok else left_back
    path = np.empty((int((len_a + len_b).max()), lanes), dtype=np.int8)
    k = len_a * up_back + len_b * left_back + np.arange(lanes)
    flags = flags.reshape(-1)
    for step in path:
        np.take(flags, k, out=step)
        k -= back.take(step)
    match = diag_ok | same_bit
    return ((path & match) == match).sum(axis=0), ((path & diag_ok) != 0).sum(axis=0)


def rolling_row_lane_counts(
    pairs: list[tuple[str, str]], s: ScoringScheme
) -> tuple[np.ndarray, np.ndarray]:
    """(matches, comparable) of every pair from two rolling int64 score rows
    of (n+1) x lanes and an int8 flag grid, one byte a cell.

    Each row writes its cells' flags, built as f = 2f + bit: whether the
    diagonal pairs equal symbols, then whether D, then U, attains the cell.
    First-row and first-column cells hold ``done``, where no diagonal move
    is left, and the traceback walks every lane in lock-step from its own
    corner, taking D, else U, else L, until each lane reaches one."""
    lanes = len(pairs)
    len_a = np.array([len(a) for a, _ in pairs])
    len_b = np.array([len(b) for _, b in pairs])
    m, n = int(len_a.max()), int(len_b.max())
    gap = s.gap_penalty
    diag_match, diag_mismatch = s.match_score - 2 * gap, s.mismatch_score - 2 * gap

    up_ok, diag_ok, same_bit, done = 1, 2, 4, 8
    codes_a = reversed_lane_codes([a for a, _ in pairs], m)
    codes_b = reversed_lane_codes([b for _, b in pairs], n)
    rows = np.zeros((2, n + 1, lanes), dtype=np.int64)
    step = np.empty_like(rows[0, 1:])
    ok = np.empty((n, lanes), dtype=bool)
    flags = np.zeros((m + 1, n + 1, lanes), dtype=np.int8)
    for i, (code, f) in enumerate(zip(codes_a, flags[1:, 1:])):
        diag, up, out = rows[i % 2, :-1], rows[i % 2, 1:], rows[1 - i % 2, 1:]
        np.equal(codes_b, code, out=f.view(bool))  # the same-symbol bit, shifted twice below
        np.copyto(step, f)
        step *= diag_match - diag_mismatch
        step += diag_mismatch
        step += diag
        np.maximum(step, up, out=out)
        np.maximum.accumulate(out, out=out)
        for source in (step, up):
            f += f
            f += np.equal(out, source, out=ok).view(np.int8)
    flags[0] = flags[:, 0] = done
    up_back, left_back = (n + 1) * lanes, lanes  # flat offsets of one step up, left
    back = np.zeros(done + 1, dtype=np.int64)  # what a step from each flag value subtracts
    for f in range(done):
        back[f] = up_back + left_back if f & diag_ok else up_back if f & up_ok else left_back
    path = np.empty((int((len_a + len_b).max()), lanes), dtype=np.int8)
    k = len_a * up_back + len_b * left_back + np.arange(lanes)
    flags = flags.reshape(-1)
    for move in path:
        flags.take(k, out=move)
        k -= back.take(move)
    match = diag_ok | same_bit
    return ((path & match) == match).sum(axis=0), ((path & diag_ok) != 0).sum(axis=0)


def pair_loop_sp_score(msa: Msa, s: ScoringScheme) -> int:
    """Sum-of-pairs score by visiting every row pair and column."""
    total = 0
    for row_a, row_b in combinations(msa.rows, 2):
        for x, y in zip(row_a.residues, row_b.residues):
            if x == GAP and y == GAP:
                continue
            if x == GAP or y == GAP:
                total += s.gap_penalty
            elif x == y:
                total += s.match_score
            else:
                total += s.mismatch_score
    return total


def pair_loop_sp_total_cost(msa: Msa) -> float:
    """Sum-of-pairs cost as a running sum over every row pair and column:
    1 for each mismatch and each residue against a gap."""
    total = 0.0
    for row_a, row_b in combinations(msa.rows, 2):
        for x, y in zip(row_a.residues, row_b.residues):
            if x != y:  # gap-gap pairs are equal, so free
                total += 1.0
    return total


def scan_argmin_pair(live: list[int], key) -> tuple[int, int, float]:
    """Scan live index pairs in ascending order; first strict minimum wins."""
    best_i = best_j = -1
    best = None
    for a in range(len(live)):
        for b in range(a + 1, len(live)):
            i, j = live[a], live[b]
            value = float(key(i, j))
            if best is None or value < best:
                best, best_i, best_j = value, i, j
    return best_i, best_j, best


def masked_closest_pair(scores: np.ndarray) -> tuple[int, int, float]:
    """Table positions (row, col) and value of the first minimum, in
    row-major order, of the strict upper triangle of any k x k ``scores``:
    a copy with the diagonal and lower triangle at +inf, and np.where keeps
    the rest bit for bit, -0.0 included. A non-finite minimum is an error."""
    k = len(scores)
    masked = np.where(np.tri(k, dtype=bool), np.inf, scores)
    row, col = divmod(int(np.argmin(masked)), k)
    value = float(masked[row, col])
    if not math.isfinite(value):
        raise ValueError("distance table contains non-finite values")
    return row, col, value


def _working_table(m: DistanceMatrix, total: int) -> np.ndarray:
    table = np.zeros((total, total))
    table[: m.size, : m.size] = m.values
    return table


def working_table_upgma_build(m: DistanceMatrix) -> GuideTree:
    """UPGMA over a (2n-1)-square table of every cluster id, dead rows
    kept, gathering the live block with ``np.ix_`` at each join."""
    n = m.size
    if n < 2:
        raise ValueError("need at least two taxa")
    total = 2 * n - 1
    table = _working_table(m, total)
    live = list(range(n))
    sizes = [1] * n + [0] * (n - 1)
    heights = [0.0] * total
    log: list[Merge] = []
    scanned_total = 0

    for new in range(n, total):
        scanned_total += len(live) * (len(live) - 1) // 2
        row, col, dmin = masked_closest_pair(table[np.ix_(live, live)])
        if not math.isfinite(dmin):
            raise ValueError("distance table contains non-finite values")
        i, j = live[row], live[col]
        h = dmin / 2.0
        left_len = h - heights[i]
        right_len = h - heights[j]
        si, sj = sizes[i], sizes[j]
        live.remove(i)
        live.remove(j)
        d = (si * table[i, live] + sj * table[j, live]) / (si + sj)
        table[new, live] = table[live, new] = d
        live.append(new)
        sizes[new] = si + sj
        heights[new] = h
        log.append(Merge(i, j, new, dmin, left_len, right_len))

    return GuideTree(
        method="upgma",
        taxa=m.taxa,
        merge_log=tuple(log),
        stats=BuildStats(pairs_scanned=scanned_total),
    )


def working_table_nj_build(m: DistanceMatrix) -> GuideTree:
    """Neighbor-joining over a (2n-1)-square table of every cluster id,
    dead rows kept, gathering the live block with ``np.ix_`` at each join."""
    n = m.size
    if n < 2:
        raise ValueError("need at least two taxa")
    table = _working_table(m, 2 * n - 1)
    live = list(range(n))
    log: list[Merge] = []
    scanned_total = 0
    new = n

    while len(live) > 2:
        sub = table[np.ix_(live, live)]
        rates = sub.sum(axis=1) / (len(live) - 2)
        scanned_total += len(live) * (len(live) - 1) // 2
        row, col, crit = masked_closest_pair(sub - rates[:, None] - rates[None, :])
        if not math.isfinite(crit):
            raise ValueError("distance table contains non-finite values")
        i, j = live[row], live[col]
        u_i, u_j = float(rates[row]), float(rates[col])
        dij = float(table[i, j])
        left_len = 0.5 * (dij + u_i - u_j)
        right_len = 0.5 * (dij + u_j - u_i)
        live.remove(i)
        live.remove(j)
        table[new, live] = table[live, new] = (table[i, live] + table[j, live] - dij) / 2.0
        live.append(new)
        log.append(Merge(i, j, new, crit, left_len, right_len))
        new += 1

    p, q = live
    final = float(table[p, q])
    log.append(Merge(p, q, new, final, final / 2.0, final / 2.0, closing=True))

    return GuideTree(
        method="nj",
        taxa=m.taxa,
        merge_log=tuple(log),
        stats=BuildStats(pairs_scanned=scanned_total),
        final_edge_length=final,
    )


def _merge_children(tree) -> dict:
    """Each internal cluster's ((child, branch length), ...) from the merge log."""
    return {m.new: ((m.left, m.left_length), (m.right, m.right_length)) for m in tree.merge_log}


def recursive_newick(tree, clamp_negative: bool = False) -> str:
    """Newick by recursion from the root, children in merge order."""
    children = _merge_children(tree)

    def fmt(length: float) -> str:
        if clamp_negative and length < 0:
            length = 0.0
        return f"{length:.6f}"

    def render(node: int) -> str:
        if node not in children:
            return tree.taxa[node]
        inner = ",".join(f"{render(child)}:{fmt(length)}" for child, length in children[node])
        return f"({inner})"

    return render(tree.merge_log[-1].new) + ";"


def recursive_tree_distances(tree) -> dict[frozenset, float]:
    """Leaf-to-leaf path lengths by a recursive post-order walk."""
    children = _merge_children(tree)
    out: dict[frozenset, float] = {}

    def walk(node: int) -> list[tuple[str, float]]:
        if node not in children:
            return [(tree.taxa[node], 0.0)]
        groups = [
            [(name, depth + length) for name, depth in walk(child)]
            for child, length in children[node]
        ]
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                for name_a, depth_a in groups[a]:
                    for name_b, depth_b in groups[b]:
                        out[frozenset((name_a, name_b))] = depth_a + depth_b
        return [entry for group in groups for entry in group]

    walk(tree.merge_log[-1].new)
    return out


def recursive_leaf_depths(tree) -> dict[str, float]:
    """Root-to-leaf path lengths by a recursive walk from the root."""
    children = _merge_children(tree)
    depths: dict[str, float] = {}

    def walk(node: int, depth: float):
        if node not in children:
            depths[tree.taxa[node]] = depth
            return
        for child, length in children[node]:
            walk(child, depth + length)

    walk(tree.merge_log[-1].new, 0.0)
    return depths


def parse_newick(text: str):
    """Parse a Newick string into ((subtree, length), ...) nests; a leaf is
    its name string. Only the features the writer emits are supported."""
    text = text.strip()
    assert text.endswith(";")
    text = text[:-1]
    pos = 0

    def parse_subtree():
        nonlocal pos
        if text[pos] == "(":
            pos += 1
            children = [parse_child()]
            while text[pos] == ",":
                pos += 1
                children.append(parse_child())
            assert text[pos] == ")"
            pos += 1
            return tuple(children)
        if text[pos] == "'":
            # A quoted label ends at a lone quote; a doubled one stands for '.
            label = []
            pos += 1
            while not (text[pos] == "'" and text[pos + 1 : pos + 2] != "'"):
                label.append(text[pos])
                pos += 2 if text[pos] == "'" else 1
            pos += 1
            return "".join(label)
        start = pos
        while pos < len(text) and text[pos] not in ",():":
            pos += 1
        return text[start:pos]

    def parse_child():
        nonlocal pos
        node = parse_subtree()
        length = None
        if pos < len(text) and text[pos] == ":":
            pos += 1
            start = pos
            while pos < len(text) and text[pos] not in ",()":
                pos += 1
            length = float(text[start:pos])
        return (node, length)

    root = parse_subtree()
    assert pos == len(text)
    return root


def newick_leaf_sets(tree) -> set[frozenset]:
    """Leaf-name sets of every internal node of a parsed Newick tree."""
    out: set[frozenset] = set()

    def walk(node) -> frozenset:
        if isinstance(node, str):
            return frozenset((node,))
        leaves = frozenset()
        for child, _ in node:
            leaves |= walk(child)
        out.add(leaves)
        return leaves

    walk(tree)
    return out


def random_ultrametric(rng, n: int) -> DistanceMatrix:
    """Matrix of path lengths on a random clock tree: join random cluster
    pairs at strictly increasing heights; d(x, y) = twice the join height."""
    values = np.zeros((n, n))
    clusters = {i: [i] for i in range(n)}
    next_id = n
    height = 0.0
    while len(clusters) > 1:
        height += rng.uniform(0.1, 1.0)
        a, b = rng.sample(sorted(clusters), 2)
        for x in clusters[a]:
            for y in clusters[b]:
                values[x][y] = values[y][x] = 2.0 * height
        clusters[next_id] = clusters.pop(a) + clusters.pop(b)
        next_id += 1
    return DistanceMatrix(tuple(f"t{i}" for i in range(n)), values)


def random_additive(rng, n: int) -> DistanceMatrix:
    """Matrix of path lengths on a random edge-weighted binary tree."""
    # subtree: leaf index, or tuple of (subtree, edge_length) pairs
    items: list = list(range(n))
    while len(items) > 1:
        a = items.pop(rng.randrange(len(items)))
        b = items.pop(rng.randrange(len(items)))
        items.append(((a, rng.uniform(0.5, 2.0)), (b, rng.uniform(0.5, 2.0))))
    values = np.zeros((n, n))

    def walk(node) -> list[tuple[int, float]]:
        if isinstance(node, int):
            return [(node, 0.0)]
        groups = [[(leaf, depth + length) for leaf, depth in walk(child)]
                  for child, length in node]
        for g1 in range(len(groups)):
            for g2 in range(g1 + 1, len(groups)):
                for x, dx in groups[g1]:
                    for y, dy in groups[g2]:
                        values[x][y] = values[y][x] = dx + dy
        return [entry for group in groups for entry in group]

    walk(items[0])
    return DistanceMatrix(tuple(f"t{i}" for i in range(n)), values)


@st.composite
def gapped_rows(draw, min_depth: int = 1, all_gap_columns: bool = False) -> tuple[str, ...]:
    """Rows of a random gapped alignment: depth min_depth-30, width 1-200.

    Each column draws its gap rate from 0 to 1 and the rows use two or four
    letters, so mostly-gap and tied columns are common. Unless
    ``all_gap_columns`` is set, a column of gaps only gets one letter back.
    """
    depth = draw(st.integers(min_depth, 30))
    width = draw(st.integers(1, 200))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    letters = rng.choice(("ACGT", "AG", "CT"))
    columns = []
    for _ in range(width):
        rate = rng.choice((0.0, 0.5, 0.9, 1.0))
        column = [GAP if rng.random() < rate else rng.choice(letters) for _ in range(depth)]
        if not all_gap_columns and set(column) == {GAP}:
            column[rng.randrange(depth)] = rng.choice(letters)
        columns.append(column)
    return tuple("".join(row) for row in zip(*columns))


def msa_of_rows(rows) -> Msa:
    return Msa(tuple(Sequence(f"r{i}", row) for i, row in enumerate(rows)))


def random_dna(rng, lo: int, hi: int) -> str:
    return "".join(rng.choice("ACGT") for _ in range(rng.randint(lo, hi)))


def hand_written_csv_row(r: BenchRecord) -> str:
    """A bench CSV row with every column named and formatted by hand."""
    return (
        f"{r.method},{r.n_sequences},{r.mean_length:.2f},"
        f"{r.distance_ms},{r.tree_ms},{r.merge_ms},{r.total_ms},"
        f"{r.total_cost:.6f},{r.sp_score},{r.seed}"
    )
