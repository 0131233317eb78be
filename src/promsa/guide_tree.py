"""Guide trees from a distance matrix: UPGMA and neighbor-joining.

Both builders work on one (n+1)-square table per build, whose top-left
k x k block is the table of the k live clusters, in ascending id order. A
join writes the new cluster's distances into the row and column just past
the block, then closes the two joined rows and columns by shifting the
later ones up and left, so the block shrinks by one and the new cluster
comes last. No join gathers the kept block or builds a fresh table; the
column shift still copies its overlapping source block, as numpy does for
any overlapping 2-D assignment. Every join is recorded in a merge
log that downstream progressive merging replays. The merge log is the tree:
serialization and path lengths loop over it, so depth sets no recursion
limit. Cluster ids are assigned so that leaves take 0..n-1 in taxa order
and each new cluster receives the next free index. Each join is the first
minimum, in row-major order, of the upper triangle of the live table, so
ties go to the smallest (i, j) index pair and both builders are
deterministic. One argmin over the whole table, diagonal at +inf, finds it
unless that first minimum lies below the diagonal, which only NJ's
criterion allows (its mirror entries can round apart); then a masked copy
is scanned again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distances import DistanceMatrix


@dataclass(frozen=True)
class Merge:
    """One join: cluster ids of the operands, the new cluster, and the
    selection value that chose the pair (for the closing edge of a
    neighbor-joining tree this is the remaining pair distance). Ids below
    the leaf count are input taxa; larger ids name earlier joins."""

    left: int
    right: int
    new: int
    criterion: float
    left_length: float
    right_length: float
    closing: bool = False


@dataclass(frozen=True)
class BuildStats:
    pairs_scanned: int


@dataclass(frozen=True)
class GuideTree:
    method: str
    taxa: tuple[str, ...]
    merge_log: tuple[Merge, ...]
    stats: BuildStats
    final_edge_length: float | None = None


def _closest_pair(scores: np.ndarray) -> tuple[int, int, float]:
    """Table positions (row, col) and value of the first row-major minimum
    of the strict upper triangle of the k x k ``scores``, whose diagonal
    reads +inf. When the first minimum (or NaN) of the whole table lies
    above the diagonal, it is that one: no upper entry is less, and none
    equal comes before it. A symmetric table under == (+0.0 and -0.0 tie)
    always gives that case, as a minimum below the diagonal comes after its
    mirror; otherwise a copy with the lower triangle at +inf is scanned
    again, and ``scores`` is never written. The value is read above the
    diagonal, so a -0.0 keeps its sign. ``scores`` may also be k whole rows
    of a wider table that reads +inf right of the k x k block, whose first
    minimum is the block's. Live ids ascend (removals keep order, each new
    id is the largest), so among tied minima this is the smallest (i, j) id
    pair. A non-finite minimum is an error."""
    width = scores.shape[1]
    row, col = divmod(int(scores.argmin()), width)
    if row > col:
        # Only an unsymmetric table gets here: NJ's criterion, whose mirror
        # entries can round apart. Mask a copy, as ``scores`` may be live.
        scores = np.where(np.tri(*scores.shape, dtype=bool), np.inf, scores)
        row, col = divmod(int(scores.argmin()), width)
    value = float(scores[row, col])
    if not math.isfinite(value):
        raise ValueError("distance table contains non-finite values")
    return row, col, value


def _table_with_spare(m: DistanceMatrix) -> np.ndarray:
    """An (n+1)-square table whose n-square block is ``m``; the spare row
    and column take each new cluster."""
    n = m.size
    table = np.empty((n + 1, n + 1))
    table[:n, :n] = m.values
    return table


def _join(
    table: np.ndarray, live: list[int], pi: int, pj: int, new: int, row: np.ndarray, diagonal: float
) -> None:
    """Join the live clusters at positions pi < pj of the k x k live block
    into ``new``: its distances ``row`` (length k; the entries at pi and pj
    are dropped) fill row and column k and ``diagonal`` the rest of row k,
    then the rows and columns after pi and after pj shift up and left over
    them, and the two columns the block leaves read ``diagonal``, so the
    live rows read ``diagonal`` right of the block. The block left is
    (k-1)-square and keeps the live ids ascending, since ``new``, the
    largest id so far, comes last. Rows move whole, as one flat run each,
    which numpy copies in place; it copies an overlapping block of columns
    before it writes, so every shift reads the values from before it."""
    k = len(live)
    table[k, :k] = table[:k, k] = row
    table[k, k:] = diagonal
    width = table.shape[1]
    flat = table.reshape(-1)
    flat[pi * width : (pj - 1) * width] = flat[(pi + 1) * width : pj * width]
    flat[(pj - 1) * width : (k - 1) * width] = flat[(pj + 1) * width : (k + 1) * width]
    table[: k - 1, pi : pj - 1] = table[: k - 1, pi + 1 : pj]
    table[: k - 1, pj - 1 : k - 1] = table[: k - 1, pj + 1 : k + 1]
    table[: k - 1, k - 1 : k + 1] = diagonal
    del live[pj], live[pi]
    live.append(new)


def upgma_build(m: DistanceMatrix) -> GuideTree:
    """Agglomerate by smallest pairwise distance with size-weighted updates.

    The new cluster's distance to any other cluster l is
    (s_i * d(i, l) + s_j * d(j, l)) / (s_i + s_j). Node heights are half
    the joining distance, so the tree is ultrametric, and each branch
    length is the height difference between parent and child.
    """
    n = m.size
    if n < 2:
        raise ValueError("need at least two taxa")
    table, live = _table_with_spare(m), list(range(n))
    # The live rows read +inf on the diagonal and right of the block, so
    # _closest_pair scans them whole: they are contiguous, the block is not.
    # _join keeps that, as it fills the table past the block with +inf.
    np.fill_diagonal(table, np.inf)
    table[:, n] = np.inf
    sizes = [1] * n
    heights = [0.0] * n
    log: list[Merge] = []

    for new in range(n, 2 * n - 1):
        k = len(live)
        pi, pj, dmin = _closest_pair(table[:k])
        i, j = live[pi], live[pj]
        h = dmin / 2.0
        si, sj = sizes[i], sizes[j]
        # At pi and pj the update reads the +inf diagonal and gives +inf; as
        # dmin is the least distance, it overflows only where a kept entry
        # does. The last join keeps no cluster, so it updates nothing.
        if k > 2:
            row = (si * table[pi, :k] + sj * table[pj, :k]) / (si + sj)
            _join(table, live, pi, pj, new, row, np.inf)
        sizes.append(si + sj)
        heights.append(h)
        log.append(Merge(i, j, new, dmin, h - heights[i], h - heights[j]))

    return GuideTree(
        method="upgma",
        taxa=m.taxa,
        merge_log=tuple(log),
        # The k x k tables for k = n..2 cover sum k(k-1)/2 = C(n+1, 3) pairs.
        stats=BuildStats(pairs_scanned=math.comb(n + 1, 3)),
    )


@dataclass
class NjWorkspace:
    """A k x k live distance table, whose rows and columns follow ``live``,
    the ascending live ids, as ``nj_rates`` reads it. ``nj_build`` keeps the
    same table as the top-left block of one (n+1)-square array."""

    table: np.ndarray
    live: list[int]

    @classmethod
    def from_matrix(cls, m: DistanceMatrix) -> "NjWorkspace":
        return cls(m.values.copy(), list(range(m.size)))


def _rates(table: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Row sums of the k x k live table divided by k - 2, in live order,
    written into ``out``, a length-k array."""
    k = len(table)
    if k < 3:
        raise ValueError("rates are defined only for three or more clusters")
    np.add.reduce(table, axis=1, out=out)
    out /= k - 2
    return out


def nj_rates(ws: NjWorkspace) -> dict[int, float]:
    """Per-cluster rate u_i = sum of distances to the other live clusters,
    divided by (live count - 2). Recomputed fresh each iteration."""
    return dict(zip(ws.live, _rates(ws.table, np.empty(len(ws.live))).tolist()))


def nj_build(m: DistanceMatrix) -> GuideTree:
    """Neighbor-joining: select pairs by minimum d(i, j) - u_i - u_j.

    Branch lengths to the new cluster are (d(i, j) + u_i - u_j) / 2 and its
    symmetric counterpart; distances to the remaining clusters update as
    (d(i, l) + d(j, l) - d(i, j)) / 2. Joining stops at two clusters, which
    the final edge connects at its full remaining distance; for traversal
    and serialization the tree is rooted at that edge's midpoint, with the
    full closing length kept in ``final_edge_length``.
    """
    n = m.size
    if n < 2:
        raise ValueError("need at least two taxa")
    table, live = _table_with_spare(m), list(range(n))
    rates_buffer, scores_buffer = np.empty(n), np.empty(n * n)
    log: list[Merge] = []

    for new in range(n, 2 * n - 2):
        k = len(live)
        block = table[:k, :k]
        rates = _rates(block, rates_buffer[:k])
        # A contiguous k x k view, so argmin and ravel copy nothing. Zero
        # the diagonal, so -2 * u_i cannot overflow there, then set it to
        # +inf for _closest_pair. The lower triangle stays: (d - u_i) - u_j
        # can round apart from its mirror, which _closest_pair allows for.
        scores = scores_buffer[: k * k].reshape(k, k)
        np.subtract(block, rates[:, None], out=scores)
        scores.ravel()[:: k + 1] = 0.0
        scores -= rates
        scores.ravel()[:: k + 1] = np.inf
        pi, pj, crit = _closest_pair(scores)
        i, j = live[pi], live[pj]
        u_i, u_j, dij = float(rates[pi]), float(rates[pj]), float(table[pi, pj])
        left_len = 0.5 * (dij + u_i - u_j)
        right_len = 0.5 * (dij + u_j - u_i)
        # At pi and pj, which _join drops, the zero diagonal gives zero.
        row = (table[pi, :k] + table[pj, :k] - dij) / 2.0
        _join(table, live, pi, pj, new, row, 0.0)
        log.append(Merge(i, j, new, crit, left_len, right_len))

    p, q = live
    final = float(table[0, 1])
    log.append(Merge(p, q, 2 * n - 2, final, final / 2.0, final / 2.0, closing=True))

    return GuideTree(
        method="nj",
        taxa=m.taxa,
        merge_log=tuple(log),
        # As for UPGMA, but the last table scanned has 3 clusters, not 2.
        stats=BuildStats(pairs_scanned=math.comb(n + 1, 3) - 1),
        final_edge_length=final,
    )


def _newick_label(name: str) -> str:
    """``name`` as is, or in single quotes with each ' doubled when it holds
    whitespace or a character that Newick reserves."""
    if any(c.isspace() or c in "()[]':;," for c in name):
        return "'" + name.replace("'", "''") + "'"
    return name


def to_newick(tree: GuideTree, clamp_negative: bool = False) -> str:
    """Serialize with children in merge order and branch lengths as %.6f.

    ``clamp_negative`` replaces negative branch lengths with zero in the
    output only; the tree itself keeps raw values. Labels are quoted only
    where Newick needs it.
    """

    def fmt(length: float) -> str:
        if clamp_negative and length < 0:
            length = 0.0
        return f"{length:.6f}"

    pending: dict[int, str] = dict(enumerate(map(_newick_label, tree.taxa)))
    for m in tree.merge_log:
        left, right = pending.pop(m.left), pending.pop(m.right)
        pending[m.new] = f"({left}:{fmt(m.left_length)},{right}:{fmt(m.right_length)})"
    return pending[tree.merge_log[-1].new] + ";"


def tree_distances(tree: GuideTree) -> dict[frozenset, float]:
    """Leaf-to-leaf path lengths through the tree, keyed by taxa-name pairs;
    each pending cluster holds its leaves and their depths below it."""
    out: dict[frozenset, float] = {}
    below: dict[int, list[tuple[str, float]]] = {
        i: [(name, 0.0)] for i, name in enumerate(tree.taxa)
    }
    for m in tree.merge_log:
        left = [(name, depth + m.left_length) for name, depth in below.pop(m.left)]
        right = [(name, depth + m.right_length) for name, depth in below.pop(m.right)]
        for name_a, depth_a in left:
            for name_b, depth_b in right:
                out[frozenset((name_a, name_b))] = depth_a + depth_b
        below[m.new] = left + right
    return out
