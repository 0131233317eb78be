"""Guide trees from a distance matrix: UPGMA and neighbor-joining.

Both builders work on the table of live clusters, which shrinks by one row
and column at each join, and record every join in a merge log that
downstream progressive merging replays. The merge log is the tree:
serialization and path lengths loop over it, so depth sets no recursion
limit. Cluster ids are assigned so that leaves take 0..n-1 in taxa order
and each new cluster receives the next free index. Each join is the first
minimum, in row-major order, of the upper triangle of the live table, which
one argmin finds, so ties go to the smallest (i, j) index pair and both
builders are deterministic.
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
    of the k x k ``scores``, whose diagonal and lower triangle read +inf,
    or which is symmetric under == (so +0.0 and -0.0 tie) with +inf on its
    diagonal: a minimum below the diagonal then comes after its mirror. So
    (row, col) lies above it, and a -0.0 keeps its sign. Live ids ascend
    (removals keep order, each new id is the largest), so among tied minima
    this is the smallest (i, j) id pair. A non-finite minimum is an error."""
    row, col = divmod(int(np.argmin(scores)), len(scores))
    value = float(scores[row, col])
    if not math.isfinite(value):
        raise ValueError("distance table contains non-finite values")
    return row, col, value


def _join(
    table: np.ndarray, live: list[int], pi: int, pj: int, new: int, update, diagonal: float
) -> np.ndarray:
    """Join the live clusters at table positions pi < pj into ``new``: the
    live table without their rows and columns, plus a last row and column
    holding ``update(row pi, row pj)`` over the clusters kept and
    ``diagonal`` where they meet. ``live`` drops both and gains ``new``, the
    largest id so far, so it stays ascending. The table is a fresh C-ordered
    array, as row sums round by memory layout; at k <= 100 two take() calls
    were no faster than its two boolean gathers, and np.ix_ was slower."""
    keep = np.ones(len(live), dtype=bool)
    keep[pi] = keep[pj] = False
    k = len(live) - 1
    out = np.empty((k, k))
    out[:-1, :-1] = table[keep][:, keep]
    out[-1, :-1] = out[:-1, -1] = update(table[pi, keep], table[pj, keep])
    out[-1, -1] = diagonal
    del live[pj], live[pi]
    live.append(new)
    return out


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
    table, live = m.values.copy(), list(range(n))
    table.ravel()[:: n + 1] = np.inf  # for _closest_pair
    sizes = [1] * n
    heights = [0.0] * n
    log: list[Merge] = []

    for new in range(n, 2 * n - 1):
        pi, pj, dmin = _closest_pair(table)
        i, j = live[pi], live[pj]
        h = dmin / 2.0
        si, sj = sizes[i], sizes[j]
        table = _join(
            table, live, pi, pj, new, lambda di, dj: (si * di + sj * dj) / (si + sj), np.inf
        )
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
    """State of a neighbor-joining run: the k x k live distance table,
    whose rows and columns follow ``live``, the ascending live ids."""

    table: np.ndarray
    live: list[int]

    @classmethod
    def from_matrix(cls, m: DistanceMatrix) -> "NjWorkspace":
        return cls(m.values.copy(), list(range(m.size)))


def _rates(table: np.ndarray) -> np.ndarray:
    """Row sums of the k x k live table divided by k - 2, in live order."""
    k = len(table)
    if k < 3:
        raise ValueError("rates are defined only for three or more clusters")
    return table.sum(axis=1) / (k - 2)


def nj_rates(ws: NjWorkspace) -> dict[int, float]:
    """Per-cluster rate u_i = sum of distances to the other live clusters,
    divided by (live count - 2). Recomputed fresh each iteration."""
    return dict(zip(ws.live, _rates(ws.table).tolist()))


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
    table, live = m.values.copy(), list(range(n))
    lower = np.tri(n, dtype=bool)
    log: list[Merge] = []

    for new in range(n, 2 * n - 2):
        rates = _rates(table)
        k = len(table)
        # Zero the masked diagonal, so -2 * u_i cannot overflow there. A
        # fresh array ravels to a view, and this beat np.fill_diagonal.
        scores = table - rates[:, None]
        scores.ravel()[:: k + 1] = 0.0
        scores -= rates
        np.copyto(scores, np.inf, where=lower[:k, :k])
        pi, pj, crit = _closest_pair(scores)
        i, j = live[pi], live[pj]
        u_i, u_j, dij = float(rates[pi]), float(rates[pj]), float(table[pi, pj])
        left_len = 0.5 * (dij + u_i - u_j)
        right_len = 0.5 * (dij + u_j - u_i)
        table = _join(table, live, pi, pj, new, lambda di, dj: (di + dj - dij) / 2.0, 0.0)
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
