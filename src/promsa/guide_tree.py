"""Guide trees from a distance matrix: UPGMA and neighbor-joining.

Both builders work on a full symmetric distance table with a liveness list
instead of physically deleting rows, and record every join in a merge log
that downstream progressive merging replays. The merge log is the tree:
serialization and path lengths loop over it, so depth sets no recursion
limit. Cluster ids are assigned so that leaves take 0..n-1 in taxa order
and each new cluster receives the next free index. Each join is the first minimum, in row-major order, of the
upper triangle of the live submatrix, so ties go to the smallest (i, j)
index pair and both builders are deterministic.
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
    iterations: int
    pairs_scanned: int


@dataclass(frozen=True)
class GuideTree:
    method: str
    taxa: tuple[str, ...]
    merge_log: tuple[Merge, ...]
    stats: BuildStats
    final_edge_length: float | None = None

    @property
    def n_leaves(self) -> int:
        return len(self.taxa)


def _working_table(m: DistanceMatrix, total: int) -> np.ndarray:
    table = np.zeros((total, total))
    table[: m.size, : m.size] = m.values
    return table


def _closest_pair(scores: np.ndarray, live: list[int]) -> tuple[int, int, float, int]:
    """First minimum, in row-major order, of the strict upper triangle of
    ``scores`` (the k x k table over ``live``): its two live ids, its value
    and the k(k-1)/2 pairs covered. The builders keep ``live`` ascending,
    since removals keep its order and each new id is the largest so far, so
    among tied minima this is the smallest (i, j) pair."""
    k = len(live)
    # The diagonal and lower triangle read +inf, so they never win a finite
    # minimum; np.where copies the rest bit for bit, -0.0 included.
    masked = np.where(np.tri(k, dtype=bool), np.inf, scores)
    row, col = divmod(int(np.argmin(masked)), k)
    return live[row], live[col], float(masked[row, col]), k * (k - 1) // 2


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
    total = 2 * n - 1
    table = _working_table(m, total)
    live = list(range(n))
    sizes = [1] * n + [0] * (n - 1)
    heights = [0.0] * total
    log: list[Merge] = []
    scanned_total = 0

    for new in range(n, total):
        i, j, dmin, scanned = _closest_pair(table[np.ix_(live, live)], live)
        scanned_total += scanned
        if not math.isfinite(dmin):
            raise ValueError("distance table contains non-finite values")
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
        stats=BuildStats(iterations=n - 1, pairs_scanned=scanned_total),
    )


@dataclass
class NjWorkspace:
    """Mutable state of a neighbor-joining run: the working distance table
    over all cluster ids and the currently live ids."""

    table: np.ndarray
    live: list[int]

    @classmethod
    def from_matrix(cls, m: DistanceMatrix) -> "NjWorkspace":
        return cls(_working_table(m, 2 * m.size - 1), list(range(m.size)))


def _rates(sub: np.ndarray) -> np.ndarray:
    """Row sums of the k x k live submatrix divided by k - 2, in live order."""
    k = len(sub)
    if k < 3:
        raise ValueError("rates are defined only for three or more clusters")
    return sub.sum(axis=1) / (k - 2)


def nj_rates(ws: NjWorkspace) -> dict[int, float]:
    """Per-cluster rate u_i = sum of distances to the other live clusters,
    divided by (live count - 2). Recomputed fresh each iteration."""
    return dict(zip(ws.live, _rates(ws.table[np.ix_(ws.live, ws.live)]).tolist()))


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
    ws = NjWorkspace.from_matrix(m)
    table, live = ws.table, ws.live
    log: list[Merge] = []
    scanned_total = 0
    iterations = 0
    new = n

    while len(live) > 2:
        iterations += 1
        sub = table[np.ix_(live, live)]
        rates = _rates(sub)
        i, j, crit, scanned = _closest_pair(sub - rates[:, None] - rates[None, :], live)
        scanned_total += scanned
        if not math.isfinite(crit):
            raise ValueError("distance table contains non-finite values")
        u_i, u_j = float(rates[live.index(i)]), float(rates[live.index(j)])
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
        stats=BuildStats(iterations=iterations, pairs_scanned=scanned_total),
        final_edge_length=final,
    )


def to_newick(tree: GuideTree, clamp_negative: bool = False) -> str:
    """Serialize with children in merge order and branch lengths as %.6f.

    ``clamp_negative`` replaces negative branch lengths with zero in the
    output only; the tree itself keeps raw values.
    """

    def fmt(length: float) -> str:
        if clamp_negative and length < 0:
            length = 0.0
        return f"{length:.6f}"

    pending: dict[int, str] = dict(enumerate(tree.taxa))
    for m in tree.merge_log:
        left, right = pending.pop(m.left), pending.pop(m.right)
        pending[m.new] = f"({left}:{fmt(m.left_length)},{right}:{fmt(m.right_length)})"
    return pending[tree.merge_log[-1].new] + ";"


def leaf_order(tree: GuideTree) -> list[str]:
    """Taxa in the order the merge log absorbs them, earliest join first."""
    n = tree.n_leaves
    order: list[str] = []
    seen: set[int] = set()
    for merge in tree.merge_log:
        for idx in (merge.left, merge.right):
            if idx < n and idx not in seen:
                seen.add(idx)
                order.append(tree.taxa[idx])
    return order


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


def leaf_depths(tree: GuideTree) -> dict[str, float]:
    """Root-to-leaf path lengths (equal for an ultrametric tree), summed from
    the root down by walking the merge log backwards."""
    depth = {tree.merge_log[-1].new: 0.0}
    for m in reversed(tree.merge_log):
        above = depth.pop(m.new)
        depth[m.left] = above + m.left_length
        depth[m.right] = above + m.right_length
    return {name: depth[i] for i, name in enumerate(tree.taxa)}


def merge_log_csv(tree: GuideTree) -> str:
    """Merge log as CSV (iteration, operand ids, selection value)."""
    lines = ["iteration,left,right,criterion"]
    for it, merge in enumerate(tree.merge_log, start=1):
        lines.append(f"{it},{merge.left},{merge.right},{merge.criterion:.6f}")
    return "\n".join(lines) + "\n"
