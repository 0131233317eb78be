"""Guide trees from a distance matrix: UPGMA and neighbor-joining.

Both builders work on a full symmetric distance table with a liveness list
instead of physically deleting rows, and record every join in a merge log
that downstream progressive merging replays. Cluster ids are assigned so
that leaves take 0..n-1 in taxa order and each new cluster receives the
next free index. Each join is the first minimum, in row-major order, of the
upper triangle of the live submatrix, so ties go to the smallest (i, j)
index pair and both builders are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distances import DistanceMatrix


@dataclass(frozen=True)
class TreeNode:
    id: int
    name: str | None = None
    children: tuple[tuple["TreeNode", float], ...] = ()
    height: float | None = None

    @property
    def is_leaf(self) -> bool:
        return not self.children


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
    nodes: tuple[TreeNode, ...]
    merge_log: tuple[Merge, ...]
    stats: BuildStats
    final_edge_length: float | None = None

    @property
    def root(self) -> TreeNode:
        return self.nodes[-1]

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
    rows, cols = np.triu_indices(k, 1)
    values = scores[rows, cols]
    best = int(np.argmin(values))
    return live[rows[best]], live[cols[best]], float(values[best]), k * (k - 1) // 2


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
    nodes: list[TreeNode] = [TreeNode(i, name=m.taxa[i], height=0.0) for i in range(n)]
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
        children = ((nodes[i], left_len), (nodes[j], right_len))
        nodes.append(TreeNode(new, children=children, height=h))
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
        nodes=tuple(nodes),
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


def nj_rates(ws: NjWorkspace) -> dict[int, float]:
    """Per-cluster rate u_i = sum of distances to the other live clusters,
    divided by (live count - 2). Recomputed fresh each iteration."""
    k = len(ws.live)
    if k < 3:
        raise ValueError("rates are defined only for three or more clusters")
    sub = ws.table[np.ix_(ws.live, ws.live)]
    sums = sub.sum(axis=1)
    return {i: float(sums[a]) / (k - 2) for a, i in enumerate(ws.live)}


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
    nodes: list[TreeNode] = [TreeNode(i, name=m.taxa[i]) for i in range(n)]
    log: list[Merge] = []
    scanned_total = 0
    iterations = 0
    new = n

    while len(live) > 2:
        iterations += 1
        u = nj_rates(ws)
        rates = np.fromiter(u.values(), float, len(u))  # keyed in live order
        scores = table[np.ix_(live, live)] - rates[:, None] - rates[None, :]
        i, j, crit, scanned = _closest_pair(scores, live)
        scanned_total += scanned
        if not math.isfinite(crit):
            raise ValueError("distance table contains non-finite values")
        dij = float(table[i, j])
        left_len = 0.5 * (dij + u[i] - u[j])
        right_len = 0.5 * (dij + u[j] - u[i])
        nodes.append(TreeNode(new, children=((nodes[i], left_len), (nodes[j], right_len))))
        live.remove(i)
        live.remove(j)
        table[new, live] = table[live, new] = (table[i, live] + table[j, live] - dij) / 2.0
        live.append(new)
        log.append(Merge(i, j, new, crit, left_len, right_len))
        new += 1

    p, q = live
    final = float(table[p, q])
    nodes.append(TreeNode(new, children=((nodes[p], final / 2.0), (nodes[q], final / 2.0))))
    log.append(Merge(p, q, new, final, final / 2.0, final / 2.0, closing=True))

    return GuideTree(
        method="nj",
        taxa=m.taxa,
        nodes=tuple(nodes),
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

    def render(node: TreeNode) -> str:
        if node.is_leaf:
            return node.name
        inner = ",".join(f"{render(child)}:{fmt(length)}" for child, length in node.children)
        return f"({inner})"

    return render(tree.root) + ";"


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
    """Leaf-to-leaf path lengths through the tree, keyed by taxa-name pairs."""
    out: dict[frozenset, float] = {}

    def walk(node: TreeNode) -> list[tuple[str, float]]:
        if node.is_leaf:
            return [(node.name, 0.0)]
        groups = [
            [(name, depth + length) for name, depth in walk(child)]
            for child, length in node.children
        ]
        for a in range(len(groups)):
            for b in range(a + 1, len(groups)):
                for name_a, depth_a in groups[a]:
                    for name_b, depth_b in groups[b]:
                        out[frozenset((name_a, name_b))] = depth_a + depth_b
        return [entry for group in groups for entry in group]

    walk(tree.root)
    return out


def leaf_depths(tree: GuideTree) -> dict[str, float]:
    """Root-to-leaf path lengths (equal for an ultrametric tree)."""
    depths: dict[str, float] = {}

    def walk(node: TreeNode, depth: float):
        if node.is_leaf:
            depths[node.name] = depth
            return
        for child, length in node.children:
            walk(child, depth + length)

    walk(tree.root, 0.0)
    return depths


def merge_log_csv(tree: GuideTree) -> str:
    """Merge log as CSV (iteration, operand ids, selection value)."""
    lines = ["iteration,left,right,criterion"]
    for it, merge in enumerate(tree.merge_log, start=1):
        lines.append(f"{it},{merge.left},{merge.right},{merge.criterion:.6f}")
    return "\n".join(lines) + "\n"
