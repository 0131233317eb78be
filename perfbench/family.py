"""Simulated DNA families with a known true alignment, and the Q score.

A random root sequence evolves down a tree. On every branch each site
changes under Jukes-Cantor (a change picks one of the three other bases
uniformly), and indel events arrive as a Poisson process whose lengths
are geometric. Every residue carries the id of the column it descends
from: a root column, or the insertion event that created it. Residues of
different leaves that share an id are truly homologous, which gives the
reference alignment and the sum-of-pairs recall (Q) of a test alignment
against it, as in BAliBASE.

Each leaf is finally brought to an exact target length by single-residue
indels on its own terminal branch, so every dataset of a workload has the
same shape whatever the seed.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from promsa import GAP, Msa, Sequence

BASES = "ACGT"


@dataclass(frozen=True)
class Family:
    """Gapless leaf sequences plus, per leaf, the origin id of each residue."""

    seqs: tuple[Sequence, ...]
    origins: tuple[tuple[int, ...], ...]
    keys: dict  # origin id -> Fraction giving its column order

    def true_msa(self) -> Msa:
        """The reference alignment: one column per origin some leaf keeps,
        ordered by origin key; each row's residues stay in order because
        every inserted key lies between its neighbours' keys."""
        present = sorted({o for row in self.origins for o in row}, key=lambda o: (self.keys[o], o))
        rows = []
        for seq, origins in zip(self.seqs, self.origins):
            base_of = dict(zip(origins, seq.residues))
            rows.append(Sequence(seq.id, "".join(base_of.get(o, GAP) for o in present)))
        return Msa(tuple(rows))


class _Lineage:
    """Mutable state shared by all branches of one simulation."""

    def __init__(self, rng: random.Random, root_len: int):
        self.rng = rng
        self.keys: dict[int, Fraction] = {k: Fraction(k + 1) for k in range(root_len)}
        self.end_key = Fraction(root_len + 1)
        self.next_origin = root_len

    def insert(self, seq: list, pos: int, length: int) -> None:
        lo = self.keys[seq[pos - 1][1]] if pos > 0 else Fraction(0)
        hi = self.keys[seq[pos][1]] if pos < len(seq) else self.end_key
        new = []
        for i in range(length):
            origin = self.next_origin
            self.next_origin += 1
            self.keys[origin] = lo + (hi - lo) * (i + 1) / (length + 1)
            new.append((self.rng.choice(BASES), origin))
        seq[pos:pos] = new

    def evolve(self, seq: list, t: float, indel_rate: float, mean_indel: float) -> list:
        rng = self.rng
        out = list(seq)
        p_change = 0.75 * (1.0 - math.exp(-4.0 * t / 3.0))
        for k, (base, origin) in enumerate(out):
            if rng.random() < p_change:
                out[k] = (rng.choice(BASES.replace(base, "")), origin)
        for _ in range(_poisson(rng, indel_rate * t * len(out))):
            length = _geometric(rng, mean_indel)
            if rng.random() < 0.5:
                self.insert(out, rng.randint(0, len(out)), length)
            elif len(out) > length:
                pos = rng.randrange(len(out) - length + 1)
                del out[pos:pos + length]
        return out

    def fit(self, seq: list, target: int) -> list:
        out = list(seq)
        while len(out) > target:
            del out[self.rng.randrange(len(out))]
        while len(out) < target:
            self.insert(out, self.rng.randint(0, len(out)), 1)
        return out


def _poisson(rng: random.Random, lam: float) -> int:
    # Counting unit-rate exponential arrivals stays exact for any lam.
    count, clock = 0, rng.expovariate(1.0)
    while clock < lam:
        count += 1
        clock += rng.expovariate(1.0)
    return count


def _geometric(rng: random.Random, mean: float) -> int:
    if mean <= 1.0:
        return 1
    return 1 + int(math.log(1.0 - rng.random()) / math.log(1.0 - 1.0 / mean))


def _coalescent_edges(rng: random.Random, n: int, height: float) -> tuple[int, list]:
    """Random coalescent tree over leaves 0..n-1; returns the root id and
    (parent, child, length) edges in top-down order.

    Branch lengths are scaled so that the mean leaf-to-leaf path is
    ``2 * height``, as in a star tree of that height: the overall
    divergence of a family then varies little from seed to seed, while
    the topology and the spread of pairwise distances stay random.
    """
    times = {i: 0.0 for i in range(n)}
    below = {i: 1 for i in range(n)}
    lineages = list(range(n))
    clock, node = 0.0, n
    edges = []
    while len(lineages) > 1:
        k = len(lineages)
        clock += rng.expovariate(k * (k - 1) / 2.0)
        a, b = rng.sample(lineages, 2)
        lineages = [x for x in lineages if x not in (a, b)] + [node]
        times[node] = clock
        below[node] = below[a] + below[b]
        edges += [(node, a), (node, b)]
        node += 1
    pair_paths = sum((times[p] - times[c]) * below[c] * (n - below[c]) for p, c in edges)
    scale = 2.0 * height / (pair_paths / (n * (n - 1) / 2))
    return lineages[0], [(p, c, (times[p] - times[c]) * scale) for p, c in reversed(edges)]


def simulate_family(
    rng: random.Random,
    lengths: tuple[int, ...] | list[int],
    height: float,
    indel_rate: float,
    mean_indel: float,
    star: bool = False,
) -> Family:
    """Evolve ``len(lengths)`` leaves from a random root of the mean length.

    ``height`` is half the mean leaf-to-leaf path, in expected
    substitutions per site. ``star`` puts every leaf directly under the
    root at that depth, so leaves are equally and independently diverged;
    otherwise the tree is a random coalescent. ``indel_rate`` is indel
    events per site per unit of branch length.
    """
    n = len(lengths)
    if n < 2:
        raise ValueError("a family needs at least two leaves")
    root_len = round(sum(lengths) / n)
    lineage = _Lineage(rng, root_len)
    root_seq = [(rng.choice(BASES), k) for k in range(root_len)]
    if star:
        root, edges = -1, [(-1, leaf, height) for leaf in range(n)]
    else:
        root, edges = _coalescent_edges(rng, n, height)
    at = {root: root_seq}
    for parent, child, length in edges:
        at[child] = lineage.evolve(at[parent], length, indel_rate, mean_indel)
    seqs, origins = [], []
    for leaf, target in enumerate(lengths):
        residues = lineage.fit(at[leaf], target)
        seqs.append(Sequence(f"t{leaf + 1}", "".join(base for base, _ in residues)))
        origins.append(tuple(origin for _, origin in residues))
    return Family(tuple(seqs), tuple(origins), lineage.keys)


def q_score(test: Msa, family: Family) -> float:
    """Share of truly homologous residue pairs that ``test`` puts in one column."""
    origins_of = dict(zip((s.id for s in family.seqs), family.origins))
    columns: list[list[int]] = [[] for _ in range(test.width)]
    for row in test.rows:
        origins = iter(origins_of[row.id])
        for col, symbol in enumerate(row.residues):
            if symbol != GAP:
                columns[col].append(next(origins))
    correct = sum(_pairs(Counter(column)) for column in columns)
    total = _pairs(Counter(o for row in family.origins for o in row))
    if total == 0:
        raise ValueError("the family has no homologous residue pairs")
    return correct / total


def _pairs(counts: Counter) -> int:
    return sum(c * (c - 1) // 2 for c in counts.values())
