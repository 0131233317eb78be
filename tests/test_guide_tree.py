import hashlib
import math
import random
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    masked_closest_pair,
    newick_leaf_sets,
    parse_newick,
    random_additive,
    random_ultrametric,
    recursive_leaf_depths,
    recursive_newick,
    recursive_tree_distances,
    scan_argmin_pair,
    working_table_nj_build,
    working_table_upgma_build,
)
from promsa import (
    DistanceMatrix,
    GuideTree,
    Merge,
    NjWorkspace,
    Sequence,
    nj_build,
    nj_rates,
    pairwise_distance_matrix,
    to_newick,
    tree_distances,
    upgma_build,
)
from promsa.guide_tree import BuildStats, _closest_pair, _rates

# Additive distances realized by the tree ((a:1,b:2),(c:3,d:4)) with an
# internal edge of length 5.
NJ4_TAXA = ("a", "b", "c", "d")
NJ4_VALUES = np.array(
    [
        [0.0, 3.0, 9.0, 10.0],
        [3.0, 0.0, 10.0, 11.0],
        [9.0, 10.0, 0.0, 7.0],
        [10.0, 11.0, 7.0, 0.0],
    ]
)


def nj4_matrix() -> DistanceMatrix:
    return DistanceMatrix(NJ4_TAXA, NJ4_VALUES.copy())


def mirror_rounding_matrix() -> DistanceMatrix:
    """Four taxa whose NJ criterion rounds its mirror entries apart at the
    first join: (d - u_3) - u_2 reads -7.450000000000001, below its mirror
    and below (0, 1), which reads -7.45 as (2, 3) does."""
    values = np.array(
        [[0, 2.8, 2.6, 4.6], [2.8, 0, 2.5, 5.2], [2.6, 2.5, 0, 0.8], [4.6, 5.2, 0.8, 0]]
    )
    return DistanceMatrix(NJ4_TAXA, values)


def upgma3_matrix() -> DistanceMatrix:
    values = np.array([[0.0, 2.0, 4.0], [2.0, 0.0, 4.0], [4.0, 4.0, 0.0]])
    return DistanceMatrix(("a", "b", "c"), values)


class TestUpgma:
    def test_three_taxon_example(self):
        tree = upgma_build(upgma3_matrix())
        assert [(m.left, m.right, m.new) for m in tree.merge_log] == [(0, 1, 3), (2, 3, 4)]
        assert tree.merge_log[0].criterion == 2.0
        # heights 1 then 2; branch lengths a:1 b:1 c:2 and 1 for the inner edge
        assert [(m.left_length, m.right_length) for m in tree.merge_log] == [
            (1.0, 1.0),
            (2.0, 1.0),
        ]
        depths = recursive_leaf_depths(tree)
        assert depths == {"a": 2.0, "b": 2.0, "c": 2.0}
        d = tree_distances(tree)
        assert d[frozenset(("a", "b"))] == pytest.approx(2.0)
        assert d[frozenset(("a", "c"))] == pytest.approx(4.0)

    def test_two_taxa(self):
        m = DistanceMatrix(("a", "b"), np.array([[0.0, 5.0], [5.0, 0.0]]))
        tree = upgma_build(m)
        assert to_newick(tree) == "(a:2.500000,b:2.500000);"

    def test_single_taxon_rejected(self):
        with pytest.raises(ValueError):
            upgma_build(DistanceMatrix(("a",), np.zeros((1, 1))))

    def test_weighted_update(self):
        # after joining (a, b), distance to c must be the size-weighted mean
        values = np.array(
            [
                [0.0, 1.0, 6.0, 10.0],
                [1.0, 0.0, 8.0, 10.0],
                [6.0, 8.0, 0.0, 10.0],
                [10.0, 10.0, 10.0, 0.0],
            ]
        )
        tree = upgma_build(DistanceMatrix(("a", "b", "c", "d"), values))
        # (a,b) joins first at distance 1; then d(ab,c) = (6+8)/2 = 7
        assert tree.merge_log[1].criterion == pytest.approx(7.0)

    def test_ultrametric_reconstruction(self):
        rng = random.Random(21)
        for _ in range(50):
            n = rng.randint(2, 10)
            m = random_ultrametric(rng, n)
            tree = upgma_build(m)
            d = tree_distances(tree)
            for i in range(n):
                for j in range(i + 1, n):
                    expected = m.values[i][j]
                    got = d[frozenset((m.taxa[i], m.taxa[j]))]
                    assert got == pytest.approx(expected, abs=1e-9)

    def test_ultrametric_output_depths_equal(self):
        rng = random.Random(22)
        for _ in range(20):
            m = random_ultrametric(rng, rng.randint(2, 9))
            depths = recursive_leaf_depths(upgma_build(m))
            values = list(depths.values())
            assert max(values) - min(values) < 1e-9

    def test_iteration_and_scan_counters(self):
        rng = random.Random(23)
        for n in (2, 4, 8):
            m = random_ultrametric(rng, n)
            tree = upgma_build(m)
            assert tree.stats.pairs_scanned == sum(
                k * (k - 1) // 2 for k in range(2, n + 1)
            )


class TestNjRates:
    def test_four_taxon_rates(self):
        ws = NjWorkspace.from_matrix(nj4_matrix())
        assert nj_rates(ws) == {0: 11.0, 1: 12.0, 2: 13.0, 3: 14.0}

    def test_three_equidistant(self):
        values = np.full((3, 3), 2.0)
        np.fill_diagonal(values, 0.0)
        ws = NjWorkspace.from_matrix(DistanceMatrix(("a", "b", "c"), values))
        assert nj_rates(ws) == {0: 4.0, 1: 4.0, 2: 4.0}

    def test_divisor_is_one_for_three_clusters(self):
        values = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
        ws = NjWorkspace.from_matrix(DistanceMatrix(("a", "b", "c"), values))
        rates = nj_rates(ws)
        assert rates == {0: 3.0, 1: 4.0, 2: 5.0}  # plain row sums

    def test_two_clusters_rejected(self):
        ws = NjWorkspace.from_matrix(
            DistanceMatrix(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
        )
        with pytest.raises(ValueError):
            nj_rates(ws)

    @given(st.integers(3, 40), st.data())
    def test_rates_are_numpy_row_sums_on_a_strided_block(self, n, data):
        k = data.draw(st.integers(3, n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        # The live block of nj_build's table: k x k, rows n + 1 apart.
        block = rng.uniform(0.0, 1.0, size=(n + 1, n + 1))[:k, :k]
        rates = _rates(block, np.empty(k))
        assert rates.tobytes() == (np.sum(block, axis=1) / (k - 2)).tobytes()


class TestNjBuild:
    def test_first_iteration_criterion(self):
        tree = nj_build(nj4_matrix())
        first = tree.merge_log[0]
        assert (first.left, first.right) == (0, 1)  # tie with (c,d) broken by index
        assert first.criterion == pytest.approx(-20.0)

    def test_first_join_is_the_upper_minimum_when_a_mirror_rounds_below(self):
        m = mirror_rounding_matrix()
        u = m.values.sum(axis=1) / 2
        scores = inf_diagonal((m.values - u[:, None]) - u[None, :])
        # The unmasked first minimum lies below the diagonal ...
        assert divmod(int(scores.argmin()), 4) == (3, 2)
        assert scores[3, 2] == -7.450000000000001
        # ... so the join is the first upper minimum, not (3, 2) or its mirror.
        first = nj_build(m).merge_log[0]
        assert (first.left, first.right, first.criterion) == (0, 1, -7.45)

    def test_recovers_additive_tree_exactly(self):
        tree = nj_build(nj4_matrix())
        log = tree.merge_log
        assert [(m.left, m.right) for m in log] == [(0, 1), (2, 3), (4, 5)]
        assert log[0].left_length == pytest.approx(1.0, abs=1e-9)
        assert log[0].right_length == pytest.approx(2.0, abs=1e-9)
        assert log[1].left_length == pytest.approx(3.0, abs=1e-9)
        assert log[1].right_length == pytest.approx(4.0, abs=1e-9)
        assert tree.final_edge_length == pytest.approx(5.0, abs=1e-9)
        # path lengths reproduce the input matrix
        d = tree_distances(tree)
        for i in range(4):
            for j in range(i + 1, 4):
                assert d[frozenset((NJ4_TAXA[i], NJ4_TAXA[j]))] == pytest.approx(
                    NJ4_VALUES[i][j], abs=1e-9
                )

    def test_topology_quartet(self):
        newick = to_newick(nj_build(nj4_matrix()))
        sets = newick_leaf_sets(parse_newick(newick))
        assert frozenset(("a", "b")) in sets
        assert frozenset(("c", "d")) in sets

    def test_two_taxa_single_edge(self):
        m = DistanceMatrix(("a", "b"), np.array([[0.0, 3.0], [3.0, 0.0]]))
        tree = nj_build(m)
        assert tree.final_edge_length == 3.0
        assert to_newick(tree) == "(a:1.500000,b:1.500000);"

    def test_random_additive_reconstruction(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(3, 8)
            m = random_additive(rng, n)
            d = tree_distances(nj_build(m))
            for i in range(n):
                for j in range(i + 1, n):
                    assert d[frozenset((m.taxa[i], m.taxa[j]))] == pytest.approx(
                        m.values[i][j], abs=1e-9
                    )

    def test_negative_branches_kept_and_clamped_only_in_newick(self):
        # a deliberately non-additive matrix that produces a negative branch
        values = np.array(
            [
                [0.0, 4.0, 1.0, 9.0],
                [4.0, 0.0, 6.0, 2.0],
                [1.0, 6.0, 0.0, 8.0],
                [9.0, 2.0, 8.0, 0.0],
            ]
        )
        tree = nj_build(DistanceMatrix(("a", "b", "c", "d"), values))
        lengths = [m.left_length for m in tree.merge_log] + [
            m.right_length for m in tree.merge_log
        ]
        assert any(v < 0 for v in lengths)
        assert "-" in to_newick(tree)
        assert "-" not in to_newick(tree, clamp_negative=True)

    def test_iteration_and_scan_counters(self):
        rng = random.Random(32)
        for n in (2, 3, 5, 8):
            m = random_additive(rng, n)
            tree = nj_build(m)
            assert tree.stats.pairs_scanned == sum(
                k * (k - 1) // 2 for k in range(3, n + 1)
            )


class TestNewickAndOrder:
    def test_reference_newick(self):
        assert to_newick(nj_build(nj4_matrix())) == (
            "((a:1.000000,b:2.000000):2.500000,(c:3.000000,d:4.000000):2.500000);"
        )

    def test_newick_parses_back(self):
        rng = random.Random(33)
        for _ in range(10):
            m = random_additive(rng, rng.randint(3, 7))
            tree = nj_build(m)
            parsed = parse_newick(to_newick(tree))
            sets = newick_leaf_sets(parsed)
            assert frozenset(m.taxa) in sets

    def test_leaf_order_four_taxa(self):
        log = nj_build(nj4_matrix()).merge_log
        assert [(m.left, m.right) for m in log] == [(0, 1), (2, 3), (4, 5)]

    def test_leaf_order_two_taxa(self):
        m = DistanceMatrix(("x", "y"), np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert [(step.left, step.right) for step in nj_build(m).merge_log] == [(0, 1)]

    def test_leaf_order_respects_first_join(self):
        log = upgma_build(upgma3_matrix()).merge_log
        assert [(m.left, m.right) for m in log] == [(0, 1), (2, 3)]

    def test_relabeling_equivariance(self):
        rng = random.Random(34)
        m = random_additive(rng, 6)
        perm = list(range(6))
        rng.shuffle(perm)
        permuted = DistanceMatrix(
            tuple(m.taxa[p] for p in perm),
            m.values[np.ix_(perm, perm)].copy(),
        )
        splits_a = newick_leaf_sets(parse_newick(to_newick(nj_build(m))))
        splits_b = newick_leaf_sets(parse_newick(to_newick(nj_build(permuted))))
        assert splits_a == splits_b

    def test_merge_log_replays_to_topology(self):
        rng = random.Random(35)
        for build in (upgma_build, nj_build):
            m = random_additive(rng, 6)
            tree = build(m)
            # rebuild nested leaf groups from the log alone
            groups = {i: frozenset((name,)) for i, name in enumerate(m.taxa)}
            node_sets = set()
            for merge in tree.merge_log:
                combined = groups.pop(merge.left) | groups.pop(merge.right)
                groups[merge.new] = combined
                node_sets.add(combined)
            assert groups.popitem()[1] == frozenset(m.taxa)
            from_newick = newick_leaf_sets(parse_newick(to_newick(tree)))
            assert node_sets == from_newick


@st.composite
def live_tables(draw):
    """A symmetric table with entries 0-3 (ties everywhere), an ascending
    live subset of 2-12 ids, and a float rate per id."""
    size = draw(st.integers(2, 14))
    entries = draw(st.lists(st.integers(0, 3), min_size=size * size, max_size=size * size))
    upper = np.triu(np.array(entries, dtype=float).reshape(size, size), 1)
    live = sorted(draw(st.sets(st.integers(0, size - 1), min_size=2, max_size=12)))
    rate = st.floats(-4.0, 4.0, allow_nan=False) | st.sampled_from([0.0, 0.5, 1.0])
    rates = np.array(draw(st.lists(rate, min_size=size, max_size=size)))
    return upper + upper.T, live, rates


def closest_ids(scores: np.ndarray, live: list[int]) -> tuple[int, int, float]:
    """``_closest_pair`` of the table over ``live``, with positions read as ids."""
    row, col, value = _closest_pair(scores)
    return live[row], live[col], value


def inf_diagonal(table: np.ndarray) -> np.ndarray:
    """A copy of ``table`` with +inf on its diagonal, as ``upgma_build`` keeps it."""
    out = table.copy()
    np.fill_diagonal(out, np.inf)
    return out


def upper_only(scores: np.ndarray) -> np.ndarray:
    """A copy of ``scores`` with +inf on the diagonal and the lower triangle,
    as ``nj_build`` masks its criterion."""
    out = scores.copy()
    np.copyto(out, np.inf, where=np.tri(len(out), dtype=bool))
    return out


@st.composite
def signed_inf_diagonal_tables(draw):
    """A 2-12 square table with +inf on its diagonal, symmetric under ==:
    entries from a few values (ties everywhere, +inf sometimes, so all
    may be +inf), with each zero's sign drawn apart in each triangle."""
    k = draw(st.integers(2, 12))
    value = st.sampled_from([0.0, -0.0, 1.0, 2.5, -1.0, np.inf])
    table = np.full((k, k), np.inf)
    for i in range(k):
        for j in range(i + 1, k):
            table[i, j] = draw(value)
            flip = table[i, j] == 0 and draw(st.booleans())
            table[j, i] = -table[i, j] if flip else table[i, j]
    return table


@st.composite
def unsymmetric_inf_diagonal_tables(draw):
    """A 2-12 square table with +inf on its diagonal and each other entry
    drawn on its own, so the two triangles differ: from a few values (ties
    everywhere, both zeros, +inf), and in half the tables -inf and NaN too."""
    k = draw(st.integers(2, 12))
    pool = [0.0, -0.0, 1.0, 2.5, -1.0, np.inf]
    if draw(st.booleans()):
        pool += [-np.inf, np.nan]
    table = np.array(draw(st.lists(st.sampled_from(pool), min_size=k * k, max_size=k * k)))
    table = table.reshape(k, k)
    np.fill_diagonal(table, np.inf)
    return table


def outcome(closest, scores: np.ndarray) -> str:
    """repr of ``closest(scores)``, which shows a zero's sign, or its error."""
    try:
        return repr(closest(scores))
    except ValueError as err:
        return f"ValueError: {err}"


class TestClosestPair:
    @given(live_tables())
    def test_matches_scan_on_plain_table(self, case):
        table, live, _ = case
        expected = scan_argmin_pair(live, lambda i, j: table[i, j])
        assert closest_ids(inf_diagonal(table[np.ix_(live, live)]), live) == expected

    @given(live_tables())
    def test_matches_scan_on_nj_criterion(self, case):
        table, live, u = case
        expected = scan_argmin_pair(live, lambda i, j: table[i, j] - u[i] - u[j])
        sub_u = u[live]
        scores = table[np.ix_(live, live)] - sub_u[:, None] - sub_u[None, :]
        assert closest_ids(upper_only(scores), live) == expected

    def test_keeps_the_sign_of_a_negative_zero(self):
        # The mirror of each -0.0 reads +0.0: the value is read above the
        # diagonal, whichever triangle holds the -0.0.
        inf = np.inf
        scores = np.array([[inf, 1.0, -0.0], [1.0, inf, 0.0], [0.0, 0.0, inf]])
        row, col, value = _closest_pair(scores)
        assert (row, col) == (0, 2)
        assert math.copysign(1.0, value) == -1.0
        row, col, value = _closest_pair(scores.T)
        assert (row, col) == (0, 2)
        assert math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_a_non_finite_minimum(self, bad):
        scores = upper_only(np.full((3, 3), bad))
        with pytest.raises(ValueError, match="distance table contains non-finite values"):
            _closest_pair(scores)

    @given(
        signed_inf_diagonal_tables() | unsymmetric_inf_diagonal_tables(), st.integers(0, 3)
    )
    def test_equals_the_masked_selection_on_inf_diagonal_tables(self, table, pad):
        expected = outcome(masked_closest_pair, table)
        # Whole rows of a wider table, +inf right of the block, as upgma_build scans them.
        wide = np.hstack([table, np.full((len(table), pad), np.inf)])
        before = table.tobytes(), wide.tobytes()
        assert outcome(_closest_pair, table) == expected
        assert outcome(_closest_pair, wide) == expected
        # Bytes show a zero's sign and a NaN: nothing was written.
        assert (table.tobytes(), wide.tobytes()) == before


def scan_closest_pair(scores: np.ndarray) -> tuple[int, int, float]:
    """``_closest_pair`` as the pair-by-pair scan of ``scan_argmin_pair``."""
    row, col, value = scan_argmin_pair(list(range(len(scores))), lambda i, j: scores[i, j])
    if not math.isfinite(value):
        raise ValueError("distance table contains non-finite values")
    return row, col, value


def overflowing_matrix(n: int) -> DistanceMatrix:
    """Every off-diagonal entry 1e308: UPGMA's size-weighted sum and NJ's
    rates overflow to inf after the first join or at once."""
    values = np.full((n, n), 1e308)
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(tuple(f"t{i}" for i in range(n)), values)


# A distance far above any the pipeline makes: builders take any finite matrix.
D_BOUND = 1e300


def bound_matrix(n: int, seed: int | None) -> DistanceMatrix:
    """Every off-diagonal entry at ``D_BOUND``, as when every pair saturates
    at a huge ceiling, or with a seed a random mix of 0 and that bound."""
    if seed is None:
        values = np.full((n, n), D_BOUND)
    else:
        values = np.random.default_rng(seed).integers(0, 2, size=(n, n)) * D_BOUND
    upper = np.triu(values, 1)
    return DistanceMatrix(tuple(f"t{i}" for i in range(n)), upper + upper.T)


@st.composite
def tied_matrices(draw):
    """A seeded symmetric 2-20 taxon matrix of integer distances 0-2 or
    1-2, so most joins choose among repeated minima."""
    n = draw(st.integers(2, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(draw(st.integers(0, 1)), 3, size=(n, n)).astype(float)
    upper = np.triu(values, 1)
    return DistanceMatrix(tuple(f"t{i}" for i in range(n)), upper + upper.T)


class TestJoinScan:
    @pytest.mark.parametrize("build", [upgma_build, nj_build])
    @given(m=tied_matrices())
    def test_build_equals_pair_scan_build(self, build, m):
        with mock.patch("promsa.guide_tree._closest_pair", scan_closest_pair):
            expected = build(m)
        # repr shows every float exactly, the sign of a zero included.
        assert repr(build(m)) == repr(expected)

    @pytest.mark.parametrize("build", [upgma_build, nj_build])
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("closest", [_closest_pair, scan_closest_pair])
    def test_overflow_is_rejected(self, build, n, closest):
        with mock.patch("promsa.guide_tree._closest_pair", closest):
            with pytest.raises(ValueError, match="distance table contains non-finite values"):
                with pytest.warns(RuntimeWarning, match="overflow"):
                    build(overflowing_matrix(n))

    @pytest.mark.parametrize("build", [upgma_build, nj_build])
    @pytest.mark.parametrize("n", [3, 50, 400])
    @pytest.mark.parametrize("seed", [None, 1])
    def test_distances_at_the_d_max_bound_stay_finite(self, build, n, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = build(bound_matrix(n, seed))
        assert all(
            math.isfinite(value)
            for m in tree.merge_log
            for value in (m.criterion, m.left_length, m.right_length)
        )


def pinned_matrix(n: int) -> DistanceMatrix:
    """Seeded distances: integers 1-3 up to 12 taxa, so joins tie often;
    uniform floats in [0, 1) at 100 taxa."""
    rng = np.random.default_rng(n)
    values = rng.integers(1, 4, size=(n, n)) if n <= 12 else rng.uniform(0.0, 1.0, size=(n, n))
    upper = np.triu(values.astype(float), 1)
    return DistanceMatrix(tuple(f"t{i}" for i in range(n)), upper + upper.T)


# sha256 of repr(merge_log) + Newick; repr round-trips every float exactly.
PINNED_BUILDS = {
    ("upgma", 2): "2748920d9ae9a47e9d60601a5c08e3aba2c057d95cf760afe24fbc3f54547baa",
    ("nj", 2): "68c58b02e80fc0e6905a71cc0dc4b899186f8e5e413d42252ce7a831f64bf54f",
    ("upgma", 3): "54d5d92bc35d02158c7d22d23f2a106bbf0f1e9104e2013c2860487814c51813",
    ("nj", 3): "bdba2152bffd1862930de3f55be4ccb36aeb7f2e25f8af85848b981fe6a873dd",
    ("upgma", 4): "6457b1dddbe3e3799f4e662dbf19801af384cfa20e23a93d3b95b2359d87bba8",
    ("nj", 4): "2ead971cc092d38507dbb04045875bca5694b59e364c2598c9a9dd1e3c672e7f",
    ("upgma", 5): "c9ea0a35263ff60d5f1a18e9eb9a518c7ba165995fd6128bf8fd36d675033635",
    ("nj", 5): "714ef88de812687a1a128b7160402f524effc6e294b7c2d07e8d959f674c51a7",
    ("upgma", 6): "88a81fcab1cf0f95099c5e12b65da5758a764b2f3e2d5e10c77716d69844ea60",
    ("nj", 6): "670edf1de924c2a80d12afebe11a1ca207c499a1120fa9cb7454f014410c2a72",
    ("upgma", 7): "ea1d1f6143571645f8475fe7fdac714861aa2e822b1d92bfeab122379d61e787",
    ("nj", 7): "2d108f493a1bc2086c9dea8c858a39ca455b1bef3380eda526df5c47b14c28d1",
    ("upgma", 8): "6ef98ba256c2f20fad4d997e4ca0e82bff4a7e47eee51a66ddb75eb09a05f06b",
    ("nj", 8): "ade211afc9f038480cb6f47b700c3c3a316c72f64978e8db906fe7d56d7defb2",
    ("upgma", 9): "60d768eda8b6fec6289e5e54472f3fbdb1db6ca1a549b8f8e580ee264401428e",
    ("nj", 9): "85d028352629fa928fdf82ac7e07ae9664be3aee402d9fef20c430862ac990a6",
    ("upgma", 10): "d093519480f3e19e7c1956884f0284f1f2706c78b4577223b57e05e1cbf5dfde",
    ("nj", 10): "3d8735c13fa1b943fdd2853dc081772c971a5310eec7d5fb1c9165beccd1f0f9",
    ("upgma", 11): "bd5bcaba7efc491284869eb2f7706e7f75416ad7ae22ebc4e45306eb7cc3d921",
    ("nj", 11): "ef079897becb74bd60567b5415297b0a64db2516d81ad6520a50fc3c537ddde9",
    ("upgma", 12): "b2f7e621efffd941aa7528baea2b836213923043ebffe90307cf087e289dd950",
    ("nj", 12): "9aac478b7549822a95d97d534ecd214f824e78a627f4efcc4ced26fb97a0b615",
    ("upgma", 100): "93067e2e6c4e6dd23e6d42049b9a51c5c5d3053429429ceace50c1f81ee8306b",
    ("nj", 100): "0f9ba4d96dc0d706fc982fb42cb7c2abbcd33026167993a4c641e7972db8223a",
}


@pytest.mark.parametrize(("method", "n"), list(PINNED_BUILDS))
def test_build_matches_pinned_hash(method, n):
    tree = {"upgma": upgma_build, "nj": nj_build}[method](pinned_matrix(n))
    digest = hashlib.sha256((repr(tree.merge_log) + to_newick(tree)).encode()).hexdigest()
    assert digest == PINNED_BUILDS[(method, n)]


@st.composite
def distance_matrices(draw):
    """A seeded symmetric 2-25 taxon matrix, either of tied integers 0-3 or
    of uniform floats, so NJ branches are often negative."""
    n = draw(st.integers(2, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = rng.integers(0, 4, size=(n, n)).astype(float)
    else:
        values = rng.uniform(0.0, 10.0, size=(n, n))
    upper = np.triu(values, 1)
    return DistanceMatrix(tuple(f"t{i}" for i in range(n)), upper + upper.T)


def float_hex(values: dict) -> dict:
    return {key: float(value).hex() for key, value in values.items()}


class TestMergeLogWalks:
    @pytest.mark.parametrize("build", [upgma_build, nj_build])
    @given(m=distance_matrices())
    def test_match_recursive_oracles(self, build, m):
        tree = build(m)
        for clamp in (False, True):
            assert to_newick(tree, clamp) == recursive_newick(tree, clamp)
        assert float_hex(tree_distances(tree)) == float_hex(recursive_tree_distances(tree))


def caterpillar_matrix(n: int) -> DistanceMatrix:
    """Ultrametric ladder d(i, j) = 2 * max(i, j): UPGMA joins taxon i to
    the cluster of taxa 0..i-1 at height i, so the tree is n - 1 joins deep."""
    idx = np.arange(n, dtype=float)
    values = 2.0 * np.maximum.outer(idx, idx)
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(tuple(f"t{i}" for i in range(n)), values)


def caterpillar_tree(n: int) -> GuideTree:
    """The UPGMA tree of ``caterpillar_matrix(n)``, built from its merge log."""
    log = [Merge(0, 1, n, 2.0, 1.0, 1.0)]
    for i in range(2, n):
        log.append(Merge(i, n + i - 2, n + i - 1, 2.0 * i, float(i), 1.0))
    scanned = sum(k * (k - 1) // 2 for k in range(2, n + 1))
    return GuideTree("upgma", tuple(f"t{i}" for i in range(n)), tuple(log), BuildStats(scanned))


class TestDeepTrees:
    def test_hand_made_log_is_the_upgma_build(self):
        assert upgma_build(caterpillar_matrix(40)) == caterpillar_tree(40)

    def test_walks_do_not_recurse(self):
        n = 1200
        tree = caterpillar_tree(n)
        expected = "(t0:1.000000,t1:1.000000)"
        for i in range(2, n):
            expected = f"(t{i}:{i:.6f},{expected}:1.000000)"
        assert to_newick(tree) == expected + ";"
        assert repr(tree).count("Merge(") == n - 1

    def test_distances_of_a_600_taxon_ladder(self):
        m = caterpillar_matrix(600)
        d = tree_distances(upgma_build(m))
        assert len(d) == 600 * 599 // 2
        for i in range(600):
            for j in range(i + 1, 600):
                assert d[frozenset((m.taxa[i], m.taxa[j]))] == m.values[i, j]


@st.composite
def uniform_matrices(draw):
    """A seeded symmetric 3-60 taxon matrix of uniform floats in [0, 1),
    whose row sums round differently when summed in another memory order."""
    n = draw(st.integers(3, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.uniform(0.0, 1.0, size=(n, n)), 1)
    return DistanceMatrix(tuple(f"t{i}" for i in range(n)), upper + upper.T)


@st.composite
def signed_zero_matrices(draw):
    """A tied matrix whose zeros read -0.0 in one triangle, and on the
    diagonal or not. DistanceMatrix takes it: -0.0 < 0 is false, and
    array_equal holds +0.0 and -0.0 equal."""
    m = draw(tied_matrices())
    side = np.triu(np.ones((m.size, m.size), dtype=bool), 1)
    if draw(st.booleans()):
        side = side.T
    if draw(st.booleans()):
        side |= np.eye(m.size, dtype=bool)
    values = np.where(side & (m.values == 0), -0.0, m.values)
    return DistanceMatrix(m.taxa, values)


@st.composite
def two_letter_matrices(draw):
    """Jukes-Cantor distances of 5-100 seeded random strings of 4-12 letters
    over A and C: many exact ties and zero distances, as in the benchmark's
    100-taxon tables."""
    n = draw(st.integers(5, 100))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    seqs = [
        Sequence(f"t{i}", "".join(rng.choices("AC", k=rng.randint(4, 12)))) for i in range(n)
    ]
    return pairwise_distance_matrix(seqs)


def close_pair_matrix(n: int, i: int, j: int) -> DistanceMatrix:
    """Distance 10 between every two of n taxa but 1 between i and j, so
    both builders join i and j first, at those table positions."""
    values = np.full((n, n), 10.0)
    values[i, j] = values[j, i] = 1.0
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(tuple(f"t{k}" for k in range(n)), values)


class TestLiveTable:
    @pytest.mark.parametrize(
        ("build", "oracle"),
        [(upgma_build, working_table_upgma_build), (nj_build, working_table_nj_build)],
    )
    @settings(deadline=None)
    @given(
        m=tied_matrices() | uniform_matrices() | signed_zero_matrices() | two_letter_matrices()
    )
    @example(m=close_pair_matrix(6, 0, 5))  # the first and last live positions
    @example(m=close_pair_matrix(6, 2, 3))  # two adjacent positions
    @example(m=mirror_rounding_matrix())  # NJ's first minimum lies below the diagonal
    def test_build_equals_working_table_build(self, build, oracle, m):
        # repr shows every float exactly, the sign of a zero included.
        assert repr(build(m)) == repr(oracle(m))

    def test_workspace_table_is_the_live_table(self):
        ws = NjWorkspace.from_matrix(nj4_matrix())
        assert ws.table.shape == (4, 4) and ws.table.flags.c_contiguous
        assert ws.live == [0, 1, 2, 3]
        assert np.array_equal(ws.table, NJ4_VALUES)


class TestNewickLabels:
    def test_quotes_labels_that_need_it(self):
        taxa = ("a:1", "b,2", "c(3)", "d'4")
        tree = nj_build(DistanceMatrix(taxa, NJ4_VALUES))
        newick = to_newick(tree)
        assert newick == (
            "(('a:1':1.000000,'b,2':2.000000):2.500000,"
            "('c(3)':3.000000,'d''4':4.000000):2.500000);"
        )
        sets = newick_leaf_sets(parse_newick(newick))
        assert {frozenset(taxa[:2]), frozenset(taxa[2:]), frozenset(taxa)} <= sets

    @pytest.mark.parametrize("label", ["a b", "a\tb", "[x]", "x;y"])
    def test_whitespace_and_brackets_are_quoted(self, label):
        tree = upgma_build(DistanceMatrix((label, "z"), np.array([[0.0, 2.0], [2.0, 0.0]])))
        assert to_newick(tree) == f"('{label}':1.000000,z:1.000000);"

    def test_plain_labels_print_as_they_are(self):
        taxa = ("s1", "A_b.c-d", "x|y", "n/2")
        tree = nj_build(DistanceMatrix(taxa, NJ4_VALUES))
        assert to_newick(tree) == (
            "((s1:1.000000,A_b.c-d:2.000000):2.500000,(x|y:3.000000,n/2:4.000000):2.500000);"
        )


def test_nj_rejects_one_taxon():
    with pytest.raises(ValueError, match="need at least two taxa"):
        nj_build(DistanceMatrix(("a",), [[0.0]]))
