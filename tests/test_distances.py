import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import promsa.distances
import promsa.pairwise
from helpers import pair_loop_distance_matrix, random_dna
from promsa import (
    DistanceMatrix,
    MatchStats,
    PairwiseAlignment,
    ScoringScheme,
    Sequence,
    align_global,
    align_strings,
    column_stats,
    jukes_cantor,
    pairwise_distance_matrix,
    upgma_build,
)
from promsa.pairwise import _LANE_MIN, _chunks, batch_site_counts, site_counts


def _pair(a: str, b: str) -> PairwiseAlignment:
    return PairwiseAlignment(Sequence("a", a), Sequence("b", b), 0)


@st.composite
def repeating_inputs(draw) -> list[Sequence]:
    """Sequences drawn from a small pool of residue strings, so that repeats,
    pairs of one string and both orders of two strings all occur."""
    strings = st.integers(1, 40).flatmap(lambda k: st.text("ACGT", min_size=k, max_size=k))
    pool = draw(st.lists(strings, min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=8))
    return [Sequence(f"s{i}", residues) for i, residues in enumerate(picks)]


class TestMatchStats:
    def test_counts_must_balance(self):
        with pytest.raises(ValueError):
            MatchStats(2, 1, 4)

    def test_mismatch_fraction(self):
        assert MatchStats(3, 1, 4).mismatch_fraction == 0.25


class TestColumnStats:
    def test_identical_rows(self):
        assert column_stats(_pair("ACGT", "ACGT")) == MatchStats(4, 0, 4)

    def test_gap_column_excluded(self):
        assert column_stats(_pair("A_CT", "AGCT")) == MatchStats(3, 0, 3)

    def test_single_mismatch(self):
        assert column_stats(_pair("ACGT", "ACGA")) == MatchStats(3, 1, 4)

    def test_no_comparable_columns(self):
        with pytest.raises(ValueError, match="no gap-free columns"):
            column_stats(_pair("A_", "_T"))


class TestSiteCounts:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    @given(
        st.text("ACGT", min_size=1, max_size=40),
        st.text("ACGT", min_size=1, max_size=40),
        # (1, 1, -1) scores a match as a mismatch; (0, -5, 0) leaves
        # mismatched pairs no gap-free column.
        st.sampled_from([(3, 0, -1), (5, -4, -2), (1, 1, -1), (0, -5, 0)]),
    )
    def test_equals_column_stats_of_the_alignment(self, a, b, scores):
        s = ScoringScheme(*scores)
        try:
            stats = column_stats(align_global(a, b, s))
            expected = (stats.matches, stats.comparable_columns)
        except ValueError as err:
            assert "no gap-free columns" in str(err)
            expected = (0, 0)
        assert site_counts(a, b, s) == expected


# DNA, a two-letter alphabet, and code points beyond ASCII and the BMP.
ALPHABETS = ("ACGT", "AB", "é\u0416\U0001f600\U00010348")


class TestBatchSiteCounts:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    @given(
        st.sampled_from(ALPHABETS).flatmap(
            lambda alphabet: st.lists(
                st.tuples(*[st.text(alphabet, min_size=1, max_size=40)] * 2),
                min_size=1,
                max_size=30,
            )
        ),
        # (1, 1, -1) scores a match as a mismatch; (0, -5, 0) leaves
        # mismatched pairs no gap-free column; the last needs an int64 grid.
        st.sampled_from([(3, 0, -1), (5, -4, -2), (1, 1, -1), (0, -5, 0), (2**31, 0, -1)]),
        # A cap of one cell makes every chunk a single lane.
        st.sampled_from([1, 200, 3000, 2**16]),
        st.sampled_from([1, 3]),
    )
    def test_equals_site_counts_pair_by_pair(self, pairs, scores, cap, lane_min):
        s = ScoringScheme(*scores)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(promsa.pairwise, "_LANE_CELLS", cap)
            mp.setattr(promsa.pairwise, "_LANE_MIN", lane_min)
            matches, comparable = batch_site_counts(pairs, s)
        assert list(zip(matches.tolist(), comparable.tolist())) == [
            site_counts(a, b, s) for a, b in pairs
        ]

    def test_lane_minimum_decides_the_path(self, monkeypatch):
        calls = []

        def counting_align(a, b, s):
            calls.append((a, b))
            return align_strings(a, b, s)

        monkeypatch.setattr(promsa.pairwise, "align_strings", counting_align)
        rng = random.Random(11)
        pairs = [(random_dna(rng, 8, 16), random_dna(rng, 8, 16)) for _ in range(_LANE_MIN)]
        batch_site_counts(pairs[:-1], ScoringScheme())
        assert len(calls) == _LANE_MIN - 1
        calls.clear()
        matches, comparable = batch_site_counts(pairs, ScoringScheme())
        assert calls == []
        monkeypatch.undo()
        assert list(zip(matches.tolist(), comparable.tolist())) == [
            site_counts(a, b, ScoringScheme()) for a, b in pairs
        ]

    @given(
        st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), max_size=80),
        st.sampled_from([1, 200, 3000, 2**16]),
    )
    def test_chunks_partition_the_keys_within_the_lane_cells(self, lengths, cap):
        len_a, len_b = [m for m, _ in lengths], [n for _, n in lengths]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(promsa.pairwise, "_LANE_CELLS", cap)
            chunks = _chunks(len_a, len_b)
        assert sorted(k for chunk in chunks for k in chunk) == list(range(len(lengths)))
        for chunk in chunks:
            if len(chunk) > 1:
                m, n = max(len_a[k] for k in chunk), max(len_b[k] for k in chunk)
                assert len(chunk) * (m + 1) * (n + 1) <= cap


class TestJukesCantor:
    def test_zero_distance_at_zero_mismatches(self):
        result = jukes_cantor(MatchStats(10, 0, 10))
        assert result.value == 0.0
        assert math.copysign(1.0, result.value) == 1.0  # not -0.0
        assert not result.saturated

    def test_quarter_mismatch(self):
        # closed form evaluated at 50 decimal digits: 0.30409883108112...
        result = jukes_cantor(MatchStats(3, 1, 4))
        assert result.value == pytest.approx(0.304099, abs=1e-6)
        assert not result.saturated

    def test_tenth_mismatch(self):
        # closed form evaluated at 50 decimal digits: 0.10732563273051...
        result = jukes_cantor(MatchStats(9, 1, 10))
        assert result.value == pytest.approx(0.107326, abs=1e-6)

    def test_saturation_clamp(self):
        result = jukes_cantor(MatchStats(1, 4, 5))  # p = 0.8
        assert result.value == 10.0
        assert result.saturated
        assert jukes_cantor(MatchStats(1, 4, 5), d_max=3.5).value == 3.5

    def test_saturation_boundary(self):
        result = jukes_cantor(MatchStats(1, 3, 4))  # p = 0.75 exactly
        assert result.saturated

    def test_monotone_in_mismatch_fraction(self):
        values = [
            jukes_cantor(MatchStats(100 - k, k, 100)).value for k in range(0, 75)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_matches_direct_formula(self):
        for k, n in [(1, 7), (2, 9), (5, 11), (30, 100)]:
            p = k / n
            expected = -0.75 * math.log(1 - 4.0 * p / 3.0)
            assert jukes_cantor(MatchStats(n - k, k, n)).value == pytest.approx(expected, rel=1e-12)


@st.composite
def batched_inputs(draw) -> list[Sequence]:
    """At least 12 distinct strings of at most 20 nt, plus repeats: their
    66 or more distinct ordered pairs put at least one chunk of 64 or more
    on the lane-major path."""
    strings = st.text("ACGT", min_size=1, max_size=20)
    pool = draw(st.lists(strings, min_size=12, max_size=16, unique=True))
    picks = pool + draw(st.lists(st.sampled_from(pool), max_size=6))
    picks = draw(st.permutations(picks))
    return [Sequence(f"s{i}", residues) for i, residues in enumerate(picks)]


class TestDistanceMatrix:
    def test_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            DistanceMatrix(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError, match="diagonal"):
            DistanceMatrix(("a", "b"), np.array([[1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="finite"):
            DistanceMatrix(("a", "b"), np.array([[0.0, np.inf], [np.inf, 0.0]]))
        with pytest.raises(ValueError, match="nonnegative"):
            DistanceMatrix(("a", "b"), np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with pytest.raises(ValueError, match="distinct"):
            DistanceMatrix(("a", "a"), np.zeros((2, 2)))

    def test_csv_format(self):
        m = DistanceMatrix(("a", "b"), np.array([[0.0, 0.5], [0.5, 0.0]]))
        assert m.to_csv() == "taxon,a,b\na,0.000000,0.500000\nb,0.500000,0.000000\n"


class TestPairwiseDistanceMatrix:
    def test_identical_sequences_zero_distance(self):
        m = pairwise_distance_matrix([Sequence("a", "ACGT"), Sequence("b", "ACGT")])
        assert m.between("a", "b") == 0.0

    def test_one_mismatch_in_four(self):
        m = pairwise_distance_matrix([Sequence("a", "AAAA"), Sequence("b", "AAAT")])
        assert m.between("a", "b") == pytest.approx(0.304099, abs=1e-6)

    def test_invariants_on_random_input(self):
        rng = random.Random(5)
        seqs = [Sequence(f"s{i}", random_dna(rng, 4, 30)) for i in range(6)]
        m = pairwise_distance_matrix(seqs)
        assert np.array_equal(m.values, m.values.T)
        assert np.all(np.diag(m.values) == 0)
        assert np.all(m.values >= 0)

    def test_performs_one_alignment_per_pair(self, monkeypatch):
        calls = []

        def counting_align(a, b, s):
            calls.append((a, b))
            return align_strings(a, b, s)

        monkeypatch.setattr(promsa.pairwise, "align_strings", counting_align)
        rng = random.Random(6)
        for n in (2, 4, 7):
            calls.clear()
            seqs = [Sequence(f"s{i}", random_dna(rng, 4, 12)) for i in range(n)]
            pairwise_distance_matrix(seqs)
            assert len(calls) == n * (n - 1) // 2
            assert len(set(calls)) == len(calls)

    def test_aligns_each_distinct_ordered_residue_pair_once(self, monkeypatch):
        calls = []

        def counting_align(a, b, s):
            calls.append((a, b))
            return align_strings(a, b, s)

        monkeypatch.setattr(promsa.pairwise, "align_strings", counting_align)
        # Under the default scheme the two orders of x and y give different
        # distances, so (s1, s2) must not reuse the value of (s0, s1).
        x, y = "GAAAGTTC", "ATCGAAA"
        picks = [x, y, x, "ACGT", y, "ACGT", x, "ACGA"]
        seqs = [Sequence(f"s{i}", residues) for i, residues in enumerate(picks)]
        m = pairwise_distance_matrix(seqs)
        keys = {(picks[i], picks[j]) for i, j in combinations(range(len(picks)), 2)}
        assert len(calls) == len(keys) < len(picks) * (len(picks) - 1) // 2
        assert set(calls) == keys
        assert m.between("s0", "s1") == pytest.approx(2.283392, abs=1e-6)
        assert m.between("s1", "s2") == 0.0

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @given(
        repeating_inputs(),
        # The last scheme leaves mismatched pairs no gap-free column.
        st.sampled_from([(3, 0, -1), (5, -4, -2), (1, 0, -3), (0, -5, 0)]),
        st.sampled_from([10.0, 0.5]),
    )
    def test_matches_pair_loop_oracle(self, seqs, scores, d_max):
        s = ScoringScheme(*scores)

        def outcome(distance_matrix):
            try:
                return distance_matrix(seqs, s, d_max).values.tobytes()
            except ValueError as err:
                return str(err)

        assert outcome(pairwise_distance_matrix) == outcome(pair_loop_distance_matrix)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @given(
        batched_inputs(),
        # The last scheme leaves mismatched pairs no gap-free column.
        st.sampled_from([(3, 0, -1), (5, -4, -2), (1, 0, -3), (0, -5, 0)]),
        st.sampled_from([10.0, 0.5]),
        # Small budgets put some pairs over it, at any place in row order.
        st.sampled_from([None, 150, 300]),
    )
    def test_matches_pair_loop_oracle_above_the_lane_minimum(self, seqs, scores, d_max, budget):
        s = ScoringScheme(*scores)

        def outcome(distance_matrix):
            try:
                return distance_matrix(seqs, s, d_max).values.tobytes()
            except ValueError as err:
                return str(err)

        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(promsa.pairwise, "MAX_DP_CELLS", budget)
                mp.setattr(promsa.distances, "MAX_DP_CELLS", budget)
            assert outcome(pairwise_distance_matrix) == outcome(pair_loop_distance_matrix)

    def test_no_per_pair_alignment_above_the_lane_minimum(self, monkeypatch):
        calls = []

        def counting_align(a, b, s):
            calls.append((a, b))
            return align_strings(a, b, s)

        monkeypatch.setattr(promsa.pairwise, "align_strings", counting_align)
        rng = random.Random(12)
        seqs = [Sequence(f"s{i}", random_dna(rng, 12, 12)) for i in range(16)]
        assert len(seqs) * (len(seqs) - 1) // 2 >= _LANE_MIN
        m = pairwise_distance_matrix(seqs)
        assert calls == []
        monkeypatch.undo()
        oracle = pair_loop_distance_matrix(seqs, ScoringScheme(), 10.0)
        assert m.values.tobytes() == oracle.values.tobytes()

    def test_errors_name_the_pair(self):
        # a zero gap penalty with a harsh mismatch makes the aligner prefer
        # an all-gap-column alignment, leaving no comparable sites
        with pytest.warns(UserWarning, match="two gaps"):
            scheme = ScoringScheme(0, -5, 0)
        with pytest.raises(ValueError, match=r"pair \(a, b\)"):
            pairwise_distance_matrix([Sequence("a", "A"), Sequence("b", "T")], scheme)

    def test_requires_two_distinct_gapless(self):
        with pytest.raises(ValueError, match="two"):
            pairwise_distance_matrix([Sequence("a", "ACGT")])
        with pytest.raises(ValueError, match="distinct"):
            pairwise_distance_matrix([Sequence("a", "AC"), Sequence("a", "GT")])
        with pytest.raises(ValueError, match="gaps"):
            pairwise_distance_matrix([Sequence("a", "A_C"), Sequence("b", "GT")])


class TestDistanceMatrixOwnsValues:
    def test_a_later_write_to_the_callers_array_does_not_show(self):
        base = np.array([[0.0, 1.0], [1.0, 0.0]])
        dm = DistanceMatrix(("a", "b"), base[:, :])
        base[0, 1] = base[1, 0] = 5.0
        assert dm.between("a", "b") == 1.0
        assert base.flags.writeable and not dm.values.flags.writeable

    def test_nested_lists_are_accepted(self):
        dm = DistanceMatrix(("a", "b", "c"), [[0, 1, 2], [1, 0, 3], [2, 3, 0]])
        assert dm.values.dtype == np.float64
        assert dm.between("b", "c") == 3.0

    def test_values_are_c_ordered_float64(self):
        values = np.asfortranarray(np.array([[0, 2, 1], [2, 0, 4], [1, 4, 0]], dtype=np.int32))
        dm = DistanceMatrix(("a", "b", "c"), values)
        assert dm.values.dtype == np.float64 and dm.values.flags.c_contiguous
        assert np.array_equal(dm.values, values)


class TestDistanceMatrixIdentity:
    def test_equality_is_a_bool_by_identity(self):
        values = np.array([[0.0, 1.0], [1.0, 0.0]])
        a, b = DistanceMatrix(("a", "b"), values), DistanceMatrix(("a", "b"), values)
        assert a == a
        assert (a == b) is False

    def test_hashable(self):
        dm = DistanceMatrix(("a", "b"), np.zeros((2, 2)))
        assert {dm: 1}[dm] == 1

    def test_taxa_list_is_stored_as_a_tuple(self):
        dm = DistanceMatrix(["a", "b"], np.zeros((2, 2)))
        assert dm.taxa == ("a", "b")
        assert upgma_build(dm).taxa == ("a", "b")


class TestDMaxCheck:
    @pytest.mark.parametrize("d_max", [float("nan"), float("inf"), -1.0])
    def test_rejected_before_any_pair_is_aligned(self, monkeypatch, d_max):
        calls = []

        def counting_align(a, b, s):
            calls.append((a, b))
            return align_strings(a, b, s)

        monkeypatch.setattr(promsa.pairwise, "align_strings", counting_align)
        # Neither pair saturates, so no distance would ever read d_max.
        seqs = [Sequence("a", "ACGTACGT"), Sequence("b", "ACGTACGA"), Sequence("c", "ACGT")]
        with pytest.raises(ValueError, match="d_max"):
            pairwise_distance_matrix(seqs, d_max=d_max)
        assert calls == []

    def test_zero_is_accepted(self):
        m = pairwise_distance_matrix([Sequence("a", "AAAA"), Sequence("b", "CCCC")], d_max=0.0)
        assert m.between("a", "b") == 0.0
