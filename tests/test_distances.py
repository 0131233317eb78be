import csv
import math
import random
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import promsa.distances
import promsa.pairwise
from helpers import (
    column_loop_site_counts,
    full_grid_lane_counts,
    keyed,
    keyed_lane_counts,
    pair_loop_distance_matrix,
    random_dna,
    rescanning_chunks,
    rolling_row_lane_counts,
)
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
from promsa.distances import MAX_DISTANCE_BYTES, check_taxa
from promsa.pairwise import (
    _COUNT_BITS,
    _LANE_KEY_CELLS,
    _LANE_MIN,
    _PREF_SHIFT,
    _SCORE_SHIFT,
    _chunks,
    _diag_steps,
    _grid_dtype,
    batch_site_counts,
    site_counts,
)


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


# DNA, a two-letter alphabet, and code points beyond ASCII and the BMP.
ALPHABETS = ("ACGT", "AB", "é\u0416\U0001f600\U00010348")


def _strings(alphabet: str, longest: int) -> st.SearchStrategy[str]:
    """Strings over ``alphabet`` whose length is drawn evenly from 0 to ``longest``."""
    return st.integers(0, longest).flatmap(lambda k: st.text(alphabet, min_size=k, max_size=k))


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

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @given(
        # Up to 60 symbols: rows of both the Python and the numpy fill.
        st.sampled_from(ALPHABETS).flatmap(
            lambda alphabet: st.tuples(_strings(alphabet, 60), _strings(alphabet, 60))
        ),
        # The default scores and their negation, under which gaps outscore
        # every diagonal step and no column is comparable.
        st.sampled_from([(3, 0, -1), (-3, 0, 1)]),
    )
    def test_equals_the_column_loop_count(self, pair, scores):
        a, b = pair
        s = ScoringScheme(*scores)
        assert site_counts(a, b, s) == column_loop_site_counts(a, b, s)


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
            matches, comparable = batch_site_counts(*keyed(pairs), s)
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
        batch_site_counts(*keyed(pairs[:-1]), ScoringScheme())
        assert len(calls) == _LANE_MIN - 1
        calls.clear()
        matches, comparable = batch_site_counts(*keyed(pairs), ScoringScheme())
        assert calls == []
        monkeypatch.undo()
        assert list(zip(matches.tolist(), comparable.tolist())) == [
            site_counts(a, b, ScoringScheme()) for a, b in pairs
        ]

    @given(
        st.lists(st.tuples(st.integers(0, 60), st.integers(0, 60)), max_size=80),
        st.sampled_from([1, 200, 3000, 2**16]),
    )
    # Sides of 1 fill a chunk with exactly cap keys, the most a cut looks ahead.
    @example([(0, 0)] * 64, 64)
    def test_chunks_partition_the_keys_within_the_lane_cells(self, lengths, cap):
        len_a, len_b = [m for m, _ in lengths], [n for _, n in lengths]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(promsa.pairwise, "_LANE_CELLS", cap)
            chunks = _chunks(len_a, len_b)
        assert sorted(k for chunk in chunks for k in chunk) == list(range(len(lengths)))
        for chunk in chunks:
            if len(chunk) > 1:
                m, n = max(len_a[k] for k in chunk), max(len_b[k] for k in chunk)
                assert len(chunk) * (max(m, n) + 1) <= cap
        # Looking at most cap keys ahead cuts where rescanning every key left does.
        oracle = rescanning_chunks(len_a, len_b, cap)
        assert [chunk.tolist() for chunk in chunks] == [chunk.tolist() for chunk in oracle]

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(deadline=None)
    @given(
        st.sampled_from(ALPHABETS).flatmap(
            lambda alphabet: st.lists(_strings(alphabet, 40), min_size=1, max_size=6)
        ),
        st.data(),
        st.sampled_from([(3, 0, -1), (5, -4, -2), (1, 1, -1), (0, -5, 0)]),
        st.sampled_from([1, _LANE_MIN]),
    )
    def test_keys_that_share_strings_count_as_site_counts(self, pool, data, scores, lane_min):
        # Each drawn index pair (i, j) also gives (j, i) and (i, i), so keys
        # gather one string for many lanes, both orders and self-pairs.
        index = st.integers(0, len(pool) - 1)
        drawn = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=26))
        keys = [key for i, j in drawn for key in ((i, j), (j, i), (i, i))]
        key_a, key_b = (np.array(side) for side in zip(*keys))
        s = ScoringScheme(*scores)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(promsa.pairwise, "_LANE_MIN", lane_min)
            matches, comparable = batch_site_counts(pool, key_a, key_b, s)
        assert list(zip(matches.tolist(), comparable.tolist())) == [
            site_counts(pool[i], pool[j], s) for i, j in keys
        ]


@pytest.fixture
def align_calls(monkeypatch) -> list[tuple[str, str]]:
    """The (a, b) of every ``align_strings`` call that ``promsa.pairwise`` makes."""
    calls = []

    def counting_align(a, b, s):
        calls.append((a, b))
        return align_strings(a, b, s)

    monkeypatch.setattr(promsa.pairwise, "align_strings", counting_align)
    return calls


class TestLaneCounts:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(deadline=None)
    @given(
        st.sampled_from(ALPHABETS).flatmap(
            lambda alphabet: st.lists(
                st.tuples(_strings(alphabet, 220), _strings(alphabet, 220)), min_size=1, max_size=6
            )
        ),
        # (2**31, 0, -1) needs an int64 grid. Under (5, -2**31, -1) every cell
        # fits int32, but match - mismatch does not.
        st.sampled_from(
            [(3, 0, -1), (5, -4, -2), (1, 1, -1), (0, -5, 0), (2**31, 0, -1), (5, -(2**31), -1)]
        ),
    )
    def test_equals_full_grid_oracle_and_site_counts(self, pairs, scores):
        s = ScoringScheme(*scores)
        counts = list(zip(*(x.tolist() for x in keyed_lane_counts(pairs, s))))
        assert counts == list(zip(*(x.tolist() for x in full_grid_lane_counts(pairs, s))))
        assert counts == list(zip(*(x.tolist() for x in rolling_row_lane_counts(pairs, s))))
        assert counts == [site_counts(a, b, s) for a, b in pairs]

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.one_of(
                st.tuples(_strings("AB", 3), _strings("AB", 3)),  # often empty
                st.tuples(_strings("AB", 30), _strings("AB", 30)),
                # Shorter side 361, the most _LANE_KEY_CELLS admits: equal
                # strings count 361 matches, the most a count field holds here.
                st.text("AB", min_size=361, max_size=361).flatmap(
                    lambda a: st.tuples(
                        st.just(a),
                        st.sampled_from([a, a[1:] + a[:1], a[::-1]])
                        | st.text("AB", min_size=361, max_size=361),
                    )
                ),
            ),
            min_size=1,
            max_size=4,
        ),
        # At the +-2**31 score bound: the largest F, then steps of mixed sign
        # and of one sign, then the most negative step, -3 * 2**31.
        st.sampled_from(
            [
                (2**31, -(2**31), -(2**31)),
                (5, -(2**31), -1),
                (2**31, 0, -1),
                (2**31, -(2**31), 2**31),
            ]
        ),
    )
    def test_packed_keys_hold_at_the_edges(self, pairs, scores):
        s = ScoringScheme(*scores)
        counts = list(zip(*(x.tolist() for x in keyed_lane_counts(pairs, s))))
        assert counts == list(zip(*(x.tolist() for x in rolling_row_lane_counts(pairs, s))))
        assert counts == [site_counts(a, b, s) for a, b in pairs]

    def test_key_fields_fit_the_lane_key_cells(self):
        shorter = math.isqrt(_LANE_KEY_CELLS) - 1  # the longest shorter side a lane may have
        assert (shorter + 1) ** 2 <= _LANE_KEY_CELLS < (shorter + 2) ** 2
        assert shorter < 2**_COUNT_BITS
        assert _PREF_SHIFT == 2 * _COUNT_BITS and _SCORE_SHIFT == _PREF_SHIFT + 2
        step = 2**31 - 2 * -(2**31)  # the largest diagonal step |s_ij - 2g|
        assert shorter * step + step < 2 ** (63 - _SCORE_SHIFT)
        # Under the default scores every key such a lane forms is int32.
        match_step, mismatch_step = _diag_steps(ScoringScheme())
        assert shorter * match_step + match_step < 2 ** (31 - _SCORE_SHIFT)
        assert _grid_dtype(shorter, shorter, match_step, mismatch_step, _SCORE_SHIFT) is np.int32

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize(
        ("shorter", "scores", "dtype"),
        [
            (20, (100, 0, -1), np.int32),  # F up to 20 * 102 = 2040 < 2**11
            (21, (100, 0, -1), np.int64),  # 2142
            (409, (3, 0, -1), np.int32),  # 2045
            (410, (3, 0, -1), np.int64),  # 2050
            (26, (1, -2046, 0), np.int32),  # match - mismatch step 2047
            (26, (1, -2047, 0), np.int64),  # 2048, with steps 1 and -2047
            (26, (-1, -2048, 0), np.int32),  # smaller step -2048, difference 2047
            (26, (-2, -2049, 0), np.int64),  # smaller step -2049
        ],
    )
    def test_keys_are_int32_exactly_when_they_fit(self, shorter, scores, dtype):
        steps = _diag_steps(ScoringScheme(*scores))
        assert _grid_dtype(shorter, 500, *steps, _SCORE_SHIFT) is dtype

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(deadline=None, max_examples=80)
    @given(
        st.lists(st.tuples(_strings("AB", 26), _strings("AB", 26)), min_size=1, max_size=4),
        # Keys straddle the int32 limit by the chunk's shorter side (20
        # under (100, 0, -1), 2 under (0, 1000, 0), where mismatches
        # outscore matches), by match - mismatch step, or by the smaller step.
        st.sampled_from(
            [
                (3, 0, -1),
                (100, 0, -1),
                (1, -2046, 0),
                (1, -2047, 0),
                (-1, -2048, 0),
                (-2, -2049, 0),
                (0, 1000, 0),
            ]
        ),
    )
    def test_keys_on_both_sides_of_the_int32_limit(self, pairs, scores):
        s = ScoringScheme(*scores)
        counts = list(zip(*(x.tolist() for x in keyed_lane_counts(pairs, s))))
        assert counts == list(zip(*(x.tolist() for x in rolling_row_lane_counts(pairs, s))))
        assert counts == [site_counts(a, b, s) for a, b in pairs]

    def test_int32_and_int64_keys_count_alike(self, monkeypatch):
        rng = random.Random(16)
        pairs = []
        for _ in range(120):
            a = random_dna(rng, 190, 200)
            b = "".join(c if rng.random() < 0.8 else rng.choice("ACGT") for c in a[rng.randrange(9) :])
            pairs.append((a, b))
        s = ScoringScheme()
        m, n = max(len(a) for a, _ in pairs), max(len(b) for _, b in pairs)
        assert _grid_dtype(m, n, *_diag_steps(s), _SCORE_SHIFT) is np.int32
        narrow = keyed_lane_counts(pairs, s)
        monkeypatch.setattr(promsa.pairwise, "_grid_dtype", lambda *args: np.int64)
        wide = keyed_lane_counts(pairs, s)
        assert all(map(np.array_equal, narrow, wide))
        assert 0 < narrow[0].min() and narrow[0].max() < narrow[1].max()

    @pytest.mark.parametrize(("lanes", "full_chunks"), [(20, 4), (64, 2), (100, 1)])
    def test_key_past_a_full_chunk_stays_on_the_lane_path(
        self, monkeypatch, align_calls, lanes, full_chunks
    ):
        monkeypatch.setattr(promsa.pairwise, "_LANE_CELLS", lanes * 13)
        rng = random.Random(lanes)
        pairs = [
            (random_dna(rng, 12, 12), random_dna(rng, 12, 12))
            for _ in range(lanes * full_chunks + 1)
        ]
        assert len(pairs) >= _LANE_MIN
        sizes = [len(chunk) for chunk in _chunks([12] * len(pairs), [12] * len(pairs))]
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= lanes
        matches, comparable = batch_site_counts(*keyed(pairs), ScoringScheme())
        assert align_calls == []
        monkeypatch.undo()
        assert list(zip(matches.tolist(), comparable.tolist())) == [
            site_counts(a, b, ScoringScheme()) for a, b in pairs
        ]

    def test_pairs_over_the_key_cells_go_pair_by_pair(self, monkeypatch, align_calls):
        monkeypatch.setattr(promsa.pairwise, "_LANE_KEY_CELLS", 13 * 13)
        rng = random.Random(14)
        pairs = [(random_dna(rng, 12, 12), random_dna(rng, 11, 13)) for _ in range(_LANE_MIN)]
        matches, comparable = batch_site_counts(*keyed(pairs), ScoringScheme())
        wide = [(a, b) for a, b in pairs if (len(a) + 1) * (len(b) + 1) > 13 * 13]
        assert wide and sorted(align_calls) == sorted(wide)
        monkeypatch.undo()
        assert list(zip(matches.tolist(), comparable.tolist())) == [
            site_counts(a, b, ScoringScheme()) for a, b in pairs
        ]


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

    def test_csv_quotes_ids_with_commas_and_quotes(self):
        taxa = ("a,b", 'c"d', "e")
        m = DistanceMatrix(taxa, np.array([[0.0, 0.5, 1.0], [0.5, 0.0, 2.0], [1.0, 2.0, 0.0]]))
        rows = list(csv.reader(m.to_csv().splitlines()))
        assert rows[0] == ["taxon", *taxa]
        assert [row[0] for row in rows[1:]] == list(taxa)
        assert [[float(v) for v in row[1:]] for row in rows[1:]] == m.values.tolist()


class TestPairwiseDistanceMatrix:
    def test_identical_sequences_zero_distance(self):
        m = pairwise_distance_matrix([Sequence("a", "ACGT"), Sequence("b", "ACGT")])
        assert m.values[0, 1] == 0.0

    def test_one_mismatch_in_four(self):
        m = pairwise_distance_matrix([Sequence("a", "AAAA"), Sequence("b", "AAAT")])
        assert m.values[0, 1] == pytest.approx(0.304099, abs=1e-6)

    def test_invariants_on_random_input(self):
        rng = random.Random(5)
        seqs = [Sequence(f"s{i}", random_dna(rng, 4, 30)) for i in range(6)]
        m = pairwise_distance_matrix(seqs)
        assert np.array_equal(m.values, m.values.T)
        assert np.all(np.diag(m.values) == 0)
        assert np.all(m.values >= 0)

    def test_corrects_each_distinct_fraction_once(self, monkeypatch):
        corrections = []
        correct = promsa.distances._jukes_cantor_value

        def counting_correct(p):
            corrections.append(p)
            return correct(p)

        monkeypatch.setattr(promsa.distances, "_jukes_cantor_value", counting_correct)
        # Six pairs, which hold only two fractions: 1/4 and 0.
        seqs = [Sequence(f"s{k}", x) for k, x in enumerate(["AAAA", "CAAA", "ACAA", "AACA"])]
        distances = pairwise_distance_matrix(seqs).values[np.triu_indices(len(seqs), 1)]
        assert sorted(corrections) == [0.0, 0.25]
        assert sorted(set(distances.tolist())) == [correct(p) for p in (0.0, 0.25)]

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
        assert m.values[0, 1] == pytest.approx(2.283392, abs=1e-6)
        assert m.values[1, 2] == 0.0

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @given(
        repeating_inputs(),
        # The last scheme leaves mismatched pairs no gap-free column.
        st.sampled_from([(3, 0, -1), (5, -4, -2), (1, 0, -3), (0, -5, 0)]),
    )
    def test_matches_pair_loop_oracle(self, seqs, scores):
        s = ScoringScheme(*scores)

        def outcome(distance_matrix):
            try:
                return distance_matrix(seqs, s).values.tobytes()
            except ValueError as err:
                return str(err)

        assert outcome(pairwise_distance_matrix) == outcome(pair_loop_distance_matrix)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @given(
        batched_inputs(),
        # The last scheme leaves mismatched pairs no gap-free column.
        st.sampled_from([(3, 0, -1), (5, -4, -2), (1, 0, -3), (0, -5, 0)]),
        # Small budgets put some pairs over it, at any place in row order.
        st.sampled_from([None, 150, 300]),
    )
    def test_matches_pair_loop_oracle_above_the_lane_minimum(self, seqs, scores, budget):
        s = ScoringScheme(*scores)

        def outcome(distance_matrix):
            try:
                return distance_matrix(seqs, s).values.tobytes()
            except ValueError as err:
                return str(err)

        with pytest.MonkeyPatch.context() as mp:
            if budget is not None:
                mp.setattr(promsa.pairwise, "MAX_DP_CELLS", budget)
                mp.setattr(promsa.distances, "MAX_DP_CELLS", budget)
            assert outcome(pairwise_distance_matrix) == outcome(pair_loop_distance_matrix)

    @pytest.mark.parametrize("n_short", [4, 14])  # 21 keys, then 136: both sides of _LANE_MIN
    def test_a_pair_over_the_budget_fills_no_grid(self, monkeypatch, n_short):
        # Short-long pairs take at most 13 x 24 = 312 cells and long-long ones
        # at least 22 x 23 = 506, so the pairs over the budget come last in
        # row order, and the first of them is (s{n_short}, s{n_short + 1}).
        monkeypatch.setattr(promsa.pairwise, "MAX_DP_CELLS", 400)
        monkeypatch.setattr(promsa.distances, "MAX_DP_CELLS", 400)
        rng = random.Random(n_short)
        picks = [random_dna(rng, 12, 12) for _ in range(n_short)]
        picks += [random_dna(rng, length, length) for length in (21, 22, 23)]
        seqs = [Sequence(f"s{i}", residues) for i, residues in enumerate(picks)]
        fills = []

        def counting(name):
            fill = getattr(promsa.pairwise, name)
            return lambda *args: fills.append(name) or fill(*args)

        for name in ("_fill", "_lane_counts"):
            monkeypatch.setattr(promsa.pairwise, name, counting(name))
        message = (
            f"pair (s{n_short}, s{n_short + 1}): aligning lengths 21 and 22 needs 506 DP "
            "cells, over the budget of 400"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            pairwise_distance_matrix(seqs)
        assert fills == []

    def test_the_error_names_the_first_failed_pair_not_the_first_failed_key(self, monkeypatch):
        # Every pair is over the budget. In (a, b) order of the sorted strings
        # A, G, T the first failed key is (G, A), whose first pair is (s1, s2);
        # the first failed pair in row order is (s0, s1), of key (T, G).
        monkeypatch.setattr(promsa.pairwise, "MAX_DP_CELLS", 400)
        monkeypatch.setattr(promsa.distances, "MAX_DP_CELLS", 400)
        seqs = [Sequence("s0", "T" * 22), Sequence("s1", "G" * 21), Sequence("s2", "A" * 23)]
        message = (
            "pair (s0, s1): aligning lengths 22 and 21 needs 506 DP cells, over the budget of 400"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pairwise_distance_matrix(seqs)

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
        oracle = pair_loop_distance_matrix(seqs, ScoringScheme())
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


class TestTaxaBudget:
    def test_budget_admits_5424_sequences(self):
        check_taxa(5424)  # 14,707,176 pairs at 146 bytes: 2,147,247,696
        message = (
            "5425 sequences need about 2148039600 bytes in the distance stage, "
            f"over the budget of {MAX_DISTANCE_BYTES}"
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            check_taxa(5425)

    def test_too_many_sequences_form_no_pair(self, monkeypatch):
        # Three sequences hold 3 pairs and fit; four hold 6 and do not.
        monkeypatch.setattr(promsa.distances, "MAX_DISTANCE_BYTES", 5 * 146)
        seqs = [Sequence(f"s{i}", "ACGT"[: i + 1]) for i in range(4)]
        assert pairwise_distance_matrix(seqs[:3]).size == 3

        def no_pairs(*args, **kwargs):
            raise AssertionError("pairs were formed")

        # The stage's first calls past the check number the strings and list the keys.
        monkeypatch.setattr(promsa.distances.np, "unique", no_pairs)
        monkeypatch.setattr(promsa.distances.np, "nonzero", no_pairs)
        with pytest.raises(ValueError, match="^4 sequences need about 876 bytes .* budget of 730$"):
            pairwise_distance_matrix(seqs)


class TestDistanceMatrixOwnsValues:
    def test_a_later_write_to_the_callers_array_does_not_show(self):
        base = np.array([[0.0, 1.0], [1.0, 0.0]])
        dm = DistanceMatrix(("a", "b"), base[:, :])
        base[0, 1] = base[1, 0] = 5.0
        assert dm.values[0, 1] == 1.0
        assert base.flags.writeable and not dm.values.flags.writeable

    def test_nested_lists_are_accepted(self):
        dm = DistanceMatrix(("a", "b", "c"), [[0, 1, 2], [1, 0, 3], [2, 3, 0]])
        assert dm.values.dtype == np.float64
        assert dm.values[1, 2] == 3.0

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


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: MatchStats(-1, 1, 0), "counts must be nonnegative"),
        (lambda: MatchStats(0, 0, 0).mismatch_fraction, "no comparable columns"),
        (lambda: DistanceMatrix(("a", "b"), np.zeros((3, 3))), "expected a 2x2 matrix, got (3, 3)"),
    ],
    ids=["negative-count", "no-columns", "shape-not-taxa"],
)
def test_rejects_with_its_message(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
