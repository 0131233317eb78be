import random
import re
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    brute_force_score,
    loop_expand_by_moves,
    random_dna,
    scalar_align_strings,
    scalar_fill,
)
from promsa import (
    PairwiseAlignment,
    ScoringScheme,
    Sequence,
    align_global,
    align_strings,
    build_dp_matrix,
)
import promsa.pairwise
from promsa.pairwise import _MEMO_SYMBOLS, MAX_DP_CELLS, _memo_align, expand_by_moves

FIG2_SCHEME = ScoringScheme(3, 1, -1)
SETUP_SCHEME = ScoringScheme(3, 0, -1)

# Full score grid for ATGCG vs TGCAT under (3, 1, -1).
FIG2_CELLS = (
    (0, -1, -2, -3, -4, -5),
    (-1, 1, 0, -1, 0, -1),
    (-2, 2, 2, 1, 0, 3),
    (-3, 1, 5, 4, 3, 2),
    (-4, 0, 4, 8, 7, 6),
    (-5, -1, 3, 7, 9, 8),
)


class TestScoringScheme:
    def test_defaults(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = ScoringScheme()
        assert (s.match_score, s.mismatch_score, s.gap_penalty) == (3, 0, -1)

    def test_warns_when_match_below_mismatch(self):
        with pytest.warns(UserWarning):
            ScoringScheme(0, 3, -1)

    @pytest.mark.parametrize("scores", [(3, 0, 1), (0, -5, 0)])
    def test_warns_when_two_gaps_beat_a_mismatch(self, scores):
        with pytest.warns(UserWarning, match=rf"gap_penalty {scores[2]}\b.*no gap-free columns"):
            ScoringScheme(*scores)

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            ScoringScheme(3, 0.5, -1)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("field", ["match_score", "mismatch_score", "gap_penalty"])
    def test_scores_bounded_by_two_to_the_31(self, field):
        for value in (2**31, -(2**31)):
            ScoringScheme(**{field: value})
        for value in (2**31 + 1, -(2**31) - 1):
            with pytest.raises(ValueError, match=field):
                ScoringScheme(**{field: value})


class TestBuildDpMatrix:
    def test_reference_grid(self):
        m = build_dp_matrix("ATGCG", "TGCAT", FIG2_SCHEME)
        assert m.cells == FIG2_CELLS
        assert m.cells[-1][-1] == 8
        assert (len(m.cells), len(m.cells[0])) == (6, 6)

    def test_single_match(self):
        m = build_dp_matrix("A", "A", SETUP_SCHEME)
        assert m.cells == ((0, -1), (-1, 3))

    def test_two_mismatches_corner_zero(self):
        # brute-force enumeration of all global alignments of AC vs GT
        assert brute_force_score("AC", "GT", 3, 0, -1) == 0
        assert build_dp_matrix("AC", "GT", SETUP_SCHEME).cells[-1][-1] == 0

    def test_gapped_input_rejected(self):
        with pytest.raises(ValueError, match="gaps"):
            build_dp_matrix(Sequence("a", "A_C"), Sequence("b", "AC"), SETUP_SCHEME)

    def test_empty_inputs_give_boundary_only_grid(self):
        m = build_dp_matrix("", "AC", SETUP_SCHEME)
        assert m.cells == ((0, -1, -2),)
        assert build_dp_matrix("", "", SETUP_SCHEME).cells == ((0,),)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_recurrence_holds_cell_by_cell(self):
        rng = random.Random(11)
        for _ in range(20):
            a, b = random_dna(rng, 1, 8), random_dna(rng, 1, 8)
            s = ScoringScheme(rng.randint(1, 5), rng.randint(-2, 2), rng.randint(-4, -1))
            cells = build_dp_matrix(a, b, s).cells
            assert cells[0][0] == 0
            for i in range(1, len(a) + 1):
                assert cells[i][0] == i * s.gap_penalty
            for j in range(1, len(b) + 1):
                assert cells[0][j] == j * s.gap_penalty
            for i in range(1, len(a) + 1):
                for j in range(1, len(b) + 1):
                    sub = s.match_score if a[i - 1] == b[j - 1] else s.mismatch_score
                    assert cells[i][j] == max(
                        cells[i - 1][j - 1] + sub,
                        cells[i - 1][j] + s.gap_penalty,
                        cells[i][j - 1] + s.gap_penalty,
                    )


class TestAlignGlobal:
    def test_reference_alignment(self):
        al = align_global("ATGCG", "TGCAT", FIG2_SCHEME)
        assert al.score == 8
        assert al.row_a.residues == "ATGCG_"
        assert al.row_b.residues == "_TGCAT"

    @pytest.mark.parametrize("x", ["A", "ACGT", "TTTTTT"])
    @pytest.mark.parametrize("s", [SETUP_SCHEME, FIG2_SCHEME, ScoringScheme(5, 2, -3)])
    def test_self_alignment_has_no_gaps(self, x, s):
        al = align_global(x, x, s)
        assert al.score == s.match_score * len(x)
        assert al.row_a.residues == x
        assert al.row_b.residues == x

    def test_empty_against_nonempty(self):
        al = align_global("", "AC", SETUP_SCHEME)
        assert al.score == -2
        assert al.row_a.residues == "__"
        assert al.row_b.residues == "AC"

    def test_both_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            align_global("", "", SETUP_SCHEME)

    def test_sequence_ids_preserved(self):
        al = align_global(Sequence("x", "ACGT"), Sequence("y", "AGT"), SETUP_SCHEME)
        assert al.row_a.id == "x"
        assert al.row_b.id == "y"

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_matches_brute_force_on_random_pairs(self):
        rng = random.Random(42)
        for _ in range(200):
            a, b = random_dna(rng, 1, 6), random_dna(rng, 1, 6)
            s = ScoringScheme(rng.randint(0, 5), rng.randint(-3, 3), rng.randint(-5, -1))
            expected = brute_force_score(a, b, s.match_score, s.mismatch_score, s.gap_penalty)
            al = align_global(a, b, s)
            assert al.score == expected, (a, b, s)

    def test_score_symmetry(self):
        rng = random.Random(43)
        for _ in range(50):
            a, b = random_dna(rng, 1, 10), random_dna(rng, 1, 10)
            assert align_global(a, b, SETUP_SCHEME).score == align_global(b, a, SETUP_SCHEME).score

    def test_score_equals_corner_and_column_rescore(self):
        rng = random.Random(44)
        for _ in range(50):
            a, b = random_dna(rng, 1, 12), random_dna(rng, 1, 12)
            al = align_global(a, b, SETUP_SCHEME)
            assert al.score == build_dp_matrix(a, b, SETUP_SCHEME).cells[-1][-1]

    def test_no_column_gaps_both_rows(self):
        rng = random.Random(45)
        for _ in range(50):
            a, b = random_dna(rng, 1, 12), random_dna(rng, 1, 12)
            al = align_global(a, b, SETUP_SCHEME)
            assert not any(
                x == "_" and y == "_"
                for x, y in zip(al.row_a.residues, al.row_b.residues)
            )

    def test_degapping_restores_inputs(self):
        al = align_global("ACGT", "ACT", SETUP_SCHEME)
        assert al.row_a.residues.replace("_", "") == "ACGT"
        assert al.row_b.residues.replace("_", "") == "ACT"
        assert al.row_b.residues == "AC_T"


class TestAlignStrings:
    def test_gap_symbol_is_ordinary(self):
        # '_' in the inputs matches itself and mismatches letters
        score, moves = align_strings("A_C", "A_C", SETUP_SCHEME)
        assert score == 9
        assert moves == "DDD"

    def test_moves_expand_consistently(self):
        score, moves = align_strings("ACGT", "ACT", SETUP_SCHEME)
        assert expand_by_moves("ACGT", moves, "DU") == "ACGT"
        assert expand_by_moves("ACT", moves, "DL") == "AC_T"

    def test_expand_rejects_short_consumption(self):
        with pytest.raises(ValueError):
            expand_by_moves("ACGT", "DD", "DU")

    @given(st.data(), st.text("DUL", max_size=80), st.sampled_from(["DU", "DL"]))
    def test_expand_equals_per_move_oracle(self, data, moves, consume):
        # Residue counts around the number the moves consume, so both the
        # exact case and the errors come up.
        used = sum(move in consume for move in moves)
        size = max(0, used + data.draw(st.integers(-2, 2)))
        residues = data.draw(st.text("ACGT", min_size=size, max_size=size))
        try:
            expected = loop_expand_by_moves(residues, moves, consume)
        except (ValueError, IndexError):
            # The oracle runs off the end (IndexError) when the moves
            # consume more than there is; both cases are a ValueError here.
            with pytest.raises(ValueError, match="does not consume the whole sequence"):
                expand_by_moves(residues, moves, consume)
        else:
            assert expand_by_moves(residues, moves, consume) == expected

    # Wide rows and narrow ones: the budget is checked before either fill,
    # by both callers of the fill.
    @pytest.mark.parametrize("fill", [align_strings, build_dp_matrix])
    @pytest.mark.parametrize("m, n", [(16384, 16384), (MAX_DP_CELLS // 31, 30)])
    def test_grid_over_the_cell_budget_rejected(self, m, n, fill):
        assert (m + 1) * (n + 1) > MAX_DP_CELLS
        with pytest.raises(ValueError, match=rf"lengths {m} and {n} .*{MAX_DP_CELLS}"):
            fill("A" * m, "A" * n, SETUP_SCHEME)

    def test_budget_is_checked_on_a_memoized_key(self, monkeypatch):
        a, b = "ACGTTGCA" * 3, "TTGCA" * 3
        align_strings(a, b, SETUP_SCHEME)
        budget = (len(a) + 1) * (len(b) + 1) - 1
        monkeypatch.setattr(promsa.pairwise, "MAX_DP_CELLS", budget)
        with pytest.raises(ValueError, match=rf"lengths {len(a)} and {len(b)} .*{budget}"):
            align_strings(a, b, SETUP_SCHEME)

    # The memo bounds what it holds by keeping no key over _MEMO_SYMBOLS.
    @pytest.mark.parametrize("extra, held", [(0, 1), (1, 0)])
    def test_memo_holds_keys_up_to_the_symbol_bound(self, extra, held):
        a = "A" * (_MEMO_SYMBOLS + extra)
        assert align_strings(a, "", SETUP_SCHEME) == (-len(a), "U" * len(a))
        assert _memo_align.cache_info().currsize == held


SYMBOLS = "ACGT_é\ud800"


class TestScalarOracle:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    @given(
        st.text(SYMBOLS, max_size=70),
        st.text(SYMBOLS, max_size=70),
        st.integers(-6, 6),
        st.integers(-6, 6),
        st.integers(-6, 6),
    )
    def test_kernel_equals_scalar_oracle(self, a, b, match, mismatch, gap):
        s = ScoringScheme(match, mismatch, gap)
        if a or b:
            # A cold call fills the grid, a warm one returns the memoized result.
            _memo_align.cache_clear()
            expected = scalar_align_strings(a, b, s)
            for _ in range(2):
                result = align_strings(a, b, s)
                assert result == expected
                assert type(result[0]) is int
            assert _memo_align.cache_info().hits == 1
        a, b = a.replace("_", ""), b.replace("_", "")
        cells = build_dp_matrix(a, b, s).cells
        assert cells == tuple(tuple(row) for row in scalar_fill(a, b, s))
        assert all(type(v) is int for row in cells for v in row)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("width", [30, 31])
    @pytest.mark.parametrize(
        "scores", [(3, 0, -1), (3, 1, -1), (0, 3, 2), (2**31, -(2**31), -(2**31))]
    )
    def test_both_sides_of_the_vector_width(self, width, scores):
        # Rows of len(b) + 1 cells: 31 runs the Python loop, 32 numpy.
        rng = random.Random(width)
        s = ScoringScheme(*scores)
        for _ in range(10):
            a = "".join(rng.choice(SYMBOLS) for _ in range(rng.randint(0, 40)))
            b = "".join(rng.choice(SYMBOLS) for _ in range(width))
            assert align_strings(a, b, s) == scalar_align_strings(a, b, s)


class TestGridDtype:
    """The numpy grid is int32 only when every F and every diagonal sum fits.

    "A" or "AA" against 40 A's (a numpy row) reaches the F bound
    min(m, n) * (match - 2 * gap), the largest value the grid holds.
    """

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize(
        ("a", "scores"),
        [
            ("A", (2**31 - 1, 0, 0)),  # F bound 2**31 - 1
            ("A", (2**31, 0, 0)),  # 2**31
            ("AA", (2**30 - 1, 0, 0)),  # 2**31 - 2
            ("AA", (2**30, 0, 0)),  # 2**31
            ("AA", (2**29, 0, -(2**28))),  # 2**31, half of it from the gap term
            # F bound 0, but a mismatch step is -2**31 - 2, below int32.
            ("AC", (1, -(2**31), 1)),
        ],
    )
    def test_matches_scalar_oracle_at_the_int32_edges(self, a, scores):
        s = ScoringScheme(*scores)
        b = "A" * 40
        assert align_strings(a, b, s) == scalar_align_strings(a, b, s)
        assert build_dp_matrix(a, b, s).cells == tuple(map(tuple, scalar_fill(a, b, s)))


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (
            lambda: PairwiseAlignment(Sequence("a", "AC"), Sequence("b", "A"), 0),
            "alignment rows differ in length",
        ),
        (lambda: align_global("A-C", "AC"), "input string contains gaps"),
    ],
    ids=["unequal-rows", "gapped-string"],
)
def test_rejects_with_its_message(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
