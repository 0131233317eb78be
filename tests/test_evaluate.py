import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    gapped_rows,
    loop_pair_counts,
    pair_loop_sp_score,
    pair_loop_sp_total_cost,
    random_dna,
)
from promsa import (
    Msa,
    ScoringScheme,
    Sequence,
    align_global,
    build_dp_matrix,
    sp_score,
    sp_total_cost,
)
from promsa.evaluate import _pair_counts


def msa_of(*rows: str) -> Msa:
    return Msa(tuple(Sequence(f"r{i}", row) for i, row in enumerate(rows)))


class TestSpTotalCost:
    def test_all_matches_cost_zero(self):
        assert sp_total_cost(msa_of("AG", "AG")) == 0.0

    def test_single_gap_letter_column(self):
        assert sp_total_cost(msa_of("A_", "AT")) == 1.0

    def test_three_rows_two_mismatched_pairs(self):
        assert sp_total_cost(msa_of("A", "C", "A")) == 2.0

    def test_gap_gap_columns_free(self):
        assert sp_total_cost(msa_of("A_", "A_", "AT")) == 2.0  # two gap-letter pairs

    def test_nonnegative_and_zero_iff_identical_gapless(self):
        rng = random.Random(71)
        for _ in range(30):
            width = rng.randint(1, 10)
            rows = ["".join(rng.choice("ACGT_") for _ in range(width)) for _ in range(3)]
            for col in range(width):
                if all(r[col] == "_" for r in rows):
                    rows[0] = rows[0][:col] + "A" + rows[0][col + 1:]
            rows = [r if r.strip("_") else "A" + r[1:] for r in rows]
            msa = msa_of(*rows)
            cost = sp_total_cost(msa)
            assert cost >= 0.0
            identical_gapless = len(set(rows)) == 1 and "_" not in rows[0]
            assert (cost == 0.0) == identical_gapless

    def test_invariant_under_row_and_column_permutation(self):
        rng = random.Random(72)
        rows = ["ACG_T", "AC_TT", "GCGAT"]
        base = sp_total_cost(msa_of(*rows))
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert sp_total_cost(msa_of(*shuffled)) == base
        perm = list(range(5))
        rng.shuffle(perm)
        permuted = ["".join(r[p] for p in perm) for r in rows]
        assert sp_total_cost(msa_of(*permuted)) == base


class TestSpScore:
    def test_reference_two_row_score(self):
        assert sp_score(msa_of("ATGCG_", "_TGCAT"), ScoringScheme(3, 1, -1)) == 8

    def test_all_match_pair(self):
        assert sp_score(msa_of("AG", "AG"), ScoringScheme(3, 0, -1)) == 6

    def test_single_mismatch_column(self):
        assert sp_score(msa_of("A", "C"), ScoringScheme(3, 0, -1)) == 0

    def test_equals_dp_corner_for_pairwise_output(self):
        rng = random.Random(73)
        s = ScoringScheme(3, 0, -1)
        for _ in range(40):
            a, b = random_dna(rng, 1, 12), random_dna(rng, 1, 12)
            al = align_global(a, b, s)
            assert sp_score(Msa((al.row_a, al.row_b)), s) == build_dp_matrix(a, b, s).cells[-1][-1]


@st.composite
def msas(draw, max_depth=8):
    """Random alignments over ACGT_ without all-gap columns."""
    depth = draw(st.integers(1, max_depth))
    column = st.text("ACGT_", min_size=depth, max_size=depth).filter(
        lambda col: col.strip("_")
    )
    columns = draw(st.lists(column, min_size=1, max_size=12))
    return msa_of(*("".join(col[i] for col in columns) for i in range(depth)))


# Small scores, and the extremes ScoringScheme admits.
BOUND_SCORES = st.integers(-5, 5) | st.sampled_from((-(2**31), 2**31))


class TestPairCounts:
    @given(gapped_rows())
    def test_equals_column_loop_oracle(self, rows):
        msa = msa_of(*rows)
        tally = _pair_counts(msa)
        assert tally == loop_pair_counts(msa)
        assert all(type(count) is int for count in tally)


class TestPairLoopOracle:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    @given(msas(), st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
    def test_sp_score_equals_pair_loop(self, msa, match, mismatch, gap):
        s = ScoringScheme(match, mismatch, gap)
        assert sp_score(msa, s) == pair_loop_sp_score(msa, s)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @given(msas(), BOUND_SCORES, BOUND_SCORES, BOUND_SCORES)
    def test_sp_score_equals_pair_loop_at_the_score_bounds(self, msa, match, mismatch, gap):
        # Weighted as int64, tallies times 2**31 could wrap; as Python ints they cannot.
        s = ScoringScheme(match, mismatch, gap)
        score = sp_score(msa, s)
        assert score == pair_loop_sp_score(msa, s)
        assert type(score) is int

    @given(msas())
    def test_dyadic_total_cost_equals_pair_loop(self, msa):
        assert sp_total_cost(msa) == pair_loop_sp_total_cost(msa)

    @given(msas(max_depth=1))
    def test_single_row_scores_zero(self, msa):
        assert sp_score(msa) == 0
        assert sp_total_cost(msa) == 0.0
