import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    gapped_rows,
    loop_consensus,
    msa_of_rows,
    random_dna,
    string_profile_counts,
)
from promsa import (
    Msa,
    ProfileMatrix,
    ScoringScheme,
    Sequence,
    TieBreak,
    align_profile_to_profile,
    align_sequence_to_profile,
    build_profile,
    consensus,
)

# The four-row alignment used for the worked profile example.
PROFILE_ROWS = ("AGT_C", "AGTGC", "ATTG_", "TG_GT")


def profile_msa() -> Msa:
    return Msa(tuple(Sequence(f"r{i}", row) for i, row in enumerate(PROFILE_ROWS)))


def random_msa(rng, depth=None, width=None) -> Msa:
    depth = depth or rng.randint(2, 5)
    width = width or rng.randint(2, 12)
    rows = []
    for i in range(depth):
        while True:
            residues = "".join(rng.choice("ACGT_") for _ in range(width))
            if residues.strip("_"):
                break
        rows.append(residues)
    # repair all-gap columns by forcing a letter into the first row
    for col in range(width):
        if all(row[col] == "_" for row in rows):
            rows[0] = rows[0][:col] + rng.choice("ACGT") + rows[0][col + 1:]
    return Msa(tuple(Sequence(f"r{i}", row) for i, row in enumerate(rows)))


class TestTieBreak:
    def test_lexicographic_order(self):
        tie = TieBreak()
        assert tie.choose(["T", "G"]) == "G"
        assert tie.choose(["_", "A"]) == "A"
        assert tie.choose(["_", "T"]) == "T"

    def test_seeded_random_reproducible(self):
        draws_a = [TieBreak("random", 99).choose("ACGT") for _ in range(1)]
        draws_b = [TieBreak("random", 99).choose("ACGT") for _ in range(1)]
        assert draws_a == draws_b
        tie1, tie2 = TieBreak("random", 5), TieBreak("random", 5)
        assert [tie1.choose("ACGT") for _ in range(20)] == [
            tie2.choose("ACGT") for _ in range(20)
        ]

    def test_fresh_restores_stream(self):
        tie = TieBreak("random", 7)
        first = [tie.choose("ACGT") for _ in range(5)]
        assert [tie.fresh().choose("ACGT") for _ in range(1)][0] == first[0]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            TieBreak("coin-flip")


class TestBuildProfile:
    def test_reference_frequencies(self):
        p = build_profile(profile_msa())
        assert p.width == 5
        assert p.depth == 4
        assert p.column_frequencies(0) == {"A": 0.75, "T": 0.25}
        assert p.column_frequencies(1) == {"G": 0.75, "T": 0.25}
        assert p.column_frequencies(2) == {"T": 0.75, "_": 0.25}
        assert p.column_frequencies(3) == {"G": 0.75, "_": 0.25}
        assert p.column_frequencies(4) == {"C": 0.5, "T": 0.25, "_": 0.25}

    def test_identical_rows_give_unit_frequencies(self):
        msa = Msa((Sequence("a", "ACGT"), Sequence("b", "ACGT")))
        p = build_profile(msa)
        for col, symbol in enumerate("ACGT"):
            assert p.frequency(col, symbol) == 1.0

    def test_frequencies_are_multiples_of_inverse_depth(self):
        rng = random.Random(61)
        for _ in range(20):
            msa = random_msa(rng)
            p = build_profile(msa)
            for col in range(p.width):
                total = 0.0
                for symbol in "ACGT_":
                    f = p.frequency(col, symbol)
                    k = round(f * p.depth)
                    assert abs(f * p.depth - k) < 1e-9
                    total += f
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            build_profile(Msa((Sequence("a", "ACGT"),)))

    def test_counts_are_a_read_only_int64_table(self):
        p = build_profile(profile_msa())
        assert p.counts.shape == (5, 5) and p.counts.dtype == np.int64
        with pytest.raises(ValueError):
            p.counts[0, 0] = 9
        with pytest.raises(ValueError, match="column 1 counts"):
            ProfileMatrix(((1, 0, 0, 0, 0), (1, 0, 0, 0, 1)), 1)

    @given(gapped_rows(min_depth=2))
    def test_counts_equal_string_oracle(self, rows):
        msa = msa_of_rows(rows)
        assert build_profile(msa).counts.tolist() == list(map(list, string_profile_counts(msa)))

    def test_csv_layout(self):
        lines = build_profile(profile_msa()).to_csv().splitlines()
        assert lines[0] == "symbol,0,1,2,3,4"
        assert lines[1].startswith("A,0.750000,")
        assert lines[5].startswith("-,0.000000,0.000000,0.250000,0.250000,0.250000")


class TestConsensus:
    def test_reference_consensus(self):
        assert consensus(build_profile(profile_msa())).residues == "AGTGC"

    def test_length_matches_profile(self):
        rng = random.Random(62)
        for _ in range(10):
            msa = random_msa(rng)
            p = build_profile(msa)
            assert len(consensus(p)) == p.width

    def test_companion_wins_tie_when_among_leaders(self):
        # every symbol equally frequent: the companion's C is taken
        msa = Msa((Sequence("a", "A"), Sequence("b", "C"), Sequence("c", "G"), Sequence("d", "T")))
        p = build_profile(msa)
        assert consensus(p, against="C").residues == "C"

    def test_companion_outside_leaders_falls_back_to_policy(self):
        # G and T tie at 0.5; companion supplies A, which is not a leader
        msa = Msa((Sequence("a", "G"), Sequence("b", "G"), Sequence("c", "T"), Sequence("d", "T")))
        p = build_profile(msa)
        assert consensus(p, against="A").residues == "G"

    def test_lexicographic_tie(self):
        msa = Msa((Sequence("a", "G"), Sequence("b", "T")))
        assert consensus(build_profile(msa)).residues == "G"

    def test_seeded_consensus_deterministic(self):
        msa = Msa(tuple(Sequence(f"r{i}", s) for i, s in enumerate(["AC", "CA", "GT", "TG"])))
        p = build_profile(msa)
        one = consensus(p, tie=TieBreak("random", 123)).residues
        two = consensus(p, tie=TieBreak("random", 123)).residues
        assert one == two

    @given(gapped_rows(min_depth=2), st.integers(0, 2**32 - 1), st.booleans())
    def test_equals_column_loop_oracle(self, rows, seed, with_companion):
        # Same symbols in lex and random mode, and the same generator state
        # afterwards: random draws happen in the same columns and order.
        msa = msa_of_rows(rows)
        companion = None
        if with_companion:
            companion = "".join(random.Random(seed).choice("ACGT_") for _ in range(msa.width))
        oracle_counts = string_profile_counts(msa)
        profile = build_profile(msa)
        for mode in (TieBreak.LEX, TieBreak.RANDOM):
            tie, oracle_tie = TieBreak(mode, seed), TieBreak(mode, seed)
            got = consensus(profile, against=companion, tie=tie).residues
            assert got == loop_consensus(oracle_counts, companion, oracle_tie)
            if mode == TieBreak.RANDOM:
                assert tie._rng.getstate() == oracle_tie._rng.getstate()

    def test_companion_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            consensus(build_profile(profile_msa()), against="AC")


class TestAlignSequenceToProfile:
    def test_perfect_agreement_adds_plain_row(self):
        group = Msa((Sequence("a", "AC"), Sequence("b", "AC")))
        merged = align_sequence_to_profile(group, Sequence("c", "AC"))
        assert merged.width == 2
        assert [r.residues for r in merged.rows] == ["AC", "AC", "AC"]

    def test_shorter_newcomer_gets_gap(self):
        group = Msa((Sequence("a", "ACGT"), Sequence("b", "ACGT")))
        merged = align_sequence_to_profile(group, Sequence("c", "ACT"))
        assert [r.residues for r in merged.rows] == ["ACGT", "ACGT", "AC_T"]

    def test_longer_newcomer_opens_columns_across_group(self):
        group = Msa((Sequence("a", "ACT"), Sequence("b", "ACT")))
        merged = align_sequence_to_profile(group, Sequence("c", "ACGT"))
        assert merged.width == 4
        assert [r.residues for r in merged.rows] == ["AC_T", "AC_T", "ACGT"]

    def test_gapped_newcomer_rejected(self):
        group = Msa((Sequence("a", "AC"), Sequence("b", "AC")))
        with pytest.raises(ValueError, match="gapless"):
            align_sequence_to_profile(group, Sequence("c", "A_C"))

    def test_roundtrip_on_random_inputs(self):
        rng = random.Random(63)
        for _ in range(30):
            msa = random_msa(rng)
            originals = {r.id: r.residues.replace("_", "") for r in msa.rows}
            newcomer = Sequence("new", random_dna(rng, 1, 14))
            merged = align_sequence_to_profile(msa, newcomer)
            assert merged.depth == msa.depth + 1
            for row in merged.rows[:-1]:
                assert row.residues.replace("_", "") == originals[row.id]
            assert merged.rows[-1].residues.replace("_", "") == newcomer.residues


class TestAlignProfileToProfile:
    def test_identical_groups(self):
        g = Msa((Sequence("a", "ACGT"), Sequence("b", "ACGT")))
        g2 = Msa((Sequence("c", "ACGT"), Sequence("d", "ACGT")))
        merged = align_profile_to_profile(g, g2)
        assert merged.depth == 4
        assert merged.width == 4
        assert all(r.residues == "ACGT" for r in merged.rows)

    def test_consensus_alignment_matches_pairwise_example(self):
        g1 = Msa((Sequence("a", "ATGCG"), Sequence("b", "ATGCG")))
        g2 = Msa((Sequence("c", "TGCAT"), Sequence("d", "TGCAT")))
        merged = align_profile_to_profile(g1, g2, ScoringScheme(3, 1, -1))
        assert merged.width == 6
        assert merged.rows[0].residues == "ATGCG_"
        assert merged.rows[2].residues == "_TGCAT"

    def test_row_count_is_sum(self):
        rng = random.Random(64)
        for _ in range(20):
            g1, g2 = random_msa(rng), random_msa(rng)
            merged = align_profile_to_profile(g1, g2)
            assert merged.depth == g1.depth + g2.depth

    def test_rows_keep_group_order_and_roundtrip(self):
        rng = random.Random(65)
        for _ in range(20):
            g1, g2 = random_msa(rng), random_msa(rng)
            degapped = [r.residues.replace("_", "") for r in g1.rows + g2.rows]
            merged = align_profile_to_profile(g1, g2)
            assert [r.residues.replace("_", "") for r in merged.rows] == degapped
            # constructing the Msa already checked rectangularity and
            # the absence of all-gap columns
