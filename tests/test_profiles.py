import random
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    gapped_rows,
    loop_consensus,
    msa_of_rows,
    random_dna,
    rebuild_merge,
    string_profile_counts,
)
from promsa import (
    Msa,
    ScoringScheme,
    Sequence,
    TieBreak,
    align_profile_to_profile,
    align_sequence_to_profile,
    align_strings,
    build_profile,
    consensus,
    sp_score,
    sp_total_cost,
)
from promsa.profiles import _merge
from promsa.sequences import GAP, SYMBOLS

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

    @pytest.mark.parametrize(("mode", "seed"), [("lex", 0), ("random", 7)])
    def test_equal_mode_and_seed_compare_and_hash_equal(self, mode, seed):
        used, unused = TieBreak(mode, seed), TieBreak(mode, seed)
        used.choose("ACGT")
        assert used == unused == used.fresh()
        assert hash(used) == hash(unused)
        assert repr(used) == f"TieBreak(mode={mode!r}, seed={seed})"
        assert TieBreak(mode, seed + 1) != unused


class TestBuildProfile:
    def test_reference_frequencies(self):
        p = build_profile(profile_msa())
        assert len(p.counts) == 5
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
            assert p.column_frequencies(col) == {symbol: 1.0}

    def test_frequencies_are_multiples_of_inverse_depth(self):
        rng = random.Random(61)
        for _ in range(20):
            msa = random_msa(rng)
            p = build_profile(msa)
            for col in range(len(p.counts)):
                total = 0.0
                for f in p.column_frequencies(col).values():
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

    @given(gapped_rows(min_depth=2))
    def test_counts_equal_string_oracle(self, rows):
        msa = msa_of_rows(rows)
        oracle = string_profile_counts(msa)
        assert build_profile(msa) is msa
        assert msa.counts.tolist() == list(map(list, oracle))
        for col, counts in enumerate(oracle):
            expected = [(s, n / msa.depth) for s, n in zip(SYMBOLS, counts) if n]
            assert list(msa.column_frequencies(col).items()) == expected


class TestConsensus:
    def test_reference_consensus(self):
        assert consensus(build_profile(profile_msa())).residues == "AGTGC"

    def test_length_matches_profile(self):
        rng = random.Random(62)
        for _ in range(10):
            msa = random_msa(rng)
            p = build_profile(msa)
            assert len(consensus(p)) == len(p.counts)

    def test_lexicographic_tie(self):
        msa = Msa((Sequence("a", "G"), Sequence("b", "T")))
        assert consensus(build_profile(msa)).residues == "G"

    def test_seeded_consensus_deterministic(self):
        msa = Msa(tuple(Sequence(f"r{i}", s) for i, s in enumerate(["AC", "CA", "GT", "TG"])))
        p = build_profile(msa)
        one = consensus(p, tie=TieBreak("random", 123)).residues
        two = consensus(p, tie=TieBreak("random", 123)).residues
        assert one == two

    @given(gapped_rows(min_depth=2), st.integers(0, 2**32 - 1))
    def test_equals_column_loop_oracle(self, rows, seed):
        # Same symbols in lex and random mode, and the same generator state
        # afterwards: random draws happen in the same columns and order.
        msa = msa_of_rows(rows)
        oracle_counts = string_profile_counts(msa)
        profile = build_profile(msa)
        for mode in (TieBreak.LEX, TieBreak.RANDOM):
            tie, oracle_tie = TieBreak(mode, seed), TieBreak(mode, seed)
            got = consensus(profile, tie=tie).residues
            assert got == loop_consensus(oracle_counts, oracle_tie)
            if mode == TieBreak.RANDOM:
                assert tie._rng.getstate() == oracle_tie._rng.getstate()


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


@st.composite
def merge_operands(draw):
    """(group rows, second operand, tie mode, tie seed, scores). The second
    operand is another group's rows, or a lone row cut from or grown around
    the first group's letters, so that either side may gain no gap."""
    rows = draw(gapped_rows(min_depth=2))
    kind = draw(st.sampled_from(["group", "cut", "grown"]))
    if kind == "group":
        other = draw(gapped_rows(min_depth=2))
    else:
        letters = max(rows, key=lambda row: len(row.replace(GAP, ""))).replace(GAP, "")
        picks = draw(st.lists(st.booleans(), min_size=len(letters), max_size=len(letters)))
        if kind == "cut":
            other = "".join(x for x, keep in zip(letters, picks) if keep) or letters
        else:
            other = "".join(x + "T" * grow for x, grow in zip(letters, picks))
    return (
        rows,
        other,
        draw(st.sampled_from([TieBreak.LEX, TieBreak.RANDOM])),
        draw(st.integers(0, 2**32 - 1)),
        draw(st.sampled_from([(3, 0, -1), (5, -4, -2), (1, 0, -3), (2, 1, -1)])),
    )


class TestMerge:
    @given(merge_operands())
    def test_equals_rebuild_oracle(self, operands):
        # The merge places code blocks and carries no rows: its block must
        # equal the one rebuilt from gapped rows, whichever side gains gaps.
        # The oracle's consensus strings come from one policy, first then
        # second, as the merge draws them.
        rows, other, mode, seed, scores = operands
        s, tie = ScoringScheme(*scores), TieBreak(mode, seed)
        oracle_tie = tie.fresh()
        group = msa_of_rows(rows)
        c1 = consensus(build_profile(group), oracle_tie).residues
        if isinstance(other, str):
            second = Sequence("new", other)
            rows2, c2 = (second,), other
        else:
            second = Msa(tuple(Sequence(f"q{i}", row) for i, row in enumerate(other)))
            rows2, c2 = second.rows, consensus(build_profile(second), oracle_tie).residues
        merged = _merge(group, second, s, tie)
        oracle = rebuild_merge(group.rows, c1, rows2, c2, s)
        assert merged == oracle and hash(merged) == hash(oracle)
        assert merged.codes.tobytes() == oracle.codes.tobytes() and not merged.codes.flags.writeable
        assert "rows" not in merged.__dict__ and merged.rows == oracle.rows


def test_readers_take_the_counts_made_at_build(monkeypatch):
    msa = random_msa(random.Random(66), depth=6, width=20)
    expected = (sp_score(msa), sp_total_cost(msa), consensus(build_profile(msa)))
    monkeypatch.setattr(np, "bincount", lambda *args, **kwargs: pytest.fail("counted again"))
    assert (sp_score(msa), sp_total_cost(msa), consensus(build_profile(msa))) == expected


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: TieBreak().choose([]), "no candidates to choose from"),
        (lambda: TieBreak().choose("XAY"), "candidates not in 'ACGT_': ['X', 'Y']"),
    ],
    ids=["no-candidates", "unknown-candidates"],
)
def test_rejects_with_its_message(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
