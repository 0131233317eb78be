import hashlib
import random
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_dna, random_merge_log, row_merge_along, setup1_sequences
from promsa import (
    Merge,
    Msa,
    PipelineConfig,
    PipelineError,
    ScoringScheme,
    Sequence,
    TieBreak,
    align_global,
    nj_build,
    progressive_align,
    to_newick,
    upgma_build,
    verify_msa_against_inputs,
    write_fasta,
)
import promsa.bench
import promsa.pairwise
import promsa.progressive
from promsa.bench import BenchRecord, run_bench
from promsa.distances import DEFAULT_D_MAX
from promsa.progressive import merge_along


# Twelve short sequences over rotated and paired letters: most consensus
# columns of their groups are ties.
TIE_HEAVY = (
    "ACGTAC", "CATGCA", "GTACGT", "TGCATG", "AACCGG", "CCAAGG",
    "GGTTAA", "TTGGCC", "ACGT", "TGCA", "AGCT", "TCGA",
)

# sha256 of the aligned FASTA followed by the Newick guide tree.
PINNED_RANDOM_TIES = {
    "upgma": "c5fe51839dd9bf9b56a9200753eee69e91261e1dc9f1ee87c09f6a2545b4f10f",
    "nj": "e92ae74d9be2a48825b539781eb2c64dc27ae74b553383b29fbe62b2434bc495",
}


def _config(method="upgma", tie=None):
    return PipelineConfig(guide_method=method, tie=tie or TieBreak())


class TestPipelineConfig:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(guide_method="parsimony")

    def test_equal_settings_compare_and_hash_equal(self):
        assert PipelineConfig() == PipelineConfig()
        assert hash(PipelineConfig()) == hash(PipelineConfig())
        used = _config("nj", TieBreak("random", 3))
        progressive_align(setup1_sequences(), used)
        assert used == _config("nj", TieBreak("random", 3))
        assert hash(used) == hash(_config("nj", TieBreak("random", 3)))
        assert used != _config("nj", TieBreak("random", 4))

    def test_reports_of_separate_runs_compare_without_error(self):
        first = progressive_align(setup1_sequences(), _config())
        second = progressive_align(setup1_sequences(), _config())
        assert first == first
        assert (first == second) is False


class TestMergeSchedule:
    def test_schedule_mirrors_merge_log(self):
        import numpy as np

        from promsa import DistanceMatrix

        values = np.array(
            [
                [0.0, 3.0, 9.0, 10.0],
                [3.0, 0.0, 10.0, 11.0],
                [9.0, 10.0, 0.0, 7.0],
                [10.0, 11.0, 7.0, 0.0],
            ]
        )
        tree = nj_build(DistanceMatrix(("a", "b", "c", "d"), values))
        log = tree.merge_log
        assert [(m.left, m.right, m.new) for m in log] == [
            (0, 1, 4),
            (2, 3, 5),
            (4, 5, 6),
        ]
        # one join per internal node of a binary tree
        assert len(log) == len(tree.taxa) - 1

    def test_two_leaf_schedule(self):
        import numpy as np

        from promsa import DistanceMatrix

        tree = upgma_build(
            DistanceMatrix(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
        )
        assert len(tree.merge_log) == 1


class TestMergeAlong:
    @pytest.mark.parametrize("tie", [TieBreak(), TieBreak("random", 7)], ids=["lex", "random"])
    @pytest.mark.parametrize("method", ["upgma", "nj"])
    def test_replays_the_pipeline_merge_stage(self, method, tie):
        seqs = [Sequence(f"t{i + 1}", residues) for i, residues in enumerate(TIE_HEAVY)]
        cfg = _config(method, tie)
        report = progressive_align(seqs, cfg)
        replayed = merge_along(seqs, report.guide_tree.merge_log, cfg.scoring, cfg.tie.fresh())
        assert replayed == report.msa

    def test_hand_built_caterpillar_log(self):
        # ((((s2, s4), s0), s1), s3): one leaf-leaf join, then a lone row
        # joins the group from either side.
        residues = ("ACGTT", "AGT", "CCGTA", "ACG", "TTGCA")
        seqs = [Sequence(f"s{i}", r) for i, r in enumerate(residues)]
        log = tuple(
            Merge(left, right, new, 0.0, 0.0, 0.0)
            for left, right, new in ((2, 4, 5), (0, 5, 6), (6, 1, 7), (3, 7, 8))
        )
        msa = merge_along(seqs, log, ScoringScheme(), TieBreak())
        verify_msa_against_inputs(msa, seqs)
        assert tuple(row.id for row in msa.rows) == tuple(seq.id for seq in seqs)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.text("ACGT", min_size=1, max_size=16), min_size=2, max_size=9),
        st.randoms(use_true_random=False),
        st.sampled_from([TieBreak.LEX, TieBreak.RANDOM]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([(3, 0, -1), (5, -4, -2), (1, 0, -3), (2, 1, -1)]),
    )
    def test_equals_row_oracle(self, residues, rng, mode, seed, scores):
        seqs = [Sequence(f"s{i}", r, f"d{i}" if i % 2 else "") for i, r in enumerate(residues)]
        log = random_merge_log(rng, len(seqs))
        s = ScoringScheme(*scores)
        msa = merge_along(seqs, log, s, TieBreak(mode, seed))
        oracle = row_merge_along(seqs, log, s, TieBreak(mode, seed))
        assert msa == oracle and hash(msa) == hash(oracle)
        assert msa.rows == oracle.rows

    def test_merged_alignment_equals_the_one_built_from_its_rows(self):
        seqs = [Sequence(f"t{i + 1}", residues) for i, residues in enumerate(TIE_HEAVY)]
        msa = progressive_align(seqs, _config("nj")).msa
        rebuilt = Msa(msa.rows)
        assert msa == rebuilt and hash(msa) == hash(rebuilt)
        assert msa.codes.tobytes() == rebuilt.codes.tobytes()

    @pytest.mark.parametrize(
        ("joins", "message"),
        [
            (((0, 1, 3),), "merge log does not join the 3 sequences into one tree"),
            (((0, 1, 3), (3, 7, 4)), "merge log joins cluster 7, which is not pending"),
            (((0, 0, 3),), "merge log joins cluster 0, which is not pending"),
            (((0, 1, 2), (2, 3, 4)), "merge log joins cluster 3, which is not pending"),
            (((0, 1, 2),), "merge log does not join the 3 sequences into one tree"),
        ],
        ids=["unjoined-cluster", "unknown-cluster", "cluster-joined-twice",
             "new-cluster-overwrites-leaf", "leaf-overwritten-and-dropped"],
    )
    def test_malformed_logs_rejected(self, joins, message):
        seqs = [Sequence(f"s{i}", r) for i, r in enumerate(("ACGT", "AGT", "CCGTA"))]
        log = tuple(Merge(left, right, new, 0.0, 0.0, 0.0) for left, right, new in joins)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            merge_along(seqs, log, ScoringScheme(), TieBreak())

    @pytest.mark.parametrize(
        ("ids", "residues", "message"),
        [
            ("aac", ("ACGTAC", "TTTT", "GGACC"), "sequence ids must be distinct"),
            ("abc", ("ACGTAC", "TT_T", "GGACC"), "sequence 'b' contains gaps"),
        ],
        ids=["repeated-id", "gapped-row"],
    )
    def test_inputs_the_pipeline_rejects_are_rejected(self, ids, residues, message):
        # The log joins the same residues under distinct ids; rows are put
        # back in input order by id, so a repeated id would lose a row.
        distinct = [Sequence(i, r.replace("_", "")) for i, r in zip("abc", residues)]
        log = progressive_align(distinct, _config()).guide_tree.merge_log
        seqs = [Sequence(i, r) for i, r in zip(ids, residues)]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            merge_along(seqs, log, ScoringScheme(), TieBreak())


class TestProgressiveAlign:
    def test_setup1_inputs_align_under_both_methods(self):
        seqs = setup1_sequences()
        for method in ("upgma", "nj"):
            report = progressive_align(seqs, _config(method))
            verify_msa_against_inputs(report.msa, seqs)
            assert report.msa.depth == 7
            widths = {len(r) for r in report.msa.rows}
            assert len(widths) == 1

    def test_two_sequences_reduce_to_pairwise(self):
        rng = random.Random(81)
        for _ in range(20):
            a = Sequence("a", random_dna(rng, 2, 20))
            b = Sequence("b", random_dna(rng, 2, 20))
            for method in ("upgma", "nj"):
                report = progressive_align([a, b], _config(method))
                direct = align_global(a, b, ScoringScheme())
                assert report.msa.rows[0].residues == direct.row_a.residues
                assert report.msa.rows[1].residues == direct.row_b.residues
                assert report.sp_score == direct.score

    def test_identical_sequences_stay_gapless(self):
        seqs = [Sequence(f"s{i}", "ACGTAC") for i in range(4)]
        report = progressive_align(seqs, _config("nj"))
        assert report.msa.width == 6
        assert all("_" not in r.residues for r in report.msa.rows)
        assert report.total_cost == 0.0

    def test_rows_ordered_by_input(self):
        seqs = setup1_sequences()
        report = progressive_align(seqs, _config("nj"))
        assert tuple(row.id for row in report.msa.rows) == tuple(s.id for s in seqs)

    def test_invariants_on_random_inputs(self):
        rng = random.Random(82)
        for trial in range(100):
            n = rng.randint(2, 8)
            seqs = [Sequence(f"s{i}", random_dna(rng, 4, 40)) for i in range(n)]
            method = ("upgma", "nj")[trial % 2]
            report = progressive_align(seqs, _config(method))
            assert isinstance(report.msa, Msa)  # construction enforced invariants
            verify_msa_against_inputs(report.msa, seqs)
            assert report.msa.width >= max(len(s) for s in seqs)
            assert report.msa.width <= sum(len(s) for s in seqs)

    def test_deterministic_reruns(self):
        rng = random.Random(83)
        seqs = [Sequence(f"s{i}", random_dna(rng, 4, 30)) for i in range(6)]
        for method in ("upgma", "nj"):
            first = progressive_align(seqs, _config(method))
            second = progressive_align(seqs, _config(method))
            assert first.msa == second.msa
            assert first.total_cost == second.total_cost
            assert first.sp_score == second.sp_score

    def test_seeded_random_ties_reproducible(self):
        rng = random.Random(84)
        seqs = [Sequence(f"s{i}", random_dna(rng, 4, 30)) for i in range(6)]
        cfg = _config("upgma", TieBreak("random", 31337))
        assert progressive_align(seqs, cfg).msa == progressive_align(seqs, cfg).msa

    @pytest.mark.parametrize(("method", "expected"), list(PINNED_RANDOM_TIES.items()))
    def test_random_ties_match_pinned_hash(self, method, expected):
        # 21 (UPGMA) and 13 (NJ) consensus columns are tied here, so the
        # hash pins which columns draw from the generator and in what order.
        seqs = [Sequence(f"t{i + 1}", residues) for i, residues in enumerate(TIE_HEAVY)]
        report = progressive_align(seqs, _config(method, TieBreak("random", 7)))
        text = write_fasta(report.msa.rows) + to_newick(report.guide_tree)
        assert hashlib.sha256(text.encode()).hexdigest() == expected

    @pytest.mark.parametrize("method", ["upgma", "nj"])
    def test_leaf_leaf_joins_reuse_the_distance_stage_alignments(self, monkeypatch, method):
        # 28 pairs, below the lane minimum: the distance stage aligns each
        # one, and a leaf-leaf join aligns one of them again.
        rng = random.Random(85)
        seqs = [Sequence(f"s{i}", random_dna(rng, 20, 20)) for i in range(8)]
        n = len(seqs)
        assert len({seq.residues for seq in seqs}) == n
        fills = []
        fill = promsa.pairwise._fill

        def counting_fill(a, b, s):
            fills.append((a, b))
            return fill(a, b, s)

        monkeypatch.setattr(promsa.pairwise, "_fill", counting_fill)
        report = progressive_align(seqs, _config(method))
        leaf_leaf = sum(step.right < n for step in report.guide_tree.merge_log)
        assert leaf_leaf >= 1
        assert len(fills) == n * (n - 1) // 2 + n - 1 - leaf_leaf

    def test_every_bench_run_fills_its_own_grids(self, monkeypatch):
        # The input above: each run fills what it aligns, whatever ran before.
        rng = random.Random(85)
        seqs = [Sequence(f"s{i}", random_dna(rng, 20, 20)) for i in range(8)]
        n = len(seqs)
        fills = []
        fill = promsa.pairwise._fill

        def counting_fill(a, b, s):
            fills.append((a, b))
            return fill(a, b, s)

        runs = []

        def counting_align(seqs, cfg):
            before = len(fills)
            report = progressive_align(seqs, cfg)
            leaf_leaf = sum(step.right < n for step in report.guide_tree.merge_log)
            runs.append((len(fills) - before, n * (n - 1) // 2 + n - 1 - leaf_leaf))
            return report

        monkeypatch.setattr(promsa.pairwise, "_fill", counting_fill)
        monkeypatch.setattr(promsa.bench, "progressive_align", counting_align)
        run_bench(["large"], reps=2, seed=0, large_seqs=seqs)
        assert len(runs) == 4
        assert [filled for filled, _ in runs] == [expected for _, expected in runs]

    def test_timings_nonnegative_and_consistent(self):
        report = progressive_align(setup1_sequences(), _config())
        t = report.timings
        assert min(t.distance_ns, t.tree_ns, t.merge_ns, t.total_ns) >= 0
        assert t.total_ns == t.distance_ns + t.tree_ns + t.merge_ns

    def test_ms_timings_derive_from_ns(self):
        seqs = setup1_sequences()
        report = progressive_align(seqs, _config())
        record = BenchRecord.from_report(seqs, report, seed=0)
        for stage in ("distance", "tree", "merge", "total"):
            ns = getattr(report.timings, f"{stage}_ns")
            assert getattr(record, f"{stage}_ms") == ns // 1_000_000

    def test_input_validation(self):
        with pytest.raises(ValueError, match="two"):
            progressive_align([Sequence("a", "ACGT")], _config())
        with pytest.raises(ValueError, match="distinct"):
            progressive_align([Sequence("a", "AC"), Sequence("a", "GT")], _config())
        with pytest.raises(ValueError, match="gaps"):
            progressive_align([Sequence("a", "A_C"), Sequence("b", "GT")], _config())

    @pytest.mark.parametrize(
        ("stage", "name"),
        [("distance", "pairwise_distance_matrix"), ("tree", "upgma_build"),
         ("merge", "align_global")],
    )
    def test_stage_errors_are_annotated(self, monkeypatch, stage, name):
        def explode(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(promsa.progressive, name, explode)
        with pytest.raises(PipelineError, match=f"{stage} stage failed: boom") as err:
            progressive_align(
                [Sequence("a", "ACGT"), Sequence("b", "AGT")], _config()
            )
        assert err.value.stage == stage
        assert isinstance(err.value.cause, ValueError)

    @pytest.mark.parametrize("method", ["upgma", "nj"])
    def test_saturated_pairs_align_without_warnings(self, method):
        import numpy as np

        # No two of these share a residue, so every pair saturates.
        seqs = [Sequence(c, c * 4) for c in "ACG"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = progressive_align(seqs, PipelineConfig(guide_method=method))
        values = report.distance_matrix.values
        assert values[~np.eye(len(seqs), dtype=bool)].tolist() == [DEFAULT_D_MAX] * 6
        verify_msa_against_inputs(report.msa, seqs)

    def test_report_carries_intermediates(self):
        seqs = setup1_sequences()
        report = progressive_align(seqs, _config("nj"))
        assert report.distance_matrix.size == 7
        assert report.guide_tree.method == "nj"
        assert len(report.guide_tree.taxa) == 7
