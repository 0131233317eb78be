import hashlib
import random
import warnings

import pytest

from helpers import random_dna, setup1_sequences
from promsa import (
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
import promsa.progressive


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
        assert len(log) == tree.n_leaves - 1

    def test_two_leaf_schedule(self):
        import numpy as np

        from promsa import DistanceMatrix

        tree = upgma_build(
            DistanceMatrix(("a", "b"), np.array([[0.0, 1.0], [1.0, 0.0]]))
        )
        assert len(tree.merge_log) == 1


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
        assert report.msa.row_ids() == tuple(s.id for s in seqs)

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

    def test_timings_nonnegative_and_consistent(self):
        report = progressive_align(setup1_sequences(), _config())
        t = report.timings
        assert min(t.distance_ms, t.tree_ms, t.merge_ms, t.total_ms) >= 0
        assert t.total_ms >= t.distance_ms + t.tree_ms + t.merge_ms - 1

    def test_ms_timings_derive_from_ns(self):
        t = progressive_align(setup1_sequences(), _config()).timings
        for stage in ("distance", "tree", "merge", "total"):
            assert getattr(t, f"{stage}_ms") == getattr(t, f"{stage}_ns") // 1_000_000
        assert t.total_ns >= t.distance_ns + t.tree_ns + t.merge_ns

    def test_input_validation(self):
        with pytest.raises(ValueError, match="two"):
            progressive_align([Sequence("a", "ACGT")], _config())
        with pytest.raises(ValueError, match="distinct"):
            progressive_align([Sequence("a", "AC"), Sequence("a", "GT")], _config())
        with pytest.raises(ValueError, match="gaps"):
            progressive_align([Sequence("a", "A_C"), Sequence("b", "GT")], _config())

    def test_stage_errors_are_annotated(self, monkeypatch):
        def explode(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(promsa.progressive, "pairwise_distance_matrix", explode)
        with pytest.raises(PipelineError, match="distance stage") as err:
            progressive_align(
                [Sequence("a", "ACGT"), Sequence("b", "AGT")], _config()
            )
        assert err.value.stage == "distance"

    @pytest.mark.parametrize("d_max", [float("nan"), float("inf"), -1.0])
    def test_bad_d_max_fails_the_distance_stage(self, d_max):
        seqs = [Sequence("a", "ACGTACGT"), Sequence("b", "ACGTACGA")]
        with pytest.raises(PipelineError, match="distance stage failed: d_max") as err:
            progressive_align(seqs, PipelineConfig(d_max=d_max))
        assert err.value.stage == "distance"

    @pytest.mark.parametrize("method", ["upgma", "nj"])
    def test_overflowing_distances_fail_the_tree_stage(self, method):
        # No two of these share a residue, so every pair saturates at d_max.
        seqs = [Sequence(c, c * 4) for c in "ACG"]
        message = "tree stage failed: distance table contains non-finite values"
        with pytest.raises(PipelineError, match=message) as err, pytest.warns(
            RuntimeWarning, match="overflow"
        ):
            progressive_align(seqs, PipelineConfig(guide_method=method, d_max=1e308))
        assert err.value.stage == "tree"
        # Half that aligns and warns of nothing: NJ zeroes its criterion's
        # diagonal, which the pair selection masks, before it can overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = progressive_align(seqs, PipelineConfig(guide_method=method, d_max=5e307))
        verify_msa_against_inputs(report.msa, seqs)

    def test_report_carries_intermediates(self):
        seqs = setup1_sequences()
        report = progressive_align(seqs, _config("nj"))
        assert report.distance_matrix.size == 7
        assert report.guide_tree.method == "nj"
        assert report.guide_tree.n_leaves == 7
