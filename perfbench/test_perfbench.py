"""Tests of the benchmark's own parts: simulator, Q score, checks, tracer.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

import dataclasses
import random

import promsa.distances
import promsa.progressive
from promsa import Msa, PipelineConfig, Sequence, progressive_align, verify_msa_against_inputs

from checks import check_report, digest, pair_sums
from family import q_score, simulate_family
from spans import Tracer
from workloads import WORKLOADS


def small_family(seed, height=0.2, indel_rate=0.3, lengths=(30,) * 6, star=False):
    return simulate_family(random.Random(seed), lengths, height, indel_rate, 2.0, star)


def test_identical_family_aligns_to_itself():
    fam = small_family(1, height=0.0, indel_rate=0.0, star=True)
    assert len({s.residues for s in fam.seqs}) == 1
    report = progressive_align(fam.seqs, PipelineConfig())
    assert report.msa == fam.true_msa()
    assert q_score(report.msa, fam) == 1.0


def test_true_alignment_scores_one_against_itself():
    for seed in range(5):
        fam = small_family(seed)
        truth = fam.true_msa()
        verify_msa_against_inputs(truth, fam.seqs)
        assert q_score(truth, fam) == 1.0


def test_q_score_counts_split_homologous_pairs():
    fam = small_family(3, height=0.0, indel_rate=0.0, lengths=(4, 4))
    a, b = fam.seqs
    shifted = Msa((Sequence(a.id, a.residues + "_"), Sequence(b.id, "_" + b.residues)))
    assert q_score(shifted, fam) == 0.0


def test_generator_is_deterministic_per_seed():
    assert small_family(7) == small_family(7)
    assert small_family(7).seqs != small_family(8).seqs


def test_workload_shape_is_fixed_across_seeds_and_jobs():
    for workload in WORKLOADS.values():
        for seed, job in ((1, 0), (2, 5)):
            fam = workload.dataset(seed, job)
            assert tuple(len(s) for s in fam.seqs) == workload.lengths
    assert WORKLOADS["family"].dataset(1, 0).seqs != WORKLOADS["family"].dataset(1, 1).seqs


def test_pair_sums_match_promsa_scores():
    fam = small_family(4)
    report = progressive_align(fam.seqs, PipelineConfig())
    match, mismatch, res_gap = pair_sums(report.msa)
    assert 3 * match - res_gap == report.sp_score
    assert mismatch + res_gap == report.total_cost
    assert check_report(report, fam.seqs, PipelineConfig().scoring) == []


def test_check_report_flags_wrong_scores_and_rows():
    fam = small_family(5)
    report = progressive_align(fam.seqs, PipelineConfig())
    scoring = PipelineConfig().scoring
    assert check_report(dataclasses.replace(report, sp_score=report.sp_score + 1), fam.seqs, scoring)
    assert check_report(dataclasses.replace(report, total_cost=0.0), fam.seqs, scoring)
    other = small_family(6).seqs
    assert check_report(report, other, scoring)


def test_tracer_counts_and_restores_the_package():
    fam = small_family(2, lengths=(20,) * 8)
    n = len(fam.seqs)
    plain = progressive_align(fam.seqs, PipelineConfig(guide_method="nj"))
    original = promsa.distances.align_global
    tracer = Tracer()
    with tracer.installed(0):
        assert promsa.distances.align_global is not original
        traced = promsa.progressive.progressive_align(fam.seqs, PipelineConfig(guide_method="nj"))
    assert promsa.distances.align_global is original
    assert promsa.progressive.progressive_align is progressive_align
    assert "__post_init__" in Msa.__dict__ and Msa.__post_init__.__module__ == "promsa.sequences"
    assert digest(traced) == digest(plain)

    wall = max(tracer.end) - min(tracer.start)
    m = tracer.job_metrics(0, wall)
    merges = sum(m[f"progressive.merges.{k}"] for k in ("leaf_leaf", "seq_profile", "profile_profile"))
    assert merges == n - 1
    assert m["distances.pairs"] == n * (n - 1) // 2
    assert m["pairwise.calls"] == n * (n - 1) // 2 + n - 1
    assert m["sequences.msa_builds"] == n
    assert m["guide_tree.pairs_scanned"] == traced.guide_tree.stats.pairs_scanned
    assert m["evaluate.pair_columns"] == 2 * n * (n - 1) // 2 * traced.msa.width
    assert "guide_tree.upgma.busy_s" not in m and m["guide_tree.nj.busy_s"] > 0
    assert 0.95 < m["trace.span_coverage"] <= 1.0
