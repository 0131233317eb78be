"""Output checks applied to every job the benchmark runs.

The sum-of-pairs values are recomputed here with an independent pair loop
(one row against all later rows at a time, vectorised over columns), so a
change to ``promsa.evaluate`` cannot agree with itself by construction.
"""

from __future__ import annotations

import hashlib

import numpy as np

from promsa import GAP, Msa, PipelineReport, ScoringScheme, to_newick, verify_msa_against_inputs


def _codes(msa: Msa) -> np.ndarray:
    return np.array([np.frombuffer(row.residues.encode(), dtype=np.uint8) for row in msa.rows])


def pair_sums(msa: Msa) -> tuple[int, int, int]:
    """(match, mismatch, residue-gap) column counts over all row pairs."""
    codes = _codes(msa)
    gap = codes == ord(GAP)
    match = mismatch = res_gap = 0
    for i in range(len(codes) - 1):
        rest_gap = gap[i + 1:]
        residues = ~(gap[i] | rest_gap)
        same = codes[i] == codes[i + 1:]
        match += int((same & residues).sum())
        mismatch += int((~same & residues).sum())
        res_gap += int((gap[i] ^ rest_gap).sum())
    return match, mismatch, res_gap


def check_report(report: PipelineReport, inputs, scoring: ScoringScheme) -> list[str]:
    """Problems found in one pipeline report; empty when it is correct."""
    problems = []
    try:
        verify_msa_against_inputs(report.msa, inputs)
    except ValueError as err:
        problems.append(f"alignment does not match inputs: {err}")
    match, mismatch, res_gap = pair_sums(report.msa)
    score = (
        match * scoring.match_score
        + mismatch * scoring.mismatch_score
        + res_gap * scoring.gap_penalty
    )
    if score != report.sp_score:
        problems.append(f"sp_score {report.sp_score} != recomputed {score}")
    # The report's total cost uses the default CostScheme: 1 per mismatch
    # and 1 per residue-gap column.
    if float(mismatch + res_gap) != report.total_cost:
        problems.append(f"total_cost {report.total_cost} != recomputed {mismatch + res_gap}")
    return problems


def digest(report: PipelineReport) -> str:
    """Hash of the aligned rows and the guide tree's Newick string."""
    h = hashlib.sha256()
    for row in report.msa.rows:
        h.update(f"{row.id}\t{row.residues}\n".encode())
    h.update(to_newick(report.guide_tree).encode())
    return h.hexdigest()
