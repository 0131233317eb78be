"""Print one SHA-256 over the outputs of the standard 48-run set.

Usage: python tools/output_digest.py

The set is every pipeline run over perfbench's three workloads at seed 1,
jobs 0-3, with both guide-tree methods and both tie-break modes. Each run
adds its rows, its tree's Newick text, its SP score and its total cost to
the hash, so two checkouts that print the same line align every input of
the set byte-identically. The script takes no options and writes no file.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def output_digest() -> tuple[int, str]:
    """(runs, SHA-256 hex digest) over the set; ``promsa`` and perfbench's
    ``workloads`` must be importable."""
    from promsa import PipelineConfig, TieBreak, progressive_align, to_newick
    from workloads import METHODS, WORKLOADS

    sha = hashlib.sha256()
    runs = 0
    for name in ("long_pairs", "many_taxa", "family"):
        for job in range(4):
            seqs = WORKLOADS[name].dataset(1, job).seqs
            for method in METHODS:
                for tie in (TieBreak(), TieBreak("random", 7)):
                    report = progressive_align(seqs, PipelineConfig(method, tie=tie))
                    for row in report.msa.rows:
                        sha.update(f"{row.id}\t{row.residues}\n".encode())
                    sha.update(
                        f"{to_newick(report.guide_tree)}\t{report.sp_score}\t"
                        f"{report.total_cost!r}\n".encode()
                    )
                    runs += 1
    return runs, sha.hexdigest()


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    print(*output_digest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
