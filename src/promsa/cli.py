"""Command-line interface: align, tree, gen, and bench subcommands.

Exit codes: 0 on success, 1 on data or algorithm errors, 2 on usage
errors. The environment variable MSA_SEED supplies a fallback when
--seed is not given.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import BenchRecord, records_to_csv, run_bench, summarize
from .datasets import CLASSES, generate_sequences
from .distances import pairwise_distance_matrix
from .guide_tree import nj_build, to_newick, upgma_build
from .pairwise import ScoringScheme
from .profiles import TieBreak
from .progressive import GUIDE_METHODS, PipelineConfig, PipelineError, progressive_align
from .sequences import Msa, read_fasta_file, verify_msa_against_inputs, write_fasta


def _add_scoring_flags(parser: argparse.ArgumentParser) -> None:
    default = ScoringScheme()
    for flag, value, what in (
        ("--match", default.match_score, "match score"),
        ("--mismatch", default.mismatch_score, "mismatch score"),
        ("--gap", default.gap_penalty, "gap penalty"),
    ):
        parser.add_argument(flag, type=int, default=value, help=f"{what} (default %(default)s)")


def _add_seed_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="64-bit seed (or MSA_SEED)")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _names(choices: tuple[str, ...]):
    """Argument type: a nonempty, comma-separated list of names from ``choices``."""

    def parse(text: str) -> tuple[str, ...]:
        names = tuple(name.strip() for name in text.split(",") if name.strip())
        if not names or not set(names) <= set(choices):
            raise argparse.ArgumentTypeError(f"{text!r} is not a list of {', '.join(choices)}")
        return names

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promsa",
        description="Progressive multiple sequence alignment of DNA with "
        "UPGMA or neighbor-joining guide trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser("align", help="align a FASTA file progressively")
    p_align.set_defaults(run=_cmd_align)
    p_align.add_argument("--input", required=True, help="input FASTA of raw sequences")
    p_align.add_argument("--guide", choices=GUIDE_METHODS, default="upgma")
    _add_scoring_flags(p_align)
    p_align.add_argument(
        "--tie",
        choices=(TieBreak.LEX, TieBreak.RANDOM),
        default=TieBreak().mode,
        help="tie-break policy for consensus draws (default %(default)s)",
    )
    _add_seed_flag(p_align)
    p_align.add_argument("--out", help="aligned FASTA output (default stdout)")
    p_align.add_argument("--tree-out", help="write the guide tree as Newick")
    p_align.add_argument("--stats", help="write a one-row stats CSV")
    p_align.add_argument(
        "--clamp-negative",
        action="store_true",
        help="clamp negative branch lengths to zero in Newick output",
    )
    p_align.add_argument(
        "--verify",
        action="store_true",
        help="re-check alignment invariants against the inputs after writing",
    )

    p_tree = sub.add_parser("tree", help="build a guide tree only")
    p_tree.set_defaults(run=_cmd_tree)
    p_tree.add_argument("--input", required=True)
    p_tree.add_argument("--method", choices=GUIDE_METHODS, required=True)
    p_tree.add_argument("--out", required=True, help="Newick output path")
    p_tree.add_argument("--distmat", help="also dump the distance matrix as CSV")
    p_tree.add_argument("--clamp-negative", action="store_true")
    _add_scoring_flags(p_tree)

    p_gen = sub.add_parser("gen", help="generate a random DNA dataset")
    p_gen.set_defaults(run=_cmd_gen)
    p_gen.add_argument(
        "--class",
        dest="dataset_class",
        choices=sorted(CLASSES),
        help="preset dataset class",
    )
    p_gen.add_argument("--count", type=int, help="number of sequences (custom class)")
    p_gen.add_argument("--min-len", type=int, help="minimum length (custom class)")
    p_gen.add_argument("--max-len", type=int, help="maximum length (custom class)")
    _add_seed_flag(p_gen)
    p_gen.add_argument("--out", help="output FASTA (default stdout)")

    p_bench = sub.add_parser("bench", help="run the UPGMA vs NJ comparison harness")
    p_bench.set_defaults(run=_cmd_bench)
    p_bench.add_argument(
        "--classes",
        type=_names((*CLASSES, "large")),
        default="small,medium",
        help="comma-separated classes: small, medium, large (default small,medium)",
    )
    p_bench.add_argument("--input", help="FASTA for the large class")
    p_bench.add_argument(
        "--reps", type=_positive_int, default=1, help="repetitions per cell (at least 1)"
    )
    _add_seed_flag(p_bench)
    p_bench.add_argument("--out", required=True, help="CSV output path")
    p_bench.add_argument(
        "--methods",
        type=_names(GUIDE_METHODS),
        default=",".join(GUIDE_METHODS),
        help="comma-separated guide methods (default upgma,nj)",
    )
    _add_scoring_flags(p_bench)

    return parser


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("MSA_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"MSA_SEED must be an integer, got {env!r}")
    return 0


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as handle:
            handle.write(text)


def _cmd_align(args) -> int:
    seed = _resolve_seed(args)
    if args.seed is not None and args.tie != TieBreak.RANDOM:
        print("warning: --seed has no effect unless --tie random", file=sys.stderr)
    seqs = read_fasta_file(args.input)
    cfg = PipelineConfig(
        guide_method=args.guide,
        scoring=ScoringScheme(args.match, args.mismatch, args.gap),
        tie=TieBreak(args.tie, seed),
    )
    report = progressive_align(seqs, cfg)
    _write_text(args.out, write_fasta(report.msa.rows))
    if args.tree_out:
        _write_text(args.tree_out, to_newick(report.guide_tree, args.clamp_negative) + "\n")
    if args.stats:
        record = BenchRecord.from_report(seqs, report, seed)
        _write_text(args.stats, records_to_csv([record]))
    if args.verify:
        verify_msa_against_inputs(report.msa, seqs)
        if args.out:
            written = read_fasta_file(args.out, allow_gaps=True)
            verify_msa_against_inputs(Msa(tuple(written)), seqs)
    return 0


def _cmd_tree(args) -> int:
    seqs = read_fasta_file(args.input)
    scoring = ScoringScheme(args.match, args.mismatch, args.gap)
    matrix = pairwise_distance_matrix(seqs, scoring)
    build = upgma_build if args.method == "upgma" else nj_build
    tree = build(matrix)
    _write_text(args.out, to_newick(tree, args.clamp_negative) + "\n")
    if args.distmat:
        _write_text(args.distmat, matrix.to_csv())
    return 0


def _cmd_gen(args) -> int:
    seed = _resolve_seed(args)
    sizes = {"--count": args.count, "--min-len": args.min_len, "--max-len": args.max_len}
    if args.dataset_class:
        given = [flag for flag, value in sizes.items() if value is not None]
        if given:
            raise ValueError(f"--class sets the sizes; drop {', '.join(given)}")
        spec = CLASSES[args.dataset_class]
        count, min_len, max_len = spec.count, spec.min_len, spec.max_len
    else:
        if None in sizes.values():
            raise ValueError("provide --class or all of --count/--min-len/--max-len")
        count, min_len, max_len = sizes.values()
    seqs = generate_sequences(count, min_len, max_len, seed)
    _write_text(args.out, write_fasta(seqs))
    return 0


def _cmd_bench(args) -> int:
    if args.input is not None and "large" not in args.classes:
        raise ValueError("--input is read only for the large class; add large to --classes")
    records = run_bench(
        args.classes,
        reps=args.reps,
        seed=_resolve_seed(args),
        methods=args.methods,
        scoring=ScoringScheme(args.match, args.mismatch, args.gap),
        large_seqs=read_fasta_file(args.input) if args.input else None,
    )
    _write_text(args.out, records_to_csv(records))
    print(summarize(records))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, PipelineError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
