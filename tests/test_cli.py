import csv
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import promsa.bench
import promsa.distances
from helpers import SETUP1, hand_written_csv_row, newick_leaf_sets, parse_newick
from promsa import ScoringScheme, Sequence, TieBreak, align_global, generate_sequences, parse_fasta
from promsa.bench import BENCH_CSV_HEADER, BenchRecord, records_to_csv, summarize
from promsa.cli import build_parser, main
from promsa.progressive import GUIDE_METHODS


def write_setup1(path) -> str:
    text = "".join(f">s{i + 1}\n{seq}\n" for i, seq in enumerate(SETUP1))
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestAlignCommand:
    def test_align_roundtrips_inputs(self, tmp_path):
        fasta = write_setup1(tmp_path / "in.fasta")
        out = tmp_path / "out.fasta"
        code = main(
            ["align", "--input", fasta, "--guide", "upgma", "--out", str(out), "--verify"]
        )
        assert code == 0
        rows = parse_fasta(out.read_text(), allow_gaps=True)
        assert len(rows) == 7
        widths = {len(r) for r in rows}
        assert len(widths) == 1
        for row, original in zip(rows, SETUP1):
            assert row.residues.replace("_", "") == original

    def test_align_nj_two_sequences_matches_direct_nw(self, tmp_path):
        fasta = tmp_path / "two.fasta"
        fasta.write_text(">a\nACGTACT\n>b\nACTACG\n")
        out = tmp_path / "out.fasta"
        assert main(["align", "--input", str(fasta), "--guide", "nj", "--out", str(out)]) == 0
        rows = parse_fasta(out.read_text(), allow_gaps=True)
        direct = align_global("ACGTACT", "ACTACG", ScoringScheme())
        assert rows[0].residues == direct.row_a.residues
        assert rows[1].residues == direct.row_b.residues

    def test_align_stats_reports_pairwise_score(self, tmp_path):
        fasta = tmp_path / "pair.fasta"
        fasta.write_text(">a\nATGCG\n>b\nTGCAT\n")
        stats = tmp_path / "stats.csv"
        code = main(
            [
                "align", "--input", str(fasta), "--guide", "upgma",
                "--match", "3", "--mismatch", "1", "--gap", "-1",
                "--out", str(tmp_path / "o.fasta"), "--stats", str(stats),
            ]
        )
        assert code == 0
        (row,) = read_csv(stats)
        assert row["sp_score"] == "8"
        assert row["method"] == "upgma"
        assert row["n_sequences"] == "2"

    def test_align_writes_tree(self, tmp_path):
        fasta = write_setup1(tmp_path / "in.fasta")
        tree_out = tmp_path / "tree.nwk"
        code = main(
            ["align", "--input", fasta, "--guide", "nj",
             "--out", str(tmp_path / "o.fasta"), "--tree-out", str(tree_out)]
        )
        assert code == 0
        parsed = parse_newick(tree_out.read_text().strip())
        sets = newick_leaf_sets(parsed)
        assert frozenset(f"s{i + 1}" for i in range(7)) in sets

    def test_seed_without_random_tie_warns_but_succeeds(self, tmp_path, capsys):
        fasta = write_setup1(tmp_path / "in.fasta")
        code = main(
            ["align", "--input", fasta, "--guide", "upgma", "--seed", "5",
             "--out", str(tmp_path / "o.fasta")]
        )
        assert code == 0
        assert "warning" in capsys.readouterr().err

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code = main(
            ["align", "--input", str(tmp_path / "nope.fasta"), "--guide", "upgma"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_score_out_of_range_is_data_error(self, tmp_path, capsys):
        fasta = write_setup1(tmp_path / "in.fasta")
        code = main(["align", "--input", fasta, "--match", "3000000000"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: match_score")

    def test_grid_over_cell_budget_is_data_error(self, tmp_path, capsys):
        fasta = tmp_path / "long.fasta"
        fasta.write_text(f">a\n{'A' * 16384}\n>b\n{'C' * 16384}\n")
        code = main(["align", "--input", str(fasta), "--out", str(tmp_path / "o.fasta")])
        assert code == 1
        assert "error: distance stage failed: pair (a, b): aligning lengths 16384 and 16384" in (
            capsys.readouterr().err
        )

    def test_too_many_sequences_for_the_distance_budget_is_data_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # The seven SETUP1 sequences hold 21 pairs, one more than the budget.
        monkeypatch.setattr(promsa.distances, "MAX_DISTANCE_BYTES", 20 * 146)
        out = tmp_path / "o.fasta"
        code = main(["align", "--input", write_setup1(tmp_path / "in.fasta"), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: distance stage failed: 7 sequences need about 3066 bytes in the "
            "distance stage, over the budget of 2920\n"
        )
        assert not out.exists()

    def test_usage_error_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["align", "--guide", "upgma"])  # --input missing
        assert exc.value.code == 2

    def test_align_deterministic_output_bytes(self, tmp_path):
        fasta = write_setup1(tmp_path / "in.fasta")
        out1, out2 = tmp_path / "o1.fasta", tmp_path / "o2.fasta"
        main(["align", "--input", fasta, "--guide", "nj", "--out", str(out1)])
        main(["align", "--input", fasta, "--guide", "nj", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestTreeCommand:
    def test_two_sequences_symmetric_tree(self, tmp_path):
        fasta = tmp_path / "two.fasta"
        fasta.write_text(">a\nAAAA\n>b\nAAAT\n")
        out = tmp_path / "t.nwk"
        assert main(["tree", "--input", str(fasta), "--method", "upgma", "--out", str(out)]) == 0
        text = out.read_text().strip()
        (child_a, child_b) = parse_newick(text)
        assert child_a[0] == "a" and child_b[0] == "b"
        assert child_a[1] == child_b[1] > 0

    def test_quartet_topology_recovered(self, tmp_path):
        # two tight pairs: (a, b) and (c, d) should form clades under NJ
        fasta = tmp_path / "quartet.fasta"
        fasta.write_text(
            ">a\nAAAAAAAAAACCCCCCCCCC\n"
            ">b\nAAAAAAAAAACCCCCCCCGG\n"
            ">c\nTTTTTTTTTTGGGGGGGGGG\n"
            ">d\nTTTTTTTTTTGGGGGGGGCC\n"
        )
        out = tmp_path / "t.nwk"
        assert main(["tree", "--input", str(fasta), "--method", "nj", "--out", str(out)]) == 0
        sets = newick_leaf_sets(parse_newick(out.read_text().strip()))
        assert frozenset(("a", "b")) in sets
        assert frozenset(("c", "d")) in sets

    def test_both_methods_emit_files(self, tmp_path):
        fasta = write_setup1(tmp_path / "in.fasta")
        for method in ("upgma", "nj"):
            out = tmp_path / f"{method}.nwk"
            assert main(["tree", "--input", fasta, "--method", method, "--out", str(out)]) == 0
            assert out.read_text().strip().endswith(";")

    def test_distmat_dump(self, tmp_path):
        fasta = tmp_path / "two.fasta"
        fasta.write_text(">a\nAAAA\n>b\nAAAT\n")
        distmat = tmp_path / "d.csv"
        main(["tree", "--input", str(fasta), "--method", "nj",
              "--out", str(tmp_path / "t.nwk"), "--distmat", str(distmat)])
        lines = distmat.read_text().splitlines()
        assert lines[0] == "taxon,a,b"
        assert lines[1].startswith("a,0.000000,0.304099")

    def test_identical_sequences_write_positive_zero(self, tmp_path):
        fasta = tmp_path / "three.fasta"
        fasta.write_text(">a\nACGT\n>b\nACGT\n>c\nACGA\n")
        out, distmat = tmp_path / "t.nwk", tmp_path / "d.csv"
        assert main(["tree", "--input", str(fasta), "--method", "upgma",
                     "--out", str(out), "--distmat", str(distmat)]) == 0
        lines = distmat.read_text().splitlines()
        assert lines[1] == "a,0.000000,0.000000,0.304099"
        assert lines[2] == "b,0.000000,0.000000,0.304099"
        assert out.read_text().strip() == "(c:0.152049,(a:0.000000,b:0.000000):0.152049);"

    def test_ids_that_newick_reserves_are_quoted(self, tmp_path):
        ids = ("a:1", "b,2", "c(3)", "d'4")
        fasta = tmp_path / "ids.fasta"
        fasta.write_text("".join(f">{i}\n{seq}\n" for i, seq in zip(ids, SETUP1)))
        for method in ("upgma", "nj"):
            out = tmp_path / f"{method}.nwk"
            assert main(["tree", "--input", str(fasta), "--method", method, "--out", str(out)]) == 0
            text = out.read_text().strip()
            assert "'d''4'" in text
            assert frozenset(ids) in newick_leaf_sets(parse_newick(text))


class TestGenCommand:
    def test_small_class_bounds(self, tmp_path):
        out = tmp_path / "s.fasta"
        assert main(["gen", "--class", "small", "--seed", "42", "--out", str(out)]) == 0
        seqs = parse_fasta(out.read_text())
        assert len(seqs) == 7
        assert all(4 <= len(s) <= 40 for s in seqs)
        assert [s.id for s in seqs] == [f"seq{i}" for i in range(1, 8)]

    def test_medium_class_bounds(self, tmp_path):
        out = tmp_path / "m.fasta"
        assert main(["gen", "--class", "medium", "--seed", "1", "--out", str(out)]) == 0
        seqs = parse_fasta(out.read_text())
        assert len(seqs) == 5
        assert all(40 <= len(s) <= 500 for s in seqs)

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.fasta", tmp_path / "b.fasta"
        main(["gen", "--class", "small", "--seed", "7", "--out", str(a)])
        main(["gen", "--class", "small", "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_custom_parameters(self, tmp_path):
        out = tmp_path / "c.fasta"
        code = main(["gen", "--count", "3", "--min-len", "5", "--max-len", "5",
                     "--seed", "9", "--out", str(out)])
        assert code == 0
        seqs = parse_fasta(out.read_text())
        assert len(seqs) == 3
        assert all(len(s) == 5 for s in seqs)

    def test_invalid_parameters(self, tmp_path, capsys):
        assert main(["gen", "--count", "1", "--min-len", "2", "--max-len", "4",
                     "--out", str(tmp_path / "x.fasta")]) == 1
        assert main(["gen", "--count", "3", "--min-len", "9", "--max-len", "4",
                     "--out", str(tmp_path / "x.fasta")]) == 1
        capsys.readouterr()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.fasta", tmp_path / "b.fasta"
        monkeypatch.setenv("MSA_SEED", "123")
        main(["gen", "--class", "small", "--out", str(a)])
        main(["gen", "--class", "small", "--seed", "123", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_without_out_writes_fasta_to_stdout(self, tmp_path, capsys):
        out = tmp_path / "s.fasta"
        assert main(["gen", "--class", "small", "--seed", "3", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["gen", "--class", "small", "--seed", "3"]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_generator_rejects_zero_min_len(self):
        with pytest.raises(ValueError, match="min_len must be positive"):
            generate_sequences(2, 0, 5, seed=0)


_INTS = st.integers(-(2**70), 2**70)
# Any float, or one at a half of the last printed digit of the .2f or .6f
# column: the rounding edge.
BENCH_RECORDS = st.builds(
    BenchRecord,
    st.sampled_from(GUIDE_METHODS),
    _INTS,
    st.one_of(st.floats(), st.integers(-10**7, 10**7).map(lambda k: k / 200)),
    _INTS,
    _INTS,
    _INTS,
    _INTS,
    st.one_of(st.floats(), st.integers(-10**12, 10**12).map(lambda k: k / 2e6)),
    _INTS,
    _INTS,
)


class TestBenchCommand:
    def test_row_count_and_header(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--classes", "small", "--reps", "3", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == BENCH_CSV_HEADER
        assert len(lines) == 1 + 6  # 1 class x 2 methods x 3 reps
        capsys.readouterr()

    def test_total_cost_constant_across_reps(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        main(["bench", "--classes", "small", "--reps", "3", "--seed", "5",
              "--out", str(out)])
        rows = read_csv(out)
        by_method = {}
        for row in rows:
            by_method.setdefault(row["method"], set()).add(row["total_cost"])
        assert all(len(costs) == 1 for costs in by_method.values())
        capsys.readouterr()

    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_reps_below_one_is_usage_error(self, tmp_path, capsys, reps):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--classes", "small", "--reps", reps,
                  "--out", str(tmp_path / "b.csv")])
        assert exc.value.code == 2
        assert "--reps" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize(
        ("flag", "value"),
        [
            ("--methods", "foo"),
            ("--classes", "foo"),
            ("--classes", ","),
            ("--classes", "small,small"),
            ("--methods", "nj,nj"),
        ],
    )
    def test_bad_name_list_is_usage_error(self, tmp_path, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["bench", flag, value, "--out", str(tmp_path / "b.csv")])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    def test_repeated_name_is_named(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--methods", "upgma,nj,upgma", "--out", str(tmp_path / "b.csv")])
        assert exc.value.code == 2
        assert "'upgma' more than once" in capsys.readouterr().err

    def test_large_class_requires_input(self, tmp_path, capsys):
        code = main(["bench", "--classes", "large", "--out", str(tmp_path / "b.csv")])
        assert code == 1
        assert "large" in capsys.readouterr().err

    @pytest.fixture
    def no_bench_runs(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a bench cell ran")

        monkeypatch.setattr(promsa.bench, "progressive_align", no_run)

    def test_large_class_without_input_fails_before_any_run(self, tmp_path, capsys, no_bench_runs):
        code = main(["bench", "--classes", "small,large", "--out", str(tmp_path / "b.csv")])
        assert code == 1
        assert "large" in capsys.readouterr().err

    def test_run_bench_checks_the_large_input_before_any_run(self, no_bench_runs):
        with pytest.raises(ValueError, match="need at least two sequences"):
            promsa.bench.run_bench(
                ["small", "large"], reps=1, seed=1, large_seqs=[Sequence("a", "ACGT")]
            )

    def test_large_input_over_the_distance_budget_fails_before_any_run(
        self, monkeypatch, no_bench_runs
    ):
        monkeypatch.setattr(promsa.distances, "MAX_DISTANCE_BYTES", 146)
        seqs = [Sequence(f"s{i}", "ACGT") for i in range(3)]
        with pytest.raises(ValueError, match="^3 sequences need about 438 bytes"):
            promsa.bench.run_bench(["small", "large"], reps=1, seed=1, large_seqs=seqs)

    def test_bad_large_input_fails_before_any_run(self, tmp_path, capsys, no_bench_runs):
        fasta = tmp_path / "one.fasta"
        fasta.write_text(">a\nACGT\n")
        out = tmp_path / "b.csv"
        code = main(["bench", "--classes", "small,large", "--input", str(fasta),
                     "--out", str(out)])
        assert code == 1
        assert "need at least two sequences" in capsys.readouterr().err
        assert not out.exists()

    def test_input_without_large_is_rejected_unread(self, tmp_path, capsys, no_bench_runs):
        out = tmp_path / "b.csv"
        code = main(["bench", "--classes", "small", "--input", str(tmp_path / "missing.fasta"),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "--input" in err and "large" in err and "missing.fasta" not in err
        assert not out.exists()

    def test_run_bench_checks_class_names_before_any_run(self, no_bench_runs):
        with pytest.raises(ValueError, match="unknown dataset class 'tiny'"):
            promsa.bench.run_bench(["small", "tiny"], reps=1, seed=0)

    @pytest.mark.parametrize(
        ("kwargs", "message"),
        [
            ({"reps": 0}, "reps must be at least 1"),
            ({"reps": 1, "methods": ("upgma", "wpgma")}, "unknown method 'wpgma'"),
        ],
        ids=["no-reps", "unknown-method"],
    )
    def test_run_bench_rejects_with_its_message(self, no_bench_runs, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            promsa.bench.run_bench(["small"], seed=0, **kwargs)

    def test_large_class_with_input(self, tmp_path, capsys):
        fasta = write_setup1(tmp_path / "in.fasta")
        out = tmp_path / "b.csv"
        code = main(["bench", "--classes", "large", "--input", fasta,
                     "--reps", "1", "--seed", "1", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 2
        assert {row["method"] for row in rows} == {"upgma", "nj"}
        capsys.readouterr()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(BENCH_RECORDS, max_size=4))
    def test_csv_rows_equal_the_hand_written_format(self, records):
        expected = "\n".join([BENCH_CSV_HEADER, *map(hand_written_csv_row, records)]) + "\n"
        assert records_to_csv(records) == expected

    def test_summary_shows_each_methods_median_low_time(self):
        def record(method, total_ms, seed=1):
            cost = 12.5 if method == "upgma" else 11.0
            return BenchRecord(method, 5, 7.5, 0, 0, 0, total_ms, cost, 30, seed)

        # The last repetition of each method is not its median.
        records = [record("upgma", ms) for ms in (40, 10, 30, 90, 5)]
        records += [record("nj", ms) for ms in (2, 8)] + [record("upgma", 3, seed=2)]
        assert summarize(records) == (
            "n=5 mean_len=7.5 seed=1  upgma: cost 12.5, 30 ms  nj: cost 11.0, 2 ms\n"
            "n=5 mean_len=7.5 seed=2  upgma: cost 12.5, 3 ms"
        )

    def test_csv_fields_parse_as_numbers(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        main(["bench", "--classes", "small,medium", "--reps", "1", "--seed", "3",
              "--out", str(out)])
        rows = read_csv(out)
        assert len(rows) == 4
        for row in rows:
            float(row["total_cost"])
            int(row["sp_score"])
            int(row["total_ms"])
            assert int(row["total_ms"]) >= (
                int(row["distance_ms"]) + int(row["tree_ms"]) + int(row["merge_ms"]) - 1
            )
        capsys.readouterr()


@pytest.mark.parametrize(
    ("env", "argv", "message"),
    [
        ("seven", ["gen", "--class", "small"], "MSA_SEED must be an integer, got 'seven'"),
        (None, ["gen", "--count", "3", "--min-len", "5"],
         "provide --class or all of --count/--min-len/--max-len"),
        (None, ["gen", "--class", "small", "--count", "3", "--max-len", "9", "--seed", "1"],
         "--class sets the sizes; drop --count, --max-len"),
    ],
    ids=["non-integer-env-seed", "gen-without-sizes", "gen-class-with-sizes"],
)
def test_command_error_names_its_cause(tmp_path, capsys, monkeypatch, env, argv, message):
    if env is None:
        monkeypatch.delenv("MSA_SEED", raising=False)
    else:
        monkeypatch.setenv("MSA_SEED", env)
    assert main([*argv, "--out", str(tmp_path / "x.fasta")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.fasta").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["align", "--input", "in.fasta"],
        ["tree", "--input", "in.fasta", "--method", "nj", "--out", "tree.nwk"],
        ["bench", "--out", "bench.csv"],
    ],
)
def test_parsed_defaults_are_the_library_defaults(argv):
    args = build_parser().parse_args(argv)
    assert ScoringScheme(args.match, args.mismatch, args.gap) == ScoringScheme()
    if args.command == "align":
        assert args.tie == TieBreak().mode
