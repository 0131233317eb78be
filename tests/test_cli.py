import csv

import pytest

from helpers import SETUP1, newick_leaf_sets, parse_newick
from promsa import ScoringScheme, align_global, parse_fasta
from promsa.bench import BENCH_CSV_HEADER
from promsa.cli import main


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

    def test_large_class_requires_input(self, tmp_path, capsys):
        code = main(["bench", "--classes", "large", "--out", str(tmp_path / "b.csv")])
        assert code == 1
        assert "large" in capsys.readouterr().err

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
