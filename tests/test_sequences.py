import random
import re

import pytest
from hypothesis import given

from helpers import first_all_gap_column, gapped_rows, msa_of_rows
from promsa import FastaError, Msa, Sequence, parse_fasta, strip_gaps, write_fasta
from promsa.sequences import verify_msa_against_inputs


class TestSequence:
    def test_valid(self):
        s = Sequence("a", "ACGT")
        assert len(s) == 4
        assert s.is_gapless

    def test_gapped(self):
        assert not Sequence("a", "A_CT").is_gapless

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            Sequence("", "ACGT")

    def test_empty_residues_rejected(self):
        with pytest.raises(ValueError):
            Sequence("a", "")

    def test_bad_symbol_rejected(self):
        with pytest.raises(ValueError, match="X"):
            Sequence("a", "ACXT")


class TestMsa:
    def test_rectangular(self):
        msa = Msa((Sequence("a", "AC_T"), Sequence("b", "ACGT")))
        assert msa.width == 4
        assert msa.depth == 2
        assert msa.column(2) == "_G"

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            Msa((Sequence("a", "ACGT"), Sequence("b", "AC")))

    def test_all_gap_column_rejected(self):
        with pytest.raises(ValueError, match="entirely of gaps"):
            Msa((Sequence("a", "A_C"), Sequence("b", "A_G")))

    @given(gapped_rows(all_gap_columns=True))
    def test_all_gap_error_names_the_column_scan_finds_first(self, rows):
        expected = first_all_gap_column(rows)
        if expected is None:
            codes = msa_of_rows(rows).codes
            assert codes.shape == (len(rows), len(rows[0])) and not codes.flags.writeable
            assert codes.tobytes() == "".join(rows).encode()
        else:
            with pytest.raises(ValueError, match=rf"^column {expected} consists entirely of gaps$"):
                msa_of_rows(rows)

    def test_roundtrip_check(self):
        msa = Msa((Sequence("a", "AC_T"), Sequence("b", "ACGT")))
        verify_msa_against_inputs(msa, [Sequence("a", "ACT"), Sequence("b", "ACGT")])
        with pytest.raises(ValueError):
            verify_msa_against_inputs(msa, [Sequence("a", "ACC"), Sequence("b", "ACGT")])


class TestParseFasta:
    def test_single_record(self):
        assert parse_fasta(">a\nACGT\n") == [Sequence("a", "ACGT")]

    def test_multiline_body_concatenation(self):
        seqs = parse_fasta(">a\nAC\nGT\n>b\nTT\n")
        assert [s.residues for s in seqs] == ["ACGT", "TT"]
        assert [s.id for s in seqs] == ["a", "b"]

    def test_illegal_character_reports_position(self):
        with pytest.raises(FastaError, match=r"'X'.*line 2"):
            parse_fasta(">a\nACXT\n")
        try:
            parse_fasta(">a\nACXT\n")
        except FastaError as err:
            assert err.line == 2
            assert err.offset == 5  # 0-based offset of the X byte

    @pytest.mark.parametrize("encode", [False, True])
    @pytest.mark.parametrize(
        ("text", "offset"),
        [
            (">s1 café\nACGX\n", 13),  # "é" is two bytes: X is character 12, byte 13
            (">s1\nAC\u00a0-T\n", 8),  # a two-byte space earlier on the same line
        ],
        ids=["earlier-line", "same-line"],
    )
    def test_offset_counts_utf8_bytes(self, text, offset, encode):
        with pytest.raises(FastaError) as info:
            parse_fasta(text.encode() if encode else text)
        assert (info.value.line, info.value.offset) == (2, offset)

    @pytest.mark.parametrize(
        ("data", "line", "offset"),
        [(b">a\nAC\xffGT\n", 2, 5), (b">a\xff\nACGT\n", 1, 2)],
        ids=["body", "header"],
    )
    def test_invalid_utf8_reports_position(self, data, line, offset):
        with pytest.raises(FastaError, match="UTF-8") as info:
            parse_fasta(data)
        assert (info.value.line, info.value.offset) == (line, offset)

    def test_empty_input(self):
        with pytest.raises(FastaError, match="empty"):
            parse_fasta("")
        with pytest.raises(FastaError):
            parse_fasta("   \n  ")

    def test_empty_body(self):
        with pytest.raises(FastaError, match="empty body"):
            parse_fasta(">a\n>b\nACGT\n")

    def test_duplicate_identifier(self):
        with pytest.raises(FastaError, match="duplicate"):
            parse_fasta(">a\nAC\n>a\nGT\n")

    def test_gaps_rejected_unless_requested(self):
        with pytest.raises(FastaError, match="gap"):
            parse_fasta(">a\nA-CT\n")
        seqs = parse_fasta(">a\nA-C_T\n", allow_gaps=True)
        assert seqs[0].residues == "A_C_T"

    def test_lowercase_normalized(self):
        assert parse_fasta(">a\nacgt\n")[0].residues == "ACGT"

    def test_crlf_and_bytes_accepted(self):
        seqs = parse_fasta(b">a\r\nACGT\r\n")
        assert seqs[0].residues == "ACGT"

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_lines_end_only_at_lf_crlf_or_cr(self, end):
        text = end.join([">a", "AC\x0cGT", ">b", "AXGT", ""])
        with pytest.raises(FastaError) as info:
            parse_fasta(text)
        assert info.value.line == 4
        assert info.value.offset == text.index("X")

    @pytest.mark.parametrize("sep", ["\x0c", "\x0b", "\x1c", "\x85", "\u2028"])
    def test_header_separator_is_not_a_line_end(self, sep):
        seq = parse_fasta(f">a{sep}first read\nACGT\n")[0]
        assert (seq.id, seq.description, seq.residues) == ("a", "first read", "ACGT")

    def test_invalid_utf8_line_counts_cr_line_ends(self):
        with pytest.raises(FastaError) as info:
            parse_fasta(b">a\rAC\rG\xffT\r")
        assert (info.value.line, info.value.offset) == (3, 7)

    def test_description_kept_separate(self):
        seq = parse_fasta(">a some description here\nACGT\n")[0]
        assert seq.id == "a"
        assert seq.description == "some description here"

    def test_data_before_header(self):
        with pytest.raises(FastaError, match="before first"):
            parse_fasta("ACGT\n>a\nACGT\n")


class TestWriteFasta:
    def test_simple(self):
        assert write_fasta([Sequence("a", "ACGT")]) == ">a\nACGT\n"

    def test_gap_rendered_as_dash(self):
        assert write_fasta([Sequence("x", "A_CT")]) == ">x\nA-CT\n"

    def test_wrapping_60_columns(self):
        seq = Sequence("a", "A" * 70)
        body = write_fasta([seq]).splitlines()
        assert body == [">a", "A" * 60, "A" * 10]

    def test_roundtrip_identity(self):
        rng = random.Random(7)
        seqs = []
        for i in range(20):
            residues = "".join(rng.choice("ACGT") for _ in range(rng.randint(1, 150)))
            desc = "desc text" if i % 3 == 0 else ""
            seqs.append(Sequence(f"id{i}", residues, desc))
        assert parse_fasta(write_fasta(seqs)) == seqs

    def test_roundtrip_identity_gapped(self):
        rng = random.Random(8)
        seqs = []
        for i in range(20):
            residues = "".join(rng.choice("ACGT_") for _ in range(rng.randint(2, 80)))
            if set(residues) == {"_"}:
                residues = "A" + residues
            seqs.append(Sequence(f"id{i}", residues))
        assert parse_fasta(write_fasta(seqs), allow_gaps=True) == seqs

    @pytest.mark.parametrize(
        "seq",
        [
            Sequence("a b", "ACGTAC"),
            Sequence("a\tb", "ACGTAC"),
            Sequence("a", "ACGTAC", "first\nsecond"),
            Sequence("a", "ACGTAC", "first\rsecond"),
        ],
    )
    def test_header_that_would_not_read_back_is_rejected(self, seq):
        with pytest.raises(ValueError, match=re.escape(repr(seq.id))):
            write_fasta([Sequence("ok", "ACGT"), seq])


    @pytest.mark.parametrize("description", [" lead", "trail ", " both ", "\ttab", "\u2003em", " "])
    def test_description_with_outer_whitespace_is_rejected(self, description):
        seq = Sequence("a", "ACGT", description)
        assert parse_fasta(f">a {description}\nACGT\n")[0] != seq  # what writing it would give
        with pytest.raises(ValueError, match=re.escape(repr(seq.id))):
            write_fasta([seq])

    def test_description_with_inner_whitespace_reads_back(self):
        seqs = [Sequence("a", "ACGT", "two  spaces\tand a tab"), Sequence("b", "GG", "x \u2003y")]
        assert parse_fasta(write_fasta(seqs)) == seqs


class TestStripGaps:
    def test_removes_gaps(self):
        assert strip_gaps(Sequence("a", "A_C_")).residues == "AC"

    def test_identity_on_gapless(self):
        seq = Sequence("a", "ACGT")
        assert strip_gaps(seq) == seq

    def test_all_gaps_rejected(self):
        with pytest.raises(ValueError, match="only gaps"):
            strip_gaps(Sequence("a", "____"))
