import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    char_loop_parse_fasta,
    first_all_gap_column,
    gapped_rows,
    msa_of_rows,
    string_profile_counts,
)
from promsa import FastaError, Msa, Sequence, parse_fasta, write_fasta
from promsa.sequences import verify_msa_against_inputs

_HEADER = st.tuples(
    st.sampled_from(["s1", "s2", "s3", ""]), st.sampled_from(["", " desc", "\tcafé", "\x0bdesc"])
).map(lambda parts: ">" + "".join(parts))
_BODY = st.lists(
    st.sampled_from(["acgt", "ACGT", "aC", "Gt", " ", "\t", "\x0b", "\xa0", "-", "_", "x", "é"]),
    max_size=3,
).map("".join)


@st.composite
def fasta_texts(draw):
    """Records of a header and body lines, after a line that may hold data
    before any header; each line ends in LF, CRLF, a lone CR or nothing,
    which joins it to the next."""
    lines = [draw(st.sampled_from(["", "\t", "acgt"]))]
    records = st.lists(st.tuples(_HEADER, st.lists(_BODY, min_size=1, max_size=3)), max_size=4)
    for header, body in draw(records):
        lines += [header, *body]
    return "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r", ""])) for line in lines)


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

    @given(gapped_rows())
    def test_counts_equal_string_oracle(self, rows):
        msa = msa_of_rows(rows)
        built = Msa._from_codes(msa.ids, msa.descriptions, msa.codes.copy())
        expected = [list(column) for column in string_profile_counts(msa)]
        for counts in (msa.counts, built.counts):
            assert counts.tolist() == expected
            assert counts.dtype == np.int64 and counts.shape == (msa.width, 5)
            with pytest.raises(ValueError, match="read-only"):
                counts[0, 0] = 0

    def test_rows_are_built_once_when_read(self, monkeypatch):
        built = []
        check = Sequence.__post_init__
        monkeypatch.setattr(Sequence, "__post_init__", lambda row: built.append(row) or check(row))
        codes = np.frombuffer(b"AC_TACGT", dtype=np.uint8).reshape(2, 4).copy()
        msa = Msa._from_codes(("a", "b"), ("first", ""), codes)
        assert not built and not codes.flags.writeable
        rows = msa.rows
        assert len(built) == 2 and msa.rows is rows and len(built) == 2
        assert rows == (Sequence("a", "AC_T", "first"), Sequence("b", "ACGT"))
        assert msa == Msa(rows) and hash(msa) == hash(Msa(rows))

    def test_equality_covers_ids_descriptions_and_codes(self):
        msa = Msa((Sequence("a", "AC_T"), Sequence("b", "ACGT")))
        assert msa != Msa((Sequence("a", "AC_T"), Sequence("c", "ACGT")))
        assert msa != Msa((Sequence("a", "AC_T"), Sequence("b", "ACGT", "x")))
        assert msa != Msa((Sequence("a", "ACT_"), Sequence("b", "ACGT")))
        assert msa != Msa((Sequence("a", "ACGT"),)) and msa != "AC_T"
        assert msa.column(-1) == "TT" and repr(msa).startswith("Msa(rows=(Sequence(id='a'")
        with pytest.raises(AttributeError, match="^cannot assign to field 'codes'$"):
            msa.codes = msa.codes
        with pytest.raises(AttributeError, match="^cannot delete field 'codes'$"):
            del msa.codes

    @pytest.mark.parametrize(
        ("ids", "rows", "message"),
        [
            (("a", "b"), (b"A_C", b"A_G"), "column 1 consists entirely of gaps"),
            (("a", "b", "c"), (b"ACG", b"AC_"), "alignment shape mismatch: 3 ids and 3 "
             "descriptions for codes of shape (2, 3)"),
            (("a", "b"), (b"ACG", b"AXN"), "sequence 'b' contains invalid symbols: ['N', 'X']"),
            (("a", "b", "c"), (b"ACG", b"A\xe9N", b"XCG"),
             "sequence 'b' contains invalid symbols: ['N', '\xe9']"),
            (("a", "b"), (b"", b""), "sequence 'a' has no residues"),
            ((), (), "alignment must have at least one row"),
        ],
        ids=[
            "all-gap-column", "shape-mismatch", "bad-symbol", "bad-symbols-in-two-rows",
            "no-residues", "no-rows",
        ],
    )
    def test_codes_constructor_rejects_with_its_message(self, ids, rows, message):
        codes = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), -1 if rows else 0)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Msa._from_codes(ids, ("",) * len(ids), codes.copy())

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

    @pytest.mark.parametrize("encode", [True, False], ids=["bytes", "str"])
    def test_leading_byte_order_mark_is_skipped(self, encode):
        def parse(text):
            return parse_fasta(text.encode() if encode else text)

        text = ">a first\nACGT\n>b\nGG\n"
        assert parse("\ufeff" + text) == parse(text)
        with pytest.raises(FastaError, match="empty FASTA input"):
            parse("\ufeff")
        data = "\ufeff>a\nACXGT\n".encode()
        with pytest.raises(FastaError, match="illegal character 'X'") as info:
            parse(data.decode())
        assert info.value.offset == data.index(b"X")

    def test_description_kept_separate(self):
        seq = parse_fasta(">a some description here\nACGT\n")[0]
        assert seq.id == "a"
        assert seq.description == "some description here"

    def test_data_before_header(self):
        with pytest.raises(FastaError, match="before first"):
            parse_fasta("ACGT\n>a\nACGT\n")

    @settings(max_examples=300)
    @given(text=fasta_texts(), allow_gaps=st.booleans(), encode=st.booleans())
    @example(text=">a\nA\xa0_C\n", allow_gaps=False, encode=True)
    @example(text=">a caf\xe9\r\nac\x0bG\r-\xa0x\r", allow_gaps=True, encode=False)
    @example(text="\ufeff>a\r\nAC\nG\xe9T\n", allow_gaps=False, encode=True)
    @example(text="\ufeff>a\nAC\n>b x\nG-T\n", allow_gaps=True, encode=False)
    @example(text="\ufeff", allow_gaps=False, encode=True)
    @example(text="\ufeff\ufeff>a\nACGT\n", allow_gaps=False, encode=False)
    def test_agrees_with_the_character_loop(self, text, allow_gaps, encode):
        def outcome(parse):
            try:
                return parse(text.encode() if encode else text, allow_gaps=allow_gaps)
            except FastaError as err:
                return str(err), err.line, err.offset

        assert outcome(parse_fasta) == outcome(char_loop_parse_fasta)


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


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: Msa(()), "alignment must have at least one row"),
        (
            lambda: verify_msa_against_inputs(Msa((Sequence("a", "AC"),)), [Sequence("b", "AC")]),
            "alignment rows do not cover exactly the input ids",
        ),
        (lambda: parse_fasta(">\nACGT\n"), "header line has no identifier (line 1, byte offset 0)"),
    ],
    ids=["msa-without-rows", "other-ids", "header-without-id"],
)
def test_rejects_with_its_message(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
