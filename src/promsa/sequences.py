"""DNA sequence and alignment data model plus FASTA input/output.

Residues are plain strings over the alphabet A, C, G, T with ``_`` as the
internal gap glyph. FASTA output renders gaps as ``-``; both glyphs are
accepted on input. All types are immutable values and safe to share across
threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

GAP = "_"
ALPHABET = "ACGT"
SYMBOLS = ALPHABET + GAP

FASTA_LINE_WIDTH = 60

_LINE_END = r"\r\n?|\n"  # str.splitlines also breaks at \f, \v, \x85, \u2028 and more
_LINE = re.compile(rf"[^\r\n]*(?:{_LINE_END})|[^\r\n]+")


class FastaError(ValueError):
    """Malformed FASTA input, with 1-based line and 0-based byte offset."""

    def __init__(self, message: str, line: int | None = None, offset: int | None = None):
        if line is not None and offset is not None:
            message = f"{message} (line {line}, byte offset {offset})"
        elif line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line
        self.offset = offset


@dataclass(frozen=True)
class Sequence:
    """An identified DNA string, possibly gapped.

    The identifier is the first whitespace-delimited token of a FASTA
    header; anything after it is kept as ``description`` and ignored by
    the alignment algorithms.
    """

    id: str
    residues: str
    description: str = ""

    def __post_init__(self):
        if not self.id:
            raise ValueError("sequence id must be non-empty")
        if not self.residues:
            raise ValueError(f"sequence {self.id!r} has no residues")
        bad = set(self.residues) - set(SYMBOLS)
        if bad:
            raise ValueError(
                f"sequence {self.id!r} contains invalid symbols: {sorted(bad)}"
            )

    def __len__(self) -> int:
        return len(self.residues)

    @property
    def is_gapless(self) -> bool:
        return GAP not in self.residues


@dataclass(frozen=True)
class Msa:
    """A rectangular block of gapped sequences.

    Invariants enforced on construction: at least one row, all rows the
    same length, and no column made up entirely of gaps. ``codes`` holds
    the rows as a depth x width array, encoded once on construction.
    """

    rows: tuple[Sequence, ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("alignment must have at least one row")
        width = len(self.rows[0])
        for row in self.rows:
            if len(row) != width:
                raise ValueError(
                    f"ragged alignment: row {row.id!r} has length {len(row)}, "
                    f"expected {width}"
                )
        all_gap = (self.codes == ord(GAP)).all(axis=0)
        if all_gap.any():
            raise ValueError(f"column {int(all_gap.argmax())} consists entirely of gaps")

    @cached_property
    def codes(self) -> np.ndarray:
        """The rows as a read-only uint8 depth x width array of ASCII codes."""
        # Sequence admits only ACGT and the gap glyph, so ASCII encodes every row.
        data = "".join(row.residues for row in self.rows).encode("ascii")
        return np.frombuffer(data, dtype=np.uint8).reshape(self.depth, self.width)

    @property
    def width(self) -> int:
        return len(self.rows[0])

    @property
    def depth(self) -> int:
        return len(self.rows)

    def column(self, index: int) -> str:
        return "".join(row.residues[index] for row in self.rows)

    def row_ids(self) -> tuple[str, ...]:
        return tuple(row.id for row in self.rows)


def strip_gaps(seq: Sequence) -> Sequence:
    """Remove all gap symbols from a sequence, keeping id and order."""
    residues = seq.residues.replace(GAP, "")
    if not residues:
        raise ValueError(f"sequence {seq.id!r} contains only gaps")
    return Sequence(seq.id, residues, seq.description)


def check_raw_inputs(seqs: list[Sequence] | tuple[Sequence, ...]) -> list[str]:
    """Check that raw pipeline input holds at least two gapless sequences
    with distinct ids, and return the ids in input order."""
    if len(seqs) < 2:
        raise ValueError("need at least two sequences")
    ids = [seq.id for seq in seqs]
    if len(set(ids)) != len(ids):
        raise ValueError("sequence ids must be distinct")
    for seq in seqs:
        if not seq.is_gapless:
            raise ValueError(f"sequence {seq.id!r} contains gaps")
    return ids


def verify_msa_against_inputs(msa: Msa, inputs: list[Sequence] | tuple[Sequence, ...]) -> None:
    """Check that each alignment row degaps to the matching input sequence.

    Raises ValueError if row ids or degapped residues disagree with the
    inputs (compared by id, order-insensitively).
    """
    originals = {s.id: s.residues for s in inputs}
    if sorted(originals) != sorted(msa.row_ids()):
        raise ValueError("alignment rows do not cover exactly the input ids")
    for row in msa.rows:
        degapped = row.residues.replace(GAP, "")
        if degapped != originals[row.id]:
            raise ValueError(
                f"row {row.id!r} degaps to {degapped!r}, expected {originals[row.id]!r}"
            )


def parse_fasta(text: str | bytes, allow_gaps: bool = False) -> list[Sequence]:
    """Parse FASTA text into sequences.

    Lowercase residues are normalized to uppercase. Gap glyphs ``-`` and
    ``_`` are accepted only when ``allow_gaps`` is set, and are stored as
    the internal gap symbol. Lines end at LF, CRLF or a lone CR only.

    Raises FastaError on empty input, a record with an empty body, an
    illegal character or bytes that are not UTF-8 (both reported with line
    and byte offset), or a duplicate identifier.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as err:
            line = len(re.findall(_LINE_END.encode(), text[: err.start])) + 1
            raise FastaError("input is not valid UTF-8", line, err.start) from None
    if not text.strip():
        raise FastaError("empty FASTA input")

    records: list[Sequence] = []
    seen: set[str] = set()
    header: tuple[str, str] | None = None
    body: list[str] = []
    header_line = 0

    def flush():
        if header is None:
            return
        seq_id, description = header
        if not body:
            raise FastaError(f"record {seq_id!r} has an empty body", header_line)
        records.append(Sequence(seq_id, "".join(body), description))

    offset = 0
    for lineno, raw_line in enumerate(_LINE.findall(text), start=1):
        line = raw_line.rstrip("\r\n")
        if line.startswith(">"):
            flush()
            fields = line[1:].strip().split(None, 1)
            if not fields:
                raise FastaError("header line has no identifier", lineno, offset)
            seq_id = fields[0]
            if seq_id in seen:
                raise FastaError(f"duplicate identifier {seq_id!r}", lineno, offset)
            seen.add(seq_id)
            header = (seq_id, fields[1] if len(fields) > 1 else "")
            header_line = lineno
            body = []
        else:
            if header is None and line.strip():
                raise FastaError("sequence data before first '>' header", lineno, offset)
            for col, ch in enumerate(line):
                if ch.isspace():
                    continue
                up = ch.upper()
                if up in ALPHABET:
                    body.append(up)
                elif up in "-_" and allow_gaps:
                    body.append(GAP)
                else:
                    at = offset + len(line[:col].encode())  # byte offset, not characters
                    if up in "-_":
                        raise FastaError(f"gap character {ch!r} in raw sequence", lineno, at)
                    raise FastaError(f"illegal character {ch!r}", lineno, at)
        offset += len(raw_line.encode())

    flush()
    if not records:
        raise FastaError("no FASTA records found")
    return records


def write_fasta(seqs: list[Sequence] | tuple[Sequence, ...]) -> str:
    """Render sequences as FASTA text: gaps as '-', 60-column wrapping, LF."""
    chunks: list[str] = []
    for seq in seqs:
        desc = seq.description
        if seq.id.split() != [seq.id] or "\n" in desc or "\r" in desc or desc != desc.strip():
            raise ValueError(
                f"sequence {seq.id!r} would not read back from FASTA: an id cannot hold "
                "whitespace, nor a description a line break or leading or trailing whitespace"
            )
        chunks.append(f">{seq.id} {seq.description}\n" if seq.description else f">{seq.id}\n")
        out = seq.residues.replace(GAP, "-")
        for start in range(0, len(out), FASTA_LINE_WIDTH):
            chunks.append(out[start:start + FASTA_LINE_WIDTH] + "\n")
    return "".join(chunks)


def read_fasta_file(path, allow_gaps: bool = False) -> list[Sequence]:
    with open(path, "rb") as handle:
        return parse_fasta(handle.read(), allow_gaps=allow_gaps)

