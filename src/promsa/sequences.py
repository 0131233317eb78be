"""DNA sequence and alignment data model plus FASTA input/output.

Residues are plain strings over the alphabet A, C, G, T with ``_`` as the
internal gap glyph. FASTA output renders gaps as ``-``; both glyphs are
accepted on input. An alignment holds its rows as one uint8 code block and
builds them as ``Sequence`` values only when they are read. It counts each
column's symbols once, when it is built, in the pass that checks its codes;
profiles, consensus and sum-of-pairs scoring read those counts. All types
are immutable values and safe to share across threads.
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

# The count bin of each code: its position in SYMBOLS, or len(SYMBOLS) for any other code.
_BIN = np.full(256, len(SYMBOLS), dtype=np.intp)
_BIN[np.frombuffer(SYMBOLS.encode("ascii"), dtype=np.uint8)] = np.arange(len(SYMBOLS))

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


class Msa:
    """A rectangular block of gapped sequences, held as codes.

    ``codes`` is a read-only uint8 depth x width array of the rows' ASCII
    codes, and ``ids`` and ``descriptions`` name its rows. ``counts`` is a
    read-only width x 5 int64 array holding how often each of SYMBOLS (A, C,
    G, T, gap, in that order) occurs in each column, so each column's counts
    total the depth; it is taken in the one pass that checks the codes.
    Invariants enforced on construction: at least one row, ids and
    descriptions for every row of codes, only SYMBOLS in the codes, and no
    column made up entirely of gaps. ``rows`` builds the rows as Sequences
    when first read and keeps them. Alignments compare and hash by ids,
    descriptions and codes, and are immutable.
    """

    def __init__(self, rows: tuple[Sequence, ...]):
        rows = tuple(rows)
        width = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != width:
                raise ValueError(
                    f"ragged alignment: row {row.id!r} has length {len(row)}, "
                    f"expected {width}"
                )
        # Sequence admits only ACGT and the gap glyph, so ASCII encodes every row.
        data = "".join(row.residues for row in rows).encode("ascii")
        codes = np.frombuffer(data, dtype=np.uint8).reshape(len(rows), width)
        ids = tuple(row.id for row in rows)
        descriptions = tuple(row.description for row in rows)
        self.__dict__.update(ids=ids, descriptions=descriptions, codes=codes, rows=rows)
        self.__post_init__()

    @classmethod
    def _from_codes(
        cls, ids: tuple[str, ...], descriptions: tuple[str, ...], codes: np.ndarray
    ) -> Msa:
        """An alignment over a uint8 code block, which it takes over and makes read-only."""
        codes.flags.writeable = False
        msa = cls.__new__(cls)
        msa.__dict__.update(ids=ids, descriptions=descriptions, codes=codes)
        msa.__post_init__()
        return msa

    def __post_init__(self):
        ids, codes = self.ids, self.codes
        if not ids:
            raise ValueError("alignment must have at least one row")
        if codes.ndim != 2 or codes.shape[0] != len(ids) or len(self.descriptions) != len(ids):
            raise ValueError(
                f"alignment shape mismatch: {len(ids)} ids and {len(self.descriptions)} "
                f"descriptions for codes of shape {codes.shape}"
            )
        if not codes.shape[1]:
            raise ValueError(f"sequence {ids[0]!r} has no residues")
        # Code c of column j counts into bin 6*j + _BIN[c], so the last bin of
        # each column counts its codes outside SYMBOLS.
        width, bins = codes.shape[1], len(SYMBOLS) + 1
        keys = _BIN.take(codes)
        keys += np.arange(0, bins * width, bins)
        counts = np.bincount(keys.ravel(), minlength=bins * width).reshape(width, bins)
        # count_nonzero, not ndarray.any(): about a microsecond less a test,
        # which shows at one alignment built per join.
        if np.count_nonzero(counts[:, -1]):
            row = int((_BIN.take(codes) == len(SYMBOLS)).any(axis=1).argmax())
            bad = set(codes[row].tobytes().decode("latin-1")) - set(SYMBOLS)
            raise ValueError(f"sequence {ids[row]!r} contains invalid symbols: {sorted(bad)}")
        all_gap = counts[:, SYMBOLS.index(GAP)] == len(ids)
        if np.count_nonzero(all_gap):
            raise ValueError(f"column {int(all_gap.argmax())} consists entirely of gaps")
        counts.flags.writeable = False
        self.__dict__["counts"] = counts[:, :-1]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @cached_property
    def rows(self) -> tuple[Sequence, ...]:
        text = self.codes.tobytes().decode("ascii")
        width = self.width
        return tuple(
            Sequence(row_id, text[start:start + width], description)
            for row_id, description, start in zip(
                self.ids, self.descriptions, range(0, len(text), width)
            )
        )

    @property
    def width(self) -> int:
        return self.codes.shape[1]

    @property
    def depth(self) -> int:
        return self.codes.shape[0]

    def column(self, index: int) -> str:
        return self.codes[:, index].tobytes().decode("ascii")

    def column_frequencies(self, column: int) -> dict[str, float]:
        """Each symbol present in ``column``, in SYMBOLS order, with its count / depth."""
        return {
            symbol: count / self.depth
            for symbol, count in zip(SYMBOLS, self.counts[column].tolist())
            if count
        }

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.ids == other.ids
            and self.descriptions == other.descriptions
            and np.array_equal(self.codes, other.codes)
        )

    def __hash__(self) -> int:
        return hash((self.ids, self.descriptions, self.codes.shape, self.codes.tobytes()))

    def __repr__(self) -> str:
        return f"Msa(rows={self.rows!r})"


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
    if sorted(originals) != sorted(row.id for row in msa.rows):
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
    and byte offset), or a duplicate identifier. One leading byte-order mark
    (U+FEFF) is skipped.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as err:
            line = len(re.findall(_LINE_END.encode(), text[: err.start])) + 1
            raise FastaError("input is not valid UTF-8", line, err.start) from None
    # A leading byte-order mark is skipped, but its UTF-8 bytes still count
    # in every byte offset, so each reported offset indexes the file.
    bom = "\ufeff" if text.startswith("\ufeff") else ""
    text = text[len(bom):]
    if not text.strip():
        raise FastaError("empty FASTA input")

    # What a body line may hold: \s matches exactly what str.split() drops,
    # and no character but acgt upper-cases into ALPHABET or a gap glyph.
    illegal = re.compile(rf"[^{ALPHABET}{ALPHABET.lower()}\s{'_-' if allow_gaps else ''}]")
    records: list[Sequence] = []
    seen: set[str] = set()
    header: tuple[str, str] | None = None
    body: list[str] = []
    header_line = 0

    def flush():
        if header is None:
            return
        seq_id, description = header
        residues = "".join("".join(body).split()).upper().replace("-", GAP)
        if not residues:
            raise FastaError(f"record {seq_id!r} has an empty body", header_line)
        records.append(Sequence(seq_id, residues, description))

    offset = len(bom.encode())
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
            bad = illegal.search(line)
            if bad:
                ch = bad.group()
                at = offset + len(line[: bad.start()].encode())  # byte offset, not characters
                if ch in "-_":
                    raise FastaError(f"gap character {ch!r} in raw sequence", lineno, at)
                raise FastaError(f"illegal character {ch!r}", lineno, at)
            body.append(line)
        offset += len(raw_line.encode())

    flush()
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

