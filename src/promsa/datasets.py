"""Random DNA dataset generation for the benchmark input classes."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .sequences import ALPHABET, Sequence


@dataclass(frozen=True)
class DatasetClass:
    name: str
    count: int
    min_len: int
    max_len: int


SMALL = DatasetClass("small", count=7, min_len=4, max_len=40)
MEDIUM = DatasetClass("medium", count=5, min_len=40, max_len=500)

CLASSES = {c.name: c for c in (SMALL, MEDIUM)}


def generate_sequences(count: int, min_len: int, max_len: int, seed: int) -> list[Sequence]:
    """Uniform random DNA sequences with lengths drawn from [min_len, max_len].

    Output is deterministic for a given seed; ids run seq1..seqN.
    """
    if count < 2:
        raise ValueError("count must be at least 2")
    if min_len < 1:
        raise ValueError("min_len must be positive")
    if min_len > max_len:
        raise ValueError("min_len must not exceed max_len")
    rng = random.Random(seed)
    out = []
    for index in range(1, count + 1):
        length = rng.randint(min_len, max_len)
        residues = "".join(rng.choice(ALPHABET) for _ in range(length))
        out.append(Sequence(f"seq{index}", residues))
    return out
