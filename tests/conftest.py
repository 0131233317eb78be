import pytest

import promsa.pairwise


@pytest.fixture(autouse=True)
def empty_alignment_memo():
    """Start every test with an empty ``align_strings`` memo, so that no
    count or error in one test depends on what an earlier test aligned."""
    promsa.pairwise._memo_align.cache_clear()
