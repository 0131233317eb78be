"""The 48-run output digest of ``tools/output_digest.py``, pinned.

Equal digests mean byte-identical rows, Newick trees and scores over
perfbench's three workloads at seed 1, jobs 0-3, both guide-tree methods
and both tie-break modes. A change that is meant to alter outputs updates
the pin and says why.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PINNED_DIGEST = (48, "579932442be4a606f47134538284307a55f9ee5f5984c3ee34842a1ad8c0b3b8")


def test_output_digest_is_pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    path = ROOT / "tools" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.output_digest() == PINNED_DIGEST
