"""Span tracing of promsa's layers, installed from outside the package.

Modules bind each other's functions with ``from .x import y``, so a call
is intercepted by replacing the name in the module that looks it up
(``promsa.distances.align_global``, not only ``promsa.pairwise``'s).
Spans (name, start, end, parent, job) go into flat arrays in memory and
are written out once, at the end of the run. Counts are taken at the
same boundaries, from the arguments and return values.
"""

from __future__ import annotations

import importlib
import statistics
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

NO_PARENT = -1


def _pairwise_cells(counts, args, result):
    a, b = args[0], args[1]
    counts["pairwise.calls"] += 1
    counts["pairwise.cells"] += (len(a) + 1) * (len(b) + 1)


def _distance_matrix(counts, args, result):
    from promsa.distances import DEFAULT_D_MAX

    d_max = args[2] if len(args) > 2 else DEFAULT_D_MAX
    n = result.size
    counts["distances.pairs"] += n * (n - 1) // 2
    # The matrix is symmetric: count each saturated pair once.
    counts["distances.saturated_pairs"] += int((result.values == d_max).sum()) // 2


def _guide_tree(counts, args, result):
    counts["guide_tree.pairs_scanned"] += result.stats.pairs_scanned
    counts["guide_tree.negative_branches"] += sum(
        (m.left_length < 0) + (m.right_length < 0) for m in result.merge_log
    )


def _profile_cells(counts, args, result):
    counts["profiles.profiled_cells"] += args[0].depth * args[0].width


def _pair_columns(counts, args, result):
    msa = args[0]
    counts["evaluate.pair_columns"] += msa.depth * (msa.depth - 1) // 2 * msa.width


def _counter(key):
    def count(counts, args, result):
        counts[key] += 1

    return count


# (object holding the name, attribute, span name, count hook). Span names
# start with the layer they belong to.
TARGETS = (
    ("promsa.progressive", "progressive_align", "progressive.align", None),
    ("promsa.progressive", "pairwise_distance_matrix", "distances.matrix", _distance_matrix),
    ("promsa.distances", "align_global", "pairwise.align_global", None),
    ("promsa.distances", "column_stats", "distances.column_stats", None),
    ("promsa.distances", "jukes_cantor", "distances.jukes_cantor", None),
    ("promsa.pairwise", "align_strings", "pairwise.align_strings", _pairwise_cells),
    ("promsa.progressive", "upgma_build", "guide_tree.upgma", _guide_tree),
    ("promsa.progressive", "nj_build", "guide_tree.nj", _guide_tree),
    ("promsa.progressive", "align_global", "pairwise.align_global",
     _counter("progressive.merges.leaf_leaf")),
    ("promsa.progressive", "align_sequence_to_profile", "profiles.align_sequence_to_profile",
     _counter("progressive.merges.seq_profile")),
    ("promsa.progressive", "align_profile_to_profile", "profiles.align_profile_to_profile",
     _counter("progressive.merges.profile_profile")),
    ("promsa.profiles", "build_profile", "profiles.build_profile", _profile_cells),
    ("promsa.profiles", "consensus", "profiles.consensus", None),
    ("promsa.profiles", "align_strings", "pairwise.align_strings", _pairwise_cells),
    ("promsa.progressive", "sp_total_cost", "evaluate.sp_total_cost", _pair_columns),
    ("promsa.progressive", "sp_score", "evaluate.sp_score", _pair_columns),
    ("promsa.sequences:Msa", "__post_init__", "sequences.msa",
     _counter("sequences.msa_builds")),
)

# Layers measured by busy time: time inside their outermost spans.
BUSY_LAYERS = ("pairwise", "distances", "guide_tree.upgma", "guide_tree.nj", "profiles",
               "evaluate", "sequences")

COUNT_KEYS = (
    "pairwise.calls", "pairwise.cells", "distances.pairs", "distances.saturated_pairs",
    "guide_tree.pairs_scanned", "guide_tree.negative_branches", "profiles.profiled_cells",
    "progressive.merges.leaf_leaf", "progressive.merges.seq_profile",
    "progressive.merges.profile_profile", "evaluate.pair_columns", "sequences.msa_builds",
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _layer(name: str) -> str:
    return name if name.startswith("guide_tree.") else name.split(".", 1)[0]


class Tracer:
    """Collects spans and counts for the jobs run while it is installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.job = array("i")
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.job_id = NO_PARENT
        self._stack = [NO_PARENT]

    def _wrap(self, fn, span_name, count):
        name_id = len(self.names)
        self.names.append(span_name)
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1])
            self.job.append(self.job_id)
            self.start.append(0)
            self.end.append(0)
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if count is not None:
                count(self.counts[self.job_id], args, result)
            return result

        return traced

    @contextmanager
    def installed(self, job_id: int):
        """Trace one job: wrap every target, and restore them afterwards."""
        self.job_id = job_id
        saved = []
        try:
            for path, attr, span_name, count in TARGETS:
                owner = _owner(path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, span_name, count))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self.job_id = NO_PARENT

    def job_metrics(self, job_id: int, wall_ns: int) -> dict[str, float]:
        """Per-layer busy and self times (s) and counts for one traced job."""
        sids = [s for s in range(len(self.job)) if self.job[s] == job_id]
        names = {s: self.names[self.name[s]] for s in sids}
        dur = {s: self.end[s] - self.start[s] for s in sids}
        children = defaultdict(list)
        for s in sids:
            children[self.parent[s]].append(s)

        busy = Counter()
        for s in sids:
            layer = _layer(names[s])
            p = self.parent[s]
            while p != NO_PARENT and _layer(names[p]) != layer:
                p = self.parent[p]
            if p == NO_PARENT:
                busy[layer] += dur[s]
        self_ns = {s: dur[s] - sum(dur[c] for c in children[s]) for s in sids}

        (root,) = children[NO_PARENT]
        top = children[root]
        tree_end = max(self.end[s] for s in top if names[s].startswith("guide_tree."))
        merge_end = min(self.start[s] for s in top if names[s].startswith("evaluate."))
        merge_children = [s for s in top if tree_end <= self.start[s] and self.end[s] <= merge_end]
        merge_busy = merge_end - tree_end
        merge_self = merge_busy - sum(dur[c] for c in merge_children)

        # Only the tree builder that ran reports a busy time, so each
        # method's mean is taken over its own jobs.
        out = {
            f"{layer}.busy_s": busy[layer] / 1e9
            for layer in BUSY_LAYERS
            if layer in busy or not layer.startswith("guide_tree.")
        }
        out["distances.self_s"] = sum(
            self_ns[s] for s in sids if _layer(names[s]) == "distances"
        ) / 1e9
        out["progressive.merge.busy_s"] = merge_busy / 1e9
        out["progressive.merge.self_s"] = merge_self / 1e9
        out["profiles.calls"] = sum(1 for s in sids if _layer(names[s]) == "profiles")
        # Every span but the root, plus the merge loop's own time, is a
        # blocking layer step; together they should cover the job.
        covered = sum(self_ns[s] for s in sids if s != root) + merge_self
        out["trace.span_coverage"] = covered / wall_ns
        out.update({key: self.counts[job_id][key] for key in COUNT_KEYS})
        out["pairwise.cells_per_s"] = out["pairwise.cells"] / out["pairwise.busy_s"]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write("span,parent,job,name,start_ns,end_ns\n")
            for s in range(len(self.start)):
                handle.write(
                    f"{s},{self.parent[s]},{self.job[s]},{self.names[self.name[s]]},"
                    f"{self.start[s]},{self.end[s]}\n"
                )


def layer_summary(per_job: list[dict[str, float]]) -> dict[str, float]:
    """Mean of every per-job layer metric over the traced jobs reporting it."""
    keys = sorted({k for job in per_job for k in job})
    return {k: statistics.fmean(job[k] for job in per_job if k in job) for k in keys}
