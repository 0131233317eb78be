"""Timed, checked jobs: one ``progressive_align`` call each.

Each call's wall time is scaled by a speed probe measured around it, and
the end-to-end metrics are computed from the job records.
"""

from __future__ import annotations

import gc
import resource
import statistics
from time import perf_counter_ns

import promsa.progressive
from promsa import PipelineConfig

from checks import check_report, digest
from family import q_score
from speed import scaled, speed_probe
from workloads import METHODS


class Runner:
    """Runs, times and checks the jobs of one workload."""

    def __init__(self, workload):
        self.workload = workload
        self.configs = {m: PipelineConfig(guide_method=m) for m in METHODS}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, job: int, method: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"job {job} ({method}): {p}" for p in problems]

    def execute(self, job: int, family, tracer=None):
        """One timed, checked ``progressive_align`` call; None if it failed."""
        method = self.workload.method(job)
        cfg = self.configs[method]
        self.attempted += 1
        gc.collect()
        probe_before = speed_probe()
        try:
            if tracer is None:
                t0 = perf_counter_ns()
                report = promsa.progressive.progressive_align(family.seqs, cfg)
                t1 = perf_counter_ns()
            else:
                with tracer.installed(job):
                    t0 = perf_counter_ns()
                    report = promsa.progressive.progressive_align(family.seqs, cfg)
                    t1 = perf_counter_ns()
        except Exception as err:  # any failure is counted, and the loop goes on
            self.fail(job, method, [f"{type(err).__name__}: {err}"])
            return None
        probe_s = (probe_before + speed_probe()) / 2
        problems = check_report(report, family.seqs, cfg.scoring)
        if problems:
            self.fail(job, method, problems)
            return None
        return {
            "job": job,
            "method": method,
            "wall_s": (t1 - t0) / 1e9,
            "probe_s": probe_s,
            "seconds": scaled((t1 - t0) / 1e9, probe_s),
            "sp_score": report.sp_score,
            "total_cost": report.total_cost,
            "q_score": q_score(report.msa, family),
            "digest": digest(report),
        }


def end_to_end(records, workload, setup, attempted, failed) -> dict:
    out = {}
    for method in METHODS:
        mine = [r for r in records if r["method"] == method]
        scored = [r for r in mine if r["job"] < workload.core_jobs]
        out[f"align_s.{method}"] = statistics.median(r["seconds"] for r in mine)
        out[f"sp_score.{method}"] = sum(r["sp_score"] for r in scored)
        out[f"total_cost.{method}"] = sum(r["total_cost"] for r in scored)
        out[f"q_score.{method}"] = statistics.fmean(r["q_score"] for r in scored)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["setup_s"] = statistics.median(scaled(wall, probe) for wall, probe in setup)
    out["ok_ratio"] = (attempted - failed) / attempted
    return out
