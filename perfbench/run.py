"""promsa benchmark: time to alignment and accuracy, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload family --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: each ``progressive_align`` call is
issued after the previous one returns. Jobs alternate UPGMA and NJ, each
on a fresh dataset made from (workload, seed, job index). Every output is
checked; the last line of standard output is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics from a run
that traces each layer boundary (``--trace 1``). Metric names, units and
directions come from BENCHMARK.json. README.md in this directory explains
the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# Set-up is sampled every SETUP_EVERY_S seconds through the run, so its
# median spans the same machine phases as the jobs, and at least
# SETUP_MIN_SAMPLES times.
SETUP_EVERY_S = 4.0
SETUP_MIN_SAMPLES = 5

# Runs in a fresh interpreter: the speed probe around a timed import.
IMPORT_SNIPPET = """
import time
from speed import speed_probe
probe = speed_probe()
t0 = time.perf_counter_ns()
import promsa
wall = (time.perf_counter_ns() - t0) / 1e9
print(wall, (probe + speed_probe()) / 2)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine() -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def setup_sample() -> tuple[float, float]:
    """(wall, probe) seconds of ``import promsa`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH_DIR))))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    wall, probe = map(float, done.stdout.split())
    return wall, probe


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "promsa" / "__init__.py").is_file():
        print(f"error: promsa sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from jobs import Runner, end_to_end
    from spans import Tracer, layer_summary
    from workloads import METHODS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    runner = Runner(workload)
    setup = []
    tracer = Tracer() if args.trace else None

    records, layer_jobs, overheads, laps = [], [], [], []
    core = workload.core_jobs
    began = perf_counter_ns()
    job = 0
    # Start another job only while it is expected to end within --seconds.
    while job < core or (perf_counter_ns() - began) / 1e9 + statistics.median(laps) <= args.seconds:
        lap = perf_counter_ns()
        if tracer is None and (perf_counter_ns() - began) / 1e9 >= SETUP_EVERY_S * len(setup):
            setup.append(setup_sample())
        family = workload.dataset(args.seed, job)
        record = runner.execute(job, family)
        if record is not None:
            records.append(record)
        if tracer is not None:
            # The traced re-run doubles as the determinism check: under
            # lexicographic ties a repeated job must give the same output.
            traced = runner.execute(job, family, tracer)
            if traced is not None and record is not None:
                if traced["digest"] != record["digest"]:
                    runner.fail(job, record["method"], ["output differs on repeat"])
                else:
                    layer_jobs.append(tracer.job_metrics(job, round(traced["wall_s"] * 1e9)))
                    overheads.append(traced["seconds"] / record["seconds"])
        job += 1
        laps.append((perf_counter_ns() - lap) / 1e9)
        if not records:
            break

    while tracer is None and len(setup) < SETUP_MIN_SAMPLES:
        setup.append(setup_sample())
    samples = {m: sum(r["method"] == m for r in records) for m in METHODS}
    correct = runner.failed == 0 and len(records) >= core
    metrics = {}
    if tracer is None and all(samples.values()):
        metrics = end_to_end(records, workload, setup, runner.attempted, runner.failed)
    elif tracer is not None and layer_jobs:
        metrics = layer_summary(layer_jobs)
        metrics["trace.overhead_ratio"] = statistics.median(overheads)
        tracer.write(OUT_DIR / f"spans-{args.workload}.csv")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "samples": samples,
        "setup_samples": setup,
        "jobs": records,
        "problems": runner.problems,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    detail_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1) + "\n")

    for problem in runner.problems:
        print(f"FAILED {problem}")
    print(f"# {args.workload} seed={args.seed} machine={json.dumps(detail['machine'])}")
    print(f"# samples per method: {samples}; details in {detail_path.relative_to(ROOT)}")
    for m in METHODS:
        if samples[m]:
            wall = statistics.median(r["wall_s"] for r in records if r["method"] == m)
            probe = statistics.median(r["probe_s"] for r in records if r["method"] == m)
            print(f"# {m}: unscaled wall median {wall:.4f} s, speed probe median {probe * 1e3:.2f} ms")
    result = {}
    for entry in declared:
        name = entry["name"]
        if name not in metrics:
            if correct:
                print(f"error: metric {name} was not computed", file=sys.stderr)
                correct = False
            continue
        result[name] = {"value": metrics[name], "unit": entry["unit"]}
        print(f"{name:40s} {metrics[name]:>16.6g} {entry['unit']:6s} ({entry['better']} is better)")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
