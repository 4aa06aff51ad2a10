"""End-to-end benchmark: compile, stream and fuzz workloads.

One workload per process, one thread, inputs from ``--seed``:

    python3 e2ebench/run.py --workload compile --seed 1 --seconds 20 --trace 0

runs whole rounds of the workload's operations for at least
``--seconds`` wall seconds, checks every output, and prints as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json, timed in process CPU seconds; with ``--trace 1`` they
are the per-layer ones, from timers the benchmark wraps around each
layer's entry points (see layers.py).  The lines before the JSON name
each workload's own figures with their units, and a ``facts:`` line
gives the run's deterministic figures (allocated moves, simulated
throughput and latency) with every digit.

    python3 e2ebench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

runs every workload, each in a fresh process, and prints one table.
"""

from __future__ import annotations

import os

# One thread: the numeric libraries under the ILP solver may not start
# worker threads of their own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: the workloads BENCHMARK.json names, which ``--all`` runs.
WORKLOAD_NAMES = ("compile", "stream", "fuzz")

#: set-up is repeated (inputs regenerated) until this many samples or
#: this many CPU seconds, and its median reported.
SETUP_SAMPLES = 3
SETUP_BUDGET_S = 1.0

#: starts the line that carries a run's deterministic figures in full.
FACTS_PREFIX = "facts: "
#: deterministic figures a workload's rounds repeat, printed by name.
NAMED_FACTS = {
    "alloc.moves": ("alloc_moves", "count"),
    "sim.mbps": ("sim_mbps", "Mb/s"),
    "sim.latency_p95_cycles": ("sim_latency_p95_cycles", "cycles"),
}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"e2ebench: no repro package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from layers import PER_LAYER_UNITS, LayerRecorder

    recorder = None
    if trace:
        recorder = LayerRecorder()
        recorder.install()
    import_s = time.process_time()
    cls = workloads.WORKLOADS[name]
    samples = []
    while len(samples) < SETUP_SAMPLES and sum(samples) < SETUP_BUDGET_S:
        start = time.process_time()
        workload = cls(seed)
        samples.append(time.process_time() - start)
    setup_s = import_s + statistics.median(samples)

    clock = workloads.Clock(recorder)
    rounds = []
    wall_start = time.perf_counter()
    while not rounds or time.perf_counter() - wall_start < seconds:
        rounds.append(workload.run_round(clock))
    wall_s = time.perf_counter() - wall_start

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    faults = [fault for r in rounds for fault in r.faults]
    facts = rounds[0].facts
    for index, rnd in enumerate(rounds[1:], 2):
        if rnd.facts != facts:
            faults.append(f"round {index} simulated/allocated {rnd.facts}, round 1 {facts}")
    for failure in sorted({f for r in rounds for f in r.failures}):
        print(f"FAILED {failure}")
    for fault in faults:
        print(f"FAULT {fault}")

    cpu_s = sum(clock.cpu_s.values())
    ops_per_s = attempted / cpu_s
    ops = sum((r.ops for r in rounds), Counter())
    print(f"{name}: {len(rounds)} rounds, {attempted} operations attempted, {failed} failed")
    if "compile" in ops:
        print(f"  compile_s = {clock.cpu_s['compile'] / len(rounds):.6g} s")
    for kind, count in ops.items():
        print(f"  {kind}s_per_s = {count / clock.cpu_s[kind]:.6g} 1/s")
    for fact, (label, unit) in NAMED_FACTS.items():
        if fact in facts:
            print(f"  {label} = {facts[fact]:.6g} {unit}")
    # Every digit, for steady.py to compare between processes.
    print(FACTS_PREFIX + json.dumps(facts, sort_keys=True))

    if trace:
        values = recorder.metrics(len(rounds), wall_s, attempted)
        values.update(facts)
        metrics = {
            key: {"value": values[key], "unit": unit}
            for key, unit in PER_LAYER_UNITS.items()
        }
        for seed_, spent in sorted(recorder.timeout_seeds.items()):
            print(f"  ILP time limit reached on fuzz seed {seed_}: {spent:.1f} s in the solver")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    return {
        "correct": not faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in a fresh process; one summary table."""
    status = 0
    rows = []
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(int(trace)),
            ],
            capture_output=True,
            text=True,
            check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            status = 1
        rows.append((name, result))
    print()
    print(f"{'workload':<10} {'metric':<30} {'value':>14} unit")
    for name, result in rows:
        print(
            f"{name:<10} {'attempted / failed':<30} "
            f"{result['attempted']:>8} / {result['failed']:<4}"
            f"{'' if result['correct'] else '  INCORRECT'}"
        )
        for metric, value in result["metrics"].items():
            print(f"{'':<10} {metric:<30} {value['value']:>14.6g} {value['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
