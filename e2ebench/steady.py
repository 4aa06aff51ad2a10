"""Steadiness self-check: run each workload in independent sets of runs.

    python3 e2ebench/steady.py [--workloads compile,stream] [--runs 10]
                               [--sets 2] [--first-seed 1]

Each set runs every workload once per seed, each run a fresh process
of ``run.py`` with BENCHMARK.json's ``run_seconds``.  For every
end-to-end metric it prints each set's median and quartiles and the
spread (third minus first quartile, as a share of the median) against
the metric's ``bound``; then, set by set, how much worse the median got
than the first set's, also against the bound.  The share of failed
operations must be identical in every set, and so must each seed's
deterministic figures (the ``facts:`` line of run.py: allocated moves,
simulated throughput and latency) in every set.  Exit status 1 when
any spread or median shift exceeds its bound, a run is incorrect, the
failed shares differ, or a seed's figures differ between sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from run import FACTS_PREFIX  # noqa: E402


def run_once(workload: str, seed: int) -> tuple[dict, dict]:
    """One run's JSON result and its deterministic figures."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(BENCHMARK["run_seconds"]),
        "--trace", "0",
    ]
    proc = subprocess.run(command, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    facts = next(
        json.loads(line[len(FACTS_PREFIX):])
        for line in lines
        if line.startswith(FACTS_PREFIX)
    )
    return json.loads(lines[-1]), facts


def worse_by(metric: dict, reference: float, value: float) -> float:
    """How much ``value`` is worse than ``reference``, as a share."""
    if metric["better"] == "lower":
        return (value - reference) / reference
    return (reference - value) / reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in BENCHMARK["workloads"]),
    )
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    ok = True
    seeds = range(args.first_seed, args.first_seed + args.runs)
    for workload in args.workloads.split(","):
        sets = []
        facts_by_seed = {seed: [] for seed in seeds}
        for number in range(args.sets):
            results = []
            for seed in seeds:
                result, facts = run_once(workload, seed)
                results.append(result)
                facts_by_seed[seed].append(facts)
                print(
                    f"{workload} set {number + 1} seed {seed}: "
                    + " ".join(
                        f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                    ),
                    flush=True,
                )
                if not result["correct"]:
                    ok = False
            sets.append(results)
        shares = {
            sum(r["failed"] for r in results) / sum(r["attempted"] for r in results)
            for results in sets
        }
        if len(shares) != 1:
            ok = False
        print(f"\n{workload}: failed share per set {sorted(shares)}")
        for seed, runs in facts_by_seed.items():
            for number, facts in enumerate(runs[1:], 2):
                for key in sorted(set(facts) | set(runs[0])):
                    if facts.get(key) != runs[0].get(key):
                        ok = False
                        print(f"  seed {seed} {key}: set 1 {runs[0].get(key)!r}, "
                              f"set {number} {facts.get(key)!r}  DIFFERS")
        print(f"  {'metric':<16} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>8} {'worse':>8} {'bound':>6}")
        for metric in BENCHMARK["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first_median = None
            for number, results in enumerate(sets, 1):
                values = [r["metrics"][name]["value"] for r in results]
                q1, _, q3 = statistics.quantiles(values, n=4)
                median = statistics.median(values)
                spread = (q3 - q1) / median
                if first_median is None:
                    first_median = median
                worse = worse_by(metric, first_median, median)
                flag = ""
                if spread > bound or worse > bound:
                    flag = "  OVER"
                    ok = False
                elif spread > bound / 3:
                    flag = "  (over a third of the bound)"
                print(f"  {name:<16} {number:>3} {q1:>12.6g} {median:>12.6g} "
                      f"{q3:>12.6g} {spread:>8.2%} {worse:>8.2%} {bound:>6}{flag}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
