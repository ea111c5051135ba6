#!/usr/bin/env python3
"""A/A harness: does the benchmark agree with itself?

    python3 benchmarks/e2e/noise.py [--runs 10] [--workload NAME]

Runs ``run.py`` twice over the same code: set A with seeds ``1..n``, set
B with seeds ``n+1..2n``, every workload at every seed. For each
workload × end-to-end metric it then applies the two rules a later
change is judged by, with the metric's bound from BENCHMARK.json:

- *spread*: within each set, the distance between the first and third
  quartile of the n values (``statistics.quantiles(values, n=4)``) as a
  share of their median may not exceed the bound (``setup_s`` is
  reported but exempt);
- *drift*: set B's median may not be worse than set A's by more than
  the bound.

It prints one row per pairing and exits non-zero if any rule is broken
or any run is incorrect. ``results/noise_HEAD.txt`` is its output at the
commit that added the benchmark.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if completed.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartile_spread(values: "list[float]") -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument(
        "--workload", action="append",
        choices=[w["name"] for w in SPEC["workloads"]],
    )
    args = parser.parse_args()
    if args.runs < 3:
        parser.error("a set needs at least 3 runs")
    names = args.workload or [w["name"] for w in SPEC["workloads"]]

    sets = []
    for first_seed in (1, args.runs + 1):
        values: dict = {}
        for seed in range(first_seed, first_seed + args.runs):
            for name in names:
                for metric, value in one_run(name, seed).items():
                    values.setdefault((name, metric), []).append(value)
                print(f"# seed {seed} {name} done", file=sys.stderr, flush=True)
        sets.append(values)

    broken = 0
    print(
        f"{'workload':15} {'metric':20} {'bound':>6} {'median A':>12} "
        f"{'median B':>12} {'drift':>7} {'iqr A':>6} {'iqr B':>6} "
        f"{'range A':>7} {'range B':>7}  verdict"
    )
    for name in names:
        for entry in SPEC["end_to_end"]:
            metric, bound = entry["name"], entry["bound"]
            a, b = (s[(name, metric)] for s in sets)
            median_a, median_b = statistics.median(a), statistics.median(b)
            worse = (median_b - median_a) / median_a
            if entry["better"] == "higher":
                worse = -worse
            spreads = [quartile_spread(a), quartile_spread(b)]
            ranges = [(max(v) - min(v)) / statistics.median(v) for v in (a, b)]
            ok = worse <= bound and (
                metric == "setup_s" or max(spreads) <= bound
            )
            broken += not ok
            print(
                f"{name:15} {metric:20} {bound:6.2f} {median_a:12.4f} "
                f"{median_b:12.4f} {worse:+7.3f} {spreads[0]:6.3f} "
                f"{spreads[1]:6.3f} {ranges[0]:7.3f} {ranges[1]:7.3f}  "
                f"{'ok' if ok else 'BROKEN'}"
            )
    print(f"# {args.runs} runs per set, {broken} pairing(s) out of bound")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
