"""Consolidate per-bench JSON artifacts into one perf-history file.

Each machine-readable bench drops a ``results/BENCH_<name>.json``
snapshot of its headline numbers. This script merges every such file
into ``results/BENCH_trajectory.json``, keyed by commit, so the perf
trajectory across the PR sequence — and the size of the code that
produced it — stays machine-readable in one file:

    {
      "<short-sha>": {
        "commit": "<short-sha>",
        "subject": "<commit subject>",
        "date": "<committer date, ISO>",
        "src_loc": <physical lines under src/repro>,
        "benchmarks": {"engine": {...}, "policy_dag": {...}, ...},
        "copied_forward": [<benchmarks not re-run for this entry>]
      },
      ...
    }

Run it after a full bench pass (``pytest benchmarks/``)::

    python benchmarks/collect_trajectory.py

Re-running on the same commit overwrites that commit's entry; history
for other commits is preserved. ``--key`` overrides the commit key
(e.g. a PR number) when consolidating off-commit results. A section
whose payload is byte-for-byte the previous entry's was not re-run: it
is listed under ``copied_forward`` (timings never repeat exactly).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
SOURCE_DIR = Path(__file__).parent.parent / "src" / "repro"
TRAJECTORY = RESULTS_DIR / "BENCH_trajectory.json"


def git_describe() -> dict:
    """Commit identity for the key and entry metadata."""
    def line(*args: str) -> str:
        return subprocess.run(
            ["git", *args],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()

    return {
        "commit": line("rev-parse", "--short", "HEAD"),
        "subject": line("log", "-1", "--format=%s"),
        "date": line("log", "-1", "--format=%cI"),
    }


def src_loc() -> int:
    """Physical lines of Python under ``src/repro`` (what ``wc -l`` says)."""
    return sum(
        path.read_bytes().count(b"\n") for path in SOURCE_DIR.rglob("*.py")
    )


def collect() -> dict:
    """Every BENCH_*.json payload, keyed by bench name."""
    benchmarks = {}
    for path in sorted(RESULTS_DIR.glob("BENCH_*.json")):
        if path.name == TRAJECTORY.name:
            continue
        name = path.stem[len("BENCH_"):]
        try:
            benchmarks[name] = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            print(f"skipping {path.name}: {error}", file=sys.stderr)
    return benchmarks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--key",
        default=None,
        help="trajectory key (defaults to the current short commit sha)",
    )
    args = parser.parse_args(argv)

    identity = git_describe()
    key = args.key or identity["commit"]
    benchmarks = collect()
    if not benchmarks:
        print("no BENCH_*.json artifacts found; run the benches first",
              file=sys.stderr)
        return 1

    history = {}
    if TRAJECTORY.exists():
        history = json.loads(TRAJECTORY.read_text(encoding="utf-8"))
    earlier = [entry for name, entry in history.items() if name != key]
    previous = max(earlier, key=lambda entry: entry["date"], default={})
    history[key] = {
        **identity,
        "src_loc": src_loc(),
        "benchmarks": benchmarks,
        "copied_forward": sorted(
            name
            for name, payload in benchmarks.items()
            if previous.get("benchmarks", {}).get(name) == payload
        ),
    }
    TRAJECTORY.write_text(
        json.dumps(history, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(
        f"{TRAJECTORY.name}: {len(history)} entr"
        f"{'y' if len(history) == 1 else 'ies'}, "
        f"{len(benchmarks)} benchmark(s) under key {key!r}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
