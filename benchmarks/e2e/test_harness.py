"""Tests of the benchmark harness itself.

Run explicitly (``testpaths`` keeps this directory out of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.SPECS)


def _pairs(stream):
    return [[request.sql, request.uid] for request in stream]


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_stream(name):
    first = workloads.make_stream(name, 7, 150)
    again = workloads.make_stream(name, 7, 150)
    assert workloads.stream_digest(_pairs(first)) == workloads.stream_digest(
        _pairs(again)
    )


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_same_composition_per_block(name):
    mix = workloads.SPECS[name].mix
    streams = [workloads.make_stream(name, seed, 150) for seed in (1, 2)]
    assert workloads.stream_digest(_pairs(streams[0])) != workloads.stream_digest(
        _pairs(streams[1])
    )
    for stream in streams:
        assert len(stream) == 150
        for start in range(0, len(stream), workloads.BLOCK):
            block = stream[start:start + workloads.BLOCK]
            assert Counter((r.cls, r.uid) for r in block) == mix


def test_adhoc_texts_are_distinct():
    stream = workloads.make_stream("market_adhoc", 3)
    assert len({request.sql for request in stream}) == len(stream)
    # more texts than the decision cache has entries
    assert len(stream) > 1024 + workloads.SPECS["market_adhoc"].measured


def test_composite_recovers_clean_vector_from_bursts():
    rng = random.Random("composite")
    clean = [rng.uniform(1.0, 3.0) for _ in range(20 * run.BLOCK)]
    replicas = [list(clean) for _ in range(5)]
    # Interference doubles whole stretches of a replica; no request is
    # hit in every replica.
    for block in range(20):
        for hit in rng.sample(range(5), rng.randrange(0, 5)):
            for index in range(block * run.BLOCK, (block + 1) * run.BLOCK):
                replicas[hit][index] *= 2.0
    assert run.composite(replicas) == clean
    # What every replica shows in a block is the program's, and stays.
    for replica in replicas:
        replica[77] += 40.0
    assert run.composite(replicas)[77] == clean[77] + 40.0


def test_percentile_refuses_unsupported_rank():
    values = list(range(100))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.89) == 89  # ten samples beyond
    with pytest.raises(ValueError):
        run.percentile(values, 0.90)  # nine
    with pytest.raises(ValueError):
        run.percentile(values, 0.99)
    fraction, value = run.tail(values)
    assert (fraction, value) == (0.89, 89)


def test_wal_meter_counts_across_a_segment_swap(tmp_path):
    wal = tmp_path / "wal.jsonl"
    wal.write_bytes(b"h" * 40)
    meter = run.WalMeter(wal)
    with wal.open("ab") as handle:
        handle.write(b"a" * 100)
    meter.poll()
    assert (meter.appended, meter.segments) == (100, 0)
    with wal.open("ab") as handle:
        handle.write(b"b" * 30)  # appended after the last poll ...
    fresh = tmp_path / "wal.jsonl.reset"
    fresh.write_bytes(b"h" * 40)
    os.replace(fresh, wal)  # ... and then the checkpoint swaps segments
    with wal.open("ab") as handle:
        handle.write(b"c" * 7)
    meter.poll()
    meter.close()
    assert (meter.appended, meter.segments) == (100 + 30 + 40 + 7, 1)


def test_sized_scales_measured_but_not_warmup():
    spec = workloads.SPECS["market_metered"]
    assert run.sized(spec, run.REFERENCE_SECONDS, False) == (
        spec.warmup,
        spec.measured,
        spec.window,
    )
    assert run.sized(spec, run.REFERENCE_SECONDS / 2, False) == (
        spec.warmup,
        spec.measured // 2,
        spec.window,
    )
    assert run.sized(spec, 0.01, False)[1] == run.MIN_MEASURED


def test_speed_factor_ignores_samples_that_met_a_burst():
    quiet = [run.KERNEL_REFERENCE * 1.2] * 30
    assert run.speed_factor(quiet) == pytest.approx(1.2)
    # up to three quarters of the samples may be stretched
    assert run.speed_factor(quiet + [s * 3 for s in quiet] * 2) == (
        pytest.approx(1.2)
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_quick_run_end_to_end(trace):
    """``--quick`` drives real replicas of all four workloads, kill and
    recovery included, and prints the contract's result line for each."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace", trace],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    assert len(lines) == len(NAMES)
    section = "per_layer" if trace == "1" else "end_to_end"
    declared = run.declared_metrics(section)
    for line in lines:
        result = json.loads(line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert not (HERE / ".run").exists()
