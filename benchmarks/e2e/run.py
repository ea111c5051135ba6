#!/usr/bin/env python3
"""Gateway-to-fsync benchmark: one closed-loop client against the real
HTTP gateway, replayed over fresh replicas.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed 1]
        [--seconds 15] [--trace [0|1]] [--replicas 5] [--quick]

For each workload it prints one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace``
the per-layer ones). It exits non-zero when a check fails. README.md in
this directory defines every metric and workload and gives the noise
measurements behind the protocol.

A run of one workload is ``R`` replicas. Each is a fresh server child
(``server_child.py``) over an empty data directory, sent the
byte-identical warm-up + measured stream by one client that waits for
every reply; client and servers are pinned to one CPU. Two things make
the timings repeat on a shared host:

- *calibration*: every 50 ms the client times a fixed pure-Python
  kernel on that CPU. A replica's speed factor is the lower quartile of
  its kernel times over the kernel's time on a quiet box, and every
  time taken from the replica is divided by it. A host that runs
  everything 40 % slower for ten minutes moves kernel and server alike.
- *composite*: request ``i`` is answered ``R`` times; the harness keeps
  the fastest calibrated answer. Interference shorter than a replica
  only ever adds time, so the minimum drops it; what the program itself
  does at request ``i`` — a checkpoint, a compaction — is in every
  replica and stays. The composite is licensed by a check: all replicas
  must return the same status / verdict / violated-policy sequence.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

try:
    import workloads
    from repro.storage.wal import CHECKPOINT_DIR, WAL_NAME, recover_enforcer
except ImportError as error:
    sys.exit(f"run.py: needs the repro package under {SRC}: {error}")

BLOCK = workloads.BLOCK
#: ``--seconds`` at which a workload runs its spec's measured count; the
#: measured phases of the replicas then add up to about this long.
REFERENCE_SECONDS = 15
REPLICAS = 5
RECOVERY_TRIALS = 15
#: Fewest measured requests a shortened run may use (p90 then still has
#: ten samples beyond it).
MIN_MEASURED = 125
#: Requests from the start of the stream (warm-up included, so that log
#: state matters) checked against the NoOpt oracle, whose cost grows
#: quadratically with the stream.
ORACLE_PREFIX = 200
#: Seconds between two samples of the calibration kernel, and the
#: kernel's time on the quiet box the benchmark was written on: a speed
#: factor of 1.0 means "as fast as that box".
KERNEL_EVERY = 0.05
KERNEL_REFERENCE = 0.00065
HOST = "127.0.0.1"
RUN_ROOT = HERE / ".run"
RESULTS = HERE / "results"

#: Span name → per-layer metric holding its mean self time per request.
SELF_TIME_METRICS = {
    "service.submit": "service.submit_ms",
    "enforcer.submit": "enforcer.self_ms",
    "decision_cache.lookup": "decision_cache.lookup_ms",
    "decision_cache.store": "decision_cache.store_ms",
    "log.generate": "log.generate_ms",
    "log.stage": "log.stage_ms",
    "log.commit": "log.commit_ms",
    "log.discard": "log.discard_ms",
    "incremental.check": "incremental.check_ms",
    "incremental.fold": "incremental.fold_ms",
    "engine.dag": "engine.dag_ms",
    "engine.plan": "engine.plan_ms",
    "engine.execute": "engine.execute_ms",
    "sql.parse": "sql.parse_ms",
    "wal.append": "wal.append_ms",
}

#: ``repro_phase_seconds_total`` phase → per-layer metric.
PHASE_METRICS = {
    "policy_eval": "enforcer.phase.policy_eval_ms",
    "compact_mark": "enforcer.phase.compact_mark_ms",
    "compact_delete": "enforcer.phase.compact_delete_ms",
    "compact_insert": "enforcer.phase.compact_insert_ms",
    "query": "enforcer.phase.query_ms",
    "log:users": "enforcer.phase.log_users_ms",
    "log:schema": "enforcer.phase.log_schema_ms",
    "log:provenance": "enforcer.phase.log_provenance_ms",
}

#: Least share of the client's wall clock the traced spans must cover
#: (the ROADMAP's "layers sum to the wall clock").
COVERAGE_FLOOR = 0.9


# ---------------------------------------------------------------------------
# Pure helpers (exercised by test_harness.py)
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], fraction: float, beyond: int = 10):
    """Nearest-rank percentile that refuses an unsupported rank: at least
    ``beyond`` samples must lie beyond the one returned."""
    ordered = sorted(values)
    rank = int(fraction * len(ordered))
    if len(ordered) - 1 - rank < beyond:
        raise ValueError(
            f"p{fraction * 100:g} of {len(ordered)} samples has fewer than "
            f"{beyond} samples beyond it"
        )
    return ordered[rank]


def tail(values: Sequence[float], beyond: int = 10) -> "tuple[float, float]":
    """The highest supported percentile: ``(fraction, value)`` with
    exactly ``beyond`` samples beyond the value."""
    ordered = sorted(values)
    rank = len(ordered) - 1 - beyond
    if rank < 0:
        raise ValueError(f"{len(ordered)} samples cannot leave {beyond} beyond")
    return rank / len(ordered), ordered[rank]


def composite(replicas: "Sequence[Sequence[float]]") -> "list[float]":
    """Per request, the fastest replica's observation."""
    return [min(observations) for observations in zip(*replicas)]


def speed_factor(kernel_seconds: Sequence[float]) -> float:
    """How much slower than the reference box a replica's CPU ran: the
    lower quartile of its kernel samples (a sample that shared the CPU
    with a burst is too long, never too short) over the reference."""
    ordered = sorted(kernel_seconds)
    return ordered[len(ordered) // 4] / KERNEL_REFERENCE


def sized(spec, seconds: float, quick: bool) -> "tuple[int, int, int]":
    """(warm-up, measured, window) request counts, in whole blocks.

    ``--seconds`` scales the measured count from the spec's (never below
    :data:`MIN_MEASURED`); warm-up and window are fixed, because they
    must outlast the longest policy window. ``--quick`` divides all
    three by 20.
    """
    measured = max(MIN_MEASURED, spec.measured * seconds / REFERENCE_SECONDS)
    counts = (spec.warmup, measured, spec.window)
    if quick:
        counts = (spec.warmup / 20, spec.measured / 20, spec.window / 20)
    return tuple(max(1, round(count / BLOCK)) * BLOCK for count in counts)


# ---------------------------------------------------------------------------
# HTTP, one connection per request (the gateway speaks HTTP/1.0)
# ---------------------------------------------------------------------------


def encode_query(request) -> bytes:
    body = json.dumps(
        {"sql": request.sql, "uid": request.uid}, separators=(",", ":")
    ).encode("utf-8")
    head = (
        "POST /v1/query HTTP/1.0\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


def exchange(port: int, request: bytes) -> "tuple[int, bytes, float]":
    """Send one request, wait for the whole reply: (status, body, seconds).
    The clock runs from before ``connect`` to the server's close."""
    started = time.perf_counter()
    with socket.create_connection((HOST, port)) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    seconds = time.perf_counter() - started
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head[9:12]), body, seconds


def get(port: int, path: str) -> bytes:
    status, body, _ = exchange(port, f"GET {path} HTTP/1.0\r\n\r\n".encode())
    if status != 200:
        raise RuntimeError(f"GET {path} → {status}")
    return body


def get_data(port: int, path: str) -> dict:
    return json.loads(get(port, path))["data"]


def live_log_rows(port: int) -> int:
    return sum(get_data(port, "/v1/log")["log"].values())


def parse_prometheus(text: str) -> "dict[str, float]":
    """``name{labels}`` → value, for the 0.0.4 text exposition."""
    samples = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            samples[key] = float(value)
    return samples


def prom(samples: dict, name: str, label: str = "") -> float:
    """Sum of the samples of one family whose label text holds ``label``."""
    return sum(
        value
        for key, value in samples.items()
        if key.partition("{")[0] == name and label in key
    )


# ---------------------------------------------------------------------------
# One replica
# ---------------------------------------------------------------------------


def kernel_seconds() -> float:
    """Fastest of three runs of a fixed pure-Python kernel: how slow the
    CPU this process is pinned to is right now."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        table: dict = {}
        total = 0
        for i in range(6000):
            table[i & 255] = total
            total += (i * i) % 7 + len(table)
        best = min(best, time.perf_counter() - started)
    return best


class WalMeter:
    """Bytes appended to a shard's WAL, read from the files alone.

    A checkpoint replaces ``wal.jsonl`` with a fresh segment; holding the
    old segment open keeps its final size readable, so polling once per
    block (far more often than checkpoints happen) loses nothing.
    """

    def __init__(self, path: Path):
        self.path = path
        self.fd = os.open(path, os.O_RDONLY)
        self.seen = os.fstat(self.fd).st_size
        self.appended = 0
        self.segments = 0

    def poll(self) -> None:
        held = os.fstat(self.fd)
        if os.stat(self.path).st_ino != held.st_ino:
            self.appended += held.st_size - self.seen
            os.close(self.fd)
            self.fd = os.open(self.path, os.O_RDONLY)
            self.seen = 0
            self.segments += 1
            held = os.fstat(self.fd)
        self.appended += held.st_size - self.seen
        self.seen = held.st_size

    def close(self) -> None:
        os.close(self.fd)


@dataclass
class Snapshot:
    """The program's own counters at one instant, plus the child's CPU."""

    stats: dict
    metrics: dict
    cpu_seconds: float


@dataclass
class Replica:
    spawn_s: float
    #: Calibration kernel samples taken while the stream ran.
    kernel: "list[float]" = field(default_factory=list)
    latencies: "list[float]" = field(default_factory=list)
    #: (status, allowed, violated policy names) per stream request.
    outcomes: "list[tuple]" = field(default_factory=list)
    response_bytes: int = 0
    failed: int = 0
    before: Optional[Snapshot] = None
    after: Optional[Snapshot] = None
    #: Live usage-log rows after each measured block.
    log_rows: "list[int]" = field(default_factory=list)
    wal_bytes: int = 0
    checkpoints: int = 0
    checkpoint_bytes: int = 0
    peak_rss_mb: float = 0.0

    @property
    def speed(self) -> float:
        return speed_factor(self.kernel)

    def calibrated(self, start: int, end: Optional[int] = None) -> "list[float]":
        speed = self.speed
        return [seconds / speed for seconds in self.latencies[start:end]]


def child_cpu_seconds(pid: int) -> float:
    fields = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def child_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


def snapshot(port: int, pid: int) -> Snapshot:
    return Snapshot(
        stats=get_data(port, "/v1/stats"),
        metrics=parse_prometheus(get(port, "/v1/metrics").decode()),
        cpu_seconds=child_cpu_seconds(pid),
    )


def spawn(name: str, data_dir: Path, trace_out: Optional[Path]):
    """Start a server child; returns (process, port, spawn→healthy seconds)."""
    command = [sys.executable, str(HERE / "server_child.py"), name, str(data_dir)]
    if trace_out is not None:
        command.append(str(trace_out))
    env = {k: v for k, v in os.environ.items() if k != "REPRO_WORKERS_MODE"}
    env["PYTHONHASHSEED"] = "0"
    started = time.perf_counter()
    process = subprocess.Popen(
        command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env
    )
    line = process.stdout.readline()
    if not line:
        process.wait()
        raise RuntimeError(f"server child exited with {process.returncode}")
    port = int(line)
    get(port, "/v1/health")
    return process, port, time.perf_counter() - started


def stop(process, graceful: bool) -> None:
    """SIGKILL (what recovery is tested against), or close stdin and let
    a traced child write its spans."""
    if not graceful:
        process.send_signal(signal.SIGKILL)
    process.stdin.close()
    process.wait()
    process.stdout.close()


def ask(port: int, request: bytes) -> "tuple[tuple, int, float]":
    """One query: ((status, allowed, violated names), body bytes, seconds).
    A transport error or an unreadable body is status 0."""
    try:
        status, body, seconds = exchange(port, request)
        data = json.loads(body).get("data", {})
    except (OSError, ValueError):
        return (0, None, ()), 0, 0.0
    violated = tuple(sorted(v["policy"] for v in data.get("violations", ())))
    return (status, data.get("allowed"), violated), len(body), seconds


def run_replica(
    name: str,
    requests: "Sequence[bytes]",
    warmup: int,
    data_dir: Path,
    trace_out: Optional[Path] = None,
) -> Replica:
    """Serve the stream from a fresh child, then stop the child."""
    process, port, spawn_s = spawn(name, data_dir, trace_out)
    replica = Replica(spawn_s=spawn_s)
    shard_dir = data_dir / "shard-0"
    meter = None
    try:
        gc.collect()
        gc.disable()  # the client's own collector must not land in a latency
        next_kernel = 0.0
        for index, request in enumerate(requests):
            if time.perf_counter() >= next_kernel:
                replica.kernel.append(kernel_seconds())
                next_kernel = time.perf_counter() + KERNEL_EVERY
            if index == warmup:
                replica.before = snapshot(port, process.pid)
                meter = WalMeter(shard_dir / WAL_NAME)
            outcome, size, seconds = ask(port, request)
            replica.latencies.append(seconds)
            replica.outcomes.append(outcome)
            replica.failed += outcome[0] not in (200, 403)
            if index >= warmup:
                replica.response_bytes += size
                if (index + 1 - warmup) % BLOCK == 0:
                    meter.poll()
                    replica.log_rows.append(live_log_rows(port))
        replica.after = snapshot(port, process.pid)
        replica.wal_bytes = meter.appended
        replica.checkpoints = meter.segments
        replica.checkpoint_bytes = sum(
            path.stat().st_size
            for path in (shard_dir / CHECKPOINT_DIR).iterdir()
        )
        replica.peak_rss_mb = child_peak_rss_mb(process.pid)
    finally:
        gc.enable()
        if meter is not None:
            meter.close()
        stop(process, graceful=trace_out is not None)
    return replica


# ---------------------------------------------------------------------------
# Checks that are not timed: oracle, recovery
# ---------------------------------------------------------------------------


def oracle_outcomes(name: str, stream) -> "list[tuple]":
    """(allowed, violated policy names) per request from Eq. (1) evaluated
    literally: a fresh NoOpt enforcer fed the same stream in-process."""
    oracle = workloads.build_oracle(name)
    expected = []
    for request in stream:
        decision = oracle.submit(request.sql, uid=request.uid)
        expected.append(
            (
                decision.allowed,
                tuple(sorted(v.policy_name for v in decision.violations)),
            )
        )
    return expected


def time_recovery(name: str, data_dir: Path) -> "tuple[float, int, int]":
    """Fastest ``recover_enforcer`` call of several, each on a fresh copy
    of the killed replica's shard directory, calibrated by the kernel
    samples taken between the calls: (seconds, recovered live log rows,
    replayed WAL records)."""
    fastest = float("inf")
    kernel = [kernel_seconds()]
    for trial in range(RECOVERY_TRIALS):
        copy = data_dir.with_name(f"{data_dir.name}-recover{trial}")
        shutil.copytree(data_dir / "shard-0", copy)
        gc.collect()
        gc.disable()  # a collection lands in some trials and not in others
        try:
            started = time.perf_counter()
            enforcer, wal, report = recover_enforcer(
                copy, clock=workloads.make_clock(name)
            )
            fastest = min(fastest, time.perf_counter() - started)
        finally:
            gc.enable()
        kernel.append(kernel_seconds())
        wal.close()
        shutil.rmtree(copy)
    rows = sum(enforcer.log_sizes().values())
    return fastest / speed_factor(kernel), rows, report.replayed


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def ratio(part: float, rest: float) -> float:
    return part / (part + rest) if part + rest else 0.0


def counter_metrics(replica: Replica, measured: int) -> dict:
    """Per-layer numbers from the program's own endpoints: deltas over
    the measured phase of one replica, times calibrated."""
    before, after = replica.before, replica.after

    def delta(family: str, label: str = "") -> float:
        return prom(after.metrics, family, label) - prom(
            before.metrics, family, label
        )

    def shard(snap: Snapshot, section: str) -> dict:
        return snap.stats["per_shard"][0].get(section, {})

    def shard_delta(section: str, key: str) -> float:
        return shard(after, section).get(key, 0) - shard(before, section).get(
            key, 0
        )

    per_query_ms = 1000.0 / measured / replica.speed
    values = {
        "server.response_bytes": replica.response_bytes / measured,
        "server.cpu_ms_per_query": (after.cpu_seconds - before.cpu_seconds)
        * per_query_ms,
        "service.queue_wait_ms": delta("repro_queue_wait_seconds_sum")
        * per_query_ms,
        "service.batch_size_mean": delta("repro_batch_size_sum")
        / max(1.0, delta("repro_batch_size_count")),
        "service.overloads": after.stats["totals"]["rejected"]
        - before.stats["totals"]["rejected"],
        "decision_cache.hit_ratio": ratio(
            shard_delta("decision_cache", "hits"),
            shard_delta("decision_cache", "misses"),
        ),
        "decision_cache.stores": shard_delta("decision_cache", "stores"),
        "decision_cache.evictions": shard_delta("decision_cache", "evictions"),
        "decision_cache.entries": shard(after, "decision_cache").get(
            "entries", 0
        ),
        "log.rows_disk": replica.log_rows[-1],
        "incremental.hit_ratio": ratio(
            shard_delta("incremental", "hits"),
            shard_delta("incremental", "fallbacks"),
        ),
        "incremental.state_entries": shard(after, "incremental").get(
            "state_entries", 0
        ),
        "engine.plan_cache_hit_ratio": ratio(
            delta("repro_plan_cache_hits_total"),
            delta("repro_plan_cache_misses_total"),
        ),
        "engine.dag_saved_execs_per_query": delta("repro_dag_saved_execs_total")
        / measured,
        "engine.join_build_hit_ratio": ratio(
            delta("repro_join_build_cache_hits_total"),
            delta("repro_join_build_cache_misses_total"),
        ),
        "engine.chunks_skipped_ratio": ratio(
            delta("repro_engine_chunks_skipped_total"),
            delta("repro_engine_chunks_scanned_total"),
        ),
        "wal.appends_per_query": delta("repro_wal_appends_total") / measured,
        "wal.fsyncs_per_query": delta("repro_wal_fsyncs_total") / measured,
        "wal.checkpoints": replica.checkpoints,
        "wal.checkpoint_bytes": replica.checkpoint_bytes,
    }
    for phase, metric in PHASE_METRICS.items():
        values[metric] = (
            delta("repro_phase_seconds_total", f'phase="{phase}"') * per_query_ms
        )
    return values


def trace_metrics(
    trace_path: Path, traced: Replica, warmup: int, measured: int
) -> dict:
    """Per-layer self times from the traced replica's span file."""
    spans = json.loads(trace_path.read_text())["spans"]
    child_seconds: dict = {}
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_seconds[parent] = child_seconds.get(parent, 0.0) + end - start
    self_seconds: dict = {}
    enforcer_seconds = 0.0
    checkpoints = []
    staged_rows = 0
    submit_by_request: dict = {}
    for span_id, name, start, end, parent, request, value in spans:
        if request < warmup:
            continue
        duration = end - start
        self_seconds[name] = (
            self_seconds.get(name, 0.0)
            + duration
            - child_seconds.get(span_id, 0.0)
        )
        if name == "enforcer.submit":
            enforcer_seconds += duration
        elif name == "wal.checkpoint":
            checkpoints.append(duration)
        elif name == "log.stage":
            staged_rows += value
        elif name == "service.submit":
            submit_by_request.setdefault(request, duration)  # the outermost
    per_query_ms = 1000.0 / measured / traced.speed
    client_seconds = sum(traced.latencies[warmup:])
    values = {
        metric: self_seconds.get(name, 0.0) * per_query_ms
        for name, metric in SELF_TIME_METRICS.items()
    }
    values["enforcer.submit_ms"] = enforcer_seconds * per_query_ms
    values["server.http_ms"] = (
        client_seconds - sum(submit_by_request.values())
    ) * per_query_ms
    values["log.rows_staged_per_query"] = staged_rows / measured
    values["wal.checkpoint_ms"] = (
        statistics.mean(checkpoints) * 1000.0 / traced.speed
        if checkpoints
        else 0.0
    )
    values["trace.coverage_ratio"] = sum(self_seconds.values()) / client_seconds
    return values


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    replicas: int,
    quick: bool,
) -> dict:
    spec = workloads.SPECS[name]
    warmup, measured, window = sized(spec, seconds, quick)
    stream = workloads.make_stream(name, seed, warmup + measured)
    requests = [encode_query(request) for request in stream]
    # The ledger stream does not depend on the seed: one window to reach
    # steady state, one to count over.
    ledger_requests = [
        encode_query(request)
        for request in workloads.make_stream(name, "ledger", 2 * window)
    ]
    problems: "list[str]" = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    run_dir = RUN_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    trace_path = RESULTS / f"trace_{name}.json"
    try:
        runs: "list[Replica]" = []
        for index in range(replicas):
            runs.append(
                run_replica(name, requests, warmup, run_dir / f"replica{index}")
            )
            note(
                f"{name} replica {index}: spawn {runs[-1].spawn_s:.2f}s, "
                f"measured {sum(runs[-1].latencies[warmup:]):.2f}s, "
                f"speed factor {runs[-1].speed:.3f}"
            )
        recovery_s, recovered_rows, replayed = time_recovery(
            name, run_dir / f"replica{replicas - 1}"
        )
        ledger = run_replica(name, ledger_requests, window, run_dir / "ledger")
        traced = None
        if trace:
            RESULTS.mkdir(exist_ok=True)
            traced = run_replica(
                name, requests, warmup, run_dir / "traced", trace_path
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if not any(RUN_ROOT.iterdir()):
            RUN_ROOT.rmdir()

    everyone = runs + ([traced] if traced else [])
    attempted = len(requests) * len(everyone) + len(ledger_requests)
    failed = sum(replica.failed for replica in everyone) + ledger.failed

    # Replicas agree (this is what licenses the composite) ...
    first = runs[0]
    digest = workloads.stream_digest(first.outcomes)
    for index, replica in enumerate(everyone):
        check(
            workloads.stream_digest(replica.outcomes) == digest,
            f"replica {index} answered differently from replica 0",
        )
        check(
            (replica.wal_bytes, replica.log_rows)
            == (first.wal_bytes, first.log_rows),
            f"replica {index} wrote a different log from replica 0",
        )
    # ... and agree with Eq. (1).
    prefix = min(ORACLE_PREFIX, len(stream))
    expected = oracle_outcomes(name, stream[:prefix])
    mismatches = sum(
        (allowed, violated) != want
        for (_, allowed, violated), want in zip(first.outcomes, expected)
    )
    check(mismatches == 0, f"{mismatches} of {prefix} answers differ from the oracle")
    failed += mismatches * len(everyone)

    # Recovery gives back the state the killed server acknowledged.
    check(
        recovered_rows == runs[-1].log_rows[-1],
        f"recovered {recovered_rows} log rows, the killed server had "
        f"{runs[-1].log_rows[-1]}",
    )
    check(replayed > 0, "recovery replayed no WAL record")

    latencies = composite([replica.calibrated(warmup) for replica in runs])
    fastest = min(runs, key=lambda replica: sum(replica.calibrated(warmup)))
    counters = counter_metrics(fastest, measured)
    denied = sum(not allowed for _, allowed, _ in first.outcomes[warmup:])
    if not quick:
        check_bands(name, counters, denied / measured, first.log_rows, check)

    if trace:
        values = counters
        values.update(trace_metrics(trace_path, traced, warmup, measured))
        tail_fraction, tail_seconds = tail(latencies, 1 if quick else 10)
        totals = sorted(sum(replica.calibrated(warmup)) for replica in runs)
        raw = composite([replica.latencies[warmup:] for replica in runs])
        values.update({
            "recovery.replayed_records": replayed,
            "client.latency_tail_ms": tail_seconds * 1000.0,
            "client.latency_tail_pct": tail_fraction * 100.0,
            "client.raw_latency_p50_ms": statistics.median(raw) * 1000.0,
            "client.replica_spread": totals[-1] / totals[0],
            "host.speed_factor": statistics.median(r.speed for r in runs),
            "trace.overhead_ratio": statistics.median(totals)
            / sum(traced.calibrated(warmup)),
        })
        if not quick:
            check(
                values["trace.coverage_ratio"] >= COVERAGE_FLOOR,
                f"trace covers {values['trace.coverage_ratio']:.2f} of the "
                f"client's wall clock (< {COVERAGE_FLOOR})",
            )
    else:
        warm = composite([replica.calibrated(0, warmup) for replica in runs])
        values = {
            "setup_s": min(r.spawn_s / r.speed for r in runs) + sum(warm),
            "latency_p50_ms": statistics.median(latencies) * 1000.0,
            "latency_p90_ms": percentile(latencies, 0.90, 1 if quick else 10)
            * 1000.0,
            "throughput_qps": len(latencies) / sum(latencies),
            "wal_bytes_per_query": ledger.wal_bytes / window,
            # + 1: the one-row clock relation, so that a contract that
            # retains no log row does not report 0.
            "log_rows_retained": ledger.log_rows[-1] + 1,
            "recovery_s": recovery_s,
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        }

    for problem in problems:
        note(f"{name}: CHECK FAILED: {problem}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": values[key], "unit": unit}
            for key, unit in declared_metrics(
                "per_layer" if trace else "end_to_end"
            ).items()
        },
    }


def check_bands(name, counters, denied_share, log_rows, check) -> None:
    """Mechanism bands: each workload exercises what it claims to."""
    hit_ratio = counters["decision_cache.hit_ratio"]
    if name == "market_hot":
        check(hit_ratio >= 0.99, f"decision-cache hit ratio {hit_ratio:.3f}")
    elif name == "market_adhoc":
        check(hit_ratio <= 0.01, f"decision-cache hit ratio {hit_ratio:.3f}")
        check(counters["decision_cache.evictions"] > 0, "no cache eviction")
    elif name == "market_metered":
        check(0.05 <= denied_share <= 0.20, f"denied share {denied_share:.3f}")
        check(
            counters["incremental.hit_ratio"] >= 0.95,
            f"incremental hit ratio {counters['incremental.hit_ratio']:.3f}",
        )
    elif name == "mimic_audit":
        phases = sum(counters[metric] for metric in PHASE_METRICS.values())
        mark = counters["enforcer.phase.compact_mark_ms"]
        check(mark >= 0.4 * phases, f"compact_mark is {mark / phases:.2f} of phases")
    if name in ("mimic_audit", "market_metered"):
        half = len(log_rows) // 2
        early = statistics.mean(log_rows[:half])
        late = statistics.mean(log_rows[half:])
        drift = abs(late - early) / early
        check(drift <= 0.15, f"log size moved {drift:.2f} over the measured phase")


def declared_metrics(section: str) -> "dict[str, str]":
    """Metric → unit for one section of BENCHMARK.json, which is the one
    place the metric lists are written down."""
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def note(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", action="append", choices=sorted(workloads.SPECS),
        help="run only this workload (repeatable; default: all four)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=REFERENCE_SECONDS,
        help="scales the measured request count (default %(default)s)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="add a traced replica and print the per-layer metrics",
    )
    parser.add_argument("--replicas", type=int, default=None)
    parser.add_argument(
        "--quick", action="store_true",
        help="smoke run: counts / 20, 2 replicas, mechanism bands off",
    )
    args = parser.parse_args(argv)
    replicas = args.replicas or (2 if args.quick else REPLICAS)

    # Client, servers, oracle and recovery all on one CPU: on a shared
    # box a second CPU is somebody else's, and cross-CPU wake-ups between
    # client and server are the first thing interference stretches.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    status = 0
    for name in args.workload or list(workloads.SPECS):
        result = run_workload(
            name, args.seed, args.seconds, bool(args.trace), replicas, args.quick
        )
        print(json.dumps(result), flush=True)
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
