"""Process-backed shards: the coordinator side of the IPC admission layer.

A :class:`ProcessShard` is the second transport for the one shard
surface (:class:`~repro.service.shard.Shard`), hosted by a
``multiprocessing`` worker process (:mod:`repro.service.worker`) so
CPU-bound policy checks on different shards can run on different cores
instead of serializing on the GIL. Checks cross the pipe as ``query``
messages. Every admin or inspection method named in
:data:`~repro.service.shard.FORWARDED` crosses as one ``call`` message
(:meth:`ProcessShard._call`), and the worker runs the method of that
name. Methods are written out here only where the parent adds
something: the epoch mirror, the respawn spec in ``apply_extras``, idle
answers while a worker respawns, the parent's counters in stats and
export, and encoding ``explain_evidence``'s decision.

Admission is a *bounded in-flight window*: the coordinator tracks how
many checks it has posted to the worker without a response and rejects
with :class:`~repro.errors.ServiceOverloadedError` (HTTP 429 +
``Retry-After``) once the window — queue depth plus the one check in
the worker's hand, exactly the thread mode's waiting + executing
capacity — is full. The worker's own queue is sized to the whole
window, so it never rejects on its own; backpressure semantics stay
identical across modes.

Crash handling: EOF on the pipe with the shard still open means the
worker died. In-flight futures fail with
:class:`~repro.errors.WorkerCrashError` (the outcome of those specific
checks is indeterminate), and the shard respawns its worker immediately.
A durable shard recovers by WAL replay (`recover_enforcer` — the new
process picks up bit-identically where the dead one's last fsync
landed); a non-durable shard re-bootstraps from the startup snapshot and
loses its in-memory log slice, which is why ``--data-dir`` is the
recommended deployment for process mode. After the respawned worker says
hello, its policy set is diffed against the coordinator's reference and
re-synced before new checks flow.
"""

from __future__ import annotations

import functools
import itertools
import multiprocessing
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Optional

from ..errors import (
    ReproError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    WorkerCrashError,
)
from .ipc import recv_message, send_message
from .metrics import LATENCY_WINDOW, ShardCounters
from .shard import ENGINE_COUNTERS, FORWARDED
from .worker import decision_from_json, decision_to_json, worker_main

#: Fallback Retry-After hint (seconds) before any latency samples exist,
#: and while a crashed worker is respawning.
_DEFAULT_RETRY_AFTER = 0.05

#: Seconds to wait for a worker's hello before declaring the boot dead.
_HELLO_TIMEOUT = 120.0

#: Default seconds to wait on a forwarded call's round trip.
_RPC_TIMEOUT = 60.0

_preload_done = False


def _mp_context():
    """A forkserver context (cheap spawns, no inherited locks) with this
    package preloaded; spawn where forkserver is unavailable."""
    global _preload_done
    try:
        context = multiprocessing.get_context("forkserver")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")
    if not _preload_done:
        try:
            context.set_forkserver_preload(["repro.service.worker"])
        except Exception:  # pragma: no cover - preload is an optimization
            pass
        _preload_done = True
    return context


class ProcessShard:
    """One shard whose enforcer lives in a worker process."""

    def __init__(
        self,
        index: int,
        spec: dict,
        *,
        policy_source=None,
        respawn: bool = True,
        delta_sink=None,
    ):
        self.index = index
        #: Callable ``(timestamp, rows)`` receiving the committed
        #: usage-log increments the worker streams (global tier).
        self._delta_sink = delta_sink
        self.epoch = spec["epoch"]
        #: Worker restarts after a crash (``repro_process_restarts_total``).
        self.restarts = 0
        self._spec = dict(spec, stream_deltas=delta_sink is not None)
        #: Max checks posted without a response: thread mode's waiting
        #: (queue depth) + executing (the one worker) capacity.
        self._window = spec["queue_depth"] + 1
        #: Callable returning ``(epoch, [policy dicts])`` — the
        #: coordinator's reference policy set, used to re-sync a
        #: respawned worker that booted from a stale snapshot.
        self._policy_source = policy_source
        self._respawn_enabled = respawn
        self._state_lock = threading.Lock()
        self._send_lock = threading.Lock()
        self._pending: "dict[int, tuple[str, Future, float]]" = {}
        self._inflight = 0
        self._rejected = 0
        self._latencies: deque = deque(maxlen=LATENCY_WINDOW)
        self._ids = itertools.count(1)
        self._generation = 0
        self._closed = False
        self._alive = False
        self._process = None
        self._conn = None
        self.pid: Optional[int] = None
        self.hello: dict = {}
        self._spawn()

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self) -> None:
        context = _mp_context()
        parent_conn, child_conn = context.Pipe(duplex=True)
        spec = dict(self._spec)
        spec["epoch"] = self.epoch
        process = context.Process(
            target=worker_main,
            args=(child_conn, spec),
            name=f"repro-shard{self.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        hello_waiter: Future = Future()
        with self._state_lock:
            self._generation += 1
            generation = self._generation
            self._process = process
            self._conn = parent_conn
        reader = threading.Thread(
            target=self._read_loop,
            args=(parent_conn, generation, hello_waiter),
            name=f"repro-shard{self.index}-reader",
            daemon=True,
        )
        reader.start()
        try:
            hello = hello_waiter.result(timeout=_HELLO_TIMEOUT)
        except Exception as error:
            process.terminate()
            process.join(timeout=5)
            raise ServiceError(
                f"shard {self.index} worker failed to start: {error!r}"
            ) from error
        if "error" in hello:
            process.join(timeout=5)
            raise ServiceError(
                f"shard {self.index} worker failed to start:\n"
                + hello["error"]
            )
        self.hello = hello
        self.pid = hello.get("pid")
        with self._state_lock:
            self._alive = True

    def _respawn(self) -> None:
        try:
            self._spawn()
            self._sync_policies()
        except ServiceError:
            # Leave the shard dead but the service up: offers keep
            # answering 429 so clients back off instead of erroring.
            return

    def _sync_policies(self) -> None:
        """Diff a respawned worker's policy set against the reference.

        Durable shards recover their exact policy set from the
        checkpoint manifest, so the diff is empty; a non-durable
        respawn may have booted from the startup bootstrap snapshot
        and needs the changes applied since.
        """
        if self._policy_source is None:
            return
        epoch, reference = self._policy_source()
        current = {
            entry["name"]: entry
            for entry in self.hello.get("policies", [])
        }
        wanted = {entry["name"]: entry for entry in reference}
        for name in current:
            if name not in wanted:
                self.apply_policy_change("remove", name, epoch=epoch)
        for name, entry in wanted.items():
            if name not in current:
                self.apply_policy_change(
                    "add",
                    name,
                    sql=entry["sql"],
                    description=entry.get("description", ""),
                    epoch=epoch,
                )
        self.set_epoch(epoch)

    def drain(self, timeout: Optional[float] = None) -> None:
        """Flush the worker's backlog, checkpoint, and stop it."""
        with self._state_lock:
            if self._closed:
                return
            self._closed = True
            alive = self._alive
        if alive:
            try:
                self._request({"type": "drain"}, timeout=timeout or _RPC_TIMEOUT)
            except (ServiceError, OSError):
                pass
        process = self._process
        if process is not None:
            process.join(timeout if timeout is not None else 30)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(5)
        conn = self._conn
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def force_stop(self) -> None:
        """Terminate the worker unconditionally, without draining.

        The startup-abort path: a shard that wedged during ``drain``
        must not leak a live worker process past the coordinator's
        constructor re-raise. Idempotent; disables respawn first so the
        reader thread's crash path cannot race a new worker into life.
        """
        with self._state_lock:
            self._closed = True
            self._respawn_enabled = False
        process = self._process
        if process is not None and process.is_alive():
            process.terminate()
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - unkillable worker
                process.kill()
                process.join(timeout=5)
        conn = self._conn
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    @property
    def closed(self) -> bool:
        return self._closed

    # -- admission ---------------------------------------------------------

    def offer_query(
        self,
        sql: str,
        uid: int = 0,
        execute: Optional[bool] = None,
        attributes: Optional[dict] = None,
        timestamp: Optional[int] = None,
    ) -> "Future":
        future: Future = Future()
        with self._state_lock:
            if self._closed:
                raise ServiceClosedError(
                    f"shard {self.index} is draining; not accepting queries"
                )
            if not self._alive:
                # Worker is respawning (or dead): shed load with a hint
                # sized for the respawn, not the queue.
                self._rejected += 1
                raise ServiceOverloadedError(
                    self.index, retry_after=_DEFAULT_RETRY_AFTER
                )
            if self._inflight >= self._window:
                self._rejected += 1
                raise ServiceOverloadedError(
                    self.index, retry_after=self._hint_locked()
                )
            request_id = next(self._ids)
            self._pending[request_id] = ("query", future, time.perf_counter())
            self._inflight += 1
            try:
                self._post({
                    "type": "query",
                    "id": request_id,
                    "sql": sql,
                    "uid": uid,
                    "execute": execute,
                    "attributes": attributes,
                    "timestamp": timestamp,
                })
            except (BrokenPipeError, OSError):
                self._pending.pop(request_id, None)
                self._inflight -= 1
                self._rejected += 1
                raise ServiceOverloadedError(
                    self.index, retry_after=_DEFAULT_RETRY_AFTER
                ) from None
        return future

    def retry_after_hint(self) -> float:
        with self._state_lock:
            return self._hint_locked()

    def _hint_locked(self) -> float:
        """Retry-After estimate; caller holds ``_state_lock``."""
        window = self._latencies
        mean = (
            sum(window) / len(window) if window else _DEFAULT_RETRY_AFTER
        )
        return max(0.001, mean * max(1, self._inflight))

    def queue_depth(self) -> int:
        """Checks posted to the worker and not yet answered."""
        with self._state_lock:
            return self._inflight

    # -- pipe handling -----------------------------------------------------

    def _post(self, message: dict) -> None:
        with self._send_lock:
            conn = self._conn
            if conn is None:
                raise BrokenPipeError("worker connection closed")
            send_message(conn, message)

    def _read_loop(self, conn, generation: int, hello_waiter: Future) -> None:
        while True:
            try:
                message = recv_message(conn)
            except (EOFError, OSError):
                break
            if message is None:
                break
            if message.get("type") == "hello":
                if not hello_waiter.done():
                    hello_waiter.set_result(message)
                continue
            if message.get("type") == "delta":
                # Unsolicited frame: a committed usage-log increment
                # streamed for the coordinator's global tier.
                sink = self._delta_sink
                if sink is not None:
                    sink(int(message.get("ts", 0)), message.get("rows", {}))
                continue
            self._complete(message)
        self._on_pipe_closed(generation, hello_waiter)

    def _complete(self, message: dict) -> None:
        with self._state_lock:
            entry = self._pending.pop(message.get("id"), None)
            if entry is not None and entry[0] == "query":
                self._inflight -= 1
        if entry is None:
            return
        kind, future, started = entry
        if future.done():  # pragma: no cover - completed by crash path
            return
        if not message.get("ok"):
            future.set_exception(self._error_from(message))
            return
        if kind == "query":
            decision = decision_from_json(message["decision"])
            with self._state_lock:
                self._latencies.append(time.perf_counter() - started)
            future.set_result(decision)
        else:
            future.set_result(message)

    def _error_from(self, message: dict) -> Exception:
        kind = message.get("kind")
        text = message.get("error", "worker error")
        if kind == "overloaded":  # pragma: no cover - window prevents this
            return ServiceOverloadedError(
                message.get("shard", self.index),
                retry_after=message.get("retry_after", _DEFAULT_RETRY_AFTER),
            )
        if kind == "closed":
            return ServiceClosedError(text)
        if kind == "repro":
            return ReproError(text)
        return ServiceError(text)

    def _on_pipe_closed(self, generation: int, hello_waiter: Future) -> None:
        with self._state_lock:
            if generation != self._generation:
                return
            was_alive = self._alive
            self._alive = False
            pending = list(self._pending.values())
            self._pending.clear()
            self._inflight = 0
            closed = self._closed
        if not hello_waiter.done():
            hello_waiter.set_exception(
                ServiceError(f"shard {self.index} worker exited during boot")
            )
        if closed:
            for _, future, _ in pending:
                if not future.done():
                    future.set_exception(
                        ServiceClosedError(f"shard {self.index} drained")
                    )
            return
        for _, future, _ in pending:
            if not future.done():
                future.set_exception(
                    WorkerCrashError(
                        f"shard {self.index} worker died mid-request; "
                        "outcome indeterminate (durable shards recover "
                        "committed state on respawn)"
                    )
                )
        if not was_alive:
            # Boot never completed: _spawn's caller raises; respawning
            # here would just crash-loop a shard that cannot start.
            return
        self.restarts += 1
        if self._process is not None:
            self._process.join(timeout=5)
        if self._respawn_enabled:
            self._respawn()

    # -- forwarded calls ---------------------------------------------------

    def _request(self, message: dict, timeout: float = _RPC_TIMEOUT) -> dict:
        future: Future = Future()
        with self._state_lock:
            if self._conn is None or not self._alive:
                raise ServiceError(
                    f"shard {self.index} worker is not available"
                )
            request_id = next(self._ids)
            self._pending[request_id] = ("control", future, time.perf_counter())
            message = dict(message)
            message["id"] = request_id
            try:
                self._post(message)
            except (BrokenPipeError, OSError):
                self._pending.pop(request_id, None)
                raise ServiceError(
                    f"shard {self.index} worker connection is down"
                ) from None
        return future.result(timeout=timeout)

    def _call(self, method: str, *args):
        """Run ``Shard.<method>(*args)`` in the worker; its return value."""
        return self._request(
            {"type": "call", "method": method, "args": list(args)}
        )["value"]

    def _inspect(self, method: str, idle, *args):
        """An inspection call, answering ``idle`` while the worker is
        down (respawning) instead of failing the scrape."""
        try:
            return self._call(method, *args)
        except (ServiceError, WorkerCrashError, FutureTimeout):
            return idle

    def __getattr__(self, name: str):
        # Every forwarded Shard method without parent-side logic below.
        if name not in FORWARDED:
            raise AttributeError(name)
        return functools.partial(self._call, name)

    def apply_policy_change(
        self,
        action: str,
        name: str,
        sql: str = "",
        description: str = "",
        epoch: int = 0,
    ) -> None:
        """Install or remove one policy on the worker (checkpointed when
        durable); the shard's epoch mirror advances with the broadcast."""
        self._call("apply_policy_change", action, name, sql, description, epoch)
        self.epoch = epoch

    def set_epoch(self, epoch: int) -> None:
        self._call("set_epoch", epoch)
        self.epoch = epoch

    def apply_extras(self, relations: "list[str]") -> None:
        """Replace the worker's extra-persist relation set (the log
        relations the global tier needs retained and streamed) — and
        the one a respawned worker boots with."""
        self._spec["extra_persist"] = list(relations)
        self._call("apply_extras", list(relations))

    def log_sizes(self) -> "dict[str, int]":
        return self._inspect("log_sizes", {})

    def slow_entries(self) -> "list[dict]":
        return self._inspect("slow_entries", [])

    def durability_state(self) -> Optional[dict]:
        return self._inspect("durability_state", None)

    def stats_entry(self, queue_capacity: int) -> dict:
        entry = self._inspect("stats_entry", None, queue_capacity)
        if entry is None:
            entry = ShardCounters().snapshot()
            entry["shard"] = self.index
            entry["epoch"] = self.epoch
            entry["queue_depth"] = self.queue_depth()
            entry["queue_capacity"] = queue_capacity
        entry["process"] = self.process_state()
        with self._state_lock:
            entry["rejected"] = entry.get("rejected", 0) + self._rejected
        return entry

    def export_state(self) -> dict:
        state = self._inspect("export_state", None) or _empty_export_state()
        with self._state_lock:
            state["prom"]["rejected"] = (
                state["prom"].get("rejected", 0) + self._rejected
            )
        return state

    def process_state(self) -> dict:
        """Parent-side worker gauges (``repro_process_*`` families)."""
        with self._state_lock:
            return {
                "alive": self._alive,
                "restarts": self.restarts,
                "inflight": self._inflight,
                "pid": self.pid,
            }

    def explain_evidence(self, decision) -> "list[dict]":
        return self._call("explain_evidence", decision_to_json(decision))


def _empty_export_state() -> dict:
    """The export shape of an idle shard, for scrapes during a respawn."""
    counters = ShardCounters()
    snap = counters.prom_snapshot()
    prom = dict(snap)
    for key in ("check_hist", "wait_hist", "batch_hist"):
        prom[key] = snap[key].as_dict()
    prom["policy_eval"] = {}
    return {
        "prom": prom,
        "queue_depth": 0,
        "busy_workers": 0,
        "decision_cache": None,
        "incremental": None,
        "engine": dict.fromkeys(ENGINE_COUNTERS, 0),
        "wal": None,
    }
