"""The shard worker process: one shared-nothing enforcer behind a pipe.

:func:`worker_main` is the child-process entry point spawned by
:class:`~repro.service.process.ProcessShard`. It rebuilds this shard's
enforcer — from the coordinator's bootstrap snapshot on a fresh boot, or
by WAL replay (:func:`~repro.storage.wal.recover_enforcer`, bit-identical
state) when the shard's durability directory already holds state — and
then hosts a real thread-backed :class:`~repro.service.shard.Shard`
around it (:func:`~repro.service.shard.open_shard`, the builder thread
mode uses too), so admission, batching, group commit, checkpoint
cadence, the slow-query ring and every admin operation behave exactly
as in thread mode.

The main thread is the IPC loop: it reads framed requests
(:mod:`repro.service.ipc`) — a ``query``, a ``call`` naming one of the
shard's forwarded methods, or ``drain``. Query checks run on the shard's
worker thread and answer from future callbacks (a shared send lock
serializes the pipe), so calls — policy broadcasts, stats scrapes — and
drain are never stuck behind a slow check. EOF on the
pipe means the coordinator is gone; the worker drains and exits.
"""

from __future__ import annotations

import os
import signal
import threading
import traceback
from typing import Optional

from ..core import Decision, Enforcer, Violation
from ..engine import Result
from ..errors import (
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from ..log import LogicalClock, SimulatedClock
from ..storage.snapshot import restore_enforcer
from .ipc import recv_message, send_message
from .shard import FORWARDED, Shard, open_shard


def clock_spec(clock) -> Optional[dict]:
    """A picklable description of a clock's kind and state.

    ``restore_enforcer`` defaults to ``SimulatedClock(start_ms=...)``,
    which would silently drop a custom step — and a different step means
    different timestamps, which means decisions stop being bit-identical
    to the thread-mode baseline. So the coordinator ships the prototype
    clock's exact kind/state and the worker rebuilds it.
    """
    if isinstance(clock, SimulatedClock):
        return {"kind": "simulated", "start": clock.now(), "step": clock._step}
    if isinstance(clock, LogicalClock):
        return {"kind": "logical", "start": clock.now(), "step": clock._step}
    return None


def clock_from_spec(spec: Optional[dict]):
    if spec is None:
        return None
    if spec["kind"] == "simulated":
        return SimulatedClock(
            start_ms=spec["start"], default_step_ms=spec["step"]
        )
    return LogicalClock(start=spec["start"], step=spec["step"])


# ---------------------------------------------------------------------------
# Serialization helpers (child side)
# ---------------------------------------------------------------------------


def decision_to_json(decision: Decision) -> dict:
    payload: dict = {
        "allowed": decision.allowed,
        "timestamp": decision.timestamp,
        "sql": decision.sql,
        "uid": decision.uid,
        "violations": [
            {
                "policy_name": violation.policy_name,
                "message": violation.message,
                "evidence_rows": violation.evidence_rows,
            }
            for violation in decision.violations
        ],
        "result": None,
    }
    result = decision.result
    if result is not None:
        payload["result"] = {
            "columns": list(result.columns),
            "rows": [list(row) for row in result.rows],
            "statements": result.statements,
        }
    return payload


def decision_from_json(payload: dict) -> Decision:
    """Rebuild a decision coordinator-side.

    Trace spans and phase metrics do not cross the process boundary
    (``span``/``metrics`` are ``None``); the worker already folded them
    into its own counters, which the coordinator aggregates via the
    forwarded ``stats_entry`` / ``export_state`` calls instead.
    """
    result = None
    if payload.get("result") is not None:
        raw = payload["result"]
        result = Result(
            columns=list(raw["columns"]),
            rows=[tuple(row) for row in raw["rows"]],
            statements=raw.get("statements", 1),
        )
    return Decision(
        allowed=payload["allowed"],
        timestamp=payload["timestamp"],
        violations=[
            Violation(
                violation["policy_name"],
                violation["message"],
                violation.get("evidence_rows", 1),
            )
            for violation in payload.get("violations", [])
        ],
        result=result,
        metrics=None,
        sql=payload.get("sql", ""),
        uid=payload.get("uid", 0),
        span=None,
    )


# ---------------------------------------------------------------------------
# Request handling
# ---------------------------------------------------------------------------


def _handle_query(shard: Shard, msg: dict, reply) -> None:
    request_id = msg["id"]
    try:
        future = shard.offer_query(
            msg["sql"],
            uid=msg.get("uid", 0),
            execute=msg.get("execute"),
            attributes=msg.get("attributes"),
            timestamp=msg.get("timestamp"),
        )
    except ServiceOverloadedError as error:
        reply({
            "type": "result", "id": request_id, "ok": False,
            "kind": "overloaded", "error": str(error),
            "shard": error.shard, "retry_after": error.retry_after,
        })
        return
    except ServiceClosedError as error:
        reply({
            "type": "result", "id": request_id, "ok": False,
            "kind": "closed", "error": str(error),
        })
        return

    def complete(done) -> None:
        try:
            decision = done.result()
        except ServiceClosedError as error:
            payload = {"ok": False, "kind": "closed", "error": str(error)}
        except ReproError as error:
            payload = {"ok": False, "kind": "repro", "error": str(error)}
        except BaseException as error:  # noqa: BLE001 - forwarded verbatim
            payload = {"ok": False, "kind": "internal", "error": repr(error)}
        else:
            payload = {"ok": True, "decision": decision_to_json(decision)}
        payload["type"] = "result"
        payload["id"] = request_id
        reply(payload)

    future.add_done_callback(complete)


def _handle_control(shard: Shard, msg: dict) -> dict:
    """Run one ``call`` message on the shard method it names.

    Only the declared surface (:data:`~repro.service.shard.FORWARDED`)
    is reachable; any other name — ``drain``, a private method — is
    refused and the worker keeps serving.
    """
    method = msg.get("method")
    if msg.get("type") != "call" or method not in FORWARDED:
        return {
            "ok": False, "kind": "internal",
            "error": f"not a forwarded shard method: {method!r}",
        }
    args = list(msg.get("args", []))
    if method == "explain_evidence":  # the Decision crossed as JSON
        args[0] = decision_from_json(args[0])
    return {"ok": True, "value": getattr(shard, method)(*args)}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def worker_main(conn, spec: dict) -> None:
    """Child-process main: boot the shard, serve the pipe, drain on exit."""
    # The coordinator owns interrupt handling; a Ctrl+C in the parent
    # must not kill workers mid-commit (drain/terminate does that).
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass

    send_lock = threading.Lock()

    def reply(payload: dict) -> None:
        try:
            with send_lock:
                send_message(conn, payload)
        except (BrokenPipeError, OSError):  # parent gone; nothing to tell
            pass

    def stream_delta(timestamp: int, inserted: dict) -> None:
        # Every committed usage-log increment goes to the coordinator's
        # global tier as an unsolicited frame on the same crc32-framed
        # pipe.
        reply({
            "type": "delta",
            "ts": timestamp,
            "rows": {
                name: [list(row) for row in rows]
                for name, rows in inserted.items()
            },
        })

    clock = clock_from_spec(spec["clock"])

    def seed() -> Enforcer:
        # Mirror thread mode: shard 0 adopts the prototype's state (usage
        # log included); the rest are clones over the same base tables
        # with empty per-shard usage logs.
        enforcer = restore_enforcer(spec["bootstrap_dir"], clock=clock)
        return enforcer if spec["index"] == 0 else enforcer.clone()

    try:
        shard, report = open_shard(
            spec["index"],
            seed,
            # The internal queue holds the whole admission window
            # (waiting + executing); the coordinator enforces the 429
            # boundary, so the worker itself never rejects.
            dict(spec, queue_depth=spec["queue_depth"] + 1),
            clock=clock,
            delta_sink=stream_delta if spec["stream_deltas"] else None,
        )
    except BaseException:  # noqa: BLE001 - boot failures must surface
        reply({"type": "hello", "error": traceback.format_exc(limit=20)})
        conn.close()
        return

    reply({
        "type": "hello",
        "pid": os.getpid(),
        "policies": shard.policies(),
        "recovery": report.as_dict() if report is not None else None,
    })

    try:
        while True:
            try:
                msg = recv_message(conn)
            except (EOFError, OSError):
                break
            if msg is None:  # corrupt frame: treat the pipe as dead
                break
            mtype = msg.get("type")
            if mtype == "query":
                _handle_query(shard, msg, reply)
                continue
            if mtype == "drain":
                shard.drain()
                reply({"type": "result", "id": msg["id"], "ok": True})
                break
            try:
                payload = _handle_control(shard, msg)
            except ReproError as error:  # a refusal, e.g. an unbindable policy
                payload = {"ok": False, "kind": "repro", "error": str(error)}
            except BaseException as error:  # noqa: BLE001 - forwarded
                payload = {
                    "ok": False, "kind": "internal", "error": repr(error),
                }
            payload["type"] = "result"
            payload["id"] = msg["id"]
            reply(payload)
    finally:
        # Idempotent: a served drain already checkpointed and closed the
        # WAL; an EOF-triggered exit gets the same clean shutdown.
        shard.drain()
        conn.close()
