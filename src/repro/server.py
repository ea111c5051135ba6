"""The HTTP gateway: DataLawyer as middleware.

The paper positions DataLawyer as "a middleware layer on top of a
relational DBMS that allows users to run normal SQL queries, but before
letting a query execute, it checks all policies." This module exposes a
:class:`~repro.service.ShardedEnforcerService` over HTTP (stdlib only)
so non-Python clients can submit queries:

- ``POST /v1/query``  ``{"sql": ..., "uid": ..., "explain": bool|"analyze"?}``
  → decision JSON (result rows when allowed, violations + optional
  evidence when rejected; ``explain: "analyze"`` adds a per-operator
  ``plan`` with observed rows and time); ``429`` + ``Retry-After`` under
  backpressure;
- ``GET  /v1/policies`` → installed policies (with shard placement);
- ``POST /v1/policies`` ``{"name": ..., "sql": ...}`` → register a policy
  on every shard (history starts now, per §4.1.2);
- ``DELETE /v1/policies/<name>`` → remove a policy from every shard;
- ``GET  /v1/log``      → usage-log sizes aggregated across shards;
- ``GET  /v1/stats``    → per-shard queue depth, admit/reject counts,
  p50/p95 check latency, phase means;
- ``GET  /v1/durability`` → WAL/checkpoint state per shard and what
  recovery replayed at startup (see :mod:`repro.storage.wal`);
- ``GET  /v1/metrics``  → Prometheus 0.0.4 text exposition (see
  :mod:`repro.obs.export` for the metric families);
- ``GET  /v1/slowlog``  → recent slow checks with their rendered traces
  (populated when ``ServiceConfig.slow_query_seconds`` is set);
- ``GET  /v1/health``   → liveness (never blocks on any shard).

Requests for different users run in parallel (one enforcer shard per
uid-hash bucket); requests for the same user serialize on their shard.

Connections: one request per HTTP/1.0 connection, closed after the
reply. An accepted connection goes to a parked handler thread through
one ``SimpleQueue`` handoff; a thread is spawned only when none is
parked, so the thread count tracks peak concurrent connections and
needs no size knob (a slow or silent client holds only its own thread).
Each connection runs through the inherited
``ThreadingMixIn.process_request_thread``, which the e2e tracer wraps as
its ``http.request`` span. The handler reads the head itself within
``http.server``'s bounds, reads no body longer than :data:`MAX_BODY`
(a 413) and writes each response with one ``sendall``.

Versioning (see ``docs/api_v1.md``): every response but one is wrapped
in the versioned envelope ::

    {"api_version": 1, "data": ...}                          # success
    {"api_version": 1, "error": {"code": ..., "message": ...}}

:data:`ERROR_CODES` maps each error status to its code. A policy denial
(403) is a *decision*, not an error — it arrives under ``data`` with
``allowed: false`` and its violations. ``GET /v1/metrics`` is the one
exception to the envelope: it stays Prometheus text exposition. Any
path outside ``/v1/`` is a 404.
"""

from __future__ import annotations

import json
import math
import socketserver
import threading
from email.utils import formatdate
from http import HTTPStatus
from http.server import ThreadingHTTPServer
from queue import SimpleQueue
from typing import Optional, Union

from .core import Enforcer, Policy
from .core.metrics import PHASE_PROVENANCE, PHASE_QUERY
from .engine.explain import render_analyzed
from .errors import (
    PolicyError,
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from .obs import CONTENT_TYPE as METRICS_CONTENT_TYPE
from .service import ServiceConfig, ShardedEnforcerService

#: The current (and only) API version of the ``/v1`` surface.
API_VERSION = 1

#: HTTP status → stable machine-readable error code of the v1 envelope.
ERROR_CODES = {
    400: "invalid_request",
    404: "not_found",
    409: "conflict",
    413: "payload_too_large",
    414: "uri_too_long",
    429: "overloaded",
    431: "headers_too_large",
    501: "not_implemented",
    503: "draining",
}

#: ``http.server``'s bounds on a request head: bytes per line, headers.
MAX_LINE = 65536
MAX_HEADERS = 100
#: The longest request body read; a longer declared one is a 413, unread.
MAX_BODY = 1 << 20
#: Result rows a ``POST /v1/query`` answer carries (``truncated`` beyond).
MAX_RESULT_ROWS = 1000

JSON_CONTENT_TYPE = "application/json"

#: HTTP status → the reason phrase of the status line.
REASONS = {status.value: status.phrase for status in HTTPStatus}


def versioned_envelope(status: int, body: dict) -> dict:
    """Wrap a handler's ``(status, body)`` pair in the v1 envelope.

    Bodies carrying a top-level ``error`` string are transport-level
    failures: they become ``{"error": {"code", "message", ...}}`` with
    any sibling keys (``shard``, ``retry_after``) preserved inside the
    error object. Everything else — including a 403 policy denial,
    which is a successful check with a negative verdict — is ``data``.
    """
    if isinstance(body.get("error"), str):
        error = {
            "code": ERROR_CODES.get(status, "error"),
            "message": body["error"],
        }
        error.update(
            (key, value) for key, value in body.items() if key != "error"
        )
        return {"api_version": API_VERSION, "error": error}
    return {"api_version": API_VERSION, "data": body}


class EnforcerService:
    """HTTP-facing request handling over the sharded service.

    Kept as a thin translation layer: it maps payloads to service calls
    and service outcomes to ``(status, body)`` pairs. Unlike the old
    single-lock facade, admin reads (``/v1/health``, ``/v1/policies``,
    ``/v1/stats``) never wait behind query admission.
    """

    def __init__(self, service: ShardedEnforcerService):
        self.service = service

    # -- request handlers -------------------------------------------------

    def submit(self, payload: dict) -> "tuple[int, dict]":
        sql = payload.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            return 400, {"error": "missing 'sql'"}
        uid = payload.get("uid", 0)
        # bool is an int subclass in Python; a JSON true/false uid would
        # otherwise silently route as uid 1/0.
        if isinstance(uid, bool) or not isinstance(uid, int):
            return 400, {"error": "'uid' must be an integer"}
        explain_option = payload.get("explain", False)
        analyze = explain_option == "analyze"
        want_explain = bool(explain_option)

        try:
            decision = self.service.submit(sql, uid=uid)
        except ServiceOverloadedError as error:
            return 429, {
                "error": "shard admission queue is full",
                "shard": error.shard,
                "retry_after": round(error.retry_after, 3),
            }
        except ServiceClosedError:
            return 503, {"error": "service is draining"}
        except ReproError as error:
            return 400, {"error": str(error)}

        body: dict = {
            "allowed": decision.allowed,
            "timestamp": decision.timestamp,
            "shard": self.service.shard_for(uid),
        }
        if decision.allowed and decision.result is not None:
            rows = decision.result.rows[:MAX_RESULT_ROWS]
            body["columns"] = decision.result.columns
            body["rows"] = [list(row) for row in rows]
            body["row_count"] = len(decision.result.rows)
            body["truncated"] = len(decision.result.rows) > len(rows)
            if analyze:
                body["plan"] = self._analyzed_plan(decision, sql, uid)
        if not decision.allowed:
            body["violations"] = [
                {"policy": v.policy_name, "message": v.message}
                for v in decision.violations
            ]
            if want_explain:
                # Re-run the violated policies with lineage on the routed
                # shard, outside admission: explanation is admin-grade
                # and must not consume an admission slot.
                body["evidence"] = self.service.explain_evidence(
                    uid, decision
                )
        status = 200 if decision.allowed else 403
        return status, body

    def _analyzed_plan(self, decision, sql: str, uid: int) -> str:
        """Per-operator ``rows=… time=…`` text for an allowed query.

        When tracing is on, the decision's trace already holds one span
        per operator under the phase that produced the answer — ``query``
        when it executed for itself, ``log:provenance`` when the lineage
        run was the answer — render those (the plan the check actually
        executed, for free). With tracing off — or in process mode, where
        spans never cross the pipe — re-run the query as a plain
        ``EXPLAIN ANALYZE`` on the routed shard (admin-grade, like
        evidence explanation).
        """
        span = getattr(decision, "span", None)
        if span is not None:
            for phase in (PHASE_QUERY, PHASE_PROVENANCE):
                child = span.child(phase)
                if child is not None and child.children:
                    return render_analyzed(child)
        return self.service.analyzed_plan(uid, sql)

    def list_policies(self) -> "tuple[int, dict]":
        return 200, {"policies": self.service.policies()}

    def add_policy(self, payload: dict) -> "tuple[int, dict]":
        name = payload.get("name")
        sql = payload.get("sql")
        if not isinstance(name, str) or not isinstance(sql, str):
            return 400, {"error": "need 'name' and 'sql'"}
        if self.service.has_policy(name):
            return 409, {"error": f"policy {name!r} already exists"}
        try:
            policy = Policy.from_sql(name, sql, payload.get("description", ""))
            epoch = self.service.add_policy(policy)
        except ReproError as error:  # a placement refusal included
            return 400, {"error": str(error)}
        return 201, {"registered": name, "epoch": epoch}

    def remove_policy(self, name: str) -> "tuple[int, dict]":
        if not self.service.has_policy(name):
            return 404, {"error": f"no policy {name!r}"}
        try:
            epoch = self.service.remove_policy(name)
        except PolicyError as error:
            return 404, {"error": str(error)}
        return 200, {"removed": name, "epoch": epoch}

    def log_sizes(self) -> "tuple[int, dict]":
        return 200, {
            "log": self.service.log_sizes(),
            "per_shard": self.service.per_shard_log_sizes(),
        }

    def stats(self) -> "tuple[int, dict]":
        return 200, self.service.stats()

    def durability(self) -> "tuple[int, dict]":
        return 200, self.service.durability_status()

    def metrics(self) -> str:
        """The Prometheus text exposition body."""
        return self.service.render_metrics()

    def slowlog(self) -> "tuple[int, dict]":
        return 200, {"slow_queries": self.service.slow_queries()}


def make_handler(service: EnforcerService):
    """Build the request-handler class bound to one service."""

    class Handler(socketserver.StreamRequestHandler):
        def handle(self) -> None:
            line = self.rfile.readline(MAX_LINE + 1)
            if not line:
                return  # the client closed without sending a request
            failure = self._read_head(line)
            if failure is not None:
                self._reply(failure[0], {"error": failure[1]})
            else:
                getattr(self, "do_" + self.command)()

        def _read_head(self, line: bytes) -> Optional["tuple[int, str]"]:
            """Parse the request line and headers (``http.server``'s
            bounds); ``(status, message)`` when the head is refused."""
            if len(line) > MAX_LINE:
                return 414, "request line too long"
            words = line.decode("iso-8859-1").split()
            if len(words) != 3 or not words[2].startswith("HTTP/"):
                return 400, "bad request line"
            self.command, self.path, _ = words
            self.headers = {}
            for _ in range(MAX_HEADERS + 1):
                line = self.rfile.readline(MAX_LINE + 1)
                if len(line) > MAX_LINE:
                    return 431, "header line too long"
                if line in (b"\r\n", b"\n", b""):
                    if self.command not in ("GET", "POST", "DELETE"):
                        return 501, f"unsupported method {self.command!r}"
                    return None
                name, colon, value = line.decode("iso-8859-1").partition(":")
                if not (colon and name.strip()):
                    return 400, "bad header line"
                self.headers[name.strip().lower()] = value.strip()
            return 431, "too many headers"

        def _send(self, status, data, content_type=JSON_CONTENT_TYPE, headers=None):
            """The status line, headers and body in one write."""
            extra = "".join(f"{k}: {v}\r\n" for k, v in (headers or {}).items())
            head = (
                f"HTTP/1.0 {status} {REASONS[status]}\r\n"
                f"Date: {formatdate(usegmt=True)}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(data)}\r\n{extra}\r\n"
            )
            self.request.sendall(head.encode("latin-1") + data)

        def _reply(self, status: int, body: dict, headers=None) -> None:
            data = json.dumps(versioned_envelope(status, body)).encode()
            self._send(status, data, headers=headers)

        def _read_json(self) -> "Union[dict, tuple[int, str]]":
            """The parsed body, or the ``(status, message)`` refusing it."""
            try:
                length = int(self.headers.get("content-length") or 0)
            except ValueError:
                length = -1
            if length < 0:
                return 400, "invalid Content-Length header"
            if length > MAX_BODY:
                return 413, f"request body longer than {MAX_BODY} bytes"
            raw = self.rfile.read(length) if length else b"{}"
            if len(raw) < length:
                return 400, "request body shorter than its Content-Length"
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError:
                payload = None
            if not isinstance(payload, dict):
                return 400, "invalid JSON body"
            return payload

        def _route(self) -> Optional[str]:
            """The endpoint path under ``/v1``; None for any other path."""
            return self.path[3:] if self.path.startswith("/v1/") else None

        def do_GET(self):  # noqa: N802 - HTTP method casing
            path = self._route()
            if path == "/metrics":
                # Prometheus text: the envelope would break scrapers, so
                # /v1/metrics is documented as unwrapped.
                text = service.metrics().encode("utf-8")
                self._send(200, text, METRICS_CONTENT_TYPE)
            elif path == "/health":
                self._reply(200, {"status": "ok"})
            elif path == "/policies":
                self._reply(*service.list_policies())
            elif path == "/log":
                self._reply(*service.log_sizes())
            elif path == "/stats":
                self._reply(*service.stats())
            elif path == "/durability":
                self._reply(*service.durability())
            elif path == "/slowlog":
                self._reply(*service.slowlog())
            else:
                self._not_found()

        def do_POST(self):  # noqa: N802
            path = self._route()
            payload = self._read_json()
            if path is None:
                self._not_found()
            elif isinstance(payload, tuple):
                self._reply(payload[0], {"error": payload[1]})
            elif path == "/query":
                status, body = service.submit(payload)
                headers = None
                if status == 429:
                    # Ceil, not round: the integer header must never
                    # under-wait the precise JSON hint (a 2.5 s hint as
                    # "Retry-After: 2" sends well-behaved clients back
                    # into a still-full window).
                    wait = max(1, math.ceil(body.get("retry_after", 1)))
                    headers = {"Retry-After": str(wait)}
                self._reply(status, body, headers)
            elif path == "/policies":
                self._reply(*service.add_policy(payload))
            else:
                self._not_found()

        def do_DELETE(self):  # noqa: N802
            path = self._route() or ""
            prefix = "/policies/"
            if path.startswith(prefix):
                self._reply(*service.remove_policy(path[len(prefix):]))
            else:
                self._not_found()

        def _not_found(self) -> None:
            self._reply(404, {"error": "not found"})

    return Handler


class EnforcementHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server over parked handler threads that drains
    its service on close."""

    #: Set by :func:`serve` once the socket is bound. A failed bind
    #: closes the server before that, and must surface its own error.
    service: Optional[ShardedEnforcerService] = None

    def __init__(self, *args, **kwargs):
        self._parked: list = []  # the inboxes of idle handler threads
        self._park_lock = threading.Lock()
        self._closed = False
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        """Hand the connection to a parked thread; spawn one if none is."""
        job = (request, client_address)
        try:
            inbox = self._parked.pop()  # the most recently parked
        except IndexError:
            threading.Thread(
                target=self._handle_connections,
                args=(SimpleQueue(), job),
                name=f"http-handler-{self.server_address[1]}",
                daemon=True,
            ).start()
        else:
            inbox.put(job)

    def _handle_connections(self, inbox: SimpleQueue, job) -> None:
        while job is not None:
            # Inherited: handles, reports and closes one connection.
            self.process_request_thread(*job)
            with self._park_lock:
                if self._closed:
                    return
                self._parked.append(inbox)
            job = inbox.get()

    def server_close(self) -> None:
        with self._park_lock:
            self._closed = True
            parked, self._parked = self._parked, []
        for inbox in parked:
            inbox.put(None)
        if self.service is not None:
            self.service.drain()
        super().server_close()


def serve(
    enforcer: Enforcer,
    host: str = "127.0.0.1",
    port: int = 8080,
    config: Optional[ServiceConfig] = None,
) -> EnforcementHTTPServer:
    """Create (but do not start) an HTTP server for the enforcer.

    With the default config this behaves like the old single-enforcer
    facade (one shard adopting ``enforcer``); pass
    ``ServiceConfig(shards=4, ...)`` for a sharded deployment. Call
    ``serve_forever()`` on the result, or run it in a thread::

        server = serve(enforcer, port=0)          # 0 = ephemeral port
        threading.Thread(target=server.serve_forever, daemon=True).start()
        ...
        server.shutdown()
        server.server_close()                     # drains the shards
    """
    sharded = ShardedEnforcerService(enforcer, config)
    facade = EnforcerService(sharded)
    try:
        server = EnforcementHTTPServer((host, port), make_handler(facade))
    except OSError:
        sharded.drain()  # the bind failed (say, the port is taken)
        raise
    server.service = sharded
    return server
