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

Versioning (see ``docs/api_v1.md``): every response but one is wrapped
in the versioned envelope ::

    {"api_version": 1, "data": ...}                          # success
    {"api_version": 1, "error": {"code": ..., "message": ...}}

Error codes: ``invalid_request`` (400), ``not_found`` (404),
``conflict`` (409), ``overloaded`` (429), ``draining`` (503). A policy
denial (403) is a *decision*, not an error — it arrives under ``data``
with ``allowed: false`` and its violations. ``GET /v1/metrics`` is the
one exception to the envelope: it stays Prometheus text exposition. Any
path outside ``/v1/`` is a 404.
"""

from __future__ import annotations

import json
import math
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Union

from .core import Enforcer, Policy
from .core.metrics import PHASE_PROVENANCE, PHASE_QUERY
from .engine.explain import render_analyzed
from .errors import (
    PolicyError,
    PolicyPlacementError,
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
    429: "overloaded",
    503: "draining",
}


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

    def __init__(
        self,
        service: ShardedEnforcerService,
        max_result_rows: Optional[int] = None,
    ):
        self.service = service
        self.max_result_rows = (
            service.config.max_result_rows
            if max_result_rows is None
            else max_result_rows
        )

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
            rows = decision.result.rows[: self.max_result_rows]
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
                body["evidence"] = self._explain(decision, uid)
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

    def _explain(self, decision, uid: int) -> "list[dict]":
        """Re-run the violated policies with lineage on the same shard.

        Explanation reads the shard's current log state; the service
        runs it on the routed shard outside the admission path (the
        shard's own ``explain_evidence`` under its lock, reached over
        the control channel when a worker process hosts it — explain is
        an admin-grade operation, not a policy check, and must not
        consume an admission slot).
        """
        return self.service.explain_evidence(uid, decision)

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
        except PolicyPlacementError as error:
            return 400, {"error": str(error)}
        except ReproError as error:
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

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            pass  # keep tests quiet

        def _send(
            self, status: int, body: dict, headers: Optional[dict] = None
        ) -> None:
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)

        def _send_text(
            self, status: int, text: str, content_type: str
        ) -> None:
            data = text.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def _route(self) -> Optional[str]:
            """The endpoint path under ``/v1``; None for any other path."""
            if self.path.startswith("/v1/"):
                return self.path[len("/v1"):]
            return None

        def _reply(
            self, status: int, body: dict, headers: Optional[dict] = None
        ) -> None:
            self._send(status, versioned_envelope(status, body), headers)

        def _read_json(self) -> Union[dict, str, None]:
            """The parsed body, or an error string for a 400 response."""
            raw_length = self.headers.get("Content-Length", "0") or "0"
            try:
                length = int(raw_length)
            except ValueError:
                return "invalid Content-Length header"
            if length < 0:
                return "invalid Content-Length header"
            raw = self.rfile.read(length) if length else b"{}"
            try:
                payload = json.loads(raw or b"{}")
            except json.JSONDecodeError:
                return None
            return payload if isinstance(payload, dict) else None

        def do_GET(self):  # noqa: N802 - stdlib casing
            path = self._route()
            if path == "/metrics":
                # Prometheus text: the envelope would break scrapers, so
                # /v1/metrics is documented as unwrapped.
                self._send_text(200, service.metrics(), METRICS_CONTENT_TYPE)
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
            elif isinstance(payload, str):
                self._reply(400, {"error": payload})
            elif payload is None:
                self._reply(400, {"error": "invalid JSON body"})
            elif path == "/query":
                status, body = service.submit(payload)
                headers = None
                if status == 429:
                    # Ceil, not round: the integer header must never
                    # under-wait the precise JSON hint (a 2.5 s hint as
                    # "Retry-After: 2" sends well-behaved clients back
                    # into a still-full window).
                    headers = {
                        "Retry-After": str(
                            max(1, math.ceil(body.get("retry_after", 1)))
                        )
                    }
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
    """A threading HTTP server that drains its service on close."""

    #: Set by :func:`serve` once the socket is bound. A failed bind
    #: closes the server before that, and must surface its own error.
    service: Optional[ShardedEnforcerService] = None

    def server_close(self) -> None:
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
