"""Span recording from outside the program.

``install()`` wraps the layers' public functions *inside the server
child of the traced replica* and records one span per call: ``(id, name,
start, end, parent id, request index, returned count)``, kept in memory
and written out once when the child stops. Nothing under ``src/`` is edited; an untraced
replica never imports this module.

A request's spans form one tree across two threads. The handler thread
opens ``http.request`` and the ``service.submit`` spans; the wrapped
``Shard.offer_query`` leaves the id of the span that will wait for the
answer in :attr:`Tracer.handoff`, and the shard worker — whose own stack
is empty — adopts it as the parent of everything it does for that
request (the harness sends one request at a time, so one slot is
enough). A span's *self time* is its duration minus its children's;
``run.py`` computes it from the written file.

Span names are the ledger's layer names: several functions of one layer
share a name (``Engine.execute`` and ``Engine.plan_is_empty`` are both
``engine.execute``).
"""

from __future__ import annotations

import itertools
import json
import socketserver
import sys
import threading
import time
from dataclasses import replace

#: (module, class, attribute, span name). ``key_for`` is a staticmethod.
METHODS = (
    ("repro.server", "EnforcerService", "submit", "service.submit"),
    ("repro.service.coordinator", "ShardedEnforcerService", "submit",
     "service.submit"),
    ("repro.service.shard", "Shard", "offer_query", "service.submit"),
    ("repro.core.enforcer", "Enforcer", "submit", "enforcer.submit"),
    ("repro.core.decision_cache", "DecisionCache", "key_for",
     "decision_cache.lookup"),
    ("repro.core.decision_cache", "DecisionCache", "lookup",
     "decision_cache.lookup"),
    ("repro.core.decision_cache", "DecisionCache", "store",
     "decision_cache.store"),
    ("repro.log.store", "LogStore", "stage", "log.stage"),
    ("repro.log.store", "LogStore", "commit", "log.commit"),
    ("repro.log.store", "LogStore", "discard_staged", "log.discard"),
    ("repro.incremental.maintainer", "IncrementalMaintainer", "check",
     "incremental.check"),
    ("repro.incremental.maintainer", "IncrementalMaintainer", "on_commit",
     "incremental.fold"),
    ("repro.incremental.maintainer", "IncrementalMaintainer", "on_discard",
     "incremental.fold"),
    ("repro.engine.dag", "PolicyDag", "evaluate", "engine.dag"),
    ("repro.engine.executor", "Engine", "plan", "engine.plan"),
    ("repro.engine.executor", "Engine", "execute", "engine.execute"),
    ("repro.engine.executor", "Engine", "plan_is_empty", "engine.execute"),
    ("repro.storage.wal", "WriteAheadLog", "append", "wal.append"),
)

#: Module-level functions, re-bound in every ``repro`` module that
#: imported them by name.
FUNCTIONS = (
    ("repro.sql.parser", "parse", "sql.parse"),
    ("repro.storage.wal", "checkpoint", "wal.checkpoint"),
)

#: The call that numbers query requests and the one that hands a request
#: to the shard worker (see :meth:`Tracer.wrap`).
ROLES = {
    ("EnforcerService", "submit"): "root",
    ("Shard", "offer_query"): "handoff",
}


class Tracer:
    def __init__(self) -> None:
        #: id → [name, start, end, parent id, request index, returned int]
        self.spans: dict = {}
        self._ids = itertools.count()
        self._requests = itertools.count()
        self._local = threading.local()
        #: (span id, request index) the shard worker adopts as its parent.
        self.handoff = (None, -1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, function, name: str, role: str = ""):
        """``function`` recording one span per call.

        ``role="root"`` numbers the request (and tags the spans already
        open on this thread with it); ``role="handoff"`` publishes the
        enclosing span to the worker thread.
        """
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
                request = spans[parent][4]
            else:
                parent, request = self.handoff
            if role == "root":
                request = next(self._requests)
                for open_id in stack:
                    spans[open_id][4] = request
            elif role == "handoff":
                self.handoff = (parent, request)
            span_id = next(ids)
            record = spans[span_id] = [name, clock(), 0.0, parent, request, None]
            stack.append(span_id)
            try:
                result = function(*args, **kwargs)
                if type(result) is int:
                    # A count made where the work happens: rows staged,
                    # rows dropped, the WAL sequence number.
                    record[5] = result
                return result
            finally:
                record[2] = clock()
                stack.pop()

        traced.__wrapped__ = function
        return traced

    def wrap_request_thread(self, function):
        """``http.request``: the whole server-side life of a connection.
        A fresh thread has nothing to inherit from the previous request."""
        traced = self.wrap(function, "http.request")

        def fresh(*args, **kwargs):
            self.handoff = (None, -1)
            return traced(*args, **kwargs)

        return fresh

    def wrap_log_functions(self, registry) -> None:
        """``LogFunction.generate`` is a field of a frozen dataclass, not
        a method: swap the registry's entries for traced copies."""
        functions = registry._functions  # noqa: SLF001 - tracing from outside
        for key, function in list(functions.items()):
            functions[key] = replace(
                function, generate=self.wrap(function.generate, "log.generate")
            )

    def dump(self, path) -> None:
        rows = [
            [span_id, *record]
            for span_id, record in sorted(self.spans.items())
            if record[2]  # still-open spans (the dump itself) are dropped
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"columns": COLUMNS, "spans": rows}, handle)


COLUMNS = ["id", "name", "start", "end", "parent", "request", "value"]


def _import(module_name: str):
    __import__(module_name)
    return sys.modules[module_name]


def install() -> Tracer:
    """Wrap every target in this process; returns the recording tracer."""
    tracer = Tracer()
    for module_name, class_name, attribute, name in METHODS:
        owner = getattr(_import(module_name), class_name)
        raw = owner.__dict__[attribute]
        static = isinstance(raw, staticmethod)
        role = ROLES.get((class_name, attribute), "")
        wrapped = tracer.wrap(raw.__func__ if static else raw, name, role)
        setattr(owner, attribute, staticmethod(wrapped) if static else wrapped)
    for module_name, attribute, name in FUNCTIONS:
        original = getattr(_import(module_name), attribute)
        wrapped = tracer.wrap(original, name)
        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro")
                and getattr(module, attribute, None) is original
            ):
                setattr(module, attribute, wrapped)
    socketserver.ThreadingMixIn.process_request_thread = (
        tracer.wrap_request_thread(
            socketserver.ThreadingMixIn.process_request_thread
        )
    )
    return tracer
