"""The gateway tests' HTTP client: speaks ``/v1``, returns flat bodies.

Every response but ``/v1/metrics`` arrives in the versioned envelope;
the assertions in these suites read the handler's own body, so
:func:`unwrap` takes the envelope off again — ``data`` as is, an error
as ``{"error": <message>, ...}`` with its sibling keys (``shard``,
``retry_after``) beside it. The envelope itself is ``test_api_v1``'s
subject.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection


def unwrap(envelope: dict) -> dict:
    if "error" in envelope:
        error = dict(envelope["error"])
        del error["code"]
        return {"error": error.pop("message"), **error}
    return envelope["data"]


def request(server, method, path, body=None):
    """``(status, flat body)`` of ``method /v1<path>``."""
    connection = HTTPConnection(*server.server_address)
    payload = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"} if payload else {}
    connection.request(method, "/v1" + path, body=payload, headers=headers)
    response = connection.getresponse()
    data = unwrap(json.loads(response.read().decode()))
    connection.close()
    return response.status, data
