"""DataLawyer as HTTP middleware: the paper's deployment shape, live.

Boots the enforcement server over the marketplace workload (per-subscriber
rate limits + free-tier quota + Yelp-style no-blending, with the rate
limits unified into one policy) and drives it with a plain HTTP client —
the way a non-Python application stack would integrate it.

Run:  python examples/middleware_server.py
"""

import json
import threading
from http.client import HTTPConnection

from repro import SimulatedClock
from repro.api import connect
from repro.server import serve
from repro.workloads import (
    MarketplaceConfig,
    build_marketplace_database,
    make_marketplace_workload,
    standard_contract,
)


def call(address, method, path, body=None):
    """One ``/v1`` call: the status and the envelope's ``data`` (or its
    ``error`` object — see docs/api_v1.md)."""
    connection = HTTPConnection(*address)
    payload = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"} if payload else {}
    connection.request(method, "/v1" + path, body=payload, headers=headers)
    response = connection.getresponse()
    envelope = json.loads(response.read().decode())
    connection.close()
    return response.status, envelope.get("data", envelope.get("error"))


def main() -> None:
    config = MarketplaceConfig(
        n_listings=120, rate_limit=3, rate_window=1000,
        free_tier_tuples=200, free_tier_window=60_000,
    )
    enforcer = connect(
        database=build_marketplace_database(config),
        policies=standard_contract(config),
        clock=SimulatedClock(default_step_ms=50),
    )
    workload = make_marketplace_workload(config)

    httpd = serve(enforcer, port=0)  # ephemeral port
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    address = httpd.server_address
    print(f"middleware listening on {address[0]}:{address[1]}\n")

    try:
        status, body = call(address, "GET", "/policies")
        print(f"GET /v1/policies -> {status}: {len(body['policies'])} policies installed")

        status, body = call(
            address, "POST", "/query", {"sql": workload["M2"], "uid": 2}
        )
        print(f"POST /v1/query (display join, uid 2) -> {status}, "
              f"{body.get('row_count', 0)} rows")

        # Burn subscriber 1's rate limit.
        for attempt in range(1, 5):
            status, body = call(
                address, "POST", "/query", {"sql": workload["M1"], "uid": 1}
            )
            note = (
                body["violations"][0]["message"]
                if status == 403
                else f"{body.get('row_count', 0)} rows"
            )
            print(f"POST /v1/query (lookup, uid 1) attempt {attempt} -> {status}: {note}")

        # Blending ratings: rejected with evidence on request.
        status, body = call(
            address,
            "POST",
            "/query",
            {
                "sql": "SELECT l.category, AVG(r.stars) "
                "FROM listings l, ratings r "
                "WHERE l.biz_id = r.biz_id GROUP BY l.category",
                "uid": 2,
                "explain": True,
            },
        )
        print(f"POST /v1/query (blend ratings) -> {status}: "
              f"{body['violations'][0]['message']}")
        evidence = body["evidence"][0]["tuples"]
        flagged = [t for t in evidence if t["from_current_query"]]
        print(f"  evidence: {len(evidence)} tuples, "
              f"{len(flagged)} from this query, e.g. {flagged[0]['values']}")

        # Operators can manage policies over the same API.
        status, _ = call(
            address,
            "POST",
            "/policies",
            {
                "name": "no-vendor-joins",
                "sql": "SELECT DISTINCT 'vendors is internal-only' "
                "FROM schema s WHERE s.irid = 'vendors'",
            },
        )
        print(f"POST /v1/policies (register new term) -> {status}")
        status, body = call(
            address, "POST", "/query", {"sql": "SELECT * FROM vendors", "uid": 2}
        )
        print(f"POST /v1/query (touch vendors) -> {status}: "
              f"{body['violations'][0]['message']}")

        status, body = call(address, "GET", "/log")
        print(f"\nGET /v1/log -> usage log after compaction: {body['log']}")
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


if __name__ == "__main__":
    main()
