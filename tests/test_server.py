"""HTTP middleware tests (stdlib client against an in-process server)."""

import json
import socket
import threading
from http.client import HTTPConnection

from unittest.mock import ANY

import pytest
from holds import held, wait_in_hand, wait_until
from v1 import request, unwrap

from repro.core import Enforcer, EnforcerOptions, Policy
from repro.engine import Database
from repro.log import SimulatedClock
from repro.server import MAX_BODY, serve
from repro.service import ServiceConfig


@pytest.fixture
def server():
    db = Database()
    db.load_table("navteq", ["id", "lat"], [(1, 47.0), (2, 40.0)])
    db.load_table("other", ["id"], [(1,)])
    policy = Policy.from_sql(
        "no-joins",
        "SELECT DISTINCT 'no external joins' FROM schema p1, schema p2 "
        "WHERE p1.ts = p2.ts AND p1.irid = 'navteq' AND p2.irid <> 'navteq'",
    )
    enforcer = Enforcer(
        db,
        [policy],
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(),
    )
    httpd = serve(enforcer, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)


class TestQueryEndpoint:
    def test_allowed_query_returns_rows(self, server):
        status, body = request(
            server, "POST", "/query", {"sql": "SELECT id FROM navteq", "uid": 3}
        )
        assert status == 200
        assert body["allowed"] is True
        assert body["columns"] == ["id"]
        assert sorted(body["rows"]) == [[1], [2]]

    def test_rejected_query_returns_403_with_violations(self, server):
        status, body = request(
            server,
            "POST",
            "/query",
            {
                "sql": "SELECT n.id FROM navteq n, other o WHERE n.id = o.id",
                "uid": 3,
            },
        )
        assert status == 403
        assert body["allowed"] is False
        assert body["violations"][0]["policy"] == "no-joins"

    def test_explain_flag_adds_evidence(self, server):
        status, body = request(
            server,
            "POST",
            "/query",
            {
                "sql": "SELECT n.id FROM navteq n, other o WHERE n.id = o.id",
                "uid": 3,
                "explain": True,
            },
        )
        assert status == 403
        evidence = body["evidence"][0]["tuples"]
        assert any(t["from_current_query"] for t in evidence)
        # ``values`` maps column → value (it used to list the names).
        assert {t["values"]["irid"] for t in evidence} == {"navteq", "other"}
        assert all(t["values"]["ts"] == 10 for t in evidence)

    def test_missing_sql(self, server):
        status, body = request(server, "POST", "/query", {"uid": 1})
        assert status == 400

    def test_bad_uid_type(self, server):
        status, _ = request(
            server, "POST", "/query", {"sql": "SELECT 1", "uid": "x"}
        )
        assert status == 400

    def test_boolean_uid_is_rejected(self, server):
        # bool subclasses int; JSON true must not silently become uid 1.
        status, body = request(
            server, "POST", "/query", {"sql": "SELECT 1", "uid": True}
        )
        assert status == 400
        assert "uid" in body["error"]

    def test_sql_error_is_400(self, server):
        status, body = request(
            server, "POST", "/query", {"sql": "SELEKT broken"}
        )
        assert status == 400
        assert "error" in body

    def test_invalid_json_body(self, server):
        connection = HTTPConnection(*server.server_address)
        connection.request(
            "POST", "/v1/query", body=b"not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        assert response.status == 400
        connection.close()

    @pytest.mark.parametrize("length", ["abc", "-5", "12; DROP"])
    def test_malformed_content_length_is_400(self, server, length):
        connection = HTTPConnection(*server.server_address)
        connection.putrequest("POST", "/v1/query")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", length)
        connection.endheaders()
        response = connection.getresponse()
        body = unwrap(json.loads(response.read().decode()))
        connection.close()
        assert response.status == 400
        assert "Content-Length" in body["error"]


class TestPolicyEndpoints:
    def test_list_policies(self, server):
        status, body = request(server, "GET", "/policies")
        assert status == 200
        assert body["policies"][0]["name"] == "no-joins"

    def test_add_policy_enforced_immediately(self, server):
        status, _ = request(
            server,
            "POST",
            "/policies",
            {
                "name": "no-other",
                "sql": "SELECT DISTINCT 'other is off-limits' FROM schema s "
                "WHERE s.irid = 'other'",
            },
        )
        assert status == 201
        status, body = request(
            server, "POST", "/query", {"sql": "SELECT * FROM other", "uid": 1}
        )
        assert status == 403
        assert any(
            v["message"] == "other is off-limits" for v in body["violations"]
        )

    def test_duplicate_policy_conflict(self, server):
        status, _ = request(
            server,
            "POST",
            "/policies",
            {"name": "no-joins", "sql": "SELECT 'x' FROM users u"},
        )
        assert status == 409

    def test_invalid_policy_sql(self, server):
        status, _ = request(
            server,
            "POST",
            "/policies",
            {"name": "bad", "sql": "SELECT 'a', 'b' FROM users"},
        )
        assert status == 400

    def test_remove_policy(self, server):
        status, _ = request(server, "DELETE", "/policies/no-joins")
        assert status == 200
        status, body = request(
            server,
            "POST",
            "/query",
            {"sql": "SELECT n.id FROM navteq n, other o WHERE n.id = o.id"},
        )
        assert status == 200

    def test_remove_unknown_policy(self, server):
        status, _ = request(server, "DELETE", "/policies/ghost")
        assert status == 404


class TestMisc:
    def test_taken_port_raises_the_bind_error(self, server):
        """Binding a port another server holds is the bind's own
        OSError, not an error from closing a half-built server."""
        port = server.server_address[1]
        enforcer = Enforcer(Database(), [], clock=SimulatedClock(default_step_ms=10))
        with pytest.raises(OSError):
            serve(enforcer, port=port)

    def test_health(self, server):
        status, body = request(server, "GET", "/health")
        assert status == 200 and body["status"] == "ok"

    def test_log_endpoint(self, server):
        request(server, "POST", "/query", {"sql": "SELECT id FROM navteq"})
        status, body = request(server, "GET", "/log")
        assert status == 200
        assert set(body["log"]) == {"users", "schema", "provenance"}

    def test_unknown_path(self, server):
        status, _ = request(server, "GET", "/nope")
        assert status == 404

    def test_stats_endpoint(self, server):
        request(server, "POST", "/query", {"sql": "SELECT id FROM navteq"})
        status, body = request(server, "GET", "/stats")
        assert status == 200
        assert body["shards"] == 1
        assert body["totals"]["admitted"] >= 1
        entry = body["per_shard"][0]
        assert {"p50_ms", "p95_ms", "queue_depth"} <= set(entry)

    def test_concurrent_submissions_serialize(self, server):
        errors = []

        def worker():
            try:
                for _ in range(5):
                    status, _ = request(
                        server,
                        "POST",
                        "/query",
                        {"sql": "SELECT id FROM navteq", "uid": 1},
                    )
                    assert status == 200
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors


def make_sharded_server(config):
    db = Database()
    db.load_table("navteq", ["id", "lat"], [(1, 47.0), (2, 40.0)])
    enforcer = Enforcer(
        db,
        [],
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(),
    )
    httpd = serve(enforcer, port=0, config=config)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    return httpd, thread


class TestShardedGateway:
    @pytest.fixture
    def sharded(self):
        httpd, thread = make_sharded_server(
            ServiceConfig(shards=4, routing="modulo")
        )
        yield httpd
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)

    def test_response_carries_shard(self, sharded):
        status, body = request(
            sharded, "POST", "/query",
            {"sql": "SELECT id FROM navteq", "uid": 6},
        )
        assert status == 200
        assert body["shard"] == 2  # 6 % 4 under modulo routing

    def test_log_endpoint_reports_per_shard(self, sharded):
        status, body = request(sharded, "GET", "/log")
        assert status == 200
        assert len(body["per_shard"]) == 4

    def test_global_policy_install_rejected(self, sharded):
        status, body = request(
            sharded, "POST", "/policies",
            {
                "name": "global-quota",
                "sql": "SELECT DISTINCT 'quota' FROM provenance p, clock c "
                "WHERE p.irid = 'navteq' AND p.ts > c.ts - 1000 "
                "HAVING COUNT(DISTINCT p.itid) > 5",
            },
        )
        assert status == 400
        assert "shard" in body["error"]


class TestOverloadedGateway:
    @pytest.fixture
    def slow(self):
        httpd, thread = make_sharded_server(
            ServiceConfig(shards=1, queue_depth=1)
        )
        yield httpd
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)

    def test_429_with_retry_after_under_load(self, slow):
        statuses = []
        headers_seen = []
        tally = threading.Lock()

        def client():
            connection = HTTPConnection(*slow.server_address)
            payload = json.dumps(
                {"sql": "SELECT id FROM navteq", "uid": 1}
            ).encode()
            connection.request(
                "POST", "/v1/query", body=payload,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            response.read()
            with tally:
                statuses.append(response.status)
                headers_seen.append(response.getheader("Retry-After"))
            connection.close()

        threads = [threading.Thread(target=client) for _ in range(6)]
        shard = slow.service.shards[0]
        # Park the worker: one check in hand, one in the only queue
        # slot, so the other four requests must bounce.
        with held(shard):
            threads[0].start()
            wait_in_hand(shard)
            for thread in threads[1:]:
                thread.start()
            wait_until(lambda: len(statuses) == 4)
        for thread in threads:
            thread.join(timeout=30)

        assert len(statuses) == 6
        assert 500 not in statuses  # overload is never an unhandled error
        assert statuses.count(429) == 4
        assert statuses.count(200) == 2
        retry_hints = [
            header
            for status, header in zip(statuses, headers_seen)
            if status == 429
        ]
        assert all(
            header is not None and int(header) >= 1 for header in retry_hints
        )

    def test_retry_after_header_ceils_fractional_hints(self):
        """The integer Retry-After header must never under-wait the
        precise JSON hint: 2.5 s must become "3", not banker's-round
        to "2" (regression: round() sent clients back too early)."""
        from repro.errors import ServiceOverloadedError

        httpd, thread = make_sharded_server(ServiceConfig(shards=1))
        try:
            def overloaded(sql, uid=0, **kwargs):
                raise ServiceOverloadedError(shard=0, retry_after=2.5)

            httpd.service.submit = overloaded
            connection = HTTPConnection(*httpd.server_address)
            connection.request(
                "POST", "/v1/query",
                body=json.dumps({"sql": "SELECT id FROM navteq"}).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            body = unwrap(json.loads(response.read().decode()))
            connection.close()
            assert response.status == 429
            assert response.getheader("Retry-After") == "3"
            assert body["retry_after"] == 2.5  # JSON keeps the precise hint
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5)


def handler_threads(httpd) -> "list[threading.Thread]":
    """The live handler threads of one gateway (named after its port)."""
    name = f"http-handler-{httpd.server_address[1]}"
    return [t for t in threading.enumerate() if t.name == name]


def exchange(httpd, raw: bytes) -> "tuple[int, dict]":
    """Send raw bytes, read the reply to EOF: ``(status, envelope)``."""
    with socket.create_connection(httpd.server_address) as sock:
        sock.sendall(raw)
        chunks = []
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:  # unread request bytes at close
            pass
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head[9:12]), json.loads(body)


QUERY = {"sql": "SELECT id FROM navteq", "uid": 1}


class TestConnectionModel:
    def test_sequential_queries_reuse_parked_threads(self, server):
        for _ in range(200):
            status, _ = request(server, "POST", "/query", QUERY)
            assert status == 200
        assert 1 <= len(handler_threads(server)) <= 2

    def test_held_requests_get_own_threads_then_reuse_them(self):
        httpd, thread = make_sharded_server(ServiceConfig(shards=1))
        try:
            statuses = []
            clients = [
                threading.Thread(
                    target=lambda: statuses.append(
                        request(httpd, "POST", "/query", QUERY)[0]
                    )
                )
                for _ in range(3)
            ]
            shard = httpd.service.shards[0]
            with held(shard):
                clients[0].start()
                wait_in_hand(shard)
                for client in clients[1:]:
                    client.start()
                wait_until(lambda: shard.queue_depth() == 2)
                assert len(handler_threads(httpd)) == 3
            for client in clients:
                client.join(timeout=30)
            assert statuses == [200, 200, 200]
            wait_until(lambda: len(httpd._parked) == 3)
            threads = set(handler_threads(httpd))
            for _ in range(10):
                assert request(httpd, "POST", "/query", QUERY)[0] == 200
            assert set(handler_threads(httpd)) == threads
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(timeout=5)

    def test_health_answers_beside_a_silent_connection(self, server):
        with socket.create_connection(server.server_address):
            wait_until(lambda: len(handler_threads(server)) == 1)
            assert request(server, "GET", "/health") == (200, {"status": "ok"})

    def test_close_leaves_no_handler_thread(self):
        httpd, thread = make_sharded_server(ServiceConfig(shards=1))
        for _ in range(3):
            assert request(httpd, "GET", "/health")[0] == 200
        idle = len(handler_threads(httpd))
        wait_until(lambda: len(httpd._parked) == idle)
        # A connection still sending its head when the server closes.
        sock = socket.create_connection(httpd.server_address)
        sock.sendall(b"POST /v1/query HTTP/1.0\r\n")
        wait_until(lambda: len(httpd._parked) == idle - 1)
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
        sock.sendall(b"Content-Length: 2\r\n\r\n{}")
        reply = sock.makefile("rb").read()
        sock.close()
        assert reply.startswith(b"HTTP/1.0 400 ")  # it finished its request
        wait_until(lambda: not handler_threads(httpd))


class TestHostileHeads:
    @pytest.mark.parametrize(
        "raw, status, code",
        [
            (b"GARBAGE\r\n\r\n", 400, "invalid_request"),
            (b"GET /v1/health HTTP/1.0\r\nno colon here\r\n\r\n",
             400, "invalid_request"),
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.0\r\n\r\n",
             414, "uri_too_long"),
            (b"GET /v1/health HTTP/1.0\r\nX-Long: " + b"a" * 70_000
             + b"\r\n\r\n", 431, "headers_too_large"),
            (b"GET /v1/health HTTP/1.0\r\n"
             + b"".join(b"X-%d: v\r\n" % i for i in range(101)) + b"\r\n",
             431, "headers_too_large"),
            (b"PATCH /v1/query HTTP/1.0\r\n\r\n", 501, "not_implemented"),
        ],
        ids=["garbage", "no-colon", "long-line", "long-header",
             "101-headers", "patch"],
    )
    def test_refused_in_the_envelope(self, server, raw, status, code):
        assert exchange(server, raw) == (
            status,
            {"api_version": 1, "error": {"code": code, "message": ANY}},
        )
        assert request(server, "GET", "/health")[0] == 200

    def test_oversized_body_is_refused_unread(self, server):
        # The declared length used to be allocated up front: a MemoryError
        # in the handler thread, and no reply at all.
        raw = (
            b"POST /v1/query HTTP/1.0\r\n"
            b"Content-Length: 1000000000000\r\n\r\n"
        )
        assert exchange(server, raw) == (
            413,
            {
                "api_version": 1,
                "error": {"code": "payload_too_large", "message": ANY},
            },
        )
        assert request(server, "POST", "/query", QUERY)[0] == 200

    def test_body_of_exactly_max_body_bytes_is_accepted(self, server):
        body = json.dumps(dict(QUERY, pad="")).encode()
        body = json.dumps(
            dict(QUERY, pad="x" * (MAX_BODY - len(body)))
        ).encode()
        assert len(body) == MAX_BODY
        status, envelope = exchange(
            server,
            b"POST /v1/query HTTP/1.0\r\nContent-Length: %d\r\n\r\n%s"
            % (len(body), body),
        )
        assert status == 200
        assert envelope["data"]["allowed"] is True

    def test_hundred_headers_are_accepted(self, server):
        head = b"".join(b"X-%d: v\r\n" % i for i in range(100))
        raw = b"GET /v1/health HTTP/1.0\r\n" + head + b"\r\n"
        assert exchange(server, raw)[0] == 200

    def test_short_body_then_close_frees_the_thread(self, server):
        request(server, "GET", "/health")
        wait_until(lambda: len(server._parked) == 1)
        with socket.create_connection(server.server_address) as sock:
            sock.sendall(
                b"POST /v1/query HTTP/1.0\r\nContent-Length: 100\r\n\r\n{"
            )
            wait_until(lambda: not server._parked)
        wait_until(lambda: len(server._parked) == 1)
        assert len(handler_threads(server)) == 1
        assert request(server, "POST", "/query", QUERY)[0] == 200

    def test_mixed_case_content_length_is_honoured(self, server):
        body = json.dumps(QUERY).encode()
        status, envelope = exchange(
            server,
            b"POST /v1/query HTTP/1.0\r\ncOnTeNt-LeNgTh: %d\r\n\r\n%s"
            % (len(body), body),
        )
        assert status == 200
        assert envelope["data"]["rows"] == [[1], [2]]

    def test_one_write_per_response(self, server, monkeypatch):
        writes = []
        original = socket.socket.sendall

        def counting(sock, data, *args):
            if sock.getsockname() == server.server_address:
                writes.append(data)
            return original(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", counting)
        status, body = request(server, "POST", "/query", QUERY)
        assert status == 200
        assert len(writes) == 1
        head, _, payload = writes[0].partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0] == b"HTTP/1.0 200 OK"
        assert b"Content-Length: %d" % len(payload) in head
