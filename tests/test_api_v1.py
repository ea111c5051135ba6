"""The versioned surfaces: the ``/v1`` HTTP envelope (the only HTTP
surface — anything outside it is a 404) and the stable ``repro.api``
Python facade.
"""

from __future__ import annotations

import json
import threading
from http.client import HTTPConnection

import pytest

from repro.api import EnforcerBuilder, connect
from repro.core import Enforcer, EnforcerOptions, Policy
from repro.engine import Database
from repro.log import SimulatedClock
from repro.obs import CONTENT_TYPE as METRICS_CONTENT_TYPE
from repro.server import API_VERSION, ERROR_CODES, serve, versioned_envelope

NO_JOINS_SQL = (
    "SELECT DISTINCT 'no external joins' FROM schema p1, schema p2 "
    "WHERE p1.ts = p2.ts AND p1.irid = 'navteq' AND p2.irid <> 'navteq'"
)
JOIN_QUERY = "SELECT n.id FROM navteq n, other o WHERE n.id = o.id"


def make_database() -> Database:
    db = Database()
    db.load_table("navteq", ["id", "lat"], [(1, 47.0), (2, 40.0)])
    db.load_table("other", ["id"], [(1,)])
    return db


@pytest.fixture
def server():
    enforcer = Enforcer(
        make_database(),
        [Policy.from_sql("no-joins", NO_JOINS_SQL)],
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


def raw_request(server, method, path, body=None, raw_body=None):
    connection = HTTPConnection(*server.server_address)
    payload = raw_body
    headers = {}
    if body is not None:
        payload = json.dumps(body).encode()
    if payload is not None:
        headers["Content-Type"] = "application/json"
    connection.request(method, path, body=payload, headers=headers)
    response = connection.getresponse()
    data = response.read()
    header_map = dict(response.getheaders())
    connection.close()
    return response.status, data, header_map


def json_request(server, method, path, body=None, raw_body=None):
    status, data, headers = raw_request(
        server, method, path, body=body, raw_body=raw_body
    )
    return status, json.loads(data.decode()), headers


class TestEnvelopeUnit:
    def test_success_body_goes_under_data(self):
        assert versioned_envelope(200, {"allowed": True}) == {
            "api_version": API_VERSION,
            "data": {"allowed": True},
        }

    def test_denial_is_data_not_error(self):
        wrapped = versioned_envelope(403, {"allowed": False, "violations": []})
        assert "error" not in wrapped
        assert wrapped["data"]["allowed"] is False

    def test_error_string_becomes_coded_object(self):
        wrapped = versioned_envelope(
            429,
            {"error": "shard admission queue is full", "shard": 0,
             "retry_after": 1.5},
        )
        assert wrapped == {
            "api_version": API_VERSION,
            "error": {
                "code": "overloaded",
                "message": "shard admission queue is full",
                "shard": 0,
                "retry_after": 1.5,
            },
        }

    def test_every_mapped_status_has_a_stable_code(self):
        assert ERROR_CODES == {
            400: "invalid_request",
            404: "not_found",
            409: "conflict",
            414: "uri_too_long",
            429: "overloaded",
            431: "headers_too_large",
            501: "not_implemented",
            503: "draining",
        }


class TestV1Surface:
    def test_allowed_query(self, server):
        status, body, headers = json_request(
            server, "POST", "/v1/query",
            {"sql": "SELECT id FROM navteq", "uid": 3},
        )
        assert status == 200
        assert body["api_version"] == API_VERSION
        data = body["data"]
        assert data["allowed"] is True
        assert sorted(data["rows"]) == [[1], [2]]
        assert "Deprecation" not in headers

    def test_denied_query_arrives_under_data(self, server):
        status, body, _ = json_request(
            server, "POST", "/v1/query", {"sql": JOIN_QUERY, "uid": 3}
        )
        assert status == 403
        assert "error" not in body
        data = body["data"]
        assert data["allowed"] is False
        assert data["violations"][0]["policy"] == "no-joins"

    def test_missing_sql_is_invalid_request(self, server):
        status, body, _ = json_request(
            server, "POST", "/v1/query", {"uid": 3}
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_request"
        assert "sql" in body["error"]["message"]

    def test_unparseable_body_is_invalid_request(self, server):
        status, body, _ = json_request(
            server, "POST", "/v1/query", raw_body=b"not json"
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_request"

    def test_policy_lifecycle_and_conflict(self, server):
        status, body, _ = json_request(
            server, "POST", "/v1/policies",
            {"name": "extra", "sql": NO_JOINS_SQL},
        )
        assert status == 201
        assert body["data"]["registered"] == "extra"

        status, body, _ = json_request(
            server, "POST", "/v1/policies",
            {"name": "extra", "sql": NO_JOINS_SQL},
        )
        assert status == 409
        assert body["error"]["code"] == "conflict"

        status, body, _ = json_request(
            server, "DELETE", "/v1/policies/extra"
        )
        assert status == 200
        assert body["data"]["removed"] == "extra"

    def test_unbindable_policy_is_invalid_request_not_an_outage(self, server):
        # Regression: this answered 201, and every later query 400.
        status, body, _ = json_request(
            server, "POST", "/v1/policies",
            {
                "name": "typo",
                "sql": "SELECT 'x' FROM users u, nosuch n WHERE u.uid = n.k",
            },
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_request"
        assert "unknown table 'nosuch'" in body["error"]["message"]
        status, body, _ = json_request(server, "GET", "/v1/policies")
        assert [p["name"] for p in body["data"]["policies"]] == ["no-joins"]
        status, body, _ = json_request(
            server, "POST", "/v1/query", {"sql": "SELECT id FROM navteq"}
        )
        assert status == 200 and body["data"]["allowed"]

    def test_removing_unknown_policy_is_not_found(self, server):
        status, body, _ = json_request(
            server, "DELETE", "/v1/policies/ghost"
        )
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_reads_are_enveloped(self, server):
        for path, key in (
            ("/v1/health", "status"),
            ("/v1/policies", "policies"),
            ("/v1/stats", "shards"),
            ("/v1/log", "log"),
        ):
            status, body, _ = json_request(server, "GET", path)
            assert status == 200
            assert body["api_version"] == API_VERSION
            assert key in body["data"]

    def test_metrics_stays_prometheus_text(self, server):
        status, data, headers = raw_request(server, "GET", "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"] == METRICS_CONTENT_TYPE
        assert b"repro_shards" in data
        assert not data.lstrip().startswith(b"{")
        assert "Deprecation" not in headers

    def test_unknown_v1_path_is_enveloped_without_deprecation(self, server):
        status, body, headers = json_request(server, "GET", "/v1/nope")
        assert status == 404
        assert body["error"]["code"] == "not_found"
        assert "Deprecation" not in headers


class TestUnversionedPaths:
    def test_unversioned_paths_are_plain_not_found(self, server):
        for method, path, body in (
            ("POST", "/query", {"sql": "SELECT id FROM navteq", "uid": 3}),
            ("POST", "/policies", {"name": "extra", "sql": NO_JOINS_SQL}),
            ("DELETE", "/policies/no-joins", None),
            ("GET", "/health", None),
            ("GET", "/stats", None),
            ("GET", "/metrics", None),
            ("GET", "/v1", None),
            ("GET", "/nope", None),
        ):
            status, reply, headers = json_request(server, method, path, body)
            assert status == 404, path
            assert reply["error"]["code"] == "not_found"
            assert "Deprecation" not in headers and "Link" not in headers
        status, reply, _ = json_request(server, "GET", "/v1/policies")
        assert [p["name"] for p in reply["data"]["policies"]] == ["no-joins"]


class TestPythonFacade:
    def test_connect_is_keyword_only(self):
        with pytest.raises(TypeError):
            connect(make_database())  # noqa: E501 - positional must be rejected

    def test_connect_builds_a_working_enforcer(self):
        enforcer = connect(
            database=make_database(),
            policies=[Policy.from_sql("no-joins", NO_JOINS_SQL)],
            clock=SimulatedClock(default_step_ms=10),
        )
        assert enforcer.submit("SELECT id FROM navteq", uid=1).allowed
        assert not enforcer.submit(JOIN_QUERY, uid=1).allowed

    def test_connect_profiles_match_the_option_factories(self):
        db = make_database()
        assert (
            connect(database=db).options == EnforcerOptions.datalawyer()
        )
        assert (
            connect(database=db, profile="noopt").options
            == EnforcerOptions.noopt()
        )

    def test_connect_rejects_unknown_profile(self):
        with pytest.raises(ValueError, match="unknown profile"):
            connect(database=make_database(), profile="turbo")

    def test_connect_rejects_unknown_option(self):
        with pytest.raises(TypeError):
            connect(database=make_database(), warp_speed=True)

    def test_connect_layers_overrides_over_the_profile(self):
        enforcer = connect(database=make_database(), decision_cache=True)
        assert enforcer.options.decision_cache is True
        assert enforcer.options == EnforcerOptions.datalawyer(
            decision_cache=True
        )

    def test_builder_chains_and_builds(self):
        enforcer = (
            EnforcerBuilder(make_database())
            .policy("no-joins", NO_JOINS_SQL)
            .clock(SimulatedClock(default_step_ms=10))
            .options(decision_cache=True)
            .build()
        )
        assert not enforcer.submit(JOIN_QUERY, uid=1).allowed
        enforcer.submit("SELECT id FROM navteq", uid=1)
        enforcer.submit("SELECT id FROM navteq", uid=1)
        assert enforcer.decision_cache.stats.hits == 1

    def test_builder_accepts_prebuilt_policies(self):
        policy = Policy.from_sql("no-joins", NO_JOINS_SQL)
        enforcer = EnforcerBuilder(make_database()).policies(policy).build()
        assert [p.name for p in enforcer.policies] == ["no-joins"]

    def test_builder_validates_profile_at_build_time(self):
        builder = EnforcerBuilder(make_database()).profile("turbo")
        with pytest.raises(ValueError, match="unknown profile"):
            builder.build()

    def test_builder_is_reusable(self):
        builder = EnforcerBuilder(make_database()).policy(
            "no-joins", NO_JOINS_SQL
        )
        first, second = builder.build(), builder.build()
        assert first is not second
        assert first.database is second.database
