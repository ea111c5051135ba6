"""Observability layer: trace spans, Prometheus export, EXPLAIN ANALYZE.

Covers the span-tree contract end to end — a submitted query's root span
has exactly one child per evaluated policy and per engine operator, and
the span totals reconcile with ``QueryMetrics.seconds`` — plus the
``GET /metrics`` exposition (parsed for validity), the ``/slowlog``
surface, and ``explain=analyze`` over HTTP and the CLI.
"""

import io
import re
import threading
from http.client import HTTPConnection

import pytest
from v1 import request as http_json

from repro.cli import make_parser
from repro.core import Enforcer, EnforcerOptions, Policy
from repro.core.metrics import PHASE_POLICY, PHASE_PROVENANCE, PHASE_QUERY
from repro.engine import Database
from repro.engine.explain import describe, operator_children
from repro.log import SimulatedClock
from repro.obs import (
    Histogram,
    HistogramSnapshot,
    MetricFamily,
    Registry,
    Span,
    TraceContext,
)
from repro.server import serve
from repro.service import ServiceConfig, ShardedEnforcerService
from repro.workloads import PolicyParams, make_policy, make_workload


# ---------------------------------------------------------------------------
# span / trace-context units
# ---------------------------------------------------------------------------


class TestTraceContext:
    def test_push_pop_builds_tree(self):
        trace = TraceContext("root")
        outer = trace.push("outer")
        inner = trace.push("inner")
        trace.pop(inner, 0.25)
        trace.pop(outer, 1.0)
        root = trace.finish()
        assert [c.name for c in root.children] == ["outer"]
        assert outer.children == [inner]
        assert inner.seconds == 0.25
        assert outer.seconds == 1.0
        assert root.seconds > 0

    def test_merge_reuses_same_name_child(self):
        trace = TraceContext("root")
        for _ in range(3):
            span = trace.push("policy:P1", merge=True)
            trace.pop(span, 0.1)
        assert len(trace.root.children) == 1
        assert trace.root.children[0].seconds == pytest.approx(0.3)

    def test_record_attaches_premeasured_leaf(self):
        trace = TraceContext("root")
        trace.record("compact_delete", 0.5)
        trace.record("compact_delete", 0.25)
        child = trace.root.child("compact_delete")
        assert child is not None and child.seconds == pytest.approx(0.75)

    def test_max_children_cap_tallies_drops(self):
        trace = TraceContext("root", max_children=2)
        for index in range(4):
            trace.record(f"c{index}", 0.1)
        assert len(trace.root.children) == 2
        assert trace.root.dropped == 2
        assert "dropped=2" in trace.root.render()

    def test_max_depth_drops_descendants_too(self):
        trace = TraceContext("root", max_depth=2)
        a = trace.push("a")  # depth 1: kept
        b = trace.push("b")  # depth 2: dropped
        assert a is not None and b is None
        # Inside a dropped frame nothing below is recorded either.
        c = trace.push("c")
        assert c is None and trace.current is None
        trace.pop(c, 0.1)
        trace.pop(b, 0.1)
        trace.pop(a, 0.1)
        assert trace.root.span_count() == 2  # root + a
        assert a.dropped == 1

    def test_max_spans_budget(self):
        trace = TraceContext("root", max_spans=3)
        kept = [trace.record(f"s{i}", 0.1) for i in range(5)]
        assert sum(span is not None for span in kept) == 2  # root is #1
        assert trace.root.dropped == 3

    def test_finish_is_idempotent(self):
        trace = TraceContext("root")
        first = trace.finish().seconds
        assert trace.finish().seconds == first

    def test_span_walk_and_render(self):
        root = Span("submit")
        child = Span("query", seconds=0.001, depth=1)
        child.add_count("rows", 7)
        root.children.append(child)
        assert [s.name for s in root.walk()] == ["submit", "query"]
        assert "rows=7" in root.render()


# ---------------------------------------------------------------------------
# prometheus primitives
# ---------------------------------------------------------------------------


class TestPromPrimitives:
    def test_histogram_buckets_are_cumulative(self):
        hist = Histogram(buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap.cumulative == (1, 2, 3)
        assert snap.count == 4  # +Inf picks up the overflow sample
        assert snap.sum == pytest.approx(5.555)

    def test_histogram_snapshot_merge(self):
        a, b = Histogram(buckets=(1.0,)), Histogram(buckets=(1.0,))
        a.observe(0.5)
        b.observe(0.5)
        b.observe(2.0)
        merged = HistogramSnapshot.merge([a.snapshot(), b.snapshot()])
        assert merged.cumulative == (2,)
        assert merged.count == 3

    def test_family_render_and_label_escaping(self):
        family = MetricFamily("x_total", "counter", "Help.")
        family.add({"q": 'a"b\\c\nd'}, 3)
        text = family.render()
        assert "# HELP x_total Help." in text
        assert "# TYPE x_total counter" in text
        assert 'x_total{q="a\\"b\\\\c\\nd"} 3' in text

    def test_histogram_family_exposition(self):
        family = MetricFamily("lat_seconds", "histogram", "Latency.")
        hist = Histogram(buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        family.add_histogram({"shard": "0"}, hist.snapshot())
        text = family.render()
        assert 'lat_seconds_bucket{shard="0",le="0.1"} 1' in text
        assert 'lat_seconds_bucket{shard="0",le="+Inf"} 2' in text
        assert 'lat_seconds_count{shard="0"} 2' in text

    def test_registry_collects_on_render(self):
        registry = Registry()
        calls = []

        def collector():
            calls.append(1)
            return [MetricFamily("g", "gauge", "G.").add(None, 1)]

        registry.register(collector)
        assert registry.render().endswith("g 1\n")
        registry.render()
        assert len(calls) == 2  # scrape-time, not cached


# ---------------------------------------------------------------------------
# enforcer tracing (the tentpole contract)
# ---------------------------------------------------------------------------


@pytest.fixture
def traced_setup(mimic_db, tiny_mimic_config):
    params = PolicyParams.for_config(tiny_mimic_config)
    policies = [make_policy("P2", params), make_policy("P4", params)]
    enforcer = Enforcer(
        mimic_db,
        policies,
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(),
    )
    return enforcer, make_workload(tiny_mimic_config)


def plan_shape(op):
    """(name, children) tree of a physical plan, via the shared helpers."""
    return (describe(op), [plan_shape(c) for c in operator_children(op)])


def span_shape(span):
    return (span.name, [span_shape(c) for c in span.children])


class TestEnforcerTracing:
    def test_root_span_has_one_child_per_policy(self, traced_setup):
        enforcer, workload = traced_setup
        decision = enforcer.submit(workload["W1"], uid=1)
        assert decision.allowed and decision.span is not None
        policy_children = [
            c for c in decision.span.children if c.name.startswith("policy:")
        ]
        assert sorted(c.name for c in policy_children) == [
            "policy:P2", "policy:P4"
        ]
        # Exactly one each, even though interleaved evaluation touches a
        # policy at several stages (merge semantics).
        assert len(policy_children) == len(enforcer.policies)

    @staticmethod
    def assert_mirrors_plan(phase_span, plan):
        # One operator span per plan node, same names, same tree shape.
        assert [span_shape(c) for c in phase_span.children] == [
            plan_shape(plan.op)
        ]
        for span in phase_span.children[0].walk():
            assert "rows" in span.counters

    def test_query_span_mirrors_the_physical_plan(self, traced_setup):
        """P4 reads provenance, so the lineage run is the answer: the
        operator spans sit under the phase that produced it."""
        enforcer, workload = traced_setup
        sql = workload["W1"]
        decision = enforcer.submit(sql, uid=1)
        query_span = decision.span.child(PHASE_QUERY)
        assert query_span is not None and not query_span.children
        self.assert_mirrors_plan(
            decision.span.child(PHASE_PROVENANCE), enforcer.engine.plan(sql)
        )

    def test_query_without_provenance_keeps_its_spans_under_query(
        self, mimic_db, tiny_mimic_config
    ):
        params = PolicyParams.for_config(tiny_mimic_config)
        enforcer = Enforcer(
            mimic_db,
            [make_policy("P2", params)],
            clock=SimulatedClock(default_step_ms=10),
            options=EnforcerOptions.datalawyer(),
        )
        sql = make_workload(tiny_mimic_config)["W1"]
        decision = enforcer.submit(sql, uid=1)
        assert decision.span.child(PHASE_PROVENANCE) is None
        self.assert_mirrors_plan(
            decision.span.child(PHASE_QUERY), enforcer.engine.plan(sql)
        )

    def test_span_totals_reconcile_with_metrics(self, traced_setup):
        enforcer, workload = traced_setup
        decision = enforcer.submit(workload["W1"], uid=1)
        metrics = decision.metrics
        by_name = {c.name: c.seconds for c in decision.span.children}
        policy_total = sum(
            seconds
            for name, seconds in by_name.items()
            if name.startswith("policy:")
        )
        assert policy_total == pytest.approx(
            metrics.seconds[PHASE_POLICY], rel=1e-9, abs=1e-12
        )
        for phase, value in metrics.seconds.items():
            if phase == PHASE_POLICY:
                continue
            assert by_name[phase] == pytest.approx(
                value, rel=1e-9, abs=1e-12
            ), phase
        # Children are disjoint intervals inside the root's wall time.
        assert sum(by_name.values()) <= decision.span.seconds + 1e-6
        assert decision.span.seconds == pytest.approx(
            metrics.total_seconds, rel=0.5, abs=0.05
        )

    def test_rejected_query_is_traced_without_execution(self, traced_setup):
        enforcer, _ = traced_setup
        decision = enforcer.submit(
            "SELECT o.poe_id FROM poe_order o, d_patients p "
            "WHERE o.subject_id = p.subject_id",
            uid=1,
        )
        assert not decision.allowed
        root = decision.span
        assert root is not None
        assert root.counters["allowed"] == 0
        assert root.counters["violations"] == len(decision.violations)
        assert root.child(PHASE_QUERY) is None  # never executed
        assert any(c.name.startswith("policy:") for c in root.children)
        # The rejected path reconciles too.
        by_name = {c.name: c.seconds for c in root.children}
        policy_total = sum(
            s for n, s in by_name.items() if n.startswith("policy:")
        )
        assert policy_total == pytest.approx(
            decision.metrics.seconds[PHASE_POLICY], rel=1e-9, abs=1e-12
        )

    def test_tracing_can_be_disabled(self, mimic_db, tiny_mimic_config):
        params = PolicyParams.for_config(tiny_mimic_config)
        enforcer = Enforcer(
            mimic_db,
            [make_policy("P2", params)],
            clock=SimulatedClock(default_step_ms=10),
            options=EnforcerOptions.datalawyer(tracing=False),
        )
        decision = enforcer.submit(
            make_workload(tiny_mimic_config)["W1"], uid=1
        )
        assert decision.span is None
        assert decision.metrics.seconds  # metrics still populated

    def test_explain_analyze_annotates_every_node(self, traced_setup):
        enforcer, workload = traced_setup
        text = enforcer.engine.explain(workload["W1"], analyze=True)
        plain = enforcer.engine.explain(workload["W1"])
        # Same tree, every operator line annotated.
        assert len(text.splitlines()) == len(plain.splitlines())
        for line in text.splitlines()[1:]:
            assert re.search(r"\(rows=\d+ time=\d+\.\d+ ms\)", line), line


# ---------------------------------------------------------------------------
# exposition validity (parsed, not pattern-matched)
# ---------------------------------------------------------------------------

SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? "
    r"(?P<value>[0-9eE+.\-]+|\+Inf|-Inf|NaN)$"
)


def parse_exposition(text):
    """Parse 0.0.4 text format; raise on any malformed line."""
    families = {}
    current = None
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            current = line.split(" ", 3)[2]
            families.setdefault(current, {"type": None, "samples": []})
        elif line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert name == current, f"TYPE for {name} outside its family"
            assert kind in ("counter", "gauge", "histogram")
            families[name]["type"] = kind
        else:
            match = SAMPLE_RE.match(line)
            assert match, f"malformed sample line: {line!r}"
            base = match.group("name")
            for suffix in ("_bucket", "_sum", "_count"):
                if base.endswith(suffix) and base[: -len(suffix)] in families:
                    base = base[: -len(suffix)]
                    break
            assert base in families, f"sample {line!r} missing HELP/TYPE"
            families[base]["samples"].append(
                (match.group("name"), match.group("labels"), match.group("value"))
            )
    return families


class TestServiceExport:
    @pytest.fixture
    def service(self, traced_setup):
        enforcer, workload = traced_setup
        service = ShardedEnforcerService(
            enforcer, ServiceConfig(shards=2, routing="modulo")
        )
        for uid in (1, 2, 3):
            service.submit(workload["W1"], uid=uid)
        service.submit(
            "SELECT o.poe_id FROM poe_order o, d_patients p "
            "WHERE o.subject_id = p.subject_id",
            uid=1,
        )
        yield service
        service.drain()

    def test_exposition_parses_and_counts_match(self, service):
        families = parse_exposition(service.render_metrics())
        assert families["repro_shards"]["type"] == "gauge"
        completed = {
            (labels, value)
            for _, labels, value in families["repro_shard_completed_total"][
                "samples"
            ]
        }
        assert ('shard="1",outcome="allowed"', "2") in completed
        assert ('shard="1",outcome="denied"', "1") in completed
        # Histograms: one series set per shard, buckets non-decreasing,
        # +Inf equals _count.
        check = families["repro_check_seconds"]
        assert check["type"] == "histogram"
        for shard in ("0", "1"):
            buckets = [
                float(value)
                for name, labels, value in check["samples"]
                if name.endswith("_bucket") and f'shard="{shard}"' in labels
            ]
            assert buckets == sorted(buckets) and buckets, shard
            count = [
                float(value)
                for name, labels, value in check["samples"]
                if name.endswith("_count") and labels == f'shard="{shard}"'
            ]
            assert count == [buckets[-1]]

    def test_per_policy_families(self, service):
        families = parse_exposition(service.render_metrics())
        eval_labels = {
            labels
            for name, labels, _ in families["repro_policy_eval_seconds"][
                "samples"
            ]
            if name.endswith("_count")
        }
        assert 'shard="1",policy="P2"' in eval_labels
        assert 'shard="1",policy="P4"' in eval_labels
        violations = {
            labels: value
            for _, labels, value in families["repro_policy_violations_total"][
                "samples"
            ]
        }
        assert violations.get('shard="1",policy="P2"') == "1"

    def test_phase_totals_exported(self, service):
        families = parse_exposition(service.render_metrics())
        phases = {
            labels
            for _, labels, _ in families["repro_phase_seconds_total"]["samples"]
        }
        assert any('phase="query"' in labels for labels in phases)
        assert any('phase="policy_eval"' in labels for labels in phases)


# ---------------------------------------------------------------------------
# HTTP surface
# ---------------------------------------------------------------------------


def make_enforcer_for_http():
    db = Database()
    db.load_table("navteq", ["id", "lat"], [(1, 47.0), (2, 40.0)])
    db.load_table("other", ["id"], [(1,)])
    policy = Policy.from_sql(
        "no-joins",
        "SELECT DISTINCT 'no external joins' FROM schema p1, schema p2 "
        "WHERE p1.ts = p2.ts AND p1.irid = 'navteq' AND p2.irid <> 'navteq'",
    )
    return Enforcer(
        db,
        [policy],
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(),
    )


@pytest.fixture
def http_server(request):
    config = getattr(request, "param", None) or ServiceConfig(
        slow_query_seconds=1e-9
    )
    httpd = serve(make_enforcer_for_http(), port=0, config=config)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)


def http_text(server, path):
    connection = HTTPConnection(*server.server_address)
    connection.request("GET", "/v1" + path)
    response = connection.getresponse()
    data = response.read().decode()
    content_type = response.getheader("Content-Type")
    connection.close()
    return response.status, content_type, data


class TestHTTPSurface:
    def test_metrics_endpoint_serves_valid_exposition(self, http_server):
        http_json(
            http_server, "POST", "/query",
            {"sql": "SELECT id FROM navteq", "uid": 3},
        )
        status, content_type, text = http_text(http_server, "/metrics")
        assert status == 200
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        families = parse_exposition(text)
        samples = {
            value
            for _, _, value in families["repro_shard_admitted_total"]["samples"]
        }
        assert samples == {"1"}

    def test_query_explain_analyze_returns_plan(self, http_server):
        status, body = http_json(
            http_server, "POST", "/query",
            {"sql": "SELECT id FROM navteq", "uid": 3, "explain": "analyze"},
        )
        assert status == 200
        assert "plan" in body
        for line in body["plan"].splitlines():
            assert re.search(r"\(rows=\d+ time=\d+\.\d+ ms\)", line), line

    @pytest.mark.parametrize(
        "http_server",
        [ServiceConfig(tracing=False)],
        indirect=True,
    )
    def test_explain_analyze_falls_back_when_tracing_off(self, http_server):
        status, body = http_json(
            http_server, "POST", "/query",
            {"sql": "SELECT id FROM navteq", "uid": 3, "explain": "analyze"},
        )
        assert status == 200
        assert "rows=" in body["plan"] and "time=" in body["plan"]

    def test_rejected_analyze_behaves_like_explain(self, http_server):
        status, body = http_json(
            http_server, "POST", "/query",
            {
                "sql": "SELECT n.id FROM navteq n, other o WHERE n.id = o.id",
                "uid": 3,
                "explain": "analyze",
            },
        )
        assert status == 403
        assert "plan" not in body  # the query never executed
        assert "evidence" in body

    def test_slowlog_captures_traces(self, http_server):
        http_json(
            http_server, "POST", "/query",
            {"sql": "SELECT id FROM navteq", "uid": 3},
        )
        status, body = http_json(http_server, "GET", "/slowlog")
        assert status == 200
        assert body["slow_queries"], "threshold of 1ns must catch everything"
        entry = body["slow_queries"][0]
        assert entry["trace"] and "policy:no-joins" in entry["trace"]
        # /stats counts them too.
        _, stats = http_json(http_server, "GET", "/stats")
        assert stats["totals"]["slow"] >= 1


# ---------------------------------------------------------------------------
# durability path: recovered shards keep tracing and export WAL counters
# ---------------------------------------------------------------------------


class TestDurableTracing:
    def test_recovered_service_traces_and_exports_wal(self, tmp_path):
        config = ServiceConfig(data_dir=str(tmp_path), checkpoint_every=0)
        first = ShardedEnforcerService(make_enforcer_for_http(), config)
        first.submit("SELECT id FROM navteq", uid=3)
        first.drain()

        second = ShardedEnforcerService(make_enforcer_for_http(), config)
        try:
            assert second.recovery_reports  # state actually recovered
            decision = second.submit("SELECT lat FROM navteq", uid=3)
            assert decision.span is not None  # tracing survives recovery
            families = parse_exposition(second.render_metrics())
            appends = [
                float(value)
                for _, _, value in families["repro_wal_appends_total"][
                    "samples"
                ]
            ]
            assert sum(appends) >= 1
            assert "repro_wal_fsyncs_total" in families
            assert "repro_wal_last_seq" in families
        finally:
            second.drain()

    def test_non_durable_service_omits_wal_families(self, traced_setup):
        enforcer, _ = traced_setup
        service = ShardedEnforcerService(enforcer, ServiceConfig())
        try:
            families = parse_exposition(service.render_metrics())
            assert "repro_wal_appends_total" not in families
        finally:
            service.drain()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCliExplain:
    def test_explain_analyze_prints_rows_and_time(self):
        out = io.StringIO()
        args = make_parser().parse_args(
            [
                "explain", "--demo", "--patients", "50",
                "--query",
                "SELECT subject_id FROM d_patients WHERE subject_id < 5",
                "--analyze",
            ]
        )
        assert args.func(args, out=out) == 0
        text = out.getvalue()
        assert text.startswith("Output [subject_id]")
        assert re.search(r"Scan d_patients \(rows=\d+ time=\d+\.\d+ ms\)", text)

    def test_explain_without_analyze_has_no_timings(self):
        out = io.StringIO()
        args = make_parser().parse_args(
            [
                "explain", "--demo", "--patients", "50",
                "--query", "SELECT subject_id FROM d_patients",
            ]
        )
        assert args.func(args, out=out) == 0
        assert "time=" not in out.getvalue()
