"""What a query leaves behind is stored once.

The usage-log *table* is the persisted image — a row is persisted iff
its tid is not staged — and the ``Decision`` is the only record of a
request. These tests pin that: a stateful model of one ``LogStore``
under a WAL (stage / commit / discard / checkpoint / crash-and-recover),
the no-scan guarantee of an uncompacted commit, checkpoints written in
the previous manifest format, catalogs that already hold usage-log rows,
and the bytes a served request retains.
"""

from __future__ import annotations

import gc
import json
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.api import connect
from repro.core import Enforcer, EnforcerOptions, Policy
from repro.engine import Database, Table
from repro.log import LogStore, SimulatedClock, standard_registry
from repro.service.shard import Shard
from repro.storage import (
    StorageError,
    checkpoint,
    initialize_durability,
    load_database,
    recover_enforcer,
    restore_enforcer,
    save_database,
    save_enforcer_state,
)

RELATIONS = ("users", "schema")


# ---------------------------------------------------------------------------
# (a) one LogStore + WAL against a plain-list model
# ---------------------------------------------------------------------------


class LogStoreMachine(RuleBasedStateMachine):
    """Model: per relation, the persisted ``(tid, row)`` list and the
    staged one. The store must agree after every step, and an enforcer
    recovered from the durability directory must equal the model's
    persisted half (staged rows never reach the WAL)."""

    def __init__(self):
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="logstore-machine-"))
        self.enforcer = Enforcer(
            Database(),
            [],
            registry=standard_registry(),
            clock=SimulatedClock(default_step_ms=10),
        )
        self.wal = initialize_durability(
            self.enforcer, self.directory, sync=False
        )
        self.persisted = {name: [] for name in RELATIONS}
        self.staged = {name: [] for name in RELATIONS}

    def teardown(self):
        self.wal.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    @property
    def store(self) -> LogStore:
        return self.enforcer.store

    def in_query(self) -> bool:
        return any(self.staged.values())

    def end_query(self) -> None:
        self.staged = {name: [] for name in RELATIONS}

    # -- rules -------------------------------------------------------------

    @rule(
        name=st.sampled_from(RELATIONS),
        values=st.lists(st.integers(0, 9), min_size=1, max_size=3),
    )
    def stage(self, name, values):
        if not self.in_query():
            self.store.set_time(self.enforcer.clock.advance())
        now = self.store.current_time()
        width = len(self.enforcer.registry.get(name).columns)
        rows = [(value,) * width for value in values]
        first = self.store.table(name).next_tid
        assert self.store.stage(name, rows, now) == len(rows)
        self.staged[name].extend(
            (first + offset, (now, *row)) for offset, row in enumerate(rows)
        )

    @rule(data=st.data(), restrict=st.booleans())
    def commit_marked(self, data, restrict):
        persist = None
        if restrict:
            persist = data.draw(
                st.lists(st.sampled_from(RELATIONS), unique=True)
            )
        marks = {}
        for name in RELATIONS:
            tids = [tid for tid, _ in self.persisted[name] + self.staged[name]]
            if tids and data.draw(st.booleans()):
                marks[name] = set(
                    data.draw(st.lists(st.sampled_from(tids), unique=True))
                )
        versions = self.store.versions()
        self.store.commit(marks, persist_relations=persist)
        for name in RELATIONS:
            if persist is not None and name not in persist:
                assert self.store.version(name) == versions[name]
                continue
            before = self.persisted[name]
            self.persisted[name] = [
                entry
                for entry in before + self.staged[name]
                if entry[0] in marks.get(name, ())
            ]
            changed = self.persisted[name] != before
            assert self.store.version(name) == versions[name] + changed
        self.end_query()

    @rule()
    def commit_unmarked(self):
        self.store.commit(None)
        for name in RELATIONS:
            self.persisted[name].extend(self.staged[name])
        self.end_query()

    @rule()
    def discard(self):
        dropped = self.store.discard_staged()
        assert dropped == sum(len(rows) for rows in self.staged.values())
        self.end_query()

    @precondition(lambda self: not self.in_query())
    @rule()
    def take_checkpoint(self):
        checkpoint(self.enforcer, self.directory, self.wal, sync=False)

    @rule()
    def kill_and_recover(self):
        # A crash loses exactly what never reached the WAL: the staged
        # increment of a query in flight.
        self.wal.close()
        live = self.enforcer
        self.enforcer, self.wal, _ = recover_enforcer(
            self.directory, sync=False
        )
        if not self.in_query():
            assert self.enforcer.clock.now() == live.clock.now()
            for name in RELATIONS:
                recovered = self.store.table(name)
                assert recovered.tids() == live.store.table(name).tids()
                assert recovered.next_tid == live.store.table(name).next_tid
        self.end_query()

    # -- invariants ----------------------------------------------------------

    @invariant()
    def store_matches_model(self):
        for name in RELATIONS:
            persisted = self.persisted[name]
            visible = persisted + self.staged[name]
            table = self.store.table(name)
            assert self.store.persisted_rows(name) == [
                row for _, row in persisted
            ]
            assert self.store.disk_size(name) == len(persisted)
            assert self.store.staged_tids(name) == [
                tid for tid, _ in self.staged[name]
            ]
            assert table.tids() == [tid for tid, _ in visible]
            assert table.rows() == [row for _, row in visible]


LogStoreMachine.TestCase.settings = settings(
    max_examples=30,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestLogStoreMachine = LogStoreMachine.TestCase


# ---------------------------------------------------------------------------
# (b) an uncompacted commit never walks the persisted image
# ---------------------------------------------------------------------------


def test_commit_without_marks_does_no_per_row_work(monkeypatch):
    """NoOpt and deferred compaction commit with ``marks=None``; fig1's
    NoOpt curve is a growth curve only if that commit costs
    O(increment), so it may not touch the table's tids or rows."""
    store = LogStore(Database(), standard_registry())
    store.stage("users", [(uid,) for uid in range(50)], 1)
    store.commit(None)
    store.stage("users", [(7,)], 2)
    store.stage("schema", [("o", "t", "a", False)], 2)

    def forbidden(self, *args, **kwargs):
        raise AssertionError("commit(marks=None) walked the log table")

    for method in ("tids", "scan", "rows", "tid_positions", "row_for_tid"):
        monkeypatch.setattr(Table, method, forbidden)
    stats = store.commit(None, persist_relations=["users"])
    monkeypatch.undo()

    assert (stats.tuples_inserted, stats.tuples_deleted) == (1, 0)
    assert stats.tuples_discarded == 1
    assert store.disk_size("users") == 51
    assert store.persisted_rows("schema") == []


# ---------------------------------------------------------------------------
# (c) checkpoints in the previous manifest format; foreign log tables
# ---------------------------------------------------------------------------

RATE_POLICY = (
    "SELECT DISTINCT 'too fast' FROM users u, clock c "
    "WHERE u.uid = 1 AND u.ts > c.ts - 100 HAVING COUNT(*) > 3"
)
QUERY = "SELECT iid FROM items"


def items_database() -> Database:
    db = Database()
    db.load_table("items", ["iid"], [(1,), (2,)])
    return db


def rate_enforcer(**options) -> Enforcer:
    return Enforcer(
        items_database(),
        [Policy.from_sql("rate", RATE_POLICY)],
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(**options),
    )


def decisions(enforcer: Enforcer, count: int) -> list:
    return [
        (decision.allowed, decision.timestamp)
        for decision in (enforcer.submit(QUERY, uid=1) for _ in range(count))
    ]


class TestCheckpointFormat:
    @pytest.fixture
    def saved(self, tmp_path):
        live = rate_enforcer()
        assert decisions(live, 2) == [(True, 10), (True, 20)]
        save_enforcer_state(live, tmp_path)
        return live, tmp_path

    def test_manifest_no_longer_lists_persisted_tids(self, saved):
        _, directory = saved
        manifest = json.loads((directory / "manifest.json").read_text())
        assert "disk_tids" not in manifest

    def test_previous_format_restores_identically(self, saved):
        """Before the table became the image, the manifest repeated each
        log table's tids under ``disk_tids``; such a checkpoint still
        restores to equal tables, clock and decisions."""
        live, directory = saved
        path = directory / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["disk_tids"] = {
            name: list(live.store.table(name).tids())
            for name in live.registry.names()
        }
        path.write_text(json.dumps(manifest, indent=2))

        restored = restore_enforcer(directory)
        assert restored.clock.now() == live.clock.now()
        for name in live.registry.names():
            assert restored.store.table(name).tids() == (
                live.store.table(name).tids()
            )
            assert restored.store.persisted_rows(name) == (
                live.store.persisted_rows(name)
            )
            assert restored.store.table(name).next_tid == (
                live.store.table(name).next_tid
            )
        assert decisions(restored, 4) == decisions(live, 4)
        assert restored.log_sizes() == live.log_sizes()

    def test_log_table_with_foreign_columns_is_refused(self, saved):
        _, directory = saved
        path = directory / "__log_users.jsonl"
        header, *rows = path.read_text().splitlines()
        header = json.loads(header)
        assert header["columns"] == ["ts", "uid"]
        header["columns"] = ["ts", "who"]
        path.write_text("\n".join([json.dumps(header), *rows]) + "\n")
        with pytest.raises(StorageError, match="users"):
            restore_enforcer(directory)


# ---------------------------------------------------------------------------
# a catalog that already holds usage-log rows
# ---------------------------------------------------------------------------


class TestAdoptedCatalog:
    """Three ``users`` rows already in the catalog, threshold ``> 3``:
    the 4th and 5th queries in the window are denied, whichever way the
    policy is evaluated (regression: the incremental maintainer
    bootstrapped from an empty shadow copy and admitted both, and the
    adopted rows were never compacted)."""

    def check(self, adopt):
        first = rate_enforcer(incremental=False)
        assert decisions(first, 3) == [(True, 10), (True, 20), (True, 30)]
        outcomes = {}
        for incremental in (False, True):
            enforcer = adopt(first, incremental)
            store = enforcer.store
            assert store.disk_size("users") == store.live_size("users") == 3
            stream = [enforcer.submit(QUERY, uid=1) for _ in range(2)]
            assert store.disk_size("users") == store.live_size("users") == 3
            # 150 ms on, the adopted rows have left the 100 ms window: the
            # first marked commit compacts them away.
            enforcer.clock.seek(enforcer.clock.now() + 150)
            late = enforcer.submit(QUERY, uid=1)
            assert late.allowed
            assert store.persisted_rows("users") == [(late.timestamp, 1)]
            outcomes[incremental] = [d.allowed for d in stream]
        assert outcomes[True] == outcomes[False] == [False, False]

    def test_enforcer_over_a_catalog_with_log_rows(self):
        def adopt(first, incremental):
            return Enforcer(
                first.database.clone(),
                [Policy.from_sql("rate", RATE_POLICY)],
                clock=first.clock.clone(),
                options=EnforcerOptions.datalawyer(incremental=incremental),
            )

        self.check(adopt)

    def test_saved_and_reloaded_database(self, tmp_path):
        def adopt(first, incremental):
            directory = tmp_path / f"db-{incremental}"
            save_database(first.database, directory)
            return connect(
                database=load_database(directory),
                policies=[Policy.from_sql("rate", RATE_POLICY)],
                clock=first.clock.clone(),
                incremental=incremental,
            )

        self.check(adopt)


# ---------------------------------------------------------------------------
# (d) a served request is not retained
# ---------------------------------------------------------------------------


def test_a_served_request_retains_nothing():
    """One thread shard, tracing on, a time-independent policy (nothing
    persisted), one repeated query: the process must not grow per
    request (regression: every ``QueryMetrics`` and its span tree was
    appended to ``Enforcer.metrics_log`` forever, ≈ 3.5 KB a request)."""
    db = items_database()
    db.load_table("other", ["iid"], [(1,)])
    policy = Policy.from_sql(
        "no-joins",
        "SELECT DISTINCT 'no joins' FROM schema p1, schema p2 "
        "WHERE p1.ts = p2.ts AND p1.irid = 'items' AND p2.irid <> 'items'",
    )
    enforcer = Enforcer(
        db,
        [policy],
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(
            tracing=True, decision_cache=True
        ),
    )
    shard = Shard(0, enforcer, queue_depth=4)

    def serve(count):
        for _ in range(count):
            decision = shard.offer_query(QUERY, uid=3).result(timeout=10)
            assert decision.allowed and decision.span is not None
        del decision
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        after_300 = serve(300)
        after_600 = serve(300)
    finally:
        tracemalloc.stop()
        shard.drain(timeout=10)
    assert enforcer.store.total_live_size() == 0
    assert (after_600 - after_300) / 300 < 256
