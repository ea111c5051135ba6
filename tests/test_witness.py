"""Log compaction: witness-query generation and evaluation (§4.1.2)."""

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracle import assert_matches, evaluate

from repro.analysis import (
    analyze_structure,
    evaluate_witness_marks,
    partial_witness_probe,
    rewrite_time_independent,
    witness_queries,
)
from repro.core import Enforcer, EnforcerOptions, Policy
from repro.engine import Database, Engine
from repro.errors import ExecutionError
from repro.log import LogStore, SimulatedClock, standard_registry
from repro.sql import ast, parse_select, print_query
from repro.workloads import PolicyParams, make_all_policies, make_workload


@pytest.fixture
def registry():
    return standard_registry()


@pytest.fixture
def db():
    db = Database()
    db.load_table(
        "groups", ["uid", "gid"], [(1, "students"), (2, "students"), (3, "staff")]
    )
    return db


P2B_SQL = (
    "SELECT DISTINCT 'P2b violated' "
    "FROM users u, schema s, groups g, clock c "
    "WHERE u.ts = s.ts AND s.irid = 'patients' AND u.uid = g.uid "
    "AND g.gid = 'students' AND u.ts > c.ts - 1209600 "
    "HAVING COUNT(DISTINCT u.uid) > 10"
)

P1_SQL = (
    "SELECT DISTINCT 'no joins' FROM schema p1, schema p2 "
    "WHERE p1.ts = p2.ts AND p1.irid = 'navteq' AND p2.irid <> 'navteq'"
)


class TestGenerationShapes:
    def test_p2b_witnesses_cover_both_logs(self, registry, db):
        """Example 4.3: witnesses for Users and Schema, semi-joined on ts,
        restricted to students/patients, window moved to currenttime+1
        read from the witness's own clock atom."""
        witness = witness_queries(
            analyze_structure(parse_select(P2B_SQL), registry, db
        ))
        assert set(witness.per_relation) == {"users", "schema"}
        assert not witness.retain_all

        (users_witness,) = witness.per_relation["users"]
        text = print_query(users_witness)
        # The neighborhood join and database relation survive.
        assert "users u" in text and "schema s" in text and "groups g" in text
        # The policy's clock atom is gone; the witness's own comes first
        # and the window reads currenttime + 1 from it.
        assert "clock c" not in text
        assert users_witness.from_items[0] == ast.TableRef("clock", "now")
        assert "now.ts + 1 < u.ts" in text
        assert "__currenttime__" not in text
        # HAVING forced the full-query (Eq. 2) witness: plain DISTINCT.
        assert users_witness.distinct and not users_witness.distinct_on

    def test_p2b_witness_evaluates_to_window_contents(self, registry, db):
        store = LogStore(db, registry)
        engine = Engine(db)
        witness = witness_queries(
            analyze_structure(parse_select(P2B_SQL), registry, db
        ))

        # Student 1 touched patients at ts=100 (in window), staff 3 at 200,
        # student 2 touched OTHER table at 300.
        store.stage("users", [(1,)], 100)
        store.stage("schema", [("o", "patients", "pid", False)], 100)
        store.commit(None)
        store.stage("users", [(3,)], 200)
        store.stage("schema", [("o", "patients", "pid", False)], 200)
        store.commit(None)
        store.stage("users", [(2,)], 300)
        store.stage("schema", [("o", "other", "x", False)], 300)
        store.commit(None)

        store.set_time(400)
        marks = evaluate_witness_marks(witness, engine)
        users = db.table("users")
        retained_uids = {
            users.row_for_tid(tid)[1] for tid in marks["users"]
        }
        # Only student-1's patients-touching entry is needed in the future.
        assert retained_uids == {1}

    def test_window_expiry_prunes(self, registry, db):
        store = LogStore(db, registry)
        engine = Engine(db)
        witness = witness_queries(
            analyze_structure(parse_select(P2B_SQL), registry, db
        ))
        store.stage("users", [(1,)], 100)
        store.stage("schema", [("o", "patients", "pid", False)], 100)
        store.commit(None)
        # Far in the future: currenttime+1 - window > 100.
        store.set_time(100 + 1209600 + 5)
        marks = evaluate_witness_marks(witness, engine)
        assert marks["users"] == set()

    def test_time_independent_rewrite_yields_empty_witness(self, registry, db):
        """Example 4.4: P1_IND's witness retains nothing."""
        rewritten = rewrite_time_independent(
            analyze_structure(parse_select(P1_SQL), registry, db
        ))
        witness = witness_queries(analyze_structure(rewritten, registry, db))
        store = LogStore(db, registry)
        engine = Engine(db)
        store.set_time(50)
        store.stage(
            "schema",
            [("o", "navteq", "x", False), ("o", "other", "y", False)],
            50,
        )
        marks = evaluate_witness_marks(witness, engine)
        assert marks.get("schema", set()) == set()

    def test_self_join_produces_one_witness_per_occurrence(self, registry, db):
        witness = witness_queries(analyze_structure(parse_select(P1_SQL), registry, db))
        assert len(witness.per_relation["schema"]) == 2

    def test_boolean_policy_uses_distinct_on(self, registry, db):
        witness = witness_queries(analyze_structure(parse_select(P1_SQL), registry, db))
        for template in witness.per_relation["schema"]:
            assert template.distinct_on  # Eq. 3, keyed by join attributes
            on_names = {ref.name for ref in template.distinct_on}
            assert "ts" in on_names

    def test_boolean_policy_without_joins_limits_to_one(self, registry, db):
        select = parse_select(
            "SELECT DISTINCT 'e' FROM users u WHERE u.uid = 1"
        )
        witness = witness_queries(analyze_structure(select, registry, db))
        (template,) = witness.per_relation["users"]
        assert template.limit == 1

    def test_unsupported_clock_shape_retains_all(self, registry, db):
        select = parse_select(
            "SELECT DISTINCT 'e' FROM users u, clock c WHERE u.ts <> c.ts"
        )
        witness = witness_queries(analyze_structure(select, registry, db))
        assert witness.retain_all == {"users"}
        assert "users" not in witness.per_relation

    def test_retain_all_marks_every_tid(self, registry, db):
        select = parse_select(
            "SELECT DISTINCT 'e' FROM users u, clock c WHERE u.ts <> c.ts"
        )
        witness = witness_queries(analyze_structure(select, registry, db))
        store = LogStore(db, registry)
        engine = Engine(db)
        store.set_time(10)
        store.stage("users", [(1,), (2,)], 10)
        marks = evaluate_witness_marks(witness, engine)
        assert marks["users"] == set(db.table("users").tids())

    def test_subquery_compacted_as_full_query(self, registry, db):
        select = parse_select(
            "SELECT DISTINCT 'e' FROM "
            "(SELECT u.ts FROM users u WHERE u.uid = 1) x, schema s "
            "WHERE x.ts = s.ts"
        )
        witness = witness_queries(analyze_structure(select, registry, db))
        assert "users" in witness.per_relation
        (template,) = witness.per_relation["users"]
        # subquery treated as full query: DISTINCT u.*, not DISTINCT ON
        assert template.distinct and not template.distinct_on

    def test_no_log_relations_yields_empty_witness_set(self, registry, db):
        select = parse_select("SELECT DISTINCT 'e' FROM groups g")
        witness = witness_queries(analyze_structure(select, registry, db))
        assert not witness.per_relation and not witness.retain_all


class TestWitnessSoundness:
    """The compacted log decides policies exactly like the full log."""

    def _policy_fires(self, engine, select):
        return not engine.is_empty(select)

    @pytest.mark.parametrize("now", [400, 500, 1209700, 2500000])
    def test_verdict_preserved_after_compaction(self, registry, db, now):
        select = parse_select(P2B_SQL)
        witness = witness_queries(analyze_structure(select, registry, db))

        def fresh_store():
            database = db.clone()
            return database, LogStore(database, registry), Engine(database)

        # Build identical histories.
        history = [
            (100, 1, "patients"),
            (150, 2, "patients"),
            (200, 3, "patients"),
            (250, 1, "other"),
        ]
        full_db, full_store, full_engine = fresh_store()
        compact_db, compact_store, compact_engine = fresh_store()
        for ts, uid, irid in history:
            for store in (full_store, compact_store):
                store.stage("users", [(uid,)], ts)
                store.stage("schema", [("o", irid, "x", False)], ts)
                store.commit(None)

        compact_store.set_time(now)
        marks = evaluate_witness_marks(witness, compact_engine)
        compact_store.commit(marks, persist_relations=["users", "schema"])

        # At any future time ≥ now, both logs give the same verdict.
        for future in (now, now + 100, now + 1209600):
            full_store.set_time(future)
            compact_store.set_time(future)
            assert self._policy_fires(full_engine, select) == self._policy_fires(
                compact_engine, select
            )


class TestPreemptiveProbe:
    def test_probe_drops_missing_relations(self, registry, db):
        witness = witness_queries(
            analyze_structure(parse_select(P2B_SQL), registry, db
        ))
        (template,) = witness.per_relation["users"]
        probe = partial_witness_probe(template, {"users"}, registry)
        assert probe is not None
        text = print_query(probe)
        assert "schema" not in text
        assert probe.limit == 1

    def test_probe_none_when_nothing_missing(self, registry, db):
        witness = witness_queries(
            analyze_structure(parse_select(P2B_SQL), registry, db
        ))
        (template,) = witness.per_relation["users"]
        assert partial_witness_probe(template, {"users", "schema"}, registry) is None

    def test_probe_none_when_everything_missing(self, registry, db):
        # The second policy's witness keeps its own clock atom, which is
        # not a relation the probe could test.
        for sql in (
            "SELECT DISTINCT 'e' FROM users u WHERE u.uid = 1",
            "SELECT DISTINCT 'e' FROM users u, clock c "
            "WHERE u.uid = 1 AND u.ts > c.ts - 10",
        ):
            witness = witness_queries(
                analyze_structure(parse_select(sql), registry, db
            ))
            (template,) = witness.per_relation["users"]
            assert partial_witness_probe(template, set(), registry) is None

    def test_probe_emptiness_implies_witness_emptiness(self, registry, db):
        store = LogStore(db, registry)
        engine = Engine(db)
        witness = witness_queries(
            analyze_structure(parse_select(P2B_SQL), registry, db
        ))
        # users log has an entry for a non-student only
        store.set_time(10)
        store.stage("users", [(3,)], 10)
        (template,) = witness.per_relation["users"]
        probe = partial_witness_probe(template, {"users"}, registry)
        probe_empty = engine.is_empty(probe)
        # full witness (with schema generated empty) must also be empty
        assert engine.is_empty(template) or not probe_empty


def _inline_now(template: ast.Select, now: int) -> ast.Select:
    """``template`` with its clock atom dropped and ``<alias>.ts`` replaced
    by the literal ``now`` — the witness as Lemma 4.3 writes it."""
    atom = template.from_items[0]
    if not (isinstance(atom, ast.TableRef) and atom.name == "clock"):
        return template

    def replace(node: ast.Node):
        if isinstance(node, ast.ColumnRef) and node.table == atom.alias:
            return ast.Literal(now)
        return None

    unclocked = template.replace(from_items=template.from_items[1:])
    return ast.transform(unclocked, replace)


class TestClockAtom:
    """Witnesses read ``currenttime`` from the Clock relation."""

    @pytest.mark.parametrize(
        "sql, alias",
        [
            (
                "SELECT DISTINCT 'e' FROM users now, clock now1 "
                "WHERE now.uid = 1 AND now.ts > now1.ts - 10",
                "now2",
            ),
            (
                "SELECT DISTINCT 'e' FROM users u, clock "
                "WHERE u.uid = 1 AND u.ts > clock.ts - 10",
                "now",
            ),
            (
                "SELECT DISTINCT 'e' FROM users u, clock c, groups now "
                "WHERE u.uid = now.uid AND u.ts > c.ts - 10 "
                "HAVING COUNT(*) > 5",
                "now1",
            ),
        ],
        ids=["policy-binds-now", "bare-clock", "table-aliased-now"],
    )
    def test_alias_never_collides_with_the_policy(self, registry, db, sql, alias):
        witness = witness_queries(analyze_structure(parse_select(sql), registry, db))
        (template,) = witness.per_relation["users"]
        assert template.from_items[0] == ast.TableRef("clock", alias)
        assert ast.ColumnRef(alias, "ts") in list(template.walk())
        # It plans and windows like the policy: only ts 95 is in (100 - 10, …].
        store = LogStore(db, registry)
        store.stage("users", [(1,)], 1)
        store.stage("users", [(1,)], 95)
        store.commit(None)
        store.set_time(100)
        marks = evaluate_witness_marks(witness, Engine(db))
        users = db.table("users")
        assert {users.row_for_tid(tid)[0] for tid in marks["users"]} == {95}

    def test_only_window_limiting_templates_read_the_clock(self, registry, db):
        relaxing = parse_select(
            "SELECT DISTINCT 'e' FROM users u, clock c "
            "WHERE u.uid = 1 AND u.ts < c.ts - 10"
        )
        (template,) = witness_queries(
            analyze_structure(relaxing, registry, db)
        ).per_relation["users"]
        assert "clock" not in print_query(template)

    def test_stale_clock_refuses_to_compact(self):
        """An empty or stale Clock row would make every witness empty and
        the delete phase drop the live log: the check raises instead, and
        the persisted increments survive."""
        db = Database()
        db.load_table("t", ["a"], [(1,), (2,)])
        policy = Policy.from_sql(
            "cap",
            "SELECT DISTINCT 'cap' FROM users u, clock c "
            "WHERE u.uid = 1 AND u.ts > c.ts - 1000 HAVING COUNT(*) > 100",
        )
        enforcer = Enforcer(
            db,
            [policy],
            clock=SimulatedClock(default_step_ms=10),
            options=EnforcerOptions.datalawyer(),
        )
        for _ in range(3):
            assert enforcer.submit("SELECT a FROM t", uid=1).allowed
        users = db.table("users")
        kept = list(zip(users.tids(), users.rows()))
        assert len(kept) == 3
        evaluate_round = enforcer._round

        for corrupt in (
            lambda: db.table("clock").clear(),
            lambda: enforcer.store.set_time(enforcer.clock.now() + 10**6),
        ):
            def corrupted_round(*args):
                violations = evaluate_round(*args)
                corrupt()
                return violations

            enforcer._round = corrupted_round
            with pytest.raises(ExecutionError, match="clock relation"):
                enforcer.submit("SELECT a FROM t", uid=1)
            assert list(zip(users.tids(), users.rows())) == kept
        enforcer._round = evaluate_round
        assert enforcer.submit("SELECT a FROM t", uid=1).allowed
        assert len(users) == 4

    def test_planned_once_per_epoch_on_a_compacting_stream(
        self, mimic_db, tiny_mimic_config
    ):
        """After warm-up, a steady W1–W4 stream under P1–P6 with the
        service's options plans nothing: every witness, probe and policy
        check hits the engine's plan cache."""
        workload = make_workload(tiny_mimic_config)
        enforcer = Enforcer(
            mimic_db,
            make_all_policies(PolicyParams.for_config(tiny_mimic_config)),
            clock=SimulatedClock(default_step_ms=50),
            options=EnforcerOptions.datalawyer(
                decision_cache=True, incremental=True
            ),
        )
        cycle = [
            ("W1", 0), ("W1", 1), ("W2", 0), ("W2", 1), ("W1", 1),
            ("W3", 0), ("W3", 1), ("W4", 0), ("W4", 1), ("W2", 1),
        ]

        def run(rounds):
            decisions = [
                enforcer.submit(workload[name], uid=uid)
                for _ in range(rounds)
                for name, uid in cycle
            ]
            return sum(d.metrics.counts.get("tuples_deleted", 0) for d in decisions)

        run(3)
        engine = enforcer.engine
        misses, hits = engine.plan_cache_misses, engine.plan_cache_hits
        deleted = run(3)
        assert deleted > 0  # the stream compacts
        assert engine.plan_cache_hits > hits
        assert engine.plan_cache_misses == misses


#: Windowed policies over ``users``/``schema`` and ``groups``, one per
#: clock-predicate shape the witnesses keep or drop.
_WINDOWED = [
    P2B_SQL.replace("1209600", "60"),
    "SELECT DISTINCT 'e' FROM users u, schema s, clock c "
    "WHERE u.ts = s.ts AND s.irid = 'patients' AND c.ts <= u.ts + 40",
    "SELECT DISTINCT 'e' FROM users u, groups g, clock c "
    "WHERE u.uid = g.uid AND c.ts = u.ts + 30",
    "SELECT DISTINCT 'e' FROM users now, clock now1, schema s "
    "WHERE now.ts = s.ts AND now.ts + 50 >= now1.ts AND s.irid = 'other'",
    "SELECT DISTINCT 'e' FROM users u, schema s, clock c "
    "WHERE u.ts = s.ts AND u.ts > c.ts - 70 GROUP BY u.uid "
    "HAVING COUNT(*) > 1",
    "SELECT DISTINCT 'e' FROM users u, clock c WHERE u.ts < c.ts - 20",
]

_entries = st.lists(
    st.tuples(
        st.integers(0, 200),
        st.integers(1, 3),
        st.sampled_from(["patients", "other"]),
    ),
    max_size=12,
)


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(entries=_entries, ahead=st.integers(0, 120))
def test_clock_atom_marks_equal_the_inlined_literal(entries, ahead):
    """Soundness of the representation: every witness, run by the engine
    with ``now`` in the Clock relation, is an answer (rows and lineage,
    hence marks) the oracle admits for the same template with ``now``
    inlined as a literal."""
    registry = standard_registry()
    db = Database()
    db.load_table("groups", ["uid", "gid"], [(1, "students"), (2, "students")])
    store = LogStore(db, registry)
    for ts, uid, irid in sorted(entries):
        store.stage("users", [(uid,)], ts)
        store.stage("schema", [("o", irid, "x", False)], ts)
        store.commit(None)
    now = max((ts for ts, _, _ in entries), default=0) + ahead
    store.set_time(now)
    engine = Engine(db)
    for sql in _WINDOWED:
        witness = witness_queries(analyze_structure(parse_select(sql), registry, db))
        for relation, templates in witness.per_relation.items():
            for template in templates:
                result = engine.execute(template, lineage=True)
                without_clock = SimpleNamespace(
                    columns=result.columns,
                    rows=result.rows,
                    lineage=result.lineage,
                    lineages=[
                        frozenset(p for p in pairs if p[0] != "clock")
                        for pairs in result.lineages
                    ],
                )
                literal = _inline_now(template, now)
                assert_matches(without_clock, evaluate(literal, db), literal)
