"""Shared-subplan DAG execution: sharing is invisible to users.

Covers the :mod:`repro.engine.dag` executor end to end: memoization and
invalidation of :class:`SharedNode`, DAG construction over the
mimic P1-P6 set, EXPLAIN annotations, per-member metric attribution for
unified union groups, and a randomized equivalence property where
unified groups run shared, unshared and on the oracle with policies
added and removed mid-stream.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle_engines import oracle_enforcer

from repro.core import Enforcer, EnforcerOptions, Policy
from repro.engine import Database, Engine
from repro.engine.columnar import ColumnBatch
from repro.engine.dag import SharedNode
from repro.engine.explain import describe, explain_plan
from repro.engine.operators import Operator
from repro.log import SimulatedClock
from repro.workloads import (
    MimicConfig,
    PolicyParams,
    build_mimic_database,
    make_all_policies,
    make_workload,
)


# ---------------------------------------------------------------------------
# SharedNode: memoization, invalidation, replay
# ---------------------------------------------------------------------------


class CountingOp(Operator):
    """A table-reading leaf that counts its actual executions."""

    def __init__(self, table_name):
        self.table_name = table_name
        self.execs = 0

    def execute(self, database, lineage):
        self.execs += 1
        yield ColumnBatch.from_rows(database.table(self.table_name).rows())


@pytest.fixture
def shared_setup():
    db = Database()
    db.load_table("t", ["a"], [(1,), (2,)])
    engine = Engine(db)
    child = CountingOp("t")
    node = SharedNode(child, engine, frozenset({"t"}))
    return db, engine, child, node


def test_shared_node_memoizes_within_version(shared_setup):
    db, engine, child, node = shared_setup
    first = list(node.execute(db, False))
    again = list(node.execute(db, False))
    assert child.execs == 1
    assert [b.to_rows() for b in first] == [b.to_rows() for b in again]
    assert engine.dag_saved_execs == 1


def test_shared_node_invalidates_on_table_mutation(shared_setup):
    db, engine, child, node = shared_setup
    list(node.execute(db, False))
    db.table("t").insert((3,))
    list(node.execute(db, False))
    assert child.execs == 2


def test_second_consumer_replays_the_columnar_memo(shared_setup):
    """Row-wise consumers (nested loops, outer joins) pull a shared
    child through ``_rows``: they replay the memo the batch consumer
    filled instead of executing the subtree a second time."""
    db, engine, child, node = shared_setup
    columnar = list(node.execute(db, False))
    rows = list(node._rows(db))
    assert child.execs == 1
    assert rows == [row for cb in columnar for row in cb.to_rows()]
    assert engine.dag_saved_execs == 1

    # And the other way round after an invalidating mutation.
    db.table("t").insert((3,))
    assert list(node._rows(db)) == [(1,), (2,), (3,)]
    assert child.execs == 2
    rebuilt = list(node.execute(db, False))
    assert child.execs == 2
    assert [row for cb in rebuilt for row in cb.to_rows()] == [
        (1,),
        (2,),
        (3,),
    ]


def test_shared_node_explain_annotation(shared_setup):
    _, _, _, node = shared_setup
    node.consumers = 3
    assert describe(node).endswith("[shared=3]")


# ---------------------------------------------------------------------------
# End to end over the mimic P1-P6 set
# ---------------------------------------------------------------------------


#: The lane ``bench_policy_dag`` times (every policy one after-the-walk
#: checkpoint) and the product defaults (``repro serve``: staged partial
#: chains, where sharing spans stages as well as policies).
MIMIC_LANES = {
    "direct": EnforcerOptions.noopt(plan_sharing=True),
    "defaults": EnforcerOptions.datalawyer(),
}


def make_mimic_enforcer(options=MIMIC_LANES["direct"]):
    config = MimicConfig(n_patients=20)
    return (
        Enforcer(
            build_mimic_database(config),
            make_all_policies(PolicyParams.for_config(config)),
            clock=SimulatedClock(default_step_ms=10),
            options=options,
        ),
        make_workload(config),
    )


@pytest.mark.parametrize("lane", sorted(MIMIC_LANES))
def test_dag_merges_mimic_subplans_and_replays_memos(lane):
    enforcer, workload = make_mimic_enforcer(MIMIC_LANES[lane])
    enforcer.submit(workload["W1"], uid=1)
    # P1-P6 share the clock scan, the restricted-user index scan, the
    # users-provenance join, and the windowed nested loop.
    assert enforcer.engine.dag_shared_nodes >= 3
    saved = enforcer.engine.dag_saved_execs
    assert saved > 0
    enforcer.submit(workload["W1"], uid=2)
    assert enforcer.engine.dag_saved_execs > saved
    plans = "\n".join(
        explain_plan(root, []) for root in enforcer._dag.roots.values()
    )
    assert "[shared=" in plans


def test_staged_round_generates_increments_lazily():
    """P2-P6 are pruned at the ``users`` stage for an unrestricted uid,
    so nothing later in the walk is generated — the staged checkpoints
    keep Algorithm 3's laziness while sharing one evaluator."""
    enforcer, workload = make_mimic_enforcer(MIMIC_LANES["defaults"])
    decision = enforcer.submit(workload["W1"], uid=0)
    assert decision.allowed
    generated = {k for k in decision.metrics.seconds if k.startswith("log:")}
    assert generated == {"log:users"}
    assert enforcer.store.staged_relations() == []
    assert len(enforcer.database.table("provenance")) == 0


def test_invalidate_plans_drops_memoized_dag_nodes():
    enforcer, workload = make_mimic_enforcer()
    enforcer.submit(workload["W1"], uid=1)
    dag = enforcer._dag
    assert any(node._memo for node in dag.nodes.values())

    enforcer.engine.invalidate_plans()
    assert enforcer.engine.plan_epoch > dag.epoch
    assert enforcer.engine.dag_shared_nodes == 0
    enforcer.submit(workload["W1"], uid=2)
    # A stale epoch rebuilds the DAG from scratch: fresh SharedNodes,
    # no memo carried over from before the invalidation.
    assert enforcer._dag is not dag
    assert enforcer.engine.dag_shared_nodes == len(enforcer._dag.nodes)


def test_policy_add_remove_retires_the_dag():
    enforcer, workload = make_mimic_enforcer()
    enforcer.submit(workload["W1"], uid=1)
    before = enforcer._dag
    enforcer.add_policy(
        Policy.from_sql(
            "P7",
            "SELECT DISTINCT 'P7 violated' FROM users u "
            "WHERE u.uid = 9 HAVING COUNT(DISTINCT u.ts) > 100000",
        )
    )
    assert enforcer.engine.plan_epoch > before.epoch
    enforcer.submit(workload["W1"], uid=1)
    with_p7 = enforcer._dag
    assert with_p7 is not before
    assert len(with_p7.roots) == len(before.roots) + 1
    enforcer.remove_policy("P7")
    enforcer.submit(workload["W1"], uid=1)
    assert len(enforcer._dag.roots) == len(before.roots)


# ---------------------------------------------------------------------------
# Per-member attribution for unified union groups (regression)
# ---------------------------------------------------------------------------

GROUP_POLICIES = [
    Policy.from_sql(
        "g1-limit",
        "SELECT DISTINCT 'g1 limit' FROM users u, memberships m "
        "WHERE u.uid = m.uid AND m.grp = 'g1' HAVING COUNT(DISTINCT u.ts) > 2",
    ),
    Policy.from_sql(
        "g2-limit",
        "SELECT DISTINCT 'g2 limit' FROM users u, memberships m "
        "WHERE u.uid = m.uid AND m.grp = 'g2' HAVING COUNT(DISTINCT u.ts) > 2",
    ),
]


def make_unified_enforcer():
    db = Database()
    db.load_table("items", ["iid"], [(1,), (2,)])
    db.load_table(
        "memberships", ["uid", "grp"], [(1, "g1"), (2, "g2"), (3, "g1")]
    )
    enforcer = Enforcer(
        db,
        list(GROUP_POLICIES),
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(
            interleaved=False, eval_strategy="union", plan_sharing=True
        ),
    )
    # The two template instances must actually have been unified.
    assert any("+" in runtime.name for runtime in enforcer._runtime)
    return enforcer


def span_names(root):
    names = []
    stack = [root]
    while stack:
        span = stack.pop()
        names.append(span.name)
        stack.extend(span.children)
    return names


def test_unified_group_latency_split_across_members():
    enforcer = make_unified_enforcer()
    decision = enforcer.submit("SELECT * FROM items", uid=1)
    names = span_names(decision.span)
    # Eval latency lands on the member policies, never the joined name.
    assert "policy:g1-limit" in names
    assert "policy:g2-limit" in names
    assert not any("+" in name for name in names if name.startswith("policy:"))
    # And the time was actually accounted.
    assert decision.metrics.seconds["policy_eval"] > 0


def test_unified_group_firing_names_the_member():
    enforcer = make_unified_enforcer()
    decision = None
    for _ in range(4):
        decision = enforcer.submit("SELECT * FROM items", uid=1)
    assert decision is not None and not decision.allowed
    assert [v.policy_name for v in decision.violations] == ["g1-limit"]
    assert "g1" in decision.violations[0].message


# ---------------------------------------------------------------------------
# Equivalence property: unification x columnar x mid-stream add/remove
# ---------------------------------------------------------------------------

QUERIES = [
    "SELECT * FROM items",
    "SELECT iid FROM items WHERE iid = 1",
    "SELECT COUNT(*) FROM items",
]

EXTRA_POLICIES = [
    Policy.from_sql(
        "g3-limit",
        "SELECT DISTINCT 'g3 limit' FROM users u, memberships m "
        "WHERE u.uid = m.uid AND m.grp = 'g3' HAVING COUNT(DISTINCT u.ts) > 2",
    ),
    Policy.from_sql(
        "items-cap",
        "SELECT DISTINCT 'too much items' FROM provenance p "
        "WHERE p.irid = 'items' GROUP BY p.ts "
        "HAVING COUNT(DISTINCT p.otid) > 1",
    ),
]

LANES = {
    "shared": EnforcerOptions.datalawyer(
        interleaved=False,
        eval_strategy="union",
        plan_sharing=True,
    ),
    "unshared": EnforcerOptions.datalawyer(
        interleaved=False,
        eval_strategy="union",
        plan_sharing=False,
    ),
    #: Eq. (1) on the oracle (see :func:`oracle_engines.oracle_enforcer`).
    "oracle": None,
}


def build_property_db():
    db = Database()
    db.load_table("items", ["iid"], [(1,), (2,), (3,)])
    db.load_table(
        "memberships",
        ["uid", "grp"],
        [(1, "g1"), (2, "g2"), (3, "g1"), (3, "g3")],
    )
    return db


def run_lane(options, events):
    make = oracle_enforcer if options is None else Enforcer
    enforcer = make(
        build_property_db(),
        list(GROUP_POLICIES),
        clock=SimulatedClock(default_step_ms=10),
        **({} if options is None else {"options": options}),
    )
    added: list[str] = []
    decisions = []
    for event in events:
        if event[0] == "query":
            _, query_index, uid = event
            decision = enforcer.submit(
                QUERIES[query_index], uid=uid, execute=True
            )
            decisions.append(decision.allowed)
        elif event[0] == "add":
            _, policy_index = event
            policy = EXTRA_POLICIES[policy_index]
            if policy.name not in added:
                enforcer.add_policy(policy)
                added.append(policy.name)
        elif event[0] == "remove" and added:
            enforcer.remove_policy(added.pop())
    state = tuple(
        (name, tuple(enforcer.database.table(name).scan()))
        for name in ("users", "provenance", "schema")
    )
    return decisions, state


event_strategy = st.one_of(
    st.tuples(
        st.just("query"),
        st.integers(min_value=0, max_value=len(QUERIES) - 1),
        st.integers(min_value=1, max_value=3),
    ),
    st.tuples(
        st.just("add"),
        st.integers(min_value=0, max_value=len(EXTRA_POLICIES) - 1),
    ),
    st.tuples(st.just("remove")),
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(events=st.lists(event_strategy, min_size=4, max_size=16))
def test_sharing_invisible_under_add_remove(events):
    shared_decisions, shared_state = run_lane(LANES["shared"], events)
    unshared_decisions, unshared_state = run_lane(LANES["unshared"], events)
    oracle_decisions, _ = run_lane(LANES["oracle"], events)
    assert shared_decisions == unshared_decisions == oracle_decisions
    # Identical options except sharing -> identical usage-log state.
    assert shared_state == unshared_state
