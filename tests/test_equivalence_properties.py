"""Randomized end-to-end equivalence: every optimization preserves the
accept/reject decision of the naive semantics (Eq. 1) on random query
streams.

This is the repo's strongest correctness check: log compaction,
time-independence, interleaving, unification, preemptive compaction and
improved partial policies must all be invisible to users.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle_engines import oracle_enforcer

from repro.core import Enforcer, EnforcerOptions, Policy
from repro.engine import Database
from repro.log import SimulatedClock

# -- a tiny domain the strategies draw from ---------------------------------

TABLES = ("alpha", "beta")
QUERIES = [
    "SELECT * FROM alpha",
    "SELECT a FROM alpha WHERE a = 1",
    "SELECT b FROM alpha WHERE a > 1",
    "SELECT * FROM beta",
    "SELECT alpha.a FROM alpha, beta WHERE alpha.a = beta.a",
    "SELECT a, COUNT(*) FROM alpha GROUP BY a",
    "SELECT COUNT(*) FROM beta WHERE a < 3",
]

POLICY_POOL = [
    # join prohibition (time-independent)
    "SELECT DISTINCT 'no joins with beta' FROM schema s1, schema s2 "
    "WHERE s1.ts = s2.ts AND s1.irid = 'alpha' AND s2.irid = 'beta'",
    # windowed rate limit (monotone, time-dependent)
    "SELECT DISTINCT 'rate limited' FROM users u, clock c "
    "WHERE u.uid = 1 AND u.ts > c.ts - 40 HAVING COUNT(DISTINCT u.ts) > 2",
    # output cap via provenance (time-independent, grouped)
    "SELECT DISTINCT 'too much alpha' FROM provenance p "
    "WHERE p.irid = 'alpha' GROUP BY p.ts "
    "HAVING COUNT(DISTINCT p.otid) > 3",
    # minimum support (non-monotone, grouped)
    "SELECT DISTINCT 'support too small' FROM users u, provenance p "
    "WHERE u.ts = p.ts AND u.uid = 2 AND p.irid = 'alpha' "
    "GROUP BY p.ts, p.otid HAVING COUNT(DISTINCT p.itid) <= 1",
    # windowed distinct-tuple cap (monotone, time-dependent)
    "SELECT DISTINCT 'tuple budget exceeded' FROM users u, provenance p, clock c "
    "WHERE u.ts = p.ts AND u.uid = 1 AND p.irid = 'alpha' "
    "AND p.ts > c.ts - 60 HAVING COUNT(DISTINCT p.itid) > 4",
    # per-group rate limit, unifiable template instance 1
    "SELECT DISTINCT 'g1 limit' FROM users u, memberships m "
    "WHERE u.uid = m.uid AND m.grp = 'g1' HAVING COUNT(DISTINCT u.ts) > 4",
    # per-group rate limit, unifiable template instance 2
    "SELECT DISTINCT 'g2 limit' FROM users u, memberships m "
    "WHERE u.uid = m.uid AND m.grp = 'g2' HAVING COUNT(DISTINCT u.ts) > 4",
]

#: The reference every config is held to: Eq. (1) evaluated naively, one
#: unshared statement per policy, so violations carry policy names.
BASELINE = EnforcerOptions.noopt(eval_strategy="serial")

CONFIGS = {
    "datalawyer": EnforcerOptions.datalawyer(),
    "literal-union": EnforcerOptions.noopt(),
    # staged x shared is "datalawyer"; the other three corners of
    # {staged, direct} x {shared, unshared} follow.
    "direct-shared": EnforcerOptions.datalawyer(
        interleaved=False, eval_strategy="union"
    ),
    "staged-unshared": EnforcerOptions.datalawyer(plan_sharing=False),
    "direct-unshared": EnforcerOptions.datalawyer(
        interleaved=False, eval_strategy="serial"
    ),
    "no-compaction": EnforcerOptions.datalawyer(log_compaction=False),
    "no-ti": EnforcerOptions.datalawyer(time_independent=False),
    "no-unification": EnforcerOptions.datalawyer(unification=False),
    "no-preemptive": EnforcerOptions.datalawyer(preemptive_compaction=False),
    "improved-partial": EnforcerOptions.datalawyer(improved_partial=True),
    "everything-off-but-compaction": EnforcerOptions.noopt(log_compaction=True),
    # The baseline held to Eq. (1) itself: the oracle answers every
    # policy check and lineage execution (see oracle_engines.oracle_enforcer).
    "oracle-noopt": None,
}


def build_db() -> Database:
    db = Database()
    db.load_table("alpha", ["a", "b"], [(1, "x"), (2, "y"), (3, "z"), (4, "w")])
    db.load_table("beta", ["a", "c"], [(1, 10), (3, 30)])
    db.load_table(
        "memberships", ["uid", "grp"], [(1, "g1"), (2, "g2"), (3, "g1")]
    )
    return db


def run_config(options, policy_indexes, stream):
    policies = [
        Policy.from_sql(f"pol{i}", POLICY_POOL[i]) for i in policy_indexes
    ]
    clock = SimulatedClock(default_step_ms=10)
    if options is None:
        enforcer = oracle_enforcer(build_db(), policies, clock=clock)
    else:
        enforcer = Enforcer(build_db(), policies, clock=clock, options=options)
    decisions = []
    violated = []
    for query_index, uid in stream:
        decision = enforcer.submit(QUERIES[query_index], uid=uid, execute=False)
        decisions.append(decision.allowed)
        violated.append({v.policy_name for v in decision.violations})
    return decisions, violated


def is_literal_union(options) -> bool:
    """The configurations whose violations are all named ``policy-set``
    (the oracle's included): a UNION statement cannot say which branch
    fired."""
    return options is None or (
        not options.interleaved
        and options.eval_strategy == "union"
        and not options.plan_sharing
    )


stream_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(QUERIES) - 1),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=4,
    max_size=14,
)
policy_set_strategy = st.sets(
    st.integers(min_value=0, max_value=len(POLICY_POOL) - 1),
    min_size=1,
    max_size=4,
)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(policy_indexes=policy_set_strategy, stream=stream_strategy)
def test_optimizations_preserve_decisions(config_name, policy_indexes, stream):
    options = CONFIGS[config_name]
    decisions, violated = run_config(BASELINE, sorted(policy_indexes), stream)
    optimized, optimized_violated = run_config(
        options, sorted(policy_indexes), stream
    )
    assert optimized == decisions
    # Violation reporting is one rule: every violated policy is named,
    # whichever checkpoints and whichever DAG decided it.
    if not is_literal_union(options):
        assert optimized_violated == violated


@settings(max_examples=10, deadline=None)
@given(stream=stream_strategy)
def test_log_contents_equivalent_for_policy_checking(stream):
    """After any stream, the compacted and full logs agree on every policy
    verdict at the current time (compaction soundness, Def. 4.1)."""
    policy_indexes = [1, 4]  # the windowed, compactable policies
    policies = [
        Policy.from_sql(f"pol{i}", POLICY_POOL[i]) for i in policy_indexes
    ]

    def make(options):
        return Enforcer(
            build_db(),
            policies,
            clock=SimulatedClock(default_step_ms=10),
            options=options,
        )

    compacted = make(EnforcerOptions.datalawyer())
    full = make(EnforcerOptions.noopt())
    for query_index, uid in stream:
        compacted.submit(QUERIES[query_index], uid=uid, execute=False)
        full.submit(QUERIES[query_index], uid=uid, execute=False)

    # Evaluate every policy directly over both logs at the same clock.
    now = compacted.clock.now()
    full.store.set_time(now)
    compacted.store.set_time(now)
    for policy in policies:
        verdict_full = full.engine.is_empty(policy.select)
        verdict_compact = compacted.engine.is_empty(policy.select)
        assert verdict_full == verdict_compact


@settings(max_examples=10, deadline=None)
@given(stream=stream_strategy)
def test_compacted_log_is_subset_of_full_log(stream):
    """Compaction only ever removes tuples (rows, ignoring tids)."""
    policies = [Policy.from_sql("pol1", POLICY_POOL[1])]

    def make(options):
        return Enforcer(
            build_db(),
            policies,
            clock=SimulatedClock(default_step_ms=10),
            options=options,
        )

    compacted = make(EnforcerOptions.datalawyer())
    full = make(EnforcerOptions.noopt())
    for query_index, uid in stream:
        compacted.submit(QUERIES[query_index], uid=uid, execute=False)
        full.submit(QUERIES[query_index], uid=uid, execute=False)

    for relation in ("users",):
        compact_rows = list(compacted.database.table(relation).rows())
        full_rows = list(full.database.table(relation).rows())
        for row in compact_rows:
            assert row in full_rows
        assert len(compact_rows) <= len(full_rows)
