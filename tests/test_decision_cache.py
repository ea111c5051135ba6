"""The cross-query decision cache: offline profiling, the LRU itself,
enforcer integration (hits, epoch/version invalidation, recovery), the
canonical-form plan cache, and a cached-vs-uncached equivalence property.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_structure
from repro.core import Enforcer, EnforcerOptions, Policy
from repro.core.decision_cache import (
    CachePolicyProfile,
    CheckCachePlan,
    DecisionCache,
    merge_profiles,
    profile_policy,
    touches_log_state,
)
from repro.engine import Database, Engine
from repro.errors import ReproError
from repro.log import SimulatedClock, standard_registry
from repro.sql import canonical_sql, parse
from repro.storage.wal import initialize_durability, recover_enforcer
from repro.workloads import (
    MimicConfig,
    PolicyParams,
    build_mimic_database,
    make_policy,
    make_workload,
)

DENY_UID9_SQL = (
    "SELECT DISTINCT 'uid 9 blocked' FROM users u WHERE u.uid = 9"
)


def make_items_db() -> Database:
    db = Database()
    db.load_table("items", ["iid"], [(1,), (2,), (3,)])
    return db


def deny_uid9() -> Policy:
    return Policy.from_sql("deny-9", DENY_UID9_SQL, "uid 9 may not query")


def cached_enforcer(db=None, policies=None, **overrides) -> Enforcer:
    return Enforcer(
        db if db is not None else make_items_db(),
        policies if policies is not None else [deny_uid9()],
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(decision_cache=True, **overrides),
    )


# ---------------------------------------------------------------------------
# Offline profiling
# ---------------------------------------------------------------------------


class TestProfilePolicy:
    @pytest.fixture
    def registry(self):
        return standard_registry()

    def profile(self, sql, registry, stable, database=None):
        return profile_policy(
            analyze_structure(parse(sql), registry, database),
            database,
            stable=stable,
        )

    def test_time_independent_policy_is_stable(self, registry):
        profile = self.profile(DENY_UID9_SQL, registry, stable=True)
        assert profile.kind == "stable"

    def test_time_dependent_shift_safe_policy_is_versioned(self, registry):
        profile = self.profile(DENY_UID9_SQL, registry, stable=False)
        assert profile.kind == "versioned"
        assert profile.relations == frozenset({"users"})

    def test_bare_ts_comparison_is_shift_safe(self, registry):
        profile = self.profile(
            "SELECT DISTINCT 'dup' FROM users u1, users u2 "
            "WHERE u1.ts = u2.ts AND u1.uid <> u2.uid",
            registry,
            stable=False,
        )
        assert profile.kind == "versioned"

    def test_clock_reference_uncacheable_when_time_dependent(self, registry):
        profile = self.profile(
            "SELECT DISTINCT 'fast' FROM users u, clock c "
            "WHERE u.ts = c.ts",
            registry,
            stable=False,
        )
        assert profile.kind == "uncacheable"
        assert "clock" in profile.reason

    def test_clock_reference_fine_once_rewritten_stable(self, registry):
        profile = self.profile(
            "SELECT DISTINCT 'fast' FROM users u, clock c "
            "WHERE u.ts = c.ts",
            registry,
            stable=True,
        )
        assert profile.kind == "stable"

    def test_ts_vs_literal_sets_storability_bound(self, registry):
        profile = self.profile(
            "SELECT DISTINCT 'old' FROM users u WHERE u.ts > 100",
            registry,
            stable=True,
        )
        assert profile.kind == "stable"
        assert profile.min_ts_bound == 100.0

    def test_ts_arithmetic_is_uncacheable(self, registry):
        profile = self.profile(
            "SELECT DISTINCT 'x' FROM users u WHERE u.ts + 1 > 100",
            registry,
            stable=True,
        )
        assert profile.kind == "uncacheable"

    def test_non_timestamp_alias_named_ts_is_uncacheable(self, registry):
        profile = self.profile(
            "SELECT u.uid AS ts FROM users u",
            registry,
            stable=True,
        )
        assert profile.kind == "uncacheable"

    def test_base_table_with_ts_column_is_uncacheable(self, registry):
        db = Database()
        db.load_table("events", ["id", "ts"], [(1, 5)])
        profile = self.profile(
            "SELECT DISTINCT 'x' FROM events e WHERE e.id = 1",
            registry,
            stable=True,
            database=db,
        )
        assert profile.kind == "uncacheable"
        assert "events" in profile.reason

    def test_merge_requires_every_policy_cacheable(self):
        stable = CachePolicyProfile(kind="stable")
        bad = CachePolicyProfile(kind="uncacheable", reason="why")
        assert merge_profiles([stable, bad]) is None
        assert merge_profiles([stable, None]) is None

    def test_merge_unions_relations_and_maxes_bound(self):
        a = CachePolicyProfile(
            kind="versioned",
            relations=frozenset({"users"}),
            min_ts_bound=10.0,
        )
        b = CachePolicyProfile(
            kind="versioned",
            relations=frozenset({"provenance"}),
            min_ts_bound=50.0,
        )
        plan = merge_profiles([a, b])
        assert plan == CheckCachePlan(
            relations=frozenset({"users", "provenance"}), min_ts_bound=50.0
        )
        assert not plan.storable_at(50)
        assert plan.storable_at(51)

    def test_touches_log_state(self, registry):
        assert touches_log_state(parse("SELECT uid FROM users"), registry)
        assert touches_log_state(parse("SELECT now FROM clock"), registry)
        assert not touches_log_state(
            parse("SELECT iid FROM items"), registry
        )


# ---------------------------------------------------------------------------
# The LRU itself
# ---------------------------------------------------------------------------


class _FakeStore:
    def __init__(self, versions=None):
        self.versions = dict(versions or {})

    def version(self, name):
        return self.versions.get(name, 0)


class TestDecisionCacheUnit:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DecisionCache(capacity=0)

    def test_key_ignores_sql_formatting(self):
        a = DecisionCache.key_for("SELECT iid FROM items", 1, None)
        b = DecisionCache.key_for("select   iid\nfrom ITEMS", 1, None)
        assert a == b

    def test_key_distinguishes_uid_and_literals(self):
        base = DecisionCache.key_for("SELECT iid FROM items", 1, None)
        assert DecisionCache.key_for("SELECT iid FROM items", 2, None) != base
        assert (
            DecisionCache.key_for("SELECT iid FROM items WHERE iid = 1", 1, None)
            != base
        )

    def test_key_attributes_order_insensitive_type_sensitive(self):
        a = DecisionCache.key_for("SELECT 1", 1, {"x": 1, "y": 2})
        b = DecisionCache.key_for("SELECT 1", 1, {"y": 2, "x": 1})
        c = DecisionCache.key_for("SELECT 1", 1, {"x": "1", "y": 2})
        assert a == b
        assert a != c

    def test_unlexable_sql_has_no_key(self):
        assert DecisionCache.key_for("SELECT \0", 1, None) is None

    def test_store_then_hit(self):
        cache = DecisionCache()
        store = _FakeStore({"users": 3})
        key = cache.key_for("SELECT 1", 1, None)
        assert cache.lookup(key, store) is None
        cache.store(key, [], ("users",), {"users": 3})
        entry = cache.lookup(key, store)
        assert entry is not None
        assert entry.generated == ("users",)
        assert cache.stats.as_dict() == {
            "hits": 1,
            "misses": 1,
            "invalidations": 0,
            "stores": 1,
            "evictions": 0,
            "entries": 1,
        }

    def test_version_bump_invalidates(self):
        cache = DecisionCache()
        store = _FakeStore({"users": 3})
        key = cache.key_for("SELECT 1", 1, None)
        cache.store(key, [], (), {"users": 3})
        store.versions["users"] = 4
        assert cache.lookup(key, store) is None
        assert cache.stats.invalidations == 1
        assert cache.stats.misses == 1
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = DecisionCache(capacity=2)
        store = _FakeStore()
        keys = [cache.key_for(f"SELECT {i}", 1, None) for i in range(3)]
        for key in keys[:2]:
            cache.store(key, [], (), {})
        assert cache.lookup(keys[0], store) is not None  # now most recent
        cache.store(keys[2], [], (), {})  # evicts keys[1]
        assert cache.stats.evictions == 1
        assert cache.lookup(keys[1], store) is None
        assert cache.lookup(keys[0], store) is not None

    def test_clear_counts_invalidations(self):
        cache = DecisionCache()
        cache.store(cache.key_for("SELECT 1", 1, None), [], (), {})
        cache.store(cache.key_for("SELECT 2", 1, None), [], (), {})
        cache.clear()
        assert cache.stats.invalidations == 2
        assert cache.stats.entries == 0


# ---------------------------------------------------------------------------
# Enforcer integration
# ---------------------------------------------------------------------------


class TestEnforcerIntegration:
    QUERY = "SELECT iid FROM items"

    def test_disabled_by_default(self):
        enforcer = Enforcer(
            make_items_db(),
            [deny_uid9()],
            clock=SimulatedClock(default_step_ms=10),
            options=EnforcerOptions.datalawyer(),
        )
        enforcer.submit(self.QUERY, uid=1)
        enforcer.submit(self.QUERY, uid=1)
        assert enforcer.decision_cache is None

    def test_repeat_query_hits(self):
        enforcer = cached_enforcer()
        first = enforcer.submit(self.QUERY, uid=1)
        second = enforcer.submit(self.QUERY, uid=1)
        cache = enforcer.decision_cache
        assert cache is not None
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert first.allowed and second.allowed
        assert first.result.rows == second.result.rows

    def test_textual_variants_share_one_entry(self):
        enforcer = cached_enforcer()
        enforcer.submit(self.QUERY, uid=1)
        enforcer.submit("select   iid  from items", uid=1)
        assert enforcer.decision_cache.stats.hits == 1

    def test_denials_are_cached_and_identical(self):
        enforcer = cached_enforcer()
        first = enforcer.submit(self.QUERY, uid=9)
        second = enforcer.submit(self.QUERY, uid=9)
        assert not first.allowed and not second.allowed
        assert [(v.policy_name, v.message) for v in first.violations] == [
            (v.policy_name, v.message) for v in second.violations
        ]
        assert enforcer.decision_cache.stats.hits == 1

    def test_uid_and_attributes_partition_the_key(self):
        enforcer = cached_enforcer()
        enforcer.submit(self.QUERY, uid=1)
        enforcer.submit(self.QUERY, uid=2)
        enforcer.submit(self.QUERY, uid=1, attributes={"purpose": "qa"})
        assert enforcer.decision_cache.stats.hits == 0
        assert enforcer.decision_cache.stats.misses == 3

    def test_policy_change_clears_the_cache(self):
        enforcer = cached_enforcer()
        enforcer.submit(self.QUERY, uid=1)
        enforcer.submit(self.QUERY, uid=1)
        cache = enforcer.decision_cache
        assert len(cache) == 1
        enforcer.add_policy(
            Policy.from_sql(
                "deny-8", "SELECT DISTINCT 'no' FROM users u WHERE u.uid = 8"
            )
        )
        assert len(cache) == 0
        assert cache.stats.invalidations >= 1
        enforcer.submit(self.QUERY, uid=1)
        assert cache.stats.hits == 1  # unchanged: that submit was a miss
        enforcer.remove_policy("deny-8")
        assert len(cache) == 0

    def test_readded_policy_with_new_contract_sees_no_stale_state(self):
        # Regression guard for the policy add/remove lifecycle: a verdict
        # cached under an old "deny-9" must not survive removing it and
        # re-adding a *different* policy under the same name, and the
        # cache plan (profiles) must be the new set's, not the old one's.
        enforcer = cached_enforcer()
        first = enforcer.submit(self.QUERY, uid=5)
        assert first.allowed
        cache = enforcer.decision_cache
        assert len(cache) == 1

        enforcer.remove_policy("deny-9")
        enforcer.add_policy(
            Policy.from_sql(
                "deny-9",
                "SELECT DISTINCT 'no' FROM users u WHERE u.uid = 5",
                "uid 5 may not query",
            )
        )
        assert len(cache) == 0  # _prepare cleared the stale verdicts
        denied = enforcer.submit(self.QUERY, uid=5)
        assert not denied.allowed
        assert cache.stats.hits == 0

        # Swap again, to a policy whose profile is uncacheable: if the
        # old per-policy profile leaked through _prepare, verdicts would
        # still be stored under the stale plan.
        enforcer.remove_policy("deny-9")
        enforcer.add_policy(
            Policy.from_sql(
                "deny-9",
                "SELECT DISTINCT 'too fast' FROM users u, clock c "
                "WHERE u.uid = 5 AND u.ts > c.ts - 100 "
                "HAVING COUNT(DISTINCT u.ts) > 3",
            )
        )
        enforcer.submit(self.QUERY, uid=5)
        enforcer.submit(self.QUERY, uid=5)
        assert cache.stats.hits == 0
        assert len(cache) == 0

    def test_uncacheable_policy_disables_storing(self):
        rate = Policy.from_sql(
            "rate",
            "SELECT DISTINCT 'too fast' FROM users u, clock c "
            "WHERE u.uid = 7 AND u.ts > c.ts - 100 "
            "HAVING COUNT(DISTINCT u.ts) > 3",
        )
        enforcer = cached_enforcer(policies=[deny_uid9(), rate])
        enforcer.submit(self.QUERY, uid=1)
        enforcer.submit(self.QUERY, uid=1)
        cache = enforcer.decision_cache
        assert cache.stats.hits == 0
        assert len(cache) == 0

    RATE_SQL = (
        "SELECT DISTINCT 'too fast' FROM users u, clock c "
        "WHERE u.uid = 7 AND u.ts > c.ts - 100 "
        "HAVING COUNT(DISTINCT u.ts) > 3"
    )

    def test_uncacheable_set_is_never_probed(self, monkeypatch):
        # A set that can store nothing has nothing to find: no key is
        # built, no lookup runs, and a skipped probe is not a miss.
        keyed = []
        key_for = DecisionCache.key_for
        monkeypatch.setattr(
            DecisionCache,
            "key_for",
            staticmethod(lambda *args: keyed.append(args) or key_for(*args)),
        )
        rate = Policy.from_sql("rate", self.RATE_SQL)
        enforcer = cached_enforcer(policies=[deny_uid9(), rate])
        assert enforcer.submit(self.QUERY, uid=1).allowed
        assert not enforcer.submit(self.QUERY, uid=9).allowed
        cache = enforcer.decision_cache
        assert cache is not None  # still created, lazily, as before
        assert keyed == []
        assert cache.stats.hits == cache.stats.misses == 0
        assert cache.stats.stores == 0 and len(cache) == 0

    def test_swap_to_a_cacheable_set_resumes_probing(self):
        rate = Policy.from_sql("rate", self.RATE_SQL)
        enforcer = cached_enforcer(policies=[deny_uid9(), rate])
        enforcer.submit(self.QUERY, uid=1)
        cache = enforcer.decision_cache
        assert cache.stats.misses == 0
        enforcer.remove_policy("rate")
        enforcer.submit(self.QUERY, uid=1)
        enforcer.submit(self.QUERY, uid=1)
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)
        # ... and back: the probe stops again with the uncacheable set.
        enforcer.add_policy(rate)
        enforcer.submit(self.QUERY, uid=1)
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)

    def test_query_reading_the_log_is_never_cached(self):
        enforcer = cached_enforcer()
        enforcer.submit("SELECT uid FROM users", uid=1, execute=False)
        enforcer.submit("SELECT uid FROM users", uid=1, execute=False)
        cache = enforcer.decision_cache
        assert cache.stats.hits == 0
        assert len(cache) == 0

    def test_versioned_entry_survives_while_disk_unchanged(self):
        # With the TI rewrite off the policy is merely shift-safe, so its
        # verdict is pinned to the users log version. uid 1's rows are
        # irrelevant to a uid-9 policy, so compaction discards them, the
        # disk image never changes, and the entry keeps hitting.
        enforcer = cached_enforcer(time_independent=False)
        enforcer.submit(self.QUERY, uid=1)
        assert enforcer.store.version("users") == 0
        enforcer.submit(self.QUERY, uid=1)
        cache = enforcer.decision_cache
        assert cache.stats.hits == 1
        assert cache.stats.invalidations == 0

    def test_versioned_entry_invalidated_by_own_commit(self):
        # A quota policy retains the submitting user's rows, so every
        # allowed check bumps the users version — and the *cached*
        # verdict from the previous check must not be replayed, because
        # the count it memoized is stale (a stale hit would keep
        # allowing past the quota).
        quota = Policy.from_sql(
            "quota",
            "SELECT DISTINCT 'quota exceeded' FROM users u "
            "WHERE u.uid = 9 HAVING COUNT(*) > 2",
        )
        enforcer = cached_enforcer(
            policies=[quota], time_independent=False
        )
        first = enforcer.submit(self.QUERY, uid=9)
        assert first.allowed
        assert enforcer.store.version("users") > 0
        second = enforcer.submit(self.QUERY, uid=9)
        assert second.allowed
        third = enforcer.submit(self.QUERY, uid=9)
        assert not third.allowed
        cache = enforcer.decision_cache
        assert cache.stats.hits == 0
        assert cache.stats.invalidations >= 2

    def test_versioned_denial_hits_because_nothing_committed(self):
        enforcer = cached_enforcer(time_independent=False)
        before = enforcer.store.version("users")
        first = enforcer.submit(self.QUERY, uid=9)
        assert not first.allowed
        assert enforcer.store.version("users") == before
        second = enforcer.submit(self.QUERY, uid=9)
        assert not second.allowed
        assert enforcer.decision_cache.stats.hits == 1

    def test_cache_empty_after_recovery(self, tmp_path):
        enforcer = cached_enforcer()
        initialize_durability(enforcer, tmp_path)
        enforcer.submit(self.QUERY, uid=1)
        enforcer.submit(self.QUERY, uid=1)
        assert enforcer.decision_cache.stats.hits == 1
        enforcer.store.wal.close()

        recovered, wal, report = recover_enforcer(
            tmp_path, clock=SimulatedClock(default_step_ms=10)
        )
        try:
            assert report.last_seq == 2
            # Verdict memos never survive a restart: the rebuilt cache
            # starts empty and repopulates from live traffic.
            cache = recovered.decision_cache
            assert cache is None or len(cache) == 0
            recovered.options = replace(
                recovered.options, decision_cache=True
            )
            third = recovered.submit(self.QUERY, uid=1)
            fourth = recovered.submit(self.QUERY, uid=1)
            assert third.allowed and fourth.allowed
            cache = recovered.decision_cache
            assert cache.stats.misses == 1 and cache.stats.hits == 1
        finally:
            wal.close()


# ---------------------------------------------------------------------------
# Canonical SQL + the engine's plan cache
# ---------------------------------------------------------------------------


class TestCanonicalForm:
    def test_canonical_ignores_case_and_whitespace(self):
        assert canonical_sql("SELECT a FROM t") == canonical_sql(
            "select   A\n FROM  T"
        )

    def test_canonical_keeps_literals_and_strings(self):
        assert canonical_sql("SELECT a FROM t WHERE a = 1") != canonical_sql(
            "SELECT a FROM t WHERE a = 2"
        )
        assert canonical_sql("SELECT 'Ab' FROM t") != canonical_sql(
            "SELECT 'ab' FROM t"
        )

    def test_plan_cache_unifies_textual_variants(self, small_db):
        engine = Engine(small_db)
        first = engine.plan("SELECT a FROM t")
        again = engine.plan("select   a from t")
        third = engine.plan("SELECT a FROM t")
        assert again is first and third is first
        assert engine.plan_cache_misses == 1
        assert engine.plan_cache_hits == 2

    def test_invalidate_plans_keeps_counters(self, small_db):
        engine = Engine(small_db)
        engine.plan("SELECT a FROM t")
        engine.plan("SELECT a FROM t")
        engine.invalidate_plans()
        engine.plan("SELECT a FROM t")
        assert engine.plan_cache_hits == 1
        assert engine.plan_cache_misses == 2

    def test_unparsable_text_still_raises(self, small_db):
        engine = Engine(small_db)
        with pytest.raises(ReproError):
            engine.plan("SELECT FROM WHERE")


# ---------------------------------------------------------------------------
# Equivalence property: the cache must be invisible
# ---------------------------------------------------------------------------

_CONFIG = MimicConfig(n_patients=40)
_TEMPLATE = None


def _mimic_template() -> Database:
    global _TEMPLATE
    if _TEMPLATE is None:
        _TEMPLATE = build_mimic_database(_CONFIG)
    return _TEMPLATE


def _stable_policies() -> "list[Policy]":
    params = PolicyParams.for_config(_CONFIG)
    return [make_policy(name, params) for name in ("P2", "P3", "P4")]


def _mimic_enforcer(decision_cache: bool) -> Enforcer:
    return Enforcer(
        _mimic_template().clone(),
        _stable_policies(),
        clock=SimulatedClock(default_step_ms=10),
        options=EnforcerOptions.datalawyer(decision_cache=decision_cache),
    )


_TOGGLED = Policy.from_sql(
    "deny-2", "SELECT DISTINCT 'uid 2 blocked' FROM users u WHERE u.uid = 2"
)

_actions = st.lists(
    st.one_of(
        st.tuples(
            st.just("submit"),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=1, max_value=3),
        ),
        st.just(("toggle",)),
    ),
    min_size=1,
    max_size=10,
)


class TestCachedUncachedEquivalence:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(actions=_actions)
    def test_same_decisions_and_log_state(self, actions):
        workload = make_workload(_CONFIG)
        queries = [workload[name] for name in ("W1", "W2", "W3", "W4")]
        cached = _mimic_enforcer(decision_cache=True)
        plain = _mimic_enforcer(decision_cache=False)
        toggled = False
        for action in actions:
            if action[0] == "toggle":
                if toggled:
                    cached.remove_policy(_TOGGLED.name)
                    plain.remove_policy(_TOGGLED.name)
                else:
                    cached.add_policy(_TOGGLED)
                    plain.add_policy(_TOGGLED)
                toggled = not toggled
                continue
            _, index, uid = action
            a = cached.submit(queries[index], uid=uid)
            b = plain.submit(queries[index], uid=uid)
            assert a.allowed == b.allowed
            assert a.timestamp == b.timestamp
            assert [(v.policy_name, v.message) for v in a.violations] == [
                (v.policy_name, v.message) for v in b.violations
            ]
            a_rows = None if a.result is None else a.result.rows
            b_rows = None if b.result is None else b.result.rows
            assert a_rows == b_rows
        # The persisted usage log must be bit-identical too: same live
        # sizes and the same per-relation version counters.
        assert cached.store.total_live_size() == plain.store.total_live_size()
        assert cached.store.versions() == plain.store.versions()
