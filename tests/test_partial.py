"""Partial policies and the interleaving chain (§4.2.1, Example 4.5)."""

import pytest

from repro.analysis import analyze_structure, partial_chain, partial_policy
from repro.engine import Database
from repro.log import standard_registry
from repro.sql import ast, parse_select, print_query


@pytest.fixture
def registry():
    return standard_registry()


@pytest.fixture
def db():
    db = Database()
    db.load_table("groups", ["uid", "gid"], [(1, "students")])
    return db


P2B_SQL = (
    "SELECT DISTINCT 'P2b violated' "
    "FROM users u, schema s, groups g, clock c "
    "WHERE u.ts = s.ts AND s.irid = 'patients' AND u.uid = g.uid "
    "AND g.gid = 'students' AND u.ts > c.ts - 1209600 "
    "HAVING COUNT(DISTINCT u.uid) > 10"
)


class TestPartialPolicy:
    def test_empty_s_drops_all_logs(self, registry, db):
        """Example 4.5's P2d: only Groups and Clock remain."""
        select = parse_select(P2B_SQL)
        partial = partial_policy(analyze_structure(select, registry, db), set())
        names = [f.binding_name() for f in partial.from_items]
        assert names == ["g", "c"]
        text = print_query(partial)
        assert "u.ts" not in text and "s.irid" not in text
        assert "g.gid = 'students'" in text
        assert partial.having is None  # references removed u

    def test_users_only_keeps_having(self, registry, db):
        """Example 4.5's P2c: COUNT(DISTINCT u.uid) > 10 survives because
        the counted column survives (distinct-count monotonicity)."""
        select = parse_select(P2B_SQL)
        partial = partial_policy(analyze_structure(select, registry, db), {"users"})
        names = [f.binding_name() for f in partial.from_items]
        assert names == ["u", "g", "c"]
        assert partial.having is not None
        text = print_query(partial)
        assert "u.ts > c.ts" in text  # window predicate survives
        assert "s.irid" not in text

    def test_full_s_returns_original(self, registry, db):
        select = parse_select(P2B_SQL)
        partial = partial_policy(
            analyze_structure(select, registry, db),
            {"users", "schema", "provenance"},
        )
        assert partial is select

    def test_count_star_having_dropped(self, registry, db):
        """COUNT(*) is not fan-out-proof: the partial must drop HAVING."""
        select = parse_select(
            "SELECT DISTINCT 'e' FROM users u, schema s "
            "WHERE u.ts = s.ts HAVING COUNT(*) > 10"
        )
        partial = partial_policy(analyze_structure(select, registry, db), {"users"})
        assert partial.having is None

    def test_count_distinct_on_removed_column_dropped(self, registry, db):
        select = parse_select(
            "SELECT DISTINCT 'e' FROM users u, schema s "
            "WHERE u.ts = s.ts HAVING COUNT(DISTINCT s.irid) > 2"
        )
        partial = partial_policy(analyze_structure(select, registry, db), {"users"})
        assert partial.having is None

    def test_group_by_keys_of_removed_relation_dropped(self, registry, db):
        select = parse_select(
            "SELECT DISTINCT 'e' FROM users u, provenance p "
            "WHERE u.ts = p.ts GROUP BY p.otid, u.uid "
            "HAVING COUNT(DISTINCT u.ts) > 1"
        )
        partial = partial_policy(analyze_structure(select, registry, db), {"users"})
        assert partial.group_by == (ast.ColumnRef("u", "uid"),)

    def test_all_items_removed_returns_none(self, registry, db):
        select = parse_select("SELECT DISTINCT 'e' FROM users u WHERE u.uid = 1")
        assert partial_policy(analyze_structure(select, registry, db), set()) is None

    def test_subquery_referencing_missing_log_dropped(self, registry, db):
        select = parse_select(
            "SELECT DISTINCT 'e' FROM (SELECT ts FROM schema) x, groups g"
        )
        partial = partial_policy(analyze_structure(select, registry, db), set())
        names = [f.binding_name() for f in partial.from_items]
        assert names == ["g"]

    def test_keep_having_false_forces_drop(self, registry, db):
        select = parse_select(P2B_SQL)
        partial = partial_policy(
            analyze_structure(select, registry, db),
            {"users"},
            keep_having=False,
        )
        assert partial.having is None


class TestPartialChain:
    def test_chain_for_p2b(self, registry, db):
        select = parse_select(P2B_SQL)
        chain = partial_chain(analyze_structure(select, registry, db), registry)
        stages = [set(stage) for stage, _ in chain]
        # ∅ (P2d), {users} (P2c), {users, schema} (full). Provenance adds
        # nothing so no fourth entry.
        assert stages == [set(), {"users"}, {"users", "schema"}]
        assert chain[-1][1] == select

    def test_chain_collapses_unchanged_stages(self, registry, db):
        select = parse_select(
            "SELECT DISTINCT 'e' FROM users u, groups g WHERE u.uid = g.uid"
        )
        chain = partial_chain(analyze_structure(select, registry, db), registry)
        stages = [set(stage) for stage, _ in chain]
        assert stages == [set(), {"users"}]

    def test_final_entry_is_full_policy_for_non_monotone(self, registry, db):
        select = parse_select(
            "SELECT DISTINCT 'e' FROM users u, provenance p "
            "WHERE u.ts = p.ts GROUP BY p.ts, p.otid "
            "HAVING COUNT(DISTINCT p.itid) <= 3"
        )
        chain = partial_chain(
            analyze_structure(select, registry, db), registry, keep_having=False
        )
        # final stage restores HAVING (it is the true policy)
        assert chain[-1][1] == select
        # intermediate stage with users only: HAVING dropped
        middle = dict(chain)[frozenset({"users"})]
        assert middle.having is None

    def test_implication_property_on_data(self, registry, db):
        """π non-empty ⇒ every partial non-empty (Lemma 4.4), checked on a
        concrete violating instance."""
        from repro.engine import Engine
        from repro.log import LogStore

        select = parse_select(
            "SELECT DISTINCT 'e' FROM users u, schema s, groups g, clock c "
            "WHERE u.ts = s.ts AND u.uid = g.uid AND g.gid = 'students' "
            "AND s.irid = 'patients' AND u.ts > c.ts - 100 "
            "HAVING COUNT(DISTINCT u.uid) > 0"
        )
        store = LogStore(db, registry)
        engine = Engine(db)
        store.set_time(10)
        store.stage("users", [(1,)], 10)
        store.stage("schema", [("o", "patients", "pid", False)], 10)

        assert not engine.is_empty(select)  # π fires
        for stage, partial in partial_chain(
            analyze_structure(select, registry, db), registry
        ):
            if partial is None:
                continue
            assert not engine.is_empty(partial), f"partial at {set(stage)}"
