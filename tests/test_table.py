"""Table and Database tests: tids, mutation, indexes, catalog."""

import pytest

from repro.engine import Database, Table
from repro.engine.schema import Column, TableSchema, make_schema
from repro.errors import CatalogError, EngineError


class TestSchema:
    def test_make_schema(self):
        schema = make_schema("t", ["a", "b"])
        assert schema.column_names == ["a", "b"]
        assert schema.arity == 2

    def test_position_lookup(self):
        schema = make_schema("t", ["a", "b"])
        assert schema.position("b") == 1
        assert schema.has_column("a")
        assert not schema.has_column("z")

    def test_unknown_column_raises(self):
        schema = make_schema("t", ["a"])
        with pytest.raises(CatalogError):
            schema.position("nope")

    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t", [Column("a"), Column("a")])


class TestTableBasics:
    def test_insert_assigns_increasing_tids(self):
        table = Table.from_rows("t", ["a"], [])
        assert table.insert((1,)) == 0
        assert table.insert((2,)) == 1
        assert table.insert((3,)) == 2

    def test_arity_checked(self):
        table = Table.from_rows("t", ["a", "b"], [])
        with pytest.raises(EngineError):
            table.insert((1,))

    def test_scan_pairs(self):
        table = Table.from_rows("t", ["a"], [(10,), (20,)])
        assert list(table.scan()) == [(0, (10,)), (1, (20,))]

    def test_row_for_tid(self):
        table = Table.from_rows("t", ["a"], [(10,), (20,)])
        assert table.row_for_tid(1) == (20,)
        with pytest.raises(EngineError):
            table.row_for_tid(99)

    def test_rows_are_tuples(self):
        table = Table.from_rows("t", ["a", "b"], [[1, 2]])
        assert table.rows() == [(1, 2)]


class TestMutation:
    def test_delete_tids(self):
        table = Table.from_rows("t", ["a"], [(1,), (2,), (3,)])
        removed = table.delete_tids({0, 2})
        assert removed == 2
        assert table.rows() == [(2,)]
        assert table.tids() == [1]

    def test_delete_empty_set_is_noop(self):
        table = Table.from_rows("t", ["a"], [(1,)])
        assert table.delete_tids(set()) == 0
        assert len(table) == 1

    def test_retain_tids(self):
        table = Table.from_rows("t", ["a"], [(1,), (2,), (3,)])
        removed = table.retain_tids({1})
        assert removed == 2
        assert table.rows() == [(2,)]

    def test_tids_never_reused_after_clear(self):
        table = Table.from_rows("t", ["a"], [(1,), (2,)])
        table.clear()
        assert table.insert((3,)) == 2

    def test_clone_is_independent(self):
        table = Table.from_rows("t", ["a"], [(1,)])
        copy = table.clone()
        copy.insert((2,))
        assert len(table) == 1 and len(copy) == 2

    def test_clone_continues_tid_sequence(self):
        table = Table.from_rows("t", ["a"], [(1,)])
        copy = table.clone()
        assert copy.insert((2,)) == 1


class TestVersioning:
    def test_every_mutation_bumps_version(self):
        table = Table.from_rows("t", ["a"], [(1,), (2,)])
        start = table.version
        table.insert((3,))
        assert table.version == start + 1
        table.delete_tids({0})
        assert table.version == start + 2
        table.clear()
        assert table.version == start + 3

    def test_insert_many_bumps_version_once(self):
        table = Table.from_rows("t", ["a"], [])
        start = table.version
        tids = table.insert_many([(1,), (2,), (3,)])
        assert tids == [0, 1, 2]
        assert table.version == start + 1
        # The bump is per call, not per row: a bigger batch is still +1.
        before = table.version
        table.insert_many([(i,) for i in range(100)])
        assert table.version - before == 1

    def test_insert_many_empty_is_noop(self):
        table = Table.from_rows("t", ["a"], [(1,)])
        start = table.version
        assert table.insert_many([]) == []
        assert table.version == start

    def test_insert_many_checks_arity_before_appending(self):
        table = Table.from_rows("t", ["a", "b"], [])
        with pytest.raises(EngineError):
            table.insert_many([(1, 2), (3,)])
        assert len(table) == 0  # all-or-nothing

    @pytest.mark.parametrize(
        "load",
        [
            lambda table: table.replace_contents([(7, 8), (9,)], [5, 6], 7),
            lambda table: table.insert_with_tids([(7, 8), (9,)], [5, 6]),
        ],
        ids=["replace_contents", "insert_with_tids"],
    )
    def test_bad_row_leaves_the_table_as_it_was(self, load):
        """A malformed snapshot / WAL row raises before anything moves:
        no tids over zero rows, no version bump."""
        table = Table.from_rows("t", ["a", "b"], [(1, 2), (3, 4)])
        table.index_probe(0, 1)
        version = table.version
        with pytest.raises(EngineError):
            load(table)
        assert table.rows() == [(1, 2), (3, 4)]
        assert table.tids() == [0, 1]
        assert table.column_values(0) == [1, 3]
        assert (table.version, table.next_tid) == (version, 2)
        assert table.index_probe(0, 3) == [(1, (3, 4))]

    def test_reads_do_not_bump_version(self):
        table = Table.from_rows("t", ["a"], [(1,)])
        start = table.version
        table.rows()
        table.index_probe(0, 1)
        table.tid_positions()
        table.row_for_tid(0)
        assert table.version == start

    def test_tid_positions_rebuilt_after_mutation(self):
        table = Table.from_rows("t", ["a"], [(1,), (2,), (3,)])
        assert table.tid_positions() == {0: 0, 1: 1, 2: 2}
        table.delete_tids({1})
        assert table.tid_positions() == {0: 0, 2: 1}

    def test_clone_carries_version_and_indexes(self):
        table = Table.from_rows("t", ["a"], [(1,), (2,)])
        table.index_probe(0, 1)  # build an index
        copy = table.clone()
        assert copy.version == table.version
        assert copy._indexes  # carried over, not rebuilt
        # Mutating the copy invalidates only its own derived state.
        copy.insert((3,))
        assert copy.version == table.version + 1
        assert table.index_probe(0, 1) == [(0, (1,))]
        assert len(copy.index_probe(0, 1)) == 1


class TestIndexes:
    def test_index_probe_finds_matches(self):
        table = Table.from_rows("t", ["a", "b"], [(1, "x"), (2, "y"), (1, "z")])
        hits = table.index_probe(0, 1)
        assert [row for _, row in hits] == [(1, "x"), (1, "z")]

    def test_index_probe_miss(self):
        table = Table.from_rows("t", ["a"], [(1,)])
        assert table.index_probe(0, 42) == []

    def test_null_never_indexed(self):
        table = Table.from_rows("t", ["a"], [(None,), (1,)])
        assert table.index_probe(0, None) == []

    def test_index_invalidated_on_insert(self):
        table = Table.from_rows("t", ["a"], [(1,)])
        table.index_probe(0, 1)
        table.insert((1,))
        assert len(table.index_probe(0, 1)) == 2

    def test_index_invalidated_on_delete(self):
        table = Table.from_rows("t", ["a"], [(1,), (1,)])
        table.index_probe(0, 1)
        table.delete_tids({0})
        assert len(table.index_probe(0, 1)) == 1

    def test_unhashable_probe_value(self):
        table = Table.from_rows("t", ["a"], [(1,)])
        assert table.index_probe(0, [1]) == []  # type: ignore[arg-type]


class TestDatabase:
    def test_create_and_lookup(self):
        db = Database()
        db.create_table("t", ["a"])
        assert db.has_table("t")
        assert db.table("T").name == "t"  # case-insensitive

    def test_duplicate_rejected(self):
        db = Database()
        db.create_table("t", ["a"])
        with pytest.raises(CatalogError):
            db.create_table("T", ["a"])

    def test_unknown_table(self):
        db = Database()
        with pytest.raises(CatalogError):
            db.table("missing")

    def test_load_table(self):
        db = Database()
        table = db.load_table("t", ["a"], [(1,), (2,)])
        assert len(table) == 2

    def test_drop_table(self):
        db = Database()
        db.create_table("t", ["a"])
        db.drop_table("t")
        assert not db.has_table("t")
        with pytest.raises(CatalogError):
            db.drop_table("t")

    def test_attach(self):
        db = Database()
        db.attach(Table.from_rows("x", ["a"], [(1,)]))
        assert db.has_table("x")
        with pytest.raises(CatalogError):
            db.attach(Table.from_rows("x", ["a"], []))

    def test_table_names_sorted(self):
        db = Database()
        db.create_table("zeta", ["a"])
        db.create_table("alpha", ["a"])
        assert db.table_names() == ["alpha", "zeta"]

    def test_clone_independent(self):
        db = Database()
        db.load_table("t", ["a"], [(1,)])
        copy = db.clone()
        copy.table("t").insert((2,))
        assert len(db.table("t")) == 1
        assert len(copy.table("t")) == 2
