"""Unit tests for the DDL compiler (schema + propagated cover → constraints)."""

import pytest

from repro.core.minimum_cover import minimum_cover_from_keys
from repro.experiments.generators import generate_workload
from repro.relational.fd import FunctionalDependency as FD
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.storage import compile_ddl, compile_table_ddl

from tests.oracles import ddl as ddl_oracle
from tests.property.test_ddl_differential import reference_partition


@pytest.fixture()
def chapter_schema():
    return RelationSchema("chapter", ["inBook", "number", "name"])


@pytest.fixture()
def key_cover():
    # {inBook, number} is a key; name determines nothing.
    return [FD({"inBook", "number"}, {"name"})]


class TestStrictMode:
    def test_key_fd_becomes_primary_key(self, chapter_schema, key_cover):
        ddl = compile_ddl(chapter_schema, key_cover, mode="strict")
        table = ddl.table("chapter")
        assert table.key_sets == [frozenset({"inBook", "number"})]
        assert 'PRIMARY KEY ("inBook", "number")' in table.create
        assert table.index_fds == []

    def test_second_key_becomes_unique(self):
        schema = RelationSchema("r", ["a", "b", "c"])
        cover = [FD({"a"}, {"b", "c"}), FD({"b"}, {"a", "c"})]
        ddl = compile_ddl(schema, cover, mode="strict")
        table = ddl.table("r")
        assert frozenset({"a"}) in table.key_sets
        assert frozenset({"b"}) in table.key_sets
        # The canonical minimal-key reduction (sorted removal order) lands
        # on {b}; the other candidate key {a} becomes a UNIQUE constraint.
        assert 'PRIMARY KEY ("b")' in table.create
        assert 'UNIQUE ("a")' in table.create

    def test_declared_keys_win_over_cover(self, chapter_schema, key_cover):
        chapter_schema.add_key({"name"})
        ddl = compile_ddl(chapter_schema, key_cover, mode="strict")
        table = ddl.table("chapter")
        assert table.key_sets[0] == frozenset({"name"})
        assert 'PRIMARY KEY ("name")' in table.create

    def test_non_key_fd_becomes_supporting_index(self):
        schema = RelationSchema("r", ["a", "b", "c"])
        cover = [FD({"a"}, {"b"})]  # a does not determine c
        ddl = compile_ddl(schema, cover, mode="strict")
        table = ddl.table("r")
        # {a, c} is the candidate key the cover *implies* (a determines b);
        # the non-key FD itself is only backed by a supporting index.
        assert table.key_sets == [frozenset({"a", "c"})]
        assert table.index_fds == cover
        assert any('CREATE INDEX' in s and '("a")' in s for s in table.indexes)
        assert 'PRIMARY KEY ("a", "c")' in table.create

    def test_canonical_minimal_key_recovered_through_equivalence(self):
        # The cover states the key through a0 (a0 <-> k0), but {k0, k1} is
        # the natural propagated key; the compiler must recover it.
        schema = RelationSchema("u", ["k0", "k1", "a0", "e1"])
        cover = [
            FD({"a0"}, {"k0"}),
            FD({"k0"}, {"a0"}),
            FD({"a0", "k1"}, {"e1"}),
        ]
        ddl = compile_ddl(schema, cover, mode="strict")
        key_sets = ddl.table("u").key_sets
        assert frozenset({"k0", "k1"}) in key_sets
        assert frozenset({"a0", "k1"}) in key_sets


class TestFig7aSchema:
    def test_500_field_schema_matches_references(self):
        """The mask partition reproduces both references on Fig. 7(a)."""
        workload = generate_workload(500, depth=5, num_keys=10)
        cover = minimum_cover_from_keys(workload.keys, workload.rule).cover
        schema = workload.rule.schema()
        table = compile_table_ddl(schema, cover)
        key_sets, index_fds, unenforced = reference_partition(schema, cover)
        assert table.key_sets == key_sets
        assert table.index_fds == index_fds
        assert table.unenforced == unenforced
        name_level = ddl_oracle.compile_table_ddl(schema, cover)
        assert table.key_sets == name_level.key_sets
        assert table.create == name_level.create
        assert table.indexes == name_level.indexes


class TestLogMode:
    def test_no_uniqueness_only_indexes(self, chapter_schema, key_cover):
        ddl = compile_ddl(chapter_schema, key_cover, mode="log")
        table = ddl.table("chapter")
        assert "PRIMARY KEY" not in table.create
        assert "UNIQUE" not in table.create
        assert not any("UNIQUE" in s for s in table.indexes)
        # The key set is still *known* (the verifier uses it) and indexed.
        assert table.key_sets == [frozenset({"inBook", "number"})]
        assert any('("inBook", "number")' in s for s in table.indexes)


class TestPlanShape:
    def test_database_schema_compiles_every_relation(self, key_cover):
        db = DatabaseSchema(
            [
                RelationSchema("chapter", ["inBook", "number", "name"]),
                RelationSchema("book", ["isbn", "title"]),
            ]
        )
        ddl = compile_ddl(db, key_cover, mode="strict")
        assert set(ddl.tables) == {"chapter", "book"}
        # The cover projects: it only applies to the relation holding all
        # its attributes.
        assert ddl.table("book").key_sets == []
        assert len(ddl.statements()) >= 2
        assert "CREATE TABLE" in ddl.script()

    def test_unknown_mode_rejected(self, chapter_schema):
        with pytest.raises(ValueError):
            compile_ddl(chapter_schema, mode="lenient")

    def test_unknown_table_lookup(self, chapter_schema):
        ddl = compile_ddl(chapter_schema)
        with pytest.raises(KeyError):
            ddl.table("nope")

    def test_empty_lhs_fd_is_unenforced(self):
        schema = RelationSchema("r", ["a", "b"])
        ddl = compile_ddl(schema, [FD(frozenset(), {"a"})], mode="strict")
        table = ddl.table("r")
        assert len(table.unenforced) == 1
        # ∅ → a makes a constant, so {b} is the implied candidate key; the
        # constant FD itself cannot be spelled as a constraint.
        assert table.key_sets == [frozenset({"b"})]

    def test_all_constant_cover_emits_no_empty_index(self):
        # ∅ → every attribute reduces the canonical key to the empty set,
        # which has no UNIQUE/index spelling; the DDL must stay executable.
        import sqlite3

        schema = RelationSchema("r", ["a", "b"])
        cover = [FD(frozenset(), {"a"}), FD(frozenset(), {"b"})]
        for mode in ("strict", "log"):
            ddl = compile_ddl(schema, cover, mode=mode)
            assert ddl.table("r").key_sets == []
            connection = sqlite3.connect(":memory:")
            for statement in ddl.statements():
                connection.execute(statement)
            connection.close()

    def test_trivial_fd_ignored(self):
        schema = RelationSchema("r", ["a", "b"])
        ddl = compile_ddl(schema, [FD({"a", "b"}, {"a"})], mode="strict")
        table = ddl.table("r")
        assert table.key_sets == []
        assert table.index_fds == []


class TestProvenance:
    def test_provenance_column_added_and_indexed(self, chapter_schema, key_cover):
        ddl = compile_ddl(
            chapter_schema, key_cover, mode="strict", provenance_column="_document"
        )
        table = ddl.table("chapter")
        assert '"_document" TEXT' in table.create
        # Never part of the key.
        assert all("_document" not in key for key in table.key_sets)
        assert any('("_document")' in s for s in table.indexes)

    def test_collision_with_attribute_rejected(self, chapter_schema):
        with pytest.raises(ValueError):
            compile_ddl(chapter_schema, provenance_column="name")


class TestHostileNames:
    def test_hostile_table_and_columns_execute(self):
        import sqlite3

        schema = RelationSchema(
            't"able', ['c"ol', "se;lect", "sp ace"], keys=[{'c"ol'}]
        )
        ddl = compile_ddl(schema, [FD({'c"ol'}, {"se;lect", "sp ace"})], mode="strict")
        connection = sqlite3.connect(":memory:")
        for statement in ddl.statements():
            connection.execute(statement)
        tables = {
            row[0]
            for row in connection.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        }
        assert tables == {'t"able'}
        connection.close()
