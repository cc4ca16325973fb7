"""Differential suite: DDL compilation against the frozenset closure.

:func:`repro.storage.ddl.compile_table_ddl` interns each table's FDs once
into a bitset pool and runs every key probe on its masks.  These properties
recompute the same partition — key sets (declared keys, the canonical
minimal key, key-FD determinants), supporting-index FDs and unenforced
FDs — with the frozenset closure of ``tests/oracles/fd.py`` and require
identical lists, in identical order, on random relations and covers, and
the same statements as the name-level partition of
``tests/oracles/ddl.py``.
"""

from typing import FrozenSet, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.fd import FunctionalDependency, coerce_fd
from repro.relational.schema import RelationSchema
from repro.storage.ddl import MODES, compile_table_ddl

from tests.oracles import ddl as ddl_oracle
from tests.oracles import fd as oracle
from tests.property.strategies import FD_ATTRIBUTES, attribute_sets, fd_sets

# Hypothesis suites run in their own CI job (see .github/workflows/ci.yml).
pytestmark = pytest.mark.slow

differential_settings = settings(max_examples=200, deadline=None)


def reference_partition(schema: RelationSchema, cover):
    """``(key_sets, index_fds, unenforced)`` by the frozenset closure."""
    attributes = frozenset(schema.attributes)
    local_fds = [fd for fd in map(coerce_fd, cover) if fd.attributes <= attributes]
    key_sets: List[FrozenSet[str]] = []
    for declared in schema.keys:
        if declared and declared not in key_sets:
            key_sets.append(declared)
    if local_fds:
        key = set(attributes)
        for attribute in sorted(attributes):
            if attributes <= oracle.closure(key - {attribute}, local_fds):
                key -= {attribute}
        if key and key != set(attributes) and frozenset(key) not in key_sets:
            key_sets.append(frozenset(key))
    index_fds, unenforced = [], []
    for fd in local_fds:
        if fd.is_trivial:
            continue
        if not fd.lhs:
            unenforced.append(fd)
        elif attributes <= oracle.closure(fd.lhs, local_fds):
            if fd.lhs not in key_sets:
                key_sets.append(fd.lhs)
        else:
            index_fds.append(fd)
    return key_sets, index_fds, unenforced


#: Relation attributes no drawn FD ever produces: they occur in
#: determinants at most, so the mask reduction keeps them without a probe.
UNPRODUCED = ["u", "v"]
#: Attributes a cover may mention that no relation carries; FDs using them
#: are not local to the relation.
OUTSIDE = ["x", "y"]


@st.composite
def relations(draw):
    attributes = sorted(
        draw(attribute_sets(1, len(FD_ATTRIBUTES)))
        | draw(st.sets(st.sampled_from(UNPRODUCED)))
    )
    declared = draw(
        st.lists(st.sets(st.sampled_from(attributes), max_size=2), max_size=2)
    )
    return RelationSchema("t", attributes, keys=declared)


@st.composite
def covers(draw, schema: RelationSchema):
    """Raw FD sets and their minimum covers — the DDL's two input shapes.

    Besides FDs over the shared attribute pool (possibly none, so the
    relation may have no local FDs), a cover may carry determinants with
    unproduced attributes, ``∅ → every attribute`` (all attributes
    constant, so no canonical key), and FDs mentioning attributes outside
    the relation.
    """
    fds = draw(fd_sets())
    for _ in range(draw(st.integers(0, 2))):
        lhs = draw(attribute_sets(0, 2)) | draw(st.sets(st.sampled_from(UNPRODUCED), min_size=1))
        fds.append(FunctionalDependency(lhs, draw(attribute_sets(1, 2))))
    if draw(st.booleans()):
        fds.append(FunctionalDependency((), schema.attributes))
    for _ in range(draw(st.integers(0, 2))):
        outside = draw(st.sets(st.sampled_from(OUTSIDE), min_size=1))
        lhs = draw(attribute_sets(0, 2))
        if draw(st.booleans()):
            fds.append(FunctionalDependency(lhs | outside, draw(attribute_sets(1, 2))))
        else:
            fds.append(FunctionalDependency(lhs, outside))
    fds = draw(st.permutations(fds))
    if draw(st.booleans()):
        return oracle.minimum_cover(fds, merge_lhs=draw(st.booleans()))
    return fds


@st.composite
def designs(draw):
    schema = draw(relations())
    return schema, draw(covers(schema))


class TestTableDDLMatchesReferenceClosure:
    @differential_settings
    @given(design=designs(), mode=st.sampled_from(MODES))
    def test_partition_identical_including_order(self, design, mode):
        schema, cover = design
        table = compile_table_ddl(schema, cover, mode=mode)
        key_sets, index_fds, unenforced = reference_partition(schema, cover)
        assert table.key_sets == key_sets
        assert table.index_fds == index_fds
        assert table.unenforced == unenforced
        name_level = ddl_oracle.compile_table_ddl(schema, cover, mode=mode)
        assert table.create == name_level.create
        assert table.indexes == name_level.indexes
