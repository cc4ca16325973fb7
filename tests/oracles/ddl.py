"""The name-level DDL key partition and a switch to run on it.

:func:`repro.storage.ddl.compile_table_ddl` partitions a relation's FDs
into key sets, supporting-index FDs and unenforced FDs entirely on the
bit masks of one interned pool.  The procedure it replaced is kept here:
the greedy canonical-key reduction re-closes a full name set per probe
and the key-FD test decodes each closure back into names, both through
the pool's name-level :meth:`~repro.relational.bitset.BitFDSet.closure`.
:func:`name_level_partition` swaps it in for the runtime, so the
differential suites and benchmarks can compare whole
:class:`~repro.storage.ddl.TableDDL` results and time the old path.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, FrozenSet, Iterable, Iterator, List, Optional, Tuple

import repro.storage.ddl
from repro.relational.bitset import BitFDSet
from repro.relational.fd import FunctionalDependency
from repro.relational.schema import RelationSchema


def _is_key_fd(
    fd: FunctionalDependency,
    attributes: FrozenSet[str],
    closure: Callable[[Iterable[str]], FrozenSet[str]],
) -> bool:
    """Does ``fd.lhs`` determine every attribute of the relation?"""
    return attributes <= closure(fd.lhs)


def _canonical_minimal_key(
    attributes: FrozenSet[str],
    local_fds: List[FunctionalDependency],
    closure: Callable[[Iterable[str]], FrozenSet[str]],
) -> Optional[FrozenSet[str]]:
    """One deterministic minimal candidate key under the local FDs.

    Greedy reduction from the full attribute set in sorted order: an
    attribute is dropped whenever the remainder still determines the whole
    relation.  A minimized cover often states its key FDs through an
    equivalent-attribute rewrite (``{a0, k1} → …`` where ``a0 ↔ k0``), so
    the *natural* key of the relation — the spine of propagated XML keys —
    need not appear as any cover FD's determinant; this reduction recovers
    it.  Returns ``None`` when no proper key exists (the only "key" is the
    whole attribute set — not a propagated constraint, so nothing to
    enforce).
    """
    if not local_fds:
        return None
    key = set(attributes)
    for attribute in sorted(attributes):
        candidate = key - {attribute}
        if attributes <= closure(candidate):
            key = candidate
    if not key or key == set(attributes):
        # Empty: every attribute is constant (∅ → X covers the relation) —
        # "at most one distinct row" has no UNIQUE/index spelling, like the
        # other empty-determinant FDs.  Full: no proper key exists.
        return None
    return frozenset(key)


def key_partition(
    schema: RelationSchema, local_fds: List[FunctionalDependency]
) -> Tuple[List[FrozenSet[str]], List[FunctionalDependency], List[FunctionalDependency]]:
    """``(key_sets, index_fds, unenforced)`` by name-level closures."""
    attributes = frozenset(schema.attributes)
    key_sets: List[FrozenSet[str]] = []
    for declared in schema.keys:
        if declared and declared not in key_sets:
            key_sets.append(declared)
    closure = BitFDSet.from_fds(local_fds).closure
    canonical = _canonical_minimal_key(attributes, local_fds, closure)
    if canonical is not None and canonical not in key_sets:
        key_sets.append(canonical)
    index_fds: List[FunctionalDependency] = []
    unenforced: List[FunctionalDependency] = []
    for fd in local_fds:
        if fd.is_trivial:
            continue
        if not fd.lhs:
            unenforced.append(fd)
        elif _is_key_fd(fd, attributes, closure):
            if fd.lhs not in key_sets:
                key_sets.append(fd.lhs)
        else:
            index_fds.append(fd)
    return key_sets, index_fds, unenforced


@contextmanager
def name_level_partition() -> Iterator[None]:
    """Route every runtime DDL compilation through :func:`key_partition`.

    The previous binding is restored on exit, also when the block raises.
    """
    previous = repro.storage.ddl._key_partition
    repro.storage.ddl._key_partition = key_partition
    try:
        yield
    finally:
        repro.storage.ddl._key_partition = previous


def compile_table_ddl(*args, **kwargs) -> repro.storage.ddl.TableDDL:
    """:func:`repro.storage.ddl.compile_table_ddl` on the name-level partition."""
    with name_level_partition():
        return repro.storage.ddl.compile_table_ddl(*args, **kwargs)
