"""Reference answers each workload's outputs are checked against.

Each oracle is a plane the repository keeps as a reference, or (for the
FD checks) a closure written here, so a fast path that drifts from its
reference fails the benchmark instead of just getting faster.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple


def violation_fingerprint(violations) -> List[tuple]:
    return [
        (v.key.text, v.context_node_id, v.kind, tuple(v.node_ids), v.detail)
        for v in violations
    ]


def sql_fingerprint(found: Dict[str, list]) -> List[tuple]:
    return [
        (table, v.kind, v.detail) for table in sorted(found) for v in found[table]
    ]


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def encoded_rows(schema, rows) -> List[tuple]:
    from repro.relational.sql import encode_row

    return [encode_row(schema, row) for row in rows]


def row_multiset(rows: Iterable[tuple]) -> List[Tuple[tuple, int]]:
    """A canonical, order-free form of a bag of encoded rows."""
    return sorted(Counter(rows).items(), key=repr)


# ----------------------------------------------------------------------
# gate-ingest: the DOM plane and the in-memory FD checks
# ----------------------------------------------------------------------
def gate_reference(document, rule, keys):
    """Rows and violations by DOM parse → ``transform.evaluate`` →
    ``keys.satisfaction``: the reference the streaming planes must match."""
    from repro.keys.satisfaction import violations
    from repro.transform.evaluate import evaluate_rule
    from repro.xmlmodel.parser import parse_document

    with open(document, encoding="utf-8") as handle:
        tree = parse_document(handle.read())
    instance = evaluate_rule(rule, tree)
    found = [violation for key in keys for violation in violations(tree, key)]
    return instance, sorted(violation_fingerprint(found))


def instance_key_violations(instance, key_sets) -> List[tuple]:
    """The SQL verifier's report computed by ``RelationInstance`` in memory."""
    return [
        (instance.schema.name, v.kind, v.detail)
        for key in key_sets
        for v in instance.key_violations(key)
    ]


# ----------------------------------------------------------------------
# mondial-check: the unpruned streaming run
# ----------------------------------------------------------------------
def unpruned_violations(document, keys) -> List[tuple]:
    from repro.keys.stream import KeyStreamChecker
    from repro.xmlmodel.events import iter_events

    checker = KeyStreamChecker(keys)
    for event in iter_events(document):
        checker.feed(event)
    return violation_fingerprint(checker.finish())


# ----------------------------------------------------------------------
# schema-design: FD closure written independently of the program
# ----------------------------------------------------------------------
def _pairs(fds) -> List[Tuple[frozenset, frozenset]]:
    return [(frozenset(fd.lhs), frozenset(fd.rhs)) for fd in fds]


def closure(attributes: Iterable[str], fds: Sequence[Tuple[frozenset, frozenset]]) -> frozenset:
    result = set(attributes)
    changed = True
    while changed:
        changed = False
        for lhs, rhs in fds:
            if lhs <= result and not rhs <= result:
                result |= rhs
                changed = True
    return frozenset(result)


def design_errors(schema, result, table) -> List[str]:
    """What is wrong with one designed schema (empty when it is right).

    The cover must be equivalent to the propagated FDs it was minimized
    from, and every key the DDL compiled must determine the relation.
    """
    cover = _pairs(result.cover)
    generated = _pairs(result.generated)
    errors: List[str] = []
    for name, source, target in (
        ("cover", cover, generated),
        ("generated", generated, cover),
    ):
        for lhs, rhs in source:
            if not rhs <= closure(lhs, target):
                errors.append(f"{schema.name}: {name} FD {sorted(lhs)} -> {sorted(rhs)} is not implied")
                break
    attributes = frozenset(schema.attributes)
    if not table.key_sets:
        errors.append(f"{schema.name}: the DDL compiled no key")
    for key in table.key_sets:
        if not attributes <= closure(key, cover):
            errors.append(f"{schema.name}: key {sorted(key)} does not determine the relation")
    return errors
