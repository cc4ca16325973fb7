"""The frozenset FD engine: the reference for :mod:`repro.relational.bitset`.

A closure is a quadratic fixpoint that rescans the whole FD pool every
round.  Every routine here mirrors its runtime counterpart in
:mod:`repro.relational.fd` / :mod:`repro.relational.normalization` step for
step — FDs in input order, LHS attributes in sorted name order — so the two
return the same FDs in the same order, not merely equivalent sets.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.relational.fd import FDLike, FunctionalDependency, coerce_fd
from repro.relational.schema import AttrSetLike, attr_set


def closure(attributes: AttrSetLike, fds: Iterable[FDLike]) -> FrozenSet[str]:
    """``X+`` by a fixpoint that rescans the pool until nothing changes."""
    pool = [coerce_fd(fd) for fd in fds]
    result: Set[str] = set(attr_set(attributes))
    changed = True
    while changed:
        changed = False
        for fd in pool:
            if fd.lhs <= result and not fd.rhs <= result:
                result |= fd.rhs
                changed = True
    return frozenset(result)


def implies_fd(fds: Iterable[FDLike], candidate: FDLike) -> bool:
    fd = coerce_fd(candidate)
    return fd.rhs <= closure(fd.lhs, fds)


def equivalent(first: Iterable[FDLike], second: Iterable[FDLike]) -> bool:
    first_pool = [coerce_fd(fd) for fd in first]
    second_pool = [coerce_fd(fd) for fd in second]
    return all(implies_fd(second_pool, fd) for fd in first_pool) and all(
        implies_fd(first_pool, fd) for fd in second_pool
    )


def remove_extraneous_attributes(fds: Iterable[FDLike]) -> List[FunctionalDependency]:
    """Drop extraneous attributes from every LHS (lines 1–4 of ``minimize``).

    The pool still holds the untrimmed FD while its own attributes are
    probed; the trimmed FD replaces it before the next FD is visited.
    """
    pool = [coerce_fd(fd) for fd in fds]
    result: List[FunctionalDependency] = []
    for index, fd in enumerate(pool):
        lhs = set(fd.lhs)
        for attribute in sorted(fd.lhs):
            if attribute not in lhs:
                continue
            trimmed = lhs - {attribute}
            if fd.rhs <= closure(trimmed, pool):
                lhs = trimmed
        reduced = FunctionalDependency(lhs, fd.rhs)
        pool[index] = reduced
        result.append(reduced)
    return result


def remove_redundant_fds(fds: Iterable[FDLike]) -> List[FunctionalDependency]:
    """Drop FDs implied by the remaining ones (lines 5–8 of ``minimize``)."""
    pool = [coerce_fd(fd) for fd in fds]
    result = list(pool)
    for fd in list(pool):
        others = [other for other in result if other is not fd]
        if fd.rhs <= closure(fd.lhs, others):
            result = others
    return result


def minimize(fds: Iterable[FDLike]) -> List[FunctionalDependency]:
    """Section 5's ``minimize``: trivial FDs, extraneous LHS attributes,
    then redundant FDs are dropped."""
    pool = [fd for fd in (coerce_fd(item) for item in fds) if not fd.is_trivial]
    return remove_redundant_fds(remove_extraneous_attributes(pool))


def minimum_cover(
    fds: Iterable[FDLike], merge_lhs: bool = False
) -> List[FunctionalDependency]:
    singleton: List[FunctionalDependency] = []
    for fd in fds:
        singleton.extend(coerce_fd(fd).decompose())
    reduced = minimize(singleton)
    if not merge_lhs:
        return reduced
    merged: Dict[FrozenSet[str], Set[str]] = {}
    for fd in reduced:
        merged.setdefault(fd.lhs, set()).update(fd.rhs)
    return [FunctionalDependency(lhs, rhs) for lhs, rhs in merged.items()]


def project_fds(
    attributes: AttrSetLike, fds: Iterable[FDLike], minimize_result: bool = True
) -> List[FunctionalDependency]:
    """``X → (X+ ∩ attributes) − X`` for every non-empty subset ``X``."""
    attrs = sorted(attr_set(attributes))
    pool = [coerce_fd(fd) for fd in fds]
    projected: List[FunctionalDependency] = []
    for size in range(1, len(attrs) + 1):
        for subset in combinations(attrs, size):
            rhs = (closure(subset, pool) & set(attrs)) - set(subset)
            if rhs:
                projected.append(FunctionalDependency(subset, rhs))
    if minimize_result:
        return minimum_cover(projected, merge_lhs=True)
    return projected


def candidate_keys(
    attributes: AttrSetLike, fds: Iterable[FDLike], limit: Optional[int] = None
) -> List[FrozenSet[str]]:
    """Minimal determining sets, enumerated in the runtime's order."""
    attrs = attr_set(attributes)
    pool: Sequence[FunctionalDependency] = [coerce_fd(fd) for fd in fds]
    rhs_attrs: Set[str] = set()
    for fd in pool:
        rhs_attrs |= fd.rhs
    mandatory = frozenset(attrs - rhs_attrs)
    optional = sorted(attrs - mandatory)
    if attrs <= closure(mandatory, pool):
        return [mandatory]
    keys: List[FrozenSet[str]] = []
    for size in range(len(optional) + 1):
        for extra in combinations(optional, size):
            candidate = mandatory | frozenset(extra)
            if any(existing <= candidate for existing in keys):
                continue
            if attrs <= closure(candidate, pool):
                keys.append(candidate)
                if limit is not None and len(keys) >= limit:
                    return keys
    return keys
