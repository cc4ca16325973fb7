"""The per-call recursive containment procedure and a switch to run on it.

:func:`repro.xmlmodel.paths.contains` decides ``L(covered) ⊆ L(covering)``
with an iterative dynamic program and a cross-call memo table.  The
procedure it replaced is kept here: a recursion memoised only within one
call, through a fresh ``lru_cache`` closure per call.
:func:`recursive_containment` swaps it in for every runtime caller, so
benchmarks can time the pre-optimisation path end to end.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache
from typing import Iterator, Tuple

import repro.keys.implication
import repro.keys.transitive
import repro.xmlmodel
import repro.xmlmodel.paths
from repro.xmlmodel.paths import PathExpression, PathLike, PathStep, StepKind

#: Every module that binds ``contains`` by name at import time.
_CALLERS = (
    repro.xmlmodel.paths,
    repro.xmlmodel,
    repro.keys.implication,
    repro.keys.transitive,
)


def containment_recursive(
    covered: Tuple[PathStep, ...], covering: Tuple[PathStep, ...]
) -> bool:
    """``L(covered) ⊆ L(covering)`` over step tuples, by recursion."""

    @lru_cache(maxsize=None)
    def recurse(i: int, j: int) -> bool:
        exhausted_covered = i == len(covered)
        exhausted_covering = j == len(covering)
        if exhausted_covered and exhausted_covering:
            return True
        if exhausted_covered:
            # epsilon must belong to the remaining covering language.
            return all(step.kind is StepKind.DESCENDANT for step in covering[j:])
        if exhausted_covering:
            return False
        covered_step = covered[i]
        covering_step = covering[j]
        if covered_step.kind is StepKind.DESCENDANT:
            if covering_step.kind is StepKind.DESCENDANT:
                #  L(// P') ⊆ L(// Q')  iff  L(P') ⊆ L(// Q')
                return recurse(i + 1, j)
            # A concrete label cannot cover the arbitrary paths of '//'.
            return False
        if covering_step.kind is StepKind.DESCENDANT:
            # '//' absorbs element labels (not attribute steps), or matches
            # the empty path and moves on.
            absorb = covered_step.kind is StepKind.LABEL and recurse(i + 1, j)
            return absorb or recurse(i, j + 1)
        return covered_step == covering_step and recurse(i + 1, j + 1)

    return recurse(0, 0)


def contains_recursive(covering: PathLike, covered: PathLike) -> bool:
    """Drop-in replacement for ``contains`` that bypasses the memo table."""
    return containment_recursive(
        PathExpression.of(covered).steps, PathExpression.of(covering).steps
    )


@contextmanager
def recursive_containment() -> Iterator[None]:
    """Route every runtime ``contains`` call through the recursion.

    Inside the ``with`` block no verdict is read from or written to the
    runtime's memo table; the previous bindings are restored on exit,
    also when the block raises.
    """
    previous = [module.contains for module in _CALLERS]
    for module in _CALLERS:
        module.contains = contains_recursive
    try:
        yield
    finally:
        for module, original in zip(_CALLERS, previous):
            module.contains = original
