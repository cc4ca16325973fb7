"""The linear-scan key-implication engine.

:class:`repro.keys.implication.ImplicationEngine` prunes the target-to-context
variants of Σ twice before any containment test: by their first/last
concrete steps and through a per-context candidate list.  This engine is
the procedure that pruning replaced: every query scans every variant and
tests the variant's context by containment, one call per variant.  All
other rules are inherited, so the two engines differ only in the variant
scan.
"""

from __future__ import annotations

from typing import FrozenSet

from repro.keys import implication
from repro.keys.implication import ImplicationEngine
from repro.xmlmodel.paths import PathExpression, concat


class ScanImplicationEngine(ImplicationEngine):
    def _variant_covers(
        self,
        context: PathExpression,
        target: PathExpression,
        attributes: FrozenSet[str],
    ) -> bool:
        # ``implication.contains`` is looked up per call, so the recursive
        # containment switch of tests.oracles.containment applies here too.
        contains = implication.contains
        attributes_mask = self._universe.mask(attributes)
        scope = concat(context, target)
        for variant_context, variant_target, variant_attrs, _, _ in self._variants:
            if variant_attrs & ~attributes_mask:
                continue
            if not contains(variant_context, context):
                continue
            if not contains(variant_target, target):
                continue
            extra = attributes_mask & ~variant_attrs
            if extra and not self.attributes_exist(scope, self._universe.names(extra)):
                continue
            return True
        return False
