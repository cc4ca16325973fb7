"""The DOM-rebuilding rule shredder.

:class:`repro.transform.stream.RuleStreamer` binds rule variables straight
from the event stream.  The binder it replaced is kept here: every anchor
subtree is rebuilt as a DOM while its events stream past, and when the
anchor closes each variable's path is re-evaluated with
:meth:`PathExpression.evaluate`, variable by variable, exactly as
:func:`repro.transform.evaluate.evaluate_rule` does over a whole document.
Rules with fields on the root variable rebuild the entire document.

:class:`DomRuleStreamer` has the runtime streamer's interface — ``feed``,
``finish``, ``drain``, ``ready``, ``shard_result`` — so the differential
suite and the shred benchmark can drive both over the same events and
compare rows in order, and shard results field for field.  Serial
deduplication hashes the sorted :class:`~repro.relational.instance.Row`
freeze, as the runtime did before it moved to a value-tuple key.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.relational.instance import NULL, Row, Value
from repro.transform.rule import TableRule
from repro.transform.stream import RuleShardResult
from repro.transform.table_tree import TableTree
from repro.xmlmodel.events import ATTR, END, SKIP, START, TEXT, Event
from repro.xmlmodel.matching import PathNFA
from repro.xmlmodel.nodes import AttributeNode, ElementNode, Node, TextNode
from repro.xmlmodel.tree import XMLTree


def subtree_bindings(
    table_tree: TableTree, variables: List[str], anchor: str, node: Node
) -> List[Dict[str, Optional[Node]]]:
    """Expand the bindings of ``anchor``'s subtree for one matched node.

    The variable-by-variable expansion of ``evaluate_rule``, restricted to
    the anchor's subtree: an empty ``w[[P]]`` binds ``None`` (→ NULL),
    several nodes take the implicit product.
    """
    bindings: List[Dict[str, Optional[Node]]] = [{anchor: node}]
    for variable in variables:
        if variable == anchor:
            continue
        path = table_tree.path_from_parent(variable)
        parent = table_tree.parent(variable)
        expanded: List[Dict[str, Optional[Node]]] = []
        for binding in bindings:
            parent_node = binding.get(parent)
            nodes = path.evaluate(parent_node) if parent_node is not None else []
            if not nodes:
                new_binding = dict(binding)
                new_binding[variable] = None
                expanded.append(new_binding)
                continue
            for reached in nodes:
                new_binding = dict(binding)
                new_binding[variable] = reached
                expanded.append(new_binding)
        bindings = expanded
    return bindings


class _Anchor:
    """One anchor variable: its NFA, its subtree and its field rules."""

    def __init__(self, table_tree: TableTree, variable: str) -> None:
        self.variable = variable
        self.nfa = PathNFA(table_tree.path_from_parent(variable))
        self.variables = table_tree.descendants(variable, include_self=True)
        in_subtree = set(self.variables)
        self.fields: List[Tuple[str, str]] = [
            (rule.field, rule.variable)
            for rule in table_tree.rule.fields
            if rule.variable in in_subtree
        ]
        self.rows: List[Dict[str, Value]] = []
        self.matches = 0

    def null_row(self) -> Dict[str, Value]:
        return {field: NULL for field, _ in self.fields}

    def rows_for_node(self, table_tree: TableTree, node: Node) -> List[Dict[str, Value]]:
        result: List[Dict[str, Value]] = []
        for binding in subtree_bindings(table_tree, self.variables, self.variable, node):
            row: Dict[str, Value] = {}
            for field, variable in self.fields:
                bound = binding.get(variable)
                row[field] = NULL if bound is None else XMLTree.value(bound)
            result.append(row)
        return result


class _Frame:
    """Bookkeeping for one open element."""

    def __init__(
        self,
        states: Tuple[frozenset, ...],
        node: Optional[ElementNode],
        matched: Optional[List[_Anchor]],
    ) -> None:
        self.states = states
        self.node = node
        self.matched = matched
        #: Attribute name → final value, collected until the attribute
        #: section is complete.
        self.pending_attrs: Optional[Dict[str, str]] = None
        self.attrs_done = False


def child_value_parts(element: ElementNode) -> List[str]:
    """The per-child pieces of ``XMLTree._element_value`` for one element."""
    parts: List[str] = []
    for child in element.children:
        if child.is_text():
            stripped = child.text.strip()  # type: ignore[attr-defined]
            if stripped:
                parts.append(f"S:{stripped}")
        else:
            parts.append(
                f"{child.label}: {XMLTree._element_value(child)}"  # type: ignore[arg-type]
            )
    return parts


class DomRuleStreamer:
    """Evaluate one table rule over events by rebuilding anchor subtrees."""

    def __init__(
        self, rule: TableRule, deduplicate: bool = False, shard_mode: bool = False
    ) -> None:
        self.rule = rule
        self.table_tree = TableTree(rule)
        root = rule.root_variable
        self.anchors: List[_Anchor] = [
            _Anchor(self.table_tree, variable) for variable in self.table_tree.children(root)
        ]
        self.root_fields = rule.fields_of_variable(root)
        self.single_anchor = len(self.anchors) == 1 and not self.root_fields
        self._frames: List[_Frame] = []
        self._shard_mode = shard_mode
        self._seen: Optional[set] = set() if deduplicate and not shard_mode else None
        self._finished = False
        self.ready: List[Dict[str, Value]] = []
        self._dead_depth = 0
        self._vector_cache: Dict[
            Tuple[Tuple[frozenset, ...], str],
            Tuple[Tuple[frozenset, ...], Optional[List[_Anchor]], bool],
        ] = {}
        self._initial_vector = tuple(anchor.nfa.initial for anchor in self.anchors)
        self._initial_matched = [
            anchor
            for i, anchor in enumerate(self.anchors)
            if anchor.nfa.matches(self._initial_vector[i])
        ] or None
        self._attr_anchors = [
            (i, anchor) for i, anchor in enumerate(self.anchors)
            if anchor.nfa.has_attribute_steps
        ]

    def _emit(self, row: Dict[str, Value]) -> None:
        if self._seen is not None:
            key = Row(row)
            if key in self._seen:
                return
            self._seen.add(key)
        self.ready.append(row)

    def feed(self, event: Event) -> None:
        kind = event.kind
        frames = self._frames
        if kind == START:
            if self._dead_depth:
                self._dead_depth += 1
                return
            tag = event.name
            if frames:
                parent = frames[-1]
                if not parent.attrs_done:
                    self._resolve_attr_anchors(parent)
                cache_key = (parent.states, tag)
                cached = self._vector_cache.get(cache_key)
                if cached is None:
                    states = tuple(
                        anchor.nfa.advance(parent.states[i], tag)
                        for i, anchor in enumerate(self.anchors)
                    )
                    matched = [
                        anchor
                        for i, anchor in enumerate(self.anchors)
                        if anchor.nfa.matches(states[i])
                    ] or None
                    cached = (states, matched, not matched and not any(states))
                    self._vector_cache[cache_key] = cached
                states, matched, vector_dead = cached
                capturing = parent.node is not None
                if vector_dead and not capturing:
                    self._dead_depth = 1
                    return
            else:
                states = self._initial_vector
                matched = self._initial_matched
                capturing = bool(self.root_fields)
            node: Optional[ElementNode] = None
            if capturing or matched:
                node = ElementNode(tag)
                if frames and frames[-1].node is not None:
                    frames[-1].node.append_child(node)
            frames.append(_Frame(states, node, matched))
        elif kind == ATTR:
            if self._dead_depth:
                return
            frame = frames[-1]
            if frame.node is not None:
                frame.node.set_attribute(event.name, event.value or "")
            if self._attr_anchors:
                if frame.pending_attrs is None:
                    frame.pending_attrs = {}
                frame.pending_attrs[event.name] = event.value or ""
        elif kind == TEXT:
            if self._dead_depth:
                return
            frame = frames[-1]
            if not frame.attrs_done:
                self._resolve_attr_anchors(frame)
            if frame.node is not None:
                frame.node.append_child(TextNode(event.value or ""))
        elif kind == END:
            if self._dead_depth:
                self._dead_depth -= 1
                return
            frame = frames.pop()
            if not frame.attrs_done:
                self._resolve_attr_anchors(frame)
            if frame.matched:
                for anchor in frame.matched:
                    self._anchor_matched(anchor, frame.node)  # type: ignore[arg-type]
            if not frames and self.root_fields and frame.node is not None:
                row = {field: XMLTree.value(frame.node) for field in self.root_fields}
                self._emit(row)
        elif kind == SKIP:
            if self._dead_depth or not frames:
                return
            frame = frames[-1]
            if not frame.attrs_done:
                self._resolve_attr_anchors(frame)

    def _resolve_attr_anchors(self, frame: _Frame) -> None:
        frame.attrs_done = True
        if frame.pending_attrs is None:
            return
        for name, value in frame.pending_attrs.items():
            for i, anchor in self._attr_anchors:
                if anchor.nfa.matches_attribute(frame.states[i], name):
                    if frame.node is not None:
                        attr_node: Node = frame.node.attribute(name)  # type: ignore[assignment]
                    else:
                        attr_node = AttributeNode(name, value)
                    self._anchor_matched(anchor, attr_node)

    def _anchor_matched(self, anchor: _Anchor, node: Node) -> None:
        rows = anchor.rows_for_node(self.table_tree, node)
        anchor.matches += 1
        if self._shard_mode:
            anchor.rows.extend(rows)
        elif self.single_anchor:
            for row in rows:
                self._emit(row)
            if not anchor.rows:
                anchor.rows = [{}]
        else:
            anchor.rows.extend(rows)

    def finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        if self.root_fields:
            return
        if self.single_anchor:
            anchor = self.anchors[0]
            if not anchor.rows:
                self._emit(anchor.null_row())
            return
        blocks: List[List[Dict[str, Value]]] = []
        for anchor in self.anchors:
            blocks.append(anchor.rows if anchor.rows else [anchor.null_row()])
        partial: List[Dict[str, Value]] = [{}]
        for block in blocks:
            partial = [dict(done, **part) for done in partial for part in block]
        for row in partial:
            self._emit(row)

    def drain(self) -> List[Dict[str, Value]]:
        rows, self.ready = self.ready, []
        return rows

    def shard_result(self) -> RuleShardResult:
        if not self._shard_mode:
            raise RuntimeError("shard_result() requires shard_mode=True")
        root_parts: List[str] = []
        if self._frames:
            if len(self._frames) != 1:
                raise ValueError("shard slice left a non-root element open")
            frame = self._frames[0]
            if not frame.attrs_done:
                self._resolve_attr_anchors(frame)
            if self.root_fields and frame.node is not None:
                root_parts = child_value_parts(frame.node)
        return RuleShardResult(
            anchor_rows=[list(anchor.rows) for anchor in self.anchors],
            anchor_matches=[anchor.matches for anchor in self.anchors],
            root_parts=root_parts,
        )
