"""Streaming shredding: evaluating table rules over an event stream.

:func:`repro.transform.evaluate.evaluate_rule` materializes a full DOM and
then the *global* Cartesian product of variable bindings — fine for the
paper's worked examples, quadratic-and-worse in memory for data-scale
imports.  This module evaluates the same table rules over the event stream
of :mod:`repro.xmlmodel.events` instead, and never builds a node:

* the table tree's *anchor* variables (the children of the root variable —
  the only mappings allowed to use ``//``) are matched against the document
  with small per-path NFAs over the open-element stack;
* below an anchor every mapping path is simple, so an element binds a
  variable ``y`` exactly when its label path from the anchor spells
  ``path(anchor, y)``.  Each anchor's variables are compiled once per rule
  into a :class:`_BindingPlan` — a trie over those label paths — and each
  open element carries its trie position, advanced on ``start`` by one
  dictionary hit.  Elements that reach a variable get an integer record
  id, filed under the record of the parent variable's node; attribute
  variables bind when their element's attribute section closes;
* ``value(y)`` is assembled from event parts, for field-bound elements
  only, and collapsed by the same :func:`~repro.xmlmodel.tree.collapse_value`
  as ``XMLTree.value``;
* when an anchor closes, its bindings are expanded over record ids in the
  variable order of :meth:`TableTree.descendants`, so the paper's semantics
  — ``NULL`` for an empty binding set, an implicit product for multiple
  nodes (Example 2.5) — and the DOM evaluator's row order are preserved
  exactly: the final rows are the product of the per-anchor row blocks
  (pinned row for row by ``tests/property/test_shred_oracle_differential.py``
  against the DOM-rebuilding binder in ``tests/oracles/shred.py``, and as a
  bag against the DOM evaluator by ``test_shred_differential.py``).

Subtrees that can neither match an anchor, nor advance a binding plan, nor
contribute to a field value are *dead*: their events only bump a depth
counter.  Rules with a single anchor (the common shape — ``Rule(chapter)``,
``Rule(section)``, the universal relation) emit their tuples incrementally,
as each anchor closes; multi-anchor rules must buffer one row block per
anchor (values only) and emit the product at end of stream.  Peak memory is
therefore bounded by the records and values of the open anchors plus the
emitted values, not by the document.

Sharded execution (the parallel plane of :mod:`repro.parallel`)
---------------------------------------------------------------

Because every anchor match lives inside one top-level subtree of the root
(:mod:`repro.xmlmodel.shards`), per-rule state is *mergeable*: a
``RuleStreamer(rule, shard_mode=True)`` fed one shard's events accumulates
its per-anchor row blocks and binding counters into a
:class:`RuleShardResult` instead of emitting, and
:func:`merge_rule_shards` recombines any shard partition of the document —
concatenating the blocks in shard order and applying the NULL / implicit
product / deduplication semantics exactly once, globally — into the byte-
identical row list of the serial pass.  :func:`repro.parallel.run_sharded`
drives both modes: it feeds the serial streamers on its one serial loop,
or dispatches the shards onto a process pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.relational.instance import NULL, RelationInstance, Value
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.transform.rule import TableRule, Transformation
from repro.transform.table_tree import TableTree
from repro.xmlmodel.events import (
    ATTR,
    END,
    SKIP,
    START,
    TEXT,
    Event,
    EventSource,
    as_events,
)
from repro.xmlmodel.matching import PathNFA
from repro.xmlmodel.paths import StepKind
from repro.xmlmodel.tree import collapse_value


#: What ``NULL`` hashes as in a deduplication key — the placeholder of
#: ``Row._freeze``, so both keys tell the same rows apart.
_NULL_KEY = "\0NULL\0"


def _row_key(row: Dict[str, Value]) -> Tuple[object, ...]:
    """The deduplication key of one row: its values, in field order.

    Every row of one rule carries the same fields in the same order (anchor
    field order, then product order), so the value tuple tells rows apart
    exactly as the sorted freeze of :class:`~repro.relational.instance.Row`
    does, without sorting or building a ``Row``.
    """
    return tuple(_NULL_KEY if value is NULL else value for value in row.values())


# ----------------------------------------------------------------------
# Binding plans (compiled once per rule)
# ----------------------------------------------------------------------
class _BindingPlan:
    """One anchor's variables, compiled into a trie of label paths.

    Trie node 0 is the anchor element; ``step[n]`` maps a child label to
    the next node.  ``element_vars[n]`` are the variables (by position)
    an element at node ``n`` binds, ``attr_vars[n]`` maps an attribute
    name to the variables its attribute node binds, and ``valued[n]`` says
    whether an element there needs ``value()``.  Positions follow
    ``TableTree.descendants(anchor)``; a variable whose path steps out of
    an attribute node can never bind and gets no position, so its fields
    are always ``NULL``.
    """

    __slots__ = (
        "parents",
        "expand",
        "fields",
        "step",
        "element_vars",
        "attr_vars",
        "valued",
        "anchor_valued",
    )

    def __init__(self, table_tree: TableTree, anchor: str) -> None:
        field_variables = {rule.variable for rule in table_tree.rule.fields}
        positions: Dict[str, int] = {anchor: 0}
        self.parents: List[int] = [0]
        self.step: List[Dict[str, int]] = [{}]
        self.element_vars: List[List[int]] = [[]]
        self.attr_vars: List[Dict[str, List[int]]] = [{}]
        self.valued: List[bool] = [False]
        self.anchor_valued = anchor in field_variables
        below = table_tree.descendants(anchor)
        for variable in below:
            steps = table_tree.path_between(anchor, variable).steps
            if any(step.kind is StepKind.ATTRIBUTE for step in steps[:-1]):
                continue
            position = len(self.parents)
            positions[variable] = position
            self.parents.append(positions[table_tree.parent(variable)])
            node = 0
            for step in steps[:-1]:
                node = self._child(node, step.name)
            last = steps[-1]
            if last.kind is StepKind.ATTRIBUTE:
                self.attr_vars[node].setdefault(last.name, []).append(position)
            else:
                node = self._child(node, last.name)
                self.element_vars[node].append(position)
                if variable in field_variables:
                    self.valued[node] = True
        #: (position, parent position) for every position past the anchor.
        self.expand = [(i, self.parents[i]) for i in range(1, len(self.parents))]
        in_subtree = {anchor, *below}
        self.fields: List[Tuple[str, Optional[int]]] = [
            (rule.field, positions.get(rule.variable))
            for rule in table_tree.rule.fields
            if rule.variable in in_subtree
        ]

    def _child(self, node: int, label: str) -> int:
        child = self.step[node].get(label)
        if child is None:
            child = len(self.step)
            self.step[node][label] = child
            self.step.append({})
            self.element_vars.append([])
            self.attr_vars.append({})
            self.valued.append(False)
        return child

    def attribute_rows(self, value: str) -> List[Dict[str, Value]]:
        """The rows of an anchor bound to an attribute node.

        Nothing is reachable from an attribute node, so every other
        variable binds ``None`` and the block is one row.
        """
        return [
            {name: value if position == 0 else NULL for name, position in self.fields}
        ]


class _Scope:
    """The records of one anchor match while its subtree streams past.

    Record 0 is the anchor node.  ``kids[(record, position)]`` lists, in
    document order, the records bound to variable ``position`` below
    ``record`` — the ``w[[P]]`` of the paper for ``w`` the parent
    variable's node.  ``current[position]`` is the record last bound to a
    variable: all of its nodes sit at one depth below the anchor, so the
    one that is an ancestor of a binding element is the last one opened.
    """

    __slots__ = ("plan", "values", "kids", "current")

    def __init__(self, plan: _BindingPlan) -> None:
        self.plan = plan
        self.values: List[Optional[str]] = [None]
        self.kids: Dict[Tuple[int, int], List[int]] = {}
        self.current = [0] * len(plan.parents)

    def bind(self, positions: List[int], value: Optional[str] = None) -> int:
        record = len(self.values)
        self.values.append(value)
        parents = self.plan.parents
        current = self.current
        kids = self.kids
        for position in positions:
            key = (current[parents[position]], position)
            bucket = kids.get(key)
            if bucket is None:
                kids[key] = [record]
            else:
                bucket.append(record)
            current[position] = record
        return record

    def rows(self) -> List[Dict[str, Value]]:
        """Expand the bindings variable by variable, as ``evaluate_rule``."""
        kids = self.kids
        bindings: List[Tuple[Optional[int], ...]] = [(0,)]
        for position, parent in self.plan.expand:
            grown: List[Tuple[Optional[int], ...]] = []
            for binding in bindings:
                record = binding[parent]
                bucket = kids.get((record, position)) if record is not None else None
                if bucket is None:
                    grown.append(binding + (None,))
                else:
                    for child in bucket:
                        grown.append(binding + (child,))
            bindings = grown
        values = self.values
        fields = self.plan.fields
        rows: List[Dict[str, Value]] = []
        for binding in bindings:
            row: Dict[str, Value] = {}
            for name, position in fields:
                record = None if position is None else binding[position]
                row[name] = NULL if record is None else values[record]
            rows.append(row)
        return rows


class _Anchor:
    """One anchor variable: its NFA, its binding plan and its row block."""

    __slots__ = ("nfa", "plan", "rows", "matches")

    def __init__(self, nfa: PathNFA, plan: _BindingPlan) -> None:
        self.nfa = nfa
        self.plan = plan
        #: Completed row blocks (field → value dicts), one entry per binding.
        self.rows: List[Dict[str, Value]] = []
        #: Anchor nodes matched so far (the shard-result binding counter).
        self.matches = 0

    def null_row(self) -> Dict[str, Value]:
        return {name: NULL for name, _ in self.plan.fields}


class _CompiledRule:
    """Everything about a rule that does not depend on the document."""

    __slots__ = (
        "nfas",
        "plans",
        "root_fields",
        "initial_vector",
        "initial_matched",
        "attr_anchors",
        "vector_cache",
    )

    def __init__(self, rule: TableRule) -> None:
        table_tree = TableTree(rule)
        root = rule.root_variable
        anchors = table_tree.children(root)
        self.nfas = [PathNFA(table_tree.path_from_parent(anchor)) for anchor in anchors]
        self.plans = [_BindingPlan(table_tree, anchor) for anchor in anchors]
        self.root_fields = rule.fields_of_variable(root)
        self.initial_vector = tuple(nfa.initial for nfa in self.nfas)
        self.initial_matched = tuple(
            i for i, nfa in enumerate(self.nfas) if nfa.matches(self.initial_vector[i])
        )
        #: Anchors whose path can end in an attribute node.
        self.attr_anchors = [
            i for i, nfa in enumerate(self.nfas) if nfa.has_attribute_steps
        ]
        #: (parent state vector, tag) → (child vector, indices of matching
        #: anchors, vector is dead: no match and no live state)
        self.vector_cache: Dict[
            Tuple[Tuple[frozenset, ...], str],
            Tuple[Tuple[frozenset, ...], Tuple[int, ...], bool],
        ] = {}

    def advance(
        self, states: Tuple[frozenset, ...], tag: str
    ) -> Tuple[Tuple[frozenset, ...], Tuple[int, ...], bool]:
        nfas = self.nfas
        child = tuple(nfa.advance(states[i], tag) for i, nfa in enumerate(nfas))
        matched = tuple(i for i, nfa in enumerate(nfas) if nfa.matches(child[i]))
        cached = (child, matched, not matched and not any(child))
        self.vector_cache[(states, tag)] = cached
        return cached


#: Bound on cached compiled rules (one entry per distinct rule structure).
_COMPILED_LIMIT = 1 << 8

#: A compiled rule whose transition caches grew past this many anchor
#: vectors is compiled afresh for the next streamer, so a long-lived
#: process over ever-new tags does not keep every transition it saw.
_VECTOR_CACHE_LIMIT = 1 << 12

_compiled: Dict[Tuple[object, ...], _CompiledRule] = {}


def _compile(rule: TableRule) -> _CompiledRule:
    """The compiled form of ``rule``, shared by every streamer of it.

    Keyed by the rule's structure rather than its identity: a rule is
    mutable, and equal rules share one plan and one transition cache.
    """
    key = (rule.root_variable, tuple(rule.mappings), tuple(rule.fields))
    compiled = _compiled.get(key)
    if compiled is None or len(compiled.vector_cache) >= _VECTOR_CACHE_LIMIT:
        compiled = _CompiledRule(rule)
        if len(_compiled) >= _COMPILED_LIMIT:
            _compiled.clear()
        _compiled[key] = compiled
    return compiled


class _Frame:
    """Bookkeeping for one open element."""

    __slots__ = ("states", "opened", "binds", "parts", "valued", "attrs", "attrs_done")

    def __init__(
        self,
        states: Tuple[frozenset, ...],
        opened: List[Tuple[_Anchor, _Scope]],
        binds: List[Tuple[_Scope, int]],
        parts: Optional[List[str]],
        valued: List[Tuple[_Scope, int]],
    ) -> None:
        self.states = states
        #: Anchors matched at this element, each with its binding scope.
        self.opened = opened
        #: (scope, trie node) for every anchor match this element is inside
        #: and whose plan it is still on.
        self.binds = binds
        #: Value pieces of the children, when this element's value (or an
        #: ancestor's) is needed; ``None`` otherwise.
        self.parts = parts
        #: (scope, record) pairs that take this element's value.
        self.valued = valued
        #: Attribute name → value, collected until the attribute section is
        #: complete.  XML allows one attribute per name; later occurrences
        #: replace earlier ones (as in the DOM parser), so attribute
        #: variables bind one node with the *final* value.
        self.attrs: Optional[Dict[str, str]] = None
        self.attrs_done = False


class RuleStreamer:
    """Evaluate one table rule over an event stream, emitting rows.

    Feed events with :meth:`feed` (completed rows accumulate in
    :attr:`ready`, or go straight to ``sink`` when one is given), then call
    :meth:`finish` once the stream is exhausted to flush the remaining rows
    (the NULL row of an unmatched rule, or the multi-anchor product).
    """

    def __init__(
        self,
        rule: TableRule,
        deduplicate: bool = False,
        shard_mode: bool = False,
        sink: Optional[Callable[[Dict[str, Value]], object]] = None,
    ) -> None:
        self.rule = rule
        compiled = self._compiled = _compile(rule)
        self.anchors: List[_Anchor] = [
            _Anchor(nfa, plan) for nfa, plan in zip(compiled.nfas, compiled.plans)
        ]
        self.root_fields = compiled.root_fields
        self.single_anchor = len(self.anchors) == 1 and not self.root_fields
        self._frames: List[_Frame] = []
        #: Shard mode: accumulate per-anchor row blocks for a later global
        #: merge instead of emitting — deduplication and the NULL / product
        #: semantics then happen exactly once, in :func:`merge_rule_shards`.
        self._shard_mode = shard_mode
        self._seen: Optional[set] = set() if deduplicate and not shard_mode else None
        self._finished = False
        #: Rows completed so far and not yet drained by the caller.
        self.ready: List[Dict[str, Value]] = []
        self._sink = sink if sink is not None else self.ready.append
        #: Depth inside a *dead region*: a subtree whose root advanced every
        #: anchor NFA to the empty state without matching, left every
        #: binding plan and sits outside any needed value.  Nothing can bind
        #: anywhere below such an element — an exact automaton fact, true on
        #: any document — so events inside it only bump this counter.
        self._dead_depth = 0

    # ------------------------------------------------------------------
    def _emit(self, row: Dict[str, Value]) -> None:
        if self._seen is not None:
            key = _row_key(row)
            if key in self._seen:
                return
            self._seen.add(key)
        self._sink(row)

    def feed(self, event: Event) -> None:
        kind = event.kind
        frames = self._frames
        if kind == START:
            if self._dead_depth:
                self._dead_depth += 1
                return
            tag = event.name
            compiled = self._compiled
            binds: List[Tuple[_Scope, int]] = []
            if frames:
                parent = frames[-1]
                if not parent.attrs_done:
                    self._close_attrs(parent)
                cached = compiled.vector_cache.get((parent.states, tag))
                if cached is None:
                    cached = compiled.advance(parent.states, tag)
                states, matched, vector_dead = cached
                for scope, node in parent.binds:
                    child = scope.plan.step[node].get(tag)
                    if child is not None:
                        binds.append((scope, child))
                capturing = parent.parts is not None
                if vector_dead and not binds and not capturing:
                    self._dead_depth = 1
                    return
            else:
                states = compiled.initial_vector
                matched = compiled.initial_matched
                capturing = bool(self.root_fields)
            valued: List[Tuple[_Scope, int]] = []
            for scope, node in binds:
                plan = scope.plan
                positions = plan.element_vars[node]
                if positions:
                    record = scope.bind(positions)
                    if plan.valued[node]:
                        valued.append((scope, record))
            opened: List[Tuple[_Anchor, _Scope]] = []
            for index in matched:
                anchor = self.anchors[index]
                scope = _Scope(anchor.plan)
                opened.append((anchor, scope))
                binds.append((scope, 0))
                if anchor.plan.anchor_valued:
                    valued.append((scope, 0))
            parts: Optional[List[str]] = [] if capturing or valued else None
            frames.append(_Frame(states, opened, binds, parts, valued))
        elif kind == ATTR:
            if self._dead_depth:
                return
            frame = frames[-1]
            if frame.attrs is None:
                frame.attrs = {event.name: event.value or ""}
            else:
                frame.attrs[event.name] = event.value or ""
        elif kind == TEXT:
            if self._dead_depth:
                return
            frame = frames[-1]
            if not frame.attrs_done:
                self._close_attrs(frame)
            if frame.parts is not None:
                text = (event.value or "").strip()
                if text:
                    frame.parts.append("S:" + text)
        elif kind == END:
            if self._dead_depth:
                self._dead_depth -= 1
                return
            frame = frames.pop()
            if not frame.attrs_done:
                self._close_attrs(frame)
            parts = frame.parts
            if parts is not None:
                if frame.attrs:
                    parts = [
                        f"@{name}:{value}" for name, value in frame.attrs.items()
                    ] + parts
                value = collapse_value(parts)
                if frames and frames[-1].parts is not None:
                    frames[-1].parts.append(f"{event.name}: {value}")
                for scope, record in frame.valued:
                    scope.values[record] = value
                if not frames and self.root_fields:
                    self._emit({name: value for name in self.root_fields})
            for anchor, scope in frame.opened:
                self._anchor_matched(anchor, scope.rows())
        elif kind == SKIP:
            # A skipped subtree.  The skip plane only fast-forwards labels
            # whose entire subtree is invisible to every interesting path —
            # and rules that capture element values disable skipping outright
            # — so there is nothing to bind here.  The parent's attribute
            # section is complete (a child element appeared).
            if self._dead_depth or not frames:
                return
            frame = frames[-1]
            if not frame.attrs_done:
                self._close_attrs(frame)

    def _close_attrs(self, frame: _Frame) -> None:
        """Bind attribute variables and anchors once the section closed.

        Deferred so that a duplicated attribute name binds one node with its
        final value — exactly what the DOM holds after parsing.
        """
        frame.attrs_done = True
        attrs = frame.attrs
        if attrs is None:
            return
        for scope, node in frame.binds:
            for name, positions in scope.plan.attr_vars[node].items():
                value = attrs.get(name)
                if value is not None:
                    scope.bind(positions, value)
        attr_anchors = self._compiled.attr_anchors
        if attr_anchors:
            for name, value in attrs.items():
                for i in attr_anchors:
                    anchor = self.anchors[i]
                    if anchor.nfa.matches_attribute(frame.states[i], name):
                        self._anchor_matched(anchor, anchor.plan.attribute_rows(value))

    def _anchor_matched(self, anchor: _Anchor, rows: List[Dict[str, Value]]) -> None:
        anchor.matches += 1
        if self._shard_mode:
            anchor.rows.extend(rows)
        elif self.single_anchor:
            for row in rows:
                self._emit(row)
            # remember that the anchor matched so finish() skips the NULL row
            if not anchor.rows:
                anchor.rows = [{}]
        else:
            anchor.rows.extend(rows)

    def finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        if self.root_fields:
            return  # the row was emitted when the root element closed
        if self.single_anchor:
            anchor = self.anchors[0]
            if not anchor.rows:
                self._emit(anchor.null_row())
            return
        # Multi-anchor: the bindings of distinct anchors are independent, so
        # the full binding set is the product of the per-anchor row blocks.
        blocks: List[List[Dict[str, Value]]] = []
        for anchor in self.anchors:
            blocks.append(anchor.rows if anchor.rows else [anchor.null_row()])
        partial: List[Dict[str, Value]] = [{}]
        for block in blocks:
            partial = [dict(done, **part) for done in partial for part in block]
        for row in partial:
            self._emit(row)

    def drain(self) -> List[Dict[str, Value]]:
        rows = self.ready[:]
        self.ready.clear()
        return rows

    # ------------------------------------------------------------------
    # Sharded execution
    # ------------------------------------------------------------------
    @property
    def anchors_root_bound(self) -> bool:
        """Does any anchor bind the document root itself?

        Such a rule (anchor path ``.`` or a bare ``//``) needs the whole
        document as one subtree and cannot be sharded; the parallel
        executor falls back to the serial plane when it sees one.
        """
        return bool(self._compiled.initial_matched)

    def shard_result(self) -> "RuleShardResult":
        """Extract this shard's mergeable state (shard mode only).

        Call after feeding the shard's prologue and slice events; the root
        element must be the only frame still open (slices contain complete
        top-level subtrees, so anything else means a torn shard).
        """
        if not self._shard_mode:
            raise RuntimeError("shard_result() requires RuleStreamer(shard_mode=True)")
        root_parts: List[str] = []
        if self._frames:
            if len(self._frames) != 1:
                raise ValueError("shard slice left a non-root element open")
            frame = self._frames[0]
            if not frame.attrs_done:
                self._close_attrs(frame)
            if self.root_fields and frame.parts is not None:
                # Children only: the root's attributes are prologue state,
                # shared by every shard and contributed once by the merger.
                root_parts = list(frame.parts)
        return RuleShardResult(
            anchor_rows=[list(anchor.rows) for anchor in self.anchors],
            anchor_matches=[anchor.matches for anchor in self.anchors],
            root_parts=root_parts,
        )


@dataclass
class RuleShardResult:
    """One rule's mergeable state after one shard of the document.

    ``anchor_rows[i]`` is the row bag anchor ``i`` produced inside the
    shard (in document order); ``anchor_matches[i]`` counts its anchor-node
    bindings — pure telemetry for shard-balance diagnostics, since a
    matched anchor always contributes at least one row (the binding
    expansion never returns an empty set) and the merge therefore decides
    the NULL row from the row blocks alone; ``root_parts`` carries the
    shard's contribution to ``value(root)`` for rules with fields on the
    root variable.  All fields are plain picklable values — this is
    exactly what crosses the process boundary in :mod:`repro.parallel`.
    """

    anchor_rows: List[List[Dict[str, Value]]]
    anchor_matches: List[int] = field(default_factory=list)
    root_parts: List[str] = field(default_factory=list)

    def _matches(self) -> List[int]:
        return self.anchor_matches or [0] * len(self.anchor_rows)

    def merge(self, other: "RuleShardResult") -> "RuleShardResult":
        """Append ``other``'s shard state after this one — in place.

        The binary form of :func:`merge_rule_shards`' concatenation step:
        per-anchor row blocks, match counters and root value parts all
        concatenate in document (shard) order, associatively.  ``other``
        is left untouched.  The global NULL / product / deduplication
        semantics still happen exactly once, when the accumulated state is
        rendered by :func:`merge_rule_shards`.
        """
        if len(other.anchor_rows) != len(self.anchor_rows):
            raise ValueError(
                "cannot merge shard results with different anchor counts"
            )
        for mine, theirs in zip(self.anchor_rows, other.anchor_rows):
            mine.extend(theirs)
        self.anchor_matches = [
            a + b for a, b in zip(self._matches(), other._matches())
        ]
        self.root_parts.extend(other.root_parts)
        return self

    def subtract(self, other: "RuleShardResult") -> "RuleShardResult":
        """Retract ``other``'s shard state from the tail — inverse of merge.

        ``merge(a, b).subtract(b)`` restores ``a``.  Every per-anchor block
        of ``other`` must be the suffix of the corresponding block here
        (row dicts compare with the NULL singleton identity-matched by the
        container comparison); the suffixes are verified before anything is
        dropped, so subtracting a state that was never merged raises.
        """
        if len(other.anchor_rows) != len(self.anchor_rows):
            raise ValueError(
                "cannot subtract shard results with different anchor counts"
            )
        for mine, theirs in zip(self.anchor_rows, other.anchor_rows):
            count = len(theirs)
            if count and (len(mine) < count or mine[-count:] != theirs):
                raise ValueError(
                    "subtracted shard result is not the row suffix of this one"
                )
        matches = [a - b for a, b in zip(self._matches(), other._matches())]
        if any(count < 0 for count in matches):
            raise ValueError(
                "subtracted shard result reports more anchor matches than merged"
            )
        parts = len(other.root_parts)
        if parts and (
            len(self.root_parts) < parts or self.root_parts[-parts:] != other.root_parts
        ):
            raise ValueError(
                "subtracted shard result is not the root-value suffix of this one"
            )
        for mine, theirs in zip(self.anchor_rows, other.anchor_rows):
            if theirs:
                del mine[-len(theirs):]
        self.anchor_matches = matches
        if parts:
            del self.root_parts[-parts:]
        return self


def merge_rule_shards(
    rule: TableRule,
    shard_results: Sequence[RuleShardResult],
    deduplicate: bool = True,
    root_attr_parts: Sequence[str] = (),
) -> List[Dict[str, Value]]:
    """Merge a shard partition's per-rule states into the serial row list.

    The merge is associative and order-sensitive in exactly one way: shard
    results must be passed in document order.  Per-anchor row blocks are
    concatenated (restoring the serial accumulation order), then the NULL
    row, the implicit multi-anchor product and deduplication — the
    *global* decisions a single shard cannot make — are applied once, the
    same way :meth:`RuleStreamer.finish` applies them at end of stream.
    ``root_attr_parts`` are the ``@name:value`` pieces of the root's own
    attributes for rules with root fields.
    """
    template = RuleStreamer(rule, shard_mode=True)
    rows: List[Dict[str, Value]]
    if template.root_fields:
        parts = list(root_attr_parts)
        for result in shard_results:
            parts.extend(result.root_parts)
        value = collapse_value(parts)
        rows = [{field_name: value for field_name in template.root_fields}]
    else:
        blocks: List[List[Dict[str, Value]]] = []
        for index, anchor in enumerate(template.anchors):
            block = [
                row for result in shard_results for row in result.anchor_rows[index]
            ]
            blocks.append(block if block else [anchor.null_row()])
        rows = [{}]
        for block in blocks:
            rows = [dict(done, **part) for done in rows for part in block]
    if deduplicate:
        seen: set = set()
        unique: List[Dict[str, Value]] = []
        for row in rows:
            key = _row_key(row)
            if key not in seen:
                seen.add(key)
                unique.append(row)
        rows = unique
    return rows


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def iter_rule_rows(
    rule: TableRule,
    source: EventSource,
    deduplicate: bool = False,
    strip_whitespace: bool = True,
    plan=None,
) -> Iterator[Dict[str, Value]]:
    """Lazily yield the rows ``Rule(R)`` produces over ``source``.

    Rows are yielded as soon as they complete (per anchor subtree for
    single-anchor rules).  The bag of rows equals
    ``evaluate_rule(rule, tree, deduplicate=False)``; with
    ``deduplicate=True`` each distinct row is yielded once (set semantics).
    ``plan`` is an optional compiled :class:`~repro.xmlmodel.static
    .StaticPlan` whose skip set (empty whenever any rule captures element
    values) lets the tokenizer fast-forward schema-invisible subtrees with
    identical rows.
    """
    skip = plan.skipset if plan is not None and plan.skipset else None
    streamer = RuleStreamer(rule, deduplicate=deduplicate)
    for event in as_events(source, strip_whitespace=strip_whitespace, skip=skip):
        streamer.feed(event)
        if streamer.ready:
            yield from streamer.drain()
    streamer.finish()
    yield from streamer.drain()


def stream_evaluate_rule(
    rule: TableRule,
    source: EventSource,
    schema: Optional[RelationSchema] = None,
    deduplicate: bool = True,
    strip_whitespace: bool = True,
    plan=None,
) -> RelationInstance:
    """Streaming counterpart of :func:`repro.transform.evaluate.evaluate_rule`."""
    target_schema = schema if schema is not None else rule.schema()
    instance = RelationInstance(target_schema)
    for row in iter_rule_rows(
        rule,
        source,
        deduplicate=deduplicate,
        strip_whitespace=strip_whitespace,
        plan=plan,
    ):
        instance.add_row(row)
    return instance


def target_schema(rule: TableRule, schema: Optional[DatabaseSchema]) -> RelationSchema:
    """The schema ``rule`` shreds into: ``schema``'s relation of that name
    when there is one, else the rule's own."""
    if schema is not None and rule.relation in schema:
        return schema.relation(rule.relation)
    return rule.schema()


class StreamShredder:
    """Shred a document through a whole transformation in one pass.

    Every rule gets its own :class:`RuleStreamer`, emitting straight into
    its relation instance; :attr:`feeds` lists their ``feed`` callables for
    the one serial loop (:func:`repro.parallel.run_serial`), so a
    multi-relation import reads the input exactly once.
    """

    def __init__(
        self,
        transformation: Transformation,
        schema: Optional[DatabaseSchema] = None,
        deduplicate: bool = True,
    ) -> None:
        self.transformation = transformation
        self._instances: Dict[str, RelationInstance] = {}
        self._streamers: List[RuleStreamer] = []
        for rule in transformation:
            instance = RelationInstance(target_schema(rule, schema))
            self._instances[rule.relation] = instance
            self._streamers.append(
                RuleStreamer(rule, deduplicate=deduplicate, sink=instance.add_row)
            )
        self.feeds = [streamer.feed for streamer in self._streamers]

    def feed(self, event: Event) -> None:
        for feed in self.feeds:
            feed(event)

    def finish(self) -> Dict[str, RelationInstance]:
        for streamer in self._streamers:
            streamer.finish()
        return dict(self._instances)


def stream_evaluate_transformation(
    transformation: Transformation,
    source: EventSource,
    schema: Optional[DatabaseSchema] = None,
    deduplicate: bool = True,
    strip_whitespace: bool = True,
    jobs: Optional[int] = None,
    plan=None,
) -> Dict[str, RelationInstance]:
    """Streaming counterpart of :func:`evaluate_transformation` (one pass).

    Runs :func:`repro.parallel.run_sharded`: ``jobs`` above 1 (default:
    ``REPRO_JOBS``, else 1) shards text and path sources onto a process
    pool, byte-identical; ``plan`` is an optional compiled
    :class:`~repro.xmlmodel.static.StaticPlan` whose skip set fast-forwards
    schema-invisible subtrees at the tokenizer, rows unchanged.
    """
    from repro.parallel import run_sharded

    run = run_sharded(
        source,
        transformation=transformation,
        schema=schema,
        deduplicate=deduplicate,
        strip_whitespace=strip_whitespace,
        jobs=jobs,
        plan=plan,
    )
    return run.instances
