"""Differential pinning of the streaming data plane against the DOM plane.

Two independent implementations of the Section 2 semantics exist after
PR 3: the DOM evaluator/checker (reference) and the streaming
evaluator/checker (fast path).  These properties force them to agree:

* **Shredding** — for random table rules and random documents, the
  streaming evaluator must produce the DOM evaluator's bag of tuples
  *tuple-for-tuple* (and the same set under set semantics), both when fed
  replayed tree events and when fed serialized text through the tokenizer.

* **Key checking** — for random key sets (attribute targets, attribute
  contexts, ``//`` everywhere, empty attribute sets) over documents with
  naturally occurring duplicate values and missing attributes, the
  streaming checker must report the same verdicts and the same violations
  (kind, context node, witness node ids) as ``keys.satisfaction``.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.keys.key import XMLKey
from repro.keys.satisfaction import satisfies, violations
from repro.keys.stream import stream_satisfies, stream_violations
from repro.transform.evaluate import evaluate_rule
from repro.transform.rule import TableRule
from repro.transform.stream import stream_evaluate_rule
from repro.xmlmodel.builder import document, element, text
from repro.xmlmodel.serializer import serialize

pytestmark = pytest.mark.slow

differential_settings = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

LABELS = ["a", "b", "c"]
ATTRIBUTES = ["x", "y"]
VALUES = ["0", "1"]


# ----------------------------------------------------------------------
# Random documents (small label/value vocabulary → natural collisions)
# ----------------------------------------------------------------------
@st.composite
def xml_documents(draw):
    def build(depth):
        node = element(draw(st.sampled_from(LABELS)))
        for name in ATTRIBUTES:
            if draw(st.booleans()):
                node.set_attribute(name, draw(st.sampled_from(VALUES)))
        if depth < 3:
            for _ in range(draw(st.integers(min_value=0, max_value=3))):
                if draw(st.integers(min_value=0, max_value=4)) == 0:
                    node.append_child(text(draw(st.sampled_from(["t", "u"]))))
                else:
                    node.append_child(build(depth + 1))
        return node

    return document(build(0))


# ----------------------------------------------------------------------
# Random table rules (anchors may use // and @; inner paths are simple)
# ----------------------------------------------------------------------
@st.composite
def anchor_paths(draw):
    parts = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        prefix = draw(st.sampled_from(["//", ""]))
        parts.append(prefix + draw(st.sampled_from(LABELS)))
    if draw(st.booleans()):
        parts.append("@" + draw(st.sampled_from(ATTRIBUTES)))
    return "/".join(parts)


@st.composite
def simple_paths(draw):
    parts = [
        draw(st.sampled_from(LABELS))
        for _ in range(draw(st.integers(min_value=1, max_value=2)))
    ]
    if draw(st.booleans()):
        parts.append("@" + draw(st.sampled_from(ATTRIBUTES)))
    return "/".join(parts)


@st.composite
def table_rules(draw):
    rule = TableRule("R")
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        # A root-only rule: one field holding value() of the whole document.
        rule.add_field("f0", rule.root_variable)
        return rule
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"v{counter[0]}"

    leaves = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        anchor = fresh()
        rule.add_mapping(anchor, rule.root_variable, draw(anchor_paths()))
        frontier = [anchor]
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            parent = draw(st.sampled_from(frontier))
            child = fresh()
            rule.add_mapping(child, parent, draw(simple_paths()))
            frontier.append(child)
        # Leaves of this anchor subtree: variables without outgoing mappings.
        sources = {m.source for m in rule.mappings}
        leaves.extend(v for v in frontier if v not in sources)
    # Fields on a random non-empty subset of the leaves; the other leaves
    # only multiply rows.
    leaves = list(dict.fromkeys(leaves))
    chosen = [leaf for leaf in leaves if draw(st.booleans())]
    if not chosen:
        chosen = [draw(st.sampled_from(leaves))]
    for index, leaf in enumerate(chosen):
        rule.add_field(f"f{index}", leaf)
    return rule


# ----------------------------------------------------------------------
# Random keys
# ----------------------------------------------------------------------
@st.composite
def key_paths(draw, allow_attribute=True):
    parts = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        parts.append(draw(st.sampled_from(["//", ""])) + draw(st.sampled_from(LABELS)))
    body = "/".join(parts).replace("///", "//")
    if allow_attribute and draw(st.integers(min_value=0, max_value=3)) == 0:
        body += "/@" + draw(st.sampled_from(ATTRIBUTES))
    return body


@st.composite
def xml_keys(draw):
    context = draw(st.one_of(st.just("."), key_paths()))
    target = draw(key_paths())
    attributes = draw(st.lists(st.sampled_from(ATTRIBUTES), max_size=2, unique=True))
    return XMLKey(context, target, attributes)


def row_bag(instance):
    return Counter(instance.rows)


class TestStreamingEvaluatorDifferential:
    @differential_settings
    @given(rule=table_rules(), tree=xml_documents())
    def test_bag_semantics_agree_on_tree_events(self, rule, tree):
        dom = evaluate_rule(rule, tree, deduplicate=False)
        stream = stream_evaluate_rule(rule, tree, deduplicate=False)
        assert row_bag(dom) == row_bag(stream)

    @differential_settings
    @given(rule=table_rules(), tree=xml_documents())
    def test_set_semantics_agree(self, rule, tree):
        dom = evaluate_rule(rule, tree, deduplicate=True)
        stream = stream_evaluate_rule(rule, tree, deduplicate=True)
        assert set(dom.rows) == set(stream.rows)
        assert len(stream) == len(set(stream.rows))

    @differential_settings
    @given(rule=table_rules(), tree=xml_documents())
    def test_tokenized_text_agrees_with_dom(self, rule, tree):
        # Through the full pipeline: serialize → tokenizer → streaming
        # evaluator, against the DOM evaluator on the reparsed tree.
        from repro.xmlmodel.parser import parse_document

        compact = serialize(tree, indent=0)
        dom = evaluate_rule(rule, parse_document(compact), deduplicate=False)
        stream = stream_evaluate_rule(rule, compact, deduplicate=False)
        assert row_bag(dom) == row_bag(stream)


def canonical(found):
    return sorted(
        (v.key.text, v.context_node_id, v.kind, tuple(sorted(v.node_ids))) for v in found
    )


class TestStreamingCheckerDifferential:
    @differential_settings
    @given(tree=xml_documents(), keys=st.lists(xml_keys(), min_size=1, max_size=4))
    def test_violations_agree_with_dom(self, tree, keys):
        dom = [v for key in keys for v in violations(tree, key)]
        stream = stream_violations(tree, keys)
        assert canonical(stream) == canonical(dom)

    @differential_settings
    @given(tree=xml_documents(), keys=st.lists(xml_keys(), min_size=1, max_size=4))
    def test_verdicts_agree_with_dom(self, tree, keys):
        assert stream_satisfies(tree, keys) == all(satisfies(tree, key) for key in keys)

    @differential_settings
    @given(tree=xml_documents(), keys=st.lists(xml_keys(), min_size=1, max_size=3))
    def test_tokenized_text_agrees_with_dom(self, tree, keys):
        from repro.xmlmodel.parser import parse_document

        compact = serialize(tree, indent=0)
        reparsed = parse_document(compact)
        dom = [v for key in keys for v in violations(reparsed, key)]
        stream = stream_violations(compact, keys)
        assert canonical(stream) == canonical(dom)
