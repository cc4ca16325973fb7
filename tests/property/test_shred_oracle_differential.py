"""Order-exact pinning of the event-native shredder against its reference.

:class:`repro.transform.stream.RuleStreamer` binds rule variables straight
from events; :class:`tests.oracles.shred.DomRuleStreamer` rebuilds every
anchor subtree as a DOM and re-evaluates each variable's path.  The
bag-level suite (``test_shred_differential.py``) would pass an ordering
drift, so these properties compare the two streamers over the same events
*row for row, in order*:

* **Serial mode** — with deduplication off and on, over tree events,
  tokenized compact text and whitespace-preserving indented text, and
  over event streams edited to carry duplicated attribute names and
  ``skip`` events in place of whole subtrees;
* **Shard mode** — every shard of a split document, including the
  prologue replay without root attributes for shards k > 0 and the
  empty-slice prologue state, must give equal ``shard_result()`` fields:
  per-anchor row blocks, anchor match counts and root value parts.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_shred_differential import table_rules, xml_documents

from repro.transform.stream import RuleStreamer
from repro.xmlmodel.builder import document, element, text
from repro.xmlmodel.events import ATTR, END, SKIP, START, Event, as_events, iter_events
from repro.xmlmodel.serializer import serialize
from repro.xmlmodel.shards import split_document
from tests.oracles.shred import DomRuleStreamer

pytestmark = pytest.mark.slow

differential_settings = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def shred(streamer_class, rule, events, deduplicate):
    streamer = streamer_class(rule, deduplicate=deduplicate)
    rows = []
    for event in events:
        streamer.feed(event)
        rows.extend(streamer.drain())
    streamer.finish()
    rows.extend(streamer.drain())
    return rows


def assert_same_rows(rule, events, deduplicate):
    expected = shred(DomRuleStreamer, rule, events, deduplicate)
    actual = shred(RuleStreamer, rule, events, deduplicate)
    assert actual == expected
    # Same NULL singleton and same field order, not just equal dicts.
    assert [list(row.items()) for row in actual] == [
        list(row.items()) for row in expected
    ]


@st.composite
def sliceable_documents(draw):
    """A root over several ``xml_documents`` subtrees.

    The splitter can cut these, and they are large enough that variables
    often bind several nodes below one anchor.
    """
    root = element(draw(st.sampled_from(["a", "b", "c"])))
    for name in ["x", "y"]:
        if draw(st.booleans()):
            root.set_attribute(name, draw(st.sampled_from(["0", "1"])))
    for _ in range(draw(st.integers(min_value=2, max_value=5))):
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            root.append_child(text(draw(st.sampled_from(["t", "u"]))))
        else:
            root.append_child(draw(xml_documents()).root)
    return document(root)


@st.composite
def edited_events(draw):
    """Tree events with duplicated attribute names and skipped subtrees.

    A duplicated name keeps its first position and takes its last value;
    a ``skip`` event replaces the whole run of one element, with the node
    count the tokenizer would report (one per element, attribute and
    text event).
    """
    events = list(iter_events(serialize(draw(sliceable_documents()), indent=0)))
    edited = []
    index = 0
    while index < len(events):
        event = events[index]
        if event.kind == ATTR and draw(st.integers(min_value=0, max_value=3)) == 0:
            edited.append(event)
            edited.append(Event(ATTR, event.name, draw(st.sampled_from(["0", "1", "2"]))))
            index += 1
            continue
        if (
            event.kind == START
            and edited
            and draw(st.integers(min_value=0, max_value=5)) == 0
        ):
            depth = 0
            end = index
            while True:
                kind = events[end].kind
                if kind == START:
                    depth += 1
                elif kind == END:
                    depth -= 1
                    if depth == 0:
                        break
                end += 1
            run = events[index : end + 1]
            edited.append(Event(SKIP, event.name, sum(e.kind != END for e in run)))
            index = end + 1
            continue
        edited.append(event)
        index += 1
    return edited


class TestSerialRowOrder:
    @differential_settings
    @given(rule=table_rules(), tree=sliceable_documents(), deduplicate=st.booleans())
    def test_tree_events(self, rule, tree, deduplicate):
        assert_same_rows(rule, list(as_events(tree)), deduplicate)

    @differential_settings
    @given(
        rule=table_rules(),
        tree=sliceable_documents(),
        deduplicate=st.booleans(),
        strip=st.booleans(),
    )
    def test_indented_text(self, rule, tree, deduplicate, strip):
        events = list(iter_events(serialize(tree, indent=2), strip_whitespace=strip))
        assert_same_rows(rule, events, deduplicate)

    @differential_settings
    @given(rule=table_rules(), events=edited_events(), deduplicate=st.booleans())
    def test_duplicated_attributes_and_skips(self, rule, events, deduplicate):
        assert_same_rows(rule, events, deduplicate)


def shard_state(streamer_class, rule, prologue, events):
    streamer = streamer_class(rule, shard_mode=True)
    for event in prologue:
        streamer.feed(event)
    for event in events:
        streamer.feed(event)
    return streamer.shard_result()


def assert_same_shard_state(rule, prologue, events):
    expected = shard_state(DomRuleStreamer, rule, prologue, events)
    actual = shard_state(RuleStreamer, rule, prologue, events)
    assert actual.anchor_rows == expected.anchor_rows
    assert actual.anchor_matches == expected.anchor_matches
    assert actual.root_parts == expected.root_parts


# ----------------------------------------------------------------------
# Shard mode
# ----------------------------------------------------------------------
class TestShardResults:
    @differential_settings
    @given(
        rule=table_rules(),
        tree=sliceable_documents(),
        num_shards=st.integers(min_value=2, max_value=5),
    )
    def test_every_shard_matches(self, rule, tree, num_shards):
        compact = serialize(tree, indent=0)
        shards = split_document(compact, num_shards)
        if shards is None:
            return
        prologue = list(shards.prologue_events)
        # The root's own state: the prologue with an empty slice.
        assert_same_shard_state(rule, prologue, [])
        for index in range(len(shards)):
            replay = (
                prologue
                if index == 0
                else [event for event in prologue if event.kind != ATTR]
            )
            assert_same_shard_state(rule, replay, list(shards.shard_events(index)))
