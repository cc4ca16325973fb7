"""Differential pinning of the DOM entry points against the replaced parser.

``parse_document`` and ``parse_fragment`` build their trees from the event
stream of :func:`repro.xmlmodel.events.iter_events`.  The recursive-descent
parser they replaced is kept in :mod:`tests.oracles.dom_parser`; these
properties force the two to be observationally identical:

* **Trees** — on random serialized documents (compact and indented) and on
  random documents written with the rest of the dialect (prolog, comments,
  processing instructions, CDATA, entity and character references, either
  quote style, stray whitespace), in both whitespace modes: the same node
  ids, kinds, labels and values.
* **Errors** — truncating or corrupting a document at a random offset must
  raise the same exception type, message and offset from both (or build
  the same tree, when the damage leaves a well-formed document).

Every example runs either on the backend the input picks (the pure scanner
for these small documents) or with the size threshold lowered to zero, so
expat and its fallbacks build the tree; both must match the oracle.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_shred_differential import xml_documents

from repro.xmlmodel import accel
from repro.xmlmodel.parser import XMLSyntaxError, parse_document, parse_fragment
from repro.xmlmodel.serializer import serialize
from repro.xmlmodel.tree import XMLTree
from tests.oracles import dom_parser

pytestmark = pytest.mark.slow

differential_settings = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

LABELS = ["a", "b", "book", "x-y", "n.1"]
ATTRIBUTES = ["k", "id", "lang"]
TEXT_PIECES = [
    "t", "two words", " ", "\n  ", "&amp;", "&lt;", "&gt;", "&quot;", "&apos;",
    "&#65;", "&#x42;", "&bogus;", "a & b", "\t", "\r\n", "é",
]
ATTRIBUTE_VALUES = ["", "1", "a b", "&amp;x", "&#x41;", "&nope;", "tab\there", "a<b", ">"]
COMMENTS = ["<!-- c -->", "<!---->", "<!-- a-b -->"]
CDATA_SECTIONS = ["<![CDATA[x<y]]>", "<![CDATA[]]>", "<![CDATA[ ]]>"]
PROLOG_PIECES = [
    '<?xml version="1.0"?>', "<!-- head -->", "\n",
    "<!DOCTYPE r [<!ELEMENT r ANY>]>", "<!DOCTYPE r>",
]
EPILOG_PIECES = ["<!-- tail -->", "<?end?>", " \n"]
GLITCHES = ["<", ">", "&", "=", "'", '"', "/", "!", "?", " ", "]", ""]


def snapshot(tree):
    """Every node's id, kind, label and value, in document order."""
    return [
        (node.node_id, node.kind, node.label, XMLTree.value(node))
        for node in tree.iter_nodes()
    ]


def outcome(parse, text, strip):
    try:
        return ("tree", snapshot(parse(text, strip_whitespace=strip)))
    except XMLSyntaxError as error:
        return ("error", type(error).__name__, str(error), error.position)


def fragment_outcome(parse, text, strip):
    try:
        return ("tree", snapshot(XMLTree(parse(text, strip_whitespace=strip))))
    except XMLSyntaxError as error:
        return ("error", type(error).__name__, str(error), error.position)


def assert_agree(text, strip, accelerated):
    """``parse_document`` and ``parse_fragment`` match the oracle on ``text``."""
    threshold = 0 if accelerated else accel._AUTO_THRESHOLD
    with mock.patch.object(accel, "_AUTO_THRESHOLD", threshold):
        document = outcome(parse_document, text, strip)
        fragment = fragment_outcome(parse_fragment, text, strip)
    assert document == outcome(dom_parser.parse_document, text, strip)
    assert fragment == fragment_outcome(dom_parser.parse_fragment, text, strip)
    return document


# ----------------------------------------------------------------------
# Documents written with the whole dialect
# ----------------------------------------------------------------------
@st.composite
def attribute_lists(draw):
    parts = []
    for name in draw(st.lists(st.sampled_from(ATTRIBUTES), max_size=3)):
        quote = draw(st.sampled_from(['"', "'"]))
        value = draw(st.sampled_from(ATTRIBUTE_VALUES))
        spacing = draw(st.sampled_from(["", " ", "\n"]))
        parts.append(f" {name}{spacing}={spacing}{quote}{value}{quote}")
    return "".join(parts)


@st.composite
def content(draw, depth):
    pieces = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        # Text is drawn twice as often as each kind of markup.
        kind = draw(st.integers(min_value=0, max_value=5 if depth < 3 else 4))
        if kind in (0, 4):
            pieces.append(draw(st.sampled_from(TEXT_PIECES)))
        elif kind == 1:
            pieces.append(draw(st.sampled_from(COMMENTS)))
        elif kind == 2:
            pieces.append(draw(st.sampled_from(CDATA_SECTIONS)))
        elif kind == 3:
            pieces.append(draw(st.sampled_from(["<?pi data?>", "<?x?>"])))
        else:
            pieces.append(draw(elements(depth + 1)))
    return "".join(pieces)


@st.composite
def elements(draw, depth=0):
    label = draw(st.sampled_from(LABELS))
    attributes = draw(attribute_lists())
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return f"<{label}{attributes}{draw(st.sampled_from(['/', ' /']))}>"
    closing = draw(st.sampled_from(["", " ", "\n"]))
    return f"<{label}{attributes}>{draw(content(depth))}</{label}{closing}>"


@st.composite
def dialect_documents(draw):
    prolog = draw(st.lists(st.sampled_from(PROLOG_PIECES), max_size=3))
    epilog = draw(st.lists(st.sampled_from(EPILOG_PIECES), max_size=2))
    return "".join(prolog) + draw(elements()) + "".join(epilog)


def any_documents():
    return st.one_of(dialect_documents(), xml_documents().map(serialize))


# ----------------------------------------------------------------------
# Trees
# ----------------------------------------------------------------------
class TestTreeDifferential:
    @differential_settings
    @given(
        tree=xml_documents(),
        indent=st.sampled_from([0, 2]),
        strip=st.booleans(),
        accelerated=st.booleans(),
    )
    def test_serialized_documents_agree(self, tree, indent, strip, accelerated):
        text = serialize(tree, indent=indent, xml_declaration=indent == 2)
        assert assert_agree(text, strip, accelerated)[0] == "tree"

    @differential_settings
    @given(text=dialect_documents(), strip=st.booleans(), accelerated=st.booleans())
    def test_dialect_documents_agree(self, text, strip, accelerated):
        assert_agree(text, strip, accelerated)


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
class TestErrorDifferential:
    @differential_settings
    @given(text=any_documents(), data=st.data(), strip=st.booleans(), accelerated=st.booleans())
    def test_truncated_documents_agree(self, text, data, strip, accelerated):
        cut = data.draw(st.integers(min_value=0, max_value=max(len(text) - 1, 0)))
        assert_agree(text[:cut], strip, accelerated)

    @differential_settings
    @given(text=any_documents(), data=st.data(), strip=st.booleans(), accelerated=st.booleans())
    def test_corrupted_documents_agree(self, text, data, strip, accelerated):
        position = data.draw(st.integers(min_value=0, max_value=len(text) - 1))
        glitch = data.draw(st.sampled_from(GLITCHES))
        assert_agree(text[:position] + glitch + text[position + 1 :], strip, accelerated)
