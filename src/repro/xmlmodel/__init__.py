"""XML data model substrate.

This package provides the tree model of XML documents used throughout the
library: element / attribute / text nodes with identities, document order,
an event tokenizer with DOM entry points, a serializer, a programmatic
builder, and the path language ``PL = {epsilon, label, /, //}`` of the
paper (parsing, evaluation, containment and concatenation).

The model deliberately mirrors Figure 1 of the paper: every node has a
numeric identifier, elements carry attributes as first-class nodes, and the
``value`` of a node is the string produced by a pre-order traversal of its
subtree (Example 2.5).
"""

from repro.xmlmodel.nodes import (
    AttributeNode,
    ElementNode,
    Node,
    NodeKind,
    TextNode,
)
from repro.xmlmodel.tree import XMLTree
from repro.xmlmodel.builder import attr, element, text, document
from repro.xmlmodel.parser import parse_document, XMLSyntaxError
from repro.xmlmodel.events import (
    ATTR,
    END,
    SKIP,
    START,
    TEXT,
    Event,
    as_events,
    element_from_events,
    iter_events,
    iter_tree_events,
    tree_from_events,
)
from repro.xmlmodel.static import (
    LabelGraph,
    SkipSet,
    SpecializedNFA,
    StaticPlan,
    compile_plan,
)
from repro.xmlmodel.serializer import serialize
from repro.xmlmodel.shards import (
    DocumentShards,
    MappedDocumentShards,
    ShardSlice,
    map_document_shards,
    split_document,
)
from repro.xmlmodel.paths import (
    PathExpression,
    PathStep,
    StepKind,
    concat,
    contains,
    parse_path,
)

__all__ = [
    "AttributeNode",
    "ElementNode",
    "Node",
    "NodeKind",
    "TextNode",
    "XMLTree",
    "attr",
    "element",
    "text",
    "document",
    "parse_document",
    "XMLSyntaxError",
    "ATTR",
    "END",
    "SKIP",
    "START",
    "TEXT",
    "Event",
    "LabelGraph",
    "SkipSet",
    "SpecializedNFA",
    "StaticPlan",
    "compile_plan",
    "as_events",
    "element_from_events",
    "iter_events",
    "iter_tree_events",
    "tree_from_events",
    "serialize",
    "DocumentShards",
    "MappedDocumentShards",
    "ShardSlice",
    "map_document_shards",
    "split_document",
    "PathExpression",
    "PathStep",
    "StepKind",
    "concat",
    "contains",
    "parse_path",
]
