"""The recursive-descent DOM parser the event scanner replaced.

:func:`repro.xmlmodel.parser.parse_document` builds its tree from the
event stream of :func:`repro.xmlmodel.events.iter_events`.  Before that it
ran its own recursive-descent parser over the character buffer; that
parser is kept here, unchanged, as the reference for the scanner's dialect
and errors: the same documents parse to the same trees (node ids, labels,
values) in both whitespace modes, and the same malformed inputs raise the
same :exc:`~repro.xmlmodel.parser.XMLSyntaxError` message and offset.

It recurses twice per element level, so documents nested deeper than
about 500 levels raise :exc:`RecursionError` here; the suites that use it
stay well below that depth.
"""

from __future__ import annotations

from typing import List

from repro.xmlmodel.nodes import ElementNode, TextNode
from repro.xmlmodel.parser import XMLSyntaxError, expand_entities
from repro.xmlmodel.tree import XMLTree


def parse_document(source: str, strip_whitespace: bool = True) -> XMLTree:
    """Parse an XML string into an :class:`XMLTree` with the reference parser."""
    return XMLTree(_Parser(source, strip_whitespace=strip_whitespace).parse())


def parse_fragment(source: str, strip_whitespace: bool = True) -> ElementNode:
    """Parse a single element (without wrapping it into a tree)."""
    return _Parser(source, strip_whitespace=strip_whitespace).parse()


class _Parser:
    """Recursive-descent parser over a character buffer."""

    def __init__(self, source: str, strip_whitespace: bool = True) -> None:
        self.source = source
        self.pos = 0
        self.length = len(source)
        self.strip_whitespace = strip_whitespace

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def parse(self) -> ElementNode:
        self._skip_prolog()
        if self.pos >= self.length or self.source[self.pos] != "<":
            raise XMLSyntaxError("expected a root element", self.pos)
        root = self._parse_element()
        self._skip_misc()
        if self.pos < self.length:
            raise XMLSyntaxError("content after the root element", self.pos)
        return root

    # ------------------------------------------------------------------
    # Prolog / misc
    # ------------------------------------------------------------------
    def _skip_prolog(self) -> None:
        while True:
            self._skip_spaces()
            if self.source.startswith("<?", self.pos):
                self._skip_until("?>")
            elif self.source.startswith("<!--", self.pos):
                self._skip_until("-->")
            elif self.source.startswith("<!DOCTYPE", self.pos):
                self._skip_doctype()
            else:
                return

    def _skip_misc(self) -> None:
        while True:
            self._skip_spaces()
            if self.source.startswith("<?", self.pos):
                self._skip_until("?>")
            elif self.source.startswith("<!--", self.pos):
                self._skip_until("-->")
            else:
                return

    def _skip_doctype(self) -> None:
        depth = 0
        while self.pos < self.length:
            char = self.source[self.pos]
            if char == "[":
                depth += 1
            elif char == "]":
                depth -= 1
            elif char == ">" and depth <= 0:
                self.pos += 1
                return
            self.pos += 1
        raise XMLSyntaxError("unterminated DOCTYPE declaration", self.pos)

    # ------------------------------------------------------------------
    # Elements
    # ------------------------------------------------------------------
    def _parse_element(self) -> ElementNode:
        start = self.pos
        if self.source[self.pos] != "<":
            raise XMLSyntaxError("expected '<'", self.pos)
        self.pos += 1
        name = self._parse_name()
        element = ElementNode(name)
        # Attributes
        while True:
            self._skip_spaces()
            if self.pos >= self.length:
                raise XMLSyntaxError("unterminated start tag", start)
            char = self.source[self.pos]
            if char == ">":
                self.pos += 1
                break
            if self.source.startswith("/>", self.pos):
                self.pos += 2
                return element
            attr_name = self._parse_name()
            self._skip_spaces()
            self._expect("=")
            self._skip_spaces()
            attr_value = self._parse_quoted()
            element.set_attribute(attr_name, attr_value)
        # Content
        self._parse_content(element)
        return element

    def _parse_content(self, element: ElementNode) -> None:
        text_parts: List[str] = []

        def flush_text() -> None:
            if not text_parts:
                return
            content = "".join(text_parts)
            text_parts.clear()
            if self.strip_whitespace and not content.strip():
                return
            element.append_child(TextNode(content))

        while True:
            if self.pos >= self.length:
                raise XMLSyntaxError(f"unterminated element <{element.tag}>", self.pos)
            if self.source.startswith("</", self.pos):
                flush_text()
                self.pos += 2
                name = self._parse_name()
                if name != element.tag:
                    raise XMLSyntaxError(
                        f"mismatched end tag </{name}> for <{element.tag}>", self.pos
                    )
                self._skip_spaces()
                self._expect(">")
                return
            if self.source.startswith("<!--", self.pos):
                flush_text()
                self._skip_until("-->")
                continue
            if self.source.startswith("<![CDATA[", self.pos):
                end = self.source.find("]]>", self.pos)
                if end < 0:
                    raise XMLSyntaxError("unterminated CDATA section", self.pos)
                text_parts.append(self.source[self.pos + 9 : end])
                self.pos = end + 3
                continue
            if self.source.startswith("<?", self.pos):
                flush_text()
                self._skip_until("?>")
                continue
            if self.source[self.pos] == "<":
                flush_text()
                element.append_child(self._parse_element())
                continue
            # Character data (with entity expansion).
            next_tag = self.source.find("<", self.pos)
            if next_tag < 0:
                next_tag = self.length
            text_parts.append(self._expand_entities(self.source[self.pos : next_tag]))
            self.pos = next_tag

    # ------------------------------------------------------------------
    # Lexical helpers
    # ------------------------------------------------------------------
    def _parse_name(self) -> str:
        start = self.pos
        while self.pos < self.length and not self.source[self.pos].isspace() and self.source[
            self.pos
        ] not in "=<>/?\"'":
            self.pos += 1
        if self.pos == start:
            raise XMLSyntaxError("expected a name", self.pos)
        return self.source[start : self.pos]

    def _parse_quoted(self) -> str:
        if self.pos >= self.length or self.source[self.pos] not in "\"'":
            raise XMLSyntaxError("expected a quoted attribute value", self.pos)
        quote = self.source[self.pos]
        self.pos += 1
        end = self.source.find(quote, self.pos)
        if end < 0:
            raise XMLSyntaxError("unterminated attribute value", self.pos)
        raw = self.source[self.pos : end]
        self.pos = end + 1
        return self._expand_entities(raw)

    def _expand_entities(self, raw: str) -> str:
        return expand_entities(raw)

    def _skip_spaces(self) -> None:
        while self.pos < self.length and self.source[self.pos].isspace():
            self.pos += 1

    def _skip_until(self, marker: str) -> None:
        end = self.source.find(marker, self.pos)
        if end < 0:
            raise XMLSyntaxError(f"unterminated construct (missing {marker!r})", self.pos)
        self.pos = end + len(marker)

    def _expect(self, literal: str) -> None:
        if not self.source.startswith(literal, self.pos):
            raise XMLSyntaxError(f"expected {literal!r}", self.pos)
        self.pos += len(literal)
