"""PR-7 accelerated tokenizer front-end: selection, parity, fallback.

The accelerated plane (:mod:`repro.xmlmodel.accel`) must be *invisible*:
same events, same errors, same positions as the pure tokenizer, for every
source kind it accepts.  The backends are driven directly — the pure
string scanner (``events._string_events``) against expat over buffers
(``accel._buffer_events``), paths (``accel._mapped_events``) and fragments
(``accel.fragment_byte_events``) — so both sides run whatever size the
input has.  These tests pin

* event-for-event parity on the adversarial corpus in both whitespace
  modes;
* error parity (exception type, message, position) on malformed inputs;
* the capability probe: documents expat would silently normalize
  (BOM, carriage returns, tabs/newlines in attribute values) fall back
  to the pure tokenizer rather than diverge;
* mid-stream failure: events already emitted are not re-emitted when the
  replay fallback takes over;
* source plumbing: str, bytes, bytearray, memoryview, mmap, paths
  (including empty files), file-likes and chunk iterables;
* the segmented parse loop (tiny ``_SEGMENT``) and the backend rule
  (``_expat_serves``): small strings, file-likes and chunk iterables stay
  on the pure tokenizer.
"""

import io
import mmap
import os

import pytest

from test_chunk_boundaries import ADVERSARIAL_DOCUMENTS

from repro.xmlmodel import accel, events
from repro.xmlmodel.accel import fragment_byte_events
from repro.xmlmodel.events import iter_events
from repro.xmlmodel.parser import XMLSyntaxError
from repro.xmlmodel.shards import fragment_events

MALFORMED_DOCUMENTS = {
    "mismatched-close": "<a><b></a>",
    "undefined-entity-eof": "<a>&bogus text",
    "space-after-lt": "<a>< b/></a>",
    "unterminated-cdata": "<a><![CDATA[oops</a>",
    "unquoted-attribute": "<a attr=novalue/>",
    "unterminated-comment": "<a><!-- never closed",
    "two-roots": "<a></a><b></b>",
    "no-markup": "text only",
    "empty": "",
}

#: Constructs expat normalizes away from the pure dialect — the probe
#: must route all of these to the pure tokenizer.
PROBE_DOCUMENTS = {
    "carriage-returns": "<a>line1\r\nline2</a>",
    "bare-carriage-return": "<a>one\rtwo</a>",
    "byte-order-mark": "\ufeff<a>x</a>",
    "tab-in-double-quoted-attr": '<a k="v\tw">x</a>',
    "newline-in-single-quoted-attr": "<a k='v\nw'>y</a>",
}


def pure(source, strip=True):
    """The pure string scanner's events for an in-memory document."""
    return events._string_events(source, strip)


def expat(source, strip=True):
    """The expat backend's events for a buffer or path, whatever its size."""
    if hasattr(source, "__fspath__"):
        return accel._mapped_events(os.fspath(source), strip)
    return accel._buffer_events(source, strip)


def outcome(backend, source, strip=True):
    """Events, or the error signature — comparable across backends."""
    try:
        return ("events", list(backend(source, strip)))
    except XMLSyntaxError as error:
        return ("error", type(error).__name__, str(error), error.position)


def prefix_and_error(backend, source):
    """Consume until a raise: (events so far, error signature or None)."""
    seen = []
    try:
        for event in backend(source):
            seen.append(event)
    except XMLSyntaxError as error:
        return seen, (type(error).__name__, str(error), error.position)
    return seen, None


# ----------------------------------------------------------------------
# Event parity on the adversarial corpus
# ----------------------------------------------------------------------
class TestEventParity:
    @pytest.mark.parametrize("strip", [True, False], ids=["strip", "keep"])
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_DOCUMENTS))
    def test_adversarial_corpus(self, name, strip):
        document = ADVERSARIAL_DOCUMENTS[name]
        assert outcome(expat, document, strip) == outcome(pure, document, strip)

    def test_expat_equals_pure(self):
        document = ADVERSARIAL_DOCUMENTS["entities"]
        assert outcome(expat, document) == outcome(pure, document)

    def test_node_id_positions_match(self):
        # Node ids are positional in this dialect: equality of full event
        # streams on a document with repeated tags pins the numbering.
        document = "<r><a>1</a><a>2</a><b c='d'/><a>3</a></r>"
        assert outcome(expat, document) == outcome(pure, document)


# ----------------------------------------------------------------------
# Error parity on malformed inputs
# ----------------------------------------------------------------------
class TestErrorParity:
    @pytest.mark.parametrize("strip", [True, False], ids=["strip", "keep"])
    @pytest.mark.parametrize("name", sorted(MALFORMED_DOCUMENTS))
    def test_same_error_type_message_position(self, name, strip):
        document = MALFORMED_DOCUMENTS[name]
        expected = outcome(pure, document, strip)
        assert expected[0] == "error", "corpus document must be malformed"
        assert outcome(expat, document, strip) == expected

    def test_midstream_failure_does_not_replay_emitted_events(self):
        document = "<r>" + "".join(f"<x>{i}</x>" for i in range(50)) + "<bad"
        pure_events, pure_error = prefix_and_error(pure, document)
        accel_events, accel_error = prefix_and_error(expat, document)
        assert pure_error is not None
        assert accel_error == pure_error
        assert accel_events == pure_events


# ----------------------------------------------------------------------
# The capability probe
# ----------------------------------------------------------------------
class TestCapabilityProbe:
    @pytest.mark.parametrize("name", sorted(PROBE_DOCUMENTS))
    def test_probed_documents_match_pure(self, name):
        document = PROBE_DOCUMENTS[name]
        for strip in (True, False):
            assert outcome(expat, document, strip) == outcome(pure, document, strip)

    @pytest.mark.parametrize("name", sorted(PROBE_DOCUMENTS))
    def test_probe_detects_divergent_constructs(self, name):
        assert accel._diverges(PROBE_DOCUMENTS[name])
        assert accel._diverges(PROBE_DOCUMENTS[name].encode("utf-8"))

    def test_probe_accepts_benign_whitespace(self):
        # Tabs and newlines in *text* do not trip the probe — only inside
        # attribute values does expat normalize them.
        document = "<a>tab\there\nand a line</a>"
        assert not accel._diverges(document)
        assert not accel._diverges(document.encode("utf-8"))


# ----------------------------------------------------------------------
# Source plumbing
# ----------------------------------------------------------------------
class TestSources:
    REFERENCE = ADVERSARIAL_DOCUMENTS["comments"]

    def test_buffer_sources_match_text(self):
        raw = self.REFERENCE.encode("utf-8")
        expected = outcome(pure, self.REFERENCE)
        for source in (raw, bytearray(raw), memoryview(raw)):
            assert outcome(expat, source) == expected

    def test_path_source_uses_mmap(self, tmp_path):
        target = tmp_path / "doc.xml"
        target.write_text(self.REFERENCE, encoding="utf-8")
        assert outcome(expat, target) == outcome(pure, self.REFERENCE)

    def test_mmap_source_directly(self, tmp_path):
        target = tmp_path / "doc.xml"
        target.write_text(self.REFERENCE, encoding="utf-8")
        with open(target, "rb") as handle:
            with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
                assert outcome(expat, mapped) == outcome(pure, self.REFERENCE)

    def test_empty_file_matches_pure_error(self, tmp_path):
        # Zero-length files cannot be mmap-ed; the fallback read must
        # still produce the pure tokenizer's error.
        target = tmp_path / "empty.xml"
        target.write_bytes(b"")
        assert outcome(expat, target) == outcome(pure, "")

    def test_file_like_and_chunk_iterable(self):
        # Both stay on the chunked tokenizer, which must match the rest.
        expected = outcome(pure, self.REFERENCE)
        assert outcome(iter_events, io.StringIO(self.REFERENCE)) == expected
        chunks = [self.REFERENCE[i : i + 5] for i in range(0, len(self.REFERENCE), 5)]
        assert outcome(iter_events, iter(chunks)) == expected

    def test_abandoned_stream_releases_the_file(self, tmp_path):
        target = tmp_path / "doc.xml"
        target.write_text("<r>" + "<a>x</a>" * 200 + "</r>", encoding="ascii")
        stream = expat(target)
        next(stream)
        del stream  # CPython refcounting must close the map and handle
        # The file stays usable (re-tokenized) after the abandoned stream.
        assert outcome(expat, target)[0] == "events"


# ----------------------------------------------------------------------
# Segmentation and the backend rule
# ----------------------------------------------------------------------
#: Comfortably above the size below which strings stay on pure.
LARGE = "<a>" + "<b>x</b>" * (accel._AUTO_THRESHOLD // 8 + 1) + "</a>"


class TestEngineResolution:
    @pytest.mark.backend_rule
    def test_default_is_auto(self, monkeypatch):
        # The input alone picks the backend: the retired REPRO_TOKENIZER
        # variable is not read, so a stale setting changes nothing.
        monkeypatch.setenv("REPRO_TOKENIZER", "pure")
        assert accel._expat_serves(LARGE)
        assert not accel._expat_serves("<a/>")
        assert list(iter_events(LARGE)) == list(pure(LARGE))


class TestSegmentsAndAuto:
    @pytest.mark.parametrize("segment", [1, 7, 64])
    def test_tiny_segments_match(self, monkeypatch, segment):
        monkeypatch.setattr(accel, "_SEGMENT", segment)
        for name in ("cdata", "entities"):
            document = ADVERSARIAL_DOCUMENTS[name]
            assert outcome(expat, document) == outcome(pure, document)

    @pytest.mark.backend_rule
    def test_auto_declines_small_strings(self):
        assert accel.accelerated_events("<a/>", True) is None

    @pytest.mark.backend_rule
    def test_auto_accepts_large_strings(self):
        stream = accel.accelerated_events(LARGE, True)
        assert stream is not None
        assert list(stream) == list(pure(LARGE))

    @pytest.mark.backend_rule
    def test_auto_accepts_paths(self, tmp_path):
        target = tmp_path / "doc.xml"
        target.write_text("<a>x</a>", encoding="utf-8")
        assert accel._expat_serves(target)

    @pytest.mark.backend_rule
    def test_auto_declines_file_likes(self):
        # Buffering would break the bounded-memory contract of streams.
        assert accel.accelerated_events(io.StringIO(LARGE), True) is None
        assert accel.accelerated_events(iter([LARGE]), True) is None


# ----------------------------------------------------------------------
# Zero-copy shard fragments
# ----------------------------------------------------------------------
class TestFragmentByteEvents:
    FRAGMENT = "<a n='1'>first</a><a n='2'><b/>second</a>"

    def test_matches_string_fragment_events(self):
        raw = memoryview(self.FRAGMENT.encode("utf-8"))
        expected = list(fragment_events("r", self.FRAGMENT))
        assert list(fragment_byte_events("r", raw)) == expected

    def test_divergent_fragment_falls_back(self):
        fragment = "<a>one\rtwo</a>"
        raw = memoryview(fragment.encode("utf-8"))
        expected = list(fragment_events("r", fragment))
        assert list(fragment_byte_events("r", raw)) == expected

    def test_pure_engine_accepts_bytes(self, monkeypatch):
        raw = self.FRAGMENT.encode("utf-8")
        expected = list(fragment_events("r", self.FRAGMENT))
        monkeypatch.setattr(accel, "_expat_serves", lambda source, min_size=0: False)
        assert list(fragment_byte_events("r", raw)) == expected
