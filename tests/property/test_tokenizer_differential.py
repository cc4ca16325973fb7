"""Differential pinning of the accelerated tokenizer against the pure oracle.

PR 7 adds a second implementation of the tokenizer contract
(:mod:`repro.xmlmodel.accel`, expat behind the capability probe).  The
pure tokenizer is the reference; these properties force the accelerated
plane to be observationally identical on random documents:

* **Events** — same kinds, names and payloads in the same order, in both
  whitespace modes, for text, bytes, chunked and file(``mmap``) sources.
* **Errors** — truncating a document at a random offset must produce the
  same exception type, message and position from both backends (or the
  same event stream, when the cut happens to leave a well-formed prefix).
* **Consumers** — node-id-bearing results (key violations with context
  and witness ids, shredded rows) must not depend on the backend that
  produced their events, and :func:`repro.parallel.run_sharded` over an
  ``mmap``-sliced file must be byte-identical to the serial pure run.

The backends are called directly (``events._string_events`` and
``events._Tokenizer`` against ``accel._buffer_events`` and
``accel._mapped_events``), so both run whatever size the document has.
"""

import os
import pathlib
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from test_shred_differential import canonical, table_rules, xml_documents, xml_keys

from repro.keys.stream import stream_violations
from repro.parallel import run_sharded
from repro.transform.stream import stream_evaluate_rule
from repro.xmlmodel import accel, events
from repro.xmlmodel.parser import XMLSyntaxError
from repro.xmlmodel.serializer import serialize

pytestmark = pytest.mark.slow

differential_settings = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def pure(source, strip=True):
    return events._string_events(source, strip)


def expat(source, strip=True):
    if hasattr(source, "__fspath__"):
        return accel._mapped_events(os.fspath(source), strip)
    return accel._buffer_events(source, strip)


def outcome(backend, source, strip=True):
    try:
        return ("events", list(backend(source, strip)))
    except XMLSyntaxError as error:
        return ("error", type(error).__name__, str(error), error.position)


class TestEventStreamDifferential:
    @differential_settings
    @given(tree=xml_documents(), strip=st.booleans())
    def test_text_events_agree(self, tree, strip):
        text = serialize(tree, indent=0)
        assert outcome(expat, text, strip) == outcome(pure, text, strip)

    @differential_settings
    @given(tree=xml_documents(), strip=st.booleans())
    def test_indented_text_events_agree(self, tree, strip):
        # Indentation exercises the whitespace-only text drop rule.
        text = serialize(tree, indent=2)
        assert outcome(expat, text, strip) == outcome(pure, text, strip)

    @differential_settings
    @given(tree=xml_documents())
    def test_byte_and_chunked_sources_agree(self, tree):
        text = serialize(tree, indent=0)
        expected = outcome(pure, text)
        assert outcome(expat, text.encode("utf-8")) == expected
        chunks = [text[i : i + 3] for i in range(0, len(text), 3)]

        def chunked(source, strip):
            return events._Tokenizer(iter(source), strip).events()

        assert outcome(chunked, chunks) == expected

    @differential_settings
    @given(tree=xml_documents())
    def test_file_source_agrees(self, tree):
        text = serialize(tree, indent=0)
        descriptor, path = tempfile.mkstemp(suffix=".xml")
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(text)
            assert outcome(expat, pathlib.Path(path)) == outcome(pure, text)
        finally:
            os.unlink(path)


class TestErrorDifferential:
    @differential_settings
    @given(tree=xml_documents(), data=st.data())
    def test_truncated_documents_fail_identically(self, tree, data):
        text = serialize(tree, indent=0)
        cut = data.draw(st.integers(min_value=0, max_value=max(len(text) - 1, 0)))
        truncated = text[:cut]
        assert outcome(expat, truncated) == outcome(pure, truncated)

    @differential_settings
    @given(tree=xml_documents(), data=st.data())
    def test_corrupted_documents_fail_identically(self, tree, data):
        text = serialize(tree, indent=0)
        position = data.draw(st.integers(min_value=0, max_value=len(text) - 1))
        glitch = data.draw(st.sampled_from(["<", ">", "&", "=", "'"]))
        corrupted = text[:position] + glitch + text[position + 1 :]
        assert outcome(expat, corrupted) == outcome(pure, corrupted)


class TestConsumerDifferential:
    @differential_settings
    @given(tree=xml_documents(), keys=st.lists(xml_keys(), min_size=1, max_size=3))
    def test_violation_node_ids_agree(self, tree, keys):
        text = serialize(tree, indent=0)
        expected = stream_violations(pure(text), keys)
        assert canonical(stream_violations(expat(text), keys)) == canonical(expected)

    @differential_settings
    @given(rule=table_rules(), tree=xml_documents())
    def test_shredded_rows_agree(self, rule, tree):
        text = serialize(tree, indent=0)
        expected = stream_evaluate_rule(rule, pure(text), deduplicate=False)
        assert stream_evaluate_rule(rule, expat(text), deduplicate=False).rows == expected.rows


def fingerprint(run):
    rows = (
        {name: instance.rows for name, instance in run.instances.items()}
        if run.instances is not None
        else None
    )
    violations = (
        [
            (v.key.text, v.context_node_id, v.kind, v.node_ids, v.detail)
            for v in run.violations
        ]
        if run.violations is not None
        else None
    )
    return rows, violations


class TestShardedMmapDifferential:
    @differential_settings
    @given(rule=table_rules(), tree=xml_documents(), keys=st.lists(xml_keys(), max_size=2))
    def test_mmap_sliced_run_matches_serial_pure(self, rule, tree, keys):
        text = serialize(tree, indent=0)
        assert text.isascii(), "the strategy vocabulary is ASCII"
        with mock.patch.object(accel, "_expat_serves", return_value=False):
            serial = run_sharded(text, transformation=[rule], keys=keys, jobs=1)
        descriptor, path = tempfile.mkstemp(suffix=".xml")
        try:
            with os.fdopen(descriptor, "w", encoding="ascii") as handle:
                handle.write(text)
            sharded = run_sharded(
                pathlib.Path(path),
                transformation=[rule],
                keys=keys,
                jobs=2,
                use_processes=False,
            )
        finally:
            os.unlink(path)
        assert fingerprint(sharded) == fingerprint(serial)
