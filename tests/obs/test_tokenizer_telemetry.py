"""Tokenizer telemetry: which backend served each call, and why pure ran.

``tokenizer.calls`` is labelled with the backend that served the call
(``pure`` or ``expat``), and every pure
fallback is counted under ``tokenizer.fallbacks`` with its reason:
``probe``, ``midstream-error`` or ``skip-prefers-pure``.  The registry is
touched a fixed number of times per call, never once per event.

These tests pin the backend rule itself, so they keep it even where the
rest of the suite runs on the pure tokenizer alone.
"""

import io

import pytest

from repro import obs
from repro.keys.key import parse_key
from repro.obs.metrics import MetricsRegistry
from repro.xmlmodel import accel
from repro.xmlmodel.accel import fragment_byte_events
from repro.xmlmodel.dtd import parse_dtd
from repro.xmlmodel.events import SKIP, _string_events, iter_events
from repro.xmlmodel.static import compile_plan

pytestmark = pytest.mark.backend_rule

#: Comfortably above the size below which ``auto`` keeps strings on pure.
ITEMS = "".join(f"<i n='{n}'><a>{n}</a></i>" for n in range(400))
DOCUMENT = f"<r>{ITEMS}</r>"


class CountingRegistry(MetricsRegistry):
    def __init__(self):
        super().__init__()
        self.touches = 0

    def inc(self, name, value=1, **labels):
        self.touches += 1
        super().inc(name, value, **labels)


def drain(source, **kwargs):
    with obs.collect(CountingRegistry()) as registry:
        events = list(iter_events(source, **kwargs))
    return events, registry


def calls(registry, engine):
    return registry.snapshot().counter("tokenizer.calls", engine=engine)


def fallbacks(registry, reason):
    return registry.snapshot().counter("tokenizer.fallbacks", reason=reason)


def all_fallbacks(registry):
    return sum(
        fallbacks(registry, reason)
        for reason in ("probe", "midstream-error", "skip-prefers-pure")
    )


class TestServedBackendLabel:
    def test_auto_is_labelled_with_expat(self):
        _, registry = drain(DOCUMENT)
        assert calls(registry, "expat") == 1
        assert calls(registry, "auto") == 0
        assert calls(registry, "pure") == 0
        assert all_fallbacks(registry) == 0

    def test_small_auto_input_is_labelled_pure_without_a_fallback(self):
        _, registry = drain("<r><a>1</a></r>")
        assert calls(registry, "pure") == 1
        assert all_fallbacks(registry) == 0

    def test_explicit_pure_is_labelled_pure(self, monkeypatch):
        # With the backend rule declining every source, pure serves the
        # call and counts every character it read.
        monkeypatch.setattr(accel, "_expat_serves", lambda source, min_size=0: False)
        _, registry = drain(DOCUMENT)
        assert calls(registry, "pure") == 1
        assert calls(registry, "expat") == 0
        assert registry.snapshot().counter("tokenizer.bytes") == len(DOCUMENT)

    def test_file_likes_are_labelled_pure_without_a_fallback(self):
        _, registry = drain(io.StringIO(DOCUMENT))
        assert calls(registry, "pure") == 1
        assert calls(registry, "expat") == 0
        assert all_fallbacks(registry) == 0

    def test_byte_fragments_are_labelled_with_expat(self):
        with obs.collect() as registry:
            list(fragment_byte_events("r", ITEMS.encode("utf-8")))
        assert calls(registry, "expat") == 1
        assert all_fallbacks(registry) == 0

    @pytest.mark.parametrize("engine", ["auto", "expat", "pure"])
    def test_registry_is_touched_per_call_not_per_event(self, monkeypatch, engine):
        if engine == "pure":
            monkeypatch.setattr(accel, "_expat_serves", lambda source, min_size=0: False)
        if engine == "expat":
            monkeypatch.setattr(accel, "_AUTO_THRESHOLD", 0)
        events, registry = drain(DOCUMENT)
        # The default rule serves a document this large with expat.
        assert calls(registry, "pure" if engine == "pure" else "expat") == 1
        assert len(events) > 1000
        assert registry.touches == 2  # tokenizer.calls + tokenizer.bytes


class TestFallbackReasons:
    def test_probe(self):
        # Carriage returns would be normalized by expat: the probe routes
        # the document to pure before any parsing.
        document = DOCUMENT.replace("</r>", "\r\n</r>")
        events, registry = drain(document)
        assert calls(registry, "pure") == 1
        assert calls(registry, "expat") == 0
        assert fallbacks(registry, "probe") == 1
        assert all_fallbacks(registry) == 1
        assert events == list(_string_events(document, True))

    def test_midstream_error(self):
        # expat rejects the undefined entity after emitting a prefix; pure
        # keeps it literal and replays from there.
        document = DOCUMENT.replace("</r>", "<t>&undefined;</t></r>")
        events, registry = drain(document)
        assert calls(registry, "expat") == 1
        assert fallbacks(registry, "midstream-error") == 1
        assert all_fallbacks(registry) == 1
        assert events == list(_string_events(document, True))

    def test_skip_prefers_pure(self):
        dtd = parse_dtd(
            "<!ELEMENT r (i*)><!ELEMENT i (a)><!ELEMENT a (#PCDATA)>"
            "<!ATTLIST i n CDATA #REQUIRED>"
        )
        plan = compile_plan(dtd, keys=[parse_key("(., (i, {@n}))")])
        events, registry = drain(DOCUMENT, skip=plan.skipset)
        assert any(event.kind == SKIP for event in events)
        assert calls(registry, "pure") == 1
        assert fallbacks(registry, "skip-prefers-pure") == 1
        assert all_fallbacks(registry) == 1
