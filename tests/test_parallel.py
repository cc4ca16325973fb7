"""Tests of the parallel execution plane (:mod:`repro.parallel`).

The shard/merge *semantics* are pinned at scale by the Hypothesis suite in
``tests/property/test_parallel_differential.py`` (in-process executor).
These tests cover the coordinator itself: worker-count resolution, the
real process pool, the serial fallbacks, and the library entry points.
"""

import pytest

from repro.experiments.scenarios import ScenarioSpec, build_scenario, scenario_text
from repro.keys.key import XMLKey
from repro.keys.stream import stream_violations
from repro.parallel import JOBS_ENV, ShardedRun, resolve_jobs, run_sharded
from repro.transform.dsl import parse_transformation
from repro.transform.stream import stream_evaluate_transformation
from repro.xmlmodel.dtd import parse_dtd
from repro.xmlmodel.static import compile_plan


TRANSFORM_TEXT = """
table book
  var xa <- xr : //book
  var x1 <- xa : @isbn
  var x2 <- xa : title
  field isbn  = value(x1)
  field title = value(x2)

table chapter
  var ya <- xr : //book
  var yc <- ya : chapter
  var y2 <- yc : @number
  field number = value(y2)
"""

DOC = (
    '<lib year="2003">'
    '<book isbn="1"><title>A</title><chapter number="1"/><chapter number="2"/></book>'
    '<book isbn="2"><title>B</title><chapter number="1"/></book>'
    '<book isbn="2"><title>C</title></book>'
    '<book><title>D</title></book>'
    "</lib>"
)

KEYS = [
    XMLKey(".", "//book", ["isbn"]),
    XMLKey("//book", "chapter", ["number"]),
]


def violation_fingerprint(found):
    return [
        (v.key.text, v.context_node_id, v.kind, v.node_ids, v.detail) for v in found
    ]


@pytest.fixture()
def transformation():
    return parse_transformation(TRANSFORM_TEXT)


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs() == 1

    def test_explicit_wins(self):
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs() == 5

    def test_zero_means_cpu_count(self):
        import os

        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "lots")
        with pytest.raises(ValueError):
            resolve_jobs()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestRunShardedProcesses:
    """Real ProcessPoolExecutor runs (small inputs, few workers)."""

    def test_matches_serial_pipeline(self, transformation):
        serial = run_sharded(DOC, transformation=transformation, keys=KEYS, jobs=1)
        parallel = run_sharded(DOC, transformation=transformation, keys=KEYS, jobs=2)
        assert serial.shards == 1
        assert parallel.shards > 1
        assert set(serial.instances) == set(parallel.instances)
        for name, instance in serial.instances.items():
            assert parallel.instances[name].rows == instance.rows
        assert violation_fingerprint(parallel.violations) == violation_fingerprint(
            serial.violations
        )
        # The injected duplicates are found across shard boundaries.
        assert any(v.kind == "duplicate-value" for v in parallel.violations)
        assert any(v.kind == "missing-attribute" for v in parallel.violations)

    def test_keys_only_run(self):
        serial = run_sharded(DOC, keys=KEYS, jobs=1)
        parallel = run_sharded(DOC, keys=KEYS, jobs=2)
        assert parallel.instances is None
        assert violation_fingerprint(parallel.violations) == violation_fingerprint(
            serial.violations
        )

    def test_transformation_only_run(self, transformation):
        parallel = run_sharded(DOC, transformation=transformation, jobs=2)
        assert parallel.violations is None
        assert len(parallel.instances["chapter"].rows) == 3

    def test_requires_work(self):
        with pytest.raises(ValueError):
            run_sharded(DOC, jobs=2)

    def test_empty_consumers_run_serially(self):
        # Given but empty: each still yields a (empty) result, and with
        # nothing to feed no process pool is started.
        run = run_sharded(DOC, transformation=[], keys=[], jobs=2)
        assert run.shards == 1
        assert run.instances == {}
        assert run.violations == []

    def test_dtd_under_a_skip_set_is_refused(self):
        dtd = parse_dtd(
            "<!ELEMENT lib (book*)>\n"
            "<!ELEMENT book (title, chapter*)>\n"
            "<!ELEMENT title (#PCDATA)>\n"
            "<!ELEMENT chapter EMPTY>\n"
            "<!ATTLIST lib year CDATA #IMPLIED>\n"
            "<!ATTLIST book isbn CDATA #IMPLIED>\n"
            "<!ATTLIST chapter number CDATA #REQUIRED>\n"
        )
        plan = compile_plan(dtd, keys=KEYS[:1])
        assert plan.skipset  # title and chapter subtrees hold no //book
        with pytest.raises(ValueError, match="skip set"):
            run_sharded(DOC, keys=KEYS[:1], plan=plan, dtd=dtd, jobs=1)
        # Either one alone runs; validation without a plan sees everything.
        assert run_sharded(DOC, keys=KEYS[:1], plan=plan).skipped_subtrees > 0
        assert run_sharded(DOC, keys=KEYS[:1], dtd=dtd).dtd_violations == []


class TestSerialFallbacks:
    def test_unsplittable_document_falls_back(self, transformation):
        doc = '<lib><book isbn="1"><title>A</title></book></lib>'  # one subtree
        run = run_sharded(doc, transformation=transformation, keys=KEYS, jobs=4)
        assert run.shards == 1
        assert len(run.instances["book"].rows) == 1

    def test_root_bound_anchor_falls_back(self):
        rules = parse_transformation(
            """
            table whole
              var xa <- xr : //
              var x1 <- xa : title
              field title = value(x1)
            """
        )
        run = run_sharded(DOC, transformation=rules, jobs=4)
        assert run.shards == 1
        # The `//` anchor binds the root and every element below it.
        assert len(run.instances["whole"].rows) > 1

    def test_jobs_one_is_serial(self, transformation):
        run = run_sharded(DOC, transformation=transformation, jobs=1)
        assert run.shards == 1


class TestLibraryEntryPoints:
    def test_stream_evaluate_transformation_jobs(self, transformation):
        serial = stream_evaluate_transformation(transformation, DOC)
        parallel = stream_evaluate_transformation(transformation, DOC, jobs=2)
        assert {n: i.rows for n, i in parallel.items()} == {
            n: i.rows for n, i in serial.items()
        }

    def test_stream_violations_jobs(self):
        serial = stream_violations(DOC, KEYS)
        parallel = stream_violations(DOC, KEYS, jobs=2)
        assert violation_fingerprint(parallel) == violation_fingerprint(serial)

    def test_env_variable_selects_parallel_plane(self, monkeypatch, transformation):
        monkeypatch.setenv(JOBS_ENV, "2")
        parallel = stream_evaluate_transformation(transformation, DOC)
        monkeypatch.delenv(JOBS_ENV)
        serial = stream_evaluate_transformation(transformation, DOC)
        assert {n: i.rows for n, i in parallel.items()} == {
            n: i.rows for n, i in serial.items()
        }


class TestDuplicateRootAttributes:
    """Duplicate attribute names: tokenizer emits both, the DOM keeps one
    node per name with the last value — the merge must mirror that."""

    DOC = '<root a="1" a="2" x="9"><u>p</u><v>q</v><u>p</u></root>'

    def test_root_fields_value_matches_serial(self):
        rules = parse_transformation(
            """
            table whole
              var x1 <- xr : u
              field f = value(x1)
            """
        )
        # Also a rule with fields on the root variable itself.
        from repro.transform.rule import TableRule

        root_rule = TableRule("doc")
        root_rule.add_field("content", root_rule.root_variable)
        all_rules = list(rules) + [root_rule]
        serial = run_sharded(self.DOC, transformation=all_rules, jobs=1)
        parallel = run_sharded(
            self.DOC, transformation=all_rules, jobs=2, use_processes=False
        )
        assert parallel.shards > 1
        for name, instance in serial.instances.items():
            assert parallel.instances[name].rows == instance.rows

    def test_violation_node_ids_match_serial(self):
        keys = [XMLKey(".", "//u", [])]
        serial = run_sharded(self.DOC, keys=keys, jobs=1)
        parallel = run_sharded(self.DOC, keys=keys, jobs=2, use_processes=False)
        assert violation_fingerprint(parallel.violations) == violation_fingerprint(
            serial.violations
        )
        assert len(serial.violations) == 1  # the two <u>p</u> duplicates

    def test_binding_counters_count_anchor_matches(self):
        from repro.transform.stream import RuleStreamer
        from repro.xmlmodel.events import iter_events

        rules = parse_transformation(
            """
            table t
              var x1 <- xr : //u
              field f = value(x1)
            """
        )
        streamer = RuleStreamer(next(iter(rules)), shard_mode=True)
        for event in iter_events(self.DOC):
            streamer.feed(event)
        result = streamer.shard_result()
        assert result.anchor_matches == [2]
        assert [len(block) for block in result.anchor_rows] == [2]


class TestScenarioScale:
    """A mid-size generated scenario through real processes."""

    def test_scenario_with_injected_violations(self):
        spec = ScenarioSpec(
            num_fields=10,
            depth=3,
            num_keys=5,
            fanout=3,
            duplicate_violations=4,
            missing_violations=4,
            seed=11,
        )
        scenario = build_scenario(spec)
        text = scenario_text(scenario)
        serial = run_sharded(
            text, transformation=[scenario.workload.rule], keys=scenario.keys, jobs=1
        )
        parallel = run_sharded(
            text, transformation=[scenario.workload.rule], keys=scenario.keys, jobs=2
        )
        assert parallel.shards > 1
        assert len(parallel.violations) == 8
        assert violation_fingerprint(parallel.violations) == violation_fingerprint(
            serial.violations
        )
        for name, instance in serial.instances.items():
            assert parallel.instances[name].rows == instance.rows


class TestZeroCopyMmapPath:
    """PathLike sources ship a slice table, not the text (PR 7).

    Workers ``mmap`` the file themselves and feed their byte range to the
    tokenizer; the pickled payload must therefore stay slice-table-sized,
    and every result must stay byte-identical to the in-memory text run.
    """

    def _write(self, tmp_path, text, encoding="ascii"):
        target = tmp_path / "doc.xml"
        target.write_text(text, encoding=encoding)
        return target

    def test_path_run_matches_text_run_with_process_pool(
        self, tmp_path, transformation
    ):
        target = self._write(tmp_path, DOC)
        serial = run_sharded(DOC, transformation=transformation, keys=KEYS, jobs=1)
        mapped = run_sharded(target, transformation=transformation, keys=KEYS, jobs=2)
        assert mapped.shards > 1
        assert set(mapped.instances) == set(serial.instances)
        for name, instance in serial.instances.items():
            assert mapped.instances[name].rows == instance.rows
        assert violation_fingerprint(mapped.violations) == violation_fingerprint(
            serial.violations
        )

    def test_non_ascii_file_degrades_to_text_plane(self, tmp_path, transformation):
        # Byte offsets and character offsets disagree: the coordinator
        # must ship text slices instead of mmap ranges — same answer.
        doc = DOC.replace("<title>A</title>", "<title>É</title>")
        target = self._write(tmp_path, doc, encoding="utf-8")
        serial = run_sharded(doc, transformation=transformation, jobs=1)
        run = run_sharded(target, transformation=transformation, jobs=2)
        for name, instance in serial.instances.items():
            assert run.instances[name].rows == instance.rows

    def test_mapped_payload_is_small_and_roundtrips(self, tmp_path):
        import pickle

        from repro.xmlmodel.shards import map_document_shards, split_document

        text = (
            "<lib>"
            + "".join(
                f"<book isbn='{i}'><title>T{i}</title></book>" for i in range(4000)
            )
            + "</lib>"
        )
        target = self._write(tmp_path, text)
        shards = split_document(text, 8)
        mapped = map_document_shards(shards, str(target))
        payload = pickle.dumps(mapped)
        assert len(payload) < len(text) // 50, "payload must not carry the text"
        restored = pickle.loads(payload)
        assert len(restored) == len(shards)
        assert list(restored.prologue_events) == list(shards.prologue_events)
        for index in range(len(shards)):
            assert list(restored.shard_events(index)) == list(
                shards.shard_events(index)
            )
