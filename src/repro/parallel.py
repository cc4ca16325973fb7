"""The one event loop: every serial pass, and shard → map → merge.

The data-level pipeline (shred under a transformation, check keys,
validate against a DTD) feeds one event stream to independent consumers.
This module is the only code that fans a stream out to them:

* :func:`run_serial` — the serial loop over any event source, feeding a
  prebuilt list of ``feed`` callables.  Telemetry and the skip set are
  checked once, outside the loop: with one consumer and telemetry off it
  is the bare ``for event in stream: feed(event)`` loop;
* :func:`run_shard` — one shard pass: prologue replay under the first- /
  later-shard rules below, one slice, a mergeable :class:`ShardOutput`
  (used by the pool workers and the incremental engine);
* :func:`run_sharded` — the pipeline on top: the serial loop, or with
  ``jobs`` > 1 (:func:`resolve_jobs`, ``REPRO_JOBS``) the document split
  at top-level anchor boundaries (:mod:`repro.xmlmodel.shards`), mapped
  onto a process pool and merged associatively into the byte-identical
  serial answer (``tests/property/test_parallel_differential.py``).  It
  degrades to the serial loop whenever sharding is impossible or useless
  (a non-string source, a childless root, a rule whose anchor binds the
  document root, a DTD to validate, no rule and no key, fewer than two
  shards).

Worker protocol
---------------

Shard ``k`` replays the shared prologue (the root element's ``start`` and
``attr`` events) so its automata stacks and node-id counter start exactly
where the serial pass would be, then feeds its slice.  Prologue *side
effects* (rows from attribute-anchored variables on the root, the root as
its own key target) belong to the document once: the rule streamers of
shards ``k > 0`` skip the prologue ``attr`` events, and the key checker
discards its prologue effects in :meth:`KeyStreamChecker.begin_shard`.
Workers are initialized once per process with the pickled payload
(document text, rules, keys); each task then returns one picklable
:class:`ShardOutput`.  When the coordinator is handed a *path* to an
ASCII document, the payload carries the path and the slice table instead
of the text (:class:`~repro.xmlmodel.shards.MappedDocumentShards`): each
worker ``mmap``-s the file and feeds its byte range to the tokenizer as a
:class:`memoryview` — zero-copy sharding; document bytes are never
pickled or duplicated per worker.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro import obs
from repro.keys.key import XMLKey
from repro.keys.satisfaction import KeyViolation
from repro.keys.stream import (
    CheckerShardResult,
    KeyStreamChecker,
    merge_shard_results,
)
from repro.relational.instance import RelationInstance
from repro.relational.schema import DatabaseSchema
from repro.transform.rule import TableRule
from repro.transform.stream import (
    RuleShardResult,
    RuleStreamer,
    StreamShredder,
    merge_rule_shards,
    target_schema,
)
from repro.xmlmodel.dtd import DTDStreamValidator, DTDViolation
from repro.xmlmodel.events import ATTR, SKIP, Event, as_events
from repro.xmlmodel.shards import (
    DocumentShards,
    MappedDocumentShards,
    map_document_shards,
    split_document,
)

#: Environment variable consulted when ``jobs`` is not given explicitly.
JOBS_ENV = "REPRO_JOBS"

#: Shards per worker: slightly over-decomposing smooths the load when
#: top-level subtrees have uneven sizes.
SHARD_FACTOR = 2

Feed = Callable[[Event], None]


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve the worker count: explicit ``jobs``, else ``REPRO_JOBS``, else 1.

    ``0`` means "one worker per CPU"; negative values are rejected.
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV} must be an integer, got {env!r}"
            ) from None
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


# ----------------------------------------------------------------------
# The two passes
# ----------------------------------------------------------------------
def _record_pass(events: int, skips: int, elided: int) -> None:
    registry = obs.metrics()
    registry.inc("pipeline.events", events)
    if skips:
        registry.inc("pipeline.skips", skips)
        registry.inc("pipeline.elided_ids", elided)


def run_serial(source, feeds: Sequence[Feed], strip_whitespace: bool, skip) -> int:
    """Feed every event of ``source`` to every callable in ``feeds``, in order.

    ``source`` is any :func:`~repro.xmlmodel.events.as_events` source;
    ``skip`` an optional :class:`~repro.xmlmodel.static.SkipSet` for the
    tokenizer (for a source that already is an event stream: the skip set
    it was tokenized under).  Returns the number of subtrees the skip set
    fast-forwarded.  With the observability plane enabled the pass records
    ``pipeline.events`` (and ``pipeline.skips`` / ``pipeline.elided_ids``).
    """
    stream = as_events(source, strip_whitespace=strip_whitespace, skip=skip)
    telemetry = obs.enabled()
    if skip is None and not telemetry and len(feeds) in (1, 2):
        # Checking, and shredding one rule plus checking, carry no
        # counting and call their consumers without an inner loop: a
        # ``for`` over the feed list costs ~2.5% of a shred+check pass
        # (bench_obs gates both shapes).
        if len(feeds) == 1:
            feed = feeds[0]
            for event in stream:
                feed(event)
        else:
            first, second = feeds
            for event in stream:
                first(event)
                second(event)
        return 0
    events = skips = elided = 0
    if skip is None and len(feeds) == 1:
        # One consumer, telemetry on: one increment per event and nothing
        # else (bench_obs gates this path at <= 15% over the bare loop).
        feed = feeds[0]
        for event in stream:
            events += 1
            feed(event)
    else:
        for event in stream:
            events += 1
            if event.kind == SKIP:
                skips += 1
                elided += event.value
            for feed in feeds:
                feed(event)
    if telemetry:
        _record_pass(events, skips, elided)
    return skips


@dataclass
class ShardOutput:
    """Everything one shard contributes: per-rule states + checker state.

    ``skipped_subtrees`` counts the subtrees the skip plane fast-forwarded
    inside this shard — pure telemetry for the static-optimization plane.
    ``metrics`` is the shard's telemetry snapshot when the coordinator ran
    with the observability plane enabled (``None`` otherwise); snapshots
    merge associatively, so the coordinator folds them into totals
    identical to a serial pass.
    """

    rules: List[RuleShardResult]
    checker: Optional[CheckerShardResult]
    skipped_subtrees: int = 0
    metrics: Optional[obs.MetricsSnapshot] = None


def run_shard(
    prologue_events: Sequence[Event],
    events: Iterable[Event],
    rules: Sequence[TableRule],
    keys: Sequence[XMLKey],
    first: bool,
    skip,
) -> ShardOutput:
    """Replay the prologue, feed one slice's ``events``, export the states.

    ``first`` selects the first-shard rules: the prologue's side effects
    (root ``attr`` events for the rule streamers, the root's own key
    targets) and its events count once, in the first shard only, so
    summed shard counters equal one serial pass exactly.  ``skip`` is the
    skip set the slice was tokenized under; the slice runs on
    :func:`run_serial`.
    """
    streamers = [RuleStreamer(rule, shard_mode=True) for rule in rules]
    checker = KeyStreamChecker(keys) if keys else None
    feeds = [streamer.feed for streamer in streamers]
    for event in prologue_events:
        if checker is not None:
            checker.feed(event)
        if first or event.kind != ATTR:
            for feed in feeds:
                feed(event)
    if checker is not None:
        checker.begin_shard(first=first)
        feeds.append(checker.feed)
    if first and obs.enabled():
        obs.metrics().inc("pipeline.events", len(prologue_events))
    skipped = run_serial(events, feeds, True, skip)
    return ShardOutput(
        rules=[streamer.shard_result() for streamer in streamers],
        checker=checker.shard_result() if checker is not None else None,
        skipped_subtrees=skipped,
    )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class _ShardWorker:
    """Per-process state: the payload a shard task needs."""

    def __init__(
        self,
        shards: Union[DocumentShards, MappedDocumentShards],
        rules: Sequence[TableRule],
        keys: Sequence[XMLKey],
        strip_whitespace: bool,
        skip=None,
        metrics_enabled: bool = False,
    ) -> None:
        self.shards = shards
        self.rules = list(rules)
        self.keys = list(keys)
        self.strip_whitespace = strip_whitespace
        #: Optional :class:`~repro.xmlmodel.static.SkipSet`; plain picklable
        #: data, shipped to the workers with the rest of the payload.
        self.skip = skip
        #: Telemetry travels in the payload, not the environment: a child
        #: process spawned without ``REPRO_METRICS`` still collects when
        #: the coordinator had the plane enabled.
        self.metrics_enabled = metrics_enabled

    def run(self, index: int) -> ShardOutput:
        events = self.shards.shard_events(
            index, strip_whitespace=self.strip_whitespace, skip=self.skip
        )
        shard = (
            self.shards.prologue_events, events, self.rules, self.keys,
            index == 0, self.skip,
        )
        if not self.metrics_enabled:
            return run_shard(*shard)
        with obs.collect() as registry:
            output = run_shard(*shard)
        output.metrics = registry.snapshot()
        return output


_WORKER: Optional[_ShardWorker] = None


def _init_worker(worker: _ShardWorker) -> None:
    global _WORKER
    _WORKER = worker


def _run_shard(index: int) -> ShardOutput:
    assert _WORKER is not None, "worker process was not initialized"
    return _WORKER.run(index)


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
@dataclass
class ShardedRun:
    """The merged result of one pipeline run.

    ``instances`` is ``None`` when no transformation was given,
    ``violations`` is ``None`` when no keys were given, ``dtd_violations``
    is ``None`` when no DTD was given.  ``shards`` is the number of shards
    actually executed (1 = the serial loop ran).  ``skipped_subtrees``
    counts the subtrees the static-plane skip set fast-forwarded across
    all shards (0 when no plan was given).
    """

    instances: Optional[Dict[str, RelationInstance]]
    violations: Optional[List[KeyViolation]]
    shards: int = 1
    skipped_subtrees: int = 0
    dtd_violations: Optional[List[DTDViolation]] = None


def _record_rows(instances: Optional[Dict[str, RelationInstance]]) -> None:
    if instances is not None and obs.enabled():
        registry = obs.metrics()
        for relation, instance in instances.items():
            registry.inc("shred.rows", len(instance.rows), relation=relation)


def root_attr_parts(prologue_events: Sequence[Event]) -> List[str]:
    """The root's attribute value parts, as the rule merge expects them.

    One part per distinct attribute name, last value winning — the state
    the DOM holds after parsing a duplicated attribute.
    """
    root_attrs: Dict[str, Optional[str]] = {}
    for event in prologue_events:
        if event.kind == ATTR:
            root_attrs[event.name] = event.value
    return [f"@{name}:{value}" for name, value in root_attrs.items()]


def run_sharded(
    source,
    transformation: Optional[Iterable[TableRule]] = None,
    keys: Optional[Iterable[XMLKey]] = None,
    schema: Optional[DatabaseSchema] = None,
    deduplicate: bool = True,
    strip_whitespace: bool = True,
    jobs: Optional[int] = None,
    use_processes: Optional[bool] = None,
    plan=None,
    dtd=None,
) -> ShardedRun:
    """Shred, key-check and/or DTD-validate a document in one event pass.

    ``source`` is any :func:`~repro.xmlmodel.events.as_events` source; only
    text or a path (:class:`os.PathLike`) can be sharded, and a path is
    read only then — on the serial loop it goes straight to the tokenizer.
    A sharded path ships only the path and byte ranges to the workers,
    which ``mmap`` the file and feed their slice to the tokenizer without
    copying it (ASCII documents only; others degrade to text slices).
    ``transformation`` is any iterable of table rules, ``keys`` any
    iterable of XML keys, ``dtd`` a :class:`~repro.xmlmodel.dtd.DTD` to
    validate against (serial only: validation needs the whole stream in
    order, so a ``plan`` with a non-empty skip set is refused); all are
    optional and share one pass, and each given one yields a result, even
    when empty (``keys=[]`` gives ``violations == []``).  ``jobs`` picks the
    worker count (:func:`resolve_jobs`); ``use_processes=False`` runs the
    shard tasks in-process — the same shard/map/merge code path without
    the pool, which the differential test suite exercises at scale.
    ``plan`` is an optional :class:`~repro.xmlmodel.static.StaticPlan`
    compiled over (at least) these keys and rules; its skip set
    fast-forwards schema-invisible subtrees, output unchanged
    (:func:`~repro.xmlmodel.static.compile_plan` empties the skip set
    whenever any rule captures element values).

    The output is byte-identical to the serial streaming plane (and hence
    to the DOM plane): same rows in the same order, same verdicts, same
    witness node ids and detail strings.
    """
    if transformation is None and keys is None and dtd is None:
        raise ValueError("run_sharded() needs a transformation, keys or a DTD")
    rules = list(transformation) if transformation is not None else []
    key_list = list(keys) if keys is not None else []
    skip = plan.skipset if plan is not None and plan.skipset else None
    if dtd is not None and skip is not None:
        # A skipped subtree elides exactly the events the validator needs.
        raise ValueError(
            "run_sharded() cannot validate a DTD under a skip set; "
            "drop the plan or the DTD"
        )

    worker_count = resolve_jobs(jobs)
    path: Optional[str] = None
    shards: Optional[Union[DocumentShards, MappedDocumentShards]] = None
    if worker_count > 1 and dtd is None and (rules or key_list):
        if hasattr(source, "__fspath__"):
            with open(source, "rb") as handle:
                raw = handle.read()
            # Byte slice offsets match the structural scan's character
            # offsets only in ASCII files; others ship text slices.
            path = os.fspath(source) if raw.isascii() else None
            source = raw.decode("utf-8")
            del raw
        if isinstance(source, str):
            shards = split_document(source, worker_count * SHARD_FACTOR)
        if shards is not None and any(
            RuleStreamer(rule, shard_mode=True).anchors_root_bound
            for rule in rules
        ):
            # An anchor binding the document root needs the whole document
            # as one subtree; semantics before parallelism.
            shards = None
    if shards is None:
        shredder = (
            StreamShredder(rules, schema=schema, deduplicate=deduplicate)
            if transformation is not None
            else None
        )
        checker = KeyStreamChecker(key_list) if keys is not None else None
        validator = None
        feeds: List[Feed] = list(shredder.feeds) if shredder is not None else []
        if checker is not None:
            feeds.append(checker.feed)
        if dtd is not None:
            validator = DTDStreamValidator(dtd)
            feeds.append(validator.feed)
        skipped = run_serial(source, feeds, strip_whitespace, skip)
        instances = shredder.finish() if shredder is not None else None
        _record_rows(instances)
        return ShardedRun(
            instances=instances,
            violations=checker.finish() if checker is not None else None,
            skipped_subtrees=skipped,
            dtd_violations=validator.finish() if validator is not None else None,
        )
    if path is not None:
        shards = map_document_shards(shards, path)

    worker = _ShardWorker(
        shards, rules, key_list, strip_whitespace, skip,
        metrics_enabled=obs.enabled(),
    )
    indices = range(len(shards))
    if use_processes is None or use_processes:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(worker_count, len(shards)),
            initializer=_init_worker,
            initargs=(worker,),
        ) as pool:
            outputs = list(pool.map(_run_shard, indices))
    else:
        outputs = [worker.run(index) for index in indices]

    if obs.enabled():
        # Worker snapshots merge associatively into the coordinator's
        # registry — identical totals to one serial pass for every
        # deterministic counter (events, skips, elided ids).
        registry = obs.metrics()
        for output in outputs:
            if output.metrics is not None:
                registry.merge_snapshot(output.metrics)
        # The document's closing root END never reaches a worker (the
        # merge closes the root logically); count it here so the shard
        # totals equal the serial pass event-for-event.
        registry.inc("pipeline.events", 1)

    instances = None
    if transformation is not None:
        parts = root_attr_parts(shards.prologue_events)
        instances = {}
        for rule_index, rule in enumerate(rules):
            instance = RelationInstance(target_schema(rule, schema))
            instance.extend(merge_rule_shards(
                rule,
                [output.rules[rule_index] for output in outputs],
                deduplicate=deduplicate,
                root_attr_parts=parts,
            ))
            instances[rule.relation] = instance
        _record_rows(instances)
    violations: Optional[List[KeyViolation]] = None
    if keys is not None:
        violations = merge_shard_results(
            key_list,
            [output.checker for output in outputs if output.checker is not None],
            prologue_ids=shards.prologue_ids,
        )
        if obs.enabled():
            obs.metrics().inc("check.violations", len(violations))
    return ShardedRun(
        instances=instances,
        violations=violations,
        shards=len(shards),
        skipped_subtrees=sum(output.skipped_subtrees for output in outputs),
    )
