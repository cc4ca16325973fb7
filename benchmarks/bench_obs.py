"""PR-10 observability-plane benchmarks: the telemetry overhead gates.

The telemetry plane (:mod:`repro.obs`) promises that *disabled* metrics
cost nothing measurable on the hot paths and that *enabled* metrics stay
cheap, because the one event loop (:mod:`repro.parallel`) branches on
:func:`repro.obs.enabled` once (outside the loop) and flushes local
counters into the registry once per pass.  Three gates pin that promise:

* ``test_disabled_overhead_report`` — the public
  :func:`~repro.keys.stream.stream_violations` with telemetry off must
  stay within 5% of a hand-written baseline loop that carries no
  instrumentation at all (same tokenizer, same checker, no obs code), on
  the same Mondial-shaped ~104k-node document the static-plane gates use.

* ``test_ingest_disabled_overhead_report`` — the gate-ingest shape:
  ``run_sharded(text, [rule], keys, jobs=1)`` (the serial loop fanning
  out to a shredder and a checker) with telemetry off must stay within
  5% of a hand-written two-consumer loop, on the parallel-plane gate
  document (~104k nodes, 24 keys, one rule).

* ``test_enabled_overhead_report`` — the checker pipeline under
  :func:`repro.obs.collect` (telemetry on, every counter recorded) must
  stay within 15% of the disabled run.

The ``@pytest.mark.benchmark`` cases record the disabled and enabled
end-to-end timings per push into the ``BENCH_PR10.json`` CI artifact,
with the measured overhead ratios — plus the CPU time and GC collection
counts that :func:`repro.experiments.runner.time_call` now reports —
attached as ``extra_info``.
"""

import pytest

from repro import obs
from repro.experiments.generators import generate_workload
from repro.experiments.runner import time_call
from repro.experiments.scenarios import (
    mondial_shaped_chunks,
    synthesize_document_chunks,
)
from repro.keys.key import parse_key
from repro.keys.stream import KeyStreamChecker, stream_violations
from repro.parallel import run_sharded
from repro.relational.instance import RelationInstance
from repro.transform.stream import RuleStreamer
from repro.xmlmodel.events import iter_events

#: Overhead gates from the PR-10 acceptance criteria: the no-op fast
#: path must be free (<= 5% over a loop with no instrumentation at all)
#: and full collection must stay cheap (<= 15% over the disabled run).
DISABLED_GATE = 1.05
ENABLED_GATE = 1.15

#: Same ~104k-node scale as the static-plane gate document, but with the
#: keys anchored on the *country* subtrees so nothing is skipped and the
#: checker feeds on every event — the worst case for per-event overhead.
GATE_COUNTRIES = 1450
GATE_PROVINCES = 4
GATE_CITIES = 5
GATE_ORGANIZATIONS = 60

#: The parallel-plane gate document (bench_parallel, perfbench gate-ingest).
INGEST_FIELDS = 20
INGEST_DEPTH = 4
INGEST_KEYS = 24
INGEST_FANOUT = 4
INGEST_REPEAT = 30
INGEST_DUPLICATE_EVERY = 211

#: Timed rounds per gate.  On a shared 2-CPU VM the CPU time of one and
#: the same pass varies by ~20% from call to call (wall and CPU time move
#: together, so it is the machine's speed, not scheduling).  The median of
#: 7 per-round ratios landed above 1.05 in 3 of 10 runs of identical
#: loops, the median of 21 in 1 of 10; more rounds, not a wider bound,
#: is what narrows the statistic.
REPEATS = 31


@pytest.fixture(scope="module")
def gate_workload():
    text = "".join(
        mondial_shaped_chunks(
            countries=GATE_COUNTRIES,
            provinces=GATE_PROVINCES,
            cities=GATE_CITIES,
            organizations=GATE_ORGANIZATIONS,
        )
    )
    keys = [
        parse_key("(., (//country, {@car_code}))"),
        parse_key("(., (//organization, {@abbrev}))"),
    ]
    return text, keys


def _baseline(text, keys):
    """The un-instrumented reference loop: what the serial pipeline was
    before the telemetry plane existed (no obs branches anywhere)."""
    checker = KeyStreamChecker(keys)
    feed = checker.feed
    for event in iter_events(text):
        feed(event)
    return checker.finish()


@pytest.fixture(scope="module")
def ingest_workload():
    workload = generate_workload(
        INGEST_FIELDS, depth=INGEST_DEPTH, num_keys=INGEST_KEYS, seed=2
    )
    text = "".join(
        synthesize_document_chunks(
            workload,
            fanout=INGEST_FANOUT,
            top_level_repeat=INGEST_REPEAT,
            duplicate_every=INGEST_DUPLICATE_EVERY,
        )
    )
    return text, workload.rule, workload.keys


def _ingest_baseline(text, rule, keys):
    """A hand-written shredder + checker loop: one tokenizer, two
    consumers, no :mod:`repro.parallel` and no obs code."""
    instance = RelationInstance(rule.schema())
    streamer = RuleStreamer(rule, deduplicate=True, sink=instance.add_row)
    checker = KeyStreamChecker(keys)
    shred, check = streamer.feed, checker.feed
    for event in iter_events(text):
        shred(event)
        check(event)
    streamer.finish()
    return instance.rows, checker.finish()


def _ingest_disabled(text, rule, keys):
    assert not obs.enabled()
    run = run_sharded(text, transformation=[rule], keys=keys, jobs=1)
    return run.instances[rule.relation].rows, run.violations


def _disabled(text, keys):
    assert not obs.enabled()
    return stream_violations(text, keys)


def _enabled(text, keys):
    with obs.collect() as registry:
        found = stream_violations(text, keys)
    snapshot = registry.snapshot()
    assert snapshot.counter("pipeline.events") > 100_000
    return found


def _median(values):
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def _rounds(variants):
    """CPU seconds of every variant in each of ``REPEATS`` rounds.

    Every round times all variants back to back, so machine-speed drift
    moves a round's absolute times, not its internal ratios; the gate
    statistic is the median per-round ratio.  The order alternates from
    round to round (forward, then reversed), so no variant always runs
    first, and each pair of neighbouring variants stays adjacent.  One
    throwaway warm-up round settles tokenizer probing and allocator state
    first.
    """
    for _, fn in variants:  # warm-up round, untimed
        fn()
    rounds = []
    for index in range(REPEATS):
        order = variants if index % 2 == 0 else variants[::-1]
        rounds.append(
            {name: time_call(fn, repeat=1).cpu_seconds for name, fn in order}
        )
    return rounds


def _ratio(rounds, numerator, denominator):
    return _median([r[numerator] / r[denominator] for r in rounds])


def _times(rounds):
    return {name: _median([r[name] for r in rounds]) for name in rounds[0]}


def _measurements(text, keys):
    """Median per-round overhead ratios for the three checker variants.

    Returns ``(times, disabled_ratio, enabled_ratio)`` where ``times``
    maps variant name to its median CPU seconds (for reporting only).
    """
    baseline = _baseline(text, keys)
    assert len(_disabled(text, keys)) == len(baseline)
    assert len(_enabled(text, keys)) == len(baseline)
    rounds = _rounds([
        ("baseline", lambda: _baseline(text, keys)),
        ("disabled", lambda: _disabled(text, keys)),
        ("enabled", lambda: _enabled(text, keys)),
    ])
    return (
        _times(rounds),
        _ratio(rounds, "disabled", "baseline"),
        _ratio(rounds, "enabled", "disabled"),
    )


@pytest.fixture(scope="module")
def measurements(gate_workload):
    """One shared measurement pass: both gates (and the recorded
    benchmarks' ``extra_info``) read the same numbers."""
    text, keys = gate_workload
    return _measurements(text, keys)


# ----------------------------------------------------------------------
# Gate 1: disabled telemetry is free (<= 5% over no instrumentation)
# ----------------------------------------------------------------------
def test_disabled_overhead_report(measurements):
    times, ratio, _ = measurements
    print(
        f"\n[bench_obs] disabled telemetry: baseline "
        f"{times['baseline'] * 1000:.0f} ms, instrumented "
        f"{times['disabled'] * 1000:.0f} ms -> median ratio {ratio:.3f}x "
        f"(gate <= {DISABLED_GATE:.2f}x)"
    )
    assert ratio <= DISABLED_GATE, (
        f"disabled-mode overhead {ratio:.3f}x exceeds the "
        f"{DISABLED_GATE:.2f}x gate (the no-op fast path must not touch "
        f"the hot loop)"
    )


# ----------------------------------------------------------------------
# Gate 2: the two-consumer serial loop is free too (gate-ingest shape)
# ----------------------------------------------------------------------
def test_ingest_disabled_overhead_report(ingest_workload):
    text, rule, keys = ingest_workload
    assert _ingest_disabled(text, rule, keys) == _ingest_baseline(text, rule, keys)
    rounds = _rounds([
        ("baseline", lambda: _ingest_baseline(text, rule, keys)),
        ("disabled", lambda: _ingest_disabled(text, rule, keys)),
    ])
    times, ratio = _times(rounds), _ratio(rounds, "disabled", "baseline")
    print(
        f"\n[bench_obs] shred+check loop: hand-written "
        f"{times['baseline'] * 1000:.0f} ms, run_sharded(jobs=1) "
        f"{times['disabled'] * 1000:.0f} ms -> median ratio {ratio:.3f}x "
        f"(gate <= {DISABLED_GATE:.2f}x)"
    )
    assert ratio <= DISABLED_GATE, (
        f"serial-loop overhead {ratio:.3f}x exceeds the "
        f"{DISABLED_GATE:.2f}x gate (the fan-out loop must stay bare)"
    )


# ----------------------------------------------------------------------
# Gate 3: enabled telemetry stays cheap (<= 15% over disabled)
# ----------------------------------------------------------------------
def test_enabled_overhead_report(measurements):
    times, _, ratio = measurements
    print(
        f"\n[bench_obs] enabled telemetry: disabled "
        f"{times['disabled'] * 1000:.0f} ms, collecting "
        f"{times['enabled'] * 1000:.0f} ms -> median ratio {ratio:.3f}x "
        f"(gate <= {ENABLED_GATE:.2f}x)"
    )
    assert ratio <= ENABLED_GATE, (
        f"enabled-mode overhead {ratio:.3f}x exceeds the "
        f"{ENABLED_GATE:.2f}x gate (counters must be batched per pass, "
        f"not recorded per event)"
    )


# ----------------------------------------------------------------------
# Recorded timings (BENCH_PR10.json)
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="obs-overhead")
def test_check_disabled_100k(benchmark, gate_workload, measurements):
    text, keys = gate_workload
    found = benchmark(lambda: _disabled(text, keys))
    assert not obs.enabled()
    _, disabled_ratio, _ = measurements
    timed = time_call(lambda: _disabled(text, keys))
    benchmark.extra_info["disabled_overhead"] = round(disabled_ratio, 4)
    benchmark.extra_info["cpu_seconds"] = round(timed.cpu_seconds, 6)
    benchmark.extra_info["gc_collections"] = timed.gc_collections
    assert isinstance(found, list)


@pytest.mark.benchmark(group="obs-overhead")
def test_check_enabled_100k(benchmark, gate_workload, measurements):
    text, keys = gate_workload
    found = benchmark(lambda: _enabled(text, keys))
    _, _, enabled_ratio = measurements
    timed = time_call(lambda: _enabled(text, keys))
    benchmark.extra_info["enabled_overhead"] = round(enabled_ratio, 4)
    benchmark.extra_info["cpu_seconds"] = round(timed.cpu_seconds, 6)
    benchmark.extra_info["gc_collections"] = timed.gc_collections
    assert isinstance(found, list)
