"""PR-9 static-plane benchmarks: schema-guided subtree skipping.

The static optimization plane (:mod:`repro.xmlmodel.static`) compiles a
DTD plus a key workload into a :class:`StaticPlan` whose skip set lets
the tokenizer fast-forward over subtrees no key can reach.  Two claims
are pinned here, in the style of the earlier gates (plain
``perf_counter`` timing under ``--benchmark-disable``):

* ``test_static_output_identical_report`` — on a Mondial-shaped ~100k-node
  document whose keys reach only the ``organization`` subtrees (well under
  20% of the document), the pruned checker must reproduce the unpruned
  run *byte-for-byte*: same violations, same node ids, same detail
  strings, on the pure scanner (which serves a string with a skip set)
  and on the expat backend's skip mode alike.

* ``test_static_speedup_report`` — end-to-end ``check-doc`` with the plan
  must beat the unpruned streaming run ≥ 3×.  The win is algorithmic
  (skipped bytes are settled by a few C-level scans instead of being
  tokenized), so the gate runs everywhere, single-core boxes included.

The ``@pytest.mark.benchmark`` cases record pruned and unpruned checker
throughput per push into the ``BENCH_PR9.json`` CI artifact, with the
measured selective speedup and skip rate attached as ``extra_info``.
"""

import time

import pytest

from repro.experiments.scenarios import MONDIAL_DTD, mondial_shaped_chunks
from repro.keys.key import parse_key
from repro.keys.stream import stream_violations
from repro.xmlmodel import accel
from repro.xmlmodel.dtd import parse_dtd
from repro.xmlmodel.events import SKIP, iter_events
from repro.xmlmodel.static import compile_plan

REQUIRED_SPEEDUP = 3.0
REQUIRED_SKIP_RATE = 0.8  # the keys must reach <= 20% of the document

#: ~104k nodes: Mondial grown two orders beyond the paper's figures, with
#: the whole key workload anchored on the (small) organization section so
#: the country subtrees are statically irrelevant.
GATE_COUNTRIES = 1450
GATE_PROVINCES = 4
GATE_CITIES = 5
GATE_ORGANIZATIONS = 60


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
    # Two duplicated abbreviations give the checker real violations to
    # report, so "identical output" compares substance, not empty lists.
    text = text.replace('abbrev="ORG1"', 'abbrev="ORG0"', 1)
    text = text.replace('abbrev="ORG3"', 'abbrev="ORG2"', 1)
    dtd = parse_dtd(MONDIAL_DTD)
    keys = [parse_key("(., (//organization, {@abbrev}))")]
    plan = compile_plan(dtd, keys=keys)
    return text, keys, plan


def _best_of(callable_, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        begin = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - begin)
    return best, result


def _fingerprint(violations):
    return [
        (v.key.text, v.context_node_id, v.kind, v.node_ids, v.detail)
        for v in violations
    ]


def _skip_rate(text, plan):
    """Fraction of node identifiers elided by the plan's skip set."""
    total = 0
    elided = 0
    for event in iter_events(text, skip=plan.skipset):
        if event.kind == SKIP:
            total += event.value
            elided += event.value
        elif event.kind in ("start", "attr", "text"):
            total += 1
    return elided / total, total


# ----------------------------------------------------------------------
# Gate 1 (runs everywhere): pruned output ≡ unpruned output, byte for byte
# ----------------------------------------------------------------------
def test_static_output_identical_report(gate_workload):
    text, keys, plan = gate_workload
    rate, nodes = _skip_rate(text, plan)
    assert nodes >= 100_000, "the gate document must stay ~100k-node scale"
    assert rate >= REQUIRED_SKIP_RATE, (
        f"the workload must be schema-selective: only {rate:.0%} of node ids "
        f"are elided (gate >= {REQUIRED_SKIP_RATE:.0%})"
    )
    unpruned = stream_violations(text, keys)
    pruned = stream_violations(text, keys, plan=plan)
    expat = stream_violations(accel._buffer_events(text, True, plan.skipset), keys)
    assert _fingerprint(pruned) == _fingerprint(unpruned)
    assert _fingerprint(expat) == _fingerprint(unpruned)
    assert unpruned, "the gate document must produce real violations"
    print(
        f"\n[bench_static] {nodes} node ids, {len(keys)} key(s): the plan "
        f"elides {rate:.1%} of the document and reproduces the unpruned "
        f"output exactly ({len(unpruned)} violations, both backends)"
    )


# ----------------------------------------------------------------------
# Gate 2: >= 3x end-to-end check-doc under the plan
# ----------------------------------------------------------------------
def test_static_speedup_report(gate_workload):
    text, keys, plan = gate_workload
    unpruned_time, unpruned = _best_of(lambda: stream_violations(text, keys))
    pruned_time, pruned = _best_of(
        lambda: stream_violations(text, keys, plan=plan)
    )
    assert _fingerprint(pruned) == _fingerprint(unpruned)

    speedup = unpruned_time / pruned_time
    print(
        f"\n[bench_static] end-to-end check-doc: unpruned "
        f"{unpruned_time * 1000:.0f} ms, pruned {pruned_time * 1000:.0f} ms "
        f"-> {speedup:.2f}x (gate >= {REQUIRED_SPEEDUP:.0f}x)"
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"schema-guided speedup {speedup:.2f}x below the "
        f"{REQUIRED_SPEEDUP:.0f}x gate (unpruned {unpruned_time * 1000:.0f} ms "
        f"vs pruned {pruned_time * 1000:.0f} ms)"
    )


# ----------------------------------------------------------------------
# Recorded throughput benchmarks (BENCH_PR9.json)
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="static-checker")
def test_checker_unpruned_100k(benchmark, gate_workload):
    text, keys, _ = gate_workload
    violations = benchmark(stream_violations, text, keys)
    assert violations


@pytest.mark.benchmark(group="static-checker")
def test_checker_pruned_100k(benchmark, gate_workload):
    text, keys, plan = gate_workload
    violations = benchmark(lambda: stream_violations(text, keys, plan=plan))
    assert violations
    unpruned_time, _ = _best_of(lambda: stream_violations(text, keys))
    pruned_time, _ = _best_of(lambda: stream_violations(text, keys, plan=plan))
    rate, _ = _skip_rate(text, plan)
    benchmark.extra_info["selective_speedup"] = round(
        unpruned_time / pruned_time, 2
    )
    benchmark.extra_info["skip_rate"] = round(rate, 3)


@pytest.mark.benchmark(group="static-tokenizer")
def test_tokenizer_skip_100k(benchmark, gate_workload):
    text, _, plan = gate_workload
    count = benchmark(
        lambda: sum(1 for _ in iter_events(text, skip=plan.skipset))
    )
    assert count
