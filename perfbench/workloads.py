"""The four workloads: set-up, timed operations, output checks.

Every workload follows one pattern (:func:`_measure`):

1. set the program up ``SETUP_REPS`` times and keep the last state;
2. run one warm-up operation, then timed operations in a closed loop (one
   client, ``jobs=1``, one sqlite connection) until the operations have
   taken ``seconds`` in total;
3. read the process's peak RSS;
4. run the reference oracles and compare every operation's output.

A traced run alternates traced and untraced operations, so the tracing
overhead is the difference of the two medians in one run.  Layers that
one public call fuses (``run_sharded``, the pruned check pass,
``minimum_cover_from_keys``) are split by timing prefixes of the same
work right after the traced operation, in the same round.
"""

from __future__ import annotations

import gc
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from perfbench import inputs, oracles
from perfbench.calibration import Calibration
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parent.parent

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = {"full": 3, "tiny": 1}
#: Fresh-interpreter imports per run; their median is part of ``setup_s``.
IMPORT_REPS = {"full": 5, "tiny": 1}
#: The fewest timed operations a run makes, however long they take.
MIN_OPS = 3
#: Seconds of measured operations between two calibration kernels.
CALIBRATE_EVERY = 0.25


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    size: str
    workdir: Path


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: Output mismatches; any entry makes the run incorrect.
    errors: List[str] = field(default_factory=list)
    #: Untraced operation durations (seconds), warm-up excluded.
    op_times: List[float] = field(default_factory=list)
    #: The same durations, speed-normalized (see ``perfbench.calibration``).
    op_norm: List[float] = field(default_factory=list)
    #: Traced operation durations (traced runs only).
    traced_times: List[float] = field(default_factory=list)
    #: In-process set-up durations (seconds), one per repetition.
    setup_times: List[float] = field(default_factory=list)
    setup_norm: List[float] = field(default_factory=list)
    #: Median seconds to import the workload's modules in a fresh interpreter.
    import_s: float = 0.0
    import_norm: float = 0.0
    calibration: Calibration = field(default_factory=Calibration)
    peak_rss_mb: float = 0.0
    #: Layer counts (per operation), named as the per-layer metrics.
    counts: Dict[str, float] = field(default_factory=dict)
    #: Human-readable lines printed before the result.
    report: List[str] = field(default_factory=list)
    tracer: Tracer = field(default_factory=lambda: Tracer(enabled=False))

    @property
    def setup_s(self) -> float:
        """Speed-normalized set-up: imports plus the median repetition."""
        in_process = statistics.median(self.setup_norm) if self.setup_norm else 0.0
        return self.import_norm + in_process

    @property
    def setup_raw_s(self) -> float:
        in_process = statistics.median(self.setup_times) if self.setup_times else 0.0
        return self.import_s + in_process

    @property
    def op_s(self) -> float:
        """Speed-normalized median operation time."""
        return statistics.median(self.op_norm)

    @property
    def op_median_s(self) -> float:
        """Wall-clock median operation time."""
        return statistics.median(self.op_times)


_OFF = Tracer(enabled=False)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _import_seconds(modules: List[str], reps: int) -> Tuple[float, float]:
    """Median time to import ``modules`` in a fresh interpreter, raw and
    speed-normalized.

    The child runs the calibration kernel around its imports, so the
    normalization sees the CPU the child ran on.  One untimed child first
    compiles any missing bytecode.  ``-I`` keeps the children away from
    the environment and the user's site packages.
    """
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT)!r}]\n"
        "from perfbench.calibration import NOMINAL_S, kernel\n"
        "kernel()\n"
        "before = kernel()\n"
        "start = time.perf_counter()\n"
        + "".join(f"import {module}\n" for module in modules)
        + "elapsed = time.perf_counter() - start\n"
        "after = kernel()\n"
        "print(elapsed, elapsed * NOMINAL_S / ((before + after) / 2))\n"
    )
    raw, normalized = [], []
    for index in range(reps + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        if index:
            elapsed, scaled = done.stdout.split()
            raw.append(float(elapsed))
            normalized.append(float(scaled))
    return statistics.median(raw), statistics.median(normalized)


def _setup(run: Run, outcome: Outcome, tracer: Tracer, modules: List[str],
           build: Optional[Callable[[Tracer], object]] = None):
    """Time the program's set-up; returns the last repetition's state.

    Each in-process repetition is normalized by the calibration kernels
    run just before and after it (the imports, inside their child).
    """
    calibration = outcome.calibration
    outcome.import_s, outcome.import_norm = _import_seconds(modules, IMPORT_REPS[run.size])
    calibration.sample()
    state = None
    if build is None:
        return state
    for _ in range(SETUP_REPS[run.size]):
        state = None  # let the previous repetition's state go first
        gc.collect()
        before = len(calibration.times) - 1
        start = time.perf_counter()
        with tracer.op("setup"):
            state = build(tracer)
        elapsed = time.perf_counter() - start
        outcome.setup_times.append(elapsed)
        outcome.setup_norm.append(elapsed * calibration.factor(before, calibration.sample()))
    return state


def _measure(
    run: Run,
    outcome: Outcome,
    tracer: Tracer,
    operation: Callable[[Tracer, object], object],
    check: Callable[[object], None],
    prepare: Callable[[], object] = lambda: None,
    after: Optional[Callable[[Tracer, object], None]] = None,
    between: Optional[Callable[[float], None]] = None,
    collect: bool = True,
) -> None:
    """The closed loop: warm-up, then operations until ``run.seconds`` of
    operation time has been measured.

    ``prepare`` makes the next operation's input (untimed), ``check``
    compares its output, ``after`` runs the prefix timings of a traced
    operation, ``between`` sees the measured time so far (for checkpoints).
    ``collect`` runs the garbage collector before each operation, outside
    the timing, so one operation's garbage is not charged to the next.
    """
    calibration = outcome.calibration
    #: Kernel index before each untraced operation; the next kernel run
    #: (index + 1) closes its bracket.
    brackets: List[int] = []
    since_kernel = CALIBRATE_EVERY
    measured = 0.0
    index = 0
    while True:
        warm_up = index == 0
        traced = run.trace and not warm_up and index % 2 == 1
        active = tracer if traced else _OFF
        payload = prepare()
        if not warm_up and since_kernel >= CALIBRATE_EVERY:
            calibration.sample()
            since_kernel = 0.0
        if collect:
            gc.collect()
        outcome.attempted += 1
        start = time.perf_counter()
        try:
            with active.op(run.workload):
                output = operation(active, payload)
        except Exception:  # a failed operation is counted, and the loop goes on
            elapsed = time.perf_counter() - start
            outcome.failed += 1
            traceback.print_exc(file=sys.stderr)
        else:
            elapsed = time.perf_counter() - start
            if traced and after is not None:
                after(tracer, output)
            check(output)
            if not warm_up:
                if traced:
                    outcome.traced_times.append(elapsed)
                else:
                    outcome.op_times.append(elapsed)
                    brackets.append(len(calibration.times) - 1)
        # Free this operation's data, so the next one runs without it.
        payload = output = None
        index += 1
        if not warm_up:
            measured += elapsed
            since_kernel += elapsed
            if between is not None:
                between(measured)
        done = len(outcome.op_times) + len(outcome.traced_times)
        if measured >= run.seconds and done >= MIN_OPS:
            break
        if outcome.failed > MIN_OPS and not done:
            break  # nothing succeeds; stop rather than spin
    calibration.sample()
    outcome.op_norm = calibration.normalize(
        outcome.op_times, [(before, before + 1) for before in brackets]
    )


def _last_span(tracer: Tracer, name: str):
    for span in reversed(tracer.spans):
        if span.name == name:
            return span
    raise LookupError(f"no span named {name!r}")


def _op_spans(tracer: Tracer, name: str):
    """The spans named ``name`` of the most recent operation, in order."""
    op = tracer.spans[-1].op
    return [span for span in tracer.spans if span.op == op and span.name == name]


def _time(fn: Callable[[], object]) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# gate-ingest
# ----------------------------------------------------------------------
GATE_MODULES = ["repro.parallel", "repro.core.minimum_cover", "repro.storage",
                "repro.keys.key", "repro.transform.dsl"]


@dataclass
class _GateOutput:
    run: object
    result: object
    table: object
    loaded: int
    found: Dict[str, list]


def gate_ingest(run: Run) -> Outcome:
    """File → shred+check → cover → DDL → load → verify, per document."""
    from repro.core.minimum_cover import minimum_cover_from_keys
    from repro.keys.key import parse_keys
    from repro.keys.stream import KeyStreamChecker
    from repro.parallel import run_sharded
    from repro.relational.fd import minimize
    from repro.storage import (BulkLoader, SQLiteBackend, SQLVerifier,
                               StorageDDL, compile_table_ddl)
    from repro.transform.dsl import parse_rule
    from repro.xmlmodel.events import iter_events

    outcome = Outcome(tracer=Tracer(enabled=run.trace))
    tracer = outcome.tracer
    files = inputs.gate_inputs(run.seed, run.size, run.workdir)

    def build(_tracer):
        keys = parse_keys(files.keys.read_text())
        rule = parse_rule(files.rule.read_text())
        return keys, rule

    keys, rule = _setup(run, outcome, tracer, GATE_MODULES, build)
    document = files.document

    def operation(tracer: Tracer, _payload) -> _GateOutput:
        with tracer.span("parallel.run_sharded"):
            sharded = run_sharded(document, transformation=[rule], keys=keys, jobs=1)
        with tracer.span("core.minimum_cover"):
            result = minimum_cover_from_keys(keys, rule)
        with tracer.span("storage.ddl.compile"):
            table = compile_table_ddl(rule.schema(), result.cover, mode="log")
        ddl = StorageDDL(mode="log", tables={rule.relation: table})
        backend = SQLiteBackend()
        try:
            with tracer.span("storage.loader.load"):
                loader = BulkLoader(backend, ddl)
                loader.create_schema()
                backend.begin()
                loaded = loader.load_instance(sharded.instances[rule.relation])
                backend.commit()
            with tracer.span("storage.verify.verify"):
                found = SQLVerifier(backend, ddl).check_keys()
        finally:
            backend.close()
        return _GateOutput(sharded, result, table, loaded, found)

    def document_text() -> str:
        # What run_sharded does with a path: read the bytes, decode once.
        return document.read_bytes().decode("utf-8")

    def tokenize() -> int:
        events = 0
        for _event in iter_events(document_text()):
            events += 1
        return events

    def tokenize_check() -> None:
        checker = KeyStreamChecker(keys)
        feed = checker.feed
        for event in iter_events(document_text()):
            feed(event)
        checker.finish()

    def after(tracer: Tracer, output: _GateOutput) -> None:
        tokenize_s = _time(tokenize)
        tokenize_check_s = _time(tokenize_check)
        tracer.partition(_last_span(tracer, "parallel.run_sharded"), [
            ("xmlmodel.events.tokenize", tokenize_s),
            ("keys.stream.check", tokenize_check_s - tokenize_s),
            ("transform.stream.shred", 0.0),
        ])
        minimize_s = _time(lambda: minimize(output.result.generated))
        tracer.embed(_last_span(tracer, "core.minimum_cover"),
                     "relational.fd.minimize", minimize_s)

    def fingerprint(output: _GateOutput) -> tuple:
        return (
            output.run.instances[rule.relation].rows,
            sorted(oracles.violation_fingerprint(output.run.violations)),
            oracles.sql_fingerprint(output.found),
            [sorted(key) for key in output.table.key_sets],
            output.loaded,
        )

    #: The first operation's output and fingerprint; every later one must match.
    first: Dict[str, object] = {}

    def check(output: _GateOutput) -> None:
        if not first:
            first.update(output=output, fingerprint=fingerprint(output))
        elif fingerprint(output) != first["fingerprint"]:
            outcome.errors.append("gate-ingest: an operation's output differs from the first")

    _measure(run, outcome, tracer, operation, check, after=after)
    outcome.peak_rss_mb = _peak_rss_mb()
    if not first:
        return outcome

    output = first["output"]
    rows, violations, sql, _, loaded = first["fingerprint"]
    reference, reference_violations = oracles.gate_reference(document, rule, keys)
    if rows != reference.rows:
        outcome.errors.append("gate-ingest: shredded rows differ from the DOM plane")
    if violations != reference_violations:
        outcome.errors.append("gate-ingest: key violations differ from the DOM plane")
    if loaded != len(reference.rows):
        outcome.errors.append("gate-ingest: the loader did not load every row")
    if sql != oracles.instance_key_violations(reference, output.table.key_sets):
        outcome.errors.append("gate-ingest: SQL verifier groups differ from RelationInstance")
    if not violations or not sql:
        outcome.errors.append("gate-ingest: the document must produce violations")

    outcome.counts.update({
        "xmlmodel.events.events": tokenize(),
        "keys.stream.violations": len(output.run.violations),
        "transform.stream.rows": len(rows),
        "core.cover_fds": len(output.result.cover),
        "storage.loader.rows": loaded,
        "storage.verify.violating_groups": len(sql),
    })
    outcome.report.append(
        f"ingest_s = {outcome.op_median_s:.4f} s per document "
        f"({files.nodes} nodes, {len(rows)} rows, {len(violations)} violations; "
        f"median of {len(outcome.op_times)})"
    )
    return outcome


# ----------------------------------------------------------------------
# mondial-check
# ----------------------------------------------------------------------
MONDIAL_MODULES = ["repro.keys.key", "repro.keys.stream", "repro.xmlmodel.dtd",
                   "repro.xmlmodel.events", "repro.xmlmodel.static"]


def mondial_check(run: Run) -> Outcome:
    """``check-doc --dtd --prune`` on a Mondial-shaped file."""
    from repro.keys.key import parse_keys
    from repro.keys.stream import KeyStreamChecker
    from repro.xmlmodel.dtd import parse_dtd
    from repro.xmlmodel.events import SKIP, iter_events
    from repro.xmlmodel.static import compile_plan

    outcome = Outcome(tracer=Tracer(enabled=run.trace))
    tracer = outcome.tracer
    files = inputs.mondial_inputs(run.seed, run.size, run.workdir)
    document = files.document

    def build(tracer: Tracer):
        keys = parse_keys(files.keys.read_text())
        with tracer.span("xmlmodel.static.plan"):
            plan = compile_plan(parse_dtd(files.dtd.read_text()), keys=keys)
        return keys, plan

    keys, plan = _setup(run, outcome, tracer, MONDIAL_MODULES, build)
    skip = plan.skipset

    def operation(tracer: Tracer, _payload):
        with tracer.span("check_doc.pass"):
            checker = KeyStreamChecker(keys)
            feed = checker.feed
            for event in iter_events(document, skip=skip):
                feed(event)
            return checker.finish()

    def tokenize() -> None:
        for _event in iter_events(document, skip=skip):
            pass

    def after(tracer: Tracer, _output) -> None:
        tracer.partition(_last_span(tracer, "check_doc.pass"), [
            ("xmlmodel.events.tokenize", _time(tokenize)),
            ("keys.stream.check", 0.0),
        ])

    first: List[list] = []

    def check(output) -> None:
        found = oracles.violation_fingerprint(output)
        if not first:
            first.append(found)
        elif found != first[0]:
            outcome.errors.append("mondial-check: an operation's output differs from the first")

    _measure(run, outcome, tracer, operation, check, after=after)
    outcome.peak_rss_mb = _peak_rss_mb()
    if not first:
        return outcome

    if first[0] != oracles.unpruned_violations(document, keys):
        outcome.errors.append("mondial-check: the pruned result differs from the unpruned run")
    if not first[0]:
        outcome.errors.append("mondial-check: the injected duplicate was not reported")

    events = total = elided = 0
    for event in iter_events(document, skip=skip):
        events += 1
        if event.kind == SKIP:
            total += event.value
            elided += event.value
        elif event.kind in ("start", "attr", "text"):
            total += 1
    outcome.counts.update({
        "xmlmodel.events.events": events,
        "xmlmodel.static.skip_rate": elided / total,
        "keys.stream.violations": len(first[0]),
    })
    outcome.report.append(
        f"check_s = {outcome.op_median_s:.4f} s per check "
        f"({document.stat().st_size} bytes, {total} node ids, "
        f"{elided / total:.2%} elided, abbrev {files.duplicate[0]} renamed "
        f"{files.duplicate[1]}; median of {len(outcome.op_times)})"
    )
    return outcome


# ----------------------------------------------------------------------
# delta-stream
# ----------------------------------------------------------------------
DELTA_MODULES = ["repro.incremental", "repro.core.minimum_cover", "repro.storage",
                 "repro.keys.key", "repro.transform.dsl"]


def _traced_store_class():
    from repro.incremental import DeltaStore

    class TracedDeltaStore(DeltaStore):
        """A ``DeltaStore`` whose database calls open spans."""

        tracer: Tracer = _OFF

        def initialize(self, *args, **kwargs):
            with self.tracer.span("incremental.storage.initialize"):
                return super().initialize(*args, **kwargs)

        def apply(self, *args, **kwargs):
            with self.tracer.span("incremental.storage.sync"):
                return super().apply(*args, **kwargs)

    return TracedDeltaStore


def delta_stream(run: Run) -> Outcome:
    """Seeded subtree deltas against a loaded engine with a sqlite store."""
    from repro.core.minimum_cover import minimum_cover_from_keys
    from repro.incremental import DeltaStore, IncrementalEngine
    from repro.keys.key import parse_keys
    from repro.storage import (BulkLoader, SQLiteBackend, StorageDDL,
                               compile_table_ddl)
    from repro.transform.dsl import parse_rule

    outcome = Outcome(tracer=Tracer(enabled=run.trace))
    tracer = outcome.tracer
    files = inputs.gate_inputs(run.seed, run.size, run.workdir)
    text = files.document.read_text()
    store_class = _traced_store_class() if run.trace else DeltaStore
    backends: List[object] = []

    def build(tracer: Tracer):
        while backends:
            backends.pop().close()
        keys = parse_keys(files.keys.read_text())
        rule = parse_rule(files.rule.read_text())
        with tracer.span("incremental.engine.load"):
            engine = IncrementalEngine([rule], keys)
            engine.load(text)
        cover = minimum_cover_from_keys(keys, rule).cover
        table = compile_table_ddl(rule.schema(), cover, mode="log")
        backend = SQLiteBackend()
        backends.append(backend)
        ddl = StorageDDL(mode="log", tables={rule.relation: table})
        store = store_class(BulkLoader(backend, ddl))
        if run.trace:
            store.tracer = tracer
        engine.attach_store(store)
        return keys, rule, engine, backend

    try:
        keys, rule, engine, backend = _setup(run, outcome, tracer, DELTA_MODULES, build)
        return _delta_loop(run, outcome, tracer, keys, rule, engine, backend)
    finally:
        while backends:
            backends.pop().close()


def _delta_loop(run, outcome, tracer, keys, rule, engine, backend) -> Outcome:
    from repro.parallel import run_sharded
    from repro.relational.sql import quote_identifier

    stream = inputs.DeltaStream(run.seed, inputs.DELTA_BOUNDS[run.size])
    schema = rule.schema()
    select = "SELECT {} FROM {}".format(
        ", ".join(quote_identifier(a) for a in schema.attributes),
        quote_identifier(rule.relation),
    )
    checkpoints: List[tuple] = []
    marks = [run.seconds / 3, 2 * run.seconds / 3]
    rows_changed = {"inserted": 0, "deleted": 0, "deltas": 0}

    def checkpoint() -> None:
        checkpoints.append((
            engine.text(),
            oracles.digest(oracles.encoded_rows(schema, engine.instances()[rule.relation].rows)),
            oracles.digest(oracles.violation_fingerprint(engine.violations())),
            oracles.digest(oracles.row_multiset(backend.query(select))),
        ))

    def operation(tracer: Tracer, delta):
        with tracer.span(f"incremental.engine.apply_{delta.kind}"):
            report = engine.apply(delta)
        with tracer.span("incremental.engine.violations"):
            found = engine.violations()
        return report, found

    def check(output) -> None:
        report, found = output
        if report.subtrees != engine.subtree_count or report.violations != len(found):
            outcome.errors.append("delta-stream: a delta report disagrees with the engine")
        rows_changed["inserted"] += sum(report.rows_inserted.values())
        rows_changed["deleted"] += sum(report.rows_deleted.values())
        rows_changed["deltas"] += 1

    def between(measured: float) -> None:
        if marks and measured >= marks[0]:
            marks.pop(0)
            checkpoint()

    _measure(run, outcome, tracer, operation, check,
             prepare=lambda: stream.next(engine), between=between, collect=False)
    checkpoint()
    outcome.peak_rss_mb = _peak_rss_mb()
    if not outcome.op_times:
        return outcome

    for text, rows, violations, stored in checkpoints:
        fresh = run_sharded(text, transformation=[rule], keys=keys, jobs=1)
        fresh_rows = oracles.encoded_rows(schema, fresh.instances[rule.relation].rows)
        if rows != oracles.digest(fresh_rows):
            outcome.errors.append("delta-stream: engine rows differ from a from-scratch run")
        if violations != oracles.digest(oracles.violation_fingerprint(fresh.violations)):
            outcome.errors.append("delta-stream: engine violations differ from a from-scratch run")
        if stored != oracles.digest(oracles.row_multiset(fresh_rows)):
            outcome.errors.append("delta-stream: database rows differ from a from-scratch run")

    deltas = max(rows_changed["deltas"], 1)
    outcome.counts.update({
        "incremental.storage.rows_inserted": rows_changed["inserted"] / deltas,
        "incremental.storage.rows_deleted": rows_changed["deleted"] / deltas,
        "keys.stream.violations": len(engine.violations()),
    })
    times = sorted(outcome.op_times)
    samples = len(times)
    line = f"delta_p50_ms = {1000 * statistics.median(times):.3f} ms"
    if samples > 10:
        percentile = 100.0 * (samples - 10) / samples
        line += (
            f"; delta_tail_ms = {1000 * times[samples - 11]:.3f} ms "
            f"(p{percentile:.1f}: the highest percentile with 10 samples beyond it)"
        )
    outcome.report.append(
        f"{line} over {samples} deltas; {len(checkpoints)} checkpoints "
        f"checked against from-scratch runs"
    )
    return outcome


# ----------------------------------------------------------------------
# schema-design
# ----------------------------------------------------------------------
DESIGN_MODULES = ["repro.core.minimum_cover", "repro.storage.ddl"]


def schema_design(run: Run) -> Outcome:
    """Minimum cover + strict DDL for one fresh sweep of generated schemas."""
    from repro.core.minimum_cover import minimum_cover_from_keys
    from repro.relational.fd import minimize
    from repro.storage import compile_table_ddl

    outcome = Outcome(tracer=Tracer(enabled=run.trace))
    tracer = outcome.tracer
    _setup(run, outcome, tracer, DESIGN_MODULES)
    grid = inputs.SCHEMA_SWEEPS[run.size]
    salts = inputs.schema_salts(run.seed)

    def prepare():
        return [inputs.renamed_workload(f, d, k, next(salts)) for f, d, k in grid]

    def operation(tracer: Tracer, schemas):
        designs = []
        for rule, keys in schemas:
            with tracer.span("core.minimum_cover"):
                result = minimum_cover_from_keys(keys, rule)
            with tracer.span("storage.ddl.compile"):
                table = compile_table_ddl(rule.schema(), result.cover)
            designs.append((rule, result, table))
        return designs

    def after(tracer: Tracer, designs) -> None:
        for span, (_, result, _) in zip(_op_spans(tracer, "core.minimum_cover"), designs):
            tracer.embed(span, "relational.fd.minimize",
                         _time(lambda: minimize(result.generated)))

    cover_fds: List[int] = []

    def check(designs) -> None:
        cover_fds.append(sum(len(result.cover) for _, result, _ in designs))
        for rule, result, table in designs:
            outcome.errors.extend(oracles.design_errors(rule.schema(), result, table))

    _measure(run, outcome, tracer, operation, check, prepare=prepare, after=after)
    outcome.peak_rss_mb = _peak_rss_mb()
    if cover_fds:
        outcome.counts["core.cover_fds"] = statistics.median(cover_fds)
    shape = ", ".join(f"{f}f/d{d}/{k}k" for f, d, k in grid)
    outcome.report.append(
        f"design_sweep_s = {outcome.op_median_s:.4f} s per sweep "
        f"({shape}; median of {len(outcome.op_times)}, fresh names each sweep)"
        if outcome.op_times else "design_sweep_s = n/a"
    )
    return outcome


WORKLOADS: Dict[str, Callable[[Run], Outcome]] = {
    "gate-ingest": gate_ingest,
    "mondial-check": mondial_check,
    "delta-stream": delta_stream,
    "schema-design": schema_design,
}
