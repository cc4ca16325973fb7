"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload gate-ingest --seed 0 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``peak_rss_mb``,
``op_s``); ``--trace 1`` runs a traced run and prints the per-layer
metrics instead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name each workload's own metric (``ingest_s``, ``check_s``,
``delta_p50_ms`` and ``delta_tail_ms``, ``design_sweep_s``) with its unit
and record the configuration.  The exit code is 0 only when every output
check passed; 2 means the benchmark refused to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"

#: Environment switches that change which code path runs.  The benchmark
#: measures the defaults only, so it refuses to run while any is set.
PINNED_ENV = ("REPRO_TOKENIZER", "REPRO_FD_ENGINE", "REPRO_JOBS",
              "REPRO_METRICS", "REPRO_BACKEND")

WORKLOAD_NAMES = ("gate-ingest", "mondial-check", "delta-stream", "schema-design")

#: Per-layer time metrics: metric name → (span name, scale, unit, measure).
#: ``self`` is the span's self time, ``total`` its whole duration; each is
#: the median over the traced operations (set-up repetitions for the
#: set-up layers) that contain the span.
LAYER_TIMES: Dict[str, Tuple[str, float, str, str]] = {
    "xmlmodel.events.tokenize_s": ("xmlmodel.events.tokenize", 1.0, "s", "self"),
    "xmlmodel.static.plan_s": ("xmlmodel.static.plan", 1.0, "s", "self"),
    "keys.stream.check_s": ("keys.stream.check", 1.0, "s", "self"),
    "transform.stream.shred_s": ("transform.stream.shred", 1.0, "s", "self"),
    "parallel.run_sharded_s": ("parallel.run_sharded", 1.0, "s", "total"),
    "core.minimum_cover_s": ("core.minimum_cover", 1.0, "s", "self"),
    "relational.fd.minimize_s": ("relational.fd.minimize", 1.0, "s", "self"),
    "storage.ddl.compile_s": ("storage.ddl.compile", 1.0, "s", "self"),
    "storage.loader.load_s": ("storage.loader.load", 1.0, "s", "self"),
    "storage.verify.verify_s": ("storage.verify.verify", 1.0, "s", "self"),
    "incremental.engine.apply_replace_ms": ("incremental.engine.apply_replace", 1000.0, "ms", "self"),
    "incremental.engine.apply_insert_ms": ("incremental.engine.apply_insert", 1000.0, "ms", "self"),
    "incremental.engine.apply_delete_ms": ("incremental.engine.apply_delete", 1000.0, "ms", "self"),
    "incremental.engine.violations_ms": ("incremental.engine.violations", 1000.0, "ms", "self"),
    "incremental.storage.sync_ms": ("incremental.storage.sync", 1000.0, "ms", "self"),
    "incremental.engine.load_s": ("incremental.engine.load", 1.0, "s", "self"),
    "incremental.storage.initialize_s": ("incremental.storage.initialize", 1.0, "s", "self"),
}

#: Per-layer counts the workloads report, with their units.
LAYER_COUNTS: Dict[str, str] = {
    "xmlmodel.events.events": "count",
    "xmlmodel.static.skip_rate": "ratio",
    "keys.stream.violations": "count",
    "transform.stream.rows": "count",
    "core.cover_fds": "count",
    "storage.loader.rows": "count",
    "storage.verify.violating_groups": "count",
    "incremental.storage.rows_inserted": "rows/delta",
    "incremental.storage.rows_deleted": "rows/delta",
}


def _refusal() -> Optional[str]:
    pinned = [name for name in PINNED_ENV if name in os.environ]
    if pinned:
        return (
            f"refusing to run with {', '.join(pinned)} set: the benchmark "
            "measures the default configuration only"
        )
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"no program source at {ROOT / 'src' / 'repro'}; run from a full checkout"
    return None


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment(seed: int) -> Dict[str, object]:
    """The configuration recorded beside the results."""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": _commit(),
    }


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(outcome) -> Dict[str, Tuple[float, str]]:
    return {
        "setup_s": (outcome.setup_s, "s"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
        "op_s": (outcome.op_s, "s"),
    }


def calibration_report(outcome) -> str:
    """The wall-clock figures behind the speed-normalized ones."""
    from perfbench.calibration import NOMINAL_S

    kernel = statistics.median(outcome.calibration.times)
    return (
        f"wall-clock: setup {outcome.setup_raw_s:.4f} s, operation median "
        f"{outcome.op_median_s:.6f} s; calibration kernel median {kernel:.4f} s "
        f"over {len(outcome.calibration.times)} runs (nominal {NOMINAL_S} s)"
    )


def trace_errors(spans) -> List[str]:
    """Operations whose layer self times plus ``other`` miss their duration."""
    from perfbench.spans import breakdown, operations

    errors = []
    for op, op_spans in operations(spans).items():
        duration, other, layers = breakdown(op_spans)
        if abs(sum(layers.values()) + other - duration) > 1e-6:
            errors.append(f"trace: operation {op} self times do not add up")
    return errors


def per_layer(outcome) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric; 0 for a layer the workload does not call."""
    from perfbench.spans import breakdown, operations, self_times

    spans = outcome.tracer.spans
    own = self_times(spans)
    values: Dict[str, List[float]] = {name: [] for name in LAYER_TIMES}
    other: List[float] = []
    for op_spans in operations(spans).values():
        root = next(span for span in op_spans if span.parent is None)
        if root.name != "setup":
            other.append(breakdown(op_spans)[1])
        for metric, (span_name, scale, _, measure) in LAYER_TIMES.items():
            matching = [span for span in op_spans if span.name == span_name]
            if matching:
                values[metric].append(scale * sum(
                    own[span.id] if measure == "self" else span.duration
                    for span in matching
                ))
    metrics = {
        metric: (_median(values[metric]), LAYER_TIMES[metric][2])
        for metric in LAYER_TIMES
    }
    for metric, unit in LAYER_COUNTS.items():
        metrics[metric] = (float(outcome.counts.get(metric, 0)), unit)
    load_s = metrics["storage.loader.load_s"][0]
    rows = metrics["storage.loader.rows"][0]
    metrics["storage.loader.rows_per_s"] = (rows / load_s if load_s else 0.0, "1/s")
    traced = _median(outcome.traced_times)
    untraced = _median(outcome.op_times)
    metrics["setup.import_s"] = (outcome.import_s, "s")
    metrics["trace.op_s"] = (traced, "s")
    metrics["trace.untraced_op_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.other_s"] = (_median(other), "s")
    return metrics


def _write_trace(workdir: Path, run, outcome, env) -> Path:
    path = workdir / f"trace-{run.workload}-{run.size}-{run.seed}.json"
    path.write_text(json.dumps({
        "workload": run.workload,
        "environment": env,
        "spans": [span.to_json() for span in outcome.tracer.spans],
    }))
    return path


def main(argv: Optional[Sequence[str]] = None, workdir: Path = WORKDIR) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the self-test")
    args = parser.parse_args(argv)

    refusal = _refusal()
    if refusal is not None:
        print(f"perfbench: {refusal}", file=sys.stderr)
        return 2
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from perfbench.workloads import WORKLOADS, Run

    env = environment(args.seed)
    print(f"perfbench: workload={args.workload} size={args.size} trace={args.trace} "
          + " ".join(f"{key}={value}" for key, value in env.items()))
    inputs_dir = workdir / f"inputs-{os.getpid()}"
    inputs_dir.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.size,
              inputs_dir)
    try:
        outcome = WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)

    if args.trace:
        outcome.errors.extend(trace_errors(outcome.tracer.spans))
    measured = bool(outcome.op_times)
    correct = measured and not outcome.errors
    metrics: Dict[str, Tuple[float, str]] = {}
    if measured:
        metrics = per_layer(outcome) if args.trace else end_to_end(outcome)
    for line in outcome.report:
        print(line)
    if measured:
        print(calibration_report(outcome))
    if args.trace:
        print(f"spans: {_write_trace(workdir, run, outcome, env)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    for error in outcome.errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
