"""Self-test of the benchmark: every workload at a tiny size.

It checks that each run prints every metric named in ``BENCHMARK.json``
with its unit, that the output checks run (a corrupted answer makes the
run fail), and that a traced operation's layer self times plus the
``other`` remainder add up to the operation's duration.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench.spans import Span, breakdown, operations

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _default_configuration(monkeypatch):
    for name in bench.PINNED_ENV:
        monkeypatch.delenv(name, raising=False)


def _run(capsys, workdir: Path, workload: str, trace: int):
    code = bench.main(
        ["--workload", workload, "--seed", "0", "--seconds", "0.2",
         "--trace", str(trace), "--size", "tiny"],
        workdir=workdir,
    )
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def _assert_metrics(lines, result, declared):
    units = {metric["name"]: metric["unit"] for metric in declared}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), f"{name} not printed with {unit}"


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_end_to_end_metrics_printed_with_units(capsys, tmp_path, workload):
    code, lines, result = _run(capsys, tmp_path, workload, trace=0)
    assert code == 0
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    _assert_metrics(lines, result, SPEC["end_to_end"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_traced_self_times_add_up(capsys, tmp_path, workload):
    code, lines, result = _run(capsys, tmp_path, workload, trace=1)
    assert code == 0 and result["correct"] is True
    _assert_metrics(lines, result, SPEC["per_layer"])
    trace = json.loads(next(tmp_path.glob(f"trace-{workload}-*.json")).read_text())
    spans = [Span(**{key: value for key, value in entry.items()})
             for entry in trace["spans"]]
    measured = 0
    for op_spans in operations(spans).values():
        duration, other, layers = breakdown(op_spans)
        if next(span for span in op_spans if span.parent is None).name != "setup":
            measured += 1
            assert layers, "an operation without layer spans"
        assert other >= -1e-9
        assert sum(layers.values()) + other == pytest.approx(duration, abs=1e-6)
    assert measured, "the traced run recorded no operation"


def _drop_last(items):
    return list(items)[:-1]


def _corrupt(monkeypatch, workload):
    """Make one answer wrong, so the workload's checks must catch it."""
    if workload in ("gate-ingest", "delta-stream"):
        # gate-ingest: the fused pass loses a violation (vs the DOM plane);
        # delta-stream: the from-scratch reference loses one.
        import repro.parallel

        original = repro.parallel.run_sharded

        def lossy(*args, **kwargs):
            result = original(*args, **kwargs)
            result.violations = _drop_last(result.violations)
            return result

        monkeypatch.setattr(repro.parallel, "run_sharded", lossy)
    elif workload == "mondial-check":
        from perfbench import oracles

        monkeypatch.setattr(oracles, "unpruned_violations", lambda *args: [])
    else:
        import repro.core.minimum_cover

        original = repro.core.minimum_cover.minimum_cover_from_keys

        def lossy(*args, **kwargs):
            result = original(*args, **kwargs)
            result.cover = _drop_last(result.cover)
            return result

        monkeypatch.setattr(repro.core.minimum_cover, "minimum_cover_from_keys", lossy)


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_output_checks_catch_a_wrong_answer(capsys, tmp_path, monkeypatch, workload):
    _corrupt(monkeypatch, workload)
    code, _, result = _run(capsys, tmp_path, workload, trace=0)
    assert code == 1
    assert result["correct"] is False


def test_refuses_a_non_default_configuration(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TOKENIZER", "pure")
    code = bench.main(["--workload", "schema-design", "--size", "tiny"], workdir=tmp_path)
    assert code == 2
    assert "REPRO_TOKENIZER" in capsys.readouterr().err
