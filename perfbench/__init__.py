"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run it from the repository root::

    python3 perfbench/run.py --workload gate-ingest --seed 0 --seconds 12 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and how the
traced run splits an operation into layers.
"""
