"""Markdown reporting for experiment series and designs.

The tables of the README's benchmark sections (and of any write-up of a
re-run) are generated with the helpers below, so re-running the harness on
different hardware produces ready-to-paste updates:

>>> from repro.experiments.figures import figure_7b
>>> from repro.experiments.report import series_to_markdown
>>> print(series_to_markdown(figure_7b(depths=(3, 5))))   # doctest: +SKIP

``design_report`` renders the outcome of the design-from-scratch workflow
(the cover, the fragments, the guaranteed keys and optionally the SQL DDL) as
a single document — the artefact a consumer team would review.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.design.refine import DesignResult
from repro.experiments.runner import ExperimentSeries
from repro.relational import sql as sql_module


def series_to_markdown(series: ExperimentSeries, time_unit: str = "s") -> str:
    """Render one experiment series as a GitHub-flavoured markdown table."""
    algorithms = series.algorithms()
    header = f"### {series.name}\n\n{series.description}\n"
    columns = [series.x_label] + [f"{name} ({time_unit})" for name in algorithms]
    lines = [header]
    lines.append("| " + " | ".join(columns) + " |")
    lines.append("|" + "|".join(["---"] * len(columns)) + "|")
    for point in series.points:
        row = [str(point.parameters.get(series.x_label))]
        for algorithm in algorithms:
            value = point.seconds.get(algorithm)
            row.append("—" if value is None else f"{value:.4f}")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


def experiments_report(series_list: Iterable[ExperimentSeries]) -> str:
    """Render several series as one markdown document."""
    parts = ["# Measured experiment series\n"]
    parts.extend(series_to_markdown(series) for series in series_list)
    return "\n\n".join(parts)


def design_report(result: DesignResult, include_sql: bool = True) -> str:
    """Render a design-from-scratch outcome as a markdown document."""
    lines: List[str] = [f"# Refined relational design ({result.normal_form})", ""]
    lines.append("## Propagated functional dependencies (minimum cover)")
    lines.append("")
    for fd in result.cover.cover:
        lines.append(f"* `{fd}`")
    lines.append("")
    lines.append("## Relations")
    lines.append("")
    for relation in result.schema:
        keys = ", ".join(
            "{" + ", ".join(sorted(key)) + "}" for key in relation.keys
        ) or "(none)"
        lines.append(f"* **{relation.name}**({', '.join(relation.attributes)}) — keys: {keys}")
        for fd in result.fd_by_relation.get(relation.name, []):
            lines.append(f"  * `{fd}`")
    if include_sql:
        lines.append("")
        lines.append("## SQL DDL")
        lines.append("")
        lines.append("```sql")
        lines.append(sql_module.create_schema(result.schema))
        lines.append("```")
    return "\n".join(lines)
