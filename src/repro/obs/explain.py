"""EXPLAIN for extended-MDX queries: plan, sizes, scope estimates.

``explain_query`` answers "what would this query *do*" without filling
the result grid: it parses, runs the static analyzer, builds the
evaluator's own scenario chain and lets each scenario describe itself in
the paper's algebra (σ/Φ/ρ/S/E, Sec. 4 — the chain is the plan, so what
is printed is what runs), resolves the axis sets (instances surviving
the scenario, exactly as execution would), and estimates every grid
cell's **scope size** from the rollup index — the smallest per-coordinate
leaf count is a cheap upper bound on the number of leaf cells a derived
cell must aggregate, the same quantity that dominates Figs. 11–13.

Parse, analysis and axis resolution are the evaluator's own
(:func:`~repro.mdx.evaluator.prepare`), so EXPLAIN reads and fills the
warehouse's prepared-plan cache as a query does.  Instance expansion
depends on output validity, so axis resolution needs the WITH-clause
scenario — its *structure half* only
(:func:`~repro.core.scenario.chain_structure`, kept as the chain's
scenario-cache entry): Φ and R run on metadata, no cell is moved and none
is evaluated.  The one exception is a FILTER / ORDER set, whose condition
reads cells of the applied scenario.  The report also says what the
chain would be applied *to*: the query's footprint — the dimensions its
cells restrict and the base rows that can reach one of them, counted off
the rollup index's masks (:func:`~repro.core.scenario.footprint_rows`),
and whether the last stage would move its leaves at all: a NON_VISUAL
one does only for a cell at leaf level on every dimension.  The
footprint, that leaf test and every estimated cell's address are read off
the grid's :class:`~repro.perf.batch.GridLayout` — the evaluator's own,
kept on the prepared plan.

Surfaced as ``python -m repro explain <query-file>`` (``--json`` for the
structured report).
"""

from __future__ import annotations

from typing import Any

from repro.obs.trace import trace_span

__all__ = ["explain_query", "explain_report"]

#: grid cells beyond this are not individually estimated (summary only)
_ESTIMATE_CAP = 4096


def _scope_estimates(warehouse, layout) -> dict[str, Any]:
    """Estimated scope sizes for the result grid, from the rollup index.

    For each cell address the estimate is the smallest per-coordinate
    leaf count — an upper bound on |scope| that costs one dict probe per
    coordinate instead of a mask intersection.
    """
    index = warehouse.cube.rollup_index()
    n_leaves = index.n_leaves
    n_rows, n_cols = len(layout.row_addrs), layout.n_cols

    n_cells = n_rows * n_cols
    estimated = min(n_cells, _ESTIMATE_CAP)
    sizes: list[int] = []
    derived_cells = 0
    for r in range(min(n_rows, max(1, _ESTIMATE_CAP // max(1, n_cols)))):
        leaf_cols = layout.leaf_columns(r)
        for c in range(n_cols):
            if len(sizes) >= estimated:
                break
            if c not in leaf_cols:
                derived_cells += 1
            estimate = n_leaves
            for i, coord in enumerate(layout.address(r, c)):
                estimate = min(estimate, index.coord_count(i, coord))
                if estimate == 0:
                    break
            sizes.append(estimate)

    summary: dict[str, Any] = {
        "grid_cells": n_cells,
        "cells_estimated": len(sizes),
        "derived_cells_estimated": derived_cells,
        "index_leaves": n_leaves,
    }
    if sizes:
        summary.update(
            {
                "min": min(sizes),
                "max": max(sizes),
                "mean": round(sum(sizes) / len(sizes), 2),
                "total": sum(sizes),
            }
        )
    return summary


def explain_report(warehouse, text: str) -> dict[str, Any]:
    """Structured EXPLAIN: plan, diagnostics, axis sizes, scope estimates.

    Raises :class:`~repro.errors.MdxSyntaxError` on unparseable input.
    When the analyzer reports error-level findings the report carries the
    plan and the diagnostics but skips axis resolution (execution would
    refuse the query the same way) and sets ``"executable": False``; a
    WITH clause no scenario chain can be built from leaves ``"scenario"``
    out too — the diagnostics already say why.
    """
    # Imported lazily to keep obs dependency-light.
    from repro.core.perspective import Mode
    from repro.core.scenario import footprint_rows
    from repro.errors import MdxEvaluationError
    from repro.mdx.evaluator import build_scenarios, prepare

    with trace_span("obs.explain"):
        prepared = prepare(warehouse, text)
        query, analysis = prepared.query, prepared.report

        report: dict[str, Any] = {
            "cube": ".".join(query.cube),
            "warehouse": warehouse.name,
            "leaf_cells": warehouse.cube.n_leaf_cells,
            "named_sets": [name for name, _ in query.named_sets],
            "diagnostics": [d.to_text() for d in analysis],
            "executable": not analysis.has_errors,
        }
        try:
            # the chain the evaluator would run, in application order,
            # each stage rendering itself
            report["scenario"] = [
                scenario.describe() for scenario in build_scenarios(warehouse, query)
            ]
        except MdxEvaluationError:
            pass  # no chain to print; an error-level diagnostic says why
        if analysis.has_errors:
            return report

        # Axis resolution *is* execution's, from the plan or the
        # scenario's structure half (budget-free; nothing is applied).
        resolved = prepared.resolve()
        context = resolved.context
        columns, rows = resolved.columns, resolved.rows

        axes: list[dict[str, Any]] = []
        for axis in query.axes:
            tuples = columns if axis.axis == "columns" else rows
            axes.append(
                {
                    "axis": axis.axis,
                    "tuples": len(tuples),
                    "non_empty": axis.non_empty,
                    "properties": [p.display() for p in axis.properties],
                }
            )
        report["axes"] = axes
        report["slicer"] = dict(sorted(resolved.slicer.items()))
        if context.scenarios:
            # what the chain would be applied to — counted, not applied
            named = resolved.layout.footprint
            kept = footprint_rows(
                warehouse.cube, context.scenarios, context.chain().structure, named
            )
            total = warehouse.cube.n_leaf_cells
            report["footprint"] = {
                "restricted": sorted(named) if kept is not None else [],
                "rows": total if kept is None else len(kept),
                "leaf_cells": total,
            }
            # whether the last stage's ρ / S would run: a NON_VISUAL one
            # moves its leaves only for a cell at leaf level (or a FILTER /
            # ORDER condition, which reads the whole view)
            report["last_stage_moves_leaves"] = (
                context.scenarios[-1].mode is Mode.VISUAL
                or resolved.reads_cells
                or resolved.layout.reads_leaves
            )
        context.keep()
        report["scenario_cache"] = dict(context.scenario_stats)
        report["scope_estimates"] = _scope_estimates(warehouse, resolved.layout)
        return report


def explain_query(warehouse, text: str) -> str:
    """Human-readable EXPLAIN rendering (see :func:`explain_report`)."""
    report = explain_report(warehouse, text)
    lines = [
        f"EXPLAIN  cube={report['cube']}  warehouse={report['warehouse']}  "
        f"leaf_cells={report['leaf_cells']}"
    ]
    if report.get("scenario"):
        lines.append("scenario pipeline (applied in order):")
        for i, step in enumerate(report["scenario"], 1):
            lines.append(f"  {i}. {step['label']}    — {step['algebra']}")
    elif "scenario" in report:
        lines.append("scenario pipeline: none (base cube)")
    if report["named_sets"]:
        lines.append(f"query named sets: {', '.join(report['named_sets'])}")
    for diagnostic in report["diagnostics"]:
        lines.append(f"analyzer: {diagnostic}")
    if not report["executable"]:
        lines.append("plan is NOT executable (error-level findings above)")
        return "\n".join(lines)
    if not report["diagnostics"]:
        lines.append("analyzer: clean")
    for axis in report["axes"]:
        flags = " NON EMPTY" if axis["non_empty"] else ""
        props = (
            f"  properties={','.join(axis['properties'])}"
            if axis["properties"]
            else ""
        )
        lines.append(
            f"axis {axis['axis'].upper()}: {axis['tuples']} tuple(s){flags}{props}"
        )
    if report["slicer"]:
        slicer = ", ".join(f"{k}={v}" for k, v in report["slicer"].items())
        lines.append(f"slicer: {slicer}")
    if "footprint" in report:
        footprint = report["footprint"]
        lines.append(
            f"footprint: {footprint['rows']} of {footprint['leaf_cells']} base "
            "row(s) can reach a cell; restricted on "
            + (", ".join(footprint["restricted"]) or "no dimension")
        )
        lines.append(
            "last stage: "
            + (
                "moves its leaves"
                if report["last_stage_moves_leaves"]
                else "moves no leaf (NON_VISUAL, no cell at leaf level: "
                "every cell is the stage input's)"
            )
        )
    if report["scenario_cache"]:
        cache = ", ".join(
            f"{k.rsplit('_', 1)[-1]}={v}"
            for k, v in sorted(report["scenario_cache"].items())
        )
        lines.append(f"scenario cache: {cache}")
    est = report["scope_estimates"]
    lines.append(
        f"cells: {est['grid_cells']} grid cell(s); "
        f"{est['derived_cells_estimated']} derived of "
        f"{est['cells_estimated']} estimated"
    )
    if "min" in est:
        lines.append(
            "estimated scope sizes (rollup-index upper bound): "
            f"min={est['min']} max={est['max']} mean={est['mean']} "
            f"total={est['total']}  over {est['index_leaves']} indexed leaves"
        )
    return "\n".join(lines)
