"""``python -m repro`` — demonstration and analysis entry points.

Without arguments, prints the library version and runs the paper's headline
what-if query on the running example, so a fresh install can verify itself
in one command.  ``python -m repro analyze <query-file>`` runs the static
analyzer (:mod:`repro.analysis`) over an extended-MDX query without
executing it; ``python -m repro query <query-file>`` executes one, with an
optional ``--deadline-ms``/``--max-cells`` budget and observability flags
(``--profile`` for phase timings, ``--stats`` for engine counters,
``--slow-ms`` for the slow-query log — all on stderr, keeping stdout pure
grid/CSV); ``python -m repro explain <query-file>`` prints the analyzed
plan with rollup-index scope estimates without executing.  Use ``python
-m repro.bench all`` for the experiment harness and the scripts under
``examples/`` for full walkthroughs.

Exit-code contract (shared with ``analyze``): **0** = clean, **1** =
warnings under ``--strict`` or a *partial* (budget-degraded) query result,
**2** = errors — including IO, corruption, and format failures, which are
reported as a one-line message on stderr rather than a traceback.

Fault injection: ``--faults '<failpoint>:<mode>;...'`` (or the
``REPRO_FAULTS`` environment variable) arms the failpoint registry
(:mod:`repro.faults`) before the command runs.
"""

from __future__ import annotations

import argparse
import sys

import repro
from repro import QueryBudget, Warehouse
from repro.errors import ReproError
from repro.faults import FAULTS
from repro.service.shard import build_workload
from repro.workload import build_running_example


def _read_query_text(query_file: str) -> "str | None":
    """Read query text from a file or stdin ('-'); None (and a one-line
    stderr message) when the source is unreadable."""
    if query_file == "-":
        return sys.stdin.read()
    try:
        with open(query_file, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return None


def _cmd_analyze(args: argparse.Namespace) -> int:
    """The ``analyze`` subcommand.

    Exit-code contract: 0 = clean (or warnings without ``--strict``),
    1 = warnings under ``--strict``, 2 = error-level findings.
    """
    text = _read_query_text(args.query_file)
    if text is None:
        return 2
    warehouse = build_workload(args.workload)
    report = warehouse.analyze(text)
    if args.json:
        print(report.to_json(indent=2))
    else:
        source = "<stdin>" if args.query_file == "-" else args.query_file
        if report.is_clean:
            print(f"{source}: no diagnostics")
        else:
            for diagnostic in report:
                print(f"{source}: {diagnostic.to_text()}")
            print(
                f"{len(report.errors)} error(s), "
                f"{len(report.warnings)} warning(s)"
            )
    return report.exit_code(strict=args.strict)


def _budget_from_args(args: argparse.Namespace) -> "QueryBudget | None":
    deadline_ms = getattr(args, "deadline_ms", None)
    max_cells = getattr(args, "max_cells", None)
    if deadline_ms is None and max_cells is None:
        return None
    return QueryBudget(deadline_ms=deadline_ms, max_cells=max_cells)


def _cmd_query(args: argparse.Namespace) -> int:
    """The ``query`` subcommand: execute an extended-MDX query.

    Exit-code contract: 0 = complete result, 1 = partial (budget-degraded)
    result, 2 = any error.  Stdout carries only the result grid (text,
    CSV, or — under ``--profile --json`` — the profile document); engine
    counters (``--stats``), the profile table (``--profile``), and the
    slow-query log (``--slow-ms``) go to stderr.
    """
    text = _read_query_text(args.query_file)
    if text is None:
        return 2
    warehouse = build_workload(args.workload)
    if args.slow_ms is not None:
        warehouse.slow_log.threshold_ms = args.slow_ms
    budget = _budget_from_args(args)
    if args.profile:
        from repro.obs.trace import tracing

        with tracing():
            result = warehouse.query(
                text, analyze=not args.no_analyze, budget=budget
            )
    else:
        result = warehouse.query(
            text, analyze=not args.no_analyze, budget=budget
        )
    if args.profile and args.json:
        import json

        print(json.dumps(result.profile.to_dict(), indent=2))
    elif args.csv:
        # Pure CSV on stdout: counters moved behind --stats (stderr) so the
        # stream pipes straight into a CSV parser.
        print(result.to_csv())
    else:
        print(result.to_text())
    if args.stats:
        for key in sorted(result.stats):
            print(f"# {key},{result.stats[key]}", file=sys.stderr)
    if args.profile and not args.json:
        print(result.profile.render(), file=sys.stderr)
    if args.slow_ms is not None:
        print(warehouse.slow_log.dump(), file=sys.stderr)
    if result.is_partial:
        for degradation in result.degradations:
            print(f"repro: partial result: {degradation.detail}", file=sys.stderr)
        return 1
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """The ``explain`` subcommand: print the analyzed plan of a query —
    scenario pipeline, diagnostics, axis shapes, and rollup-index scope
    estimates — without filling the grid.

    Exit-code contract: 0 = explained (even when the analyzer flags the
    query as unexecutable; the report says so), 2 = any error.
    """
    text = _read_query_text(args.query_file)
    if text is None:
        return 2
    warehouse = build_workload(args.workload)
    if args.json:
        import json

        from repro.obs.explain import explain_report

        print(json.dumps(explain_report(warehouse, text), indent=2))
    else:
        print(warehouse.explain(text))
    return 0


def _read_statements(args: argparse.Namespace) -> "list[str] | None":
    """The ``;``-separated statements of ``serve``'s query file (or
    stdin); ``None``, after saying why on stderr, when there are none."""
    text = _read_query_text(args.query_file)
    if text is None:
        return None
    statements = [part.strip() for part in text.split(";") if part.strip()]
    if not statements:
        print("repro: no queries to serve", file=sys.stderr)
        return None
    return statements


def _serve_statements(args: argparse.Namespace, statements: "list[str]", submit) -> int:
    """The batch half of ``serve``, whichever service runs it: admit every
    statement, then print every grid in order.

    ``submit(statement)`` admits one statement and returns the callable
    that waits for its :class:`~repro.mdx.result.MdxResult`.  Exit-code
    contract: 0 = all complete, 1 = any partial (degraded) or shed
    result, 2 = any query error.
    """
    waiters = []
    for statement in statements:
        try:
            waiters.append(submit(statement))
        except ReproError as exc:
            waiters.append(exc)  # shed at admission; report in order
    worst = 0
    for index, waiter in enumerate(waiters, start=1):
        print(f"-- query {index}/{len(waiters)} --")
        if isinstance(waiter, ReproError):
            print(f"repro: shed: {waiter}", file=sys.stderr)
            worst = max(worst, 1)
            continue
        try:
            result = waiter()
        except ReproError as exc:
            print(f"repro: {exc}", file=sys.stderr)
            worst = 2
            continue
        print(result.to_csv() if args.csv else result.to_text())
        for degradation in result.degradations:
            print(f"repro: partial result: {degradation.detail}", file=sys.stderr)
            worst = max(worst, 1)
    return worst


def _cmd_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: one :class:`~repro.service.QueryService`
    over the workload, in process or over ``--shards N`` shard processes.

    Without ``--http``, submits every statement — each pinned to a
    snapshot at submission, run on ``--workers`` threads under
    ``--max-cells`` / ``--deadline-ms`` — and prints the grids in order
    (:func:`_serve_statements`); with ``--http``, serves the REST API
    until interrupted.
    """
    from repro.service import QueryService, TenantQuotas, serve_http

    statements = None
    if not args.http:
        statements = _read_statements(args)
        if statements is None:
            return 2
    # the deadline is the service's: it bounds shard RPCs when a query
    # scatters and is the budget deadline when it runs locally
    budget = None if args.max_cells is None else QueryBudget(max_cells=args.max_cells)
    with QueryService(
        build_workload(args.workload),
        n_shards=args.shards,
        workers=args.workers,
        queue_depth=args.queue_depth,
        default_deadline_ms=getattr(args, "deadline_ms", None),
        degrade=args.degrade,
    ) as service:
        if statements is not None:
            return _serve_statements(
                args,
                statements,
                lambda statement: service.submit(
                    statement, analyze=not args.no_analyze, budget=budget
                ).result,
            )
        where = (
            f"over {args.shards} shard(s) of [{service.dimension}]"
            if args.shards
            else "in process"
        )
        print(
            f"repro: serving {args.workload} {where} on "
            f"http://{args.host}:{args.port}",
            file=sys.stderr,
        )
        try:
            serve_http(
                service,
                args.host,
                args.port,
                quotas=TenantQuotas(max_inflight=args.max_inflight),
            )
        except KeyboardInterrupt:
            pass
        return 0


def _cmd_stress(args: argparse.Namespace) -> int:
    """The ``stress`` subcommand: the concurrency chaos harness.

    Races concurrent queries against live mutations (and, unless
    ``--no-faults``, armed failpoints), then replays every completed
    query serially against its pinned snapshot and compares grids
    bit-for-bit.  With ``--sharded``, runs the shard-kill storm instead:
    clients rotate degrade policies against the multi-process
    coordinator while random shards are SIGKILLed, then the pool must
    recover and reproduce the reference grids.  Exit-code contract: 0 =
    all invariants held, 2 = any violation (untyped error, mismatch vs
    serial replay, failed recovery, or deadlock).
    """
    from repro.service.stress import StressConfig, run_stress

    if args.sharded:
        from repro.service.stress import ShardStormConfig, run_shard_storm

        if args.smoke:
            storm_config = ShardStormConfig.smoke(seed=args.seed)
        else:
            storm_config = ShardStormConfig(
                clients=args.workers,
                duration_s=args.duration,
                seed=args.seed,
            )
        storm_report = run_shard_storm(storm_config)
        if args.json:
            import json

            print(json.dumps(storm_report.to_dict(), indent=2))
        else:
            print(storm_report.render())
        return 0 if storm_report.passed else 2
    if args.smoke:
        config = StressConfig.smoke(seed=args.seed, fault_mix=not args.no_faults)
    else:
        config = StressConfig(
            workers=args.workers,
            duration_s=args.duration,
            seed=args.seed,
            fault_mix=not args.no_faults,
        )
    report = run_stress(config)
    if args.json:
        import json

        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.passed else 2


def _parse_cell_spec(spec: str) -> "tuple[tuple[str, ...], float | None]":
    """``coord,coord,...=value`` → (address, value); value ``null``/``-``
    tombstones the cell."""
    from repro.errors import CatalogError

    address_part, sep, value_part = spec.rpartition("=")
    if not sep or not address_part:
        raise CatalogError(
            f"bad --cell {spec!r}: expected 'coord,coord,...=value'"
        )
    address = tuple(part.strip() for part in address_part.split(","))
    value_text = value_part.strip().lower()
    if value_text in ("null", "none", "-"):
        return address, None
    try:
        return address, float(value_part)
    except ValueError:
        raise CatalogError(
            f"bad --cell {spec!r}: value {value_part!r} is not a number "
            "(use 'null' to tombstone)"
        ) from None


def _open_catalog(args: argparse.Namespace, *, sync: bool = True):
    """Open the catalog at ``args.root``, bound to a workload base cube
    unless ``--workload none``."""
    from repro.catalog import ScenarioCatalog

    workload = getattr(args, "workload", "none")
    if workload == "none":
        return ScenarioCatalog(args.root, sync=sync)
    warehouse = build_workload(workload)
    return warehouse.attach_catalog(args.root, sync=sync)


def _cmd_catalog(args: argparse.Namespace) -> int:
    """The ``catalog`` subcommand: durable scenario workspaces.

    Opening the catalog *is* crash recovery: any torn journal tail is
    rolled back and replayable operations are redone before the action
    runs; a non-clean recovery is reported on stderr.  Exit-code
    contract: 0 = done, 2 = any error (typed, one line on stderr).
    """
    import json as json_module

    catalog = _open_catalog(args, sync=not getattr(args, "no_sync", False))
    recovery = catalog.recovery
    if recovery.outcome != "clean":
        print(
            f"repro: catalog recovered ({recovery.outcome}): "
            f"{recovery.replayed} replayed, "
            f"{len(recovery.quarantined)} quarantined",
            file=sys.stderr,
        )
    action = args.catalog_command
    if action == "list":
        infos = catalog.list_scenarios(tenant=args.tenant)
        if args.json:
            print(json_module.dumps([info.__dict__ for info in infos], indent=2))
        else:
            stats = catalog.stats()
            for info in infos:
                print(
                    f"{info.name}\ttenant={info.tenant}\t"
                    f"cells={info.changed_cells}\tbytes={info.delta_bytes}"
                    + (f"\tparent={info.parent}" if info.parent else "")
                )
            print(
                f"# {stats['scenarios']} scenario(s), "
                f"{stats['delta_bytes']} delta bytes, "
                f"generation {stats['generation']}",
                file=sys.stderr,
            )
    elif action == "create":
        cells = dict(_parse_cell_spec(spec) for spec in args.cell or [])
        info = catalog.create(args.name, tenant=args.tenant, cells=cells)
        print(f"created {info.name} ({info.changed_cells} cells, "
              f"{info.delta_bytes} bytes)")
    elif action == "drop":
        catalog.drop(args.name)
        print(f"dropped {args.name}")
    elif action == "diff":
        report = catalog.diff(args.a, args.b)
        if args.json:
            print(json_module.dumps(report.to_dict(), indent=2))
        else:
            print(
                f"{report.a} vs {report.b}: "
                f"{report.changed_cells} differing cell(s), "
                f"overlap {report.overlap:.3f}"
            )
            if report.identical:
                print("scenarios are identical")
            elif report.a_contained_in_b:
                print(f"{report.a} is contained in {report.b}")
            elif report.b_contained_in_a:
                print(f"{report.b} is contained in {report.a}")
            if report.conflicting_chunks:
                print(
                    "merge would conflict on: "
                    + ", ".join(report.conflicting_chunks)
                )
    elif action == "gc":
        report = catalog.gc()
        for key in sorted(report):
            print(f"{key}={report[key]}")
    else:  # smoke
        return _catalog_smoke(catalog, args)
    catalog.close()
    return 0


def _catalog_smoke(catalog, args: argparse.Namespace) -> int:
    """The CI ``catalog-smoke`` gate: create N scenarios, tear the
    journal mid-record (the kill), reopen, recover, diff — asserting the
    crash contract end to end."""
    from repro.catalog import ScenarioCatalog

    count = args.scenarios
    base = catalog.base
    address = next(iter(base.leaf_cells()))[0] if base is not None else ("a",)
    for index in range(count):
        catalog.create(
            f"smoke-{index:05d}",
            tenant=f"tenant-{index % 7}",
            cells={address: float(index)},
        )
    catalog.flush()
    stats = catalog.stats()
    catalog.close()
    # the kill: a torn half-record at the journal tail
    journal = catalog._journal.path
    with open(journal, "ab") as handle:
        handle.write(b"deadbeef torn-record-no-newline")
    reopened = ScenarioCatalog(args.root, base=base)
    recovery = reopened.recovery
    survivors = len(reopened)
    report = reopened.diff("smoke-00000", f"smoke-{count - 1:05d}")
    reopened.close()
    print(
        f"catalog-smoke: {count} created, {survivors} after reopen "
        f"({recovery.outcome}; {recovery.replayed} replayed), "
        f"{stats['delta_bytes']} delta bytes, "
        f"diff changed_cells={report.changed_cells}"
    )
    if survivors != count or not recovery.rolled_back:
        print(
            "repro: catalog-smoke FAILED: expected every scenario to "
            "survive a torn-tail kill",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """The ``lint`` subcommand: reprolint over source trees.

    Exit-code contract mirrors ``analyze``: 0 = clean, 1 = warnings
    under ``--strict``, 2 = any error-severity finding (or a bad
    baseline/missing path).
    """
    from repro.lint.cli import lint_main

    return lint_main(
        args.paths,
        baseline_path=args.baseline,
        json_output=args.json,
        strict=args.strict,
    )


def _demo(budget: "QueryBudget | None" = None) -> int:
    print(f"repro {repro.__version__} — What-if OLAP queries "
          "with changing dimensions (ICDE 2008 reproduction)\n")
    example = build_running_example()
    warehouse = Warehouse(example.schema, example.cube)
    print("Joe's instances:", ", ".join(
        f"{i.qualified_name} {i.validity.sorted_moments()}"
        for i in example.org.instances_of("Joe")
    ))
    print("\nWITH PERSPECTIVE {(Feb), (Apr)} FOR Organization "
          "DYNAMIC FORWARD VISUAL ...\n")
    result = warehouse.query(
        """
        WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL
        SELECT {Time.[Jan], Time.[Feb], Time.[Mar], Time.[Apr]} ON COLUMNS,
               {[Joe]} ON ROWS
        FROM Warehouse WHERE ([NY], [Salary])
        """,
        budget=budget,
    )
    print(result.to_text())
    print("\nNext steps: python -m repro analyze <query-file> | "
          "python -m repro query <query-file> | python -m repro.bench all")
    return 1 if result.is_partial else 0


def _arm_faults(args: argparse.Namespace) -> "int | None":
    """Arm failpoints from --faults and REPRO_FAULTS; 2 on a bad spec."""
    try:
        FAULTS.arm_from_env()
        if getattr(args, "faults", None):
            FAULTS.arm_from_spec(args.faults)
    except ValueError as exc:
        print(f"repro: bad --faults spec: {exc}", file=sys.stderr)
        return 2
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--version", action="store_true", help="print the version and exit"
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        help="arm fault-injection failpoints, e.g. "
        "'io.save.cells:after=2;chunk.read:prob=0.1@seed=7' "
        "(also honours the REPRO_FAULTS environment variable)",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        metavar="MS",
        help="wall-clock query budget in milliseconds; on breach the query "
        "returns a partial (⊥-padded) result and the process exits 1",
    )
    subparsers = parser.add_subparsers(dest="command")
    analyze = subparsers.add_parser(
        "analyze",
        help="statically analyze an extended-MDX query without executing it",
        description=(
            "Run the static analyzer over a query file (or stdin with '-') "
            "and print its diagnostics.  Exit codes: 0 = clean, 1 = "
            "warnings under --strict, 2 = errors."
        ),
    )
    analyze.add_argument(
        "query_file", help="path to an extended-MDX query file, or - for stdin"
    )
    analyze.add_argument(
        "--workload",
        choices=("running", "workforce"),
        default="running",
        help="warehouse to analyze against (default: the paper's running "
        "example)",
    )
    analyze.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    analyze.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when the report contains warnings",
    )
    query = subparsers.add_parser(
        "query",
        help="execute an extended-MDX query (optionally under a budget)",
        description=(
            "Execute a query file (or stdin with '-') and print the result "
            "grid.  Exit codes: 0 = complete result, 1 = partial result "
            "(query budget breached; unevaluated cells print as ⊥/-), "
            "2 = errors."
        ),
    )
    query.add_argument(
        "query_file", help="path to an extended-MDX query file, or - for stdin"
    )
    query.add_argument(
        "--workload",
        choices=("running", "workforce"),
        default="running",
        help="warehouse to query (default: the paper's running example)",
    )
    query.add_argument(
        "--deadline-ms",
        type=float,
        metavar="MS",
        default=argparse.SUPPRESS,
        help="wall-clock query budget in milliseconds",
    )
    query.add_argument(
        "--max-cells",
        type=int,
        metavar="N",
        help="cell-evaluation budget; on breach the result is partial",
    )
    query.add_argument(
        "--csv", action="store_true", help="emit CSV instead of a text grid"
    )
    query.add_argument(
        "--no-analyze",
        action="store_true",
        help="skip the static analyzer before execution",
    )
    query.add_argument(
        "--stats",
        action="store_true",
        help="print per-query engine counters to stderr as '# key,value' lines",
    )
    query.add_argument(
        "--profile",
        action="store_true",
        help="trace the query and print a phase-timing profile to stderr",
    )
    query.add_argument(
        "--json",
        action="store_true",
        help="with --profile, emit the profile as a JSON document on stdout "
        "instead of the result grid",
    )
    query.add_argument(
        "--slow-ms",
        type=float,
        metavar="MS",
        help="set the slow-query log threshold and dump the log to stderr "
        "after the query (0 records everything)",
    )
    explain = subparsers.add_parser(
        "explain",
        help="print a query's analyzed plan and scope estimates without "
        "executing it",
        description=(
            "EXPLAIN a query file (or stdin with '-'): the scenario "
            "pipeline (algebra operators), analyzer diagnostics, axis "
            "shapes, and rollup-index scope-size estimates — the grid is "
            "never filled.  Exit codes: 0 = explained, 2 = errors."
        ),
    )
    explain.add_argument(
        "query_file", help="path to an extended-MDX query file, or - for stdin"
    )
    explain.add_argument(
        "--workload",
        choices=("running", "workforce"),
        default="running",
        help="warehouse to explain against (default: the paper's running "
        "example)",
    )
    explain.add_argument(
        "--json",
        action="store_true",
        help="emit the structured EXPLAIN report as JSON",
    )
    serve = subparsers.add_parser(
        "serve",
        help="run ;-separated queries concurrently through the query "
        "service, or serve its REST API",
        description=(
            "Read ;-separated extended-MDX statements from a file (or "
            "stdin with '-'), submit them all through a bounded worker "
            "pool — each pinned to a snapshot at submission, in process "
            "or over --shards N shard processes — and print the grids in "
            "submission order; with --http, serve the same service over "
            "HTTP instead.  Exit codes: 0 = all complete, 1 = any partial "
            "or shed, 2 = any error."
        ),
    )
    serve.add_argument(
        "query_file",
        nargs="?",
        default="-",
        help="path to a file of ;-separated queries, or - for stdin "
        "(default)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="worker threads (default: 4)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        metavar="N",
        help="admission-queue bound; beyond it submissions are shed "
        "(default: 16)",
    )
    serve.add_argument(
        "--workload",
        choices=("running", "workforce"),
        default="running",
        help="warehouse to serve (default: the paper's running example)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        metavar="MS",
        default=argparse.SUPPRESS,
        help="per-query deadline; queue wait counts against it",
    )
    serve.add_argument(
        "--max-cells",
        type=int,
        metavar="N",
        help="per-query cell-evaluation budget",
    )
    serve.add_argument(
        "--csv", action="store_true", help="emit CSV instead of text grids"
    )
    serve.add_argument(
        "--no-analyze",
        action="store_true",
        help="skip the static analyzer before execution",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="shard processes, each owning a contiguous run of the "
        "varying dimension's members (default: 0, every query runs in "
        "process)",
    )
    serve.add_argument(
        "--degrade",
        choices=("fail", "fallback", "partial"),
        default="fallback",
        help="shard-failure policy with --shards: 'fallback' "
        "recomputes a dead shard's cells locally (bit-identical, default), "
        "'partial' returns them as ⊥ with degradation records, 'fail' "
        "raises a typed error",
    )
    serve.add_argument(
        "--http",
        action="store_true",
        help="serve the REST API (POST /v1/query, POST /v1/explain, "
        "GET /metrics, GET /healthz, GET /readyz) instead of executing a "
        "query batch; in process unless --shards N",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address for --http (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        metavar="N",
        help="port for --http (default: 8080)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        metavar="N",
        help="per-tenant concurrent in-flight quota for --http; beyond it "
        "requests are shed with HTTP 429 (default: 8)",
    )
    stress = subparsers.add_parser(
        "stress",
        help="chaos-test the query service: concurrent queries vs "
        "mutations vs faults",
        description=(
            "Race client threads, cube mutators, and (by default) armed "
            "failpoints against one warehouse, then verify snapshot "
            "isolation by replaying every completed query serially "
            "against its pinned snapshot — grids must match "
            "bit-for-bit and every observed error must be typed.  "
            "Exit codes: 0 = all invariants held, 2 = any violation."
        ),
    )
    stress.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: 4 workers, ~1s (same invariants)",
    )
    stress.add_argument(
        "--sharded",
        action="store_true",
        help="run the shard-kill storm against the multi-process "
        "coordinator instead: clients rotate degrade policies while "
        "random shard processes are SIGKILLed; the pool must stay "
        "bit-identical-or-partial and recover after the storm",
    )
    stress.add_argument(
        "--workers",
        type=int,
        default=8,
        metavar="N",
        help="client threads (default: 8; ignored with --smoke)",
    )
    stress.add_argument(
        "--duration",
        type=float,
        default=3.0,
        metavar="S",
        help="storm duration in seconds (default: 3; ignored with --smoke)",
    )
    stress.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="seed for workload/mutation choices (default: 0)",
    )
    stress.add_argument(
        "--no-faults",
        action="store_true",
        help="run without arming failpoints during the storm",
    )
    stress.add_argument(
        "--json",
        action="store_true",
        help="emit the stress report as JSON",
    )
    lint = subparsers.add_parser(
        "lint",
        help="run reprolint: concurrency + hygiene checks over source trees",
        description=(
            "Run the self-hosted static analyzer (lock-order, shared-state "
            "guards, failpoint hygiene, metrics/span hygiene, error "
            "taxonomy) over one or more files/directories.  Exit codes: "
            "0 = clean, 1 = warnings with --strict, 2 = errors."
        ),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        help="JSON baseline of grandfathered findings (each entry needs a "
        "justification); stale entries are reported as RPL002",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit findings as a JSON document",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 on warnings (errors always exit 2)",
    )
    catalog = subparsers.add_parser(
        "catalog",
        help="manage durable what-if scenario workspaces",
        description=(
            "Operate on a crash-safe, delta-encoded scenario catalog "
            "(see docs/scenarios.md).  Opening the catalog replays its "
            "write-ahead journal, so every action below is also a "
            "recovery.  Exit codes: 0 = ok, 2 = error."
        ),
    )
    catalog_sub = catalog.add_subparsers(dest="catalog_command", required=True)

    def _catalog_common(sub: argparse.ArgumentParser, workload: str) -> None:
        sub.add_argument("root", help="catalog directory")
        sub.add_argument(
            "--workload",
            choices=["running", "workforce", "none"],
            default=workload,
            help="base cube to bind scenarios to "
            f"(default: {workload})",
        )

    cat_list = catalog_sub.add_parser(
        "list", help="list scenarios (optionally one tenant's)"
    )
    _catalog_common(cat_list, "none")
    cat_list.add_argument("--tenant", default=None, help="filter by tenant")
    cat_list.add_argument("--json", action="store_true", help="emit JSON")
    cat_create = catalog_sub.add_parser(
        "create", help="create a scenario with optional cell overrides"
    )
    _catalog_common(cat_create, "running")
    cat_create.add_argument("name", help="scenario name")
    cat_create.add_argument("--tenant", default="default", help="owning tenant")
    cat_create.add_argument(
        "--cell",
        action="append",
        metavar="COORD,COORD,...=VALUE",
        help="cell override (repeatable); VALUE 'null' tombstones the cell",
    )
    cat_drop = catalog_sub.add_parser("drop", help="drop a scenario")
    _catalog_common(cat_drop, "none")
    cat_drop.add_argument("name", help="scenario name")
    cat_diff = catalog_sub.add_parser(
        "diff", help="diff two scenarios (containment/overlap/conflicts)"
    )
    _catalog_common(cat_diff, "none")
    cat_diff.add_argument("a", help="first scenario")
    cat_diff.add_argument("b", help="second scenario")
    cat_diff.add_argument("--json", action="store_true", help="emit JSON")
    cat_gc = catalog_sub.add_parser(
        "gc", help="checkpoint the journal and sweep orphaned delta files"
    )
    _catalog_common(cat_gc, "none")
    cat_smoke = catalog_sub.add_parser(
        "smoke",
        help="CI gate: create N scenarios, kill mid-write, reopen, diff",
    )
    _catalog_common(cat_smoke, "running")
    cat_smoke.add_argument(
        "--scenarios",
        type=int,
        default=1000,
        metavar="N",
        help="number of scenarios to create (default: 1000)",
    )
    cat_smoke.add_argument(
        "--no-sync",
        action="store_true",
        help="skip per-commit fsync (bulk-load speed)",
    )
    args = parser.parse_args(argv)
    if args.version:
        print(repro.__version__)
        return 0
    failed = _arm_faults(args)
    if failed is not None:
        return failed
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "explain":
            return _cmd_explain(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "stress":
            return _cmd_stress(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "catalog":
            return _cmd_catalog(args)
        return _demo(budget=_budget_from_args(args))
    except (ReproError, OSError) as exc:
        # IO, corruption, format, and query errors share one contract:
        # a single-line message on stderr and exit code 2 — never a
        # traceback for a failure mode the tool itself defines.
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
