"""The warehouse facade: schema + data + named sets + the query entry point.

A :class:`Warehouse` bundles everything a client needs: the cube schema
(with its varying-dimension registry), the base cube, named sets (the
``[EmployeesWithAtleastOneMove-Set1]`` style sets used in Fig. 10), and
``query()`` — the extended-MDX front door.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import (
    AmbiguousMemberError,
    MdxEvaluationError,
    SchemaError,
    UnknownMemberError,
)
from repro.faults import FAULTS
from repro.lint.lockdep import make_lock
from repro.obs.metrics import MetricsRegistry
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import TRACER
from repro.olap.cube import Cube
from repro.olap.dimension import Dimension, Member, next_generation
from repro.olap.instances import VaryingDimension
from repro.olap.schema import CubeSchema
from repro.perf.scenario_cache import ScenarioCache

__all__ = ["NamedSet", "Warehouse"]


@dataclass(frozen=True)
class NamedSet:
    """A named collection of member names (all from one dimension)."""

    name: str
    members: tuple[str, ...]


class Warehouse:
    """A queryable OLAP warehouse.

    Parameters
    ----------
    schema:
        The cube schema.
    cube:
        The base cube (leaf data; materialised aggregates optional).
    name:
        The cube's canonical name, accepted in ``FROM`` clauses.
    aliases:
        Additional names (each component of a dotted ``FROM`` reference is
        checked against name+aliases; ``[App].[Db]`` works by aliasing both).
    """

    def __init__(
        self,
        schema: CubeSchema,
        cube: Cube,
        name: str = "Warehouse",
        aliases: Iterable[str] = (),
    ) -> None:
        if cube.schema is not schema:
            raise SchemaError("cube and warehouse must share one schema object")
        self.schema = schema
        self.cube = cube
        self.name = name
        self.aliases = set(aliases)
        self._named_sets: dict[str, NamedSet] = {}
        #: moved by every define_named_set (a process-wide generation, so a
        #: snapshot that defines its own sets never meets its origin's)
        self.named_set_version = next_generation()
        #: LRU of applied what-if scenarios keyed by fingerprint chain;
        #: entries are invalidated by the cube's mutation version (see
        #: :mod:`repro.perf.scenario_cache`)
        self.scenario_cache = ScenarioCache()
        #: LRU of prepared query plans keyed by text, invalidated by the
        #: structure they were made on (:func:`repro.mdx.evaluator.prepare`)
        self.plan_cache = ScenarioCache(256, name=None, lock="PlanCache._lock")
        #: per-warehouse metrics: query counters/latency histogram plus
        #: pull-based collectors over the engine cache stats
        self.metrics = MetricsRegistry()
        self.metrics.register_collector(
            "scenario_cache", self.scenario_cache.stats.snapshot
        )
        self.metrics.register_collector("plan_cache", self.plan_cache.stats.snapshot)
        self.metrics.register_collector(
            "rollup_index", self._rollup_index_stats
        )
        #: threshold-gated ring buffer of the slowest queries (always on)
        self.slow_log = SlowQueryLog()
        # one cached snapshot per version (see snapshot()); guarded so two
        # concurrent first-snapshots of a version don't copy the cube twice
        self._snapshot_lock = make_lock("Warehouse._snapshot_lock", reentrant=False)
        self._snapshot_cache: "object | None" = None
        #: durable scenario catalog, bound via attach_catalog()
        self._catalog: "object | None" = None

    # -- durable scenarios --------------------------------------------------------

    def attach_catalog(self, root, **options):
        """Open (and recover) a durable scenario catalog rooted at
        ``root``, bound to this warehouse's base cube.

        Returns the :class:`~repro.catalog.ScenarioCatalog`; it is also
        available as :attr:`catalog` afterwards, and its scenario/byte
        counters join this warehouse's metrics collectors.  Opening *is*
        recovery — check ``warehouse.catalog.recovery`` for what a crash
        left behind.
        """
        from repro.catalog import ScenarioCatalog

        catalog = ScenarioCatalog(root, base=self.cube, **options)
        self._catalog = catalog
        self.metrics.register_collector("catalog", catalog.stats)
        return catalog

    @property
    def catalog(self):
        """The attached :class:`~repro.catalog.ScenarioCatalog`, or
        ``None`` before :meth:`attach_catalog`."""
        return self._catalog

    def snapshot(self):
        """An immutable read view pinned to the current cube version.

        Returns a :class:`~repro.service.snapshot.WarehouseSnapshot` — a
        queryable warehouse whose cube is a *frozen* copy taken under the
        cube's write lock, so it can never contain a torn mutation.
        Queries against the snapshot are repeatable: the same query always
        produces the same grid, no matter what writers do to the live cube
        meanwhile.  Snapshots are cached per version, so in a read-mostly
        workload every query between two mutations shares one copy (and
        its rollup index).  Mutating a snapshot's cube raises
        :class:`~repro.errors.SnapshotImmutableError`.
        """
        from repro.service.snapshot import WarehouseSnapshot

        with self._snapshot_lock:
            cached = self._snapshot_cache
            if (
                isinstance(cached, WarehouseSnapshot)
                and cached.version == self.cube.version
                and cached.origin is self
            ):
                return cached
            snapshot = WarehouseSnapshot(self, self.cube.frozen_copy())
            self._snapshot_cache = snapshot
            return snapshot

    def _rollup_index_stats(self) -> dict[str, int]:
        """Rollup-index cache counters."""
        return self.cube.rollup_index().stats.snapshot()

    # -- named sets ---------------------------------------------------------------

    def define_named_set(self, name: str, members: Sequence[str]) -> NamedSet:
        """Define (or replace) a named set of member names."""
        for member in members:
            self.resolve_member((member,))  # validates existence
        named = NamedSet(name, tuple(members))
        self._named_sets[name] = named
        self.named_set_version = next_generation()
        return named

    def named_set(self, name: str) -> NamedSet | None:
        return self._named_sets.get(name)

    def named_sets(self) -> list[NamedSet]:
        return list(self._named_sets.values())

    def plan_version(self) -> tuple[int, int, int]:
        """What a prepared query plan depends on besides its text: the
        cube's structure generation, the schema's, and the named sets'
        version.  A value write moves none of them."""
        return (
            self.cube.structure_generation,
            self.schema.generation,
            self.named_set_version,
        )

    # -- member resolution ----------------------------------------------------------

    def resolve_member(self, parts: Sequence[str]) -> tuple[Dimension, Member]:
        """Resolve a dotted member path to (dimension, member).

        The first component may be a dimension name; intermediate
        components must exist in the dimension (they are *not* required to
        be current hierarchy ancestors — ``Organization.[PTE].[Joe]`` is a
        valid reference to an instance of Joe under PTE even though the
        skeleton has Joe under FTE; instance filtering happens at set
        expansion).
        """
        if not parts:
            raise MdxEvaluationError("empty member path")
        candidates: list[Dimension]
        rest = list(parts)
        first_dim = next(
            (d for d in self.schema.dimensions if d.name == parts[0]), None
        )
        if first_dim is not None and len(parts) > 1:
            candidates = [first_dim]
            rest = list(parts[1:])
        elif first_dim is not None and len(parts) == 1:
            return first_dim, first_dim.root
        else:
            candidates = list(self.schema.dimensions)
        leaf = rest[-1]
        matches = [d for d in candidates if leaf in d]
        if not matches:
            raise UnknownMemberError(f"unknown member {'.'.join(parts)!r}")
        if len(matches) > 1:
            names = [d.name for d in matches]
            raise AmbiguousMemberError(
                f"member {leaf!r} is ambiguous across dimensions {names}; "
                "qualify it with the dimension name"
            )
        dimension = matches[0]
        for intermediate in rest[:-1]:
            if intermediate not in dimension:
                raise UnknownMemberError(
                    f"path component {intermediate!r} does not exist in "
                    f"dimension {dimension.name!r}"
                )
        return dimension, dimension.member(leaf)

    # -- varying access ----------------------------------------------------------------

    def varying(self, dim_name: str) -> VaryingDimension:
        return self.schema.varying_dimension(dim_name)

    # -- querying ------------------------------------------------------------------------

    def check_cube_name(self, ref: Sequence[str]) -> None:
        """Validate a FROM-clause cube reference."""
        if not ref:
            raise MdxEvaluationError("empty cube reference")
        acceptable = {self.name} | self.aliases
        if not any(part in acceptable for part in ref):
            raise MdxEvaluationError(
                f"query addresses cube {'.'.join(ref)!r}; this warehouse is "
                f"{self.name!r}"
            )

    def query(self, text: str, analyze: bool = True, budget=None):
        """Run an extended-MDX query; returns an
        :class:`~repro.mdx.result.MdxResult`.

        The static analyzer (:mod:`repro.analysis`) runs first unless
        ``analyze=False``; error-level findings raise
        :class:`~repro.errors.MdxAnalysisError` before any data is read.

        ``budget`` (:class:`~repro.mdx.budget.QueryBudget`) bounds the
        evaluation: a wall-clock deadline and/or cell-evaluation cap.  On
        breach the query *degrades* instead of failing — the result is
        partial, unevaluated cells are ⊥, and ``result.degradations``
        carries a structured report of what was cut.

        Observability: the call is always wall-timed (metrics histogram +
        slow-query log); when the global tracer is enabled the evaluation
        runs under an ``mdx.query`` root span and the result carries a
        :class:`~repro.obs.profile.QueryProfile` (``result.profile``).
        """
        from repro.mdx.evaluator import execute

        fired_before = FAULTS.fired_counts()
        span = TRACER.start("mdx.query") if TRACER.enabled else None
        t0 = time.perf_counter()
        result = None
        error: "str | None" = None
        try:
            result = execute(self, text, analyze=analyze, budget=budget)
            return result
        except BaseException as exc:
            error = repr(exc)
            raise
        finally:
            wall_ms = (time.perf_counter() - t0) * 1000.0
            if span is not None:
                span.error = error
                TRACER.end(span)
            self._observe_query(text, wall_ms, result, error, fired_before, span)

    def _observe_query(
        self, text, wall_ms, result, error, fired_before, span
    ) -> None:
        """Post-query bookkeeping: metrics, slow log, profile attach."""
        fault_events = {
            name: fired - fired_before.get(name, 0)
            for name, fired in FAULTS.fired_counts().items()
            if fired - fired_before.get(name, 0)
        }
        partial = result is not None and bool(result.degradations)
        status = "error" if error is not None else (
            "partial" if partial else "ok"
        )
        self.metrics.counter("mdx_queries_total", status=status).inc()
        self.metrics.histogram("mdx_query_ms").observe(wall_ms)
        stats = dict(result.stats) if result is not None else {}
        self.slow_log.record(
            text,
            wall_ms,
            partial=partial,
            error=error,
            stats=stats,
        )
        if span is not None and result is not None:
            from repro.obs.profile import QueryProfile

            result.profile = QueryProfile.from_span(
                span,
                stats=stats,
                degradations=[d.to_dict() for d in result.degradations],
                fault_events=fault_events,
            )

    def analyze(self, text: str):
        """Statically analyze a query without executing it; returns a
        :class:`~repro.analysis.DiagnosticReport`."""
        from repro.analysis.query_analyzer import analyze_query

        return analyze_query(self, text)

    def explain(self, text: str) -> str:
        """EXPLAIN a query without filling its grid: the scenario
        pipeline, analyzer diagnostics, axis shapes, and rollup-index
        scope estimates (see :mod:`repro.obs.explain`)."""
        from repro.obs.explain import explain_query

        return explain_query(self, text)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Warehouse({self.name!r}, {self.schema!r}, "
            f"{self.cube.n_leaf_cells} leaf cells)"
        )
