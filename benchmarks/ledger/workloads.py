"""The four ledger workloads.

Every workload is a closed loop with one driver thread (and, for
``serve_http``, one connection): a caller of a what-if session waits for
each reply before sending the next request.  A workload is a fixed,
seed-derived list of *slots* (distinct operations); the runner executes
blocks, each block running every slot ``k`` times in slot order.

Lifecycle: ``setup()`` (build the warehouse or service and answer a first
query — the span ``setup_s`` measures) → ``prepare()`` (un-timed: slots,
cache warming) → blocks of ``run_op`` → ``verify()`` (un-timed oracle) →
``close()``.  ``run_op`` times only the call into the program; checking
the reply happens after the clock stops.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import socket
import threading
import time
from typing import Any

from repro.errors import ReproError
from repro.olap.missing import MISSING, is_missing
from repro.perf import naive_mode
from repro.workload.workforce import (
    MONTHS,
    QUARTERS,
    WorkforceConfig,
    build_workforce,
)

from .spans import NULL_LOG

__all__ = ["FULL", "SMOKE", "WORKLOADS", "Preset", "Query", "Slot", "grid_of"]

TAIL_SLICER = ("Local", "BU Version_1", "HSP_InputValue")
SEMANTICS = (
    "STATIC",
    "DYNAMIC FORWARD",
    "DYNAMIC BACKWARD",
    "DYNAMIC EXTENDED FORWARD",
)
POINT_COUNTS = (1, 3, 6, 12)
#: relative tolerance of the write-side delta oracle (the engine sums in
#: insertion order, the oracle adds deltas, so the last digits differ)
DELTA_TOLERANCE = 1e-6


@dataclasses.dataclass(frozen=True)
class Preset:
    """Scale knobs.  ``cube`` feeds :class:`WorkforceConfig`; ``k`` is the
    repetitions of every slot per block; ``oracle_texts`` caps how many
    distinct texts one run re-derives under ``naive_mode`` (None = all:
    at full scale one derivation costs 0.4-0.8 s, so a run samples and
    the seeds between them cover the rest)."""

    name: str
    cube: "dict[str, int]"
    write_density: float
    k: "dict[str, int]"
    oracle_texts: "int | None"


FULL = Preset(
    name="full",
    cube=dict(
        n_employees=400,
        n_departments=10,
        n_changing=40,
        max_moves=4,
        n_accounts=10,
        n_scenarios=2,
    ),
    write_density=0.9,
    k={"cold_whatif": 1, "warm_dashboard": 30, "write_requery": 1, "serve_http": 2},
    oracle_texts=4,
)

SMOKE = Preset(
    name="smoke",
    cube=dict(
        n_employees=40,
        n_departments=4,
        n_changing=6,
        max_moves=3,
        n_accounts=3,
        n_scenarios=2,
    ),
    write_density=0.5,
    k={"cold_whatif": 1, "warm_dashboard": 5, "write_requery": 1, "serve_http": 1},
    oracle_texts=None,
)


# -- query texts -------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Query:
    """One MDX query in parts, so the oracle can re-ask it for a sub-grid."""

    columns: str
    rows: str
    slicer: "tuple[str, ...]"
    with_clause: str = ""

    @property
    def text(self) -> str:
        where = ", ".join(f"[{name}]" for name in self.slicer)
        head = f"WITH {self.with_clause}\n" if self.with_clause else ""
        return (
            f"{head}SELECT {{{self.columns}}} ON COLUMNS,\n"
            f"       {{{self.rows}}} ON ROWS\n"
            f"FROM [App].[Db]\nWHERE ({where})"
        )


@dataclasses.dataclass
class Slot:
    """One distinct operation of a workload; ``kind`` is its cost class."""

    name: str
    kind: str
    query: "Query | None" = None
    #: write_requery: the leaf addresses the slot rewrites in place
    cells: "list[tuple]" = dataclasses.field(default_factory=list)


MONTH_COLUMNS = ", ".join(f"Period.[{m}]" for m in MONTHS)


def perspective(months: "list[str]", semantics: str, visual: bool = False) -> str:
    points = ", ".join(f"({m})" for m in sorted(months, key=MONTHS.index))
    mode = " VISUAL" if visual else ""
    return f"PERSPECTIVE {{{points}}} FOR Department {semantics}{mode}"


def changes(move: "tuple[str, str, str, str]", visual: bool = False) -> str:
    member, old, new, month = move
    mode = " VISUAL" if visual else ""
    return (
        f"CHANGES {{([{member}], [{old}], [{new}], [{month}])}} "
        f"FOR Department{mode}"
    )


def dashboard(account: str = "Acct000", with_clause: str = "") -> Query:
    """Departments × months (120 cells at full scale)."""
    return Query(
        MONTH_COLUMNS,
        "Department.Children",
        (account, "Current") + TAIL_SLICER,
        with_clause,
    )


def employee_grid(department: str, account: str, with_clause: str = "") -> Query:
    """Every instance of one department's employees × months."""
    return Query(
        MONTH_COLUMNS,
        f"[{department}].Children",
        (account, "Current") + TAIL_SLICER,
        with_clause,
    )


def totals(account: str, with_clause: str = "") -> Query:
    """The all-department total × months: one row spanning every shard."""
    return Query(
        MONTH_COLUMNS, "[Department]", (account, "Current") + TAIL_SLICER, with_clause
    )


def scenario_dashboard(account: str = "Acct000", with_clause: str = "") -> Query:
    """(Department × Scenario) × every Period member (340 cells)."""
    return Query(
        "Period.Members",
        "CrossJoin({Department.Children}, {Scenario.Children})",
        (account,) + TAIL_SLICER,
        with_clause,
    )


def grid_of(result: Any) -> "tuple[list, list, list]":
    """The comparable form of a result: axis labels plus cells with ⊥ as
    ``None`` — the same shape the HTTP envelope decodes to."""
    return (
        [list(t.labels) for t in result.rows],
        [list(t.labels) for t in result.columns],
        [[None if is_missing(v) else v for v in row] for row in result.cells],
    )


def _tuple_ref(axis_tuple: Any) -> str:
    """MDX for exactly one axis position (instances named by their path)."""
    members = [
        dim + "." + ".".join(f"[{part}]" for part in coord.split("/"))
        for dim, coord in axis_tuple.coordinates
    ]
    return "(" + ", ".join(members) + ")"


def _status_mb(pid: "int | str", field: str) -> float:
    """``VmRSS`` / ``VmHWM`` of a process, in MB, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} for process {pid}")


# -- base class --------------------------------------------------------------------


class Workload:
    """Shared bookkeeping: seed, preset, slots, pass/fail counts, oracle."""

    name = ""
    #: build the cube at ``preset.write_density`` so unfilled employees exist
    sparse = False

    def __init__(self, preset: Preset, seed: int) -> None:
        self.preset = preset
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.k = preset.k[self.name]
        self.config = WorkforceConfig(
            **preset.cube,
            seed=seed,
            density=preset.write_density if self.sparse else 1.0,
        )
        self.slots: "list[Slot]" = []
        self.block = 0
        self.attempted = 0
        self.failed = 0
        self.failures: "list[str]" = []
        #: slot name -> (MdxResult, grid, repr(grid)) of the first execution
        self.reference: "dict[str, tuple[Any, tuple, str]]" = {}
        #: swapped for a SpanLog by the traced pass
        self.log: Any = NULL_LOG
        #: accumulated MdxResult.profile phases of traced in-process queries
        self.phases = {"ops": 0, "axes_ms": 0.0, "cells_ms": 0.0, "cells": 0}
        #: the program's own span tree of the first traced query per slot
        self.program_spans: "dict[str, Any]" = {}
        #: seconds ``close`` took, where closing is a layer cost (the pool)
        self.close_s = 0.0

    # -- hooks ---------------------------------------------------------------------

    def setup(self) -> None:
        """Build the warehouse and answer a first query (which builds the
        base cube's rollup index) — what ``setup_s`` measures."""
        self.wf = build_workforce(self.config)
        self.warehouse = self.wf.warehouse
        self.warehouse.query(dashboard().text)

    def prepare(self) -> None:
        raise NotImplementedError

    def before_block(self) -> None:
        """Un-timed work between blocks."""

    def run_op(self, slot: Slot, rep: int) -> float:
        """Execute one operation; returns its wall milliseconds."""
        raise NotImplementedError

    def verify(self) -> None:
        """Un-timed end-of-run oracle."""
        self._naive_oracle(self.preset.oracle_texts)

    def close(self) -> None:
        """Release whatever ``setup`` started."""

    def rss_mb(self) -> float:
        """Resident set of every process serving this workload, now."""
        return _status_mb("self", "VmRSS")

    def layer_counters(self) -> "dict[str, float]":
        """Cumulative counts from the program's public stats objects; the
        traced pass reports their growth over its traced blocks."""
        return _cache_counters(self.warehouse)

    def layer_overrides(self) -> "dict[str, float]":
        """Per-layer metrics this workload measures on its own operations
        instead of taking the scratch-cube probe's value."""
        return {}

    # -- bookkeeping ---------------------------------------------------------------

    def record(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)

    def observe(self, slot: Slot, result: Any, deep: bool) -> None:
        """Compare an in-process reply with the slot's first reply: cells
        by equality on every operation, the whole grid by ``repr`` when
        ``deep`` (bit-identity, including -0.0 and label text)."""
        grid = grid_of(result)
        first = self.reference.get(slot.name)
        if first is None:
            self.reference[slot.name] = (result, grid, repr(grid))
            self.record(True, "")
            return
        same = grid == first[1] and (not deep or repr(grid) == first[2])
        self.record(same, f"{self.name}/{slot.name}: grid differs from first pass")

    def trace_reference(self) -> None:
        """Traced-pass hook for workloads whose operations return no
        ``MdxResult.profile`` of their own."""

    def note_profile(self, slot: Slot, result: Any) -> None:
        """Fold a traced query's phase timings into the layer totals."""
        profile = getattr(result, "profile", None)
        if profile is None:
            return
        self.program_spans.setdefault(slot.name, profile.spans)
        self.phases["ops"] += 1
        self.phases["axes_ms"] += profile.phases.get("axes", 0.0)
        self.phases["cells_ms"] += profile.phases.get("cells", 0.0)
        self.phases["cells"] += profile.cells_evaluated

    def _query(self, slot: Slot, deep: bool) -> float:
        """The common in-process operation: one ``Warehouse.query``."""
        text = slot.query.text
        started = time.perf_counter()
        try:
            with self.log.span("mdx.query"):
                result = self.warehouse.query(text)
        except ReproError as exc:
            elapsed = (time.perf_counter() - started) * 1000.0
            self.record(False, f"{self.name}/{slot.name}: {exc!r}")
            return elapsed
        elapsed = (time.perf_counter() - started) * 1000.0
        self.observe(slot, result, deep)
        self.note_profile(slot, result)
        return elapsed

    def _naive_oracle(self, limit: "int | None") -> None:
        """Re-derive six seeded cells of the distinct texts (of a seeded
        sample of ``limit`` of them) with the engine off — no index, no
        memo, no scenario cache — through a sub-grid query naming exactly
        those positions."""
        names = sorted(self.reference)
        if limit is not None and len(names) > limit:
            names = sorted(self.rng.sample(names, limit))
        by_name = {slot.name: slot for slot in self.slots}
        for name in names:
            reference = self.reference[name][0]
            ok = self._naive_matches(by_name[name].query, reference)
            self.record(ok, f"{self.name}/{name}: naive oracle disagrees")

    def _naive_matches(self, query: Query, reference: Any) -> bool:
        rows = sorted(
            self.rng.sample(range(len(reference.rows)), min(2, len(reference.rows)))
        )
        cols = sorted(
            self.rng.sample(
                range(len(reference.columns)), min(3, len(reference.columns))
            )
        )
        sub = dataclasses.replace(
            query,
            columns=", ".join(_tuple_ref(reference.columns[j]) for j in cols),
            rows=", ".join(_tuple_ref(reference.rows[i]) for i in rows),
        )
        try:
            with naive_mode():
                derived = self.warehouse.query(sub.text)
        except ReproError:
            return False
        cells = grid_of(reference)[2]
        expected = [[cells[i][j] for j in cols] for i in rows]
        return repr(grid_of(derived)[2]) == repr(expected)

    # -- seeded picks --------------------------------------------------------------

    def _steady_employees(self) -> "list[str]":
        """Employees that never move (exactly one instance)."""
        moving = set(self.wf.changing_employees)
        leaves = self.wf.schema.dimension("Department").leaf_members()
        return [m.name for m in leaves if m.name not in moving]

    def _home(self, employee: str) -> str:
        return self.wf.schema.dimension("Department").member(employee).parent.name

    def _a_move(self) -> "tuple[str, str, str, str]":
        """A hypothetical change (m, o, n, t) for a never-moving employee."""
        employee = self.rng.choice(self._steady_employees())
        old = self._home(employee)
        new = self.rng.choice([d for d in self.wf.departments if d != old])
        return (employee, old, new, self.rng.choice(MONTHS[1:]))

    def _months(self, count: int) -> "list[str]":
        return self.rng.sample(MONTHS, count)


# -- cold_whatif --------------------------------------------------------------------


class ColdWhatif(Workload):
    """In-process ``Warehouse.query`` with the scenario cache cleared
    before every block, so every operation pays scenario apply (Φ/ρ/S) —
    the ``core`` layer does ~90 % of the work.  Four NON_VISUAL
    perspectives (flat ≈0.40 s in semantics, point count and grid), one
    VISUAL perspective (≈0.79 s: the applied cube also builds a rollup
    index) and one chained CHANGES+PERSPECTIVE (≈1.14 s); the mix keeps
    the median slot inside the NON_VISUAL class while ``ops_per_s``
    weighs every class by its cost."""

    name = "cold_whatif"

    def prepare(self) -> None:
        wf, rng = self.wf, self.rng
        combos = rng.sample(list(itertools.product(SEMANTICS, POINT_COUNTS)), 4)
        for index, (semantics, count) in enumerate(combos):
            clause = perspective(self._months(count), semantics)
            account = rng.choice(wf.accounts)
            if index % 2:
                query = employee_grid(rng.choice(wf.departments), account, clause)
            else:
                query = dashboard(account, clause)
            tag = semantics.split()[-1].lower()
            self.slots.append(Slot(f"nv-{index}-{tag}-{count}", "non_visual", query))
        self.slots.append(
            Slot(
                "visual-perspective",
                "visual",
                dashboard(
                    rng.choice(wf.accounts),
                    perspective(self._months(2), "DYNAMIC FORWARD", visual=True),
                ),
            )
        )
        self.slots.append(
            Slot(
                "chained",
                "chained",
                dashboard(
                    rng.choice(wf.accounts),
                    changes(self._a_move())
                    + " "
                    + perspective(self._months(3), "DYNAMIC BACKWARD"),
                ),
            )
        )

    def before_block(self) -> None:
        self.warehouse.scenario_cache.clear()

    def run_op(self, slot: Slot, rep: int) -> float:
        return self._query(slot, deep=True)


# -- warm_dashboard -----------------------------------------------------------------


class WarmDashboard(Workload):
    """Same warehouse, everything pre-warmed: four scenario fingerprints
    (none, one NON_VISUAL, two VISUAL) × four grid shapes (40, 340, 480
    and 2,040 cells at full scale).  ``core`` does nothing here; analysis,
    axis resolution, rollup-memo probes and ``ScenarioCache.get`` copies
    are the whole cost — the bypass workload for a faster scenario apply."""

    name = "warm_dashboard"

    def prepare(self) -> None:
        wf, rng = self.wf, self.rng
        move = self._a_move()
        fingerprints = {
            "base": "",
            "nv": perspective(self._months(3), "DYNAMIC FORWARD"),
            "vis": perspective(self._months(2), "STATIC", visual=True),
            "chg": changes(move, visual=True),
        }
        steady = [e for e in self._steady_employees() if e != move[0]]
        staff = ", ".join(f"[{e}]" for e in sorted(rng.sample(steady, min(40, len(steady)))))
        account = rng.choice(wf.accounts)
        for tag, clause in fingerprints.items():
            shapes = {
                "quarters": Query(
                    "Period.Children",
                    "Department.Children",
                    (account, "Current") + TAIL_SLICER,
                    clause,
                ),
                "scenarios": scenario_dashboard(account, clause),
                "staff": Query(
                    MONTH_COLUMNS, staff, (account, "Current") + TAIL_SLICER, clause
                ),
                "accounts": Query(
                    "Period.Members",
                    "CrossJoin({Department.Children}, {Account.Members})",
                    ("Current",) + TAIL_SLICER,
                    clause,
                ),
            }
            for shape, query in shapes.items():
                self.slots.append(Slot(f"{tag}-{shape}", shape, query))
        for slot in self.slots:  # fill every cache once, un-timed
            self._query(slot, deep=True)

    def run_op(self, slot: Slot, rep: int) -> float:
        return self._query(slot, deep=rep == self.k - 1)


def _cache_counters(warehouse: Any) -> "dict[str, float]":
    """Scenario-cache and rollup-memo counters of a live warehouse."""
    cache = warehouse.scenario_cache.stats
    counters = {
        "scenario_cache_hits": float(cache.hits),
        "scenario_cache_misses": float(cache.misses),
        "scenario_cache_evictions": float(cache.evictions),
    }
    if warehouse.cube.has_rollup_index:
        memo = warehouse.cube.rollup_index().stats
        counters["memo_hits"] = float(memo.hits)
        counters["memo_misses"] = float(memo.misses)
    return counters


# -- write_requery ------------------------------------------------------------------


class WriteRequery(Workload):
    """The write side of the same layers: ``Cube.set_value`` on the live
    cube, then ``QueryService(workers=2).submit(dashboard).result()`` on
    the 340-cell base dashboard.  Four ``edit`` slots rewrite the 24
    cells of one employee row; two ``load`` slots rewrite a department ×
    ``Scenario1`` slice in place, insert 24 cells for a so-far empty
    employee and delete the previous load's inserts, so the cube keeps
    its size.  The service never queries the live cube, so every
    post-write snapshot rebuilds its rollup index — version bump, cache
    invalidation, ``frozen_copy``, index build and memo flush all sit
    here and nowhere else."""

    name = "write_requery"
    sparse = True

    def setup(self) -> None:
        from repro import QueryService

        self.wf = build_workforce(self.config)
        self.warehouse = self.wf.warehouse
        self.service = QueryService(self.warehouse, workers=2)
        self.query = scenario_dashboard()
        self.service.submit(self.query.text).result()

    def prepare(self) -> None:
        wf, rng = self.wf, self.rng
        cube = self.warehouse.cube
        filled: "set[str]" = set()
        slices: "dict[str, list[tuple]]" = {d: [] for d in wf.departments}
        for addr, _ in cube.leaf_cells():
            path = addr[0].split("/")
            filled.add(path[-1])
            if addr[3] == "Scenario1":
                slices[path[-2]].append(addr)
        steady = self._steady_employees()
        self.empties = [e for e in steady if e not in filled]
        n_edit, n_load = 4, 2
        if len(self.empties) < n_load + 1:
            raise RuntimeError(
                f"seed {self.seed}: only {len(self.empties)} unfilled employees; "
                "the load slots need three"
            )
        rng.shuffle(self.empties)
        editable = rng.sample([e for e in steady if e in filled], n_edit)
        for employee in editable:
            self.slots.append(
                Slot(f"edit-{employee}", "edit", cells=self._row_cells(employee))
            )
        for department in rng.sample(wf.departments, n_load):
            self.slots.append(
                Slot(f"load-{department}", "load", cells=slices[department])
            )
        self.next_empty = 0
        self.inserted: "list[tuple]" = []
        # pre-insert one row so the first load already deletes 24 cells
        self._apply(self._insert_writes())
        result = self.service.submit(self.query.text).result()
        self.current = grid_of(result)
        self.last_result = result
        self.row_of = {
            (t.coordinates[0][1], t.coordinates[1][1]): i
            for i, t in enumerate(result.rows)
        }
        self.col_of = {t.coordinates[0][1]: j for j, t in enumerate(result.columns)}
        self.naive_checked: "set[str]" = set()

    def _row_cells(self, employee: str) -> "list[tuple]":
        path = f"Department/{self._home(employee)}/{employee}"
        return [
            (path, month, "Acct000", scenario) + TAIL_SLICER
            for month in MONTHS
            for scenario in self.wf.scenarios
        ]

    def _insert_writes(self) -> "list[tuple[tuple, object]]":
        employee = self.empties[self.next_empty % len(self.empties)]
        self.next_empty += 1
        cells = self._row_cells(employee)
        writes = [(addr, self._value()) for addr in cells]
        writes += [(addr, MISSING) for addr in self.inserted]
        self.inserted = cells
        return writes

    def _value(self) -> float:
        return round(50 + 50 * self.rng.random(), 2)

    def _apply(self, writes: "list[tuple[tuple, object]]") -> None:
        set_value = self.warehouse.cube.set_value
        for addr, value in writes:
            set_value(addr, value)

    def run_op(self, slot: Slot, rep: int) -> float:
        cube = self.warehouse.cube
        writes = [(addr, self._value()) for addr in slot.cells]
        if slot.kind == "load":
            writes += self._insert_writes()
        before = [cube.value(addr) for addr, _ in writes]
        text = self.query.text
        started = time.perf_counter()
        try:
            with self.log.span("olap.set_value", cells=len(writes)):
                self._apply(writes)
            with self.log.span("service.submit"):
                ticket = self.service.submit(text)
            with self.log.span("service.result"):
                result = ticket.result()
        except ReproError as exc:
            elapsed = (time.perf_counter() - started) * 1000.0
            self.record(False, f"{self.name}/{slot.name}: {exc!r}")
            return elapsed
        elapsed = (time.perf_counter() - started) * 1000.0
        self._check_delta(slot, writes, before, result)
        self.note_profile(slot, result)
        if slot.kind not in self.naive_checked:
            self.naive_checked.add(slot.kind)
            ok = self._naive_matches(self.query, result)
            self.record(ok, f"{self.name}/{slot.name}: naive oracle disagrees")
        return elapsed

    def _check_delta(
        self, slot: Slot, writes: list, before: list, result: Any
    ) -> None:
        """Independent arithmetic oracle: every dashboard cell must equal
        the previous reply plus the deltas just written (within
        :data:`DELTA_TOLERANCE`), and untouched cells must not move."""
        rows, columns, cells = self.current
        expected = [list(row) for row in cells]
        touched: "set[tuple[int, int]]" = set()
        for (addr, new), old in zip(writes, before):
            if addr[2] != self.query.slicer[0]:
                continue
            delta = (0.0 if is_missing(new) else new) - (
                0.0 if is_missing(old) else old
            )
            r = self.row_of[(addr[0].split("/")[-2], addr[3])]
            quarter = QUARTERS[MONTHS.index(addr[1]) // 3]
            for member in (addr[1], quarter, "Period"):
                c = self.col_of[member]
                expected[r][c] = (expected[r][c] or 0.0) + delta
                touched.add((r, c))
        got = grid_of(result)
        ok = got[0] == rows and got[1] == columns
        for r, row in enumerate(got[2]):
            for c, value in enumerate(row):
                want = expected[r][c]
                if (r, c) not in touched:
                    ok = ok and value == want
                elif value is None or abs(value - want) > DELTA_TOLERANCE * max(
                    1.0, abs(want)
                ):
                    ok = False
        self.record(ok, f"{self.name}/{slot.name}: dashboard does not show the write")
        self.current = got
        self.last_result = result

    def verify(self) -> None:
        ok = self._naive_matches(self.query, self.last_result)
        self.record(ok, f"{self.name}/final: naive oracle disagrees")

    def close(self) -> None:
        self.service.close()

    def layer_overrides(self) -> "dict[str, float]":
        wait = self.warehouse.metrics.histogram("service_queue_wait_ms").sample()
        return {"service.queue_wait_ms": float(wait.get("mean", 0.0))}


# -- serve_http ---------------------------------------------------------------------


class HttpClient:
    """One persistent HTTP/1.1 connection with ``TCP_NODELAY`` and one
    ``sendall`` per request, so any stall it measures is the server's."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def post(self, path: str, payload: "dict[str, Any]") -> "tuple[int, bytes]":
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"POST {path} HTTP/1.1\r\nHost: ledger\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.sock.sendall(head + body)
        status = int(self.reader.readline().split()[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, self.reader.read(length)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class ServeHttp(Workload):
    """The real front door: ``ShardedQueryService("workforce",
    n_shards=2)`` behind ``make_server`` in this process, one keep-alive
    client connection.  Nine warm slots — three fingerprints (none,
    NON_VISUAL, VISUAL) × {one-department employee grid, department
    dashboard, all-department totals}, which the coordinator classifies
    as owned, local or spanning cells — and three cold slots whose
    perspective month-set advances on every execution, so a shard pays a
    cold apply over its slice.  ``service`` (decode, classify,
    scatter/gather, merge, serialise) sets ``op_p50_ms``; shard-side
    apply sets ``ops_per_s``; spawn and per-shard cube copies set
    ``setup_s`` and ``peak_rss_mb``."""

    name = "serve_http"
    N_SHARDS = 2

    def setup(self) -> None:
        from repro.service import ShardedQueryService, make_server

        params = tuple(sorted(dataclasses.asdict(self.config).items()))
        self.client = self.server = self.service = None
        started = time.perf_counter()
        self.service = ShardedQueryService(
            "workforce", n_shards=self.N_SHARDS, workload_params=params
        )
        try:
            health = self.service.health()
            if not health["ready"]:
                raise RuntimeError(f"shard pool not ready: {health}")
            self.spawn_s = time.perf_counter() - started
            self.server = make_server(self.service)
            self.thread = threading.Thread(
                target=self.server.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="ledger-http",
                daemon=True,
            )
            self.thread.start()
            self.client = HttpClient(*self.server.server_address[:2])
            self.warehouse = self.service.warehouse
            status, _ = self.client.post("/v1/query", {"query": dashboard().text})
            if status != 200:
                raise RuntimeError(f"first query answered {status}")
        except BaseException:
            self.close()
            raise

    def prepare(self) -> None:
        # the coordinator's own warehouse is the in-process reference
        wf_departments = [
            m.name
            for m in self.warehouse.schema.dimension("Department").root.children
        ]
        accounts = [
            m.name
            for m in self.warehouse.schema.dimension("Account").leaf_members()
        ]
        rng = self.rng
        fingerprints = {
            "base": "",
            "nv": perspective(self._months(3), "DYNAMIC FORWARD"),
            "vis": perspective(self._months(2), "STATIC", visual=True),
        }
        for tag, clause in fingerprints.items():
            account = rng.choice(accounts)
            self.slots.append(
                Slot(
                    f"{tag}-employees",
                    "warm",
                    employee_grid(rng.choice(wf_departments), account, clause),
                )
            )
            self.slots.append(Slot(f"{tag}-dashboard", "warm", dashboard(account, clause)))
            self.slots.append(Slot(f"{tag}-totals", "warm", totals(account, clause)))
        self.cold_departments = rng.sample(wf_departments, 3)
        self.cold_account = rng.choice(accounts)
        for department in self.cold_departments:
            self.slots.append(Slot(f"cold-{department}", "cold"))
        self.month_sets = list(itertools.combinations(MONTHS, 3))
        rng.shuffle(self.month_sets)
        self.cold_serial = 0
        #: block -> [(query, decoded grid)] of each cold slot's first repetition
        self.cold_seen: "dict[int, list[tuple[Query, tuple]]]" = {}
        self.stats_total: "dict[str, int]" = {}
        self.response_bytes: "list[int]" = []
        for slot in self.slots:  # warm both sides once, un-timed
            if slot.kind == "warm":
                reference = self.warehouse.query(slot.query.text)
                grid = grid_of(reference)
                self.reference[slot.name] = (reference, grid, repr(grid))
                self.run_op(slot, self.k - 1)

    def cold_query(self, slot: Slot) -> Query:
        """A never-seen scenario fingerprint: the month-set advances with
        every execution and the semantics rotate with each lap."""
        serial = self.cold_serial
        self.cold_serial += 1
        months = self.month_sets[serial % len(self.month_sets)]
        semantics = SEMANTICS[1 + (serial // len(self.month_sets)) % 3]
        return employee_grid(
            slot.name.removeprefix("cold-"),
            self.cold_account,
            perspective(list(months), semantics),
        )

    def run_op(self, slot: Slot, rep: int) -> float:
        query = slot.query if slot.kind == "warm" else self.cold_query(slot)
        payload = {"query": query.text}
        started = time.perf_counter()
        with self.log.span("service.http", kind=slot.kind):
            status, body = self.client.post("/v1/query", payload)
        elapsed = (time.perf_counter() - started) * 1000.0
        if status != 200:
            self.record(False, f"{self.name}/{slot.name}: HTTP {status} {body[:200]!r}")
            return elapsed
        envelope = json.loads(body)
        stats = envelope["stats"]
        for key, value in stats.items():
            self.stats_total[key] = self.stats_total.get(key, 0) + value
        self.response_bytes.append(len(body))
        grid = (
            [row["labels"] for row in envelope["rows"]],
            [column["labels"] for column in envelope["columns"]],
            envelope["cells"],
        )
        ok = not envelope["partial"] and stats.get("fallback_cells", 0) == 0
        if slot.kind == "warm":
            first = self.reference[slot.name]
            ok = ok and grid == first[1] and (rep < self.k - 1 or repr(grid) == first[2])
        elif rep == 0:
            self.cold_seen.setdefault(self.block, []).append((query, grid))
        self.record(ok, f"{self.name}/{slot.name}: reply differs from Warehouse.query")
        return elapsed

    def verify(self) -> None:
        """Cold replies of the first and the last block against in-process
        ``Warehouse.query`` (a full-cube cold apply each, so a sampling
        preset checks one reply per block), then the naive oracle on the
        warm texts with the other half of the sample."""
        limit = self.preset.oracle_texts
        blocks = sorted(self.cold_seen)
        for block in sorted({blocks[0], blocks[-1]}) if blocks else ():
            seen = self.cold_seen[block]
            for query, grid in seen if limit is None else [self.rng.choice(seen)]:
                local = grid_of(self.warehouse.query(query.text))
                self.record(
                    repr(grid) == repr(local),
                    f"{self.name}/cold block {block}: reply differs from Warehouse.query",
                )
        self._naive_oracle(None if limit is None else limit // 2)

    def rss_mb(self) -> float:
        return _status_mb("self", "VmRSS") + sum(self.shard_rss_mb("VmRSS"))

    def shard_rss_mb(self, field: str) -> "list[float]":
        return [
            _status_mb(client.process.pid, field) for client in self.service.clients
        ]

    def trace_reference(self) -> None:
        """HTTP replies carry no profile: the mdx phases of this workload
        come from in-process evaluation of the same warm texts."""
        for slot in self.slots:
            if slot.kind == "warm":
                self.note_profile(slot, self.warehouse.query(slot.query.text))

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=10)
            self.server = None
        if self.service is not None:
            started = time.perf_counter()
            self.service.close()
            self.close_s = time.perf_counter() - started
            self.service = None

    def layer_counters(self) -> "dict[str, float]":
        counters = super().layer_counters()
        counters.update({k: float(v) for k, v in self.stats_total.items()})
        snapshot = self.warehouse.metrics.snapshot()
        counters["hedges"] = float(
            sum(v for k, v in snapshot.items() if k.startswith("serve_hedge_total"))
        )
        counters["retries"] = float(
            sum(
                v
                for k, v in snapshot.items()
                if k.startswith("serve_shard_retries_total")
            )
        )
        return counters


WORKLOADS = {
    cls.name: cls for cls in (ColdWhatif, WarmDashboard, WriteRequery, ServeHttp)
}
