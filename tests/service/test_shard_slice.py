"""A shard is handed its slice: the wire form, the worker start that
carries it, and what a respawn is worth.

``make_slice`` cuts one shard's share of a warehouse as bare arrays and
``open_slice`` turns it back into a queryable sub-warehouse.  The
reference here is the restriction as it was before slices existed — a
derived index over the *same* schema object, nothing pickled — and every
read path of an opened slice, after a pickle round trip, must agree with
it.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.errors import ShardError
from repro.obs.trace import TRACER, tracing
from repro.service import ShardedQueryService
from repro.service.shard import (
    ShardClient,
    build_shard_plan,
    build_workload,
    make_slice,
    open_slice,
)
from repro.service.supervisor import ShardSupervisor
from repro.warehouse import Warehouse
from tests.service.test_shard_chaos import FAST_RESPAWN, OWNED
from tests.service.test_supervisor import _wait_for


def _reference_restrict(full: Warehouse, dimension: str, owned_members):
    """A shard's share before slices: an index derived in-process."""
    owned = set(owned_members)
    index = full.cube.restrict_leaves(
        dimension, lambda coord: coord.rsplit("/", 1)[-1] in owned
    )
    sub_cube = full.cube.adopt(index, dict(full.cube.stored_derived_cells()))
    sub = Warehouse(full.schema, sub_cube, name=full.name, aliases=full.aliases)
    for named_set in full.named_sets():
        sub.define_named_set(named_set.name, named_set.members)
    return sub


def _ruled_running() -> Warehouse:
    """The running example with a formula rule, a stored-derived cell and
    a named set — everything a slice carries besides leaves."""
    full = build_workload("running")
    full.cube.rules.define("Compensation", "Salary + 2 * Benefits")
    full.cube.set_value(("FTE", "NY", "Qtr1", "Salary"), 1234.5)
    full.define_named_set("Veterans", ["Lisa", "Tom"])
    return full


def _smoke_workforce() -> Warehouse:
    # the ledger's smoke preset (benchmarks/ledger/workloads.py)
    params = dict(
        n_employees=40, n_departments=4, n_changing=6, max_moves=3,
        n_accounts=3, n_scenarios=2,
    )
    return build_workload("workforce", tuple(params.items()))


_RUNNING_TEXTS = [
    "SELECT {Time.[Jan], Time.[Qtr1]} ON COLUMNS, {[Organization].Members} ON ROWS "
    "FROM Warehouse WHERE ([NY], [Salary])",
    "SELECT {Time.[Qtr1]} ON COLUMNS, {[Veterans]} ON ROWS "
    "FROM Warehouse WHERE ([East], [Compensation])",
    "WITH PERSPECTIVE {(Feb)} FOR Organization STATIC "
    "SELECT {Time.[Jan], Time.[Mar]} ON COLUMNS, {[Organization].Members} ON ROWS "
    "FROM Warehouse WHERE ([NY], [Salary])",
]
_WORKFORCE_TEXTS = [
    "SELECT {[Period].[Jan], [Period].[Q2]} ON COLUMNS, {[Department].Children} ON ROWS "
    "FROM [App].[Db] WHERE ([Acct000], [Current])",
    "WITH PERSPECTIVE {(Mar), (Sep)} FOR Department DYNAMIC FORWARD "
    "SELECT {[Period].[Q1], [Period].[Q4]} ON COLUMNS, "
    "{[EmployeesWithAtleastOneMove-Set1]} ON ROWS "
    "FROM [App].[Db] WHERE ([Acct001], [Current])",
]


def _every_read_path(sub: Warehouse, texts) -> dict:
    """What a shard can be asked, as plain comparable values."""
    cube = sub.cube
    leaves = list(cube.leaf_cells())
    # point reads and scopes: some leaves, each one's roots-on-all-but-one
    # address, the all-roots address, and a leaf address that holds nothing
    roots = tuple(d.root.name for d in sub.schema.dimensions)
    probes = [addr for addr, _ in leaves[:: max(1, len(leaves) // 7)]]
    probes += [roots[:1] + addr[1:] for addr in probes[:3]]
    probes += [addr[:-1] + roots[-1:] for addr in probes[:3]]
    probes.append(roots)
    results = [sub.query(text) for text in texts]
    return {
        "leaves": repr(leaves),
        "stored_derived": repr(list(cube.stored_derived_cells())),
        "named_sets": [(s.name, s.members) for s in sub.named_sets()],
        "names": (sub.name, sorted(sub.aliases)),
        "coordinates_used": [
            sorted(cube.coordinates_used(d.name)) for d in sub.schema.dimensions
        ],
        "effective": repr([cube.effective_value(addr) for addr in probes]),
        "stored": repr([cube.value(addr) for addr in probes]),
        "rollups": repr([cube.rollup(addr) for addr in probes]),
        "scopes": repr([cube.rollup_index().scope_cells(addr) for addr in probes]),
        "grids": [(r.columns, r.rows, repr(r.cells)) for r in results],
    }


@pytest.mark.parametrize(
    "build, dimension, texts",
    [
        (_ruled_running, "Organization", _RUNNING_TEXTS),
        (_smoke_workforce, "Department", _WORKFORCE_TEXTS),
    ],
    ids=["running-with-rule", "workforce-smoke"],
)
def test_opened_slice_agrees_with_the_in_process_restriction(build, dimension, texts):
    full = build()
    plan = build_shard_plan(full, dimension, 2)
    assert all(plan.shards)
    total = 0
    for owned in plan.shards:
        piece = pickle.loads(pickle.dumps(make_slice(full, dimension, owned)))
        sub = open_slice(piece)
        reference = _reference_restrict(full, dimension, owned)

        # arrays only, like the derived index it replaces
        struct = sub.cube.rollup_index()._struct
        assert not struct.recent and not struct.sorted_part.resolved
        # the far side of the pipe: its own schema, which its rules share
        assert sub.schema is not full.schema
        assert sub.cube.schema is sub.schema
        if full.cube.rules is not None:
            assert sub.cube.rules.schema is sub.schema
            assert len(sub.cube.rules.rules) == len(full.cube.rules.rules)

        assert _every_read_path(sub, texts) == _every_read_path(reference, texts)
        total += sub.cube.n_leaf_cells
    assert total == full.cube.n_leaf_cells


def test_slice_whose_columns_do_not_fit_is_refused():
    full = build_workload("running")
    piece = make_slice(full, "Organization", ["Joe", "Lisa"])
    with pytest.raises(ShardError, match="slice cannot be opened"):
        open_slice(dataclasses.replace(piece, columns=piece.columns[:-1]))
    (codes, coords), *rest = piece.columns
    with pytest.raises(ShardError, match="slice cannot be opened"):
        open_slice(dataclasses.replace(piece, columns=[(codes[:-1], coords), *rest]))


# -- the worker start that carries a slice ---------------------------------------------


def _spawn_spans():
    return [
        span
        for root in TRACER.finished
        for span in root.iter_spans()
        if span.name == "shard.spawn"
    ]


def test_kill_respawn_answers_bit_identically_and_is_accounted():
    TRACER.clear()
    with tracing():
        service = ShardedQueryService(
            "running", n_shards=2, supervisor_config=FAST_RESPAWN
        )
    with service:
        metrics = service.warehouse.metrics
        before = repr(service.execute(OWNED, degrade="fail").cells)
        assert before == repr(service.warehouse.query(OWNED).cells)
        initial = _spawn_spans()
        assert [s.attrs["shard"] for s in initial] == [0, 1]
        for span in initial:
            assert span.attrs["phase"] == "initial"
            assert [child.name for child in span.children] == [
                "shard.spawn.ready",
                "shard.spawn.slice",
                "shard.spawn.send",
                "shard.spawn.open",
            ]
            shard = span.attrs["shard"]
            assert span.attrs["slice_bytes"] == metrics.value(
                "shard_slice_bytes", shard=str(shard)
            ) > 0
            assert span.attrs["leaves"] == service.clients[shard].leaves
            # the worker's clock starts when its receive returns, which may
            # come before ``shard.spawn.open`` opens: the window that holds
            # it by construction runs from the send's start to the open's end
            window = span.find("shard.spawn.open").end - span.find("shard.spawn.send").start
            assert span.attrs["open_ms"] <= window * 1000.0
        assert sum(s.attrs["leaves"] for s in initial) == service.warehouse.cube.n_leaf_cells
        histogram = metrics.histogram("shard_spawn_ms", phase="initial")
        assert histogram.count == 2
        assert "shard_spawn_ms_count" in metrics.to_prometheus()

        old_pid = service.clients[0].process.pid
        TRACER.clear()
        with tracing():
            service.supervisor.kill(0)
            fresh = service.supervisor.await_live(0, timeout=30.0)
        assert fresh is not None and fresh.process.pid != old_pid
        assert service.supervisor.restarts(0) == 1
        assert fresh.phase == "respawn"
        assert metrics.histogram("shard_spawn_ms", phase="respawn").count == 1
        (respawn,) = _spawn_spans()
        assert respawn.attrs["phase"] == "respawn" and respawn.attrs["shard"] == 0
        assert respawn.attrs["leaves"] == initial[0].attrs["leaves"]
        assert repr(service.execute(OWNED, degrade="fail").cells) == before
        # the same answer came from the shards, not from a fallback
        assert service.execute(OWNED, degrade="fail").stats["fallback_cells"] == 0
    TRACER.clear()


class TestConstructorLeaksNothing:
    """Once the supervisor exists, a failing constructor must close it:
    nobody else holds a handle to its monitor thread and its workers."""

    @pytest.fixture()
    def pools(self, monkeypatch):
        created = []
        init = ShardSupervisor.__init__

        def recording(supervisor, *args, **kwargs):
            init(supervisor, *args, **kwargs)
            created.append(supervisor)

        monkeypatch.setattr(ShardSupervisor, "__init__", recording)
        return created

    @staticmethod
    def _assert_closed(supervisor):
        assert not supervisor._monitor.is_alive()
        for client in supervisor.clients:
            assert not client.process.is_alive()
            assert client._conn.closed

    def test_failure_after_the_pool_started(self, pools, monkeypatch):
        def refuse(supervisor, breakers):
            raise ShardError("no breakers today")

        monkeypatch.setattr(ShardSupervisor, "attach_breakers", refuse)
        with pytest.raises(ShardError, match="no breakers today"):
            ShardedQueryService("running", n_shards=2)
        (supervisor,) = pools
        self._assert_closed(supervisor)

    def test_slices_that_do_not_partition_the_cube(self, pools, monkeypatch):
        from repro.service import service as service_module

        def short_by_one(full, dimension, owned):
            piece = make_slice(full, dimension, owned)
            return dataclasses.replace(
                piece,
                columns=[(codes[:-1], coords) for codes, coords in piece.columns],
                values=piece.values[:-1],
            )

        monkeypatch.setattr(service_module, "make_slice", short_by_one)
        with pytest.raises(ShardError, match="not a partition"):
            ShardedQueryService("running", n_shards=2)
        (supervisor,) = pools
        self._assert_closed(supervisor)

    def test_worker_dying_right_after_its_hello_is_healed_not_fatal(self, monkeypatch):
        # The partition invariant is read off the hellos, so there is no
        # RPC between a worker's hello and the end of the constructor for
        # a death to break: the pool comes up and the supervisor heals it.
        await_hello = ShardClient._await_hello
        killed = []

        def hello_then_die(client):
            await_hello(client)
            if client.shard_index == 1 and not killed:
                client.process.kill()
                client.process.join(10.0)
                killed.append(client.process.pid)

        monkeypatch.setattr(ShardClient, "_await_hello", hello_then_die)
        with ShardedQueryService(
            "running", n_shards=2, supervisor_config=FAST_RESPAWN
        ) as service:
            assert killed
            assert _wait_for(lambda: service.supervisor.restarts(1) == 1)
            assert service.supervisor.client(1).process.pid not in killed
            assert repr(service.execute(OWNED, degrade="fail").cells) == repr(
                service.warehouse.query(OWNED).cells
            )
