"""A spanning cell is merged once, then it is a memo entry; shards answer
in grid blocks.

Before admission the coordinator probes the full cube's rollup memo for
every spanning cell: a hit fills the grid and never causes an RPC.  The
misses are scattered as ``partial`` and the merged sums are stored back —
only while every contributing slice stands at the cube's version, checked
and stored under the cube's write lock (a leaf write flushes the memo
before it bumps the version).  While any shard is stale the memo is not
read either, so every spanning cell is a shard merge: that is how the
parity table and the gather fault below reach ``_merge_partials``.  Owned
cells cross the pipe as blocks (base coordinates plus each block's row and
column tuples) and are filled with ``evaluate_grid``, like the
coordinator's residue.

Tier-1 draws a few examples and one write race; the CI chaos job
(``REPRO_FAULTS=ci-matrix``) draws the wide run under the lockdep witness.
"""

from __future__ import annotations

import itertools
import os
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShardDownError
from repro.faults import FAULTS
from repro.obs.metrics import METRICS
from repro.obs.trace import tracing
from repro.olap.missing import is_missing
from repro.perf import naive_mode
from repro.service import ShardedQueryService, SupervisorConfig
from repro.service.service import _blocks
from tests.service.test_sharded_parity import LAYOUTS, NON_EMPTY
from tests.service.test_sharded_parity import SLICERS as PARITY_SLICERS

FULL_MATRIX = "ci-matrix" in os.environ.get("REPRO_FAULTS", "")
EXAMPLES = 40 if FULL_MATRIX else 8
#: write races, each against slices freshly cut at the cube's version
ROUNDS = 4 if FULL_MATRIX else 1

#: a 3 x 3 grid of spanning cells: no single shard covers a category or the root
SPANNING = (
    "SELECT {Time.[Jan], Time.[Feb], Time.[Qtr1]} ON COLUMNS, "
    "{[FTE], [PTE], [Organization]} ON ROWS FROM Warehouse WHERE ([East], [Salary])"
)

#: respawns wait long enough that a killed shard stays down for a test
SLOW_RESPAWN = SupervisorConfig(
    heartbeat_s=0.02,
    backoff_base_ms=20_000.0,
    backoff_max_ms=20_000.0,
    start_timeout_s=60.0,
    rpc_timeout_s=30.0,
)
FAST_RESPAWN = SupervisorConfig(
    heartbeat_s=0.02,
    backoff_base_ms=20.0,
    backoff_max_ms=200.0,
    storm_window_s=10.0,
    storm_cap=100,
    start_timeout_s=60.0,
    rpc_timeout_s=30.0,
)


def reference(service, text):
    """``Warehouse.query``'s answer on the coordinator, read under
    ``naive_mode()``: it leaves no entry in the rollup memo."""
    with naive_mode():
        return service.warehouse.query(text)


def forget_merges(service) -> None:
    """One no-op leaf write on the coordinator.  The cube moves past the
    shards' slices, their data unchanged: the memo is neither read nor
    written for spanning cells while a shard is stale, so every spanning
    cell of a later query is a shard merge."""
    cube = service.warehouse.cube
    addr, value = next(iter(cube.leaf_cells()))
    cube.set_value(addr, value)


def _partials(service) -> float:
    metrics = service.warehouse.metrics
    return sum(
        metrics.value("serve_shard_requests_total", shard=str(shard), kind="partial")
        for shard in range(service.n_shards)
    )


def _assert_memo_is_the_cube(cube) -> None:
    """Every rollup-memo entry is the naive rollup at the cube's version."""
    entries = list(cube.rollup_index().memo_table("sum").items())
    with naive_mode():
        for addr, value in entries:
            assert repr(value) == repr(cube.rollup(addr)), addr


@pytest.fixture(scope="module")
def service():
    """The tests that need the slices at the cube's version run first;
    from the write test on the shards are stale, holding the cube's data
    (the state :func:`forget_merges` leaves)."""
    with ShardedQueryService(
        "running",
        n_shards=2,
        chunk=2,
        supervisor_config=SLOW_RESPAWN,
        rpc_timeout_ms=5_000.0,
    ) as pool:
        yield pool


# -- merged once, then a memo entry ---------------------------------------------------


def test_a_spanning_grid_is_merged_once_then_read_from_the_memo(service):
    cube = service.warehouse.cube
    expected = reference(service, SPANNING)
    before = _partials(service)
    first = service.execute(SPANNING, degrade="fail")
    assert _partials(service) - before == service.n_shards
    assert first.stats["spanning_cells"] == 9 and first.stats["memo_cells"] == 0
    assert repr(first.cells) == repr(expected.cells)
    memo = cube.rollup_index().memo_table("sum")
    stored = [
        cube.schema.address(
            Organization=row, Location="East", Time=month, Measures="Salary"
        )
        for row in ("FTE", "PTE", "Organization")
        for month in ("Jan", "Feb", "Qtr1")
    ]
    assert all(addr in memo for addr in stored)
    _assert_memo_is_the_cube(cube)

    before = _partials(service)
    with tracing() as tracer:
        second = service.execute(SPANNING, degrade="fail")
        root = tracer.take_last()
    assert _partials(service) - before == 0
    assert repr(second.cells) == repr(first.cells)
    # the classification still says spanning; the memo answered all of it
    assert second.stats["spanning_cells"] == second.stats["memo_cells"] == 9
    assert root.find("serve.scatter").attrs["memo_hits"] == 9
    assert root.find("serve.scatter").attrs["rpcs"] == 0


# -- grid blocks ---------------------------------------------------------------------


@settings(max_examples=4 * EXAMPLES, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=40)
)
def test_blocks_are_rectangles_that_partition_the_cells(cells):
    blocks = _blocks([(r, c, ()) for r, c in sorted(cells)])
    covered = [(r, c) for rows, columns in blocks for r in rows for c in columns]
    assert sorted(covered) == sorted(cells)
    assert len(blocks) <= len({r for r, _ in cells})


#: Organization is the shard dimension
ORGANIZATION_SETS = (
    "{[Organization].Members}",
    "{[FTE], [Joe]}",
    "{[Lisa], [Tom], [Jane], [Sue]}",
    "{[PTE].Children, [Contractor]}",
)
OTHER_SETS = (
    "{Time.[Jan], Time.[Feb], Time.[Qtr1]}",
    "{[Location].Members}",
    "{Time.[Jan], [NY]}",
)
SEMANTICS = (
    "STATIC",
    "DYNAMIC FORWARD",
    "DYNAMIC EXTENDED FORWARD",
    "DYNAMIC BACKWARD",
    "DYNAMIC EXTENDED BACKWARD",
)
SLICERS = ("([NY], [Salary])", "([East], [Compensation])", "([Salary])")


@st.composite
def _grids(draw) -> str:
    organization = draw(st.sampled_from(ORGANIZATION_SETS))
    other = draw(st.sampled_from(OTHER_SETS))
    layout = draw(st.sampled_from(("rows", "columns", "both", "crossjoin")))
    columns, rows = {
        "rows": (other, organization),
        # owned sets that are not one rectangle per shard
        "columns": (organization, other),
        "both": (draw(st.sampled_from(ORGANIZATION_SETS)), organization),
        "crossjoin": (other, f"CrossJoin({organization}, {{[NY], [East]}})"),
    }[layout]
    scenario = draw(st.sampled_from(("none", "perspective", "changes")))
    clause = ""
    if scenario == "perspective":
        months = draw(
            st.lists(st.sampled_from(("Jan", "Feb", "Mar", "Apr")), min_size=1, max_size=2, unique=True)
        )
        clause = (
            f"WITH PERSPECTIVE {{{', '.join(f'({m})' for m in months)}}} FOR Organization "
            f"{draw(st.sampled_from(SEMANTICS))} {draw(st.sampled_from(('VISUAL', 'NON_VISUAL')))} "
        )
    elif scenario == "changes":
        clause = (
            "WITH CHANGES {([Joe], [FTE], [PTE], [Jan])} FOR Organization "
            f"{draw(st.sampled_from(('VISUAL', 'NON_VISUAL')))} "
        )
    return (
        f"{clause}SELECT {columns} ON COLUMNS, {rows} ON ROWS "
        f"FROM Warehouse WHERE {draw(st.sampled_from(SLICERS))}"
    )


@settings(max_examples=EXAMPLES, deadline=None)
@given(text=_grids())
def test_a_blocked_grid_is_the_warehouse_grid(service, text):
    """Random layouts, every semantics, both modes: the blocks a shard
    fills and the coordinator's residue add up to ``Warehouse.query``."""
    got = service.execute(text, degrade="fail")
    expected = reference(service, text)
    assert (got.rows, got.columns) == (expected.rows, expected.columns), text
    assert repr(got.cells) == repr(expected.cells), text


# -- a write makes the shards stale ----------------------------------------------------


def test_a_coordinator_write_scatters_again_stores_nothing_and_reports_stale(service):
    cube = service.warehouse.cube
    text = SPANNING.replace("[East]", "[NY]")
    first = service.execute(text, degrade="fail")  # merged and stored
    health = service.health()
    assert [s["stale"] for s in health["shards"]] == [False, False]
    assert {s["slice_version"] for s in health["shards"]} == {cube.version}
    assert service.warehouse.metrics.value("serve_shards_stale") == 0

    leaf = next(
        addr
        for addr, _ in cube.leaf_cells()
        if addr[0].endswith("/FTE/Joe") and addr[1:] == ("NY", "Jan", "Salary")
    )
    original = cube.value(leaf)
    cube.set_value(leaf, original + 1.0)
    try:
        assert len(cube.rollup_index().memo_table("sum")) == 0
        for _ in range(2):  # ... and again: nothing was stored
            before = _partials(service)
            got = service.execute(text, degrade="fail")
            assert _partials(service) - before == service.n_shards
            assert got.stats["memo_cells"] == 0
            assert len(cube.rollup_index().memo_table("sum")) == 0
        # the shards still answer the data they were handed: stale, and said so
        assert repr(got.cells) == repr(first.cells)
        assert repr(got.cells) != repr(reference(service, text).cells)
        # ... even once the coordinator has rolled the same cells up itself:
        # while a shard is stale the memo is not read, so the answer does
        # not flip with unrelated traffic
        service.warehouse.query(text)
        assert len(cube.rollup_index().memo_table("sum")) > 0
        before = _partials(service)
        again = service.execute(text, degrade="fail")
        assert _partials(service) - before == service.n_shards
        assert again.stats["memo_cells"] == 0
        assert repr(again.cells) == repr(first.cells)
        health = service.health()
        assert [s["stale"] for s in health["shards"]] == [True, True]
        assert health["ready"] and health["status"] == "ok"
        assert service.warehouse.metrics.value("serve_shards_stale") == 2
    finally:
        # the shards' data again, at a later version: stale but equal
        cube.set_value(leaf, original)


# -- every merge compared ----------------------------------------------------------------

#: every Organization member's row: spanning categories and local leaf reads
MEMBERS = (
    "SELECT {Time.[Jan], Time.[Feb], Time.[Mar], Time.[Apr]} ON COLUMNS, "
    "{[Organization].Members} ON ROWS FROM Warehouse WHERE ([NY], [Salary])"
)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_every_merge_of_the_parity_table_is_the_warehouse_grid(service, layout):
    """``test_sharded_parity``'s layouts x slicers x NON EMPTY with the
    memo out of the way: no spanning cell is recalled, so each one is a
    shard merge (``_merge_partials``), compared with the naive
    ``Warehouse.query``."""
    forget_merges(service)
    columns, rows = LAYOUTS[layout]
    merged = 0
    for slicer, (ne_columns, ne_rows) in itertools.product(PARITY_SLICERS, NON_EMPTY):
        text = (
            f"SELECT {ne_columns}{columns} ON COLUMNS, {ne_rows}{rows} ON ROWS "
            f"FROM Warehouse WHERE {slicer}"
        )
        got = service.execute(text, degrade="fail")
        expected = reference(service, text)
        assert (got.rows, got.columns) == (expected.rows, expected.columns), text
        assert repr(got.cells) == repr(expected.cells), text
        assert got.stats["memo_cells"] == 0, text
        merged += got.stats["spanning_cells"]
    assert merged > 0


def test_a_transient_gather_fault_is_retried_and_the_merge_is_exact(service):
    """With the memo out of the way the spanning merge waits on the
    shards, so an armed ``serve.gather`` fault fires, is retried in
    place, and the grid is still ``Warehouse.query``'s."""
    expected = reference(service, MEMBERS)
    forget_merges(service)

    def fired() -> float:
        return METRICS.value("faults_fired_total", failpoint="serve.gather")

    def retries() -> float:
        return sum(
            service.warehouse.metrics.value(
                "serve_shard_retries_total", shard=str(shard), kind="transient"
            )
            for shard in range(service.n_shards)
        )

    before = fired(), retries()
    FAULTS.fail_transient("serve.gather", times=1)
    try:
        got = service.execute(MEMBERS, degrade="fail")
    finally:
        FAULTS.disarm("serve.gather")
    assert (fired() - before[0], retries() - before[1]) == (1, 1)
    assert got.stats["spanning_cells"] > 0 and got.stats["memo_cells"] == 0
    assert repr(got.cells) == repr(expected.cells)


# -- degrade policies --------------------------------------------------------------------


def test_degrade_policies_with_a_shard_down_at_admission():
    """A memo-warm spanning grid needs no shard; a cold one follows the
    degrade policy exactly as before the memo.  Its own pool: the memo is
    read only while the slices stand at the cube's version, and shard 0
    stays down for the rest of the pool's life."""
    with ShardedQueryService(
        "running",
        n_shards=2,
        chunk=2,
        supervisor_config=SLOW_RESPAWN,
        rpc_timeout_ms=5_000.0,
    ) as service:
        text = SPANNING.replace("Time.[Qtr1]", "Time.[Mar]")
        expected = reference(service, text)
        service.warehouse.query(text)  # the coordinator's own rollups: memo-warm
        service.supervisor.kill(0)
        deadline = time.monotonic() + 30.0
        while service.supervisor.status()[0]["state"] == "live":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        for policy in ("fail", "partial", "fallback"):
            warm = service.execute(text, degrade=policy)
            assert repr(warm.cells) == repr(expected.cells), policy
            assert not warm.degradations
            assert warm.stats["memo_cells"] == warm.stats["spanning_cells"] == 9

        forget_merges(service)
        with pytest.raises(ShardDownError):
            service.execute(text, degrade="fail")
        partial = service.execute(text, degrade="partial")
        assert partial.is_partial
        assert all(is_missing(v) for row in partial.cells for v in row)
        assert sum(d.cells_skipped for d in partial.degradations) == 9
        fallback = service.execute(text, degrade="fallback")
        assert repr(fallback.cells) == repr(expected.cells)
        assert not fallback.degradations and fallback.stats["fallback_cells"] == 9


# -- a write racing the write-back -------------------------------------------------------


def test_a_write_racing_the_write_back_never_leaves_a_stale_entry(monkeypatch):
    """A reader executes the spanning grid without pause while a writer
    changes a leaf under it.  The writer holds the cube's write lock across
    a pause *between* the memo flush and the version bump — the window a
    check made under the index lock alone would store a pre-write sum in.
    After every round each memo entry must be the naive rollup at the
    cube's version; every lock is a lockdep witness."""
    monkeypatch.setenv("REPRO_LOCKDEP", "1")  # read when a lock is made
    service = ShardedQueryService(
        "running", n_shards=2, chunk=2, supervisor_config=FAST_RESPAWN
    )
    try:
        cube = service.warehouse.cube
        index = cube.rollup_index()
        set_leaf = index.set_leaf

        def paused_set_leaf(addr, value):
            set_leaf(addr, value)  # flushes the memo ...
            time.sleep(0.05)  # ... and the version bump waits for this

        monkeypatch.setattr(index, "set_leaf", paused_set_leaf)
        # leaves every spanning cell of the grid rolls up
        leaves = [
            addr
            for addr, _ in cube.leaf_cells()
            if addr[1:] in {(loc, month, "Salary") for loc in ("NY", "MA") for month in ("Jan", "Feb")}
        ]
        assert leaves
        for round_, leaf in zip(range(ROUNDS), itertools.cycle(leaves)):
            if round_:  # slices cut afresh, at the cube's version again
                for shard in range(service.n_shards):
                    service.supervisor.kill(shard)
                    assert service.supervisor.await_live(shard, 30.0) is not None
            assert {s["slice_version"] for s in service.health()["shards"]} == {
                cube.version
            }
            stored = threading.Event()
            done = threading.Event()
            errors: "list[BaseException]" = []

            def reader() -> None:
                try:
                    while not done.is_set():
                        service.execute(SPANNING, degrade="fail")
                        if cube.rollup_index().memo_table("sum"):
                            stored.set()
                except BaseException as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)
                    stored.set()

            thread = threading.Thread(target=reader)
            thread.start()
            try:
                assert stored.wait(30.0)  # the first merge was stored
                cube.set_value(leaf, cube.value(leaf) + 1.0)
                time.sleep(0.02)  # readers scatter again after the write
            finally:
                done.set()
                thread.join(60.0)
            assert not errors, errors
            _assert_memo_is_the_cube(cube)
    finally:
        service.close()
