"""Shards answer in grid blocks; a cell no single shard owns is the
coordinator's.

Owned cells cross the pipe as blocks (base coordinates plus each block's
row and column tuples) and are filled with ``evaluate_grid``, like the
coordinator's residue, which is every cell above any single member: it is
filled on the full warehouse exactly as ``Warehouse.query`` fills it, so
it needs no shard.  A shard is handed data at spawn only: after a
coordinator write its owned cells answer the data it was cut with, every
other cell the coordinator's current data.

Tier-1 draws a few examples; the CI chaos job (``REPRO_FAULTS=ci-matrix``)
draws the wide run.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShardError
from repro.faults import FAULTS
from repro.obs.metrics import METRICS
from repro.service import CircuitBreaker, ShardedQueryService, SupervisorConfig
from repro.service.service import _blocks

FULL_MATRIX = "ci-matrix" in os.environ.get("REPRO_FAULTS", "")
EXAMPLES = 40 if FULL_MATRIX else 8

#: Lisa is shard 0's, Tom shard 1's; East is above any leaf: owned cells
OWNED = (
    "SELECT {Time.[Jan], Time.[Feb], Time.[Qtr1]} ON COLUMNS, "
    "{[Lisa], [Tom]} ON ROWS FROM Warehouse WHERE ([East], [Salary])"
)
#: no single shard covers a category or the root: every cell is local
CATEGORIES = (
    "SELECT {Time.[Jan], Time.[Feb], Time.[Qtr1]} ON COLUMNS, "
    "{[FTE], [PTE], [Organization]} ON ROWS FROM Warehouse WHERE ([East], [Salary])"
)

#: respawns wait long enough that a stale shard stays stale for a test
SLOW_RESPAWN = SupervisorConfig(
    heartbeat_s=0.02,
    backoff_base_ms=20_000.0,
    backoff_max_ms=20_000.0,
    start_timeout_s=60.0,
    rpc_timeout_s=30.0,
)


def _requests(service) -> float:
    metrics = service.warehouse.metrics
    return sum(
        metrics.value("serve_shard_requests_total", shard=str(shard))
        for shard in range(service.n_shards)
    )


@pytest.fixture(scope="module")
def service():
    """The stale-shard test runs last: from then on the shards are stale,
    holding the cube's data again."""
    with ShardedQueryService(
        "running",
        n_shards=2,
        supervisor_config=SLOW_RESPAWN,
        rpc_timeout_ms=5_000.0,
    ) as pool:
        yield pool


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
    expected = service.warehouse.query(text)
    assert (got.rows, got.columns) == (expected.rows, expected.columns), text
    assert repr(got.cells) == repr(expected.cells), text


def test_a_transient_gather_fault_is_retried_and_the_grid_is_exact(service):
    """Owned cells wait on the shards, so an armed ``serve.gather`` fault
    fires once, is retried in place, and the grid is still
    ``Warehouse.query``'s."""
    expected = service.warehouse.query(OWNED)

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
        got = service.execute(OWNED, degrade="fail")
    finally:
        FAULTS.disarm("serve.gather")
    assert (fired() - before[0], retries() - before[1]) == (1, 1)
    assert got.stats["owned_cells"] == 6 and got.stats["local_cells"] == 0
    assert repr(got.cells) == repr(expected.cells)


# -- a cell no shard owns needs no shard -------------------------------------------------


def test_a_grid_no_shard_owns_needs_no_shard(service):
    """Every breaker open: a grid of local cells sends no RPC, consults no
    breaker, and answers ``Warehouse.query``'s grid under every policy."""
    expected = service.warehouse.query(CATEGORIES)
    originals = list(service.breakers)
    try:
        for breaker in service.breakers:
            for _ in range(breaker.failure_threshold):
                breaker.record_failure(ShardError("boom"))
        for policy in ("fail", "partial", "fallback"):
            before = _requests(service)
            got = service.execute(CATEGORIES, degrade=policy)
            assert _requests(service) - before == 0, policy
            assert got.stats["owned_cells"] == 0 and got.stats["local_cells"] == 9
            assert not got.degradations and got.stats["fallback_cells"] == 0
            assert repr(got.cells) == repr(expected.cells), policy
    finally:
        for i, old in enumerate(originals):
            fresh = CircuitBreaker()
            fresh.on_state_change = old.on_state_change
            service.breakers[i] = fresh


# -- a write makes the shards stale ----------------------------------------------------


def test_after_a_write_owned_cells_are_stale_and_the_rest_current(service):
    """One leaf write on shard 0's data: every shard reports stale; the
    owned cell over the leaf answers the shards' pre-write value, the
    category and root cells over it the coordinator's post-write value."""
    cube = service.warehouse.cube
    text = (
        "SELECT {Time.[Jan]} ON COLUMNS, {[Lisa], [FTE], [Organization]} ON ROWS "
        "FROM Warehouse WHERE ([East], [Salary])"
    )
    health = service.health()
    assert [s["stale"] for s in health["shards"]] == [False, False]
    assert {s["slice_version"] for s in health["shards"]} == {cube.version}
    assert service.warehouse.metrics.value("serve_shards_stale") == 0
    before_write = service.execute(text, degrade="fail")
    assert before_write.stats["owned_cells"] == 1  # Lisa, on shard 0

    leaf = cube.schema.address(
        Organization="Organization/FTE/Lisa", Location="NY", Time="Jan", Measures="Salary"
    )
    assert service.plan.shard_of_coordinate(leaf[0]) == 0
    original = cube.value(leaf)
    cube.set_value(leaf, original + 1.0)
    try:
        health = service.health()
        assert [s["stale"] for s in health["shards"]] == [True, True]
        assert health["ready"] and health["status"] == "ok"
        assert service.warehouse.metrics.value("serve_shards_stale") == 2

        got = service.execute(text, degrade="fail")
        expected = service.warehouse.query(text)
        # the owned cell: shard 0's data, as it was cut
        assert repr(got.cells[0]) == repr(before_write.cells[0])
        assert expected.cells[0][0] == before_write.cells[0][0] + 1.0
        # the category and the root: the coordinator's, as written
        assert repr(got.cells[1:]) == repr(expected.cells[1:])
        assert [row[0] for row in got.cells[1:]] == [
            row[0] + 1.0 for row in before_write.cells[1:]
        ]

        categories = text.replace("[Lisa], ", "")
        before = _requests(service)
        local = service.execute(categories, degrade="fail")
        assert _requests(service) - before == 0
        assert local.stats["owned_cells"] == 0
        assert repr(local.cells) == repr(service.warehouse.query(categories).cells)
    finally:
        # the shards' data again, at a later version: stale but equal
        cube.set_value(leaf, original)
