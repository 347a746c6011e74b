"""A shard derives its footprint from the grid blocks it was sent.

Op ``cells`` carries a query text, its base coordinates and the row and
column tuples of the shard's share of the grid, as blocks.  The shard
applies the text's scenario chain to the rows *of its slice* that those
cells can reach — through the same call, and the same footprint rule
(``grid_footprint``), every other reader of scenario cells uses
(``_Context.view_of``) — and the coordinator does the same for its local
residue (``serve.local``).  The answers are those of the whole cube's
view, whatever was kept.
"""

from __future__ import annotations

import pytest

from repro.core.scenario import apply_scenarios
from repro.mdx.evaluator import _Context, build_scenarios, resolve_query
from repro.mdx.parser import parse_query
from repro.obs.trace import tracing
from repro.service import ShardedQueryService
from repro.service.shard import (
    _decode_value,
    _ShardRuntime,
    build_shard_plan,
    build_workload,
    cells_request,
    make_slice,
)
from repro.workload.workforce import MONTHS

# the ledger's smoke preset (benchmarks/ledger/workloads.py)
PARAMS = tuple(
    dict(
        n_employees=40, n_departments=4, n_changing=6, max_moves=3,
        n_accounts=3, n_scenarios=2,
    ).items()
)
COLUMNS = ", ".join(f"Period.[{month}]" for month in MONTHS)
TAIL = "[Current], [Local], [BU Version_1], [HSP_InputValue]"
CLAUSES = [
    "WITH PERSPECTIVE {(Mar), (Sep)} FOR Department DYNAMIC FORWARD VISUAL ",
    "WITH PERSPECTIVE {(Feb), (Jun), (Oct)} FOR Department STATIC ",
]


def _employee_grid(clause: str, department: str, account: str) -> str:
    return (
        f"{clause}SELECT {{{COLUMNS}}} ON COLUMNS, {{[{department}].Children}} ON ROWS "
        f"FROM [App].[Db] WHERE ([{account}], {TAIL})"
    )


def _dashboard(clause: str, account: str) -> str:
    return (
        f"{clause}SELECT {{{COLUMNS}}} ON COLUMNS, {{Department.Children}} ON ROWS "
        f"FROM [App].[Db] WHERE ([{account}], {TAIL})"
    )


def _share(full, text: str, owned) -> "tuple[dict, list, list]":
    """A grid's block the coordinator would send the shard owning
    ``owned``: the base coordinates, the rows whose shard-dimension member
    it owns, and every column."""
    resolved = resolve_query(_Context(full, parse_query(text)))
    rows = [
        row
        for row in resolved.rows
        if row.coordinate("Department").rsplit("/", 1)[-1] in owned
    ]
    return resolved.base_coords, rows, resolved.columns


def _addresses(full, base, rows, columns) -> "list[tuple[str, ...]]":
    """Every address of a block, row-major."""
    return [
        full.schema.address(
            **{**base, **dict(row.coordinates), **dict(column.coordinates)}
        )
        for row in rows
        for column in columns
    ]


@pytest.mark.parametrize("clause", CLAUSES)
def test_a_shard_applies_the_chain_to_the_rows_its_addresses_reach(clause):
    full = build_workload("workforce", PARAMS)
    departments = [m.name for m in full.schema.dimension("Department").root.children]
    plan = build_shard_plan(full, "Department", 2)
    whole = apply_scenarios(
        full.cube, build_scenarios(full, parse_query(_dashboard(clause, "Acct001")))
    )
    for shard, owned in enumerate(plan.shards):
        runtime = _ShardRuntime(shard, make_slice(full, "Department", owned))
        slice_leaves = runtime.warehouse.cube.n_leaf_cells

        # two departments it owns employees of, each on its own account
        mine_of = [
            d
            for d in departments
            if _share(full, _employee_grid(clause, d, "Acct001"), owned)[1]
        ]
        assert len(mine_of) >= 2, "the plan left this shard one department only"
        kept = []
        for department, account in zip(mine_of, ("Acct001", "Acct002")):
            text = _employee_grid(clause, department, account)
            base, rows, columns = _share(full, text, owned)
            reply = runtime.handle(cells_request(text, base, [(rows, columns)]))
            assert reply["ok"]
            (block,) = reply["values"]
            got = [_decode_value(value) for row in block for value in row]
            mine = _addresses(full, base, rows, columns)
            assert repr(got) == repr([whole.effective_value(addr) for addr in mine])
            (entry,) = [value for _, value in runtime.warehouse.scenario_cache._entries.values()]
            kept.append(entry.footprint_rows)
            assert set(entry.named) == {d.name for d in full.schema.dimensions}
        # one account, one scenario, the department's employees it owns ...
        assert 0 < kept[0] < slice_leaves // 6
        # ... then the second request's blocks were not covered: widened,
        # once, to the box over both (two accounts × both departments)
        assert kept[0] < kept[1] < slice_leaves
        assert runtime.warehouse.scenario_cache.stats.builds == 2
        assert set(entry.named["Account"]) == {"Acct001", "Acct002"}


def test_an_unscenarioed_cells_request_derives_no_footprint():
    full = build_workload("workforce", PARAMS)
    plan = build_shard_plan(full, "Department", 2)
    runtime = _ShardRuntime(0, make_slice(full, "Department", plan.shards[0]))
    owned = set(plan.shards[0])
    department = next(
        d.name
        for d in full.schema.dimension("Department").root.children
        if _share(full, _employee_grid("", d.name, "Acct001"), owned)[1]
    )
    text = _employee_grid("", department, "Acct001")
    base, rows, columns = _share(full, text, owned)
    reply = runtime.handle(cells_request(text, base, [(rows, columns)]))
    (block,) = reply["values"]
    assert any(value is not None for row in block for value in row)
    got = [_decode_value(value) for row in block for value in row]
    expected = [full.cube.effective_value(a) for a in _addresses(full, base, rows, columns)]
    assert repr(got) == repr(expected)
    assert len(runtime.warehouse.scenario_cache) == 0


@pytest.fixture(scope="module")
def service():
    with ShardedQueryService(
        "workforce", n_shards=2, workload_params=PARAMS
    ) as pool:
        yield pool


def test_the_pool_answers_cold_what_if_grids_bit_identically(service):
    departments = [
        m.name for m in service.warehouse.schema.dimension("Department").root.children
    ]
    for clause in CLAUSES:
        for text in (
            _employee_grid(clause, departments[2], "Acct001"),
            _dashboard(clause, "Acct002"),
            _employee_grid(clause, departments[3], "Acct000"),
        ):
            got = service.execute(text, degrade="fail")
            expected = build_workload("workforce", PARAMS).query(text)
            assert (got.rows, got.columns) == (expected.rows, expected.columns)
            assert repr(got.cells) == repr(expected.cells), text


def test_the_coordinator_applies_its_residue_under_a_footprint(service):
    """Scenario cells above any single member are the coordinator's own:
    ``serve.local`` applies the chain to the rows *those* cells reach."""
    text = _dashboard(
        "WITH PERSPECTIVE {(Apr)} FOR Department DYNAMIC BACKWARD VISUAL ", "Acct001"
    )
    n_leaves = service.warehouse.cube.n_leaf_cells
    with tracing() as tracer:
        got = service.execute(text, degrade="fail")
        root = tracer.take_last()
    assert got.stats["local_cells"] == len(got.rows) * len(got.columns)
    local = root.find("serve.local").attrs
    assert local["leaves_in"] == n_leaves
    assert local["footprint_rows"] == n_leaves // 6
    assert root.find("core.relocate").attrs["footprint_rows"] == n_leaves // 6
    expected = build_workload("workforce", PARAMS).query(text)
    assert repr(got.cells) == repr(expected.cells)
