"""Tests for the workforce workload generator (Sec. 6 dataset, scaled)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workload.workforce import (
    MONTHS,
    WorkforceConfig,
    _build_dimensions,
    build_workforce,
)


@pytest.fixture(scope="module")
def workforce():
    return build_workforce(
        WorkforceConfig(
            n_employees=50,
            n_departments=5,
            n_changing=8,
            max_moves=3,
            n_accounts=4,
            n_scenarios=2,
            seed=11,
        )
    )


class TestStructure:
    def test_changing_count(self, workforce):
        assert len(workforce.changing_employees) == 8

    def test_every_changer_has_multiple_instances(self, workforce):
        for name in workforce.changing_employees:
            assert len(workforce.employee_varying.instances_of(name)) >= 2

    def test_moves_within_bounds(self, workforce):
        for name, moves in workforce.moves.items():
            assert 1 <= len(moves) <= 3

    def test_static_employees_have_one_instance(self, workforce):
        statics = [
            f"e{i:05d}"
            for i in range(50)
            if f"e{i:05d}" not in set(workforce.changing_employees)
        ]
        for name in statics[:5]:
            assert len(workforce.employee_varying.instances_of(name)) == 1

    def test_seven_dimensions(self, workforce):
        assert workforce.schema.n_dims == 7
        assert workforce.schema.is_varying("Department")

    def test_named_sets_partition_changers(self, workforce):
        wh = workforce.warehouse
        union: list[str] = []
        for i in (1, 2, 3):
            union.extend(
                wh.named_set(f"EmployeesWithAtleastOneMove-Set{i}").members
            )
        assert sorted(union) == sorted(workforce.changing_employees)

    def test_employee_s3_exists(self, workforce):
        s3 = workforce.warehouse.named_set("EmployeeS3")
        assert len(s3.members) == 1
        assert s3.members[0] in workforce.changing_employees


class TestData:
    def test_changers_fully_populated(self, workforce):
        name = workforce.changing_employees[0]
        total_moments = sum(
            len(inst.validity)
            for inst in workforce.employee_varying.instances_of(name)
        )
        assert total_moments == 12  # never invalid

    def test_deterministic_given_seed(self):
        config = WorkforceConfig(
            n_employees=20, n_departments=3, n_changing=3, seed=5
        )
        a = build_workforce(config)
        b = build_workforce(config)
        assert a.changing_employees == b.changing_employees
        assert a.cube.n_leaf_cells == b.cube.n_leaf_cells
        addr = next(iter(dict(a.cube.leaf_cells())))
        assert a.cube.value(addr) == b.cube.value(addr)

    def test_different_seeds_differ(self):
        a = build_workforce(WorkforceConfig(n_employees=20, n_changing=3, seed=1))
        b = build_workforce(WorkforceConfig(n_employees=20, n_changing=3, seed=2))
        assert a.changing_employees != b.changing_employees

    def test_density_reduces_cells(self):
        dense = build_workforce(
            WorkforceConfig(n_employees=30, n_changing=3, density=1.0, seed=3)
        )
        sparse = build_workforce(
            WorkforceConfig(n_employees=30, n_changing=3, density=0.2, seed=3)
        )
        assert sparse.cube.n_leaf_cells < dense.cube.n_leaf_cells

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkforceConfig(n_changing=0)
        with pytest.raises(ValueError):
            WorkforceConfig(n_departments=1)
        with pytest.raises(ValueError):
            WorkforceConfig(density=1.5)


def reference_workforce(config: WorkforceConfig):
    """The generator as it was before it drew a block of values per
    employee — one scalar draw and one ``np.round`` per cell — kept as the
    reference ``build_workforce`` must equal bit for bit.  Returns the
    ordered ``(address, value)`` list, ``moves`` and the named sets."""
    rng = np.random.default_rng(config.seed)
    schema, departments, accounts, scenarios = _build_dimensions(config)
    employee_dim = schema.dimension("Department")
    employees = [f"e{i:05d}" for i in range(config.n_employees)]
    home_department = {}
    for index, name in enumerate(employees):
        home_department[name] = departments[index % len(departments)]
        employee_dim.add_member(name, home_department[name])
    varying = schema.make_varying("Department", "Period")
    changing = rng.choice(config.n_employees, size=config.n_changing, replace=False)
    changing_names = [employees[i] for i in sorted(changing)]
    moves = {}
    for name in changing_names:
        varying.assign(name, home_department[name])
        if config.exact_moves is not None:
            n_moves = config.exact_moves
        else:
            n_moves = int(rng.integers(1, config.max_moves + 1))
        months = sorted(
            rng.choice(np.arange(1, 12), size=min(n_moves, 11), replace=False)
        )
        moves[name] = []
        current = home_department[name]
        for month in months:
            choices = [d for d in departments if d != current]
            current = choices[int(rng.integers(0, len(choices)))]
            varying.reparent(name, current, int(month))
            moves[name].append((current, int(month)))

    cells = []
    for name in employees:
        if not (name in moves or rng.random() < config.density):
            continue
        for instance in varying.instances_of(name):
            for t in instance.validity:
                for account in accounts:
                    for scenario in scenarios:
                        value = float(np.round(50 + 50 * rng.random(), 2))
                        address = (
                            instance.full_path, MONTHS[t], account, scenario,
                            "Local", "BU Version_1", "HSP_InputValue",
                        )
                        cells.append((address, value))

    thirds = max(1, (len(changing_names) + 2) // 3)
    two_instance = next(
        (n for n in changing_names if len(varying.instances_of(n)) == 2),
        changing_names[0],
    )
    named_sets = {
        "EmployeesWithAtleastOneMove-Set1": tuple(changing_names[:thirds]),
        "EmployeesWithAtleastOneMove-Set2": tuple(changing_names[thirds : 2 * thirds]),
        "EmployeesWithAtleastOneMove-Set3": tuple(changing_names[2 * thirds :]),
        "EmployeeS3": (two_instance,),
    }
    return cells, moves, named_sets


#: the ledger's two cube shapes (benchmarks/ledger/workloads.py) at small
#: ``n_employees``, and every knob that changes how many values are drawn
_BLOCK_DRAW_CONFIGS = {
    "default": WorkforceConfig(),
    "half-dense": WorkforceConfig(density=0.5),
    "exact-moves": WorkforceConfig(exact_moves=2),
    "one-scenario": WorkforceConfig(n_scenarios=1),
    "ledger-full": WorkforceConfig(
        n_employees=60, n_departments=10, n_changing=40, max_moves=4,
        n_accounts=10, n_scenarios=2, seed=42,
    ),
    "ledger-full-sparse": WorkforceConfig(
        n_employees=60, n_departments=10, n_changing=40, max_moves=4,
        n_accounts=10, n_scenarios=2, seed=42, density=0.9,
    ),
    "ledger-smoke": WorkforceConfig(
        n_employees=40, n_departments=4, n_changing=6, max_moves=3,
        n_accounts=3, n_scenarios=2, seed=1234, density=0.5,
    ),
}


@pytest.mark.parametrize("name", sorted(_BLOCK_DRAW_CONFIGS))
def test_block_draws_equal_the_per_cell_generator(name):
    config = _BLOCK_DRAW_CONFIGS[name]
    cells, moves, named_sets = reference_workforce(config)
    wf = build_workforce(config)
    built = list(wf.cube.leaf_cells())
    assert built == cells
    assert repr(built) == repr(cells)  # bit for bit: -0.0, 50.0 vs 50.00…1
    assert wf.moves == moves
    assert list(wf.moves) == list(moves) == wf.changing_employees
    assert {
        s.name: s.members for s in wf.warehouse.named_sets()
    } == named_sets


class TestChunkedBuild:
    def test_chunked_matches_semantic_cube(self, workforce):
        chunked, spec = workforce.chunked()
        # Sample a handful of stored cells and compare.
        for addr, value in list(workforce.cube.leaf_cells())[:25]:
            assert chunked.peek_at(chunked.cell_of(addr)) == value

    def test_slots_grouped_by_department(self, workforce):
        chunked, spec = workforce.chunked()
        labels = chunked.axis("Department").labels
        departments = [label.split("/")[1] for label in labels]
        assert departments == sorted(departments)

    def test_changing_members_exposed(self, workforce):
        _, spec = workforce.chunked()
        assert sorted(spec.changing_members()) == sorted(
            workforce.changing_employees
        )

    def test_instances_of_changer_in_separate_slots(self, workforce):
        chunked, spec = workforce.chunked()
        name = workforce.changing_employees[0]
        slots = spec.slots_of_member(name)
        assert len(slots) >= 2
        rows = [spec.slot_row(s) for s in slots]
        assert len(set(rows)) == len(rows)

    def test_chunked_query_roundtrip(self, workforce):
        """Chunk engine agrees with the semantic engine on a forward query."""
        from repro.core.perspective import PerspectiveSet, Semantics
        from repro.core.perspective_cube import run_perspective_query
        from repro.core.scenario import NegativeScenario
        from repro.olap.missing import is_missing

        chunked, spec = workforce.chunked()
        name = workforce.changing_employees[0]
        pset = PerspectiveSet.from_names(["Jan", "Jul"], workforce.employee_varying)
        result = run_perspective_query(
            spec, [name], pset, Semantics.FORWARD
        )
        reference = NegativeScenario(
            "Department", ["Jan", "Jul"], Semantics.FORWARD
        ).apply(workforce.cube)
        months = chunked.axis("Period").labels
        for label, data in result.rows.items():
            for t, month in enumerate(months):
                got = data[t, 0, 0, 0, 0, 0]
                expected = reference.leaf_cube.value(
                    workforce.schema.address(
                        Department=label,
                        Period=month,
                        Account=workforce.accounts[0],
                        Scenario="Current",
                        Currency="Local",
                        Version="BU Version_1",
                        Value="HSP_InputValue",
                    )
                )
                if is_missing(expected):
                    assert np.isnan(got)
                else:
                    assert got == expected
