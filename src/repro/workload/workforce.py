"""The Sec. 6 workforce-planning workload, scaled and seeded.

The paper's dataset: a real customer application with **7 dimensions** —
20,250 employees rolling up into 51 departments in one (varying) dimension,
a 12-month Time dimension, 100 measures (accounts), 5 business scenarios —
where 250 employees (~1%) change departments 1–11 times over the year.
The Fig. 10 queries additionally reference Currency ``[Local]``, Version
``[BU Version_1]`` and ``[HSP_InputValue]``, so our schema is:

    Department* (departments → employees, varying over Period)
    Period    (4 quarters → 12 months, ordered)
    Account   (measure accounts, one rollup level)
    Scenario  ([Current], ...)
    Currency  ([Local], ...)
    Version   ([BU Version_1], ...)
    Value     ([HSP_InputValue], ...)

Everything is scaled by :class:`WorkforceConfig`; defaults are test-sized,
benchmarks pass larger configs.  All randomness is seeded.

The named sets of Fig. 10 (``EmployeesWithAtleastOneMove-Set1..3`` and the
single two-instance ``EmployeeS3``) are defined on the warehouse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.olap.cube import Cube
from repro.olap.dimension import Dimension
from repro.olap.instances import VaryingDimension
from repro.olap.schema import CubeSchema
from repro.warehouse import Warehouse

if TYPE_CHECKING:
    from repro.core.merge_graph import VaryingAxisSpec
    from repro.storage.array_cube import ChunkedCube
    from repro.storage.io_stats import IoCostModel

__all__ = ["WorkforceConfig", "WorkforceWarehouse", "build_workforce"]

MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)
QUARTERS = ("Q1", "Q2", "Q3", "Q4")


@dataclass(frozen=True)
class WorkforceConfig:
    """Scale knobs; paper-scale values in comments."""

    n_employees: int = 120        # paper: 20,250
    n_departments: int = 8        # paper: 51
    n_changing: int = 12          # paper: 250 (~1%)
    max_moves: int = 4            # paper: between 1 and 11
    #: force exactly this many moves per changing employee (Fig. 13 uses
    #: employees with exactly 4 reporting-structure changes); None = random
    #: in [1, max_moves].
    exact_moves: int | None = None
    n_accounts: int = 6           # paper: 100 measures
    n_scenarios: int = 2          # paper: 5
    seed: int = 42
    #: fraction of (employee, month, account) cells holding data for
    #: non-changing employees (changing employees are always fully filled
    #: so the queries of Sec. 6 have work to do).
    density: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.n_changing <= self.n_employees:
            raise ValueError("n_changing must be in (0, n_employees]")
        if self.n_departments < 2:
            raise ValueError("need at least two departments to move between")
        if not 0.0 <= self.density <= 1.0:
            raise ValueError("density must be within [0, 1]")
        if self.exact_moves is not None and not 1 <= self.exact_moves <= 11:
            raise ValueError("exact_moves must be within [1, 11]")


@dataclass
class WorkforceWarehouse:
    """The generated warehouse plus handles used by benchmarks."""

    config: WorkforceConfig
    warehouse: Warehouse
    employee_varying: VaryingDimension
    changing_employees: list[str]
    departments: list[str]
    accounts: list[str]
    scenarios: list[str]
    moves: dict[str, list[tuple[str, int]]] = field(default_factory=dict)

    @property
    def schema(self) -> CubeSchema:
        return self.warehouse.schema

    @property
    def cube(self) -> Cube:
        return self.warehouse.cube

    # -- chunked physical organisation -----------------------------------------

    def chunked(
        self,
        chunk_shape: Sequence[int] | None = None,
        cost_model: IoCostModel | None = None,
    ) -> tuple[ChunkedCube, VaryingAxisSpec]:
        """Materialise the cube into the chunked store (Sec. 6's physical
        organisation) and return it with its varying-axis metadata.

        Employee-axis slots are laid out in outline order — grouped by
        department — so the instances of a changing employee live in
        *different* regions of the axis, exactly the physical separation
        the Fig. 12 experiment manipulates.
        """
        # the chunked store is the Sec. 5-6 experiments' business alone: a
        # process that only queries the warehouse never imports it
        from repro.core.merge_graph import VaryingAxisSpec
        from repro.storage.array_cube import Axis, ChunkedCube
        from repro.storage.chunk_store import ChunkStore
        from repro.storage.chunks import ChunkGrid

        varying = self.employee_varying
        slot_records: list[tuple[int, str, str]] = []  # (dept idx, label, member)
        dept_index = {name: i for i, name in enumerate(self.departments)}
        validity_of_slot = {}
        employee_dim = self.schema.dimension("Department")
        for leaf in employee_dim.leaf_members():
            for instance in varying.instances_of(leaf.name):
                dept = instance.path[-2]
                slot_records.append(
                    (dept_index[dept], instance.full_path, leaf.name)
                )
                validity_of_slot[instance.full_path] = instance.validity
        slot_records.sort(key=lambda rec: (rec[0], rec[1]))
        labels = [label for _, label, _ in slot_records]
        member_of_slot = {label: member for _, label, member in slot_records}

        axes = [
            Axis("Department", labels),
            Axis("Period", list(MONTHS)),
            Axis("Account", self.accounts),
            Axis("Scenario", self.scenarios),
            Axis("Currency", ["Local"]),
            Axis("Version", ["BU Version_1"]),
            Axis("Value", ["HSP_InputValue"]),
        ]
        if chunk_shape is None:
            chunk_shape = (
                max(1, min(16, len(labels))),
                3,
                len(self.accounts),
                len(self.scenarios),
                1,
                1,
                1,
            )
        sizes = tuple(len(a) for a in axes)
        grid = ChunkGrid(sizes, chunk_shape)
        store = ChunkStore(grid, cost_model)
        pending: dict[tuple[int, ...], np.ndarray] = {}
        schema = self.schema
        addr_index = {
            name: schema.dim_index(name)
            for name in (
                "Department", "Period", "Account", "Scenario",
                "Currency", "Version", "Value",
            )
        }
        label_index = {a.name: {lab: i for i, lab in enumerate(a.labels)} for a in axes}
        axis_order = [a.name for a in axes]
        for addr, value in self.cube.leaf_cells():
            cell = tuple(
                label_index[name][addr[addr_index[name]]] for name in axis_order
            )
            coord = grid.chunk_of_cell(cell)
            chunk = pending.get(coord)
            if chunk is None:
                chunk = grid.empty_chunk(coord).data
                pending[coord] = chunk
            origin = grid.chunk_origin(coord)
            local = tuple(c - o for c, o in zip(cell, origin))
            chunk[local] = value
        for coord in sorted(
            pending, key=lambda c: grid.linear_index(c, grid.default_order())
        ):
            store.load(coord, pending[coord])
        cube = ChunkedCube(axes, store)
        spec = VaryingAxisSpec(
            cube, "Department", "Period", member_of_slot, validity_of_slot
        )
        return cube, spec


def _build_dimensions(config: WorkforceConfig) -> tuple[CubeSchema, list, list, list]:
    employee = Dimension("Department")
    departments = [f"Dept{d:03d}" for d in range(config.n_departments)]
    employee.add_children(None, departments)

    period = Dimension("Period", ordered=True)
    for quarter_index, quarter in enumerate(QUARTERS):
        period.add_member(quarter)
        for month in MONTHS[quarter_index * 3 : quarter_index * 3 + 3]:
            period.add_member(month, quarter)

    account = Dimension("Account", is_measures=True)
    accounts = [f"Acct{a:03d}" for a in range(config.n_accounts)]
    account.add_member("AllAccounts")
    account.add_children("AllAccounts", accounts)

    scenario = Dimension("Scenario")
    scenarios = ["Current"] + [f"Scenario{i}" for i in range(1, config.n_scenarios)]
    scenario.add_children(None, scenarios)

    currency = Dimension("Currency")
    currency.add_children(None, ["Local"])
    version = Dimension("Version")
    version.add_children(None, ["BU Version_1"])
    value = Dimension("Value")
    value.add_children(None, ["HSP_InputValue"])

    schema = CubeSchema(
        [employee, period, account, scenario, currency, version, value]
    )
    return schema, departments, accounts, scenarios


def build_workforce(config: WorkforceConfig | None = None) -> WorkforceWarehouse:
    """Generate the (scaled) Sec. 6 warehouse deterministically."""
    config = config or WorkforceConfig()
    rng = np.random.default_rng(config.seed)
    schema, departments, accounts, scenarios = _build_dimensions(config)
    employee_dim = schema.dimension("Department")

    employees = [f"e{i:05d}" for i in range(config.n_employees)]
    home_department = {}
    for index, name in enumerate(employees):
        dept = departments[index % len(departments)]
        employee_dim.add_member(name, dept)
        home_department[name] = dept

    varying = schema.make_varying("Department", "Period")
    changing = list(
        rng.choice(config.n_employees, size=config.n_changing, replace=False)
    )
    changing_names = [employees[i] for i in sorted(changing)]
    moves: dict[str, list[tuple[str, int]]] = {}
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
            target = choices[int(rng.integers(0, len(choices)))]
            varying.reparent(name, target, int(month))
            moves[name].append((target, int(month)))
            current = target

    cube = Cube(schema)
    changing_set = set(changing_names)

    per_moment = len(accounts) * len(scenarios)

    def cells() -> Iterator[tuple[tuple[str, ...], float]]:
        for name in employees:
            filled = name in changing_set or rng.random() < config.density
            if not filled:
                continue
            instances = varying.instances_of(name)
            # One block of draws per employee: ``random(n)`` consumes the
            # stream as n scalar draws would and ``np.round`` is one ufunc
            # on a scalar or an array, so the values are bit-for-bit those
            # of a draw per cell (tests/workload keeps that generator as
            # the reference) at a hundredth of the cost.
            n_cells = per_moment * sum(len(inst.validity) for inst in instances)
            values = iter(np.round(50 + 50 * rng.random(n_cells), 2).tolist())
            for instance in instances:
                path = instance.full_path
                for t in instance.validity:
                    month = MONTHS[t]
                    for account_name in accounts:
                        for scenario_name in scenarios:
                            yield (
                                path,
                                month,
                                account_name,
                                scenario_name,
                                "Local",
                                "BU Version_1",
                                "HSP_InputValue",
                            ), next(values)

    cube.load(cells())

    warehouse = Warehouse(schema, cube, name="Db", aliases={"App", "Warehouse"})
    thirds = max(1, (len(changing_names) + 2) // 3)
    warehouse.define_named_set(
        "EmployeesWithAtleastOneMove-Set1", changing_names[:thirds]
    )
    warehouse.define_named_set(
        "EmployeesWithAtleastOneMove-Set2", changing_names[thirds : 2 * thirds]
    )
    warehouse.define_named_set(
        "EmployeesWithAtleastOneMove-Set3", changing_names[2 * thirds :]
    )
    two_instance = next(
        (
            name
            for name in changing_names
            if len(varying.instances_of(name)) == 2
        ),
        changing_names[0],
    )
    warehouse.define_named_set("EmployeeS3", [two_instance])

    return WorkforceWarehouse(
        config=config,
        warehouse=warehouse,
        employee_varying=varying,
        changing_employees=changing_names,
        departments=departments,
        accounts=accounts,
        scenarios=scenarios,
        moves=moves,
    )
