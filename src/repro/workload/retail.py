"""Retail (product x time x location) workload in the style of Fig. 7.

Fig. 7 shows a Location=NY slice of a Product x Time cube where product
1001 is reclassified across product groups over the year — rows 100/1001,
200/1001, 300/1001 are separate member-instance rows of the chunked array.
:func:`fig7_example` builds exactly that shape; :func:`build_retail`
generalises it (N product groups, configurable varying products and move
counts, seeded), which the ablation benchmarks use to stress chunk merging
and pebbling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.merge_graph import VaryingAxisSpec
from repro.olap.cube import Cube
from repro.olap.dimension import Dimension
from repro.olap.instances import VaryingDimension
from repro.olap.schema import CubeSchema
from repro.storage.array_cube import Axis, ChunkedCube
from repro.storage.io_stats import IoCostModel
from repro.warehouse import Warehouse

__all__ = ["RetailConfig", "RetailWarehouse", "build_retail", "fig7_example"]

MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)


@dataclass(frozen=True)
class RetailConfig:
    """Scale knobs for the generalised retail workload."""

    n_groups: int = 3
    products_per_group: int = 4
    n_varying: int = 2
    max_moves: int = 3
    n_locations: int = 2
    seed: int = 13

    def __post_init__(self) -> None:
        if self.n_groups < 2:
            raise ValueError("need at least two product groups")
        total = self.n_groups * self.products_per_group
        if not 0 <= self.n_varying <= total:
            raise ValueError("n_varying outside product count")


@dataclass
class RetailWarehouse:
    config: RetailConfig
    warehouse: Warehouse
    product_varying: VaryingDimension
    groups: list[str]
    products: list[str]
    varying_products: list[str]
    locations: list[str]

    @property
    def schema(self) -> CubeSchema:
        return self.warehouse.schema

    @property
    def cube(self) -> Cube:
        return self.warehouse.cube

    def chunked(
        self,
        chunk_shape: Sequence[int] | None = None,
        cost_model: IoCostModel | None = None,
    ) -> tuple[ChunkedCube, VaryingAxisSpec]:
        """Chunked organisation with product slots grouped by group (the
        Fig. 7 row layout)."""
        varying = self.product_varying
        group_index = {name: i for i, name in enumerate(self.groups)}
        records: list[tuple[int, str, str]] = []
        validity = {}
        for product in self.products:
            for instance in varying.instances_of(product):
                records.append(
                    (group_index[instance.path[-2]], instance.full_path, product)
                )
                validity[instance.full_path] = instance.validity
        records.sort(key=lambda rec: (rec[0], rec[1]))
        labels = [label for _, label, _ in records]
        member_of_slot = {label: member for _, label, member in records}
        axes = [
            Axis("Product", labels),
            Axis("Time", list(MONTHS)),
            Axis("Location", self.locations),
        ]
        if chunk_shape is None:
            chunk_shape = (max(1, len(labels) // 4), 3, len(self.locations))
        chunked = ChunkedCube.build(
            axes,
            ((addr[:3], value) for addr, value in self.cube.leaf_cells()),
            chunk_shape,
            cost_model,
        )
        return chunked, VaryingAxisSpec(
            chunked, "Product", "Time", member_of_slot, validity
        )


def build_retail(config: RetailConfig | None = None) -> RetailWarehouse:
    """Generate the retail warehouse deterministically."""
    config = config or RetailConfig()
    rng = np.random.default_rng(config.seed)

    product_dim = Dimension("Product")
    groups = [str(100 * (g + 1)) for g in range(config.n_groups)]
    product_dim.add_children(None, groups)
    products: list[str] = []
    home: dict[str, str] = {}
    for g, group in enumerate(groups):
        for p in range(config.products_per_group):
            name = f"{group}{p + 1:02d}"
            product_dim.add_member(name, group)
            products.append(name)
            home[name] = group

    time = Dimension("Time", ordered=True)
    for month in MONTHS:
        time.add_member(month)

    location = Dimension("Location")
    locations = [f"L{i}" for i in range(config.n_locations)]
    location.add_children(None, locations)

    schema = CubeSchema([product_dim, time, location])
    varying = schema.make_varying("Product", "Time")

    chosen = rng.choice(len(products), size=config.n_varying, replace=False)
    varying_products = [products[i] for i in sorted(chosen)]
    for name in varying_products:
        varying.assign(name, home[name])
        n_moves = int(rng.integers(1, config.max_moves + 1))
        months = sorted(
            rng.choice(np.arange(1, 12), size=min(n_moves, 11), replace=False)
        )
        current = home[name]
        for month in months:
            choices = [g for g in groups if g != current]
            target = choices[int(rng.integers(0, len(choices)))]
            varying.reparent(name, target, int(month))
            current = target

    cube = Cube(schema)
    cube.load(
        ((instance.full_path, MONTHS[t], loc), float(rng.integers(5, 50)))
        for name in products
        for instance in varying.instances_of(name)
        for t in instance.validity
        for loc in locations
    )

    warehouse = Warehouse(schema, cube, name="Retail")
    return RetailWarehouse(
        config=config,
        warehouse=warehouse,
        product_varying=varying,
        groups=groups,
        products=products,
        varying_products=varying_products,
        locations=locations,
    )


def fig7_example() -> RetailWarehouse:
    """The exact Fig. 7 shape: product 1001 under group 300 for Jan-Apr,
    group 200 for May-Aug, group 100 for Sep-Dec; 1002/2001/3001 static."""
    product_dim = Dimension("Product")
    product_dim.add_children(None, ["100", "200", "300"])
    product_dim.add_member("1001", "300")
    product_dim.add_member("1002", "100")
    product_dim.add_member("2001", "200")
    product_dim.add_member("3001", "300")

    time = Dimension("Time", ordered=True)
    for month in MONTHS:
        time.add_member(month)

    location = Dimension("Location")
    location.add_children(None, ["NY"])

    schema = CubeSchema([product_dim, time, location])
    varying = schema.make_varying("Product", "Time")
    varying.assign("1001", "300")
    varying.reparent("1001", "200", "May")
    varying.reparent("1001", "100", "Sep")

    cube = Cube(schema)
    cube.load(
        ((instance.full_path, MONTHS[t], "NY"), 10.0)
        for product in ("1001", "1002", "2001", "3001")
        for instance in varying.instances_of(product)
        for t in instance.validity
    )

    warehouse = Warehouse(schema, cube, name="Retail")
    return RetailWarehouse(
        config=RetailConfig(),
        warehouse=warehouse,
        product_varying=varying,
        groups=["100", "200", "300"],
        products=["1001", "1002", "2001", "3001"],
        varying_products=["1001"],
        locations=["NY"],
    )
