"""An end-to-end analyst session over the workforce warehouse.

Chains together most of the library surface:

1. generate the (scaled) Sec. 6 workforce warehouse;
2. ask a Fig. 10-style extended-MDX question with Filter/Order/NON EMPTY;
3. save the warehouse to disk and reload it (JSON round trip);
4. apply a what-if by hand and compress the perspective cube against the
   base.

Run with:  python examples/analyst_walkthrough.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import NegativeScenario, Semantics, Mode, load_warehouse, save_warehouse
from repro.core.compression import compress
from repro.workload.workforce import WorkforceConfig, build_workforce

MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def main() -> None:
    workforce = build_workforce(
        WorkforceConfig(
            n_employees=120,
            n_departments=8,
            n_changing=12,
            n_accounts=4,
            n_scenarios=2,
            seed=99,
        )
    )
    warehouse = workforce.warehouse
    account = workforce.accounts[0]

    print("=== 1. Top movers by January value, under January's structure ===")
    result = warehouse.query(
        f"""
        WITH SET [Movers] AS {{[EmployeesWithAtleastOneMove-Set1].Children}}
        PERSPECTIVE {{(Jan)}} FOR Department DYNAMIC FORWARD VISUAL
        SELECT {{Period.[Q1], Period.[Q2], Period.[Q3], Period.[Q4]}} ON COLUMNS,
               NON EMPTY Head(Order({{[Movers]}},
                              ([{account}], Period.[Jan]), DESC), 3)
               DIMENSION PROPERTIES [Department] ON ROWS
        FROM [App].[Db]
        WHERE ([{account}], [Current], [Local], [BU Version_1],
               [HSP_InputValue])
        """
    )
    print(result.to_text())
    print()

    print("=== 2. Save / reload the warehouse (JSON directory) ===")
    with tempfile.TemporaryDirectory() as tmp:
        path = save_warehouse(warehouse, Path(tmp) / "workforce")
        files = sorted(p.name for p in path.iterdir())
        reloaded = load_warehouse(path)
        print(f"saved {files}; reloaded cube has "
              f"{reloaded.cube.n_leaf_cells} leaf cells "
              f"(original {warehouse.cube.n_leaf_cells})")
    print()

    print("=== 3. A what-if applied by hand, compressed against the base ===")
    scenario = NegativeScenario(
        "Department", ["Jan"], Semantics.FORWARD, Mode.VISUAL
    )
    compressed = compress(warehouse.cube, scenario.apply(warehouse.cube))
    print(f"perspective cube delta: {compressed.delta_cells} cells, "
          f"ratio {compressed.compression_ratio:.3f}")


if __name__ == "__main__":
    main()
