"""A Sec. 8 extension: compressed perspective cubes.

Delta-encodes a perspective cube against its base: with ~10% of
employees changing, the delta is a small fraction of the cube.

Run with:  python examples/compression.py
"""

from __future__ import annotations

from repro.core import NegativeScenario, Semantics, compress
from repro.workload.workforce import WorkforceConfig, build_workforce


def main() -> None:
    workforce = build_workforce(
        WorkforceConfig(
            n_employees=250,
            n_departments=10,
            n_changing=25,
            n_accounts=5,
            n_scenarios=2,
            seed=31,
        )
    )
    cube = workforce.cube

    print("=== Compressed perspective cubes ===")
    scenario = NegativeScenario("Department", ["Jan"], Semantics.FORWARD)
    result = scenario.apply(cube)
    compressed = compress(cube, result)
    print(f"base cube cells   : {cube.n_leaf_cells}")
    print(f"delta cells       : {compressed.delta_cells} "
          f"({len(compressed.overrides)} overrides, "
          f"{len(compressed.deletions)} deletions)")
    print(f"compression ratio : {compressed.compression_ratio:.3f} "
          "(delta / full output cube)")
    roundtrip = compressed.materialize()
    print(f"lossless roundtrip: {roundtrip.leaf_equal(result.leaf_cube)}")


if __name__ == "__main__":
    main()
